from fractions import Fraction as Q

import numpy as np
import pytest

from flatforms.wkflow import (
    NoConvergence,
    classify_limits,
    face_restriction_check,
    flow,
    height,
    lyapunov_rate,
    nearest_vertex,
    vertex_linearization,
    wk_eval,
)


def test_wk_eval_edge_midpoint():
    assert wk_eval(1, (Q(1, 2), Q(1, 2))) == (Q(-1, 4), Q(1, 4))


def test_wk_eval_triangle_barycenter():
    v = wk_eval(2, (Q(1, 3), Q(1, 3), Q(1, 3)))
    assert v == (Q(-2, 9), Q(0), Q(2, 9))


def test_wk_eval_vertices_are_equilibria():
    for k in range(1, 5):
        for m in range(k + 1):
            x = [Q(0)] * (k + 1)
            x[m] = Q(1)
            assert all(c == 0 for c in wk_eval(k, x))


def test_mass_is_conserved():
    rng = np.random.default_rng(0)
    for k in range(1, 5):
        x = rng.dirichlet(np.ones(k + 1))
        assert abs(sum(wk_eval(k, list(x)))) < 1e-14


def test_lyapunov_rate_values():
    assert lyapunov_rate(2, (Q(1, 3), Q(1, 3), Q(1, 3))) == Q(4, 9)
    assert lyapunov_rate(1, (Q(1, 2), Q(1, 2))) == Q(1, 4)


def test_lyapunov_rate_nonnegative_exact():
    rng = np.random.default_rng(1)
    for k in range(1, 5):
        for _ in range(20):
            raw = [Q(int(a), 64) for a in rng.integers(0, 20, size=k + 1)]
            s = sum(raw)
            if s == 0:
                continue
            x = [c / s for c in raw]
            assert lyapunov_rate(k, x) >= 0


def test_classify_limits():
    assert classify_limits((0, Q(1, 2), Q(1, 2), 0)) == (1, 2)
    assert classify_limits((Q(1), 0, 0)) == (0, 0)
    assert classify_limits((Q(1, 4), Q(1, 4), Q(1, 4), Q(1, 4))) == (0, 3)


def chart_partial(k, m, i, j):
    """d(xdot_i)/dx_j at vertex m in the chart eliminating x_m, by a
    central difference of the field, exact because it is quadratic."""
    h = Q(1, 1000)

    def field_i(t):
        x = [Q(0)] * (k + 1)
        x[j] = t
        x[m] = 1 - t
        return wk_eval(k, x)[i]

    return (field_i(h) - field_i(-h)) / (2 * h)


def test_vertex_linearization_signs_and_counts():
    for k in range(1, 5):
        for m in range(k + 1):
            jac, ns, nu = vertex_linearization(k, m)
            assert ns == m and nu == k - m
            others = [i for i in range(k + 1) if i != m]
            for a, i in enumerate(others):
                for b, j in enumerate(others):
                    want = (1 if i > m else -1) if a == b else 0
                    assert jac[a][b] == want == chart_partial(k, m, i, j)


def test_face_restriction_exact():
    assert face_restriction_check(3, (0, 2))
    assert face_restriction_check(4, (1, 2, 4))
    assert face_restriction_check(2, (1,))


def test_flow_forward_reaches_max_support_vertex():
    traj = flow(2, (0.2, 0.5, 0.3))
    assert nearest_vertex(traj.limit) == 2


def test_flow_backward_reaches_min_support_vertex():
    traj = flow(2, (0.2, 0.5, 0.3), backward=True)
    assert nearest_vertex(traj.limit) == 0


def test_flow_on_invariant_face():
    traj = flow(3, (0.0, 0.4, 0.6, 0.0))
    assert nearest_vertex(traj.limit) == 2
    back = flow(3, (0.0, 0.4, 0.6, 0.0), backward=True)
    assert nearest_vertex(back.limit) == 1


def test_flow_height_monotone():
    traj = flow(3, (0.1, 0.2, 0.3, 0.4))
    hs = [height(3, p) for p in traj.points]
    assert all(b >= a - 1e-9 for a, b in zip(hs, hs[1:]))


def test_flow_no_convergence():
    with pytest.raises(NoConvergence):
        flow(2, (0.2, 0.5, 0.3), t_max=1e-3)


def test_flow_from_vertex_is_trivial():
    traj = flow(2, (0.0, 1.0, 0.0))
    assert nearest_vertex(traj.limit) == 1
