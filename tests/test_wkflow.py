from fractions import Fraction as Q

import numpy as np
import pytest

from flatforms.wkflow import (
    classify_limits,
    face_restriction_check,
    flow_batch,
    height,
    lyapunov_rate,
    nearest_vertex,
    vertex_linearization,
    wk_eval,
    wk_field,
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


def random_point(rng, k):
    """A random exact barycentric point with some zero coordinates."""
    raw = [Q(int(a), int(b)) for a, b in zip(rng.integers(0, 9, size=k + 1),
                                              rng.integers(1, 30, size=k + 1))]
    s = sum(raw)
    if s == 0:
        return [Q(1)] + [Q(0)] * k
    return [c / s for c in raw]


def sign(n):
    return (n > 0) - (n < 0)


def test_wk_eval_is_the_replicator_field_exactly():
    # W_k(x)_m = x_m (Ax)_m for the antisymmetric payoff A[m][i] = sign(m - i)
    rng = np.random.default_rng(5)
    for k in range(1, 6):
        for _ in range(20):
            x = random_point(rng, k)
            v = wk_eval(k, x)
            for m in range(k + 1):
                assert v[m] == x[m] * sum(sign(m - i) * x[i] for i in range(k + 1))


def test_replicator_payoff_vanishes_exactly():
    # sum_m W_k(x)_m = x^T A x = 0 because A is antisymmetric
    rng = np.random.default_rng(6)
    for k in range(1, 6):
        for _ in range(20):
            assert sum(wk_eval(k, random_point(rng, k))) == 0


def test_batch_field_equals_wk_eval_on_dyadic_points():
    # dyadic coordinates make every product and sum exact in binary64,
    # so the float field must equal the exact one
    rng = np.random.default_rng(7)
    for k in range(1, 6):
        ints = rng.integers(0, 64, size=(30, k + 1))
        x = ints / 64.0
        got = wk_field(x)
        for row, want_row in zip(got, ints):
            want = wk_eval(k, [Q(int(a), 64) for a in want_row])
            assert [Q(float(c)) for c in row] == list(want)


def test_batch_row_equals_one_row_flow():
    rng = np.random.default_rng(8)
    for k in (1, 3, 4):
        starts = rng.dirichlet(np.ones(k + 1), size=25)
        starts[3] = 0.0
        starts[3, k // 2] = 1.0  # a vertex: settles at t_max by its speed
        for backward in (False, True):
            batch = flow_batch(k, starts, backward=backward)
            assert batch.converged.all() and batch.monotone.all()
            for i in (0, 3, 24):
                one = flow_batch(k, [starts[i]], backward=backward)
                assert one.converged[0]
                assert np.abs(batch.limits[i] - one.limits[0]).max() <= 1e-12
                times, points = batch.path(i)
                one_times, one_points = one.path(0)
                assert len(times) == len(one_times)
                assert np.abs(points - one_points).max() <= 1e-12


def test_edge_flow_follows_the_logistic_curve():
    # on the edge x_1' = x_1 (1 - x_1), so x_1(t) = 1 / (1 + e^-t x_0 / x_1)
    starts = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    for backward in (False, True):
        batch = flow_batch(1, starts, backward=backward)
        direction = -1 if backward else 1
        for i, (x0, x1) in enumerate(starts):
            times, points = batch.path(i)
            exact = 1 / (1 + x0 / x1 * np.exp(-direction * times))
            assert np.abs(points[:, 1] - exact).max() <= 1e-9
            # the run ends where the speed |W| = sqrt(2) x_0 x_1 meets 1e-10
            end = points[-1]
            assert abs(2 ** 0.5 * end[0] * end[1] - 1e-10) <= 1e-16


def test_flow_batch_rejects_malformed_starts():
    with pytest.raises(ValueError):
        flow_batch(2, [[0.5, 0.5]])
    with pytest.raises(ValueError):
        flow_batch(2, [[0.5, 0.5, 0.5]])
    with pytest.raises(ValueError):
        flow_batch(2, [[0.5, 0.5, 0.0], [float("nan"), 0.5, 0.5]])


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
    batch = flow_batch(2, [(0.2, 0.5, 0.3)])
    assert batch.converged[0]
    assert nearest_vertex(batch.limits[0]) == 2


def test_flow_backward_reaches_min_support_vertex():
    batch = flow_batch(2, [(0.2, 0.5, 0.3)], backward=True)
    assert batch.converged[0]
    assert nearest_vertex(batch.limits[0]) == 0


def test_flow_on_invariant_face():
    batch = flow_batch(3, [(0.0, 0.4, 0.6, 0.0)])
    assert batch.converged[0]
    assert nearest_vertex(batch.limits[0]) == 2
    back = flow_batch(3, [(0.0, 0.4, 0.6, 0.0)], backward=True)
    assert back.converged[0]
    assert nearest_vertex(back.limits[0]) == 1


def test_flow_height_monotone():
    batch = flow_batch(3, [(0.1, 0.2, 0.3, 0.4)])
    assert batch.converged[0]
    _times, points = batch.path(0)
    hs = [height(3, p) for p in points]
    assert all(b >= a - 1e-9 for a, b in zip(hs, hs[1:]))


def test_flow_no_convergence():
    batch = flow_batch(2, [(0.2, 0.5, 0.3)], t_max=1e-3)
    assert not batch.converged[0]
    assert batch.unsettled(0).startswith("speed still ")
    assert batch.unsettled(0).endswith(" at t=0.001")


def test_batch_rows_settle_independently():
    # cut short, the interior row is still moving and the vertex is not
    batch = flow_batch(2, [(0.2, 0.5, 0.3), (0.0, 1.0, 0.0)], t_max=1e-3)
    assert batch.converged.tolist() == [False, True]
    assert batch.unsettled(0).startswith("speed still ")
    assert batch.unsettled(0).endswith(" at t=0.001")


def test_flow_from_vertex_is_trivial():
    batch = flow_batch(2, [(0.0, 1.0, 0.0)])
    assert batch.converged[0]
    assert nearest_vertex(batch.limits[0]) == 1
