from fractions import Fraction as Q

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from flatforms.wkflow import (
    _A,
    _B,
    _E,
    ATOL,
    ERROR_EXPONENT,
    HEIGHT_DRIFT,
    MAX_FACTOR,
    MAX_STEP,
    MIN_FACTOR,
    RTOL,
    SAFETY,
    SPEED_FLOOR,
    FlowBatch,
    _initial_step,
    _locate_events,
    _norm,
    _P_COLS,
    _rms,
    classify_limits,
    face_restriction_check,
    flow_batch,
    height,
    is_barycentric,
    lyapunov_rate,
    nearest_vertex,
    sweep_starts,
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


def test_batch_field_equals_wk_eval_on_python_floats():
    # non-dyadic rows round at every step, so only the same operations in
    # the same order give the same bits
    rng = np.random.default_rng(11)
    for k in range(1, 9):
        x = rng.dirichlet(np.ones(k + 1), size=200)
        x[::4, 0] = 0.0
        x[1::4, k] = 0.0
        x[2::4, k // 2] = -1e-13
        x[3::4, :] *= 1e-300
        got = wk_field(x)
        for row, want_row in zip(x, got):
            want = wk_eval(k, [float(c) for c in row])
            assert [c.hex() for c in want] == [float(c).hex() for c in want_row]


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


# ---------------------------------------------------------------------------
# oracle: the batched RK45 before its field and stage sums were built in
# place and its per-row selections were skipped where every row agrees
# ---------------------------------------------------------------------------

def reference_wk_field(x):
    cs = np.cumsum(x, axis=1)
    prefix = np.concatenate([np.zeros_like(x[:, :1]), cs[:, :-1]], axis=1)
    suffix = cs[:, -1:] - prefix - x
    return x * (prefix - suffix)


def reference_combine(K, weights):
    out = None
    for stage, w in zip(K, weights):
        if w:
            out = stage * w if out is None else out + stage * w
    return out


def reference_flow_batch(k, starts, backward=False, t_max=200.0):
    """``flow_batch`` as it was: every selection through ``np.where`` or
    a mask, every stage sum and field value a fresh expression."""
    y = np.array(starts, dtype=float)
    sign = -1.0 if backward else 1.0

    def fun(x):
        return sign * reference_wk_field(x)

    def monotone(before, after):
        if backward:
            return after <= before + HEIGHT_DRIFT
        return after >= before - HEIGHT_DRIFT

    n = len(y)
    final = y.copy()
    mono_out = np.ones(n, dtype=bool)
    fired_out = np.zeros(n, dtype=bool)
    recorded = [(np.arange(n), np.zeros(n), y)]
    events = []
    rows = np.arange(n)
    t = np.zeros(n)
    f = fun(y)
    h_abs = _initial_step(fun, y, f, t_max)
    g = _norm(f) - SPEED_FLOOR
    hgt = height(k, y.T)
    mono = np.ones(n, dtype=bool)
    retry = np.zeros(n, dtype=bool)
    while rows.size:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs = np.where(retry, h_abs, np.clip(h_abs, min_step, MAX_STEP))
        stuck = h_abs < min_step
        t_new = np.minimum(t + h_abs, t_max)
        h = t_new - t
        hc = h[:, None]
        K = [f]
        for a in _A[1:]:
            K.append(fun(y + reference_combine(K, a) * hc))
        y_new = y + hc * reference_combine(K, _B)
        f_new = fun(y_new)
        K.append(f_new)
        scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
        err = _rms(reference_combine(K, _E) * hc / scale)
        accept = (err < 1) & ~stuck
        with np.errstate(divide="ignore"):
            factor = SAFETY * err ** ERROR_EXPONENT
        factor = np.where(accept, np.minimum(MAX_FACTOR, factor),
                          np.maximum(MIN_FACTOR, factor))
        factor = np.where(accept & retry, np.minimum(1.0, factor), factor)
        h_abs = h * factor
        retry = ~accept
        g_new = _norm(f_new) - SPEED_FLOOR
        fired = accept & (g >= 0) & (g_new <= 0)
        stepped = accept & ~fired
        hgt_new = height(k, y_new.T)
        mono = np.where(stepped, mono & monotone(hgt, hgt_new), mono)
        if fired.any():
            events.append([rows[fired], t[fired], h[fired], y[fired],
                           hgt[fired], mono[fired]] + [s[fired] for s in K])
        recorded.append((rows[stepped], t_new[stepped], y_new[stepped]))
        acc = accept[:, None]
        t = np.where(accept, t_new, t)
        y = np.where(acc, y_new, y)
        f = np.where(acc, f_new, f)
        g = np.where(accept, g_new, g)
        hgt = np.where(stepped, hgt_new, hgt)
        done = stuck | (stepped & (t_new >= t_max))
        final[rows[done]] = y[done]
        mono_out[rows[done]] = mono[done]
        keep = ~(fired | done)
        if not keep.all():
            rows, t, y, f, h_abs, g, hgt, mono, retry = (
                a[keep] for a in (rows, t, y, f, h_abs, g, hgt, mono, retry))
    if events:
        ev_rows, t_old, step, y_old, h_prev, ev_mono, *K = (
            np.concatenate(parts) for parts in zip(*events))
        Qc = [reference_combine(K, col) for col in _P_COLS]
        y_ev, x = _locate_events(y_old, step, Qc)
        final[ev_rows] = y_ev
        fired_out[ev_rows] = True
        mono_out[ev_rows] = ev_mono & monotone(h_prev, height(k, y_ev.T))
        recorded.append((ev_rows, t_old + x * step, y_ev))
    speeds = _norm(reference_wk_field(final))
    limits = np.clip(final, 0.0, None)
    limits = limits / limits.sum(axis=1, keepdims=True)
    point_rows, point_times, points = (np.concatenate(parts)
                                       for parts in zip(*recorded))
    return FlowBatch(t_max=t_max, limits=limits, speeds=speeds,
                     converged=fired_out | (speeds <= SPEED_FLOOR),
                     monotone=mono_out, point_rows=point_rows,
                     point_times=point_times, points=points)


FLOW_BATCH_FIELDS = ("limits", "speeds", "converged", "monotone",
                     "point_rows", "point_times", "points")


def oracle_starts(rng, k):
    """Interior rows beside a vertex and a start on each kind of face."""
    starts = rng.dirichlet(np.ones(k + 1), size=30)
    starts[0] = 0.0
    starts[0, k // 2] = 1.0                 # a vertex
    starts[1, 0] = 0.0                      # the facet opposite vertex 0
    starts[2, k] = 0.0                      # the facet opposite vertex k
    starts[3, 1:k] = 0.0                    # the edge (0, k)
    return starts / starts.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
def test_flow_batch_matches_the_reference_bit_for_bit(k, backward):
    """Every ``FlowBatch`` field equals the old loop's, on a batch of
    interior, face and vertex starts, on each of them alone, and cut
    short by ``t_max``."""
    starts = oracle_starts(np.random.default_rng(20 + k), k)
    cases = [(starts, 200.0), (starts, 0.5), (starts[:1], 200.0),
             (starts[1:2], 200.0), (starts[4:5], 200.0), (starts[5:6], 1e-3)]
    for rows, t_max in cases:
        got = flow_batch(k, rows, backward=backward, t_max=t_max)
        want = reference_flow_batch(k, rows, backward=backward, t_max=t_max)
        assert got.t_max == want.t_max
        for name in FLOW_BATCH_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                (t_max, len(rows), name)


# ---------------------------------------------------------------------------
# exact sweep starts
# ---------------------------------------------------------------------------

def test_is_barycentric():
    assert is_barycentric([Q(1, 3), Q(2, 3)])
    assert is_barycentric([Q(0), Q(1), Q(0)])
    assert not is_barycentric([Q(1, 2), Q(1, 2), Q(1, 2)])
    assert not is_barycentric([Q(3, 2), Q(-1, 2)])
    assert not is_barycentric([Q(1, 3), Q(1, 3), Q(1, 3) + Q(1, 10**30)])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), count=st.integers(1, 12),
       seed=st.integers(0, 2**63))
def test_sweep_starts_are_positive_exact_barycentric_points(k, count, seed):
    starts = sweep_starts(k, count, seed)
    assert len(starts) == count
    for start in starts:
        assert len(start) == k + 1
        assert all(type(c) is Q and c > 0 for c in start)
        assert sum(start) == 1 and is_barycentric(start)
    assert sweep_starts(k, count, seed) == starts


def test_sweep_starts_round_the_dirichlet_draws():
    """Each start is the Dirichlet(1) draw of the same stream, a row of
    standard exponentials E over their sum, with every E rounded up to a
    multiple of 2^-30: it moves by at most (k + 1) 2^-30 / sum(E)."""
    for seed in range(3):
        for k in (1, 3, 8):
            rng = np.random.default_rng(seed)
            want = [rng.dirichlet(np.ones(k + 1)) for _ in range(20)]
            draws = np.random.default_rng(seed).standard_exponential(
                (20, k + 1))
            got = sweep_starts(k, 20, seed)
            for a, e, b in zip(want, draws, got):
                bound = (k + 1) * 2 ** -30 / e.sum() + 1e-15
                assert np.abs(a - [float(c) for c in b]).max() <= bound
