import json
import math
import random
from fractions import Fraction as Q

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from flatforms import cli
from flatforms.wkflow import (
    SCHEDULE,
    SWEEP_BITS,
    classify_limits,
    face_restriction_check,
    flow,
    height,
    height_monotone,
    is_barycentric,
    logistic_law,
    lyapunov_rate,
    sweep_starts,
    vertex_index,
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


def random_point(rng, k):
    """A random exact barycentric point with some zero coordinates."""
    raw = [Q(rng.randrange(9), rng.randrange(1, 30)) for _ in range(k + 1)]
    s = sum(raw)
    if s == 0:
        return [Q(1)] + [Q(0)] * k
    return [c / s for c in raw]


def schedule():
    """s = 2^-j for j = 0..SCHEDULE, then the limit s = 0."""
    return [Q(1, 2 ** j) for j in range(SCHEDULE + 1)] + [0]


def test_mass_is_conserved():
    rng = random.Random(0)
    for k in range(1, 5):
        for _ in range(10):
            x = random_point(rng, k)
            for backward in (False, True):
                assert all(sum(flow(x, s, backward)) == 1
                           for s in schedule())


def sign(n):
    return (n > 0) - (n < 0)


def test_wk_eval_is_the_replicator_field_exactly():
    # W_k(x)_m = x_m (Ax)_m for the antisymmetric payoff A[m][i] = sign(m - i)
    rng = random.Random(5)
    for k in range(1, 6):
        for _ in range(20):
            x = random_point(rng, k)
            v = wk_eval(k, x)
            for m in range(k + 1):
                assert v[m] == x[m] * sum(sign(m - i) * x[i] for i in range(k + 1))


def test_replicator_payoff_vanishes_exactly():
    # sum_m W_k(x)_m = x^T A x = 0 because A is antisymmetric
    rng = random.Random(6)
    for k in range(1, 6):
        for _ in range(20):
            assert sum(wk_eval(k, random_point(rng, k))) == 0


@settings(max_examples=200, deadline=None)
@given(weights=st.integers(1, 7).flatmap(
    lambda k: st.lists(st.integers(0, 50), min_size=k + 1, max_size=k + 1)
    .filter(any)))
def test_prefix_sums_of_the_field_follow_the_logistic_law(weights):
    """At every rational point the prefix sums of ``wk_eval`` equal
    P_m^2 - P_m, the law that ``flow`` solves."""
    total = sum(weights)
    x = [Q(w, total) for w in weights]
    assert logistic_law(len(x) - 1, x)


def test_the_logistic_law_fails_off_the_simplex():
    # the telescoping needs sum x = 1
    assert not logistic_law(1, [Q(1, 2), Q(1, 4)])


def test_edge_flow_follows_the_logistic_curve():
    # on the edge x_1' = x_1 (1 - x_1), so x_1(t) = 1 / (1 + e^-t x_0 / x_1)
    for x0, x1 in ((Q(9, 10), Q(1, 10)), (Q(1, 2), Q(1, 2)), (Q(1, 5), Q(4, 5))):
        for backward in (False, True):
            for s in schedule()[:-1]:
                e_minus_t = 1 / s if backward else s
                assert flow([x0, x1], s, backward) == \
                    [1 - 1 / (1 + e_minus_t * x0 / x1),
                     1 / (1 + e_minus_t * x0 / x1)]


def test_lyapunov_rate_values():
    assert lyapunov_rate(2, (Q(1, 3), Q(1, 3), Q(1, 3))) == Q(4, 9)
    assert lyapunov_rate(1, (Q(1, 2), Q(1, 2))) == Q(1, 4)


def test_lyapunov_rate_nonnegative_exact():
    rng = random.Random(1)
    for k in range(1, 5):
        for _ in range(20):
            assert lyapunov_rate(k, random_point(rng, k)) >= 0


def test_classify_limits():
    assert classify_limits((0, Q(1, 2), Q(1, 2), 0)) == (1, 2)
    assert classify_limits((Q(1), 0, 0)) == (0, 0)
    assert classify_limits((Q(1, 4), Q(1, 4), Q(1, 4), Q(1, 4))) == (0, 3)


def test_vertex_index():
    assert vertex_index([Q(0), Q(1), Q(0)]) == 1
    assert vertex_index([Q(1, 2), Q(1, 2), Q(0)]) is None


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


START = [Q(1, 5), Q(1, 2), Q(3, 10)]


def test_flow_forward_reaches_max_support_vertex():
    assert flow(START, 0) == [0, 0, 1]


def test_flow_backward_reaches_min_support_vertex():
    assert flow(START, 0, backward=True) == [1, 0, 0]


def test_flow_on_invariant_face():
    x = [Q(0), Q(2, 5), Q(3, 5), Q(0)]
    for backward in (False, True):
        for s in schedule():
            point = flow(x, s, backward)
            assert point[0] == point[3] == 0
    assert flow(x, 0) == [0, 0, 1, 0]
    assert flow(x, 0, backward=True) == [0, 1, 0, 0]


def test_flow_height_monotone():
    x = [Q(1, 10), Q(1, 5), Q(3, 10), Q(2, 5)]
    for backward in (False, True):
        path = [flow(x, s, backward) for s in schedule()]
        assert height_monotone(3, path, backward)
        assert not height_monotone(3, path, not backward)
        # h = k - sum_{m<k} P_m
        for point in path:
            assert height(3, point) == 3 - sum(
                sum(point[:m + 1]) for m in range(3))


def test_flow_from_vertex_is_trivial():
    x = [Q(0), Q(1), Q(0)]
    for backward in (False, True):
        path = [flow(x, s, backward) for s in schedule()]
        assert all(point == x for point in path)
        assert height_monotone(2, path, backward)
    assert not height_monotone(2, [x, [Q(0), Q(0), Q(1)]])


def test_flow_no_convergence(capsys, monkeypatch):
    """A limit that is not a vertex is reported unconverged, with a
    certificate naming the start; the exact flow never gives one, so
    here the flow is replaced by one that stays put."""
    monkeypatch.setattr(cli, "flow", lambda x, s, backward=False: list(x))
    assert cli.main(["flow", "--k", "2", "--start", "1/5,1/2,3/10"]) == 1
    report = json.loads(capsys.readouterr().out)
    t = report["checks"]["trajectory"]
    assert t["converged"] is False and t["limit_vertex"] is None
    assert report["certificates"][0] == \
        "start ['1/5', '1/2', '3/10']: limit ['1/5', '1/2', '3/10'] " \
        "is not a vertex"


# ---------------------------------------------------------------------------
# oracle: the logistic curve of each prefix sum, written in t
# ---------------------------------------------------------------------------

def reference_flow(x, s, backward=False):
    """``flow`` transcribed from P(t) = 1 / (1 + (1/P - 1) e^(+-t)), with
    e^t = 1/s, coordinate by coordinate; the limit s = 0 from the
    support."""
    k = len(x) - 1
    if s == 0:
        back, fwd = classify_limits(x)
        m = back if backward else fwd
        return [Q(int(i == m)) for i in range(k + 1)]
    e_t = s if backward else 1 / s
    sums = []
    for m in range(k + 1):
        p = sum(x[:m + 1])
        sums.append(p if p in (0, 1) else 1 / (1 + (1 / p - 1) * e_t))
    return [sums[0]] + [b - a for a, b in zip(sums, sums[1:])]


def oracle_starts(rng, k):
    """Interior starts beside a vertex and a start on each kind of face."""
    starts = [random_point(rng, k) for _ in range(10)]
    starts[0] = [Q(int(i == k // 2)) for i in range(k + 1)]    # a vertex
    starts[1][0] = 0                        # the facet opposite vertex 0
    starts[2][k] = 0                        # the facet opposite vertex k
    for i in range(1, k):                   # the edge (0, k)
        starts[3][i] = 0
    return [[c / sum(x) for c in x] if sum(x) else starts[0] for x in starts]


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
def test_flow_batch_matches_the_reference_bit_for_bit(k, backward):
    """Every point of a batch of interior, face and vertex starts, on the
    schedule and at the limit, equals the reference exactly, and so does
    the flow from the point at s = 1/2 (the flow is a semigroup in s)."""
    for x in oracle_starts(random.Random(20 + k), k):
        assert is_barycentric(x)
        half = flow(x, Q(1, 2), backward)
        for s in schedule():
            point = flow(x, s, backward)
            assert point == reference_flow(x, s, backward), (x, s)
            assert flow(half, s, backward) == flow(x, s * Q(1, 2), backward)
            assert is_barycentric(point) and logistic_law(k, point)


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


def test_sweep_starts_are_seeded_ints_over_their_sum():
    """Each start is the next k + 1 ints in 1..2^30 of the seeded
    generator, each over their sum."""
    for seed in range(3):
        for k in (1, 3, 8):
            rng = random.Random(seed)
            for start in sweep_starts(k, 20, seed):
                ints = [rng.randint(1, 2 ** SWEEP_BITS) for _ in range(k + 1)]
                assert start == [Q(w, sum(ints)) for w in ints]


def test_schedule_times_are_multiples_of_ln_2(capsys):
    assert cli.main(["flow", "--k", "1", "--start", "1/2,1/2"]) == 0
    t = json.loads(capsys.readouterr().out)["checks"]["trajectory"]
    assert t["times"] == [j * math.log(2) for j in range(SCHEDULE + 1)]
    assert t["points"] == [[str(c) for c in flow([Q(1, 2), Q(1, 2)], s)]
                           for s in schedule()[:-1]]
