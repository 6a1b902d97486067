"""The simplex flow on points (w, n), int weights over one positive
denominator: ``point`` builds them from exact coordinates and ``coords``
reads them back, so each check compares with Fractions written out in
the test."""

import json
import math
import random
from fractions import Fraction as Q
from itertools import accumulate

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


def point(xs):
    """The point (w, n) with the exact coordinates ``xs`` (ints,
    Fractions or "p/q" strings): the weights over the lcm n of the
    denominators."""
    xs = [Q(c) for c in xs]
    n = math.lcm(*(c.denominator for c in xs))
    return [c.numerator * (n // c.denominator) for c in xs], n


def coords(p):
    """The coordinates of the point ``p`` = (w, n) as Fractions."""
    w, n = p
    return [Q(c, n) for c in w]


def random_point(rng, k):
    """Random exact barycentric coordinates with some zeros."""
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
            x = point(random_point(rng, k))
            for backward in (False, True):
                assert all(sum(coords(flow(x, s, backward))) == 1
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
    x = point([Q(w, total) for w in weights])
    assert logistic_law(len(weights) - 1, x)


def test_the_logistic_law_fails_off_the_simplex():
    # the telescoping needs sum x = 1
    assert not logistic_law(1, point([Q(1, 2), Q(1, 4)]))


def test_edge_flow_follows_the_logistic_curve():
    # on the edge x_1' = x_1 (1 - x_1), so x_1(t) = 1 / (1 + e^-t x_0 / x_1)
    for x0, x1 in ((Q(9, 10), Q(1, 10)), (Q(1, 2), Q(1, 2)), (Q(1, 5), Q(4, 5))):
        for backward in (False, True):
            for s in schedule()[:-1]:
                e_minus_t = 1 / s if backward else s
                assert coords(flow(point([x0, x1]), s, backward)) == \
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
    assert classify_limits(point((0, Q(1, 2), Q(1, 2), 0))) == (1, 2)
    assert classify_limits(point((Q(1), 0, 0))) == (0, 0)
    assert classify_limits(point((Q(1, 4), Q(1, 4), Q(1, 4), Q(1, 4)))) \
        == (0, 3)


def test_vertex_index():
    assert vertex_index(point([Q(0), Q(1), Q(0)])) == 1
    assert vertex_index(point([Q(1, 2), Q(1, 2), Q(0)])) is None


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


START = point([Q(1, 5), Q(1, 2), Q(3, 10)])


def test_flow_forward_reaches_max_support_vertex():
    assert coords(flow(START, 0)) == [0, 0, 1]
    # the limit keeps the start's denominator
    assert flow(START, 0) == ([0, 0, 10], 10)


def test_flow_backward_reaches_min_support_vertex():
    assert coords(flow(START, 0, backward=True)) == [1, 0, 0]
    assert flow(START, 0, backward=True) == ([10, 0, 0], 10)


def test_flow_on_invariant_face():
    x = point([Q(0), Q(2, 5), Q(3, 5), Q(0)])
    for backward in (False, True):
        for s in schedule():
            y = coords(flow(x, s, backward))
            assert y[0] == y[3] == 0
    assert coords(flow(x, 0)) == [0, 0, 1, 0]
    assert coords(flow(x, 0, backward=True)) == [0, 1, 0, 0]


def test_flow_height_monotone():
    x = point([Q(1, 10), Q(1, 5), Q(3, 10), Q(2, 5)])
    for backward in (False, True):
        path = [flow(x, s, backward) for s in schedule()]
        assert height_monotone(3, path, backward)
        assert not height_monotone(3, path, not backward)
        # h = k - sum_{m<k} P_m, where height gives h times n
        for w, n in path:
            y = coords((w, n))
            assert Q(height(3, w), n) == 3 - sum(
                sum(y[:m + 1]) for m in range(3))


def test_flow_from_vertex_is_trivial():
    x = point([Q(0), Q(1), Q(0)])
    for backward in (False, True):
        path = [flow(x, s, backward) for s in schedule()]
        assert all(y == x for y in path)
        assert height_monotone(2, path, backward)
    assert not height_monotone(2, [x, point([Q(0), Q(0), Q(1)])])


def test_flow_no_convergence(capsys, monkeypatch):
    """A limit that is not a vertex is reported unconverged, with a
    certificate naming the start; the exact flow never gives one, so
    here the flow is replaced by one that stays put."""
    monkeypatch.setattr(cli, "flow", lambda x, s, backward=False: x)
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
    e^t = 1/s, coordinate by coordinate, on the Fraction coordinates
    ``x``; the limit s = 0 from the support."""
    k = len(x) - 1
    if s == 0:
        supp = [m for m, c in enumerate(x) if c > 0]
        m = supp[0] if backward else supp[-1]
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
    for xs in oracle_starts(random.Random(20 + k), k):
        x = point(xs)
        assert is_barycentric(x)
        half = flow(x, Q(1, 2), backward)
        for s in schedule():
            y = flow(x, s, backward)
            assert coords(y) == reference_flow(xs, s, backward), (xs, s)
            assert coords(flow(half, s, backward)) == \
                coords(flow(x, s * Q(1, 2), backward))
            assert is_barycentric(y) and logistic_law(k, y)


def fraction_law(k, x):
    """The logistic law on the Fraction coordinates ``x``: the prefix
    sums of the field equal P_m^2 - P_m."""
    return all(f == p * p - p for f, p in zip(accumulate(wk_eval(k, x)),
                                              accumulate(x)))


def raw_points(sum_is_n):
    """Points (w, n) for k = 1..6 with zero weights among them, not in
    lowest terms: nonnegative weights over their sum times a factor, or
    (``sum_is_n`` false) weights of any sign over any n >= 1."""
    weight = st.integers(0, 2 ** 40) if sum_is_n else st.integers(-9, 2 ** 40)
    weights = st.integers(1, 6).flatmap(
        lambda k: st.lists(weight | st.just(0), min_size=k + 1,
                           max_size=k + 1))
    if sum_is_n:
        return st.tuples(weights.filter(any), st.integers(1, 5)).map(
            lambda wc: ([c * wc[1] for c in wc[0]], sum(wc[0]) * wc[1]))
    return st.tuples(weights, st.integers(1, 2 ** 40))


@settings(max_examples=300, deadline=None)
@given(x=raw_points(sum_is_n=True),
       backward=st.booleans())
def test_flow_equals_the_fraction_oracle(x, backward):
    """At every s of the schedule and at s = 0 the int flow is the
    Fraction logistic curve, its limit keeps the start's denominator
    and s = 1 gives the start back, weight for weight."""
    for s in schedule():
        assert coords(flow(x, s, backward)) == \
            reference_flow(coords(x), s, backward), (x, s)
    assert flow(x, 0, backward)[1] == x[1]
    assert flow(x, 1, backward) == x


@settings(max_examples=300, deadline=None)
@given(x=raw_points(sum_is_n=True) | raw_points(sum_is_n=False))
def test_the_int_law_is_the_fraction_law(x):
    """``logistic_law`` on (w, n) agrees with the law on w / n, on the
    simplex and off it."""
    k = len(x[0]) - 1
    assert logistic_law(k, x) == fraction_law(k, coords(x))


# ---------------------------------------------------------------------------
# exact sweep starts
# ---------------------------------------------------------------------------

def test_is_barycentric():
    assert is_barycentric(point([Q(1, 3), Q(2, 3)]))
    assert is_barycentric(point([Q(0), Q(1), Q(0)]))
    assert not is_barycentric(point([Q(1, 2), Q(1, 2), Q(1, 2)]))
    assert not is_barycentric(point([Q(3, 2), Q(-1, 2)]))
    assert not is_barycentric(
        point([Q(1, 3), Q(1, 3), Q(1, 3) + Q(1, 10**30)]))
    # the weights need not be in lowest terms
    assert is_barycentric(([2, 4], 6))
    assert not is_barycentric(([2, 4], 3))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), count=st.integers(1, 12),
       seed=st.integers(0, 2**63))
def test_sweep_starts_are_positive_exact_barycentric_points(k, count, seed):
    starts = sweep_starts(k, count, seed)
    assert len(starts) == count
    for start in starts:
        w, n = start
        assert len(w) == k + 1
        assert all(type(c) is int and c > 0 for c in w)
        assert sum(coords(start)) == 1 and is_barycentric(start)
    assert sweep_starts(k, count, seed) == starts


def test_sweep_starts_are_seeded_ints_over_their_sum():
    """Each start is the next k + 1 ints in 1..2^30 of the seeded
    generator over their sum."""
    for seed in range(3):
        for k in (1, 3, 8):
            rng = random.Random(seed)
            for start in sweep_starts(k, 20, seed):
                ints = [rng.randint(1, 2 ** SWEEP_BITS) for _ in range(k + 1)]
                assert start == (ints, sum(ints))


def test_schedule_times_are_multiples_of_ln_2(capsys):
    assert cli.main(["flow", "--k", "1", "--start", "1/2,1/2"]) == 0
    t = json.loads(capsys.readouterr().out)["checks"]["trajectory"]
    assert t["times"] == [j * math.log(2) for j in range(SCHEDULE + 1)]
    assert t["points"] == [
        [str(c) for c in coords(flow(point([Q(1, 2), Q(1, 2)]), s))]
        for s in schedule()[:-1]]
