from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatforms.morse import (
    LeafSystem,
    allowed_blocks,
    check_partial_order,
    leaf_orders,
    prec,
    validate_leaf_system,
)
from flatforms.simplicial import BaseComplex, all_faces


def two_leaf_system(h_a, h_b, eps=1):
    """Two leaves over a single edge (0,1) with given vertex heights."""
    leaves = [("a", 0, 1), ("b", 1, 1)]
    heights = {
        ("a", 0): h_a[0], ("a", 1): h_a[1],
        ("b", 0): h_b[0], ("b", 1): h_b[1],
    }
    return LeafSystem(leaves, heights, eps)


def test_prec_requires_strict_gap():
    # gap 3 > 2*eps^2 = 2 at vertex 0: ordered
    L = two_leaf_system((0, 0), (3, 3))
    assert prec(L, "a", "b", (0, 1))
    # gap exactly 2: not ordered (strict)
    L = two_leaf_system((0, 0), (2, 2))
    assert not prec(L, "a", "b", (0, 1))
    assert not prec(L, "b", "a", (0, 1))


def test_prec_single_witness_vertex_suffices():
    L = two_leaf_system((0, 0), (Q(9, 4), 0))
    assert prec(L, "a", "b", (0,))
    assert prec(L, "a", "b", (0, 1))
    assert not prec(L, "a", "b", (1,))


def test_fineness_violation_reported():
    # oscillation 1 on the edge is not < eps^2/2 = 1/2
    L = two_leaf_system((0, 1), (3, 3))
    S = BaseComplex([(0, 1)])
    problems = validate_leaf_system(L, S)
    assert any("oscillates" in p for p in problems)

    L = two_leaf_system((0, Q(1, 4)), (3, 3))
    assert validate_leaf_system(L, S) == []


def test_fineness_boundary_is_reported():
    # oscillation exactly eps^2/2 is not below eps^2/2 (strict)
    S = BaseComplex([(0, 1)])
    L = two_leaf_system((0, Q(1, 2)), (3, 3))
    assert validate_leaf_system(L, S) == [
        "leaf 'a' oscillates by 1/2 on (0, 1), not below 1/2"]
    L = two_leaf_system((0, Q(1, 8)), (3, 3), eps=Q(1, 2))
    assert validate_leaf_system(L, S) == [
        "leaf 'a' oscillates by 1/8 on (0, 1), not below 1/8"]


def test_validate_flags_missing_heights_and_bad_rank():
    L = LeafSystem([("a", 0, 0)], {("a", 0): 0}, 1)
    S = BaseComplex([(0, 1)])
    problems = validate_leaf_system(L, S)
    assert any("rank" in p for p in problems)
    assert any("no height" in p for p in problems)


def test_unknown_leaf():
    L = two_leaf_system((0, 0), (3, 3))
    with pytest.raises(ValueError,
                       match="^no height for undeclared leaf 'c'$"):
        L.height("c", 0)
    with pytest.raises(ValueError, match="^no height for leaf 'a' at vertex 2$"):
        L.height("a", 2)
    with pytest.raises(ValueError,
                       match="^heights name undeclared leaf 'z'$"):
        LeafSystem([("a", 0, 1)], {("z", 0): 1}, 1)


def test_partial_order_and_refinement_clean_system():
    leaves = [("a", 0, 1), ("b", 1, 2), ("c", 1, 1)]
    heights = {}
    for v in (0, 1, 2):
        heights[("a", v)] = Q(0)
        heights[("b", v)] = Q(3)
        heights[("c", v)] = Q(6)
    L = LeafSystem(leaves, heights, 1)
    S = BaseComplex([(0, 1, 2)])
    assert check_partial_order(L, leaf_orders(L, S)) == []
    assert prec(L, "a", "c", (0, 1, 2))


def test_graded_module_layout():
    heights = {(leaf, v): h for leaf, h in (("a", 0), ("b", 3))
               for v in (0, 1)}
    L = LeafSystem([("a", 0, 2), ("b", 1, 1)], heights, 1)
    assert L.basis == [("a", 0), ("a", 1), ("b", 0)]
    assert len(L.basis) == 3
    assert L.deg == {("a", 0): 0, ("a", 1): 0, ("b", 0): 1}


def test_allowed_blocks_by_end_degree():
    leaves = [("a", 0, 1), ("b", 1, 1), ("c", 2, 1)]
    heights = {("a", 0): 0, ("b", 0): 3, ("c", 0): 6}
    L = LeafSystem(leaves, heights, 1)
    sigma = (0,)
    # degree +1 blocks: (b, a) and (c, b); lower leaf must precede upper
    assert set(allowed_blocks(L, sigma, 1)) == {("b", "a"), ("c", "b")}
    # degree 0: strictly off-diagonal needs equal indices: none here
    assert allowed_blocks(L, sigma, 0) == []
    # degree -1: e.g. (a, b) needs b to precede a in height: false
    assert allowed_blocks(L, sigma, -1) == []


def test_partial_order_reports_leaves_preceding_each_other():
    # unfine: a < b witnessed at vertex 0 and b < a at vertex 1
    L = two_leaf_system((0, 5), (3, 0))
    S = BaseComplex([(0, 1)])
    assert check_partial_order(L, leaf_orders(L, S)) == [
        "a and b precede each other on (0, 1)",
        "order on (0, 1) not transitive: a < b < a but not a < a",
        "order on (0, 1) not transitive: b < a < b but not b < b",
    ]


def test_partial_order_reports_intransitive_union():
    # a < b only at vertex 0, b < c only at vertex 1, a < c at neither
    leaves = [("a", 0, 1), ("b", 1, 1), ("c", 1, 1)]
    heights = {("a", 0): 0, ("b", 0): 3, ("c", 0): 1,
               ("a", 1): 1, ("b", 1): 0, ("c", 1): 3}
    L = LeafSystem(leaves, heights, 1)
    S = BaseComplex([(0, 1)])
    assert check_partial_order(L, leaf_orders(L, S)) == [
        "order on (0, 1) not transitive: a < b < c but not a < c"]


def test_partial_order_messages_keep_simplex_and_pair_order():
    # three unfine leaves over a triangle: the edge (0, 1) and the
    # triangle fail, so the messages run over the simplices in order
    leaves = [("a", 0, 1), ("b", 1, 1), ("c", 2, 1)]
    heights = {("a", 0): 0, ("b", 0): 3, ("c", 0): 1,
               ("a", 1): 4, ("b", 1): 0, ("c", 1): 3,
               ("a", 2): 0, ("b", 2): 1, ("c", 2): 6}
    L = LeafSystem(leaves, heights, 1)
    S = BaseComplex([(0, 1, 2)])
    assert check_partial_order(L, leaf_orders(L, S)) == [
        "a and b precede each other on (0, 1)",
        "order on (0, 1) not transitive: a < b < a but not a < a",
        "order on (0, 1) not transitive: a < b < c but not a < c",
        "order on (0, 1) not transitive: b < a < b but not b < b",
        "a and b precede each other on (0, 1, 2)",
        "order on (0, 1, 2) not transitive: a < b < a but not a < a",
        "order on (0, 1, 2) not transitive: b < a < b but not b < b",
    ]


# random rational heights on a triangle with a tail edge; heights on the
# grid of multiples of eps^2/2 make exact ties h_b - h_a = 2 eps^2 common
HEIGHTS = st.one_of(st.integers(-8, 8).map(lambda k: Q(k, 2)),
                    st.fractions(min_value=-4, max_value=4,
                                 max_denominator=6))


@st.composite
def leaf_systems(draw):
    eps = draw(st.sampled_from([Q(1), Q(1, 2), Q(2, 3), Q(3)]))
    names = ["a", "b", "c", "d"][:draw(st.integers(1, 4))]
    heights = {(leaf, v): draw(HEIGHTS) * eps * eps
               for leaf in names for v in range(4)}
    return LeafSystem([(leaf, 0, 1) for leaf in names], heights, eps)


@settings(max_examples=200, deadline=None)
@given(leaf_systems())
def test_orders_match_prec_on_every_simplex(L):
    S = BaseComplex([(0, 1, 2), (2, 3)])
    table = leaf_orders(L, S)
    assert list(table) == list(S)
    for sigma in S:
        assert table[sigma] == [(a, b) for a in L.leaves for b in L.leaves
                                if prec(L, a, b, sigma)]
        # a union over vertices: the order over a simplex contains the
        # order over each of its faces
        for tau in all_faces(sigma):
            assert set(table[tau]) <= set(table[sigma])



# ---------------------------------------------------------------------------
# oracle: the order on Fractions, before the heights became an int table
# ---------------------------------------------------------------------------

def fraction_prec(L, alpha, beta, sigma):
    gap = 2 * L.epsilon * L.epsilon
    return any(L.height(beta, v) - L.height(alpha, v) > gap for v in sigma)


def fraction_leaf_orders(L, S):
    gap = 2 * L.epsilon * L.epsilon
    at = {}
    for (v,) in S.vertices():
        h = {leaf: L.height(leaf, v) for leaf in L.leaves}
        at[v] = {(a, b) for a in L.leaves for b in L.leaves
                 if h[b] - h[a] > gap}
    pairs = [(a, b) for a in L.leaves for b in L.leaves]
    orders = {}
    for sigma in S:
        over = set().union(*(at[v] for v in sigma))
        orders[sigma] = [p for p in pairs if p in over]
    return orders


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and text of what it raises."""
    try:
        return "value", f(*args)
    except ValueError as ex:
        return type(ex), str(ex)


# any positive rational epsilon and rational heights, with unrelated
# denominators, and about one height in eight left out
RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=40)


@st.composite
def gappy_leaf_systems(draw):
    eps = draw(st.one_of(
        st.fractions(min_value=Q(1, 40), max_value=3, max_denominator=40),
        st.sampled_from([Q(1), Q(1, 2), Q(2, 3)])))
    names = ["a", "b", "c"][:draw(st.integers(1, 3))]
    heights = {}
    for leaf in names:
        for v in range(4):
            if draw(st.integers(0, 7)):
                # a height on the eps^2/2 grid makes an exact tie likely
                heights[(leaf, v)] = draw(st.one_of(
                    RATIONALS, st.integers(-8, 8).map(
                        lambda k: Q(k, 2) * eps * eps)))
    return LeafSystem([(leaf, 0, 1) for leaf in names], heights, eps)


LEAF_NAMES = st.sampled_from(["a", "b", "c", "z"])


@settings(max_examples=200, deadline=None)
@given(gappy_leaf_systems(), LEAF_NAMES, LEAF_NAMES,
       st.lists(st.integers(0, 3), max_size=4, unique=True))
def test_int_table_prec_matches_fractions(L, alpha, beta, vertices):
    """``prec`` and ``leaf_orders`` read the int table and agree with
    the Fraction definition, down to the ``ValueError`` raised for the
    first missing height or undeclared leaf."""
    sigma = tuple(sorted(vertices))
    assert outcome(prec, L, alpha, beta, sigma) == \
        outcome(fraction_prec, L, alpha, beta, sigma)
    S = BaseComplex([(0, 1, 2), (2, 3)])
    assert outcome(leaf_orders, L, S) == outcome(fraction_leaf_orders, L, S)


def test_int_table_prec_keeps_the_strict_gap():
    """An exact tie h_b - h_a = 2 eps^2 over mixed denominators is not
    an order; a gap above it by 1/637, one unit of the table's common
    denominator lcm(13, 49), is."""
    eps = Q(2, 7)
    gap = 2 * eps * eps
    a = Q(5, 13)
    for b, want in [(a + gap, False), (a + gap + Q(1, 637), True)]:
        L = two_leaf_system((a, a), (b, b), eps)
        assert prec(L, "a", "b", (0, 1)) is want
        assert fraction_prec(L, "a", "b", (0, 1)) is want
