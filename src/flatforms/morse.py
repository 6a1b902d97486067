"""Leaf data over a simplicial base: heights, fineness, orders, grading.

A leaf system records finitely many labelled leaves, each with an
integer index and a rank, together with an exact rational height per
(leaf, vertex) and a fineness scale ``epsilon``.  Heights extend
affinely over each simplex, so oscillation and order questions reduce
to vertex evaluations.  The leaves also span the graded module that
every coefficient acts on: ``rank[leaf]`` basis elements (leaf, i) of
degree ``index[leaf]``.

Leaf alpha precedes beta over a simplex when some vertex of it shows
the gap h_beta - h_alpha > 2*epsilon^2 (``prec``).  So the order over a
simplex is the union of the orders at its vertices: ``leaf_orders``
finds each vertex's pairs once and joins them per simplex, and
``check_partial_order`` reads that one table.  Both compare ints: at
construction the leaf system writes every height and the gap over one
common positive denominator and keeps the numerators, so an order
question costs no Fraction arithmetic.  ``heights`` is read-only, so
that table cannot go stale.  The union also makes
the order over a simplex contain the order over each of its faces, so
that refinement holds by construction and is not checked.

This module owns the block rule: an operator over a simplex of grading
degree e may carry an entry in the block alpha<-beta only when
ind(alpha) = ind(beta) + e and beta precedes alpha over that simplex
(``block_allowed``).  ``allowed_blocks`` lists the blocks it permits and
``block_entries`` enumerates their entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping

from .linalg import qdiv, qentry
from .simplicial import BaseComplex, Simplex


class LeafSystem:
    """Leaves with heights over the vertices of a base complex.

    Parameters
    ----------
    leaves : iterable of (leaf_id, index, rank)
    heights : mapping (leaf_id, vertex) -> rational height, kept by the
        entry rule of ``linalg.qentry`` (an int when integral)
    epsilon : positive rational fineness scale, kept by the same rule

    ``basis`` lists the module basis elements (leaf, i) in declared leaf
    order, and ``deg`` maps each of them to its leaf's index.
    """

    def __init__(self, leaves, heights, epsilon):
        self.leaves: list[str] = []
        self.index: dict[str, int] = {}
        self.rank: dict[str, int] = {}
        for leaf_id, ind, rk in leaves:
            if leaf_id in self.index:
                raise ValueError(f"leaf listed twice: {leaf_id}")
            self.leaves.append(leaf_id)
            self.index[leaf_id] = int(ind)
            self.rank[leaf_id] = int(rk)
        self.basis: list[tuple[str, int]] = [
            (leaf, i) for leaf in self.leaves for i in range(self.rank[leaf])
        ]
        self.deg = {b: self.index[b[0]] for b in self.basis}
        exact = {(leaf, v): qentry(h) for (leaf, v), h in heights.items()}
        for leaf, _v in exact:
            if leaf not in self.index:
                raise ValueError(f"heights name undeclared leaf {leaf!r}")
        self.heights: Mapping[tuple[str, int], int | Fraction] = \
            MappingProxyType(exact)
        self.epsilon = qentry(epsilon)
        # the heights and the gap 2*epsilon^2 as int numerators over one
        # positive denominator, the table behind ``prec`` and
        # ``leaf_orders``
        gap = 2 * self.epsilon * self.epsilon
        den = lcm(gap.denominator, *(h.denominator for h in exact.values()))
        self._level = {key: h.numerator * (den // h.denominator)
                       for key, h in exact.items()}
        self._gap = gap.numerator * (den // gap.denominator)

    def _missing(self, leaf: str, vertex: int) -> ValueError:
        if leaf not in self.index:
            return ValueError(f"no height for undeclared leaf {leaf!r}")
        return ValueError(f"no height for leaf {leaf!r} at vertex {vertex}")

    def height(self, leaf: str, vertex: int) -> int | Fraction:
        try:
            return self.heights[(leaf, vertex)]
        except KeyError:
            raise self._missing(leaf, vertex) from None


def validate_leaf_system(L: LeafSystem, S: BaseComplex) -> list[str]:
    """Structural and fineness checks; returns a list of violation reports.

    Fineness compares the int table of ``prec``: an oscillation is below
    epsilon^2 / 2 exactly when four times its numerator is below the
    gap's, and the rationals are built only for a report."""
    problems = []
    for leaf in L.leaves:
        if L.rank[leaf] < 1:
            problems.append(f"leaf {leaf!r} has rank {L.rank[leaf]} < 1")
        for v in S.vertices():
            if (leaf, v[0]) not in L.heights:
                problems.append(f"leaf {leaf!r} has no height at vertex {v[0]}")
    if L.epsilon <= 0:
        problems.append("epsilon must be positive")
        return problems
    level, gap = L._level, L._gap
    for sigma in S:
        if len(sigma) < 2:
            continue
        for leaf in L.leaves:
            vals = [level.get((leaf, v)) for v in sigma]
            if None in vals or 4 * (max(vals) - min(vals)) < gap:
                continue
            hs = [L.heights[leaf, v] for v in sigma]
            eps2 = L.epsilon * L.epsilon
            bound = qdiv(eps2.numerator, 2 * eps2.denominator)
            problems.append(f"leaf {leaf!r} oscillates by "
                            f"{max(hs) - min(hs)} on {sigma}, "
                            f"not below {bound}")
    return problems


def prec(L: LeafSystem, alpha: str, beta: str, sigma: Simplex) -> bool:
    """True when ``alpha`` precedes ``beta`` over ``sigma``.

    Holds iff the height gap h_beta - h_alpha exceeds 2*epsilon^2 at
    some vertex of ``sigma`` (strict).  The vertices are tried in order,
    and a missing height raises the ``ValueError`` of ``L.height``.
    """
    level, gap = L._level, L._gap
    try:
        return any(level[beta, v] - level[alpha, v] > gap for v in sigma)
    except KeyError as ex:
        raise L._missing(*ex.args[0]) from None


def leaf_orders(L: LeafSystem, S: BaseComplex) -> dict[Simplex, list]:
    """The pairs (a, b) with ``a`` preceding ``b`` over each simplex of
    ``S``, in declared leaf order: the union of the pairs that ``prec``
    finds at each vertex of the simplex."""
    gap = L._gap
    at = {}
    for (v,) in S.vertices():
        try:
            h = {leaf: L._level[leaf, v] for leaf in L.leaves}
        except KeyError as ex:
            raise L._missing(*ex.args[0]) from None
        at[v] = {(a, b) for a in L.leaves for b in L.leaves
                 if h[b] - h[a] > gap}
    pairs = [(a, b) for a in L.leaves for b in L.leaves]
    orders = {}
    for sigma in S:
        over = set().union(*(at[v] for v in sigma))
        orders[sigma] = [p for p in pairs if p in over]
    return orders


def check_partial_order(L: LeafSystem, orders: dict[Simplex, list]
                        ) -> list[str]:
    """Verify that each per-simplex order of the ``leaf_orders`` table
    is a strict partial order."""
    problems = []
    place = {leaf: i for i, leaf in enumerate(L.leaves)}
    for sigma, pairs in orders.items():
        rel = set(pairs)
        for a, b in pairs:
            if a == b:
                problems.append(f"{a} precedes itself on {sigma}")
            if (b, a) in rel and place[a] < place[b]:
                problems.append(f"{a} and {b} precede each other on {sigma}")
        for a, b in pairs:
            for c in L.leaves:
                if (b, c) in rel and (a, c) not in rel:
                    problems.append(
                        f"order on {sigma} not transitive: {a} < {b} < {c} "
                        f"but not {a} < {c}"
                    )
    return problems


def block_allowed(L: LeafSystem, alpha: str, beta: str, sigma: Simplex,
                  degree: int) -> bool:
    """Whether an operator of grading degree ``degree`` over ``sigma`` may
    carry entries in the block alpha<-beta: ind(alpha) = ind(beta) +
    ``degree`` and beta precedes alpha over ``sigma``; never the diagonal.
    """
    return (L.index[alpha] - L.index[beta] == degree
            and alpha != beta and prec(L, beta, alpha, sigma))


def allowed_blocks(L: LeafSystem, sigma: Simplex, end_degree: int
                   ) -> list[tuple[str, str]]:
    """The blocks (alpha, beta) a degree-``end_degree`` operator over
    ``sigma`` may occupy (``block_allowed``), in declared leaf order."""
    return [(alpha, beta) for alpha in L.leaves for beta in L.leaves
            if block_allowed(L, alpha, beta, sigma, end_degree)]


def block_entries(L: LeafSystem, blocks):
    """The entries ((alpha, i), (beta, j)) of the leaf ``blocks``, block
    by block and row-major within each."""
    for alpha, beta in blocks:
        for i in range(L.rank[alpha]):
            for j in range(L.rank[beta]):
                yield (alpha, i), (beta, j)
