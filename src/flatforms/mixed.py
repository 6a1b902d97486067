"""Lifting a flat coefficient system to polynomial-form data over each
simplex, together with the accompanying chain maps into the fibers.

The central objects are matrices of polynomial forms indexed by the
graded module basis, ``FormMatrix``, the package's one matrix-of-forms
type.  Each entry is a form p over a power Q^e of one denominator Q:
the a' and I' values built here have Q = 1 and every exponent 0, and
their pullbacks along the partition self-map of
:mod:`flatforms.smoothing` carry the partition's denominator.  Both
obey one algebra (composition, entrywise d, face restriction and
equality), written once.  Composition follows the sign rule of a graded
tensor product: when a block of grading degree e passes a form of
degree r, the product picks up (-1)**(e*r).  With that convention the
entrywise exterior derivative satisfies the graded Leibniz rule with
respect to total degree (grading plus form degree), which is what makes
the flatness computations below close up.

Over a simplex sigma, the value at a face sigma' of sigma (or at the
empty face) is a form matrix on the span of the vertices of sigma from
the last vertex of sigma' onward.  It depends only on sigma' and the
vertices of sigma after its last vertex, which together span a face of
sigma that owns the value: there sigma' is an initial segment.  So the
stores hold one value per simplex and initial segment, the empty face
and sigma itself included, and ``_owner`` resolves every other face.
The connection a' and the chain maps I' are built by one walk over the
faces of the base in increasing dimension.  Inside a simplex it stores
zero on sigma itself, then treats initial segments by descending
length: a recursion value on the inner span is extended from boundary
values over the next span up.  The extension's common-face check
compares the recursion value with the data already built on the facets
of sigma, and a clash raises ``IncompatibleBoundaryData`` naming the
simplex, segment, facet and entry.  The empty face is reached last by a
gauge step whose unipotent is invertible by a finite geometric series.
The two builds differ only in the constant seed of the recursion (a or
I), its right factor (a'(sigma[k:], empty) or D), and the identity
checked afterwards, ``is_flat_connection`` or ``intertwines``;
smoothing checks the same two on the partition pullbacks.  Failed
checks land in ``problems``.

This is the form layer only.  The constant data it starts from, the
coefficient system and the fiber model, and every identity over Q
(flatness, the comparison relation) live in :mod:`flatforms.flatsys`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from typing import Optional

from .flatsys import CoefficientSystem, FiberModel, _sign
from .forms import (
    ExtensionInfeasible,
    IncompatibleBoundaryData,
    PolyForm,
    Powers,
    extend_from_boundary,
    monomial_coefficients,
)
from .linalg import (
    SMat,
    smat_entries,
    smat_is_zero,
    smat_transpose,
    solve,
)
from .morse import prec
from .simplicial import (
    EMPTY,
    Simplex,
    all_faces,
    dim,
    face_positions,
    skey,
)


class NotNilpotent(Exception):
    pass


# ---------------------------------------------------------------------------
# matrices of polynomial forms
# ---------------------------------------------------------------------------

@cache
def _unit_powers(k: int) -> Powers:
    """The powers of Q = 1 on the k-chart: one object per chart
    dimension, shared by every polynomial matrix on it."""
    return Powers(PolyForm.one(k))


class FormMatrix:
    """Sparse matrix of forms p / Q^e on the chart of a fixed simplex,
    over one denominator Q, each entry with its own exponent e.

    ``deg`` gives the grading degree of each module basis element.  Rows
    are module elements; columns are module elements too, except for
    chain-map values, whose columns are omega elements.  The left factor
    of a composition is a module endomorphism, and composition applies
    the sign rule of the module docstring with its block degree and the
    right factor's per-term form degree.

    ``powers`` holds the powers of Q.  The a' and I' values are
    polynomial: Q = 1, shared per chart dimension, and every exponent 0.
    A partition pullback is over the partition's denominator.  Binary
    operations need the same Q and raise exponents entry by entry, by
    cross-multiplication, never division.  A zero numerator is not
    stored, and p / Q^e is zero exactly when p is, so a matrix is zero
    exactly when it stores no entry.
    """

    __slots__ = ("k", "deg", "powers", "rows")

    def __init__(self, k: int, deg: dict, powers: Optional[Powers] = None):
        self.k = k
        self.deg = deg
        self.powers = _unit_powers(k) if powers is None else powers
        self.rows: dict = {}   # r -> {c: (numerator, exponent)}

    # -- building ------------------------------------------------------

    @classmethod
    def from_const(cls, k: int, m: SMat, deg: dict) -> "FormMatrix":
        out = cls(k, deg)
        for r, c, v in smat_entries(m):
            out.set_entry(r, c, PolyForm.const(k, v))
        return out

    @classmethod
    def identity(cls, k: int, deg: dict) -> "FormMatrix":
        out = cls(k, deg)
        for key in deg:
            out.rows[key] = {key: (PolyForm.one(k), 0)}
        return out

    @property
    def den(self) -> PolyForm:
        return self.powers.base

    @property
    def e(self) -> int:
        """The largest exponent of any entry (0 when there is none)."""
        return max((e for row in self.rows.values() for _p, e in row.values()),
                   default=0)

    def set_entry(self, r, c, p: PolyForm, e: int = 0):
        if p.is_zero():
            row = self.rows.get(r)
            if row:
                row.pop(c, None)
                if not row:
                    self.rows.pop(r, None)
            return
        self.rows.setdefault(r, {})[c] = p, e

    def entry(self, r, c) -> PolyForm:
        """The numerator of entry (r, c), zero when none is stored; over
        Q = 1 it is the entry itself."""
        pe = self.rows.get(r, {}).get(c)
        return pe[0] if pe is not None else PolyForm.zero(self.k)

    def entries(self):
        for r, row in self.rows.items():
            for c, (p, e) in row.items():
                yield r, c, p, e

    def _like(self) -> "FormMatrix":
        return FormMatrix(self.k, self.deg, self.powers)

    def _same_den(self, other: "FormMatrix"):
        if self.powers is not other.powers and self.den != other.den:
            raise ValueError("denominators differ")

    def _lift(self, p: PolyForm, e: int, m: int) -> PolyForm:
        """p / Q^e written over Q^m, m >= e: its numerator Q^(m-e) p."""
        return p if m == e else self.powers[m - e].wedge(p)

    def _collect(self, parts: dict) -> "FormMatrix":
        """The matrix of the sums of parts[(r, c)], a dict from exponent
        to numerator: the numerators of equal exponent were summed
        before any is raised."""
        out = self._like()
        for (r, c), by_e in parts.items():
            m = max(by_e)
            total = by_e.pop(m)
            for e, p in by_e.items():
                total = total + self._lift(p, e, m)
            out.set_entry(r, c, total, m)
        return out

    # -- linear structure -----------------------------------------------

    def add(self, other: "FormMatrix", sign: int = 1) -> "FormMatrix":
        """self + sign * other, for sign = 1 or -1."""
        self._same_den(other)
        out = self._like()
        out.rows = {r: dict(row) for r, row in self.rows.items()}
        for r, c, q, f in other.entries():
            if sign != 1:
                q = q.scale(sign)
            p, e = out.rows.get(r, {}).get(c, (None, f))
            if p is not None:
                m = max(e, f)
                q, f = self._lift(p, e, m) + self._lift(q, f, m), m
            out.set_entry(r, c, q, f)
        return out

    def sub(self, other: "FormMatrix") -> "FormMatrix":
        return self.add(other, -1)

    def is_zero(self) -> bool:
        return not self.rows

    def eq(self, other: "FormMatrix") -> bool:
        if self.k != other.k:
            return False
        self._same_den(other)
        # equal rows are the common case; exponents are not canonical, so
        # unequal rows may still be equal fractions
        if self.rows == other.rows:
            return True
        if self.rows.keys() != other.rows.keys():
            return False
        for r, row in self.rows.items():
            orow = other.rows[r]
            if row.keys() != orow.keys():
                return False
            for c, (p, e) in row.items():
                q, f = orow[c]
                m = max(e, f)
                if self._lift(p, e, m) != self._lift(q, f, m):
                    return False
        return True

    # -- differential and composition -------------------------------------

    def d(self) -> "FormMatrix":
        """Entrywise d(p / Q^e) = (Q dp - e dQ p) / Q^(e+1), and dp for
        e = 0."""
        out = self._like()
        q, dq = self.powers.base, self.powers.d
        for r, c, p, e in self.entries():
            if e == 0:
                out.set_entry(r, c, p.d())
            else:
                out.set_entry(r, c, q.wedge(p.d()) - dq.scale(e).wedge(p), e + 1)
        return out

    def compose(self, other: "FormMatrix") -> "FormMatrix":
        """Koszul composition with a module endomorphism on the left."""
        self._same_den(other)
        parts: dict = {}   # (r, c) -> {e: numerator}
        for r, row in self.rows.items():
            for t, (p, e) in row.items():
                orow = other.rows.get(t)
                if not orow:
                    continue
                s = self.deg[r] - self.deg[t]
                for c, (q, f) in orow.items():
                    prod = _koszul_wedge(p, q, s)
                    if not prod.is_zero():
                        by_e, ef = parts.setdefault((r, c), {}), e + f
                        by_e[ef] = by_e[ef] + prod if ef in by_e else prod
        return self._collect(parts)

    def mul_const_right(self, m: SMat) -> "FormMatrix":
        """Compose with a constant matrix on the right (no signs arise)."""
        parts: dict = {}   # (r, c) -> {e: numerator}
        for r, row in self.rows.items():
            for t, (p, e) in row.items():
                for c, v in m.get(t, {}).items():
                    by_e = parts.setdefault((r, c), {})
                    by_e[e] = by_e[e] + p.scale(v) if e in by_e else p.scale(v)
        return self._collect(parts)

    def restrict(self, positions, powers: Optional[Powers] = None
                 ) -> "FormMatrix":
        """The restriction to a face, over the face's denominator, whose
        ``powers`` are given (Q = 1 when not): it must be the restriction
        of Q.  Between two Q = 1 matrices that holds without a check."""
        positions = tuple(positions)
        k = len(positions) - 1
        if powers is None:
            powers = _unit_powers(k)
        if (self.powers is not _unit_powers(self.k)
                or powers is not _unit_powers(k)) \
                and self.den.restrict(positions) != powers.base:
            raise ValueError("denominator does not restrict as claimed")
        out = FormMatrix(k, self.deg, powers)
        for r, c, p, e in self.entries():
            out.set_entry(r, c, p.restrict(positions), e)
        return out

    def form_degrees(self) -> set:
        degs = set()
        for _r, _c, p, _e in self.entries():
            degs |= p.form_degrees()
        return degs


def _koszul_wedge(p: PolyForm, q: PolyForm, e: int) -> PolyForm:
    return p.wedge(q.graded_involution() if e % 2 else q)


def neumann_inverse(g_minus_id: FormMatrix, max_len: int) -> FormMatrix:
    """Inverse of id + n for nilpotent n, as a finite alternating series."""
    ident = FormMatrix.identity(g_minus_id.k, g_minus_id.deg)
    out = ident
    power = ident
    sign = -1
    for _ in range(max_len + 1):
        power = power.compose(g_minus_id)
        if power.is_zero():
            return out
        out = out.add(power, sign)
        sign = -sign
    raise NotNilpotent(
        f"geometric series did not terminate within {max_len + 1} steps")


# ---------------------------------------------------------------------------
# connection data over the base
# ---------------------------------------------------------------------------

def _owner(sigma: Simplex, sigma_p: Simplex) -> tuple[Simplex, Simplex]:
    """The stored key holding the value over ``sigma`` at its face
    ``sigma_p``: the face spanned by ``sigma_p`` and the vertices of
    ``sigma`` after its last vertex, in which ``sigma_p`` is an initial
    segment.  That face has the same span relative to ``sigma_p``, so
    the value needs no reindexing."""
    if not sigma_p:
        return sigma, EMPTY
    last = face_positions(sigma_p, sigma)[-1]
    return sigma_p + sigma[last + 1:], sigma_p


@dataclass
class MixedConnectionData:
    A: CoefficientSystem
    aprime: dict = field(default_factory=dict)   # _owner key -> FormMatrix
    problems: list = field(default_factory=list)  # "sigma: message"

    def get(self, sigma: Simplex, sigma_p: Simplex) -> FormMatrix:
        return self.aprime[_owner(tuple(sigma), tuple(sigma_p))]


def _const_endo(A: CoefficientSystem, sigma_face: Simplex, k: int) -> FormMatrix:
    return FormMatrix.from_const(k, A.a(sigma_face), A.M.deg)


def _leading(A: CoefficientSystem, sigma: Simplex, m: int, seed: SMat,
             b: FormMatrix) -> FormMatrix:
    """seed + d(b) + a(sigma_0) o b on the m-chart: the terms the
    recursion and the gauge have in common."""
    total = FormMatrix.from_const(m, seed, A.M.deg).add(b.d())
    return total.add(_const_endo(A, sigma[:1], m).compose(b))


def recursion_value(A: CoefficientSystem, store: dict, sigma: Simplex,
                    k: int, seed: SMat, right) -> FormMatrix:
    """Recursion value for the initial segment sigma[:k], on the span of
    sigma[k:]: the candidate restriction of store[(sigma, sigma[:k])] to
    that span.

    a' and I' share every term.  They differ in the constant ``seed``,
    a(sigma[:k+1]) or I(sigma[:k+1]), and in ``right``, which maps
    b = store[(sigma, sigma[:k+1])] and the span sigma[k:] to
    b o a'(sigma[k:], empty) or to b . D.
    """
    m = dim(sigma) - k
    s = _sign(k + 1)
    b = store[(sigma, sigma[: k + 1])]
    total = _leading(A, sigma, m, seed, b)
    # alternating sum over the k-vertex faces of sigma[:k+1] omitting an
    # inner vertex (all non-initial, hence owned by smaller simplices)
    for j in range(k):
        fj = sigma[:j] + sigma[j + 1: k + 1]
        total = total.add(store[_owner(sigma, fj)], s * _sign(j))
    # splitting products against the initial-segment coefficients
    for j in range(1, k + 1):
        left = _const_endo(A, sigma[: j + 1], m)
        right_j = store[_owner(sigma, sigma[j: k + 1])]
        total = total.add(left.compose(right_j), s * _sign((k + 1) * (j - 1)))
    return total.add(right(b, sigma[k:]), s)


def extend_span(store: dict, sigma: Simplex, k: int, candidate: FormMatrix,
                max_degree: Optional[int]) -> FormMatrix:
    """Extend the recursion value over the span of sigma[k-1:].

    Facet 0 of the extension domain carries the recursion value; facet
    q >= 1 carries ``store[(tau, sigma[:k])]`` for the facet ``tau`` of
    ``sigma`` omitting global position k-1+q, which lives on exactly
    that span.  Extension is entrywise polynomial extension with
    escalating ansatz degree.  Facet data that disagree on a common face
    raise ``IncompatibleBoundaryData`` naming sigma, the segment, the
    facet and the entry.
    """
    l = dim(sigma)
    sigma_p = sigma[:k]
    mm = l - k + 1  # dimension of the extension domain
    taus = [sigma[:p] + sigma[p + 1:] for p in range(k, l + 1)]
    facets_data = [candidate] + [store[(tau, sigma_p)] for tau in taus]
    names = ["the recursion value"] + [f"the data on {tau}" for tau in taus]
    keys = {(r, c) for fm in facets_data for r, c, _p, _e in fm.entries()}
    out = FormMatrix(mm, candidate.deg)
    for (r, c) in sorted(keys, key=repr):
        bdata = [fm.entry(r, c) for fm in facets_data]
        if all(p.is_zero() for p in bdata):
            continue
        try:
            ext = extend_from_boundary(mm, bdata, max_degree=max_degree)
        except IncompatibleBoundaryData as ex:
            i, j = ex.certificate["facets"]
            raise IncompatibleBoundaryData(
                f"{sigma}, segment {sigma_p}: {names[i]} clashes with "
                f"{names[j]} at entry {r}<-{c}", ex.certificate) from ex
        out.set_entry(r, c, ext)
    return out


def gauge_empty(A: CoefficientSystem, sigma: Simplex, n: FormMatrix,
                inner: FormMatrix) -> FormMatrix:
    """Empty-face value (id + n)^-1 o inner for n = a'(sigma, sigma_0)."""
    l = dim(sigma)
    heights = {A.L.height(leaf, v) for leaf in A.L.leaves for v in sigma}
    ginv = neumann_inverse(n, max_len=len(heights) + l + 2)
    return ginv.compose(inner)


def _walk(A: CoefficientSystem, aprime: dict, store: dict, sigma: Simplex,
          seed, right, gauge_right: bool,
          max_degree: Optional[int]):
    """Fill ``store`` over ``sigma``: the one construction behind a' and I'.

    Only the keys (sigma, sigma[:k]) for k = 0..dim(sigma)+1 are
    written.  The face sigma itself carries zero on a point chart;
    initial segments are extended longest first from their recursion
    values, which read each non-initial face at its owner, a smaller
    simplex already filled; the empty face comes from the gauge by
    id + a'(sigma, sigma_0), read from ``aprime``.  The
    gauge's inner term is seed(sigma_0) + d(b) + a(sigma_0) o b for
    b = store[(sigma, sigma_0)], plus right(b, sigma) when
    ``gauge_right`` is set (I').  For a' the matching product
    b o a'(sigma, empty) is the unknown that the gauge solves for.
    """
    l = dim(sigma)
    store[(sigma, sigma)] = FormMatrix(0, A.M.deg)
    for k in range(l, 0, -1):
        candidate = recursion_value(A, store, sigma, k, seed(sigma[: k + 1]),
                                    right)
        store[(sigma, sigma[:k])] = extend_span(store, sigma, k, candidate,
                                                max_degree)
    b = store[(sigma, sigma[:1])]
    inner = _leading(A, sigma, l, seed(sigma[:1]), b)
    if gauge_right:
        inner = inner.add(right(b, sigma))
    store[(sigma, EMPTY)] = gauge_empty(A, sigma, aprime[(sigma, sigma[:1])],
                                        inner)


def is_flat_connection(a: FormMatrix) -> bool:
    """d a + a o a = 0, for a'(sigma, empty) or its partition pullback."""
    return a.d().add(a.compose(a)).is_zero()


def intertwines(i: FormMatrix, a: FormMatrix, D: SMat) -> bool:
    """i . D = d i + a o i: the chain map ``i`` carries the fiber
    differential ``D`` to the connection ``a``.  Both are values over a
    simplex or both their partition pullbacks, over one denominator."""
    return i.mul_const_right(D).eq(i.d().add(a.compose(i)))


def check_structure(data: MixedConnectionData, sigma: Simplex,
                    sigma_p: Simplex) -> list[str]:
    """Triangularity, per-block homogeneity, and the degree window."""
    A = data.A
    L = A.L
    l = dim(sigma)
    kk = len(sigma_p)  # 0 for the empty face
    bound = l - (kk - 1) - 1
    problems = []
    fm = data.get(sigma, sigma_p)
    for (al, _i), (be, _m), p, _e in fm.entries():
        if al == be or not prec(L, be, al, sigma):
            problems.append(
                f"a'({sigma},{sigma_p}): block {al}<-{be} breaks triangularity")
        want = 1 - kk - (L.index[al] - L.index[be])
        if not p.is_homogeneous(want):
            problems.append(
                f"a'({sigma},{sigma_p}): block {al}<-{be} not homogeneous "
                f"of form degree {want}")
        for r in p.form_degrees():
            if r < 0 or r > bound:
                problems.append(
                    f"a'({sigma},{sigma_p}): form degree {r} outside 0..{bound}")
    return problems


def check_value_coherence(store: dict, label: str, sigma: Simplex,
                          sigma_p: Simplex) -> list[str]:
    """Restriction of store[(sigma, sigma_p)], for sigma_p = sigma[:k]
    or the empty face (k = 0), to every facet through sigma_p matches
    the stored data there.  Those facets omit a position j >= k, and
    sigma_p is an initial segment of each.  ``label`` names the store
    (a' or I') in the messages."""
    l, k = dim(sigma), len(sigma_p)
    if l == 0:
        return []  # a vertex has no facet
    lo = max(k - 1, 0)  # the span of (sigma, sigma_p) is sigma[lo:]
    val = store[(sigma, sigma_p)]
    problems = []
    for j in range(k, l + 1):
        tau = sigma[:j] + sigma[j + 1:]
        span = [p for p in range(l - lo + 1) if p != j - lo]
        if not val.restrict(span).eq(store[(tau, sigma_p)]):
            problems.append(f"{label}({sigma},{sigma_p}) does not restrict "
                            f"to {label}({tau},{sigma_p})")
    return problems


def _face_checks(sigma: Simplex, structure, store: dict, label: str
                 ) -> list[str]:
    """``structure(sigma, sigma_p)`` over the empty face and the proper
    initial segments of ``sigma``, then the coherence of ``store`` over
    the same faces.  Every other face is checked at its owner, where the
    value is the same and each check is at least as strict."""
    faces = [sigma[:k] for k in range(len(sigma))]
    found = [m for f in faces for m in structure(sigma, f)]
    return found + [m for f in faces
                    for m in check_value_coherence(store, label, sigma, f)]


def build_mixed_connection(A: CoefficientSystem,
                           max_degree: Optional[int] = None
                           ) -> MixedConnectionData:
    """Run the construction over every simplex of the base.

    Every failed structure, coherence or flatness check lands in
    ``problems`` as "sigma: message", simplex by simplex.  A recursion
    value that clashes with data already built raises
    ``IncompatibleBoundaryData``.
    """
    data = MixedConnectionData(A=A)
    store = data.aprime

    def right(b, tail):
        return b.compose(store[(tail, EMPTY)])

    for sigma in A.S:
        _walk(A, store, store, sigma, A.a, right, False, max_degree)
        found = _face_checks(sigma, partial(check_structure, data), store,
                             "a'")
        if not is_flat_connection(store[(sigma, EMPTY)]):
            found.append("connection is not flat")
        data.problems += [f"{skey(sigma)}: {m}" for m in found]
    return data


# ---------------------------------------------------------------------------
# chain map data
# ---------------------------------------------------------------------------
#
# I'(sigma, sigma') is stored as its value: a FormMatrix with rows in the
# module basis and columns in the omega basis, on the same span as the
# connection data for (sigma, sigma').  The recursion acts on values
# directly, with the product against D taken as value . D.  A face
# decomposition  sum_{sigma''} b(sigma'') o I(sigma'')  of a value is
# solved for only where a check needs one (ChainMapData.coords).


@dataclass
class ChainMapData:
    A: CoefficientSystem
    FM: FiberModel
    values: dict = field(default_factory=dict)   # _owner key -> FormMatrix
    problems: list = field(default_factory=list)  # "sigma: message"
    _coords: dict = field(default_factory=dict, repr=False)

    def value(self, sigma: Simplex, sigma_p: Simplex) -> FormMatrix:
        return self.values[_owner(tuple(sigma), tuple(sigma_p))]

    def coords(self, sigma: Simplex, sigma_p: Simplex) -> Optional[dict]:
        """Face coordinates {sigma'': FormMatrix} of the stored value,
        solved on first use; None when no triangular decomposition
        exists."""
        key = (tuple(sigma), tuple(sigma_p))
        if key not in self._coords:
            try:
                self._coords[key] = solve_face_coords(
                    self.A, self.FM, key[0], key[1], self.value(*key))
            except ExtensionInfeasible:
                self._coords[key] = None
        return self._coords[key]


def solve_face_coords(A: CoefficientSystem, FM: FiberModel, sigma: Simplex,
                      sigma_p: Simplex, value: FormMatrix) -> dict:
    """Face coordinates for a given chain-map value matrix.

    Produces b with  sum_{s''} b(s'') I(s'') == value,  supported on the
    triangular blocks (strictly below the diagonal in the precedence
    order of ``sigma``, or on the diagonal for faces of dimension at
    least the vertex count of ``sigma_p``) and homogeneous of the forced
    form degree in each block.  Because every I(s'') is a constant
    matrix the defining equation splits monomial by monomial into small
    exact linear systems, one per module row and monomial.  Systems
    sharing a (leaf, form degree) block share their matrix, so each
    block is eliminated once for all its right-hand sides; free
    variables are zeroed.
    """
    L, M = A.L, A.M
    kk = len(sigma_p)
    mm = value.k
    faces = [s2 for s2 in all_faces(sigma)
             if not smat_is_zero(FM.imap(s2))]
    omega = list(FM.omega_basis)

    def columns(al: str, r: int) -> list[tuple[Simplex, tuple]]:
        below = {be: prec(L, be, al, sigma) for be in L.leaves if be != al}
        cols = []
        for s2 in faces:
            for be_m in M.basis:
                be = be_m[0]
                if be == al:
                    if dim(s2) < kk:
                        continue
                elif not below[be]:
                    continue
                if L.index[be] - L.index[al] + dim(s2) - kk != r:
                    continue
                cols.append((s2, be_m))
        return cols

    # one right-hand side per (module row, monomial), grouped by block
    order = []
    blocks: dict[tuple, list] = {}
    for row in sorted(value.rows, key=repr):
        split = monomial_coefficients({e: value.entry(row, e) for e in omega})
        for mono, r, vec in split:
            blocks.setdefault((row[0], r), []).append((len(order), vec))
            order.append((row, mono))

    solutions = [None] * len(order)
    for (al, r), items in blocks.items():
        cols = columns(al, r)
        mat = smat_transpose({(s2, be_m): FM.imap(s2).get(be_m, {})
                              for s2, be_m in cols})
        xs = solve(mat, cols, [vec for _i, vec in items])
        for (i, _vec), x in zip(items, xs):
            solutions[i] = x

    out: dict = {}
    for (row, mono), x in zip(order, solutions):
        if x is None:
            raise ExtensionInfeasible(
                f"no face decomposition over {sigma} (face {sigma_p}): "
                f"row {row}, monomial {mono}")
        for (s2, be_m), coef in x.items():
            fm = out.setdefault(s2, FormMatrix(mm, M.deg))
            fm.set_entry(row, be_m, fm.entry(row, be_m) + mono.scale(coef))
    return {s: fm for s, fm in out.items() if not fm.is_zero()}


def check_bcoord_structure(cm: ChainMapData, sigma: Simplex,
                           sigma_p: Simplex) -> list[str]:
    """The chain map has face coordinates that are triangular, respect
    the diagonal support bound and are homogeneous.

    ``solve_face_coords`` searches among exactly such coordinates, so
    the check is that a decomposition exists.
    """
    if cm.coords(sigma, sigma_p) is None:
        return [f"I'({sigma},{sigma_p}): no triangular face decomposition"]
    return []


def build_Iprime(data: MixedConnectionData, FM: FiberModel,
                 max_degree: Optional[int] = None) -> ChainMapData:
    """Lift the comparison maps over every simplex of the base.

    Follows the same walk as the connection build; afterwards the
    empty-face data over each simplex must intertwine D with the
    empty-face connection.  Every failed structure, coherence or chain
    check lands in ``problems`` as "sigma: message".
    """
    A = data.A
    cm = ChainMapData(A=A, FM=FM)

    def times_D(b, _tail):
        return b.mul_const_right(FM.D)

    for sigma in A.S:
        _walk(A, data.aprime, cm.values, sigma, FM.imap, times_D, True,
              max_degree)
        found = _face_checks(sigma, partial(check_bcoord_structure, cm),
                             cm.values, "I'")
        if not intertwines(cm.value(sigma, EMPTY), data.get(sigma, EMPTY),
                           FM.D):
            found.append("chain identity fails")
        cm.problems += [f"{skey(sigma)}: {m}" for m in found]
    return cm


# ---------------------------------------------------------------------------
# locality
# ---------------------------------------------------------------------------

def locality_check(data: MixedConnectionData, cm: ChainMapData) -> list[str]:
    """Row support of the chain maps against height-tagged fiber elements.

    For a leaf alpha and an omega basis element whose tag sits above
    h_alpha - epsilon^2 at every vertex of ``sigma``: the alpha rows of
    I'(sigma, sigma') kill it for nonempty sigma', and for the empty
    face they reduce to the diagonal vertex coordinates.  Only stored
    values are walked: over a larger simplex the tagged set only shrinks.
    """
    FM = cm.FM
    if FM.eta is None:
        raise ValueError("fiber model carries no height tags")
    A = data.A
    L = A.L
    eps2 = L.epsilon * L.epsilon
    problems = []
    tagged = {}
    for sigma in {s for s, _sp in cm.values}:
        for alpha in L.leaves:
            # above h_alpha - eps^2 at every vertex of sigma
            floor = max(L.height(alpha, v) for v in sigma) - eps2
            tagged[(sigma, alpha)] = {e for e in FM.omega_basis
                                      if FM.eta[e] > floor}
    for (sigma, sigma_p) in sorted(cm.values, key=repr):
        val = cm.value(sigma, sigma_p)
        for alpha in L.leaves:
            high = tagged[(sigma, alpha)]
            if not high:
                continue
            if sigma_p != EMPTY:
                for (al, _i), c, p, _e in val.entries():
                    if al == alpha and c in high and not p.is_zero():
                        problems.append(
                            f"I'({sigma},{sigma_p}) rows of {alpha} hit "
                            f"tagged element {c}")
            else:
                coords = cm.coords(sigma, EMPTY)
                if coords is None:
                    problems.append(
                        f"I'({sigma},empty) has no face decomposition to "
                        f"read the vertex diagonal from")
                    break
                diag = FormMatrix(dim(sigma), A.M.deg)
                for v in sigma:
                    fm = coords.get((v,))
                    if fm is None:
                        continue
                    keep = FormMatrix(fm.k, fm.deg)
                    for (al, i), (be, m), p, _e in fm.entries():
                        if al == alpha and be == alpha:
                            keep.set_entry((al, i), (be, m), p)
                    diag = diag.add(keep.mul_const_right(FM.imap((v,))))
                delta = val.sub(diag)
                for (al, _i), c, p, _e in delta.entries():
                    if al == alpha and c in high and not p.is_zero():
                        problems.append(
                            f"I'({sigma},empty) rows of {alpha} at tagged "
                            f"element {c} exceed the vertex diagonal")
    return problems
