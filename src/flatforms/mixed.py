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
gauge step whose unipotent is invertible by a finite geometric series;
the a' build computes that inverse once per simplex and the I' build
reuses it.  The constant factors of the recursion (a(sigma[:j+1]) on
the left) scale each entry with its Koszul sign.  The two builds
differ only in the constant seed of the recursion (a or I), its right
factor (a'(sigma[k:], empty) or D), and the identity checked
afterwards, ``is_flat_connection`` or ``intertwines``;
smoothing checks the same two on the partition pullbacks.  Failed
checks land in ``problems``.

This is the form layer only.  The constant data it starts from, the
coefficient system and the fiber model, and every identity over Q
(flatness, the comparison relation) live in :mod:`flatforms.flatsys`.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, partial
from typing import Optional

from .flatsys import CoefficientSystem, FiberModel
from .forms import (
    IncompatibleBoundaryData,
    PolyForm,
    Powers,
    extend_from_boundary,
)
from .linalg import (
    CheckFailed,
    SMat,
    smat_entries,
    smat_is_zero,
    smat_transpose,
    solution_operator,
)
from .morse import block_allowed, prec
from .simplicial import (
    EMPTY,
    Simplex,
    all_faces,
    dim,
    face_positions,
    facet,
    facet_positions,
    parity_sign,
    skey,
)


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

    def mul_const_left(self, m: SMat) -> "FormMatrix":
        """Compose with a constant module endomorphism on the left: what
        ``compose`` gives with ``from_const(k, m, deg)`` on the left.
        Each entry is scaled, its odd form-degree part negated when the
        block degree of the constant is odd."""
        parts: dict = {}   # (r, c) -> {e: numerator}
        for r, row in m.items():
            for t, v in row.items():
                orow = self.rows.get(t)
                if not orow:
                    continue
                odd = (self.deg[r] - self.deg[t]) % 2
                for c, (q, f) in orow.items():
                    prod = (q.graded_involution() if odd else q).scale(v)
                    if not prod.is_zero():
                        by_e = parts.setdefault((r, c), {})
                        by_e[f] = by_e[f] + prod if f in by_e else prod
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
    raise CheckFailed(
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


class MixedConnectionData:
    def __init__(self, A: CoefficientSystem, aprime: Optional[dict] = None,
                 problems: Optional[list] = None,
                 gauge_inverses: Optional[dict] = None):
        self.A = A
        self.aprime = {} if aprime is None else aprime  # _owner key -> value
        self.problems = [] if problems is None else problems  # "sigma: ..."
        # sigma -> (id + a'(sigma, sigma_0))^-1, shared with the I' walk
        self.gauge_inverses = {} if gauge_inverses is None else gauge_inverses

    def get(self, sigma: Simplex, sigma_p: Simplex) -> FormMatrix:
        return self.aprime[_owner(tuple(sigma), tuple(sigma_p))]


def _leading(A: CoefficientSystem, sigma: Simplex, m: int, seed: SMat,
             b: FormMatrix) -> FormMatrix:
    """seed + d(b) + a(sigma_0) o b on the m-chart: the terms the
    recursion and the gauge have in common."""
    total = FormMatrix.from_const(m, seed, A.L.deg).add(b.d())
    return total.add(b.mul_const_left(A.a(sigma[:1])))


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
    s = parity_sign(k + 1)
    b = store[(sigma, sigma[: k + 1])]
    total = _leading(A, sigma, m, seed, b)
    # alternating sum over the k-vertex faces of sigma[:k+1] omitting an
    # inner vertex (all non-initial, hence owned by smaller simplices)
    for j in range(k):
        fj = facet(sigma[: k + 1], j)
        total = total.add(store[_owner(sigma, fj)], s * parity_sign(j))
    # splitting products against the initial-segment coefficients
    for j in range(1, k + 1):
        right_j = store[_owner(sigma, sigma[j: k + 1])]
        total = total.add(right_j.mul_const_left(A.a(sigma[: j + 1])),
                          s * parity_sign((k + 1) * (j - 1)))
    return total.add(right(b, sigma[k:]), s)


def extend_span(store: dict, sigma: Simplex, k: int, candidate: FormMatrix
                ) -> FormMatrix:
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
    taus = [facet(sigma, p) for p in range(k, l + 1)]
    facets_data = [candidate] + [store[(tau, sigma_p)] for tau in taus]
    names = ["the recursion value"] + [f"the data on {tau}" for tau in taus]
    keys = {(r, c) for fm in facets_data for r, c, _p, _e in fm.entries()}
    out = FormMatrix(mm, candidate.deg)
    for (r, c) in sorted(keys, key=repr):
        bdata = [fm.entry(r, c) for fm in facets_data]
        if all(p.is_zero() for p in bdata):
            continue
        try:
            ext = extend_from_boundary(mm, bdata)
        except IncompatibleBoundaryData as ex:
            i, j = ex.facets
            raise IncompatibleBoundaryData(
                f"{sigma}, segment {sigma_p}: {names[i]} clashes with "
                f"{names[j]} at entry {r}<-{c}", ex.facets) from ex
        out.set_entry(r, c, ext)
    return out


def gauge_inverse(A: CoefficientSystem, sigma: Simplex,
                  n: FormMatrix) -> FormMatrix:
    """(id + n)^-1 for n = a'(sigma, sigma_0), the gauge of the empty
    face over ``sigma``."""
    heights = {A.L.height(leaf, v) for leaf in A.L.leaves for v in sigma}
    return neumann_inverse(n, max_len=len(heights) + dim(sigma) + 2)


def _walk(A: CoefficientSystem, inverses: dict, store: dict, sigma: Simplex,
          seed, right, chain: bool):
    """Fill ``store`` over ``sigma``: the one construction behind a' and I'.

    Only the keys (sigma, sigma[:k]) for k = 0..dim(sigma)+1 are
    written.  The face sigma itself carries zero on a point chart;
    initial segments are extended longest first from their recursion
    values, which read each non-initial face at its owner, a smaller
    simplex already filled; the empty face is the gauge inverse
    (id + a'(sigma, sigma_0))^-1 composed with the inner term
    seed(sigma_0) + d(b) + a(sigma_0) o b for b = store[(sigma, sigma_0)].
    The a' walk (``chain`` unset) computes that inverse from b and keeps
    it in ``inverses``; for a' the product b o a'(sigma, empty) is the
    unknown that the gauge solves for.  The I' walk (``chain`` set)
    reads the inverse there and adds right(b, sigma) to the inner term.
    """
    l = dim(sigma)
    store[(sigma, sigma)] = FormMatrix(0, A.L.deg)
    for k in range(l, 0, -1):
        candidate = recursion_value(A, store, sigma, k, seed(sigma[: k + 1]),
                                    right)
        store[(sigma, sigma[:k])] = extend_span(store, sigma, k, candidate)
    b = store[(sigma, sigma[:1])]
    inner = _leading(A, sigma, l, seed(sigma[:1]), b)
    if chain:
        inner = inner.add(right(b, sigma))
    else:
        inverses[sigma] = gauge_inverse(A, sigma, b)
    store[(sigma, EMPTY)] = inverses[sigma].compose(inner)


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
        # forms of degree ``want`` make up the rest of the total degree
        # 1 - kk, so the block is held to its own grading degree: only
        # the order over sigma can forbid it
        grading = L.index[al] - L.index[be]
        if not block_allowed(L, al, be, sigma, grading):
            problems.append(
                f"a'({sigma},{sigma_p}): block {al}<-{be} breaks triangularity")
        want = 1 - kk - grading
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
        tau = facet(sigma, j)
        span = facet_positions(l - lo, j - lo)
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


def build_mixed_connection(A: CoefficientSystem) -> MixedConnectionData:
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
        _walk(A, data.gauge_inverses, store, sigma, A.a, right, False)
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
# solved for only where a check needs one (ChainMapData.coords).  Each
# I(sigma'') is constant, so one (row leaf, form degree) block of the
# value is solved for by two constant matrices, the solution operator of
# the block's system over Q, applied to whole forms.  An operator depends
# on its column list alone, so one build eliminates each list once.


class ChainMapData:
    def __init__(self, A: CoefficientSystem, FM: FiberModel,
                 values: Optional[dict] = None,
                 problems: Optional[list] = None):
        self.A, self.FM = A, FM
        self.values = {} if values is None else values  # _owner key -> value
        self.problems = [] if problems is None else problems  # "sigma: ..."
        self._coords: dict = {}
        # column tuple -> solution operator (S, C) of its system under FM
        self._operators: dict = {}

    def value(self, sigma: Simplex, sigma_p: Simplex) -> FormMatrix:
        return self.values[_owner(tuple(sigma), tuple(sigma_p))]

    def coords(self, sigma: Simplex, sigma_p: Simplex) -> Optional[dict]:
        """Face coordinates {sigma'': FormMatrix} of the stored value,
        solved on first use; None when no triangular decomposition
        exists."""
        key = (tuple(sigma), tuple(sigma_p))
        if key not in self._coords:
            self._coords[key] = solve_face_coords(
                self.A, self.FM, key[0], key[1], self.value(*key),
                self._operators)
        return self._coords[key]


def solve_face_coords(A: CoefficientSystem, FM: FiberModel, sigma: Simplex,
                      sigma_p: Simplex, value: FormMatrix,
                      operators: dict) -> Optional[dict]:
    """Face coordinates for a given chain-map value matrix.

    Produces b with  sum_{s''} b(s'') I(s'') == value,  supported on the
    triangular blocks (strictly below the diagonal in the precedence
    order of ``sigma``, or on the diagonal for faces of dimension at
    least the vertex count of ``sigma_p``) and homogeneous of the forced
    form degree in each block.  Every I(s'') is a constant matrix, so
    the degree-r parts of the value rows of one leaf make up one block,
    whose unknowns are the degree-r columns (s'', basis element): its b
    is part . S for the solution operator (S, C) of the block's system
    (``linalg.solution_operator``), provided part . C = 0 and part
    vanishes off the system's rows.  Coefficient by coefficient this is
    the solution of each monomial's system with free variables zero.

    The columns list faces outer, so those of the block's first face are
    a prefix, and their operator is tried first; the full list serves
    only a part it does not reach.  Both give the same b: the pivots of a
    column prefix are its own pivots in the full list, and a right side
    in their span has exactly one representation in those pivot columns.
    ``operators`` keeps the operators by column tuple, for one fiber
    model.  When no operator reaches a part, the value has no such
    decomposition and the result is None.
    """
    L = A.L
    kk = len(sigma_p)
    faces = [s2 for s2 in all_faces(sigma)
             if not smat_is_zero(FM.imap(s2))]

    def columns(al: str) -> dict[int, tuple[tuple, tuple]]:
        """The unknowns of the blocks of row leaf ``al``, by form degree,
        as (the first face's columns, all columns): faces outer, module
        basis inner.  A column leaf is ``al`` or precedes it over
        ``sigma``.  On the diagonal the degree is dim(s2) - kk, so a face
        of dimension below ``kk`` lands on a negative degree, which no
        block has."""
        leaves = [be for be in L.leaves
                  if be == al or prec(L, be, al, sigma)]
        by_degree: dict[int, list] = {}
        for s2 in faces:
            for be in leaves:
                r = L.index[be] - L.index[al] + dim(s2) - kk
                by_degree.setdefault(r, []).extend(
                    (s2, (be, i)) for i in range(L.rank[be]))
        return {r: (tuple(c for c in cols if c[0] == cols[0][0]), tuple(cols))
                for r, cols in by_degree.items()}

    def operator(cols: tuple) -> tuple[SMat, SMat]:
        if cols not in operators:
            mat = smat_transpose({(s2, be_m): FM.imap(s2).get(be_m, {})
                                  for s2, be_m in cols})
            operators[cols] = solution_operator(mat, cols)
        return operators[cols]

    def reach(cols: tuple, part: FormMatrix) -> Optional[FormMatrix]:
        S, C = operator(cols)
        if any(c not in S for row in part.rows.values() for c in row) \
                or not part.mul_const_right(C).is_zero():
            return None
        return part.mul_const_right(S)

    # the degree-r parts of the value rows of leaf al, by (al, r)
    parts: dict[tuple, FormMatrix] = {}
    for row, entries in value.rows.items():
        for c, (p, _e) in entries.items():
            degrees = p.form_degrees()
            for r in degrees:
                part = parts.setdefault((row[0], r),
                                        FormMatrix(value.k, L.deg))
                part.set_entry(row, c, p if len(degrees) == 1
                               else p.degree_part(r))

    out: dict = {}
    table = {al: columns(al) for al in dict.fromkeys(al for al, _r in parts)}
    for (al, r), part in parts.items():
        head, cols = table[al].get(r, ((), ()))
        x = reach(head, part)
        if x is None and len(head) < len(cols):
            x = reach(cols, part)
        if x is None:
            return None
        for row, (s2, be_m), p, e in x.entries():
            out.setdefault(s2, FormMatrix(value.k, L.deg)).set_entry(
                row, be_m, p, e)
    return out


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


def build_Iprime(data: MixedConnectionData, FM: FiberModel) -> ChainMapData:
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
        _walk(A, data.gauge_inverses, cm.values, sigma, FM.imap, times_D, True)
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
    Each tagged set is a prefix of the omega basis sorted by tag, found
    by bisection.  Messages come per stored value in repr order of its
    key, then leaf by leaf, then in the order of the entries they name.
    """
    FM = cm.FM
    if FM.eta is None:
        raise ValueError("fiber model carries no height tags")
    L = data.A.L
    eps2 = L.epsilon * L.epsilon
    by_tag = sorted(FM.omega_basis, key=FM.eta.__getitem__, reverse=True)
    below = [-FM.eta[e] for e in by_tag]   # ascending
    prefixes: dict[int, frozenset] = {}
    tagged = {}
    for sigma in {s for s, _sp in cm.values}:
        for alpha in L.leaves:
            # above h_alpha - eps^2 at every vertex of sigma
            floor = max(L.height(alpha, v) for v in sigma) - eps2
            n = bisect_left(below, -floor)
            if n not in prefixes:
                prefixes[n] = frozenset(by_tag[:n])
            tagged[(sigma, alpha)] = prefixes[n]
    problems = []
    for key in sorted(cm.values, key=repr):
        sigma, sigma_p = key
        val = cm.values[key]
        high = {alpha: tagged[(sigma, alpha)] for alpha in L.leaves}
        if sigma_p != EMPTY:
            hits: dict = {}
            for row, entries in val.rows.items():
                for c, (p, _e) in entries.items():
                    if c in high[row[0]] and not p.is_zero():
                        hits.setdefault(row[0], []).append(
                            f"I'({sigma},{sigma_p}) rows of {row[0]} hit "
                            f"tagged element {c}")
            problems += [m for alpha in L.leaves for m in hits.get(alpha, ())]
            continue
        if not any(high.values()):
            continue
        coords = cm.coords(sigma, EMPTY)
        if coords is None:
            problems.append(f"I'({sigma},empty) has no face decomposition "
                            f"to read the vertex diagonal from")
            continue
        over = _over_the_diagonal(FM, sigma, val, coords, high)
        for alpha in L.leaves:
            if alpha in over:
                problems += _diagonal_excess(FM, sigma, val, coords, alpha,
                                             high[alpha])
    return problems


def _over_the_diagonal(FM: FiberModel, sigma: Simplex, val: FormMatrix,
                       coords: dict, high: dict) -> set:
    """The leaves alpha at some tagged entry of whose rows
    val = I'(sigma, empty) differs from the vertex diagonal
    sum_v b_v(alpha <- alpha) . I(v), read from the face coordinates
    b_v at the vertices.  Only tagged entries are computed."""
    diag: dict = {}   # row -> {tagged element: form}
    for v in sigma:
        fm = coords.get((v,))
        if fm is None:
            continue
        iv = FM.imap((v,))
        for row, entries in fm.rows.items():
            alpha = row[0]
            for t, (p, _e) in entries.items():
                if t[0] != alpha:
                    continue
                for c, w in iv.get(t, {}).items():
                    if c in high[alpha]:
                        d = diag.setdefault(row, {})
                        d[c] = d[c] + p.scale(w) if c in d else p.scale(w)
    over = set()
    for row, entries in val.rows.items():
        d = diag.get(row, {})
        for c, (p, _e) in entries.items():
            if c in high[row[0]] and p != d.pop(c, None):
                over.add(row[0])
    # the tagged entries where only the diagonal is nonzero
    return over | {row[0] for row, d in diag.items()
                   if any(not q.is_zero() for q in d.values())}


def _diagonal_excess(FM: FiberModel, sigma: Simplex, val: FormMatrix,
                     coords: dict, alpha: str, high: frozenset) -> list[str]:
    """The messages for the tagged entries of the alpha rows where
    I'(sigma, empty) exceeds the vertex diagonal, in the order of the
    entries of their difference, formed in full."""
    diag = FormMatrix(dim(sigma), val.deg)
    for v in sigma:
        fm = coords.get((v,))
        if fm is None:
            continue
        keep = FormMatrix(fm.k, fm.deg)
        for (al, i), (be, m), p, _e in fm.entries():
            if al == alpha and be == alpha:
                keep.set_entry((al, i), (be, m), p)
        diag = diag.add(keep.mul_const_right(FM.imap((v,))))
    return [f"I'({sigma},empty) rows of {alpha} at tagged element {c} "
            f"exceed the vertex diagonal"
            for (al, _i), c, p, _e in val.add(diag, -1).entries()
            if al == alpha and c in high and not p.is_zero()]
