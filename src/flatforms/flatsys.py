"""Flat combinatorial coefficient systems over a simplicial base.

A coefficient system assigns to every simplex of the base an exact
rational matrix on a fixed graded module, supported on leaf blocks
permitted by the per-simplex order and of the grading degree matching
the simplex dimension.  The two-sided residual of a simplex measures
the failure of flatness; all residuals vanish exactly when the induced
boundary operator on the associated cellular complex squares to zero.

Matrices act on column vectors: the block (alpha, beta) carries the
component from the beta summand into the alpha summand.  The cellular
boundary pairs generators against matrix rows, which is the transpose
picture of the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .linalg import (
    Q,
    mat_inverse,
    mat_mul,
    nullspace,
    qx,
    rank,
    rref,
    solve_dense,
    solve_sparse,
)
from .morse import GradedModule, LeafSystem, allowed_blocks
from .simplicial import (
    BaseComplex,
    Simplex,
    boundary_chain,
    dim,
    face,
)


class MissingFaceData(Exception):
    pass


class Infeasible(Exception):
    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ChainMapViolation(Exception):
    pass


class NotADifferential(Exception):
    pass


# ---------------------------------------------------------------------------
# sparse rational matrices: nested dicts {row: {col: value}}
# ---------------------------------------------------------------------------

SMat = dict


def smat_zero() -> SMat:
    return {}


def smat_set(m: SMat, r, c, v):
    v = qx(v)
    if v == 0:
        row = m.get(r)
        if row:
            row.pop(c, None)
            if not row:
                m.pop(r, None)
        return
    m.setdefault(r, {})[c] = v


def smat_get(m: SMat, r, c) -> Fraction:
    return m.get(r, {}).get(c, Q(0))


def smat_add(a: SMat, b: SMat) -> SMat:
    out = {r: dict(row) for r, row in a.items()}
    for r, row in b.items():
        orow = out.setdefault(r, {})
        for c, v in row.items():
            w = orow.get(c, Q(0)) + v
            if w == 0:
                orow.pop(c, None)
            else:
                orow[c] = w
        if not orow:
            out.pop(r, None)
    return out


def smat_scale(c, a: SMat) -> SMat:
    c = qx(c)
    if c == 0:
        return {}
    return {r: {cc: c * v for cc, v in row.items()} for r, row in a.items()}


def smat_sub(a: SMat, b: SMat) -> SMat:
    return smat_add(a, smat_scale(-1, b))


def smat_mul(a: SMat, b: SMat) -> SMat:
    out: SMat = {}
    for r, arow in a.items():
        acc: dict = {}
        for t, v in arow.items():
            brow = b.get(t)
            if not brow:
                continue
            for c, w in brow.items():
                s = acc.get(c, Q(0)) + v * w
                if s == 0:
                    acc.pop(c, None)
                else:
                    acc[c] = s
        if acc:
            out[r] = acc
    return out


def smat_is_zero(a: SMat) -> bool:
    return all(not row for row in a.values())


def smat_identity(keys) -> SMat:
    return {k: {k: Q(1)} for k in keys}


def smat_entries(a: SMat):
    for r, row in a.items():
        for c, v in row.items():
            yield r, c, v


# ---------------------------------------------------------------------------
# the coefficient system
# ---------------------------------------------------------------------------

class CoefficientSystem:
    """Per-simplex matrices over a graded module, possibly partial.

    ``coeffs`` maps a simplex to a sparse matrix keyed by basis pairs
    ((alpha, i), (beta, m)).
    """

    def __init__(self, S: BaseComplex, L: LeafSystem,
                 coeffs: Optional[dict] = None):
        self.S = S
        self.L = L
        self.M = GradedModule(L)
        self.coeffs: dict[Simplex, SMat] = dict(coeffs) if coeffs else {}

    def has(self, sigma: Simplex) -> bool:
        return tuple(sigma) in self.coeffs

    def a(self, sigma: Simplex) -> SMat:
        sigma = tuple(sigma)
        try:
            return self.coeffs[sigma]
        except KeyError:
            raise MissingFaceData(f"no coefficient stored for {sigma}") from None

    def set(self, sigma: Simplex, m: SMat):
        self.coeffs[self.S.require(sigma)] = m

    def copy(self) -> "CoefficientSystem":
        return CoefficientSystem(
            self.S, self.L,
            {s: {r: dict(row) for r, row in m.items()}
             for s, m in self.coeffs.items()})

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> dict:
        coeffs = {}
        for sigma in sorted(self.coeffs, key=lambda s: (len(s), s)):
            blocks: dict[str, list] = {}
            m = self.coeffs[sigma]
            by_block: dict[tuple[str, str], dict] = {}
            for (al, i), row in m.items():
                for (be, j), v in row.items():
                    by_block.setdefault((al, be), {})[(i, j)] = v
            for (al, be), entries in sorted(by_block.items()):
                ra, rb = self.M.rank[al], self.M.rank[be]
                mat = [[str(entries.get((i, j), Q(0))) for j in range(rb)]
                       for i in range(ra)]
                blocks[f"{al}<-{be}"] = mat
            coeffs[",".join(map(str, sigma))] = blocks
        return coeffs

    @classmethod
    def from_json(cls, S: BaseComplex, L: LeafSystem, data: dict
                  ) -> "CoefficientSystem":
        A = cls(S, L)
        for skey, blocks in data.items():
            sigma = tuple(int(t) for t in skey.split(","))
            m: SMat = {}
            for bkey, mat in blocks.items():
                arrow = "<-" if "<-" in bkey else "←"
                al, be = bkey.split(arrow)
                for i, row in enumerate(mat):
                    for j, v in enumerate(row):
                        v = qx(v)
                        if v != 0:
                            smat_set(m, (al, i), (be, j), v)
            A.set(sigma, m)
        return A


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def flatness_residual(A: CoefficientSystem, sigma: Simplex) -> SMat:
    """Two-sided residual of ``sigma``; flat across it iff zero.

    For a k-simplex this is the alternating facet sum plus the signed
    sum over initial-final splittings (both indexed over 0..k); for a
    vertex it reduces to a(v)^2.
    """
    sigma = A.S.require(sigma)
    k = dim(sigma)
    total = smat_zero()
    if k >= 1:
        for sgn, f in boundary_chain(sigma):
            total = smat_add(total, smat_scale(sgn, A.a(f)))
    for j in range(k + 1):
        left = A.a(sigma[: j + 1])
        right = A.a(sigma[j:])
        total = smat_add(total, smat_scale(_sign(k * (j - 1)), smat_mul(left, right)))
    return total


@dataclass
class FlatnessResidual:
    sigma: Simplex
    matrix: SMat

    @property
    def is_zero(self) -> bool:
        return smat_is_zero(self.matrix)


def all_residuals(A: CoefficientSystem) -> list[FlatnessResidual]:
    return [FlatnessResidual(s, flatness_residual(A, s)) for s in A.S]


def is_flat(A: CoefficientSystem) -> bool:
    return all(r.is_zero for r in all_residuals(A))


def validate_system(A: CoefficientSystem) -> list[str]:
    """Full structural validation; returns human-readable violations."""
    problems: list[str] = []
    L, M = A.L, A.M
    for sigma in A.S:
        if not A.has(sigma):
            problems.append(f"missing coefficient for {sigma}")
    if problems:
        return problems
    for sigma in A.S:
        k = dim(sigma)
        allowed = set(allowed_blocks(L, sigma, 1 - k))
        m = A.coeffs[sigma]
        for (al, i), (be, j), v in smat_entries(m):
            if (al, be) not in allowed:
                problems.append(
                    f"{sigma}: entry in forbidden block {al}<-{be} "
                    f"(degree {L.index[al] - L.index[be]}, need {1 - k})")
    for v in A.S.vertices():
        sq = smat_mul(A.coeffs[v], A.coeffs[v])
        if not smat_is_zero(sq):
            problems.append(f"vertex differential at {v} does not square to zero")
    for r in all_residuals(A):
        if not r.is_zero:
            problems.append(f"flatness residual nonzero at {r.sigma}")
    return problems


# ---------------------------------------------------------------------------
# cellular boundary operator
# ---------------------------------------------------------------------------

@dataclass
class CWBoundary:
    """Boundary operator on generators (sigma, basis element).

    The matrix is stored as {generator: {generator: coeff}} with the
    convention that row entries of the coefficient matrices multiply on
    the right (transpose action).  Generator degree is leaf index plus
    cell dimension; the operator lowers it by one.
    """

    generators: list
    matrix: dict
    degrees: dict

    def apply(self, gen) -> dict:
        return dict(self.matrix.get(gen, {}))

    def square(self) -> dict:
        out: dict = {}
        for g, row in self.matrix.items():
            acc: dict = {}
            for h, v in row.items():
                for t, w in self.matrix.get(h, {}).items():
                    s = acc.get(t, Q(0)) + v * w
                    if s == 0:
                        acc.pop(t, None)
                    else:
                        acc[t] = s
            if acc:
                out[g] = acc
        return out

    def is_differential(self) -> bool:
        return not self.square()

    def require_differential(self):
        sq = self.square()
        if sq:
            g = next(iter(sq))
            raise NotADifferential(
                f"boundary does not square to zero, e.g. on generator {g}")


def cw_boundary(A: CoefficientSystem) -> CWBoundary:
    """Cellular boundary of the system.

    On a generator (sigma, e) with sigma of dimension k:

        d(sigma, e) = sum_j (-1)^j (facet_j, e)
                    + sum_j (-1)^(k(j-1)) (sigma_{j..k}, e * a(sigma_{0..j}))

    where e * a pairs the generator with the rows of the coefficient
    matrix.
    """
    gens = []
    degrees = {}
    for sigma in A.S:
        for b in A.M.basis:
            gens.append((sigma, b))
            degrees[(sigma, b)] = A.M.degree(b) + dim(sigma)
    matrix: dict = {}
    for sigma in A.S:
        k = dim(sigma)
        for b in A.M.basis:
            acc: dict = {}
            if k >= 1:
                for sgn, f in boundary_chain(sigma):
                    g = (f, b)
                    s = acc.get(g, Q(0)) + sgn
                    if s == 0:
                        acc.pop(g, None)
                    else:
                        acc[g] = s
            for j in range(k + 1):
                sgn = _sign(k * (j - 1))
                left = A.a(sigma[: j + 1])
                tail = sigma[j:]
                row = left.get(b)
                if not row:
                    continue
                for col, v in row.items():
                    g = (tail, col)
                    s = acc.get(g, Q(0)) + sgn * v
                    if s == 0:
                        acc.pop(g, None)
                    else:
                        acc[g] = s
            if acc:
                matrix[(sigma, b)] = acc
    return CWBoundary(generators=gens, matrix=matrix, degrees=degrees)


def cw_homology(A: CoefficientSystem) -> dict[int, int]:
    """Betti numbers of the cellular complex, graded by generator degree."""
    bd = cw_boundary(A)
    bd.require_differential()
    return _graded_betti(bd.generators, bd.matrix, bd.degrees)


def _graded_betti(gens, matrix, degrees) -> dict[int, int]:
    by_deg: dict[int, list] = {}
    for g in gens:
        by_deg.setdefault(degrees[g], []).append(g)
    betti: dict[int, int] = {}
    ranks: dict[int, int] = {}
    for d in sorted(by_deg):
        src = by_deg[d]
        tgt = by_deg.get(d - 1, [])
        tpos = {g: i for i, g in enumerate(tgt)}
        rows = []
        for g in src:
            col = matrix.get(g, {})
            rows.append([col.get(t, Q(0)) for t in tgt])
        # rank of the degree-d piece of the boundary
        r = 0
        if rows and tgt:
            r = rank(rows)
        ranks[d] = r
    for d in sorted(by_deg):
        n = len(by_deg[d])
        betti[d] = n - ranks.get(d, 0) - ranks.get(d + 1, 0)
    return {d: b for d, b in betti.items() if b}


# ---------------------------------------------------------------------------
# completion by exact linear solving
# ---------------------------------------------------------------------------

def extend_system(A: CoefficientSystem, to_dim: Optional[int] = None
                  ) -> CoefficientSystem:
    """Fill in missing coefficients, lowest dimension first.

    For each missing k-simplex the flatness equation

        (-1)^k a(sigma_0) X + X a(sigma_k) + K = 0

    is solved for X over the allowed blocks, where K collects the facet
    sum and the interior splitting products.  The solve is deterministic
    (fixed variable order, free variables zero).  Raises ``Infeasible``
    with a certificate when no solution exists, ``MissingFaceData`` when
    a required face is absent.
    """
    out = A.copy()
    limit = to_dim if to_dim is not None else out.S.dim
    for k in range(0, limit + 1):
        for sigma in out.S.of_dim(k):
            if out.has(sigma):
                continue
            if k == 0:
                raise MissingFaceData(
                    f"vertex differential at {sigma} must be given")
            _solve_one(out, sigma)
    return out


def flatness_equation(A: CoefficientSystem, sigma: Simplex):
    """The part of the flatness equation of ``sigma`` linear in a(sigma).

    Returns the unknowns, one per entry of the allowed blocks of
    a(sigma), and the rows of (-1)^k a(sigma_0) X + X a(sigma_k) as
    {(r, c): {unknown index: coefficient}}, one per matrix position the
    product can reach.
    """
    k = dim(sigma)
    a0 = A.a(sigma[:1])
    ak = A.a(sigma[-1:])
    s0 = _sign(k)
    unknowns: list[tuple] = []
    for al, be in allowed_blocks(A.L, sigma, 1 - k):
        for i in range(A.M.rank[al]):
            for j in range(A.M.rank[be]):
                unknowns.append(((al, i), (be, j)))
    rows: dict[tuple, dict[int, Fraction]] = {}

    def add(rc, uidx, v):
        if v == 0:
            return
        row = rows.setdefault(rc, {})
        w = row.get(uidx, Q(0)) + v
        if w == 0:
            row.pop(uidx, None)
        else:
            row[uidx] = w

    for uidx, (p, q) in enumerate(unknowns):
        # s0 * a0 X: entry (r, q) gains s0*a0[r, p]
        for r, row in a0.items():
            v = row.get(p)
            if v:
                add((r, q), uidx, s0 * v)
        # X ak: entry (p, c) gains ak[q, c]
        for c, v in ak.get(q, {}).items():
            add((p, c), uidx, v)
    return unknowns, rows


def _solve_one(A: CoefficientSystem, sigma: Simplex):
    k = dim(sigma)
    K = smat_zero()
    for sgn, f in boundary_chain(sigma):
        K = smat_add(K, smat_scale(sgn, A.a(f)))
    for j in range(1, k):
        left = A.a(sigma[: j + 1])
        right = A.a(sigma[j:])
        K = smat_add(K, smat_scale(_sign(k * (j - 1)), smat_mul(left, right)))
    unknowns, rows = flatness_equation(A, sigma)
    for r, c, v in smat_entries(K):
        rows.setdefault((r, c), {})

    row_keys = sorted(rows, key=repr)
    sys_rows = [rows[rc] for rc in row_keys]
    sys_rhs = [-smat_get(K, *rc) for rc in row_keys]
    sol, cert = solve_sparse(sys_rows, sys_rhs, len(unknowns))
    if sol is None:
        raise Infeasible(
            f"no flat completion over the allowed blocks of {sigma}",
            certificate={"sigma": sigma, "reduced_row": repr(cert)})
    X = smat_zero()
    for t, u in enumerate(unknowns):
        if sol[t] != 0:
            smat_set(X, u[0], u[1], sol[t])
    A.set(sigma, X)


# ---------------------------------------------------------------------------
# higher homotopy export
# ---------------------------------------------------------------------------

@dataclass
class IgusaSystem:
    """Tuple-indexed operators on a fixed top simplex.

    ``e[(v_0, ..., v_k)]`` is defined for strictly increasing vertex
    position tuples; non-increasing tuples are zero by convention.
    """

    sigma: Simplex
    e: dict[tuple, SMat]


def igusa_export(A: CoefficientSystem, sigma: Simplex) -> IgusaSystem:
    """Reindex the coefficients on the faces of ``sigma`` with the
    staircase sign (-1)^(k(k-1)/2)."""
    sigma = A.S.require(sigma)
    n = dim(sigma)
    e: dict[tuple, SMat] = {}
    for size in range(1, n + 2):
        for tup in combinations(range(n + 1), size):
            k = size - 1
            f = face(sigma, tup)
            e[tup] = smat_scale(_sign(k * (k - 1) // 2), A.a(f))
    return IgusaSystem(sigma=sigma, e=e)


def igusa_check(ig: IgusaSystem) -> list[tuple]:
    """All defining relations of the reindexed system; returns violators.

    For every increasing tuple (v_0..v_k) the signed sum

        sum_j (-1)^j [ e(v_0..v_j) e(v_j..v_k) - e(v_0..v̂_j..v_k) ]

    must vanish (tuples of length < 1 contribute zero).
    """
    n = dim(ig.sigma)
    bad = []
    for size in range(1, n + 2):
        for tup in combinations(range(n + 1), size):
            k = size - 1
            total = smat_zero()
            for j in range(k + 1):
                left = ig.e[tup[: j + 1]]
                right = ig.e[tup[j:]]
                total = smat_add(total, smat_scale(_sign(j), smat_mul(left, right)))
                omitted = tup[:j] + tup[j + 1:]
                if len(omitted) >= 1:
                    total = smat_sub(total, smat_scale(_sign(j), ig.e[omitted]))
            if not smat_is_zero(total):
                bad.append(tup)
    return bad


# ---------------------------------------------------------------------------
# transport, fiber homology, holonomy
# ---------------------------------------------------------------------------

def edge_transport(A: CoefficientSystem, edge: Simplex) -> SMat:
    """The chain map id + a(edge) from the fiber over the endpoint to
    the fiber over the start point."""
    edge = A.S.require(edge)
    if dim(edge) != 1:
        raise ValueError(f"{edge} is not an edge")
    return smat_add(smat_identity(A.M.basis), A.a(edge))


@dataclass
class FiberHomology:
    basis: list            # module basis, fixing the column order
    reps: list             # cycle representatives (dense columns)
    rep_degrees: list
    betti: dict
    boundary_basis: list   # independent columns of the differential


def fiber_homology(A: CoefficientSystem, vertex: Simplex) -> FiberHomology:
    """Graded homology of the fiber complex (V, a(v)), exact over Q."""
    v = A.S.require(vertex)
    if dim(v) != 0:
        raise ValueError(f"{v} is not a vertex")
    return _homology_of_matrix(A.M, A.a(v))


def _homology_of_matrix(M: GradedModule, d: SMat) -> FiberHomology:
    n = M.n
    basis = M.basis
    pos = M.position
    dense = [[Q(0)] * n for _ in range(n)]
    for r, c, val in smat_entries(d):
        dense[pos[r]][pos[c]] = val
    # cycles: right kernel
    cycles = nullspace(dense, n)
    # boundaries: independent columns of d
    R, pivots = rref(dense)
    bcols = [[dense[r][c] for r in range(n)] for c in pivots]
    # quotient: extend the boundary basis by cycle vectors, greedily
    reps = []
    span = [list(b) for b in bcols]
    for z in cycles:
        if _in_span(span, z):
            continue
        span.append(list(z))
        reps.append(z)
    rep_degrees = [_vector_degree(M, z) for z in reps]
    betti: dict[int, int] = {}
    for g in rep_degrees:
        betti[g] = betti.get(g, 0) + 1
    return FiberHomology(basis=basis, reps=reps, rep_degrees=rep_degrees,
                         betti=betti, boundary_basis=bcols)


def _vector_degree(M: GradedModule, z) -> int:
    degs = {M.degree(M.basis[i]) for i, c in enumerate(z) if c != 0}
    if len(degs) != 1:
        raise ValueError("representative mixes degrees")
    return degs.pop()


def _in_span(span_vectors, z) -> bool:
    if not span_vectors:
        return all(c == 0 for c in z)
    cols = [list(v) for v in span_vectors]
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(z))]
    return solve_dense(mat, [list(z)])[0] is not None


def induced_on_homology(A: CoefficientSystem, T: SMat,
                        src: FiberHomology, tgt: FiberHomology):
    """Matrix of the map induced by the chain map ``T`` on homology."""
    pos = A.M.position
    n = A.M.n
    cols = []
    # solve [tgt reps | tgt boundaries] x = T z; homology coords are the
    # leading block of x
    basis_cols = [list(r) for r in tgt.reps] + [list(b) for b in tgt.boundary_basis]
    mat = [[basis_cols[j][i] for j in range(len(basis_cols))] for i in range(n)]
    images = []
    for z in src.reps:
        tz = [Q(0)] * n
        for r, c, v in smat_entries(T):
            tz[pos[r]] += v * z[pos[c]]
        images.append(tz)
    for x in solve_dense(mat, images):
        if x is None:
            raise ChainMapViolation("image of a cycle is not a cycle mod boundaries")
        cols.append(x[: len(tgt.reps)])
    # column-major to matrix
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(tgt.reps))]


def holonomy_on_homology(A: CoefficientSystem, triangle: Simplex):
    """Composite of the three induced edge transports around a triangle.

    Computed on the homology of the fiber over the last vertex; for a
    flat system this is the identity matrix.
    """
    tri = A.S.require(triangle)
    if dim(tri) != 2:
        raise ValueError(f"{tri} is not a triangle")
    v0, v1, v2 = tri
    H0 = fiber_homology(A, (v0,))
    H1 = fiber_homology(A, (v1,))
    H2 = fiber_homology(A, (v2,))
    T01 = edge_transport(A, (v0, v1))
    T12 = edge_transport(A, (v1, v2))
    T02 = edge_transport(A, (v0, v2))
    M12 = induced_on_homology(A, T12, H2, H1)
    M01 = induced_on_homology(A, T01, H1, H0)
    M02 = induced_on_homology(A, T02, H2, H0)
    return mat_mul(mat_inverse(M02), mat_mul(M01, M12))


# ---------------------------------------------------------------------------
# monomial regime
# ---------------------------------------------------------------------------

def monomial_check(A: CoefficientSystem, allowed_values) -> list[str]:
    """Check the system lies in the declared monomial regime.

    Every block of every coefficient may contain at most one nonzero
    entry per row and per column, and each entry must belong to
    ``allowed_values``.
    """
    allowed = {qx(v) for v in allowed_values}
    problems = []
    for sigma in sorted(A.coeffs, key=lambda s: (len(s), s)):
        by_block: dict[tuple, list] = {}
        for (al, i), (be, j), v in smat_entries(A.coeffs[sigma]):
            by_block.setdefault((al, be), []).append((i, j, v))
        for (al, be), entries in sorted(by_block.items()):
            rows_seen = {}
            cols_seen = {}
            for i, j, v in entries:
                if v not in allowed:
                    problems.append(
                        f"{sigma} block {al}<-{be}: entry {v} not an allowed value")
                if i in rows_seen:
                    problems.append(
                        f"{sigma} block {al}<-{be}: two entries in row {i}")
                if j in cols_seen:
                    problems.append(
                        f"{sigma} block {al}<-{be}: two entries in column {j}")
                rows_seen[i] = cols_seen[j] = True
    return problems
