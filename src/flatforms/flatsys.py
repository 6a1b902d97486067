"""Flat combinatorial coefficient systems over a simplicial base.

A coefficient system assigns to every simplex of the base an exact
rational matrix on the graded module spanned by the leaves, of grading
degree one minus the simplex dimension.  Both the module basis and the
rule saying which leaf blocks such a matrix may occupy belong to
:mod:`flatforms.morse`; ``forbidden_blocks`` and ``flatness_equation``
only apply them.  The two-sided residual of a simplex measures the
failure of flatness; all residuals vanish exactly when the induced
boundary operator on the associated cellular complex squares to zero.
A fiber model compares a fixed complex (Omega, D) with the fibers by
constant maps I(sigma).  Flatness and the comparison relation are one
sum with a different right factor, written once in ``relation``; this
module holds every such identity over Q, and :mod:`flatforms.mixed`
only lifts the data to forms.  The cellular complex, each fiber
(V, a(v)) and (Omega, D) take their homology from ``linalg.Homology``,
which takes each differential as given and refuses one with an entry
not of degree +1.  The holonomy walk builds the map that each edge
transport induces on homology once, for every triangle on the edge.

Matrices act on column vectors: the block (alpha, beta) carries the
component from the beta summand into the alpha summand.  The cellular
boundary pairs generators against matrix rows, which is the transpose
picture of the same data.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Callable, Optional

from .linalg import (
    CheckFailed,
    Homology,
    SMat,
    qint,
    qkeys,
    rank,
    smat_add,
    smat_entries,
    smat_identity,
    smat_is_zero,
    smat_mul,
    smat_set,
    smat_transpose,
    solve,
)
from .morse import (
    LeafSystem,
    allowed_blocks,
    block_allowed,
    block_entries,
)
from .simplicial import (
    BaseComplex,
    Simplex,
    boundary_chain,
    dim,
    face,
    parity_sign,
    parse_skey,
    skey,
)


# ---------------------------------------------------------------------------
# the coefficient system
# ---------------------------------------------------------------------------

class CoefficientSystem:
    """Per-simplex matrices over the leaves' graded module, possibly
    partial.

    ``coeffs`` maps a simplex to a sparse matrix keyed by basis pairs
    ((alpha, i), (beta, m)) of ``L.basis``.
    """

    def __init__(self, S: BaseComplex, L: LeafSystem,
                 coeffs: Optional[dict] = None):
        self.S = S
        self.L = L
        self.coeffs: dict[Simplex, SMat] = dict(coeffs) if coeffs else {}

    def has(self, sigma: Simplex) -> bool:
        return tuple(sigma) in self.coeffs

    def a(self, sigma: Simplex) -> SMat:
        sigma = tuple(sigma)
        try:
            return self.coeffs[sigma]
        except KeyError:
            raise CheckFailed(f"no coefficient stored for {sigma}") from None

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
                ra, rb = self.L.rank[al], self.L.rank[be]
                mat = [[str(entries.get((i, j), 0)) for j in range(rb)]
                       for i in range(ra)]
                blocks[f"{al}<-{be}"] = mat
            coeffs[skey(sigma)] = blocks
        return coeffs

    @classmethod
    def from_json(cls, S: BaseComplex, L: LeafSystem, data: dict,
                  read: Callable) -> "CoefficientSystem":
        """The system in ``data``, its entries read with ``read`` (a
        ``qreader``); foreign simplices, leaves or shapes raise."""
        A = cls(S, L)
        for key, blocks in data.items():
            sigma = parse_skey(key)
            m: SMat = {}
            for bkey, mat in blocks.items():
                al, _, be = bkey.partition("<-")
                if al not in L.rank or be not in L.rank:
                    raise ValueError(f"block {bkey} on {sigma} names an "
                                     f"undeclared leaf")
                if (len(mat) != L.rank[al]
                        or any(len(row) != L.rank[be] for row in mat)):
                    raise ValueError(f"block {bkey} on {sigma} is not "
                                     f"{L.rank[al]}x{L.rank[be]}")
                for i, row in enumerate(mat):
                    for j, v in enumerate(row):
                        smat_set(m, (al, i), (be, j), read(v))
            A.set(sigma, m)
        return A


def relation(A: CoefficientSystem, sigma: Simplex, x) -> SMat:
    """The signed facet sum of ``x`` plus the splitting products over
    ``sigma``, for ``x`` a map from simplices to matrices:

        sum_j (-1)^j x(facet_j)
          + sum_j (-1)^(k(j-1)) a(sigma_{0..j}) x(sigma_{j..k})

    (no facets for a vertex).  With x = a this is the flatness residual;
    with x = I it is the comparison relation of a fiber model without
    its D term.
    """
    sigma = A.S.require(sigma)
    k = dim(sigma)
    total = {}
    if k >= 1:
        for sgn, f in boundary_chain(sigma):
            total = smat_add(total, x(f), sgn)
    for j in range(k + 1):
        left = A.a(sigma[: j + 1])
        right = x(sigma[j:])
        total = smat_add(total, smat_mul(left, right),
                         parity_sign(k * (j - 1)))
    return total


def flatness_residual(A: CoefficientSystem, sigma: Simplex) -> SMat:
    """Two-sided residual of ``sigma``; flat across it iff zero.  For a
    vertex it reduces to a(v)^2."""
    return relation(A, sigma, A.a)


def forbidden_blocks(A: CoefficientSystem) -> list[str]:
    """One problem per entry of a coefficient present in ``A`` that sits
    in a block ``block_allowed`` forbids to a(sigma), of degree
    1 - dim(sigma).  The verdict is taken once per block present."""
    problems: list[str] = []
    L = A.L
    for sigma in A.S:
        if not A.has(sigma):
            continue
        need = 1 - dim(sigma)
        allowed: dict[tuple[str, str], bool] = {}
        for (al, _i), (be, _j), _v in smat_entries(A.coeffs[sigma]):
            if (al, be) not in allowed:
                allowed[al, be] = block_allowed(L, al, be, sigma, need)
            if not allowed[al, be]:
                problems.append(
                    f"{sigma}: entry in forbidden block {al}<-{be} "
                    f"(degree {L.index[al] - L.index[be]}, need {need})")
    return problems


def validate_system(A: CoefficientSystem) -> list[str]:
    """Full structural validation; returns human-readable violations."""
    problems = [f"missing coefficient for {sigma}" for sigma in A.S
                if not A.has(sigma)]
    if problems:
        return problems
    problems = forbidden_blocks(A)
    # a vertex's residual is a(v)^2, reported once as the square
    for v in A.S.vertices():
        if not smat_is_zero(flatness_residual(A, v)):
            problems.append(f"vertex differential at {v} does not square to zero")
    for sigma in A.S:
        if dim(sigma) >= 1 and not smat_is_zero(flatness_residual(A, sigma)):
            problems.append(f"flatness residual nonzero at {sigma}")
    return problems


# ---------------------------------------------------------------------------
# cellular boundary operator
# ---------------------------------------------------------------------------

def cw_boundary(A: CoefficientSystem) -> tuple[SMat, dict]:
    """Cellular boundary of the system on generators (sigma, basis
    element), and the generators in order with their degree, leaf index
    plus cell dimension; the boundary lowers it by one.

    On a generator (sigma, e) with sigma of dimension k:

        d(sigma, e) = sum_j (-1)^j (facet_j, e)
                    + sum_j (-1)^(k(j-1)) (sigma_{j..k}, e * a(sigma_{0..j}))

    where e * a pairs the generator with the rows of the coefficient
    matrix: row (sigma, e) of the SMat holds d(sigma, e), the transpose
    action.
    """
    degrees = {(sigma, b): A.L.deg[b] + dim(sigma)
               for sigma in A.S for b in A.L.basis}
    matrix: dict = {}
    for sigma in A.S:
        k = dim(sigma)
        for b in A.L.basis:
            acc: dict = {}
            if k >= 1:
                for sgn, f in boundary_chain(sigma):
                    acc[(f, b)] = sgn  # the facets are distinct
            for j in range(k + 1):
                sgn = parity_sign(k * (j - 1))
                left = A.a(sigma[: j + 1])
                tail = sigma[j:]
                row = left.get(b)
                if not row:
                    continue
                for col, v in row.items():
                    g = (tail, col)
                    s = acc.get(g)
                    if s is None:
                        acc[g] = sgn * v
                    elif s := s + sgn * v:
                        acc[g] = s
                    else:
                        del acc[g]
            if acc:
                matrix[(sigma, b)] = acc
    return matrix, degrees


def cw_homology(matrix: SMat, degrees: dict) -> dict[int, int]:
    """The nonzero Betti numbers of the cellular complex with boundary
    ``matrix`` on generators of ``degrees`` (see ``cw_boundary``)."""
    h = Homology(matrix, degrees, "boundary {}, e.g. on generator {}")
    return {q: b for q, b in h.betti.items() if b}


# ---------------------------------------------------------------------------
# completion by exact linear solving
# ---------------------------------------------------------------------------

def extend_system(A: CoefficientSystem) -> CoefficientSystem:
    """Fill in missing coefficients, lowest dimension first.

    For each missing k-simplex the flatness equation

        (-1)^k a(sigma_0) X + X a(sigma_k) + K = 0

    is solved for X over the allowed blocks, where K collects the facet
    sum and the interior splitting products.  The solve is deterministic
    (fixed variable order, free variables zero).  Raises ``CheckFailed``
    naming the simplex when no solution exists or a required face is
    absent.
    """
    out = A.copy()
    for sigma in out.S:
        if out.has(sigma):
            continue
        if dim(sigma) == 0:
            raise CheckFailed(
                f"vertex differential at {sigma} must be given")
        _solve_one(out, sigma)
    return out


def flatness_equation(A: CoefficientSystem, sigma: Simplex):
    """The part of the flatness equation of ``sigma`` linear in a(sigma).

    Returns the unknowns, one (row, column) entry per position in the
    allowed blocks of a(sigma), and the matrix of
    (-1)^k a(sigma_0) X + X a(sigma_k) as {(r, c): {unknown: coefficient}},
    one row per matrix position the product can reach.
    """
    k = dim(sigma)
    a0 = A.a(sigma[:1])
    ak = A.a(sigma[-1:])
    s0 = parity_sign(k)
    unknowns = list(block_entries(A.L, allowed_blocks(A.L, sigma, 1 - k)))
    rows: SMat = {}

    def add(rc, u, v):
        if v == 0:
            return
        row = rows.setdefault(rc, {})
        w = row.get(u, 0) + v
        if w == 0:
            row.pop(u, None)
        else:
            row[u] = w

    for u in unknowns:
        p, q = u
        # s0 * a0 X: entry (r, q) gains s0*a0[r, p]
        for r, row in a0.items():
            v = row.get(p)
            if v:
                add((r, q), u, s0 * v)
        # X ak: entry (p, c) gains ak[q, c]
        for c, v in ak.get(q, {}).items():
            add((p, c), u, v)
    return unknowns, rows


def _solve_one(A: CoefficientSystem, sigma: Simplex):
    # with a(sigma) zero the residual is the part of the flatness
    # equation that does not involve a(sigma)
    A.set(sigma, {})
    K = flatness_residual(A, sigma)
    unknowns, rows = flatness_equation(A, sigma)
    rhs = {(r, c): -v for r, c, v in smat_entries(K)}
    [x] = solve(rows, unknowns, [rhs])
    if x is None:
        raise CheckFailed(
            f"no flat completion over the allowed blocks of {sigma}")
    X = {}
    for (r, c), v in x.items():
        smat_set(X, r, c, v)
    A.set(sigma, X)


# ---------------------------------------------------------------------------
# higher homotopy export
# ---------------------------------------------------------------------------

def igusa_export(A: CoefficientSystem, sigma: Simplex) -> dict[tuple, SMat]:
    """Reindex the coefficients on the faces of ``sigma`` with the
    staircase sign (-1)^(k(k-1)/2), by strictly increasing tuple of
    vertex positions (v_0, ..., v_k), shortest first; any other tuple
    is zero by convention."""
    sigma = A.S.require(sigma)
    n = dim(sigma)
    e: dict[tuple, SMat] = {}
    for size in range(1, n + 2):
        for tup in combinations(range(n + 1), size):
            k = size - 1
            f = face(sigma, tup)
            e[tup] = smat_add({}, A.a(f), parity_sign(k * (k - 1) // 2))
    return e


def igusa_check(e: dict[tuple, SMat]) -> list[tuple]:
    """All defining relations of the reindexed system ``e`` (see
    ``igusa_export``); returns the violators in the order of ``e``.

    For every increasing tuple (v_0..v_k) the signed sum

        sum_j (-1)^j [ e(v_0..v_j) e(v_j..v_k) - e(v_0..v̂_j..v_k) ]

    must vanish (tuples of length < 1 contribute zero).
    """
    bad = []
    for tup in e:
        total = {}
        for j in range(len(tup)):
            total = smat_add(total, smat_mul(e[tup[: j + 1]], e[tup[j:]]),
                             parity_sign(j))
            if omitted := tup[:j] + tup[j + 1:]:
                total = smat_add(total, e[omitted], -parity_sign(j))
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
    return smat_add(smat_identity(A.L.basis), A.a(edge))


def fiber_homology(A: CoefficientSystem, vertex: Simplex) -> Homology:
    """The homology of the fiber complex (V, a(v)) over the vertex
    simplex (v,), exact over Q."""
    return Homology(A.a(vertex), A.L.deg,
                    f"vertex differential at {vertex} {{}}")


def induced_on_homology(T: SMat, src: Homology, tgt: Homology
                        ) -> Optional[SMat]:
    """Matrix of the map induced by the chain map ``T`` on homology,
    keyed by representative index (rows in ``tgt``, columns in ``src``),
    or None when ``T`` takes a cycle to no cycle mod boundaries.
    """
    # row j of images is T applied to the j-th source representative
    images = smat_transpose(smat_mul(T, smat_transpose(dict(enumerate(src.reps)))))
    classes = tgt.classes(images)
    return None if classes is None else smat_transpose(classes)


def holonomy_verdicts(A: CoefficientSystem, H: dict, problems: list[str]
                      ) -> dict[Simplex, bool]:
    """Per triangle of the base, whether its holonomy on homology, the
    composite of the three induced edge transports around it, is the
    identity on the homology of its last fiber.

    ``H`` maps every corner of a triangle to its ``fiber_homology``.
    Each edge's induced map is built once, when a triangle first needs
    it.  With the transport along the long edge an isomorphism on
    homology, the holonomy M02^-1 M01 M12 is the identity exactly when
    M01 M12 = M02.  A flat system passes.  A transport that induces no
    map on homology, or a long edge whose map is not invertible, gives
    a certificate naming the triangle and the edge.  A failed triangle
    appends its certificate to ``problems`` before the next triangle is
    tried, so a ``CheckFailed`` raised later (an edge without its
    coefficient) leaves the earlier certificates in place.
    """
    M: dict[Simplex, Optional[SMat]] = {}
    verdicts = {}
    for tri in A.S.of_dim(2):
        v0, v1, v2 = tri
        problem = None
        for e in ((v1, v2), (v0, v1), (v0, v2)):
            if e not in M:
                M[e] = induced_on_homology(edge_transport(A, e),
                                           H[e[1:]], H[e[:1]])
            if M[e] is None:
                problem = (f"holonomy around {tri}: transport along {e}: "
                           f"image of a cycle is not a cycle mod boundaries")
                break
        else:
            n = len(H[(v2,)].reps)
            if len(H[(v0,)].reps) != n or rank(M[v0, v2], range(n)) != n:
                problem = (f"holonomy around {tri}: transport along "
                           f"{(v0, v2)} is not invertible on homology")
            elif smat_mul(M[v0, v1], M[v1, v2]) != M[v0, v2]:
                problem = f"holonomy around {tri} is not the identity"
        if problem is not None:
            problems.append(problem)
        verdicts[tri] = problem is None
    return verdicts


# ---------------------------------------------------------------------------
# fiber models
# ---------------------------------------------------------------------------

class FiberModel:
    """A fixed complex (omega basis, differential D) together with
    per-simplex comparison maps into the graded module.

    ``I`` maps each simplex to a constant matrix with rows in the module
    basis and columns in the omega basis; the map over a simplex has
    grading degree minus its dimension.  ``eta`` optionally tags each
    omega basis element with a rational height for locality checks.
    """

    def __init__(self, omega_basis: list, omega_degree: dict, D: SMat,
                 I: dict, eta: Optional[dict] = None):
        self.omega_basis = omega_basis
        self.omega_degree = omega_degree
        self.D = D
        self.I = I
        self.eta = eta

    def imap(self, sigma: Simplex) -> SMat:
        return self.I.get(tuple(sigma), {})

    def to_json(self) -> dict:
        key = _omega_key
        out = {
            "omega": [[e, self.omega_degree[e]] for e in self.omega_basis],
            "D": {key(r): {key(c): str(v) for c, v in sorted(row.items())}
                  for r, row in sorted(self.D.items())},
            "I": {skey(s): {
                    f"{al}:{i}": {key(e): str(v) for e, v in sorted(row.items())}
                    for (al, i), row in sorted(m.items())}
                  for s, m in sorted(self.I.items())},
        }
        if self.eta is not None:
            out["eta"] = {key(e): str(v) for e, v in sorted(self.eta.items())}
        return out

    @classmethod
    def from_json(cls, data: dict, A: CoefficientSystem,
                  read: Callable) -> "FiberModel":
        """The model in ``data`` over the system ``A``, its ``D`` and ``I``
        entries and its ``eta`` tags read with ``read`` (a ``qreader``):
        every simplex, module element and omega element it names must
        exist.  Zero entries of ``D`` and ``I`` are left out, as in every
        SMat."""
        qkeys(data, ("omega", "D", "I", "eta"), "the fiber model")
        omega = [(tuple(e) if isinstance(e, list) else e, qint(d))
                 for e, d in data["omega"]]
        by_key = {}
        for e, _ in omega:
            if _omega_key(e) in by_key:
                raise ValueError(f"omega element listed twice: {e}")
            by_key[_omega_key(e)] = e

        def name(k):
            if k not in by_key:
                raise ValueError(f"fiber model names {k}, not in omega")
            return by_key[k]

        if "eta" in data and set(data["eta"]) != set(by_key):
            raise ValueError("fiber model eta does not tag omega exactly")
        I = {}
        for key, m in data["I"].items():
            sigma = A.S.require(parse_skey(key))
            I[sigma] = {}
            for rkey, row in m.items():
                # the index is the decimal ``to_json`` writes, so that two
                # keys never name one row and leave the later to win
                al, i = rkey.rsplit(":", 1)
                element = (al, int(i))
                if str(element[1]) != i or element not in A.L.deg:
                    raise ValueError(
                        f"fiber model names {rkey}, not a module element")
                for e, v in row.items():
                    smat_set(I[sigma], element, name(e), read(v))
        D = {}
        for r, row in data["D"].items():
            r = name(r)
            for c, v in row.items():
                smat_set(D, r, name(c), read(v))
        return cls(
            omega_basis=[e for e, _ in omega],
            omega_degree=dict(omega),
            D=D,
            I=I,
            eta=({name(e): read(v) for e, v in data["eta"].items()}
                 if "eta" in data else None),
        )


def _omega_key(e) -> str:
    """JSON object key of an omega name: a string stays as it is, a tuple
    (the generated ``('w', leaf, i)``) becomes its JSON list."""
    return e if isinstance(e, str) else json.dumps(list(e))


def validate_fiber_model(A: CoefficientSystem, FM: FiberModel) -> list[str]:
    """Degree bookkeeping plus the full tower of comparison relations."""
    problems = []
    if not smat_is_zero(smat_mul(FM.D, FM.D)):
        problems.append("D does not square to zero")
    for r, c, _v in smat_entries(FM.D):
        if FM.omega_degree[r] != FM.omega_degree[c] + 1:
            problems.append(f"D entry {r}<-{c} is not of degree +1")
    deg = A.L.deg
    for sigma in A.S:
        m = dim(sigma)
        for r, c, _v in smat_entries(FM.imap(sigma)):
            if deg[r] - FM.omega_degree[c] != -m:
                problems.append(
                    f"I({sigma}) entry {r}<-{c} has degree "
                    f"{deg[r] - FM.omega_degree[c]}, want {-m}")
        if not smat_is_zero(_comparison_defect(A, FM, sigma)):
            problems.append(f"comparison relation fails over {sigma}")
    return problems


def _comparison_defect(A: CoefficientSystem, FM: FiberModel,
                       sigma: Simplex) -> SMat:
    """Left side of the comparison relation over ``sigma``, zero when it
    holds: ``relation`` with x = I plus (-1)^k I(sigma) D, or minus
    I(sigma) D at a vertex."""
    k = dim(sigma)
    d_term = smat_mul(FM.imap(sigma), FM.D)
    return smat_add(relation(A, sigma, FM.imap), d_term,
                    parity_sign(k) if k else -1)


def omega_betti(FM: FiberModel) -> dict[int, int]:
    """Betti numbers of (Omega, D), exact over Q, in every degree of
    Omega."""
    return Homology(FM.D, FM.omega_degree, "D {}").betti


def quasi_iso_ranks(A: CoefficientSystem, FM: FiberModel, H: dict) -> dict:
    """Per vertex: Betti numbers of the fiber complex against those of
    (Omega, D).  Per triangle: holonomy on homology is the identity.
    ``H`` maps every vertex simplex to its ``fiber_homology``.  The
    report holds the Betti numbers of (Omega, D) as ``omega``, the
    failed comparisons as ``problems`` and the ``holonomy_verdicts`` as
    ``triangles``.
    """
    betti_o = omega_betti(FM)
    report = {"omega": betti_o, "problems": []}
    for v in A.S.vertices():
        betti_v = {q: r for q, r in H[v].betti.items() if r}
        if betti_v != {q: r for q, r in betti_o.items() if r}:
            report["problems"].append(
                f"Betti numbers over {v} differ from the fiber complex: "
                f"{betti_v} vs {betti_o}")
    report["triangles"] = holonomy_verdicts(A, H, report["problems"])
    return report
