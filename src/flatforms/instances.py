"""Seeded random instances: base complexes, leaf data, flat systems.

The generator builds systems that are flat by construction: a common
nilpotent degree-one pairing matrix is conjugated by per-vertex
unipotent matrices, edges carry the resulting transition matrices, and
all higher coefficients vanish.  Leaf heights are arranged in well
separated levels so every cross-level block is allowed over every
simplex, which keeps the designed data inside the allowed-block
constraint and makes completion by the exact solver feasible.

An optional enrichment step perturbs an edge inside the kernel of its
flatness equation and retries the completion of the higher simplices,
falling back to the unperturbed system when that turns infeasible.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable

from .flatsys import (
    CoefficientSystem,
    FiberModel,
    extend_system,
    flatness_equation,
)
from .linalg import (
    CheckFailed,
    Q,
    SMat,
    kernel,
    qint,
    smat_add,
    smat_identity,
    smat_mul,
    smat_set,
    smat_transpose,
    solution_operator,
)
from .morse import LeafSystem, allowed_blocks, block_entries
from .simplicial import BaseComplex, Simplex, dim, parse_skey

LEAF_NAMES = ["a", "b", "c", "d", "e", "f"]
# size caps of the generated instances: simplices of the base (faces
# included), leaves, and the rank of each leaf
MAX_SIMPLICES, MAX_LEAVES, MAX_RANK = 20, 6, 3


class Instance:
    def __init__(self, seed: int, S: BaseComplex, L: LeafSystem,
                 A: CoefficientSystem, U_inv: dict[int, SMat], D0: SMat,
                 enriched: bool = False):
        self.seed = seed
        self.S = S
        self.L = L
        self.A = A          # complete, flat by construction
        self.U_inv = U_inv  # per-vertex inverse of the unipotent gauge
        self.D0 = D0        # the common vertex differential before gauging
        # an edge was perturbed away from the pure gauge
        self.enriched = enriched


def _random_complex(rng: random.Random, max_dim: int,
                    need_triangle: bool) -> BaseComplex:
    nv = rng.randrange(3, 7)
    verts = list(range(nv))

    def closure_count(cands):
        faces: set[Simplex] = set()
        for s in cands:
            for size in range(1, len(s) + 1):
                faces.update(combinations(s, size))
        return len(faces)

    picked: list[Simplex] = []
    if need_triangle and max_dim >= 2 and nv >= 3:
        picked.append(tuple(sorted(rng.sample(verts, 3))))
    pool: list[Simplex] = []
    for size in range(2, max_dim + 2):
        pool.extend(combinations(verts, size))
    rng.shuffle(pool)
    for cand in pool:
        trial = picked + [cand]
        if closure_count(trial + [(v,) for v in verts]) <= MAX_SIMPLICES:
            picked.append(cand)
        if len(picked) > 6:
            break
    total = picked + [(v,) for v in verts]
    return BaseComplex(sorted(set(total), key=lambda s: (len(s), s)))


def _random_leaves(rng: random.Random, S: BaseComplex):
    n_leaves = rng.randrange(2, MAX_LEAVES + 1)
    names = LEAF_NAMES[:n_leaves]
    n_levels = rng.randrange(2, min(3, n_leaves) + 1)
    levels = {}
    for idx, name in enumerate(names):
        levels[name] = idx % n_levels if idx < n_levels else rng.randrange(n_levels)
    indices = {name: rng.randrange(0, 4) for name in names}
    # make sure some cross-level pair has consecutive grading degrees
    lv0 = [n for n in names if levels[n] == 0]
    lv1 = [n for n in names if levels[n] == 1]
    if lv0 and lv1:
        indices[lv1[0]] = indices[lv0[0]] + 1
    ranks = {name: rng.randrange(1, MAX_RANK + 1) for name in names}
    while sum(ranks.values()) > 12:
        big = max(ranks, key=lambda n: ranks[n])
        ranks[big] -= 1
    jitter_choices = [Q(0), Q(1, 16), Q(-1, 16), Q(1, 8), Q(-1, 8), Q(3, 16), Q(-3, 16)]
    heights = {}
    for name in names:
        base = Q(3 * levels[name]) + Q(rng.randrange(-2, 3), 16)
        for v in S.vertices():
            heights[(name, v[0])] = base + rng.choice(jitter_choices)
    leaves = [(name, indices[name], ranks[name]) for name in names]
    return LeafSystem(leaves, heights, 1), levels


def _design_system(rng: random.Random, S: BaseComplex, L: LeafSystem,
                   levels: dict[str, int]):
    def level_raising(degree):
        """The entries of the level-raising blocks of grading ``degree``."""
        return list(block_entries(L, [
            (al, be) for al in L.leaves for be in L.leaves
            if levels[al] > levels[be] and L.index[al] == L.index[be] + degree]))

    # pairing differential: disjoint source/target basis pairs, grading
    # degree +1
    cands = level_raising(1)
    rng.shuffle(cands)
    used = set()
    D0: SMat = {}
    for tgt, src in cands:
        if tgt in used or src in used:
            continue
        if rng.random() < 0.7:
            smat_set(D0, tgt, src, rng.choice([1, -1]))
            used.add(tgt)
            used.add(src)
    # per-vertex unipotent gauges: strictly level-raising, degree 0
    gauge_cands = level_raising(0)
    U: dict[int, SMat] = {}
    ident = smat_identity(L.basis)
    for v in S.vertices():
        m = {r: dict(row) for r, row in ident.items()}
        for tgt, src in gauge_cands:
            if rng.random() < 0.4:
                smat_set(m, tgt, src, rng.choice([1, -1, 2, -2]))
        U[v[0]] = m

    A = CoefficientSystem(S, L)
    inv = {}
    for v, u in U.items():
        # e_j . S solves U x = e_j, so S is the transpose of U^-1
        inv[v] = smat_transpose(solution_operator(u, L.basis)[0])
    for v in S.vertices():
        A.set(v, smat_mul(inv[v[0]], smat_mul(D0, U[v[0]])))
    for e in S.of_dim(1):
        T = smat_mul(inv[e[0]], U[e[1]])
        A.set(e, smat_add(T, ident, -1))
    for k in range(2, S.dim + 1):
        for s in S.of_dim(k):
            A.set(s, {})
    return A, inv, D0


def _kernel_perturbation(rng: random.Random, A: CoefficientSystem,
                         edge: Simplex) -> SMat | None:
    """A random element of the homogeneous edge equation's kernel."""
    unknowns, rows = flatness_equation(A, edge)
    combo: dict = {}
    for vec in kernel(rows, unknowns):
        c = rng.choice([0, 0, 1, -1])
        if c:
            for u, v in vec.items():
                combo[u] = combo.get(u, 0) + c * v
    Z: SMat = {}
    for u in unknowns:
        if combo.get(u):
            smat_set(Z, u[0], u[1], combo[u])
    return Z or None


def generate(seed: int, max_dim: int = 3, need_triangle: bool = False,
             enrich: bool = True) -> Instance:
    """Deterministic random instance for the given seed."""
    rng = random.Random(seed)
    S = _random_complex(rng, max_dim, need_triangle)
    L, levels = _random_leaves(rng, S)
    A, U_inv, D0 = _design_system(rng, S, L, levels)

    enriched = False
    if enrich and S.of_dim(1):
        edge = rng.choice(S.of_dim(1))
        Z = _kernel_perturbation(rng, A, edge)
        if Z is not None:
            trial = strip_to_dim(A, 1)
            trial.set(edge, smat_add(trial.a(edge), Z))
            try:
                trial = extend_system(trial)
                A = trial
                enriched = True
            except CheckFailed:
                pass
    return Instance(seed=seed, S=S, L=L, A=A, U_inv=U_inv, D0=D0,
                    enriched=enriched)


def designed_instance(seed: int, simplices) -> Instance:
    """Designed system over a complex given explicitly (no enrichment)."""
    rng = random.Random(seed)
    S = BaseComplex(simplices)
    L, levels = _random_leaves(rng, S)
    A, U_inv, D0 = _design_system(rng, S, L, levels)
    return Instance(seed=seed, S=S, L=L, A=A, U_inv=U_inv, D0=D0)


def strip_to_dim(A: CoefficientSystem, keep_dim: int) -> CoefficientSystem:
    """Copy of the system retaining only coefficients up to ``keep_dim``."""
    out = CoefficientSystem(A.S, A.L)
    for sigma, m in A.coeffs.items():
        if len(sigma) - 1 <= keep_dim:
            out.set(sigma, {r: dict(row) for r, row in m.items()})
    return out


def corrupt_random_entry(rng: random.Random, A: CoefficientSystem
                         ) -> tuple[CoefficientSystem, dict] | None:
    """Add a random nonzero value to one allowed entry of one coefficient.

    Returns the corrupted copy and a description, or None when no
    simplex has any allowed block.
    """
    options = [(sigma, r, c) for sigma in A.S
               for r, c in block_entries(
                   A.L, allowed_blocks(A.L, sigma, 1 - dim(sigma)))]
    if not options:
        return None
    sigma, r, c = rng.choice(options)
    delta = rng.choice([1, -1, 2, 3])
    out = A.copy()
    m = out.a(sigma)
    smat_set(m, r, c, m.get(r, {}).get(c, 0) + delta)
    return out, {"sigma": sigma, "row": r, "col": c, "delta": delta}


def make_fiber_model(inst: Instance):
    """Fiber data over a designed instance, correct by construction.

    The fiber complex is a relabelled copy of the module with the
    ungauged pairing differential; the comparison over a vertex is the
    inverse of that vertex's gauge, and higher simplices carry nothing.
    Every comparison relation then holds with both sides zero except at
    vertices, where it is the conjugation defining the system.  Tags are
    the minimal leaf heights, for locality checks.

    Only valid for instances whose coefficients are the pure gauge data;
    an enriched instance no longer matches its recorded gauges.
    """
    if inst.enriched:
        raise ValueError(
            "instance was enriched away from its gauge; no model available")

    L = inst.L
    rename = {b: ("w",) + b for b in L.basis}
    omega_basis = [rename[b] for b in L.basis]
    omega_degree = {rename[b]: L.deg[b] for b in L.basis}
    D = {rename[r]: {rename[c]: v for c, v in row.items()}
         for r, row in inst.D0.items()}
    I = {}
    for v in inst.A.S.vertices():
        I[v] = {r: {rename[c]: val for c, val in row.items()}
                for r, row in inst.U_inv[v[0]].items()}
    eta = {}
    for (leaf, i) in L.basis:
        eta[rename[(leaf, i)]] = min(
            L.height(leaf, v[0]) for v in inst.A.S.vertices())
    return FiberModel(omega_basis=omega_basis, omega_degree=omega_degree,
                      D=D, I=I, eta=eta)


# ---------------------------------------------------------------------------
# JSON instance files
# ---------------------------------------------------------------------------

def instance_to_json(S: BaseComplex, L: LeafSystem, A: CoefficientSystem | None
                     ) -> dict:
    data = {
        "complex": [list(s) for s in S.simplices],
        "leaves": [[name, L.index[name], L.rank[name]] for name in L.leaves],
        "epsilon": str(L.epsilon),
        "heights": {
            name: {str(v[0]): str(L.height(name, v[0])) for v in S.vertices()}
            for name in L.leaves
        },
    }
    if A is not None:
        data["coefficients"] = A.to_json()
    return data


def instance_from_json(data: dict, read: Callable):
    """The base, leaf system and coefficient system in ``data``, every
    height and entry read with ``read`` (a ``qreader``, which the load
    shares with the file's fiber model)."""
    S = BaseComplex([tuple(s) for s in data["complex"]])
    heights = {}
    for name, hv in data["heights"].items():
        for key, h in hv.items():
            vertex = parse_skey(key)
            if len(vertex) != 1:
                raise ValueError(f"height key {key!r} is not a vertex")
            heights[(name, vertex[0])] = read(h)
    L = LeafSystem([(n, qint(i), qint(r)) for n, i, r in data["leaves"]],
                   heights, data.get("epsilon", "1"))
    for leaf in L.leaves:
        for (v,) in S.vertices():
            if (leaf, v) not in L.heights:
                raise ValueError(f"no height for leaf {leaf!r} at vertex {v}")
    coeffs = data.get("coefficients", {})
    return S, L, CoefficientSystem.from_json(S, L, coeffs, read)
