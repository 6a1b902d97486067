import random
import re
from fractions import Fraction as Q
from itertools import combinations

import pytest

from flatforms import flatsys
from flatforms.flatsys import (
    CoefficientSystem,
    cw_boundary,
    cw_homology,
    edge_transport,
    extend_system,
    fiber_homology,
    flatness_residual,
    holonomy_verdicts,
    igusa_check,
    igusa_export,
    induced_on_homology,
    omega_betti,
    validate_fiber_model,
    validate_system,
)
from flatforms.instances import (
    corrupt_random_entry,
    generate,
    instance_from_json,
    instance_to_json,
    make_fiber_model,
    strip_to_dim,
)
from flatforms.linalg import (
    CheckFailed,
    apply_operator,
    qreader,
    smat_add,
    smat_identity,
    smat_is_zero,
    smat_mul,
    smat_set,
    smat_transpose,
    solution_operator,
)
from flatforms.morse import LeafSystem
from flatforms.simplicial import BaseComplex


def tiny_system(a_e=None):
    """Two rank-1 leaves p (deg 0) and q (deg 1) over a single edge."""
    S = BaseComplex([(0, 1)])
    L = LeafSystem(
        [("p", 0, 1), ("q", 1, 1)],
        {("p", 0): 0, ("p", 1): 0, ("q", 0): 3, ("q", 1): 3},
        1,
    )
    A = CoefficientSystem(S, L)
    E = {}
    smat_set(E, ("q", 0), ("p", 0), 1)
    A.set((0,), E)
    A.set((1,), E)
    if a_e is not None:
        A.set((0, 1), a_e)
    return S, L, A


def test_vertex_residual_is_square():
    _, _, A = tiny_system(a_e={})
    r = flatness_residual(A, (0,))
    assert smat_is_zero(r)  # E^2 = 0



def test_vertex_that_does_not_square_to_zero_is_reported_once():
    # a(0) = q<-p + r<-q squares to r<-p; the vertex residual is that
    # square, so one certificate names it
    S = BaseComplex([(0,)])
    L = LeafSystem([("p", 0, 1), ("q", 1, 1), ("r", 2, 1)],
                   {("p", 0): 0, ("q", 0): 3, ("r", 0): 6}, 1)
    A = CoefficientSystem(S, L)
    A.set((0,), {("q", 0): {("p", 0): Q(1)}, ("r", 0): {("q", 0): Q(1)}})
    assert validate_system(A) == [
        "vertex differential at (0,) does not square to zero"]

def test_edge_residual_formula():
    # with a(e) = 0 and equal endpoint differentials the edge is flat
    _, _, A = tiny_system(a_e={})
    assert smat_is_zero(flatness_residual(A, (0, 1)))
    # a 0-degree edge entry on the only allowed block (none here) would be
    # forbidden, so perturb an endpoint instead: residual = a(v1) - a(v0)
    B = A.copy()
    B.set((1,), {})
    r = flatness_residual(B, (0, 1))
    assert not smat_is_zero(r)


def test_validate_system_on_designed_instance():
    inst = generate(3)
    assert validate_system(inst.A) == []
    assert all(smat_is_zero(flatness_residual(inst.A, s)) for s in inst.A.S)


def test_designed_instances_are_flat_sweep():
    for seed in range(20):
        inst = generate(seed)
        assert all(smat_is_zero(flatness_residual(inst.A, s))
                   for s in inst.A.S), f"seed {seed} not flat"


def test_extend_recovers_flatness_from_vertices():
    inst = generate(11, enrich=False)
    partial = strip_to_dim(inst.A, 0)
    full = extend_system(partial)
    assert validate_system(full) == []
    assert all(smat_is_zero(flatness_residual(full, s)) for s in full.S)


def test_extend_from_edges_preserves_given_data():
    inst = generate(12, enrich=False)
    partial = strip_to_dim(inst.A, 1)
    full = extend_system(partial)
    assert all(smat_is_zero(flatness_residual(full, s)) for s in full.S)
    for e in inst.S.of_dim(1):
        assert smat_is_zero(smat_add(full.a(e), inst.A.a(e), -1))


def test_extend_deterministic():
    inst = generate(13, enrich=False)
    partial = strip_to_dim(inst.A, 0)
    one = extend_system(partial)
    two = extend_system(partial)
    for s in inst.S:
        assert smat_is_zero(smat_add(one.a(s), two.a(s), -1))


def test_extend_missing_vertex_raises():
    inst = generate(5)
    partial = strip_to_dim(inst.A, 0)
    v = inst.S.vertices()[0]
    partial.coeffs.pop(v)
    with pytest.raises(CheckFailed,
                       match=rf"^vertex differential at \({v[0]},\) must be given$"):
        extend_system(partial)


def test_extend_infeasible_certificate():
    # endpoint fibers with different homology cannot be joined flatly
    S, L, A = tiny_system()
    A.set((1,), {})  # zero differential at vertex 1
    with pytest.raises(CheckFailed, match=r"^no flat completion over the "
                       r"allowed blocks of \(0, 1\)$"):
        extend_system(A)


def test_cw_boundary_signs_on_edge():
    _, _, A = tiny_system(a_e={})
    # make the edge coefficient nonzero on its allowed degree-0 blocks:
    # here no off-diagonal degree-0 block is allowed, so test signs with
    # the designed generator instead
    inst = generate(17, enrich=False)
    A = inst.A
    boundary, _ = cw_boundary(A)
    e = inst.S.of_dim(1)[0]
    b = A.L.basis[0]
    img = boundary.get((e, b), {})
    v0, v1 = (e[0],), (e[1],)
    # facet part: +(v1, b) - (v0, b)
    facet_part = img.get((v1, b), Q(0)) - img.get((v0, b), Q(0))
    a_e_bb = A.a(e).get(b, {}).get(b, Q(0))
    a_v0_bb = A.a(v0).get(b, {}).get(b, Q(0))
    assert img.get((v1, b), Q(0)) == 1 + a_e_bb  # +1 facet, + row entry of a(e)
    assert img.get((v0, b), Q(0)) == -1
    assert img.get((e, b), Q(0)) == -a_v0_bb  # -(e, b·a(v0)) diagonal part


def test_cw_squares_to_zero_iff_flat():
    rng = random.Random(99)
    for seed in range(8):
        inst = generate(seed)
        d, _ = cw_boundary(inst.A)
        assert smat_mul(d, d) == {}
        corrupted = None
        for _ in range(40):
            got = corrupt_random_entry(rng, inst.A)
            if got is None:
                break
            cand, info = got
            if not all(smat_is_zero(flatness_residual(cand, s)) for s in cand.S):
                corrupted = cand
                break
        if corrupted is not None:
            d, degrees = cw_boundary(corrupted)
            assert smat_mul(d, d) != {}
            with pytest.raises(CheckFailed, match="^boundary does not "
                               "square to zero, e.g. on generator "):
                cw_homology(d, degrees)


def test_cw_homology_gauge_invariant():
    inst = generate(23, enrich=False)
    # the same pairing differential without any gauging: a(v) = D0,
    # edges zero, higher zero
    flat0 = CoefficientSystem(inst.S, inst.L)
    for v in inst.S.vertices():
        flat0.set(v, {r: dict(row) for r, row in inst.D0.items()})
    for k in range(1, inst.S.dim + 1):
        for s in inst.S.of_dim(k):
            flat0.set(s, {})
    assert all(smat_is_zero(flatness_residual(flat0, s)) for s in flat0.S)
    assert (cw_homology(*cw_boundary(inst.A))
            == cw_homology(*cw_boundary(flat0)))


def test_igusa_export_passes_on_flat_and_detects_corruption():
    rng = random.Random(4)
    inst = generate(21)
    top = max(inst.S, key=len)
    ig = igusa_export(inst.A, top)
    assert igusa_check(ig) == []
    from flatforms.simplicial import all_faces
    from flatforms.flatsys import flatness_residual as fr
    faces_of_top = set(all_faces(top))
    hit = False
    for _ in range(200):
        got = corrupt_random_entry(rng, inst.A)
        if got is None:
            break
        cand, _info = got
        if any(not smat_is_zero(fr(cand, f)) for f in faces_of_top):
            ig_bad = igusa_export(cand, top)
            assert igusa_check(ig_bad) != []
            hit = True
            break
    assert hit, "no corruption touched the exported simplex"


def test_igusa_staircase_sign():
    inst = generate(2)
    top = max(inst.S, key=len)
    ig = igusa_export(inst.A, top)
    n = len(top) - 1
    # singletons carry + sign, pairs carry +, triples carry -(k=2: k(k-1)/2 = 1)
    assert smat_is_zero(smat_add(ig[(0,)], inst.A.a(top[:1]), -1))
    if n >= 2:
        tri = tuple(range(3))
        assert smat_is_zero(smat_add(ig[tri], inst.A.a(top[:3])))


def test_edge_transport_and_holonomy_identity():
    for seed in (6, 7, 8):
        inst = generate(seed, need_triangle=True)
        tris = inst.S.of_dim(2)
        if not tris:
            continue
        H = {v: fiber_homology(inst.A, v) for v in inst.S.vertices()}
        problems = []
        assert holonomy_verdicts(inst.A, H, problems) == dict.fromkeys(
            tris, True)
        assert problems == []
        for tri in tris[:2]:
            # the holonomy X = M02^-1 M01 M12, solved from M02 X = M01 M12
            v0, v1, v2 = tri
            M = {e: induced_on_homology(edge_transport(inst.A, e),
                                        H[(e[1],)], H[(e[0],)])
                 for e in ((v0, v1), (v1, v2), (v0, v2))}
            n = len(H[(v2,)].reps)
            rhs = smat_transpose(smat_mul(M[v0, v1], M[v1, v2]))
            op = solution_operator(M[v0, v2], range(n))
            sols = [apply_operator(op, rhs.get(j, {})) for j in range(n)]
            hol = smat_transpose(dict(enumerate(sols)))
            assert hol == smat_identity(range(n))


def test_holonomy_builds_each_edge_map_once(monkeypatch):
    """Over generate(0..39) the triangles ask 396 times for the induced
    maps of their 243 distinct edges; each is built once."""
    calls = []

    def counted(T, src, tgt):
        calls.append(1)
        return induced_on_homology(T, src, tgt)

    monkeypatch.setattr(flatsys, "induced_on_homology", counted)
    edges = uses = 0
    for n in range(40):
        A = generate(n).A
        tris = A.S.of_dim(2)
        H = {v: fiber_homology(A, v) for v in A.S.vertices()}
        before = len(calls)
        assert all(holonomy_verdicts(A, H, []).values())
        assert len(calls) - before == len(
            {e for tri in tris for e in combinations(tri, 2)})
        edges += len(calls) - before
        uses += 3 * len(tris)
    assert (edges, uses) == (243, 396)


def test_transport_is_chain_map():
    inst = generate(9)
    for e in inst.S.of_dim(1):
        T = edge_transport(inst.A, e)
        lhs = smat_mul(inst.A.a(e[:1]), T)
        rhs = smat_mul(T, inst.A.a(e[1:]))
        assert smat_is_zero(smat_add(lhs, rhs, -1))


def test_fiber_homology_betti_match_across_vertices():
    # all fibers of a designed system are conjugate, so Betti data agree
    inst = generate(14)
    bettis = [fiber_homology(inst.A, v).betti for v in inst.S.vertices()]
    assert all(b == bettis[0] for b in bettis)


def test_json_roundtrip_instance():
    inst = generate(31)
    data = instance_to_json(inst.S, inst.L, inst.A)
    S2, L2, A2 = instance_from_json(data, qreader())
    assert [s for s in S2] == [s for s in inst.S]
    assert L2.index == inst.L.index and L2.rank == inst.L.rank
    for s in inst.S:
        assert smat_is_zero(smat_add(A2.a(s), inst.A.a(s), -1))


def test_generation_deterministic():
    a = instance_to_json(*(lambda i: (i.S, i.L, i.A))(generate(42)))
    b = instance_to_json(*(lambda i: (i.S, i.L, i.A))(generate(42)))
    assert a == b


def test_fiber_model_faults_of_D_are_homology_refusals():
    """A D with an entry off degree +1 that also fails to square: the
    fiber model check lists the degree fault and then the square, each
    as ``Homology`` words it, and ``Homology`` stops at the first."""
    inst = generate(3)
    FM = make_fiber_model(inst)
    smat_set(FM.D, ("w", "a", 0), ("w", "e", 0), 5)
    for row, col in ((("w", "c", 0), ("w", "b", 0)),
                     (("w", "b", 0), ("w", "a", 0))):
        smat_set(FM.D, row, col, FM.D.get(row, {}).get(col, 0) + 1)
    entry = "D entry ('w', 'a', 0)<-('w', 'e', 0) is not of degree +1"
    problems = validate_fiber_model(inst.A, FM)
    assert problems[:2] == [entry, "D does not square to zero"]
    with pytest.raises(CheckFailed, match=re.escape(entry)):
        omega_betti(FM)
