import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatforms.flatsys import (
    CoefficientSystem,
    FiberModel,
    validate_fiber_model,
)
from flatforms.forms import (
    ExtensionInfeasible,
    IncompatibleBoundaryData,
    PolyForm,
)
from flatforms.instances import (
    corrupt_random_entry,
    designed_instance,
    generate,
    make_fiber_model,
)
from flatforms.mixed import (
    ChainMapData,
    FormMatrix,
    NotNilpotent,
    build_Iprime,
    build_mixed_connection,
    check_bcoord_structure,
    check_value_coherence,
    intertwines,
    is_flat_connection,
    locality_check,
    neumann_inverse,
    solve_face_coords,
)
from flatforms.morse import LeafSystem
from flatforms.simplicial import EMPTY, build_complex, dim


def worked_edge():
    """Three rank-1 leaves over one edge, small enough to do by hand.

    The gauge data is a(v0): r -> q, a(v1): r -> q and p -> q, with the
    homotopy p -> r on the edge.  Conjugating a(v0) by id + x*(p -> r)
    gives the closed-form answer checked below.
    """
    S = build_complex([(0, 1)])
    L = LeafSystem(
        [("p", 0, 1), ("r", 0, 1), ("q", 1, 1)],
        {("p", 0): 0, ("p", 1): 0, ("r", 0): 3, ("r", 1): 3,
         ("q", 0): 6, ("q", 1): 6},
        1,
    )
    A = CoefficientSystem(S, L, {
        (0,): {("q", 0): {("r", 0): Q(1)}},
        (1,): {("q", 0): {("r", 0): Q(1), ("p", 0): Q(1)}},
        (0, 1): {("r", 0): {("p", 0): Q(1)}},
    })
    return A


def worked_edge_fiber():
    return FiberModel(
        omega_basis=["u", "w", "z"],
        omega_degree={"u": 0, "w": 0, "z": 1},
        D={"z": {"w": Q(1)}},
        I={
            (0,): {("p", 0): {"u": Q(1)}, ("r", 0): {"w": Q(1)},
                   ("q", 0): {"z": Q(1)}},
            (1,): {("p", 0): {"u": Q(1)},
                   ("r", 0): {"u": Q(-1), "w": Q(1)},
                   ("q", 0): {"z": Q(1)}},
            (0, 1): {},
        },
        eta={"u": 0, "w": 3, "z": 6},
    )


# --- form matrices ------------------------------------------------------


def random_matrix(rng, k, keys, deg, max_poly=2):
    fm = FormMatrix(k, deg)
    from itertools import combinations
    dx_choices = []
    for r in range(k + 1):
        dx_choices.extend(combinations(range(1, k + 1), r))
    for _ in range(rng.randrange(1, 7)):
        r = rng.choice(keys)
        c = rng.choice(keys)
        exps = tuple(rng.randrange(0, max_poly + 1) for _ in range(k))
        dxs = rng.choice(dx_choices)
        p = fm.entry(r, c) + PolyForm(k, {(exps, dxs): Q(rng.randrange(-3, 4))})
        fm.set_entry(r, c, p)
    return fm


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_compose_is_associative(seed):
    rng = random.Random(seed)
    k = rng.randrange(1, 3)
    keys = ["a", "b", "c"]
    deg = {"a": 0, "b": 1, "c": 2}
    x = random_matrix(rng, k, keys, deg)
    y = random_matrix(rng, k, keys, deg)
    z = random_matrix(rng, k, keys, deg)
    assert x.compose(y).compose(z).eq(x.compose(y.compose(z)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_identity_is_neutral(seed):
    rng = random.Random(seed)
    keys = ["a", "b"]
    deg = {"a": 0, "b": 2}
    x = random_matrix(rng, 2, keys, deg)
    e = FormMatrix.identity(2, deg)
    assert x.compose(e).eq(x) and e.compose(x).eq(x)


def test_compose_restrict_commute():
    rng = random.Random(7)
    keys = ["a", "b", "c"]
    deg = {"a": 0, "b": 1, "c": 3}
    x = random_matrix(rng, 2, keys, deg)
    y = random_matrix(rng, 2, keys, deg)
    pos = (0, 2)
    assert x.compose(y).restrict(pos).eq(x.restrict(pos).compose(y.restrict(pos)))


def test_neumann_inverse_of_unipotent():
    keys = ["a", "b", "c"]
    deg = {"a": 0, "b": 0, "c": 0}
    n = FormMatrix(1, deg)
    n.set_entry("b", "a", PolyForm.coordinate(1, 1))
    n.set_entry("c", "b", PolyForm.dx(1, 1))
    ginv = neumann_inverse(n, max_len=6)
    g = FormMatrix.identity(1, deg).add(n)
    assert g.compose(ginv).eq(FormMatrix.identity(1, deg))
    assert ginv.compose(g).eq(FormMatrix.identity(1, deg))


def test_neumann_rejects_non_nilpotent():
    keys = ["a"]
    deg = {"a": 0}
    n = FormMatrix(1, deg)
    n.set_entry("a", "a", PolyForm.one(1))
    with pytest.raises(NotNilpotent):
        neumann_inverse(n, max_len=8)


# --- the connection on the worked example -------------------------------


def test_worked_edge_closed_form():
    A = worked_edge()
    data = build_mixed_connection(A)
    assert data.problems == []
    ap = data.get((0, 1), EMPTY)
    x = PolyForm.coordinate(1, 1)
    assert (ap.entry(("q", 0), ("r", 0)) - PolyForm.one(1)).is_zero()
    assert (ap.entry(("q", 0), ("p", 0)) - x).is_zero()
    assert (ap.entry(("r", 0), ("p", 0)) - PolyForm.dx(1, 1)).is_zero()
    assert len(list(ap.entries())) == 3
    assert is_flat_connection(ap)


def test_vanishing_on_own_face():
    A = worked_edge()
    data = build_mixed_connection(A)
    assert data.problems == []
    for sigma in A.S:
        assert data.get(sigma, sigma).is_zero()


def test_vertex_empty_face_is_constant():
    A = worked_edge()
    data = build_mixed_connection(A)
    assert data.problems == []
    got = data.get((0,), EMPTY)
    want = FormMatrix.from_const(0, A.a((0,)), A.M.deg)
    assert got.eq(want)


def test_connection_detects_corrupted_input():
    # per simplex: structure over every face, then coherence, then the
    # flatness or chain identity
    A = worked_edge()
    A.set((0, 1), {("r", 0): {("p", 0): Q(1)}, ("q", 0): {("p", 0): Q(5)}})
    data = build_mixed_connection(A)
    structure = [
        "0,1: a'((0, 1),()): block q<-p not homogeneous of form degree 0",
        "0,1: a'((0, 1),(0,)): block q<-p not homogeneous of form degree -1"]
    assert data.problems == structure
    A.coeffs[(0,)][("q", 0)][("r", 0)] = Q(2)
    data = build_mixed_connection(A)
    assert data.problems == structure + [
        "0,1: a'((0, 1),()) does not restrict to a'((1,),())"]
    cm = build_Iprime(data, worked_edge_fiber())
    assert cm.problems == [
        "0: chain identity fails",
        "0,1: I'((0, 1),()): no triangular face decomposition",
        "0,1: I'((0, 1),()) does not restrict to I'((1,),())",
        "0,1: chain identity fails"]
    inst = designed_instance(27, [(0, 1, 2)])
    bad, _desc = corrupt_random_entry(random.Random(1), inst.A)
    assert build_mixed_connection(bad).problems == [
        "0: connection is not flat",
        "0,1: a'((0, 1),()) does not restrict to a'((1,),())",
        "0,1: connection is not flat",
        "0,2: a'((0, 2),()) does not restrict to a'((2,),())",
        "0,2: connection is not flat",
        "0,1,2: a'((0, 1, 2),()) does not restrict to a'((1, 2),())",
        "0,1,2: connection is not flat"]


def test_build_reports_corrupted_vertex():
    A = worked_edge()
    A.coeffs[(0,)][("q", 0)][("r", 0)] = Q(2)
    data = build_mixed_connection(A)
    assert data.problems == [
        "0,1: a'((0, 1),()) does not restrict to a'((1,),())"]


def test_recursion_clash_names_simplex_segment_facet_and_entry():
    inst = generate(3, max_dim=2, need_triangle=True)
    bad, _desc = corrupt_random_entry(random.Random(3), inst.A)
    with pytest.raises(IncompatibleBoundaryData) as ei:
        build_mixed_connection(bad)
    assert str(ei.value) == (
        "(0, 2, 3), segment (0,): the recursion value clashes with "
        "the data on (0, 3) at entry ('e', 0)<-('d', 0)")


def test_generated_instances_connection_sweep():
    for seed in range(8):
        inst = generate(seed, max_dim=2)
        data = build_mixed_connection(inst.A)
        assert data.problems == []


def test_stores_hold_one_value_per_initial_segment():
    # (sigma, sigma[:k]) for k = 0..dim+1; every other face reads its owner
    for seed in range(40):
        inst = generate(seed)
        data = build_mixed_connection(inst.A)
        want = sum(dim(sigma) + 2 for sigma in inst.A.S)
        assert len(data.aprime) == want, seed
        if not inst.enriched:
            cm = build_Iprime(data, make_fiber_model(inst))
            assert len(cm.values) == want, seed
    tri = (0, 1, 2)
    data = build_mixed_connection(designed_instance(0, [tri]).A)
    assert data.get(tri, (1,)) is data.get((1, 2), (1,))
    assert data.get(tri, (0, 2)) is data.get((0, 2), (0, 2))


def test_connection_on_tetrahedron():
    inst = designed_instance(2, [(0, 1, 2, 3)])
    data = build_mixed_connection(inst.A)
    assert data.problems == []
    assert is_flat_connection(data.get((0, 1, 2, 3), EMPTY))
    assert not check_value_coherence(data.aprime, "a'", (0, 1, 2, 3), EMPTY)


def test_total_degree_bookkeeping():
    inst = generate(1, max_dim=2, need_triangle=True)
    data = build_mixed_connection(inst.A)
    assert data.problems == []
    M = inst.A.M
    for (sigma, sigma_p), fm in data.aprime.items():
        kk = len(sigma_p)
        for r, c, p, _e in fm.entries():
            for f in p.form_degrees():
                assert f + M.degree(r) - M.degree(c) == 1 - kk


# --- fiber models and the chain map --------------------------------------


def test_worked_edge_chain_map():
    A = worked_edge()
    FM = worked_edge_fiber()
    assert not validate_fiber_model(A, FM)
    data = build_mixed_connection(A)
    cm = build_Iprime(data, FM)
    assert data.problems + cm.problems == []
    val = cm.value((0, 1), EMPTY)
    x = PolyForm.coordinate(1, 1)
    assert (val.entry(("p", 0), "u") - PolyForm.one(1)).is_zero()
    assert (val.entry(("q", 0), "z") - PolyForm.one(1)).is_zero()
    assert (val.entry(("r", 0), "u") + x).is_zero()
    assert (val.entry(("r", 0), "w") - PolyForm.one(1)).is_zero()
    assert intertwines(val, data.get((0, 1), EMPTY), FM.D)
    assert locality_check(data, cm) == []


def test_validate_fiber_model_rejects_broken_differential():
    A = worked_edge()
    FM = worked_edge_fiber()
    FM.D["w"] = {"u": Q(1)}  # now D.D sends z to u
    assert any("square" in p for p in validate_fiber_model(A, FM))


def test_validate_fiber_model_rejects_broken_comparison():
    A = worked_edge()
    FM = worked_edge_fiber()
    FM.I[(1,)][("r", 0)]["u"] = Q(2)
    probs = validate_fiber_model(A, FM)
    assert any("comparison" in p for p in probs)


def test_chain_map_sweep_dim2():
    for seed in range(8):
        inst = generate(seed, max_dim=2, enrich=False)
        data = build_mixed_connection(inst.A)
        FM = make_fiber_model(inst)
        cm = build_Iprime(data, FM)
        assert data.problems + cm.problems == []
        assert locality_check(data, cm) == []


def test_chain_map_on_tetrahedron():
    inst = designed_instance(0, [(0, 1, 2, 3)])
    data = build_mixed_connection(inst.A)
    FM = make_fiber_model(inst)
    cm = build_Iprime(data, FM)
    assert data.problems + cm.problems == []
    tet = (0, 1, 2, 3)
    assert intertwines(cm.value(tet, EMPTY), data.get(tet, EMPTY), FM.D)
    assert locality_check(data, cm) == []


def test_enriched_instance_has_no_canned_model():
    inst = generate(26)
    assert inst.enriched
    with pytest.raises(ValueError):
        make_fiber_model(inst)
    # the connection side does not care where the system came from
    data = build_mixed_connection(inst.A)
    assert data.problems == []


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_stored_values_are_polynomial(seed):
    """Every stored a'/I' value is over Q = 1 with every exponent 0."""
    inst = generate(seed)
    data = build_mixed_connection(inst.A)
    cm = build_Iprime(data, make_fiber_model(inst))
    assert data.problems + cm.problems == []
    for fm in [*data.aprime.values(), *cm.values.values()]:
        assert fm.den == PolyForm.one(fm.k)
        assert [e for *_rcp, e in fm.entries() if e] == []


def test_solve_face_coords_roundtrip():
    inst = generate(2, max_dim=2, need_triangle=True, enrich=False)
    data = build_mixed_connection(inst.A)
    FM = make_fiber_model(inst)
    cm = build_Iprime(data, FM)
    assert data.problems + cm.problems == []
    tri = [s for s in inst.A.S if dim(s) == 2][0]
    val = cm.value(tri, EMPTY)
    bd = solve_face_coords(inst.A, FM, tri, EMPTY, val)
    total = FormMatrix(dim(tri), val.deg)
    for s2, fm in bd.items():
        total = total.add(fm.mul_const_right(FM.imap(s2)))
    assert total.eq(val)


def test_solve_face_coords_infeasible_value():
    A = worked_edge()
    FM = worked_edge_fiber()
    bad = FormMatrix(1, A.M.deg)
    # a map raising from the top leaf downward cannot be triangular
    bad.set_entry(("p", 0), "z", PolyForm.one(1))
    with pytest.raises(ExtensionInfeasible):
        solve_face_coords(A, FM, (0, 1), EMPTY, bad)


def test_missing_face_decomposition_is_a_structure_problem():
    A = worked_edge()
    FM = worked_edge_fiber()
    bad = FormMatrix(1, A.M.deg)
    bad.set_entry(("p", 0), "z", PolyForm.one(1))
    cm = ChainMapData(A=A, FM=FM)
    cm.values[((0, 1), EMPTY)] = bad
    assert check_bcoord_structure(cm, (0, 1), EMPTY) == [
        "I'((0, 1),()): no triangular face decomposition"]
    assert cm.coords((0, 1), EMPTY) is None


def test_locality_flags_injected_mass():
    A = worked_edge()
    FM = worked_edge_fiber()
    data = build_mixed_connection(A)
    cm = build_Iprime(data, FM)
    assert data.problems + cm.problems == []
    # the q row reaching z: z sits at the height of q, so it is tagged
    val = cm.value((0, 1), (0,))
    val.set_entry(("q", 0), "z", val.entry(("q", 0), "z") + PolyForm.one(1))
    probs = locality_check(data, cm)
    assert probs == ["I'((0, 1),(0,)) rows of q hit tagged element z"]


def test_locality_tags_need_every_vertex():
    """An element is tagged for a leaf over sigma only when its tag sits
    above h - eps^2 at every vertex of sigma.  With q raised to height 7
    at vertex 1, z (tag 6) is tagged for q over vertex 0 only, so the q
    rows may reach z on the edge but not at vertex 0."""
    A = worked_edge()
    A.L.heights[("q", 1)] = Q(7)
    FM = worked_edge_fiber()
    data = build_mixed_connection(A)
    cm = build_Iprime(data, FM)
    assert data.problems + cm.problems == []
    for key in [((0, 1), (0,)), ((0,), EMPTY)]:
        val = cm.values[key]
        val.set_entry(("q", 0), "z",
                      val.entry(("q", 0), "z") + PolyForm.one(val.k))
    assert locality_check(data, cm) == [
        "I'((0,),empty) rows of q at tagged element z exceed the vertex "
        "diagonal"]


def test_locality_requires_tags():
    A = worked_edge()
    FM = worked_edge_fiber()
    FM.eta = None
    data = build_mixed_connection(A)
    cm = build_Iprime(data, FM)
    assert data.problems + cm.problems == []
    with pytest.raises(ValueError):
        locality_check(data, cm)
