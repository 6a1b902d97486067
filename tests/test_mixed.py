import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatforms import mixed
from flatforms.flatsys import (
    CoefficientSystem,
    FiberModel,
    validate_fiber_model,
)
from flatforms.forms import IncompatibleBoundaryData, PolyForm, Powers
from flatforms.instances import (
    corrupt_random_entry,
    designed_instance,
    generate,
    make_fiber_model,
)
from flatforms.mixed import (
    ChainMapData,
    FormMatrix,
    MixedConnectionData,
    build_Iprime,
    build_mixed_connection,
    check_bcoord_structure,
    check_structure,
    check_value_coherence,
    intertwines,
    is_flat_connection,
    locality_check,
    neumann_inverse,
    solve_face_coords,
)
from flatforms.linalg import (
    CheckFailed,
    apply_operator,
    smat_is_zero,
    smat_transpose,
    solution_operator,
)
from flatforms.morse import LeafSystem, prec
from flatforms.simplicial import EMPTY, BaseComplex, all_faces, dim


def worked_edge(q_at_1=6):
    """Three rank-1 leaves over one edge, small enough to do by hand.

    The gauge data is a(v0): r -> q, a(v1): r -> q and p -> q, with the
    homotopy p -> r on the edge.  Conjugating a(v0) by id + x*(p -> r)
    gives the closed-form answer checked below.  ``q_at_1`` is the
    height of q at vertex 1.
    """
    S = BaseComplex([(0, 1)])
    L = LeafSystem(
        [("p", 0, 1), ("r", 0, 1), ("q", 1, 1)],
        {("p", 0): 0, ("p", 1): 0, ("r", 0): 3, ("r", 1): 3,
         ("q", 0): 6, ("q", 1): q_at_1},
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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mul_const_left_is_composition_with_a_constant(seed):
    """Scaling entry by entry, with the Koszul sign of the block degree,
    is composition with the constant on the left: the same entries in
    the same order.  Degrees of both parities give odd blocks."""
    rng = random.Random(seed)
    k = rng.randrange(0, 3)
    keys = ["a", "b", "c", "e"]
    deg = {"a": 0, "b": 1, "c": 2, "e": 3}
    x = random_matrix(rng, k, keys, deg)
    m = {}
    for _ in range(rng.randrange(1, 6)):
        m.setdefault(rng.choice(keys), {})[rng.choice(keys)] = \
            Q(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))
    want = FormMatrix.from_const(k, m, deg).compose(x)
    got = x.mul_const_left(m)
    assert list(got.entries()) == list(want.entries())


# --- oracle: the kernels that wrote each entry through set_entry ----------

def reference_collect(x, parts):
    out = FormMatrix(x.k, x.deg, x.powers)
    for (r, c), by_e in parts.items():
        m = max(by_e)
        total = by_e.pop(m)
        for e, p in by_e.items():
            total = total + x._lift(p, e, m)
        out.set_entry(r, c, total, m)
    return out


def reference_add(x, y, sign):
    out = FormMatrix(x.k, x.deg, x.powers)
    out.rows = {r: dict(row) for r, row in x.rows.items()}
    for r, c, q, f in y.entries():
        if sign != 1:
            q = q.scale(sign)
        p, e = out.rows.get(r, {}).get(c, (None, f))
        if p is not None:
            m = max(e, f)
            q, f = x._lift(p, e, m) + x._lift(q, f, m), m
        out.set_entry(r, c, q, f)
    return out


def reference_d(x):
    out = FormMatrix(x.k, x.deg, x.powers)
    q, dq = x.powers.base, x.powers.d
    for r, c, p, e in x.entries():
        if e == 0:
            out.set_entry(r, c, p.d())
        else:
            out.set_entry(r, c, q.wedge(p.d()) - dq.scale(e).wedge(p), e + 1)
    return out


def reference_compose(x, y):
    parts = {}
    for r, row in x.rows.items():
        for t, (p, e) in row.items():
            for c, (q, f) in y.rows.get(t, {}).items():
                odd = (x.deg[r] - x.deg[t]) % 2
                prod = p.wedge(q.graded_involution() if odd else q)
                if not prod.is_zero():
                    by_e, ef = parts.setdefault((r, c), {}), e + f
                    by_e[ef] = by_e[ef] + prod if ef in by_e else prod
    return reference_collect(x, parts)


def reference_mul_const_right(x, m):
    parts = {}
    for r, row in x.rows.items():
        for t, (p, e) in row.items():
            for c, v in m.get(t, {}).items():
                by_e = parts.setdefault((r, c), {})
                by_e[e] = by_e[e] + p.scale(v) if e in by_e else p.scale(v)
    return reference_collect(x, parts)


def reference_restrict(x, positions):
    out = FormMatrix(len(positions) - 1, x.deg)
    for r, c, p, e in x.entries():
        out.set_entry(r, c, p.restrict(positions), e)
    return out


def layout(fm):
    """Every entry with its exponent and its terms, in storage order."""
    return [(r, c, list(p.terms.items()), e) for r, c, p, e in fm.entries()]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_row_kernels_match_the_per_entry_reference(seed, over_q):
    """``add`` (either sign), ``d``, ``compose``, ``mul_const_left`` and
    ``mul_const_right`` write the same entries, exponents and terms in
    the same order as writing each entry through ``set_entry``, over
    Q = 1 and over a nonconstant Q with mixed exponents, empty operands
    included; so does ``restrict`` over Q = 1.  The second summand
    cancels some entries of the first, and some rows in full."""
    rng = random.Random(seed)
    k = rng.randrange(1, 3)
    keys = ["a", "b", "c", "e"]
    deg = {"a": 0, "b": 1, "c": 2, "e": 3}
    powers = None
    if over_q:
        powers = Powers(PolyForm.one(k) + PolyForm.coordinate(k, 1))

    def draw():
        fm = FormMatrix(k, deg, powers)
        if rng.random() < 0.2:
            return fm
        for r, c, p, _e in random_matrix(rng, k, keys, deg).entries():
            fm.set_entry(r, c, p, rng.randrange(3) if over_q else 0)
        return fm

    x, y = draw(), draw()
    for r, c, p, e in list(x.entries()):
        if rng.random() < 0.5:
            y.set_entry(r, c, -p, e)
    m = {}
    for _ in range(rng.randrange(0, 5)):
        m.setdefault(rng.choice(keys), {})[rng.choice(keys)] = \
            Q(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))
    for sign in (1, -1):
        assert layout(x.add(y, sign)) == layout(reference_add(x, y, sign))
    assert layout(x.d()) == layout(reference_d(x))
    assert layout(x.compose(y)) == layout(reference_compose(x, y))
    assert layout(x.mul_const_right(m)) == \
        layout(reference_mul_const_right(x, m))
    if not over_q:
        assert layout(x.mul_const_left(m)) == layout(
            reference_compose(FormMatrix.from_const(k, m, deg), x))
        positions = tuple(sorted(rng.sample(range(k + 1), k)))
        assert layout(x.restrict(positions)) == \
            layout(reference_restrict(x, positions))


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
    with pytest.raises(CheckFailed, match="^geometric series did not "
                       "terminate within 9 steps$"):
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
    want = FormMatrix.from_const(0, A.a((0,)), A.L.deg)
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


def flipped_edge():
    """An edge whose index-1 leaf q sits below its index-0 leaf p, so
    the order allows the block p<-q and forbids q<-p."""
    S = BaseComplex([(0, 1)])
    L = LeafSystem([("p", 0, 1), ("q", 1, 1)],
                   {("p", 0): 6, ("p", 1): 6, ("q", 0): 0, ("q", 1): 0}, 1)
    return CoefficientSystem(S, L, {})


def test_structure_check_flags_a_block_against_the_order():
    """A constant q<-p on a vertex has the right form degree, 0, and is
    forbidden only by the order."""
    A = flipped_edge()
    fm = FormMatrix(0, A.L.deg)
    fm.set_entry(("q", 0), ("p", 0), PolyForm.one(0))
    data = MixedConnectionData(A=A, aprime={((0,), EMPTY): fm})
    assert check_structure(data, (0,), EMPTY) == [
        "a'((0,),()): block q<-p breaks triangularity"]


def test_structure_check_flags_a_form_degree_outside_the_window():
    """Over the edge at its face (0,) the window is 0..0; an allowed
    block p<-q homogeneous of its form degree 1 still lies outside."""
    A = flipped_edge()
    fm = FormMatrix(1, A.L.deg)
    fm.set_entry(("p", 0), ("q", 0), PolyForm.dx(1, 1))
    data = MixedConnectionData(A=A, aprime={((0, 1), (0,)): fm})
    assert check_structure(data, (0, 1), (0,)) == [
        "a'((0, 1),(0,)): form degree 1 outside 0..0"]


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


class Forgetful(dict):
    """A memo that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def test_each_build_extends_each_distinct_datum_once(monkeypatch):
    """Over the a' builds of generate(0..39), ``extend_from_boundary``
    runs once per distinct (dimension, facet data) of a build: 275
    calls, where extending every entry took 674.  Every stored a' value
    is the one extending every entry gives."""
    calls = []
    extend = mixed.extend_from_boundary
    monkeypatch.setattr(mixed, "extend_from_boundary",
                        lambda k, data: calls.append(k) or extend(k, data))
    systems = [generate(seed).A for seed in range(40)]
    built = [build_mixed_connection(A).aprime for A in systems]
    assert len(calls) == 275
    span = mixed.extend_span
    monkeypatch.setattr(mixed, "extend_span",
                        lambda store, sigma, k, candidate, _extensions:
                        span(store, sigma, k, candidate, Forgetful()))
    calls.clear()
    for A, store in zip(systems, built):
        want = build_mixed_connection(A).aprime
        assert store.keys() == want.keys()
        assert all(layout(store[key]) == layout(want[key]) for key in want)
    assert len(calls) == 674


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
    deg = inst.A.L.deg
    for (sigma, sigma_p), fm in data.aprime.items():
        kk = len(sigma_p)
        for r, c, p, _e in fm.entries():
            for f in p.form_degrees():
                assert f + deg[r] - deg[c] == 1 - kk


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
    bd = solve_face_coords(inst.A, FM, tri, EMPTY, val, {})
    total = FormMatrix(dim(tri), val.deg)
    for s2, fm in bd.items():
        total = total.add(fm.mul_const_right(FM.imap(s2)))
    assert total.eq(val)


def test_solve_face_coords_infeasible_value():
    A = worked_edge()
    FM = worked_edge_fiber()
    bad = FormMatrix(1, A.L.deg)
    # a map raising from the top leaf downward cannot be triangular
    bad.set_entry(("p", 0), "z", PolyForm.one(1))
    assert solve_face_coords(A, FM, (0, 1), EMPTY, bad, {}) is None


def test_full_columns_reach_what_the_first_face_cannot():
    """Over the edge, I((0,)) sends only p and I((1,)) only r, so a row of
    r reaching w needs the columns of the second face: the first face's
    operator fails its consistency test and the full one answers, as
    the per-block solve does."""
    A = worked_edge()
    FM = FiberModel(
        omega_basis=["u", "w", "z"],
        omega_degree={"u": 0, "w": 0, "z": 1},
        D={},
        I={(0,): {("p", 0): {"u": Q(1)}}, (1,): {("r", 0): {"w": Q(1)}}},
        eta=None)
    value = FormMatrix(1, A.L.deg)
    value.set_entry(("r", 0), "u", PolyForm.coordinate(1, 1))
    value.set_entry(("r", 0), "w", PolyForm.one(1))
    value.set_entry(("p", 0), "u", PolyForm.const(1, 3))
    key = ((0, 1), EMPTY)
    got = coords_outcome(solve_face_coords, A, FM, key, value)
    assert got == coords_outcome(per_block_solve_face_coords, A, FM, key,
                                 value)
    assert got[0] == "coords"
    assert got[1][(1,)] == {("r", 0): {("r", 0): (PolyForm.one(1), 0)}}
    # and through the memo of a build, which keeps both operators
    cm = ChainMapData(A=A, FM=FM)
    cm.values[key] = value
    assert {s: fm.rows for s, fm in cm.coords(*key).items()} == got[1]
    assert len(cm._operators) == 3


def test_missing_face_decomposition_is_a_structure_problem():
    A = worked_edge()
    FM = worked_edge_fiber()
    bad = FormMatrix(1, A.L.deg)
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
    A = worked_edge(q_at_1=7)
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


def test_locality_flags_a_diagonal_entry_that_the_value_lacks():
    """At vertex 0, I'((0,), empty) is I((0,)), which is its own vertex
    diagonal.  Without its entry r<-w the difference is nonzero only
    where the diagonal is; mass at r<-z comes first, as an entry of the
    value."""
    A = worked_edge()
    FM = worked_edge_fiber()
    data = build_mixed_connection(A)
    cm = build_Iprime(data, FM)
    val = cm.values[((0,), EMPTY)]
    val.set_entry(("r", 0), "w", PolyForm.zero(0))
    msg = "I'((0,),empty) rows of r at tagged element {} exceed the vertex " \
          "diagonal"
    assert locality_check(data, cm) == [msg.format("w")]
    val.set_entry(("r", 0), "z", PolyForm.one(0))
    assert locality_check(data, cm) == [msg.format("z"), msg.format("w")]
    assert locality_check(data, cm) == reference_locality_check(data, cm)


def test_locality_requires_tags():
    A = worked_edge()
    FM = worked_edge_fiber()
    FM.eta = None
    data = build_mixed_connection(A)
    cm = build_Iprime(data, FM)
    assert data.problems + cm.problems == []
    with pytest.raises(ValueError):
        locality_check(data, cm)


# ---------------------------------------------------------------------------
# oracle: the face-coordinate solve that built its columns per block
# ---------------------------------------------------------------------------

def per_block_solve_face_coords(A, FM, sigma, sigma_p, value, _operators):
    """``solve_face_coords`` with one solve per block and right side,
    keeping no operators."""
    L = A.L
    kk = len(sigma_p)
    mm = value.k
    faces = [s2 for s2 in all_faces(sigma)
             if not smat_is_zero(FM.imap(s2))]
    omega = list(FM.omega_basis)

    def columns(al, r):
        below = {be: prec(L, be, al, sigma) for be in L.leaves if be != al}
        cols = []
        for s2 in faces:
            for be_m in L.basis:
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

    # one right-hand side per (module row, monomial), grouped by block;
    # a row's monomials x^e dx^D in the repr order of their (e, D)
    order = []
    blocks = {}
    for row in sorted(value.rows, key=repr):
        split = {}
        for e in omega:
            for term, c in value.entry(row, e).terms.items():
                split.setdefault(term, {})[e] = c
        for term in sorted(split, key=repr):
            blocks.setdefault((row[0], len(term[1])), []).append(
                (len(order), split[term]))
            order.append((row, PolyForm(mm, {term: 1})))

    solutions = [None] * len(order)
    for (al, r), items in blocks.items():
        cols = columns(al, r)
        mat = smat_transpose({(s2, be_m): FM.imap(s2).get(be_m, {})
                              for s2, be_m in cols})
        op = solution_operator(mat, cols)
        xs = [apply_operator(op, vec) for _i, vec in items]
        for (i, _vec), x in zip(items, xs):
            solutions[i] = x

    if None in solutions:
        return None
    out = {}
    for (row, mono), x in zip(order, solutions):
        for (s2, be_m), coef in x.items():
            fm = out.setdefault(s2, FormMatrix(mm, L.deg))
            fm.set_entry(row, be_m, fm.entry(row, be_m) + mono.scale(coef))
    return {s: fm for s, fm in out.items() if not fm.is_zero()}


def coords_outcome(solver, A, FM, key, value):
    coords = solver(A, FM, key[0], key[1], value, {})
    if coords is None:
        return ("infeasible",)
    return "coords", {s: fm.rows for s, fm in coords.items()}


def test_face_coords_match_the_per_block_solve():
    """One column table per call and leaf gives the coordinates, or
    None, that building the columns per block gave: on every stored I' value of generate(0..39) and a designed
    4-simplex, on the values built over a ``corrupt_random_entry`` copy
    of each system, and on each clean value with a constant added at
    one random entry, which mostly has no decomposition."""
    instances = [generate(seed) for seed in range(40)]
    instances.append(designed_instance(0, [(0, 1, 2, 3, 4)]))
    infeasible = 0
    for n, inst in enumerate(instances):
        if inst.enriched:
            continue
        FM = make_fiber_model(inst)
        cm = build_Iprime(build_mixed_connection(inst.A), FM)
        rng = random.Random(n)
        cases = []
        for key, val in sorted(cm.values.items(), key=repr):
            cases.append((key, val))
            bumped = val.add(FormMatrix(val.k, val.deg))
            row, col = rng.choice(inst.L.basis), rng.choice(FM.omega_basis)
            bumped.set_entry(row, col, bumped.entry(row, col)
                             + PolyForm.one(val.k))
            cases.append((key, bumped))
        bad = corrupt_random_entry(rng, inst.A)
        if bad is not None:
            try:
                cm = build_Iprime(build_mixed_connection(bad[0]), FM)
                cases += sorted(cm.values.items(), key=repr)
            except IncompatibleBoundaryData:
                pass
        for key, val in cases:
            got = coords_outcome(solve_face_coords, inst.A, FM, key, val)
            assert got == coords_outcome(per_block_solve_face_coords,
                                         inst.A, FM, key, val), (n, key)
            infeasible += got[0] == "infeasible"
    assert infeasible > 100


# ---------------------------------------------------------------------------
# oracle: the locality check that formed I' - diagonal in full per leaf
# ---------------------------------------------------------------------------

def reference_locality_check(data, cm):
    FM = cm.FM
    A = data.A
    L = A.L
    eps2 = L.epsilon * L.epsilon
    problems = []
    tagged = {}
    for sigma in {s for s, _sp in cm.values}:
        for alpha in L.leaves:
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
                diag = FormMatrix(dim(sigma), A.L.deg)
                for v in sigma:
                    fm = coords.get((v,))
                    if fm is None:
                        continue
                    keep = FormMatrix(fm.k, fm.deg)
                    for (al, i), (be, m), p, _e in fm.entries():
                        if al == alpha and be == alpha:
                            keep.set_entry((al, i), (be, m), p)
                    diag = diag.add(keep.mul_const_right(FM.imap((v,))))
                delta = val.add(diag, -1)
                for (al, _i), c, p, _e in delta.entries():
                    if al == alpha and c in high and not p.is_zero():
                        problems.append(
                            f"I'({sigma},empty) rows of {alpha} at tagged "
                            f"element {c} exceed the vertex diagonal")
    return problems


def test_locality_matches_the_reference():
    """The same messages in the same order as forming I' - diagonal in
    full: empty on every generated model and the designed 4-simplex, and
    on their values with mass injected at tagged entries or a tagged
    entry removed (which the vertex diagonal then has alone), several
    per value so that the order shows."""
    instances = [generate(seed) for seed in range(40)]
    instances.append(designed_instance(0, [(0, 1, 2, 3, 4)]))
    found = removed = 0
    for n, inst in enumerate(instances):
        if inst.enriched:
            continue
        FM = make_fiber_model(inst)
        data = build_mixed_connection(inst.A)
        cm = build_Iprime(data, FM)
        assert locality_check(data, cm) == reference_locality_check(
            data, cm) == []
        L = inst.A.L
        eps2 = L.epsilon * L.epsilon
        rng = random.Random(n)
        keys = sorted(cm.values, key=repr)
        for key in rng.sample(keys, min(6, len(keys))):
            val = cm.values[key]
            for _ in range(3):
                row = rng.choice(L.basis)
                floor = max(L.height(row[0], v) for v in key[0]) - eps2
                high = [e for e in FM.omega_basis if FM.eta[e] > floor]
                present = [c for c in val.rows.get(row, {}) if c in high]
                if present and rng.random() < 0.5:
                    val.set_entry(row, rng.choice(present),
                                  PolyForm.zero(val.k))
                    removed += key[1] == EMPTY
                elif high:
                    c = rng.choice(high)
                    val.set_entry(row, c, val.entry(row, c)
                                  + PolyForm.coordinate(val.k, 0))
        got = locality_check(data, cm)
        assert got == reference_locality_check(data, cm), n
        found += len(got)
    assert found > 100 and removed > 10
