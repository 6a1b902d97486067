import copy
import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatforms.flatsys import (
    CoefficientSystem,
    FiberModel,
    fiber_homology,
    omega_betti,
    quasi_iso_ranks,
)
from flatforms.forms import PolyForm, Powers
from flatforms.instances import (
    corrupt_random_entry,
    designed_instance,
    generate,
    make_fiber_model,
)
from flatforms.mixed import (
    FormMatrix,
    build_Iprime,
    build_mixed_connection,
)
from flatforms.morse import LeafSystem
from flatforms.simplicial import BaseComplex, dim
from flatforms.smoothing import (
    PartitionOfUnity,
    face_collapse_pullback,
    partition_default,
    partition_linear,
    phibar,
    validate_partition,
    verify_smoothing,
)

from test_forms import random_form
from test_mixed import random_matrix


def connection(A):
    """The a' build, with every check of its report passing."""
    data = build_mixed_connection(A)
    assert data.problems == []
    return data


def chain_maps(data, FM):
    """The I' build, with every check of its report passing."""
    cm = build_Iprime(data, FM)
    assert cm.problems == []
    return cm


def edge_system():
    # same three-leaf edge as in test_mixed, kept local so this file
    # reads on its own
    S = BaseComplex([(0, 1)])
    L = LeafSystem(
        [("p", 0, 1), ("r", 0, 1), ("q", 1, 1)],
        {("p", 0): 0, ("p", 1): 0, ("r", 0): 3, ("r", 1): 3,
         ("q", 0): 6, ("q", 1): 6},
        1,
    )
    return CoefficientSystem(S, L, {
        (0,): {("q", 0): {("r", 0): Q(1)}},
        (1,): {("q", 0): {("r", 0): Q(1), ("p", 0): Q(1)}},
        (0, 1): {("r", 0): {("p", 0): Q(1)}},
    })


def edge_fiber():
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


SMALL = BaseComplex([(0, 1, 2), (1, 3)])


# --- partitions ---------------------------------------------------------


def test_default_partition_validates():
    assert validate_partition(partition_default(SMALL)) == []


def test_linear_partition_is_flagged():
    """Every edge of SMALL carries the same forms; each still gets its
    own messages."""
    assert validate_partition(partition_linear(SMALL)) == [
        "d(phi_0) does not vanish on the face x_0=0 of (0, 1)",
        "d(phi_1) does not vanish on the face x_1=0 of (0, 1)",
        "d(phi_0) does not vanish on the face x_0=0 of (0, 2)",
        "d(phi_2) does not vanish on the face x_2=0 of (0, 2)",
        "d(phi_1) does not vanish on the face x_1=0 of (1, 2)",
        "d(phi_2) does not vanish on the face x_2=0 of (1, 2)",
        "d(phi_1) does not vanish on the face x_1=0 of (1, 3)",
        "d(phi_3) does not vanish on the face x_3=0 of (1, 3)",
        "d(phi_0) does not vanish on the face x_0=0 of (0, 1, 2)",
        "d(phi_1) does not vanish on the face x_1=0 of (0, 1, 2)",
        "d(phi_2) does not vanish on the face x_2=0 of (0, 1, 2)"]


def test_denominator_not_positive_at_a_sample_is_flagged():
    """Two edges share Q = 1 - 6 x_0 x_1, which is -1/2 at the
    barycentre; the sample check names each edge."""
    P = partition_default(BaseComplex([(0, 1), (1, 2)]))
    x0, x1 = PolyForm.coordinate(1, 0), PolyForm.coordinate(1, 1)
    bump = x0.wedge(x1).scale(3)
    for e in ((0, 1), (1, 2)):
        P.num[(e, e[0])] = x0 - bump
        P.num[(e, e[1])] = x1 - bump
        P.den[e] = PolyForm.one(1) - bump.scale(2)
    assert validate_partition(P) == [
        "denominator not positive on (0, 1) at (Fraction(1, 2),)",
        "d(phi_0) does not vanish on the face x_0=0 of (0, 1)",
        "d(phi_1) does not vanish on the face x_1=0 of (0, 1)",
        "denominator not positive on (1, 2) at (Fraction(1, 2),)",
        "d(phi_1) does not vanish on the face x_1=0 of (1, 2)",
        "d(phi_2) does not vanish on the face x_2=0 of (1, 2)"]


def test_partition_support_outside_the_star_is_flagged():
    P = partition_default(SMALL)
    P.num[((0, 1, 2), 3)] = PolyForm.zero(2)
    assert validate_partition(P) == [
        "phi_3 carried on (0, 1, 2) outside its star"]


def test_partition_numerator_that_does_not_restrict_is_flagged():
    """Moving f = x_0^2 x_1^2 from one numerator of an edge to the other
    keeps their sum, their values at the ends and the flatness of
    d(phi) there: only the restriction from the triangle breaks."""
    P = partition_default(SMALL)
    x0, x1 = PolyForm.coordinate(1, 0), PolyForm.coordinate(1, 1)
    f = x0.wedge(x0).wedge(x1).wedge(x1)
    P.num[((0, 1), 0)] = P.num[((0, 1), 0)] + f
    P.num[((0, 1), 1)] = P.num[((0, 1), 1)] - f
    assert validate_partition(P) == [
        "phi_0 on (0, 1, 2) does not restrict to (0, 1)",
        "phi_1 on (0, 1, 2) does not restrict to (0, 1)"]


def test_edge_denominator_is_one():
    """The cubic bump satisfies B(t) + B(1-t) = 1, so no denominator is
    actually needed in dimension one."""
    P = partition_default(SMALL)
    assert P.den[(1, 3)] == PolyForm.one(1)


def test_partition_json_round_trip():
    P = partition_default(SMALL)
    blob = json.dumps(P.to_json())
    P2 = PartitionOfUnity.from_json(SMALL, json.loads(blob))
    assert P2.num == P.num
    assert P2.den == P.den


def test_phibar_frozen_values():
    P = partition_default(SMALL)
    assert phibar(P, (1, 3), (Q(1), Q(0))) == (1, 0)
    assert phibar(P, (1, 3), (Q(0), Q(1))) == (0, 1)
    # B(3/4) = 27/32 on the edge, where the normalizer is 1
    assert phibar(P, (1, 3), (Q(1, 4), Q(3, 4))) == (Q(5, 32), Q(27, 32))
    third = (Q(1, 3), Q(1, 3), Q(1, 3))
    assert phibar(P, (0, 1, 2), third) == third


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1))
def test_phibar_maps_triangle_to_itself(a, b):
    if a + b > 1:
        a, b = 1 - a, 1 - b
    P = partition_default(SMALL)
    pt = (1 - a - b, a, b)
    img = phibar(P, (0, 1, 2), pt)
    assert sum(img) == 1
    assert all(c >= 0 for c in img)
    # faces go to faces
    for i in range(3):
        if pt[i] == 0:
            assert img[i] == 0


# --- rational matrices --------------------------------------------------


def ratio_matrix(den, entries):
    """A FormMatrix over den from {(r, c): (numerator, exponent)}."""
    k = den.base.k
    R = FormMatrix(k, {"x": 0, "y": 0}, den)
    for (r, c), (p, e) in entries.items():
        R.set_entry(r, c, p, e)
    return R


def ratio_fixture():
    den = Powers(PolyForm(2, {((0, 0), ()): Q(1), ((1, 1), ()): Q(1)}))
    x = PolyForm(2, {((1, 0), ()): Q(1)})
    y = PolyForm(2, {((0, 1), (1,)): Q(2)})
    return ratio_matrix(den, {("x", "y"): (x, 1), ("y", "y"): (y, 0)}), den


def test_ratio_eq_cross_multiplies():
    """p / Q^e equals Q^m p / Q^(e+m), entry by entry, whatever
    exponent each entry carries."""
    R, den = ratio_fixture()
    raised = ratio_matrix(den, {
        (r, c): (den[m].wedge(p), e + m)
        for (r, c, p, e), m in zip(R.entries(), (2, 1))})
    assert R.eq(raised)
    assert raised.eq(R)
    other = ratio_matrix(den, {(r, c): (p.scale(2), e)
                               for r, c, p, e in R.entries()})
    assert not R.eq(other)
    one_short = ratio_matrix(den, {(r, c): (p, e)
                                   for r, c, p, e in R.entries() if r == "x"})
    assert not R.eq(one_short)


def test_ratio_d_squares_to_zero():
    R, _ = ratio_fixture()
    dR = R.d()
    assert dR.e == R.e + 1
    # the constant-denominator entry stays at exponent 0
    assert [e for *_rc, _p, e in dR.entries()] == [2, 0]
    assert dR.d().is_zero()


def den_for(k):
    # a positive denominator: 1 + x_1 + 2 x_2 + ...
    d = PolyForm.one(k)
    for i in range(1, k + 1):
        d = d + PolyForm.coordinate(k, i).scale(i)
    return Powers(d)


def ratio_1x1(p, den, e):
    R = FormMatrix(p.k, {"x": 0}, den)
    R.set_entry("x", "x", p, e)
    return R


def test_ratio_matrix_arithmetic():
    k = 2
    den = den_for(k)
    a = ratio_1x1(PolyForm.coordinate(k, 1), den, 1)
    b = ratio_1x1(PolyForm.coordinate(k, 2), den, 2)
    s = a.add(b)
    assert s.e == 2
    # (x1*den + x2) / den^2
    expected = PolyForm.coordinate(k, 1).wedge(den.base) + PolyForm.coordinate(k, 2)
    assert list(s.entries()) == [("x", "x", expected, 2)]
    assert s.add(a, -1).eq(b)
    assert a.add(a, -1).is_zero()


def test_products_over_different_powers_are_summed_over_the_larger():
    """Two products landing on one entry, over Q and over Q^0, sum to
    (p1 + Q p2) / Q."""
    den = den_for(1)
    p1, p2 = PolyForm.coordinate(1, 1), PolyForm.dx(1, 1)
    R = FormMatrix(1, {"x": 0, "s": 0, "t": 0}, den)
    R.set_entry("x", "s", p1, 1)
    R.set_entry("x", "t", p2, 0)
    got = R.mul_const_right({"s": {"c": Q(1)}, "t": {"c": Q(1)}})
    assert list(got.entries()) == [("x", "c", p1 + den.base.wedge(p2), 1)]


def test_ratio_matrix_restrict_rejects_mismatched_denominator():
    den = Powers(PolyForm.one(2) + PolyForm.coordinate(2, 1))
    f = ratio_1x1(PolyForm.coordinate(2, 1), den, 1)
    face = Powers(PolyForm.one(1) + PolyForm.coordinate(1, 1))
    assert list(f.restrict((0, 1), face).entries()) == [
        ("x", "x", PolyForm.coordinate(1, 1), 1)]
    with pytest.raises(ValueError):
        f.restrict((0, 1), Powers(PolyForm.one(1)))


def test_restrict_of_a_pullback_needs_the_face_denominator():
    """Without face ``powers`` ``restrict`` puts the face over Q = 1, so
    it refuses a matrix whose Q does not restrict to 1: the Q = 1
    shortcut never drops a real denominator."""
    # on an edge B(x_0) + B(x_1) = 1, so take a triangle face
    sigma, tau, deg = (0, 1, 2, 3), (0, 1, 2), {"x": 0}
    P = partition_default(BaseComplex([sigma]))
    g = face_collapse_pullback(P, sigma, sigma, FormMatrix.identity(3, deg))
    assert P.den[tau] != PolyForm.one(2)
    with pytest.raises(ValueError):
        g.restrict((0, 1, 2))
    face = face_collapse_pullback(P, tau, tau, FormMatrix.identity(2, deg))
    assert g.restrict((0, 1, 2), face.powers).eq(face)


def test_pullback_refuses_a_matrix_with_exponents():
    """The partition pullback substitutes into polynomial entries; a
    matrix with an entry over Q^e, e > 0, is refused rather than pulled
    back with its exponent dropped."""
    R, _den = ratio_fixture()
    P = partition_default(BaseComplex([(0, 1, 2)]))
    with pytest.raises(ValueError):
        face_collapse_pullback(P, (0, 1, 2), (0, 1, 2), R)


def test_ratio_matrix_d_matches_quotient_rule():
    k = 2
    den = den_for(k)
    q = den.base
    # quotient rule by hand: d(x1/den) = (den*dx1 - x1*dden)/den^2
    a = ratio_1x1(PolyForm.coordinate(k, 1), den, 1)
    expected_num = q.wedge(PolyForm.dx(k, 1)) - q.d().wedge(PolyForm.coordinate(k, 1))
    assert a.d().eq(ratio_1x1(expected_num, den, 2))
    # and at exponent 3: d(p/den^3) = (den dp - 3 dden p)/den^4
    p = PolyForm.coordinate(k, 1).wedge(PolyForm.coordinate(k, 2))
    expected_num = q.wedge(p.d()) - q.d().wedge(p).scale(3)
    assert list(ratio_1x1(p, den, 3).d().entries()) == [
        ("x", "x", expected_num, 4)]
    # at exponent 0 the entry is polynomial and d is the plain d
    assert list(ratio_1x1(p, den, 0).d().entries()) == [("x", "x", p.d(), 0)]


def test_ratio_matrix_d_squared_zero():
    rng = random.Random(9)
    k = 2
    den = den_for(k)
    for _ in range(10):
        f = ratio_1x1(random_form(rng, k), den, rng.randrange(0, 3))
        dd = f.d().d()
        assert dd.is_zero() or dd.eq(ratio_1x1(PolyForm.zero(k), den, 0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_chart_flip_equals_its_pullback(seed, k):
    f = random_form(random.Random(seed), k)
    # x_i -> y_(i+1) for i < k, and x_k -> y_0 = 1 - y_1 - ... - y_k
    images = {i: PolyForm.coordinate(k, i + 1) for i in range(1, k)}
    images[k] = PolyForm.coordinate(k, 0)
    flip = tuple(range(2, k + 1)) + (0,)
    assert f.affine_pullback(k, flip) == f.pullback(k, images)


def test_pullback_of_constants_is_constant():
    A = edge_system()
    data = connection(A)
    P = partition_default(A.S)
    a = data.get((0,), ())
    g = face_collapse_pullback(P, (0,), (0,), a)
    assert g.e == 0
    assert list(g.entries()) == list(a.entries())


def test_pullback_entries_carry_their_own_top():
    """Each entry of the pulled-back a'(sigma, empty) sits over
    Q^top for its own top, the largest |e| + 2|D| among that entry's
    terms: constant entries at exponent 0, not at the matrix-wide top."""
    inst = generate(7)
    data = connection(inst.A)
    P = partition_default(inst.A.S)
    seen_mixed = False
    for sigma in inst.A.S:
        a = data.get(sigma, ())
        g = face_collapse_pullback(P, sigma, sigma, a)
        tops = {}
        for r, c, p, _e in a.entries():
            tops[r, c] = max(sum(t["mono"].values()) + 2 * len(t["dx"])
                             for t in p.to_json()["terms"])
        got = {(r, c): e for r, c, _p, e in g.entries()}
        assert got == tops
        seen_mixed |= 0 in got.values() and max(got.values()) > 0
    assert seen_mixed


# --- the partition pullback (face_collapse_pullback onto sigma itself,
# i.e. RatioPullback.pullback on the numerators and denominator of sigma)


def pullback_case(seed, n, partition):
    """A simplex of dimension 1 or 2, ``partition`` over it, and n random
    module endomorphisms with form entries on its chart."""
    rng = random.Random(seed)
    sigma = rng.choice([(0, 1), (0, 1, 2)])
    deg = {"a": 0, "b": 1, "c": 2}
    xs = [random_matrix(rng, dim(sigma), list(deg), deg, max_poly=1)
          for _ in range(n)]
    return sigma, partition(BaseComplex([sigma])), xs


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_partition_pullback_commutes_with_d(seed):
    sigma, P, [x] = pullback_case(seed, 1, partition_default)
    assert face_collapse_pullback(P, sigma, sigma, x.d()).eq(
        face_collapse_pullback(P, sigma, sigma, x).d())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_partition_pullback_commutes_with_compose(seed):
    sigma, P, [x, y] = pullback_case(seed, 2, partition_default)
    assert face_collapse_pullback(P, sigma, sigma, x.compose(y)).eq(
        face_collapse_pullback(P, sigma, sigma, x).compose(
            face_collapse_pullback(P, sigma, sigma, y)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_linear_partition_pullback_is_the_entrywise_pullback(seed):
    sigma, P, [x] = pullback_case(seed, 1, partition_linear)
    images = {i: P.num[(sigma, v)] for i, v in enumerate(sigma[1:], start=1)}
    want = FormMatrix(x.k, x.deg)
    for r, c, p, _e in x.entries():
        want.set_entry(r, c, p.pullback(x.k, images))
    got = face_collapse_pullback(P, sigma, sigma, x)
    num = FormMatrix(x.k, x.deg)
    for r, c, p, _e in got.entries():
        num.set_entry(r, c, p)
    assert got.den == PolyForm.one(x.k)
    assert num.eq(want)


# --- global forms -------------------------------------------------------


def test_worked_edge_global_checks():
    A = edge_system()
    data = connection(A)
    rep = verify_smoothing(data, partition_default(A.S))
    assert rep == {"flat": [], "c0": [], "first_order": []}


def test_worked_edge_linear_fails_first_order_only():
    """Skipping the smoothing leaves the bare homotopy term E dx in the
    edge form; at either endpoint it is not what the vertex data
    predicts, and the report says so."""
    A = edge_system()
    data = connection(A)
    rep = verify_smoothing(data, partition_linear(A.S))
    assert rep["flat"] == []
    assert rep["c0"] == []
    assert rep["first_order"]
    assert all("not determined by its face" in m for m in rep["first_order"])


def test_smoothing_flags_a_connection_that_is_not_flat():
    inst = designed_instance(27, [(0, 1, 2)])
    bad, _desc = corrupt_random_entry(random.Random(1), inst.A)
    rep = verify_smoothing(build_mixed_connection(bad),
                           partition_default(bad.S))
    assert rep["flat"] == [
        "pullback over (0,) is not flat", "pullback over (0, 1) is not flat",
        "pullback over (0, 2) is not flat",
        "pullback over (0, 1, 2) is not flat"]


def test_smoothing_flags_a_form_that_does_not_restrict():
    A = edge_system()
    A.coeffs[(0,)][("q", 0)][("r", 0)] = Q(2)
    rep = verify_smoothing(build_mixed_connection(A), partition_default(A.S))
    assert rep["c0"] == ["global form on (0, 1) does not restrict to (1,)"]


def test_smoothing_flags_a_chain_map_that_does_not_restrict():
    """Doubling I'((1,), empty) keeps it a chain map, since the chain
    identity is linear in it, and breaks only its agreement with the
    edge."""
    A = edge_system()
    data = connection(A)
    cm = chain_maps(data, edge_fiber())
    value = cm.value((1,), ())
    cm.values[((1,), ())] = value.add(value)
    rep = verify_smoothing(data, partition_default(A.S), cm)
    assert rep == {"flat": [], "c0": [], "first_order": [], "chain": [
        "global chain map on (0, 1) does not restrict to (1,)"]}


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_generated_surfaces_default_clean(seed):
    inst = generate(seed, max_dim=2, enrich=False)
    data = connection(inst.A)
    rep = verify_smoothing(data, partition_default(inst.A.S))
    assert rep == {"flat": [], "c0": [], "first_order": []}


def test_generated_surface_linear_detected():
    inst = generate(5, max_dim=2, enrich=False)
    data = connection(inst.A)
    rep = verify_smoothing(data, partition_linear(inst.A.S))
    assert rep["flat"] == [] and rep["c0"] == []
    assert len(rep["first_order"]) > 0


VERDICTS = json.loads(
    (Path(__file__).parent / "data" / "smoothing_verdicts.json").read_text())


@pytest.mark.parametrize("seed", [5, 7, 8])
def test_failing_verdicts_are_pinned(seed):
    """The exact failure messages of two failing set-ups, as recorded
    when the whole matrix sat over one power of Q: the first-order
    failures of the linear partition, and the chain failures of the
    true I' checked against a zero D.  Testing p / Q^e for zero and for
    facet vanishing per entry may not move a single verdict."""
    inst = generate(seed)
    data = connection(inst.A)
    rep = verify_smoothing(data, partition_linear(inst.A.S))
    assert rep["first_order"] == VERDICTS["linear_first_order"][str(seed)]
    cm = chain_maps(data, make_fiber_model(inst))
    cm.FM = copy.deepcopy(cm.FM)
    cm.FM.D = {}
    rep = verify_smoothing(data, partition_default(inst.A.S), cm)
    assert rep["chain"] == VERDICTS["zero_d_chain"][str(seed)]


# --- global chain map ---------------------------------------------------


def test_worked_edge_chain_assembly():
    A = edge_system()
    data = connection(A)
    cm = chain_maps(data, edge_fiber())
    rep = verify_smoothing(data, partition_default(A.S), cm)
    assert rep["chain"] == []


@pytest.mark.parametrize("seed", [2, 5])
def test_generated_chain_assembly(seed):
    inst = generate(seed, max_dim=2, enrich=False)
    FM = make_fiber_model(inst)
    data = connection(inst.A)
    cm = chain_maps(data, FM)
    rep = verify_smoothing(data, partition_default(inst.A.S), cm)
    assert rep["chain"] == []


def test_full_pipeline_on_tetrahedron():
    inst = designed_instance(0, [(0, 1, 2, 3)])
    data = connection(inst.A)
    cm = chain_maps(data, make_fiber_model(inst))
    rep = verify_smoothing(data, partition_default(inst.A.S), cm)
    assert rep == {"flat": [], "c0": [], "first_order": [], "chain": []}


def test_full_pipeline_on_4_simplex():
    """The designed 4-simplex: both builds pass, the smoothing passes
    every check with chain maps, and the linear partition keeps flatness
    and C^0 agreement but fails first-order matching, 75 times."""
    inst = designed_instance(0, [(0, 1, 2, 3, 4)])
    data = connection(inst.A)
    cm = chain_maps(data, make_fiber_model(inst))
    rep = verify_smoothing(data, partition_default(inst.A.S), cm)
    assert rep == {"flat": [], "c0": [], "first_order": [], "chain": []}
    rep = verify_smoothing(data, partition_linear(inst.A.S), cm)
    assert rep["flat"] == [] and rep["c0"] == []
    assert len(rep["first_order"]) == 75


# --- homology comparison ------------------------------------------------


def fibers(A):
    return {v: fiber_homology(A, v) for v in A.S.vertices()}


def test_omega_betti_worked_edge():
    assert omega_betti(edge_fiber()) == {0: 1, 1: 0}


def test_quasi_iso_worked_edge():
    A = edge_system()
    rep = quasi_iso_ranks(A, edge_fiber(), fibers(A))
    assert rep["problems"] == []
    assert rep["triangles"] == {}


def test_quasi_iso_detects_rank_mismatch():
    FM = edge_fiber()
    FM.D = {}  # now Omega has two classes in degree 0 and one in degree 1
    A = edge_system()
    rep = quasi_iso_ranks(A, FM, fibers(A))
    assert rep["problems"]
    assert any("Betti" in m for m in rep["problems"])


def test_quasi_iso_generated_with_triangles():
    inst = generate(8, max_dim=2, enrich=False)
    FM = make_fiber_model(inst)
    rep = quasi_iso_ranks(inst.A, FM, fibers(inst.A))
    assert rep["problems"] == []
    assert rep["triangles"] and all(rep["triangles"].values())
