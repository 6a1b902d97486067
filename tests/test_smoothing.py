import json
import random
from fractions import Fraction as Q

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
from flatforms.forms import PolyForm, _flip_last
from flatforms.instances import designed_instance, generate, make_fiber_model
from flatforms.mixed import (
    FormMatrix,
    build_Iprime,
    build_mixed_connection,
)
from flatforms.morse import LeafSystem
from flatforms.simplicial import build_complex, dim
from flatforms.smoothing import (
    PartitionOfUnity,
    RatioMatrix,
    partition_default,
    partition_linear,
    phibar,
    pullback_matrix,
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
    S = build_complex([(0, 1)])
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


SMALL = build_complex([(0, 1, 2), (1, 3)])


# --- partitions ---------------------------------------------------------


def test_default_partition_validates():
    assert validate_partition(partition_default(SMALL)) == []


def test_linear_partition_is_flagged():
    problems = validate_partition(partition_linear(SMALL))
    assert problems
    assert any("d(phi" in m for m in problems)


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


def ratio_fixture():
    deg = {"x": 0, "y": 0}
    num = FormMatrix(2, deg)
    num.set_entry("x", "y", PolyForm(2, {((1, 0), ()): Q(1)}))
    num.set_entry("y", "y", PolyForm(2, {((0, 1), (1,)): Q(2)}))
    den = PolyForm(2, {((0, 0), ()): Q(1), ((1, 1), ()): Q(1)})
    return RatioMatrix(num, den, 1), den


def test_ratio_eq_cross_multiplies():
    R, den = ratio_fixture()
    promoted = RatioMatrix(R.promoted(3), den, 3)
    assert R.eq(promoted)
    assert promoted.eq(R)
    other = RatioMatrix(R.num.scale(2), den, 1)
    assert not R.eq(other)


def test_ratio_d_squares_to_zero():
    R, _ = ratio_fixture()
    dR = R.d()
    assert dR.e == R.e + 1
    assert dR.d().is_zero()


def test_ratio_promoted_cannot_lower():
    R, _ = ratio_fixture()
    with pytest.raises(ValueError):
        R.promoted(0)


def den_for(k):
    # a positive denominator: 1 + x_1 + 2 x_2 + ...
    d = PolyForm.one(k)
    for i in range(1, k + 1):
        d = d + PolyForm.coordinate(k, i).scale(i)
    return d


def ratio_1x1(p, den, e):
    deg = {"x": 0}
    num = FormMatrix(p.k, deg)
    num.set_entry("x", "x", p)
    return RatioMatrix(num, den, e)


def test_ratio_matrix_arithmetic():
    k = 2
    den = den_for(k)
    a = ratio_1x1(PolyForm.coordinate(k, 1), den, 1)
    b = ratio_1x1(PolyForm.coordinate(k, 2), den, 2)
    s = a.add(b)
    assert s.e == 2
    # (x1*den + x2) / den^2
    expected = PolyForm.coordinate(k, 1).wedge(den) + PolyForm.coordinate(k, 2)
    assert s.num.entry("x", "x") == expected
    assert s.add(RatioMatrix(a.num.scale(-1), den, a.e)).eq(b)


def test_ratio_matrix_restrict_rejects_mismatched_denominator():
    den = PolyForm.one(2) + PolyForm.coordinate(2, 1)
    f = ratio_1x1(PolyForm.coordinate(2, 2), den, 1)
    assert f.restrict((0, 1), PolyForm.one(1) + PolyForm.coordinate(1, 1)).e == 1
    with pytest.raises(ValueError):
        f.restrict((0, 1), PolyForm.one(1))


def test_ratio_matrix_d_matches_quotient_rule():
    k = 2
    den = den_for(k)
    # quotient rule by hand: d(x1/den) = (den*dx1 - x1*dden)/den^2
    a = ratio_1x1(PolyForm.coordinate(k, 1), den, 1)
    expected_num = den.wedge(PolyForm.dx(k, 1)) - den.d().wedge(PolyForm.coordinate(k, 1))
    assert a.d().eq(ratio_1x1(expected_num, den, 2))


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
    assert _flip_last(f) == f.pullback(k, images)


def test_pullback_of_constants_is_constant():
    A = edge_system()
    data = connection(A)
    P = partition_default(A.S)
    g = pullback_matrix(data.get((0,), ()), P, (0,))
    assert g.e == 0
    assert g.num.eq(data.get((0,), ()))


# --- the partition pullback (pullback_matrix, i.e. forms.ratio_pullback
# on the numerators and denominator of sigma) --------------------------


def pullback_case(seed, n, partition):
    """A simplex of dimension 1 or 2, ``partition`` over it, and n random
    module endomorphisms with form entries on its chart."""
    rng = random.Random(seed)
    sigma = rng.choice([(0, 1), (0, 1, 2)])
    deg = {"a": 0, "b": 1, "c": 2}
    xs = [random_matrix(rng, dim(sigma), list(deg), deg, max_poly=1)
          for _ in range(n)]
    return sigma, partition(build_complex([sigma])), xs


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_partition_pullback_commutes_with_d(seed):
    sigma, P, [x] = pullback_case(seed, 1, partition_default)
    assert pullback_matrix(x.d(), P, sigma).eq(
        pullback_matrix(x, P, sigma).d())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_partition_pullback_commutes_with_compose(seed):
    sigma, P, [x, y] = pullback_case(seed, 2, partition_default)
    assert pullback_matrix(x.compose(y), P, sigma).eq(
        pullback_matrix(x, P, sigma).compose(pullback_matrix(y, P, sigma)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_linear_partition_pullback_is_the_entrywise_pullback(seed):
    sigma, P, [x] = pullback_case(seed, 1, partition_linear)
    images = {i: P.num[(sigma, v)] for i, v in enumerate(sigma[1:], start=1)}
    want = FormMatrix(x.k, x.deg)
    for r, c, p in x.entries():
        want.set_entry(r, c, p.pullback(x.k, images))
    got = pullback_matrix(x, P, sigma)
    assert got.den == PolyForm.one(x.k)
    assert got.num.eq(want)


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
