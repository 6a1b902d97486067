import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatforms.forms import (
    ExtensionInfeasible,
    IncompatibleBoundaryData,
    PolyForm,
    RatioForm,
    extend_from_boundary,
    poincare_contract,
)


def random_form(rng, k, max_poly_deg=3, degrees=None):
    from itertools import combinations
    f = PolyForm.zero(k)
    terms = {}
    dx_choices = []
    for r in range(k + 1):
        if degrees is not None and r not in degrees:
            continue
        dx_choices.extend(combinations(range(1, k + 1), r))
    for _ in range(rng.randrange(1, 6)):
        exps = tuple(rng.randrange(0, max_poly_deg + 1) for _ in range(k))
        if sum(exps) > max_poly_deg:
            continue
        dxs = rng.choice(dx_choices) if dx_choices else ()
        terms[(exps, dxs)] = Q(rng.randrange(-4, 5), rng.randrange(1, 4))
    f.terms = {key: c for key, c in terms.items() if c != 0}
    return f


# --- basic algebra -----------------------------------------------------


def test_coordinates_sum_to_one():
    k = 3
    total = PolyForm.zero(k)
    for i in range(k + 1):
        total = total + PolyForm.coordinate(k, i)
    assert total == PolyForm.one(k)


def test_dx_sum_is_zero():
    k = 3
    total = PolyForm.zero(k)
    for i in range(k + 1):
        total = total + PolyForm.dx(k, i)
    assert total.is_zero()


def test_wedge_anticommutes_on_one_forms():
    k = 2
    a = PolyForm.dx(k, 1)
    b = PolyForm.dx(k, 2)
    assert a.wedge(b) == -(b.wedge(a))
    assert a.wedge(a).is_zero()


def test_d_of_coordinate():
    k = 2
    assert PolyForm.coordinate(k, 1).d() == PolyForm.dx(k, 1)
    assert PolyForm.coordinate(k, 0).d() == PolyForm.dx(k, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_d_squared_zero(seed, k):
    rng = random.Random(seed)
    f = random_form(rng, k)
    assert f.d().d().is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_leibniz(seed, k):
    rng = random.Random(seed)
    f = random_form(rng, k)
    g = random_form(rng, k)
    # split f into homogeneous pieces to apply the graded sign
    lhs = f.wedge(g).d()
    rhs = f.d().wedge(g)
    for r in f.form_degrees():
        part = f.degree_part(r)
        rhs = rhs + part.wedge(g.d()).scale((-1) ** r)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_wedge_graded_commutative(seed, k):
    rng = random.Random(seed)
    f = random_form(rng, k)
    g = random_form(rng, k)
    for r in f.form_degrees():
        for s in g.form_degrees():
            a = f.degree_part(r)
            b = g.degree_part(s)
            assert a.wedge(b) == b.wedge(a).scale((-1) ** (r * s))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_restrict_commutes_with_d(seed, k):
    rng = random.Random(seed)
    f = random_form(rng, k)
    positions = tuple(sorted(rng.sample(range(k + 1), rng.randrange(1, k + 1))))
    assert f.d().restrict(positions) == f.restrict(positions).d()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_restrict_is_algebra_map(seed, k):
    rng = random.Random(seed)
    f = random_form(rng, k)
    g = random_form(rng, k)
    positions = tuple(sorted(rng.sample(range(k + 1), rng.randrange(1, k + 1))))
    assert f.wedge(g).restrict(positions) == \
        f.restrict(positions).wedge(g.restrict(positions))


# --- pinned restriction values -----------------------------------------


def test_restrict_coordinate_examples():
    # face (0,2) of the 2-simplex: x_2 pulls back to the edge coordinate y_1
    x2 = PolyForm.coordinate(2, 2)
    assert x2.restrict((0, 2)) == PolyForm.coordinate(1, 1)
    # and dx_1 restricts to zero along that face
    dx1 = PolyForm.dx(2, 1)
    assert dx1.restrict((0, 2)).is_zero()


def test_restrict_to_vertex():
    f = PolyForm.coordinate(2, 0)
    assert f.restrict((0,)) == PolyForm.one(0)
    assert f.restrict((2,)).is_zero()


# --- extension ----------------------------------------------------------


def test_extend_linear_on_edge():
    # values 0 at vertex 0 and 1 at vertex 1 extend to x_1
    data = [PolyForm.one(0), PolyForm.zero(0)]  # facet j omits vertex j
    got = extend_from_boundary(1, data)
    assert got == PolyForm.coordinate(1, 1)


def test_extend_roundtrip_random():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randrange(1, 4)
        f = random_form(rng, k)
        data = [f.restrict(tuple(p for p in range(k + 1) if p != j))
                for j in range(k + 1)]
        g = extend_from_boundary(k, data)
        for j in range(k + 1):
            positions = tuple(p for p in range(k + 1) if p != j)
            assert g.restrict(positions) == data[j]


def test_extend_incompatible_raises_with_certificate():
    # two facets of the triangle prescribing different values at a shared vertex
    one = PolyForm.one(1)
    zero = PolyForm.zero(1)
    with pytest.raises(IncompatibleBoundaryData) as ei:
        extend_from_boundary(2, [one, zero, zero])
    cert = ei.value.certificate
    assert cert is not None and "facets" in cert


def test_extend_respects_ceiling():
    # 0 at one vertex, 1 at the other: no constant extension exists
    data = [PolyForm.one(0), PolyForm.zero(0)]
    with pytest.raises(ExtensionInfeasible):
        extend_from_boundary(1, data, max_degree=0)


# --- contraction ---------------------------------------------------------


def test_contract_edge_example():
    # contracting dx_1 toward the chart origin gives x_1
    got = poincare_contract(PolyForm.dx(1, 1))
    assert got == PolyForm.coordinate(1, 1)


def test_contract_zero_form_identity():
    rng = random.Random(3)
    for _ in range(10):
        k = rng.randrange(1, 4)
        f = random_form(rng, k, degrees={0})
        apex = [Q(rng.randrange(0, 3), 4) for _ in range(k)]
        lhs = poincare_contract(f.d(), apex)
        const = f.value_at(apex)
        assert lhs == f - PolyForm.const(k, const)


def test_contract_homotopy_identity():
    rng = random.Random(11)
    for _ in range(15):
        k = rng.randrange(1, 4)
        r = rng.randrange(1, k + 1)
        f = random_form(rng, k, degrees={r})
        apex = [Q(rng.randrange(0, 2), 3) for _ in range(k)]
        lhs = poincare_contract(f, apex).d() + poincare_contract(f.d(), apex)
        assert lhs == f


# --- serialization --------------------------------------------------------


def test_json_roundtrip():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randrange(0, 4)
        f = random_form(rng, k) if k else PolyForm.const(0, Q(3, 7))
        assert PolyForm.from_json(f.to_json()) == f


# --- localized forms -------------------------------------------------------


def den_for(k):
    # a positive denominator: 1 + x_1 + 2 x_2 + ...
    d = PolyForm.one(k)
    for i in range(1, k + 1):
        d = d + PolyForm.coordinate(k, i).scale(i)
    return d


def test_ratio_form_arithmetic():
    k = 2
    den = den_for(k)
    a = RatioForm(PolyForm.coordinate(k, 1), den, 1)
    b = RatioForm(PolyForm.coordinate(k, 2), den, 2)
    s = a + b
    assert s.e == 2
    # (x1*den + x2) / den^2
    expected = PolyForm.coordinate(k, 1).wedge(den) + PolyForm.coordinate(k, 2)
    assert s.num == expected
    assert (s - a) == b


def test_ratio_form_restrict_rejects_mismatched_denominator():
    den = PolyForm.one(2) + PolyForm.coordinate(2, 1)
    f = RatioForm(PolyForm.coordinate(2, 2), den, 1)
    assert f.restrict((0, 1), PolyForm.one(1) + PolyForm.coordinate(1, 1)).e == 1
    with pytest.raises(ValueError):
        f.restrict((0, 1), PolyForm.one(1))


def test_ratio_form_d_matches_quotient_rule():
    k = 2
    den = den_for(k)
    # quotient rule by hand: d(x1/den) = (den*dx1 - x1*dden)/den^2
    a = RatioForm(PolyForm.coordinate(k, 1), den, 1)
    da = a.d()
    expected_num = den.wedge(PolyForm.dx(k, 1)) - den.d().wedge(PolyForm.coordinate(k, 1))
    assert da == RatioForm(expected_num, den, 2)


def test_ratio_form_d_squared_zero():
    rng = random.Random(9)
    k = 2
    den = den_for(k)
    for _ in range(10):
        f = RatioForm(random_form(rng, k), den, rng.randrange(0, 3))
        assert f.d().d().is_zero() or f.d().d() == RatioForm(PolyForm.zero(k), den, 0)
