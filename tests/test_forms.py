import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatforms.forms import (
    ExtensionInfeasible,
    IncompatibleBoundaryData,
    PolyForm,
    extend_from_boundary,
    poincare_contract,
)


def random_form(rng, k, max_poly_deg=3, degrees=None):
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


def coordinate_images(k, positions):
    """The coordinate images of the face inclusion through ``positions``."""
    lk = len(positions) - 1
    return {i: (PolyForm.coordinate(lk, positions.index(i)) if i in positions
                else PolyForm.zero(lk)) for i in range(1, k + 1)}


def faces(k):
    return [pos for r in range(1, k + 2) for pos in combinations(range(k + 1), r)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_restrict_equals_pullback_on_every_face(seed, k):
    f = random_form(random.Random(seed), k)
    for pos in faces(k):
        r = f.restrict(pos)
        assert r == f.pullback(len(pos) - 1, coordinate_images(k, pos))
        assert all(type(c) is Q for c in r.terms.values())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_restrict_twice_is_restrict_along_composite(seed, k):
    f = random_form(random.Random(seed), k)
    for outer in faces(k):
        for inner in faces(len(outer) - 1):
            composite = tuple(outer[j] for j in inner)
            assert f.restrict(outer).restrict(inner) == f.restrict(composite)


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
