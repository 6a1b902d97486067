import random
from fractions import Fraction as Q
from itertools import combinations
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatforms import forms
from flatforms.forms import (
    _BOUND,
    ExponentOverflow,
    IncompatibleBoundaryData,
    PolyForm,
    RatioPullback,
    _dx_tuples,
    _extend_homogeneous,
    _monomials_upto,
    extend_from_boundary,
    poincare_contract,
)
from flatforms.linalg import CheckFailed, apply_operator, solution_operator
from flatforms.simplicial import facet_positions


def random_form(rng, k, max_poly_deg=3, degrees=None):
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
    return PolyForm(k, terms)


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


def test_restrict_to_the_empty_face_is_zero():
    # the empty face has no points: even x_0 + x_1 + x_2 = 1 vanishes there
    for f in (PolyForm.one(2), PolyForm.coordinate(2, 0),
              PolyForm.coordinate(2, 1), PolyForm.dx(2, 1)):
        r = f.restrict(())
        assert r == PolyForm.zero(-1) and r.is_zero()


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
    assert ei.value.facets == (0, 1)


def test_extend_respects_ceiling(monkeypatch):
    # 0 at one vertex, 1 at the other: no constant extension exists, and
    # a ceiling of d0 + k - 1 = 0 tries only the constant ones
    monkeypatch.setattr(forms, "EXTENSION_HEADROOM", -1)
    data = [PolyForm.one(0), PolyForm.zero(0)]
    with pytest.raises(CheckFailed, match="^no degree <= 0 extension for "
                       "form degree 0 on the 1-simplex$"):
        extend_from_boundary(1, data)


# --- oracle: the extension that checked common faces before solving ------


def check_first_extend(k, data):
    """``extend_from_boundary`` as it was with the common-face check run
    before any solve."""
    forms._common_face_check(k, data)
    d0 = max(f.poly_degree() for f in data)
    ceiling = d0 + k + forms.EXTENSION_HEADROOM
    total = PolyForm.zero(k)
    for r in sorted(set().union(*[f.form_degrees() for f in data]) or {0}):
        total = total + _extend_homogeneous(
            k, [f.degree_part(r) for f in data], r, d0, ceiling)
    return total


def boundary_outcome(extend, k, data):
    try:
        return "form", list(extend(k, data).terms.items())
    except CheckFailed as ex:
        return type(ex), str(ex), getattr(ex, "facets", None)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3), st.booleans(),
       st.sampled_from([None, -1, 0]))
def test_deferred_common_face_check_keeps_every_outcome(seed, k, perturb,
                                                        headroom):
    """Solving first and checking common faces only after a failed solve
    returns the same form, or raises the same exception class, message
    and facet pair, as checking first: on the facet restrictions of a
    random form, on that data with one term added to one facet, and with
    the extension headroom lowered so that compatible data can fail."""
    rng = random.Random(seed)
    f = random_form(rng, k)
    data = [f.restrict(facet_positions(k, j)) for j in range(k + 1)]
    if perturb:
        j = rng.randrange(k + 1)
        exps = tuple(rng.randrange(0, 3) for _ in range(k - 1))
        dxs = rng.choice(_dx_tuples(k - 1, rng.randrange(0, k)))
        data[j] = data[j] + PolyForm(k - 1, {(exps, dxs): rng.choice([-1, 2])})
    with pytest.MonkeyPatch.context() as mp:
        if headroom is not None:
            mp.setattr(forms, "EXTENSION_HEADROOM", headroom)
        assert boundary_outcome(extend_from_boundary, k, data) == \
            boundary_outcome(check_first_extend, k, data)


def test_every_deferred_outcome_occurs(monkeypatch):
    """The three outcomes the deferred check must keep all occur on the
    data of the test above: an extension, a clash named by the check,
    and a failed solve on compatible data (headroom lowered)."""
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        f = random_form(rng, 2)
        data = [f.restrict(facet_positions(2, j)) for j in range(3)]
        clash = data[:1] + [data[1] + PolyForm.one(1)] + data[2:]
        seen |= {boundary_outcome(extend_from_boundary, 2, d)[0]
                 for d in (data, clash)}
    monkeypatch.setattr(forms, "EXTENSION_HEADROOM", -1)
    seen.add(boundary_outcome(extend_from_boundary, 1,
                              [PolyForm.one(0), PolyForm.zero(0)])[0])
    assert seen == {"form", IncompatibleBoundaryData, CheckFailed}


def test_compatible_data_skip_the_common_face_check(monkeypatch):
    """An extension that solves never restricts its facet data to their
    common faces."""
    calls = []
    check = forms._common_face_check
    monkeypatch.setattr(forms, "_common_face_check",
                        lambda k, data: calls.append(k) or check(k, data))
    rng = random.Random(3)
    f = random_form(rng, 3)
    data = [f.restrict(facet_positions(3, j)) for j in range(4)]
    extend_from_boundary(3, data)
    assert calls == []
    with pytest.raises(IncompatibleBoundaryData):
        extend_from_boundary(2, [PolyForm.one(1)] + [PolyForm.zero(1)] * 2)
    assert calls == [2]


# --- oracle: the extension that eliminated its system on every call ------


def restricted_basis_terms(k, j, key):
    return tuple(PolyForm(k, {key: 1}).restrict(facet_positions(k, j))
                 .terms.items())


def solve_extend_homogeneous(k, data, r, d0, ceiling):
    if all(f.is_zero() for f in data):
        return PolyForm.zero(k)
    dxs = _dx_tuples(k, r)
    if not dxs:
        return PolyForm.zero(k)
    deg = d0
    while deg <= ceiling:
        cols = []
        for mono in _monomials_upto(k, deg):
            for dd in dxs:
                cols.append((mono, dd))
        rows = {}
        rhs = {}
        for j in range(k + 1):
            for key in cols:
                for tkey, c in restricted_basis_terms(k, j, key):
                    rows.setdefault((j, tkey), {})[key] = c
            for tkey, c in data[j].terms.items():
                rhs[(j, tkey)] = c
        x = apply_operator(solution_operator(rows, cols), rhs)
        if x is not None:
            return PolyForm(k, x)
        deg += 1
    raise CheckFailed(
        f"no degree <= {ceiling} extension for form degree {r} on the {k}-simplex")


def extension_outcome(extend, *args):
    try:
        return "form", list(extend(*args).terms.items())
    except CheckFailed as ex:
        return "infeasible", str(ex)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(0, 2),
       st.booleans())
def test_cached_extension_matches_solving_each_time(seed, k, extra, clash):
    """The extension read from the system eliminated once per shape
    gives the same terms, in the same order, as solving the system on
    each call, or fails with the same text: on the facet restrictions
    of a form, and on that data with one random term added to one facet,
    which mostly leaves no extension."""
    rng = random.Random(seed)
    f = random_form(rng, k)
    data = [f.restrict(facet_positions(k, j)) for j in range(k + 1)]
    if clash:
        j = rng.randrange(k + 1)
        data[j] = data[j] + random_form(rng, k - 1)
    d0 = max(g.poly_degree() for g in data)
    for r in range(k):
        part = [g.degree_part(r) for g in data]
        args = (k, part, r, d0, d0 + extra)
        assert extension_outcome(_extend_homogeneous, *args) == \
            extension_outcome(solve_extend_homogeneous, *args)


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


# --- the integer kernel against a Fraction-dict reference ---------------
#
# A form below is also a plain dict {(exponents, dx tuple): Fraction};
# these few functions do the same algebra on such dicts, term by term.


def ref_clean(terms):
    return {key: c for key, c in terms.items() if c != 0}


def ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return ref_clean(out)


def ref_scale(a, c):
    return ref_clean({key: c * v for key, v in a.items()})


def ref_merge(d1, d2):
    """(sign, merged dx tuple) of dx^d1 ∧ dx^d2, None if they share an
    index; the sign counts the inversions of the concatenation."""
    seq = d1 + d2
    if len(set(seq)) < len(seq):
        return None
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return (-1) ** inv, tuple(sorted(seq))


def ref_wedge(a, b):
    out = {}
    for (e1, d1), c1 in a.items():
        for (e2, d2), c2 in b.items():
            m = ref_merge(d1, d2)
            if m is not None:
                key = (tuple(x + y for x, y in zip(e1, e2)), m[1])
                out[key] = out.get(key, 0) + m[0] * c1 * c2
    return ref_clean(out)


def ref_d(a, k):
    out = {}
    for (exps, dxs), c in a.items():
        for i in range(1, k + 1):
            m = ref_merge((i,), dxs)
            if exps[i - 1] and m is not None:
                lower = tuple(e - (j == i - 1) for j, e in enumerate(exps))
                key = (lower, m[1])
                out[key] = out.get(key, 0) + m[0] * exps[i - 1] * c
    return ref_clean(out)


def ref_restrict(a, k, positions):
    """Substitute x_i -> y_j for i = positions[j] (y_0 = 1 - y_1 - ...)
    and x_i -> 0 off the face, dx_i -> the differential of the image."""
    lk = len(positions) - 1
    origin = (0,) * lk

    def y(j):
        if j > 0:
            return {(tuple(int(t == j - 1) for t in range(lk)), ()): Q(1)}
        out = {(origin, ()): Q(1)}
        for t in range(1, lk + 1):
            out.update(ref_scale(y(t), -1))
        return out

    image = {i: y(positions.index(i)) if i in positions else {}
             for i in range(1, k + 1)}
    out = {}
    for (exps, dxs), c in a.items():
        acc = {(origin, ()): c}
        for i, e in enumerate(exps, start=1):
            for _ in range(e):
                acc = ref_wedge(acc, image[i])
        for i in dxs:
            acc = ref_wedge(acc, ref_d(image[i], lk))
        out = ref_add(out, acc)
    return out


# --- the tuple-keyed kernel that the packed one replaced ------------------
#
# The bodies of ``wedge``, ``d`` and ``+`` from when a term's key was the
# pair (exponent tuple, dx tuple), reading only ``.terms`` (with
# ``ref_merge`` for the old ``_merge_sign``, which it equals).  Their
# Fraction partial sums vanish exactly where the int numerators over one
# denominator did, so they insert, drop and re-insert terms in the same
# order, and the packed kernel must store its terms in that order.


def tuple_wedge(f, g):
    out = {}
    right = list(g.terms.items())
    for (e1, d1), c1 in f.terms.items():
        for (e2, d2), c2 in right:
            ms = ref_merge(d1, d2)
            if ms is None:
                continue
            sign, dd = ms
            key = (tuple(map(add, e1, e2)), dd)
            v = out.get(key, 0) + sign * c1 * c2
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
    return out


def tuple_d(f):
    out = {}
    for (exps, dxs), c in f.terms.items():
        for i, e in enumerate(exps, start=1):
            if e == 0 or i in dxs:
                continue
            sign, dd = ref_merge((i,), dxs)
            key = (exps[:i - 1] + (e - 1,) + exps[i:], dd)
            v = out.get(key, 0) + sign * c * e
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
    return out


def tuple_add(a, b):
    """``+`` on two term dicts, such as ``f.terms``."""
    out = dict(a)
    for key, c in b.items():
        v = out.get(key, 0) + c
        if v == 0:
            out.pop(key, None)
        else:
            out[key] = v
    return out


def items(f):
    """The terms of ``f`` in storage order."""
    return list(f.terms.items())


def face_table(k, positions):
    pos_of = {p: j for j, p in enumerate(positions)}
    return [pos_of.get(i) for i in range(1, k + 1)]


COEFFS = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(Q, st.integers(-2 ** 130, 2 ** 130), st.integers(1, 2 ** 110)))


@st.composite
def chart_terms(draw, count=2):
    """A chart dimension and ``count`` term dicts on it, with rational
    coefficients of up to 130 bits."""
    k = draw(st.integers(1, 3))
    keys = st.tuples(
        st.tuples(*[st.integers(0, 2)] * k),
        st.sets(st.integers(1, k)).map(lambda s: tuple(sorted(s))))
    return k, [draw(st.dictionaries(keys, COEFFS, max_size=5))
               for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(chart_terms(), COEFFS)
def test_kernel_matches_fraction_reference(drawn, c):
    k, (a, b) = drawn
    f, g = PolyForm(k, a), PolyForm(k, b)
    a, b = ref_clean(a), ref_clean(b)
    assert dict(f.terms) == a and list(f.terms) == list(a)
    assert all(type(v) is Q for v in f.terms.values())
    assert dict(f.wedge(g).terms) == ref_wedge(a, b)
    assert dict(f.d().terms) == ref_d(a, k)
    assert dict((f + g).terms) == ref_add(a, b)
    assert dict((f - g).terms) == ref_add(a, ref_scale(b, -1))
    assert dict(f.scale(c).terms) == ref_scale(a, c)
    for pos in faces(k):
        assert dict(f.restrict(pos).terms) == ref_restrict(a, k, pos)
    # the same terms in the order the tuple-keyed kernel stored them
    assert items(f.wedge(g)) == list(tuple_wedge(f, g).items())
    assert items(f.d()) == list(tuple_d(f).items())
    assert items(f + g) == list(tuple_add(f.terms, g.terms).items())
    assert items(f - g) == list(tuple_add(
        f.terms, {key: -v for key, v in g.terms.items()}).items())
    assert items(f.scale(c)) == [(key, v * c) for key, v in f.terms.items()
                                 if c]
    for pos in faces(k):
        assert items(f.restrict(pos)) == items(reference_affine_pullback(
            f, len(pos) - 1, face_table(k, pos)))


@settings(max_examples=80, deadline=None)
@given(chart_terms(count=1), COEFFS.filter(bool))
def test_forms_are_stored_canonically(drawn, c):
    k, (a,) = drawn
    f = PolyForm(k, a)
    for g in (f.scale(Q(1, 3)).scale(3), f.scale(c).scale(1 / c),
              (f + f.scale(c)) - f.scale(c)):
        assert g == f and hash(g) == hash(f)
    for zero in (f + (-f), f.scale(c) - f.scale(c),
                 f.scale(Q(1, 7)) + f.scale(Q(-1, 7))):
        assert zero.is_zero() and zero == PolyForm.zero(k)
        assert hash(zero) == hash(PolyForm.zero(k))


@settings(max_examples=80, deadline=None)
@given(chart_terms(count=1), st.lists(COEFFS, min_size=3, max_size=3))
def test_value_at_keeps_the_entry_rule(drawn, point):
    """A 0-form's value is the Fraction sum of its terms at the point,
    an int when it is integral."""
    k, (a,) = drawn
    f = PolyForm(k, {(e, ()): c for (e, _dxs), c in a.items()})
    point = point[:k]
    want = Q(0)
    for (exps, _dxs), c in f.terms.items():
        for x, e in zip(point, exps):
            c *= x ** e
        want += c
    got = f.value_at(point)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Q)


def test_value_at_is_an_int_where_integral():
    assert type(PolyForm.one(2).value_at((0, 0))) is int
    f = PolyForm(2, {((1, 0), ()): Q(1, 2), ((0, 1), ()): Q(3, 2)})
    assert f.value_at((1, 1)) == 2 and type(f.value_at((1, 1))) is int
    assert f.value_at((Q(1, 3), 0)) == Q(1, 6)


def test_terms_is_a_read_only_fraction_view():
    f = PolyForm(2, {((1, 0), (2,)): Q(1, 2), ((0, 0), ()): 3})
    assert dict(f.terms) == {((1, 0), (2,)): Q(1, 2), ((0, 0), ()): Q(3)}
    assert [type(v) for v in f.terms.values()] == [Q, Q]
    with pytest.raises(TypeError):
        f.terms[((0, 0), ())] = Q(5)
    with pytest.raises(AttributeError):
        f.terms = {}


def facet(k, j):
    """The vertex positions of the facet omitting vertex j."""
    return tuple(p for p in range(k + 1) if p != j)


def flip_reference_vanishes(f, j):
    """``vanishes_on_facet`` the old way: in a chart where facet j is a
    coordinate hyperplane, every term carries that coordinate.  For
    j = 0 the chart flip x_i -> y_(i+1) (i < k), x_k -> y_0 makes it the
    first one."""
    k = f.k
    if j == 0:
        images = {i: PolyForm.coordinate(k, i + 1) for i in range(1, k)}
        images[k] = PolyForm.coordinate(k, 0)
        f, j = f.pullback(k, images), 1
    return all(exps[j - 1] for exps, _dxs in f.terms)


@settings(max_examples=60, deadline=None)
@given(chart_terms(count=2))
def test_vanishes_on_facet_matches_the_chart_flip(drawn):
    k, (a, b) = drawn
    f, g = PolyForm(k, a), PolyForm(k, b)
    for j in range(k + 1):
        x_j, dx_j = PolyForm.coordinate(k, j), PolyForm.dx(k, j)
        # normal_only restricts to zero on the facet, through its dx_j
        # factor, yet vanishes there only when g does
        normal_only = x_j.wedge(f) + g.wedge(dx_j)
        for h in (f, g, normal_only):
            assert h.vanishes_on_facet(j) == flip_reference_vanishes(h, j)
        assert normal_only.restrict(facet(k, j)).is_zero()
        assert x_j.wedge(f).vanishes_on_facet(j)


def test_a_normal_component_does_not_vanish():
    k = 2
    for j in range(k + 1):
        f = PolyForm.dx(k, j)
        assert f.restrict(facet(k, j)).is_zero()
        assert not f.vanishes_on_facet(j)
        assert not flip_reference_vanishes(f, j)


# --- the per-term affine images against the substitution they replace ---


def reference_affine_pullback(f, target_k, table):
    """``PolyForm.affine_pullback`` as it was before each term's image
    was cached: every term substituted afresh, in the same order, on
    the (exponents, dx) terms."""
    out = {}
    dead = [i for i, j in enumerate(table) if j is None]
    for (exps, dxs), c in f.terms.items():
        if any(exps[i] for i in dead):
            continue
        targets = [table[i - 1] for i in dxs]
        if None in targets:
            continue
        dx_image = PolyForm.one(target_k)
        for j in targets:
            dx_image = dx_image.wedge(PolyForm.dx(target_k, j))
        if dx_image.is_zero():
            continue
        mono = [0] * target_k
        e0 = 0
        for e, j in zip(exps, table):
            if j:
                mono[j - 1] += e
            elif j == 0:
                e0 += e
        bary_power = PolyForm.one(target_k)
        for _ in range(e0):
            bary_power = bary_power.wedge(PolyForm.coordinate(target_k, 0))
        for (shift, _d), pc in bary_power.terms.items():
            ee = tuple(map(add, mono, shift))
            for (_e, dd), s in dx_image.terms.items():
                key = (ee, dd)
                v = out.get(key, 0) + c * (pc * s)
                if v == 0:
                    out.pop(key, None)
                else:
                    out[key] = v
    return PolyForm(target_k, out)


@settings(max_examples=150, deadline=None)
@given(chart_terms(count=1), st.integers(0, 4), st.data())
def test_affine_pullback_matches_the_reference_term_for_term(drawn, target_k,
                                                             data):
    """Same terms, same coefficients and the same storage order, for a
    table sending each variable to a target coordinate or to zero."""
    k, (a,) = drawn
    f = PolyForm(k, a)
    table = data.draw(st.lists(st.one_of(st.none(), st.integers(0, target_k)),
                               min_size=k, max_size=k))
    want = list(reference_affine_pullback(f, target_k, table).terms.items())
    for _ in range(2):   # the second call reads the cached term images
        assert list(f.affine_pullback(target_k, table).terms.items()) == want


@settings(max_examples=100, deadline=None)
@given(chart_terms(count=1), st.data())
def test_restrict_matches_the_reference_term_for_term(drawn, data):
    k, (a,) = drawn
    f = PolyForm(k, a)
    positions = tuple(sorted(data.draw(st.sets(st.integers(0, k),
                                               min_size=1))))
    want = reference_affine_pullback(f, len(positions) - 1,
                                     face_table(k, positions))
    assert list(f.restrict(positions).terms.items()) == \
        list(want.terms.items())


@pytest.mark.parametrize("positions, message", [
    ((1, 0), "strictly increasing"), ((0, 0), "strictly increasing"),
    ((-1, 1), "out of range"), ((0, 3), "out of range")])
def test_restrict_rejects_bad_positions(positions, message):
    f = PolyForm.coordinate(2, 1)
    for _ in range(2):   # a refusal is not remembered as an answer
        with pytest.raises(ValueError, match=message):
            f.restrict(positions)


# --- term keys: their shape, and the exponent bound of the packed layout ---


@pytest.mark.parametrize("key", [
    ((1,), ()),           # one exponent short: once read as x1 on the 2-chart
    ((0, 1, 0), ()),      # one exponent too many
    ((0, -1), ()),
    ((0, 1.0), ()),
    ((0, 1), (2, 1)),     # dx indices out of order: once stored unsorted
    ((0, 1), (1, 1)),
    ((0, 1), (0,)),
    ((0, 1), (3,)),
    ((0, 1),),
], ids=["short", "long", "negative", "float", "dx-unsorted", "dx-repeated",
        "dx-zero", "dx-past-k", "not-a-pair"])
def test_polyform_refuses_a_malformed_key(key):
    with pytest.raises(ValueError, match="term"):
        PolyForm(2, {key: 1})


def test_malformed_keys_no_longer_read_as_other_terms():
    """A short exponent tuple once wedged to ``1*x1`` (the product's
    exponents were truncated), and an unsorted dx tuple once printed as
    ``x2∧dx1dx2`` with no sign flip."""
    with pytest.raises(ValueError, match="exponents"):
        PolyForm(2, {((1,), ()): 1}).wedge(PolyForm.coordinate(2, 2))
    with pytest.raises(ValueError, match="dx indices"):
        PolyForm(2, {((0, 1), (2, 1)): 1}).wedge(PolyForm.one(2))
    assert repr(PolyForm(2, {((0, 1), (1, 2)): -1})) == \
        "PolyForm(2, -1*x2∧dx1dx2)"


TOP = _BOUND - 1   # the largest exponent a packed key holds


def monomial(k, exps, dxs=(), c=1):
    return PolyForm(k, {(tuple(exps), tuple(dxs)): c})


def test_exponents_at_the_bound_are_refused():
    assert monomial(2, (TOP, TOP)).terms == {((TOP, TOP), ()): 1}
    with pytest.raises(ExponentOverflow, match=f"x2\\^{_BOUND}"):
        monomial(2, (0, _BOUND))
    # a ValueError, which the instance reader maps to an input error
    with pytest.raises(ExponentOverflow, match=f"x1\\^{_BOUND}"):
        PolyForm.from_json({"k": 1, "terms": [
            {"mono": {"1": _BOUND}, "dx": [], "coeff": "1"}]})
    assert issubclass(ExponentOverflow, ValueError)


def test_the_kernel_at_the_bound_matches_the_tuple_kernel():
    """Exponents one below the guard digit on every variable: products,
    derivatives and restrictions that stay below the bound give the
    terms, in order, of the tuple-keyed kernel."""
    f = (monomial(3, (TOP, 0, TOP), (2,), 3) + monomial(3, (TOP, 0, 5))
         + monomial(3, (0, 0, 0), (1, 3), Q(1, 2)))
    g = monomial(3, (0, TOP, 0), (1,), -2) + PolyForm.const(3, 7)
    fg = f.wedge(g)
    assert items(fg) == list(tuple_wedge(f, g).items())
    assert ((TOP, TOP, TOP), (1, 2)) in fg.terms
    for h in (f, g, fg):
        assert items(h.d()) == list(tuple_d(h).items())
    # faces through vertex 0 send no variable to y_0
    for pos in [(0, 1, 2), (0, 2, 3), (0, 1, 3), (0, 3)]:
        want = reference_affine_pullback(f, len(pos) - 1, face_table(3, pos))
        assert items(f.restrict(pos)) == items(want)


def test_a_product_past_the_bound_raises_instead_of_carrying():
    """x1^TOP ∧ x1 needs an exponent the digit cannot hold.  The product
    raises rather than widen; without the guard a third factor would
    carry x1's digit into x2's."""
    f = monomial(2, (TOP, 0))
    with pytest.raises(ExponentOverflow, match="x1"):
        f.wedge(monomial(2, (1, 0)))
    with pytest.raises(ExponentOverflow):
        f.wedge(f).wedge(f)
    with pytest.raises(ExponentOverflow):
        monomial(2, (0, TOP), (1,)).wedge(monomial(2, (3, 1)))
    assert items(f.wedge(monomial(2, (0, TOP)))) == [(((TOP, TOP), ()), 1)]


def test_a_restriction_past_the_bound_raises():
    """On the face through vertices 1 and 2, x1 goes to y_0 = 1 - y_1 and
    x2 to y_1, so x1 x2^TOP restricts to y_1^TOP - y_1^(TOP + 1)."""
    with pytest.raises(ExponentOverflow):
        monomial(2, (1, TOP)).restrict((1, 2))
    assert items(monomial(2, (0, TOP)).restrict((1, 2))) == \
        [(((TOP,), ()), 1)]


def test_a_ratio_pullback_past_the_bound_raises():
    """Through the powers of N_1 and through those of Q alike."""
    x1 = PolyForm.coordinate(1, 1)
    one = PolyForm.one(1)
    [(num, top)] = RatioPullback().pullback([monomial(1, (TOP,))], [x1], one)
    assert (items(num), top) == ([(((TOP,), ()), 1)], TOP)
    with pytest.raises(ExponentOverflow):
        RatioPullback().pullback([monomial(1, (2,))], [monomial(1, (TOP,))],
                                 one)
    with pytest.raises(ExponentOverflow):
        RatioPullback().pullback([one + monomial(1, (2,))], [x1],
                                 monomial(1, (TOP,)))
