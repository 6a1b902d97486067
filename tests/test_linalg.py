import argparse
import json
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flatforms.cli import load_instance, save_instance
from flatforms.flatsys import CoefficientSystem, FiberModel
from flatforms.instances import (
    generate,
    instance_from_json,
    instance_to_json,
    make_fiber_model,
)
from flatforms import linalg
from flatforms.linalg import (
    CheckFailed,
    Homology,
    kernel,
    qdiv,
    qentry,
    qreader,
    rank,
    smat_add,
    smat_entries,
    smat_identity,
    smat_mul,
    smat_set,
    smat_transpose,
    solution_operator,
    solve,
    solver,
)

COLS = ["x", "y", "z"]


def pivot_columns(a, cols):
    """The columns of ``a`` not in the span of the columns before them:
    the pivot columns of one elimination."""
    return [cols[c] for c, _ in linalg._eliminate(a, cols)[0]]


def keyed(rows, cols):
    """Dense rows to a matrix keyed by row number and column name."""
    m = {}
    for i, row in enumerate(rows):
        for c, v in zip(cols, row):
            smat_set(m, i, c, v)
    return m


def augmented_solve(a, cols, b):
    """Reference: the kernel of [a | -b] through its free column b."""
    aug = {r: dict(row) for r, row in a.items()}
    for r, v in b.items():
        smat_set(aug, r, "b", -v)
    for vec in kernel(aug, list(cols) + ["b"]):
        if vec.get("b") == 1:
            return {c: v for c, v in vec.items() if c != "b"}
    return None  # b is a pivot column: a zero row of a with b nonzero


def test_solve_batch_matches_single_solves():
    # rank 2, so right-hand sides outside the column span are inconsistent
    a = keyed([[1, 2, 0],
               [0, 0, 1],
               [2, 4, 1]], COLS)
    rhs = [{0: Q(1), 1: Q(2), 2: Q(4)},     # consistent
           {0: Q(1)},                       # inconsistent
           {1: Q(3), 2: Q(3)},              # consistent
           {2: Q(1)}]                       # inconsistent
    batch = solve(a, COLS, rhs)
    assert batch == [solve(a, COLS, [b])[0] for b in rhs]
    assert batch == [augmented_solve(a, COLS, b) for b in rhs]
    assert batch[1] is None and batch[3] is None
    for b, x in zip(rhs, batch):
        if x is not None:
            assert smat_mul(a, {c: {0: v} for c, v in x.items()}) == \
                {r: {0: v} for r, v in b.items()}
    assert batch[0] == {"x": Q(1), "z": Q(2)}  # free variable y zeroed


def test_solve_without_rows():
    assert solve({}, [], [{}, {}]) == [{}, {}]
    # with no rows every column is free, so the solution is zero
    assert solve({}, COLS, [{}]) == [{}]
    assert kernel({}, COLS) == [{"x": 1}, {"y": 1}, {"z": 1}]


entries = st.sampled_from([Q(0)] * 4 + [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])


@st.composite
def systems(draw):
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(1, 4))
    cols = [f"c{j}" for j in range(ncols)]
    a = keyed([[draw(entries) for _ in cols] for _ in range(nrows)], cols)
    rhs = [{r: v for r in range(nrows) if (v := draw(entries))}
           for _ in range(draw(st.integers(1, 3)))]
    order = draw(st.permutations(list(a)))
    return a, cols, rhs, {r: a[r] for r in order}


def _column(x):
    return {c: {0: v} for c, v in x.items()}


@settings(max_examples=200, deadline=None)
@given(systems())
def test_elimination_is_invariant_and_exact(system):
    a, cols, rhs, permuted = system
    assert rank(permuted, cols) == rank(a, cols)
    assert pivot_columns(permuted, cols) == pivot_columns(a, cols)
    basis = kernel(a, cols)
    assert kernel(permuted, cols) == basis
    assert len(basis) == len(cols) - rank(a, cols)
    for vec in basis:
        assert smat_mul(a, _column(vec)) == {}
    results = solve(a, cols, rhs)
    assert solve(permuted, cols, rhs) == results
    for b, x in zip(rhs, results):
        with_b = {r: dict(row) for r, row in a.items()}
        for r, v in b.items():
            smat_set(with_b, r, "b", v)
        consistent = rank(with_b, cols + ["b"]) == rank(a, cols)
        assert (x is not None) == consistent
        if x is not None:
            assert smat_mul(a, _column(x)) == smat_transpose({0: b})
            assert set(x) <= set(pivot_columns(a, cols))  # free variables zero


# ---------------------------------------------------------------------------
# oracle: rational Gauss-Jordan, the elimination before it went fraction-free
# ---------------------------------------------------------------------------

def reference_eliminate(a, cols, rhs=()):
    """Gauss-Jordan over Fractions with the library's pivot rule and
    fill-in bookkeeping: each column in ``cols`` order takes the first
    remaining row with a nonzero entry there, scaled to 1 before it
    clears the others."""
    n = len(cols)
    index = {c: i for i, c in enumerate(cols)}
    work = {r: {index[c]: v for c, v in row.items() if v}
            for r, row in a.items()}
    for j, b in enumerate(rhs):
        for r, v in b.items():
            if v:
                work.setdefault(r, {})[n + j] = v
    rows = list(work.values())
    occupied: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            if c < n:
                occupied.setdefault(c, []).append(i)

    pivots: list[tuple[int, dict]] = []
    used: set[int] = set()
    for col in sorted(occupied):
        p = next((i for i in occupied[col]
                  if i not in used and col in rows[i]), None)
        if p is None:
            continue
        used.add(p)
        inv = Q(1) / rows[p][col]  # an int entry over an int is a float
        prow = rows[p] = {c: v * inv for c, v in rows[p].items()}
        pivots.append((col, prow))
        for i in occupied[col]:
            row = rows[i]
            f = row.get(col) if i != p else None
            if not f:
                continue
            for c, v in prow.items():
                w = row.get(c, 0) - f * v
                if w:
                    if c not in row and c < n:
                        occupied[c].append(i)
                    row[c] = w
                else:
                    row.pop(c, None)
    return pivots, [row for i, row in enumerate(rows) if i not in used]


def reference_kernel(a, cols):
    pivots, _ = reference_eliminate(a, cols)
    pivot_set = {col for col, _ in pivots}
    basis = {f: {cols[f]: Q(1)} for f in range(len(cols)) if f not in pivot_set}
    for col, row in pivots:
        for f, w in row.items():
            if f != col:
                basis[f][cols[col]] = -w
    return list(basis.values())


def reference_solve(a, cols, rhs):
    n = len(cols)
    pivots, rest = reference_eliminate(a, cols, rhs)
    inconsistent = {j for row in rest for j in row}
    return [None if j in inconsistent else
            {cols[col]: row[j] for col, row in pivots if j in row}
            for j in range(n, n + len(rhs))]


# numerators and denominators up to about 2^70, many of them coprime,
# some sharing large factors
DENOMINATORS = [1, 1, 2, 3, 7, 12, 2 ** 35, 3 ** 44, 2 ** 70, 2 ** 61 - 1,
                (2 ** 61 - 1) * 6]
big_entries = st.one_of(
    st.just(Q(0)), st.just(Q(0)), st.just(Q(0)),
    st.integers(-3, 3).map(Q),
    st.builds(Q, st.integers(-2 ** 70, 2 ** 70), st.sampled_from(DENOMINATORS)),
)
MULTIPLIERS = [1, -1, 2, 6, -12, 2 ** 40 * 3, Q(1, 2 ** 35), Q(-5, 3 ** 44)]


@st.composite
def hard_systems(draw):
    """Rows with large mixed denominators; some rows are multiples or
    combinations of earlier ones, so the ints carry a content to divide
    out and right-hand sides are often inconsistent."""
    ncols = draw(st.integers(1, 5))
    cols = [f"c{j}" for j in range(ncols)]
    dense = []
    for _ in range(draw(st.integers(0, 6))):
        if dense and draw(st.booleans()):
            combo = [Q(0)] * ncols
            for row in dense:
                m = Q(draw(st.sampled_from(MULTIPLIERS + [0])))
                combo = [x + m * y for x, y in zip(combo, row)]
            dense.append(combo)
        else:
            dense.append([draw(big_entries) for _ in cols])
    # each row stores its entries in its own column order, so a row's
    # first entry is often not its pivot
    a = {r: {c: row[c] for c in draw(st.permutations(cols)) if c in row}
         for r, row in keyed(dense, cols).items()}
    nrows = len(dense)
    rhs = [{r: v for r in range(nrows) if (v := draw(big_entries))}
           for _ in range(draw(st.integers(1, 3)))]
    return a, cols, rhs


def _entries_follow_the_rule(vectors):
    """Every entry is an int when integral and a Fraction with
    denominator > 1 otherwise (see ``qdiv``)."""
    return all(type(v) is int if v.denominator == 1 else type(v) is Q
               for x in vectors if x is not None for v in x.values())


# rows 1 and 2 are multiples of row 0 with a large common content, so
# only a right-hand side in proportion 1 : 2^40 : -3 is consistent
CONTENT_SYSTEM = (
    keyed([[Q(1, 3), Q(2, 2 ** 70), 0],
           [Q(2 ** 40, 3), Q(2 ** 41, 2 ** 70), 0],
           [-1, Q(-6, 2 ** 70), 0]], COLS),
    COLS,
    [{0: Q(1), 1: Q(2 ** 40), 2: Q(-3)}, {0: Q(1), 1: Q(2 ** 40)}])


@settings(max_examples=300, deadline=None)
@given(hard_systems())
@example(CONTENT_SYSTEM)
def test_integer_elimination_matches_rational_reference(system):
    a, cols, rhs = system
    pivots, _ = reference_eliminate(a, cols)
    assert rank(a, cols) == len(pivots)
    assert pivot_columns(a, cols) == [cols[c] for c, _ in pivots]
    basis = kernel(a, cols)
    assert [list(x.items()) for x in basis] == \
        [list(x.items()) for x in reference_kernel(a, cols)]
    results = solve(a, cols, rhs)
    expected = reference_solve(a, cols, rhs)
    assert [x if x is None else list(x.items()) for x in results] == \
        [x if x is None else list(x.items()) for x in expected]
    assert _entries_follow_the_rule(basis)
    assert _entries_follow_the_rule(results)


@settings(max_examples=300, deadline=None)
@given(hard_systems(), st.sampled_from([None, Q(0), Q(1), Q(-2, 3)]))
@example(CONTENT_SYSTEM, None)
def test_solver_matches_solve(system, outside):
    """The map eliminated once gives what ``solve`` gives for each b:
    the same x, key order and entry types included, or None.  A b
    with a nonzero entry off the row keys of ``a`` is inconsistent."""
    a, cols, rhs = system
    if outside is not None:
        rhs = rhs + [dict(rhs[0], outside=outside)]
    apply = solver(a, cols)
    for b in rhs:
        [want] = solve(a, cols, [b])
        got = apply(b)
        assert (got if got is None else list(got.items())) == \
            (want if want is None else list(want.items()))
        assert _entries_follow_the_rule([got])


@settings(max_examples=300, deadline=None)
@given(hard_systems(), st.sampled_from([None, Q(0), Q(1), Q(-2, 3)]))
@example(CONTENT_SYSTEM, None)
def test_solution_operator_matches_solve(system, outside):
    """The operator (S, C) gives what ``solve`` gives for each b: x = b . S
    when b lies on the row keys of ``a`` and b . C = 0, and None
    otherwise, with b's entries off the row keys included."""
    a, cols, rhs = system
    if outside is not None:
        rhs = rhs + [dict(rhs[0], outside=outside)]
    S, C = solution_operator(a, cols)
    assert list(S) == list(C) == list(a)
    assert _entries_follow_the_rule(list(S.values()) + list(C.values()))
    for b in rhs:
        [want] = solve(a, cols, [b])
        b = {r: v for r, v in b.items() if v}
        if not b.keys() <= S.keys() or smat_mul({0: b}, C):
            got = None
        else:
            got = smat_mul({0: b}, S).get(0, {})
        assert got == want


def test_signed_sum():
    a = {0: {"x": Q(1), "y": Q(2)}, 1: {"x": Q(3)}}
    b = {0: {"x": Q(1), "z": Q(1, 2)}, 2: {"y": Q(-1)}}
    assert smat_add(a, b) == {0: {"x": Q(2), "y": Q(2), "z": Q(1, 2)},
                              1: {"x": Q(3)}, 2: {"y": Q(-1)}}
    assert smat_add(a, b, -1) == {0: {"y": Q(2), "z": Q(-1, 2)},
                                  1: {"x": Q(3)}, 2: {"y": Q(1)}}
    assert smat_add(a, a, -1) == {}
    assert a == {0: {"x": Q(1), "y": Q(2)}, 1: {"x": Q(3)}}  # inputs kept


@given(st.integers(-2 ** 80, 2 ** 80),
       st.integers(-2 ** 70, 2 ** 70).filter(bool),
       st.sampled_from([0, 0, 1, -1, 6]))
@example(0, 5, 0)
@example(-7, -7, 0)
@example(3, -2, 1)
def test_qdiv_is_the_exact_quotient(m, d, r):
    """qdiv(n, d) equals Fraction(n, d), and it is an int exactly when
    d divides n."""
    n = m * d + r
    q = qdiv(n, d)
    assert q == Q(n, d)
    assert (type(q) is int) == (n % d == 0)
    assert type(q) is int or type(q) is Q


@given(st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 20),
       st.sampled_from(["{s}{m}", "{s}{m}/{d}", " {s}{m}/{d} ", "+{m}",
                        "{s}00{m}", "-0"]))
@example(-5, 1, "{s}{m}")
def test_qentry_reads_the_rational_a_string_names(n, d, spelling):
    """qentry reads a string as Fraction does, to an int exactly when
    the value is integral."""
    text = spelling.format(s="-" if n < 0 else "", m=abs(n), d=d)
    q = qentry(text)
    assert q == Q(text)
    assert type(q) is (int if Q(text).denominator == 1 else Q)


@pytest.mark.parametrize("read", [qentry, qreader()],
                         ids=["qentry", "qreader"])
@pytest.mark.parametrize("value", [True, False, 1.0, None, "1.5e", "1/0",
                                   "--1", "-", ""])
def test_no_bool_or_float_is_a_rational(read, value):
    """A bool is refused although Python counts it an int (True == 1),
    as a float, None and a malformed string are."""
    with pytest.raises((TypeError, ValueError)):
        read(value)


def test_qreader_parses_each_string_once(monkeypatch):
    seen = []

    def counting(value):
        seen.append(value)
        return Q(value)
    monkeypatch.setattr(linalg, "qentry", counting)
    read = qreader()
    values = [read(v) for v in ["1/2", "0", "1/2", "0", 3, "1/2", 3]]
    assert values == [Q(1, 2), 0, Q(1, 2), 0, 3, Q(1, 2), 3]
    assert seen == ["1/2", "0", 3, 3]


def test_a_model_file_parses_each_string_once(monkeypatch, tmp_path):
    """A file's coefficients, heights and fiber model share one reader,
    so each distinct string of the file is parsed once."""
    inst = generate(3)
    path = tmp_path / "model.json"
    save_instance(path, inst.S, inst.L, inst.A,
                  {"fiber_model": make_fiber_model(inst).to_json()})
    seen = []
    qentry = linalg.qentry

    def counting(value):
        seen.append(value)
        return qentry(value)
    monkeypatch.setattr(linalg, "qentry", counting)
    loaded = load_instance(argparse.Namespace(instance=str(path), seed=None))
    assert loaded.FM is not None and loaded.FM.I
    strings = Counter(v for v in seen if type(v) is str)
    assert strings and max(strings.values()) == 1


def _file_text(S, L, A, FM):
    data = instance_to_json(S, L, A)
    if FM is not None:
        data["fiber_model"] = FM.to_json()
    return json.dumps(data, indent=1)


def _as_fractions(m):
    """The matrix with every entry the equal Fraction."""
    return {r: {c: Q(v) for c, v in row.items()} for r, row in m.items()}


@pytest.mark.parametrize("seed", [3, 7, 18, 26])
def test_files_are_read_as_ints_and_written_as_before(seed):
    """A generated instance and its fiber model read back from their
    file with every integral entry, height, eta tag and epsilon an int
    and every other one a Fraction, and write the same text,
    which is also the text of the same data held as Fractions."""
    inst = generate(seed)
    FM = None if inst.enriched else make_fiber_model(inst)
    text = _file_text(inst.S, inst.L, inst.A, FM)
    data = json.loads(text)
    read = qreader()
    S, L, A = instance_from_json(data, read)
    matrices = list(A.coeffs.values())
    if FM is not None:
        FM = FiberModel.from_json(data["fiber_model"], A, read)
        matrices += [FM.D, *FM.I.values()]
    values = [v for m in matrices for _r, _c, v in smat_entries(m)]
    assert values and all(type(v) is int for v in values)
    tags = list(FM.eta.values()) if FM is not None else []
    assert all(type(q) is (int if q.denominator == 1 else Q)
               for q in [*L.heights.values(), L.epsilon, *tags])
    assert _file_text(S, L, A, FM) == text
    as_fractions = CoefficientSystem(
        S, L, {s: _as_fractions(m) for s, m in A.coeffs.items()})
    if FM is not None:
        FM.D = _as_fractions(FM.D)
        FM.I = {s: _as_fractions(m) for s, m in FM.I.items()}
        FM.eta = {e: Q(t) for e, t in FM.eta.items()}
    assert _file_text(S, L, as_fractions, FM) == text


# ---------------------------------------------------------------------------
# homology of a graded complex
# ---------------------------------------------------------------------------

def graded_betti(d, degree):
    """Reference: the Betti numbers from the rank of each degree block,
    as ``flatsys`` computed them before ``Homology``."""
    by_deg = {}
    for g, q in degree.items():
        by_deg.setdefault(q, []).append(g)
    blocks = {}
    for r, c, v in smat_entries(d):
        q = degree.get(c)
        if q is not None and degree.get(r) == q + 1:
            blocks.setdefault(q, {}).setdefault(r, {})[c] = v
    ranks = {q: rank(m, by_deg[q]) for q, m in blocks.items()}
    return {q: len(gens) - ranks.get(q, 0) - ranks.get(q - 1, 0)
            for q, gens in sorted(by_deg.items())}


nonzero = entries.filter(bool)


@st.composite
def graded_complexes(draw, broken=False):
    """A differential of degree +1 on up to 8 generators of degrees -1
    to 2: a random pairing x -> c y, conjugated by elementary unipotent
    gauges I + c e_ij within one degree.  Returns it with the degrees
    and the Betti numbers of the pairing, the unpaired generators per
    degree.  ``broken`` adds a chain x -> y -> z, so that d^2 x != 0."""
    n = draw(st.integers(1, 8))
    degree = {f"g{i}": draw(st.integers(-1, 2)) for i in range(n)}
    d = {}
    unpaired = list(degree)
    for x in draw(st.permutations(list(degree))):
        ys = [y for y in unpaired if degree[y] == degree[x] + 1]
        if x in unpaired and ys and draw(st.booleans()):
            y = draw(st.sampled_from(ys))
            unpaired = [g for g in unpaired if g not in (x, y)]
            smat_set(d, y, x, draw(nonzero))
    betti = {q: sum(degree[g] == q for g in unpaired)
             for q in sorted(set(degree.values()))}
    if broken:
        degree.update(x=0, y=1, z=2)
        smat_set(d, "y", "x", 1)
        smat_set(d, "z", "y", 1)
    keys = list(degree)
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.sampled_from(keys)), draw(st.sampled_from(keys))
        if i == j or degree[i] != degree[j]:
            continue
        c = draw(nonzero)
        gauge = {g: {g: 1} for g in keys}
        inverse = {g: {g: 1} for g in keys}
        smat_set(gauge, i, j, c)
        smat_set(inverse, i, j, -c)
        d = smat_mul(smat_mul(gauge, d), inverse)
    return d, degree, betti


def _degree_of(vector, degree):
    [q] = {degree[g] for g in vector}
    return q


@settings(max_examples=200, deadline=None)
@given(graded_complexes())
def test_homology_betti_matches_the_block_ranks(complex_):
    d, degree, betti = complex_
    h = Homology(d, degree, "d {}")
    assert h.betti == betti == graded_betti(d, degree)
    assert list(h.betti) == sorted(set(degree.values()))
    # the transpose, a boundary acting on rows, with the degrees negated
    dual = Homology(smat_transpose(d), {g: -q for g, q in degree.items()},
                    "d {}")
    assert dual.betti == {-q: b for q, b in reversed(h.betti.items())}


@settings(max_examples=200, deadline=None)
@given(graded_complexes(), st.lists(nonzero, min_size=8, max_size=8))
def test_homology_reps_and_classes(complex_, coords):
    d, degree, betti = complex_
    h = Homology(d, degree, "d {}")
    count = dict.fromkeys(betti, 0)
    for z in h.reps:
        assert z and smat_mul(d, _column(z)) == {}
        count[_degree_of(z, degree)] += 1
    assert count == betti
    n = len(h.reps)
    assert h.classes(dict(enumerate(h.reps))) == smat_identity(range(n))
    # the columns of d are the boundaries
    boundaries = smat_transpose(d)
    assert h.classes(boundaries) == {}
    # a sum of reps and boundaries is its class, with the boundaries gone
    y = {}
    for c, z in zip(coords, h.reps):
        y = smat_add(y, {0: {g: c * v for g, v in z.items()}})
    for b in boundaries.values():
        y = smat_add(y, {0: b})
    assert h.classes(y) == ({0: dict(enumerate(coords[:n]))} if n else {})
    # a generator that d does not kill is no cycle
    for g in degree:
        if smat_mul(d, {g: {0: 1}}):
            assert h.classes({0: {g: 1}}) is None


@settings(max_examples=100, deadline=None)
@given(graded_complexes(broken=True))
def test_homology_refuses_a_non_differential(complex_):
    d, degree, _ = complex_
    with pytest.raises(CheckFailed,
                       match=r"^d does not square to zero at \S"):
        Homology(d, degree, "d {} at {}")


@settings(max_examples=100, deadline=None)
@given(graded_complexes(), st.data())
def test_homology_refuses_an_entry_off_degree(complex_, data):
    """d is taken as given: an entry that does not raise the degree by
    exactly one is refused by name, even where d still squares to zero."""
    d, degree, _ = complex_
    keys = list(degree) + ["elsewhere"]
    r = data.draw(st.sampled_from(list(degree)))
    c = data.draw(st.sampled_from(keys))
    assume(degree.get(c) != degree[r] - 1)
    bad = {row: dict(entries) for row, entries in d.items()}
    smat_set(bad, r, c, 1)
    with pytest.raises(CheckFailed) as refusal:
        Homology(bad, degree, "d {} at {}")
    assert str(refusal.value) == (
        f"d entry {r}<-{c} is not of degree +1 at {r}")
