from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from flatforms.linalg import (
    kernel,
    pivot_columns,
    rank,
    smat_mul,
    smat_set,
    smat_transpose,
    solve,
)

COLS = ["x", "y", "z"]


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
