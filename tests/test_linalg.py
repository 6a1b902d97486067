from fractions import Fraction as Q

from flatforms.linalg import rref, solve_dense


def augmented_solve(a, b):
    """Reference: eliminate [a | b] and read off the solution."""
    n = len(a[0])
    r, pivots = rref([row + [v] for row, v in zip(a, b)])
    if n in pivots:
        return None
    x = [Q(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = r[i][n]
    return x


def test_solve_dense_batch_matches_single_solves():
    # rank 2, so right-hand sides outside the column span are inconsistent
    a = [[Q(1), Q(2), Q(0)],
         [Q(0), Q(0), Q(1)],
         [Q(2), Q(4), Q(1)]]
    rhs = [[Q(1), Q(2), Q(4)],     # consistent
           [Q(1), Q(0), Q(0)],     # inconsistent
           [Q(0), Q(3), Q(3)],     # consistent
           [Q(0), Q(0), Q(1)]]     # inconsistent
    batch = solve_dense(a, rhs)
    assert batch == [solve_dense(a, [b])[0] for b in rhs]
    assert batch == [augmented_solve(a, b) for b in rhs]
    assert batch[1] is None and batch[3] is None
    for b, x in zip(rhs, batch):
        if x is not None:
            assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
    assert batch[0] == [Q(1), Q(0), Q(2)]  # free variable zeroed


def test_solve_dense_without_rows():
    assert solve_dense([], [[], []]) == [[], []]
