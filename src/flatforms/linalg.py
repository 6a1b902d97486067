"""Exact linear algebra over the rationals.

Everything in this package that has to be *exactly* zero runs through
the routines here: plain dense matrices are lists of lists of
``fractions.Fraction``, large sparse systems are lists of ``{col: value}``
rows.  Elimination is deterministic (columns left to right, first usable
pivot row) so repeated runs of a solver on the same input produce the
same output, including the choice of which free variables get zeroed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Q = Fraction

Vector = list[Fraction]
Matrix = list[list[Fraction]]
SparseRow = dict[int, Fraction]


def qx(value) -> Fraction:
    """Coerce an int / string / Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Q(0)] * ncols for _ in range(nrows)]


def eye(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Q(1)
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        row = a[i]
        acc = out[i]
        for t in range(k):
            c = row[t]
            if c == 0:
                continue
            brow = b[t]
            for j in range(m):
                if brow[j] != 0:
                    acc[j] += c * brow[j]
    return out


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return a == b


def mat_copy(a: Matrix) -> Matrix:
    return [list(row) for row in a]


def rref(a: Matrix, pivot_cols: Optional[int] = None
         ) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column list).

    With ``pivot_cols`` set, pivots are taken among the first
    ``pivot_cols`` columns only; the rest are carried along.
    """
    m = mat_copy(a)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if pivot_cols is not None:
        ncols = min(ncols, pivot_cols)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Q(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a: Matrix, ncols: Optional[int] = None) -> list[Vector]:
    """Basis of the right kernel of ``a`` (columns = unknowns)."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    if not a:
        return [[Q(1) if i == j else Q(0) for i in range(ncols)] for j in range(ncols)]
    r, pivots = rref(a)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Q(0)] * ncols
        v[free] = Q(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][free]
        basis.append(v)
    return basis


def solve_dense(a: Matrix, rhs: Sequence[Vector]) -> list[Optional[Vector]]:
    """One solution of ``a x = b`` with free variables zeroed, or None,
    for each right-hand side b in ``rhs``.

    ``a`` is eliminated once for all of them.  Pivots are taken among
    the columns of ``a`` only, so each solution is the one a solve of
    that right-hand side alone would give.
    """
    if not a:
        return [[] for _ in rhs]
    ncols = len(a[0])
    aug = [list(row) + [b[i] for b in rhs] for i, row in enumerate(a)]
    r, pivots = rref(aug, pivot_cols=ncols)
    out: list[Optional[Vector]] = []
    for j in range(ncols, ncols + len(rhs)):
        if any(row[j] != 0 for row in r[len(pivots):]):
            out.append(None)  # a zero row of a with nonzero right side
            continue
        x = [Q(0)] * ncols
        for row_idx, pc in enumerate(pivots):
            x[pc] = r[row_idx][j]
        out.append(x)
    return out


def mat_inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + list(idrow) for row, idrow in zip(a, eye(n))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is not invertible")
    return [row[n:] for row in r]


# ---------------------------------------------------------------------------
# sparse systems
# ---------------------------------------------------------------------------

def solve_sparse(rows: list[SparseRow], rhs: Vector, ncols: int
                 ) -> tuple[Optional[Vector], Optional[tuple[SparseRow, Fraction]]]:
    """Solve a sparse linear system exactly.

    ``rows[i]`` maps column index -> coefficient and the system is
    ``sum_j rows[i][j] * x_j = rhs[i]``.  Elimination order is fixed:
    columns ascending, first remaining row with a nonzero coefficient.
    Free variables are set to zero, so the result is deterministic.

    Returns ``(solution, None)`` on success.  On an inconsistent system
    returns ``(None, certificate)`` where the certificate is a reduced
    row ``(coeffs, rhs)`` with all coefficients zero and rhs nonzero,
    expressed over the original unknowns.
    """
    work = [(dict(r), rhs[i]) for i, r in enumerate(rows)]
    # eliminated columns in order, each with its normalized pivot row
    pivot_rows: list[tuple[int, SparseRow, Fraction]] = []
    remaining = list(range(len(work)))

    occupied: dict[int, list[int]] = {}
    for idx in remaining:
        for c in work[idx][0]:
            occupied.setdefault(c, []).append(idx)

    eliminated: set[int] = set()
    for col in sorted(occupied):
        pivot_idx = None
        for idx in occupied[col]:
            if idx in eliminated:
                continue
            row, _ = work[idx]
            if row.get(col, Q(0)) != 0:
                pivot_idx = idx
                break
        if pivot_idx is None:
            continue
        prow, prhs = work[pivot_idx]
        inv = Q(1) / prow[col]
        prow = {c: v * inv for c, v in prow.items() if v != 0}
        prhs = prhs * inv
        work[pivot_idx] = (prow, prhs)
        eliminated.add(pivot_idx)
        pivot_rows.append((col, prow, prhs))
        for idx in list(occupied.get(col, ())):
            if idx == pivot_idx or idx in eliminated:
                continue
            row, rv = work[idx]
            f = row.get(col)
            if not f:
                continue
            for c, v in prow.items():
                nv = row.get(c, Q(0)) - f * v
                if nv == 0:
                    row.pop(c, None)
                else:
                    if c not in row:
                        occupied.setdefault(c, []).append(idx)
                    row[c] = nv
            work[idx] = (row, rv - f * prhs)

    for idx in range(len(work)):
        if idx in eliminated:
            continue
        row, rv = work[idx]
        row = {c: v for c, v in row.items() if v != 0}
        if not row and rv != 0:
            return None, (row, rv)

    x = [Q(0)] * ncols
    # back substitution: pivot rows were fully reduced against each other
    # only lazily, so substitute in reverse elimination order.
    for col, prow, prhs in reversed(pivot_rows):
        acc = prhs
        for c, v in prow.items():
            if c != col:
                acc -= v * x[c]
        x[col] = acc
    return x, None
