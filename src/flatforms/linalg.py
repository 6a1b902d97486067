"""Exact linear algebra over the rationals, on one matrix shape.

A matrix is an ``SMat``: nested dicts ``{row_key: {col_key: entry}}``
with zeros left out, so two matrices are equal exactly when their dicts
are.  Keys are whatever names the caller's basis uses (module basis
elements, cellular generators, unknowns); a vector is an ``SVec``
``{key: entry}``, again without zeros.  Matrices act on column
vectors.

An entry is an exact rational: an ``int`` when it is integral and a
``Fraction`` in lowest terms only when its denominator is greater than
1.  The entries this module makes (``smat_set``, ``smat_identity``,
``kernel``, ``solve``, the solution operator) keep this rule, every
quotient by way of ``qdiv``, so the integral coefficient systems of the
generator multiply and add as ints.  ``qentry`` is the package's one
reader of exact values and keeps the same rule: a file's entries,
heights, epsilon and eta tags (one ``qreader`` per file parsing each
distinct string once), form coefficients and points, and ``flow
--start``.  An int and the equal Fraction compare equal, hash
equal and print the same ``str``; sums and products keep Python's
rules, so one with a Fraction operand is a Fraction.  No ``/``
appears anywhere in the package, since int / int is a float: exact
quotients go through ``qdiv``.

Rank, kernels, solves and homology all run one Gaussian elimination.
The caller fixes the column order; pivots are taken column by column
in that order, and free variables are set to zero.
The reduced row echelon form of a matrix is unique once its column
order is fixed (Hoffman & Kunze, *Linear Algebra*, §1.4), so none of
these results depends on the order of the rows or on which row serves
as a pivot.

The elimination is fraction-free Gauss-Jordan on primitive int rows:
each row is scaled to ints by the lcm of its denominators, cleared by
the gcd-reduced combination (pv/g)*row - (f/g)*prow and divided by its
content.  Every row stays a nonzero multiple of the row that rational
Gauss-Jordan would hold, so pivots and supports are the same; only the
entries that ``kernel`` and ``solve`` return are divided, by ``qdiv``,
by their row's pivot entry.  This is not Bareiss's algorithm
("Sylvester's identity and multistep integer-preserving Gaussian
elimination", *Math. Comp.* 22, 1968), which divides each update
exactly by the previous pivot and so bounds the growth of the entries;
here the content division keeps rows primitive but gives no such
bound.

``solution_operator`` eliminates a matrix once, beside the identity,
for right-hand sides that are not known yet.  What the identity columns
carry is the solution operator over Q: a pivot map S, whose product
with a right-hand side b is the solution ``solve`` gives, and
consistency rows C, whose product with b is zero exactly when b is
consistent.  Both are matrices, so a caller can apply them to whole
rows of forms at once, coefficient by coefficient; ``solver`` applies
them to one vector.

``Homology`` reads the homology of a graded complex off one
elimination of its differential: the Betti numbers, cycles and
boundaries, and on first use representatives and the class of a cycle
over them.  It serves the cellular complex, each fiber (V, a(v)) and
(Omega, D), and takes the differential as given, refusing an entry
that is not of degree +1 and a differential that does not square to
zero.

``CheckFailed`` is the package's one failure class: a face without its
datum, a boundary that does not square to zero, or a flat extension or
gauge step that does not exist.  Its message is the certificate, and
the command line turns it into exit 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Optional, Sequence

Q = Fraction

SMat = dict
SVec = dict


class CheckFailed(Exception):
    """A construction or check that cannot go on; the message names
    the simplex, block or step that witnessed it."""


def qentry(value):
    """``value`` read by the entry rule: an int when it is integral,
    otherwise a Fraction in lowest terms.  A string of decimal digits,
    signed or not, is read as an int without building a Fraction.  A
    bool, a float or None is refused, as ``qint`` refuses a bool: a
    file's ``true`` is not 1."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        if value.removeprefix("-").isdecimal():
            return int(value)
        try:
            value = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    elif not isinstance(value, Fraction):
        raise TypeError(f"not an exact rational: {value!r}")
    return value.numerator if value.denominator == 1 else value


def qreader() -> Callable:
    """``qentry`` for the values of one file, each distinct string parsed
    once: the files repeat a few strings ("0", "1", "-1") many times."""
    parsed: dict[str, object] = {}

    def read(value):
        if type(value) is not str:
            return qentry(value)
        q = parsed.get(value)
        if q is None:
            q = parsed[value] = qentry(value)
        return q
    return read


def qdiv(n: int, d: int):
    """The exact quotient n/d: an int when d divides n, otherwise a
    Fraction in lowest terms."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def qint(value) -> int:
    """An integer field of an instance file: an int, never a bool or a
    float, which ``int()`` would read as 1 or truncate."""
    if type(value) is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


def qkeys(data: dict, known: tuple, where: str) -> None:
    """Refuse a key outside ``known``: a misspelled one would go unread."""
    if unknown := sorted(set(data) - set(known)):
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")


# ---------------------------------------------------------------------------
# keyed sparse matrices
# ---------------------------------------------------------------------------

def smat_set(m: SMat, r, c, v):
    if type(v) is not int:
        v = qentry(v)
    if v == 0:
        row = m.get(r)
        if row:
            row.pop(c, None)
            if not row:
                m.pop(r, None)
        return
    m.setdefault(r, {})[c] = v


def smat_add(a: SMat, b: SMat, sign: int = 1) -> SMat:
    """a + sign * b, for sign = 1 or -1."""
    out = {r: dict(row) for r, row in a.items()}
    for r, row in b.items():
        orow = out.setdefault(r, {})
        for c, v in row.items():
            w = orow.get(c)
            if w is None:
                orow[c] = v if sign == 1 else -v
            elif w := w + v if sign == 1 else w - v:
                orow[c] = w
            else:
                del orow[c]
        if not orow:
            del out[r]
    return out


def smat_mul(a: SMat, b: SMat) -> SMat:
    out: SMat = {}
    for r, arow in a.items():
        acc: dict = {}
        for t, v in arow.items():
            brow = b.get(t)
            if not brow:
                continue
            for c, w in brow.items():
                s = acc.get(c)
                if s is None:
                    acc[c] = v * w
                elif s := s + v * w:
                    acc[c] = s
                else:
                    del acc[c]
        if acc:
            out[r] = acc
    return out


def smat_transpose(a: SMat) -> SMat:
    """Rows become columns; a dict of vectors becomes the matrix with
    those vectors as its columns."""
    out: SMat = {}
    for r, row in a.items():
        for c, v in row.items():
            out.setdefault(c, {})[r] = v
    return out


def smat_is_zero(a: SMat) -> bool:
    return all(not row for row in a.values())


def smat_identity(keys) -> SMat:
    return {k: {k: 1} for k in keys}


def smat_entries(a: SMat):
    for r, row in a.items():
        for c, v in row.items():
            yield r, c, v


# ---------------------------------------------------------------------------
# the elimination
# ---------------------------------------------------------------------------

def _int_row(row: dict) -> dict:
    """A row of entries times the lcm of their denominators: an int row
    with the same support, a positive multiple of the row (the row
    itself when its entries are ints)."""
    if all(type(v) is int for v in row.values()):
        return row
    m = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (m // v.denominator) for c, v in row.items()}


def _eliminate(a: SMat, cols: Sequence, rhs: Sequence[SVec] = ()):
    """Gauss-Jordan elimination of ``[a | rhs]``, pivoting on ``cols`` only.

    Columns are numbered by their place in ``cols``; right-hand side j
    is column ``len(cols) + j``.  Each column in turn takes the first
    remaining row with a nonzero entry there as its pivot row and clears
    the column from every other row.  The rows are ints throughout: a
    row with entry f in the column is replaced by (pv/g)*row - (f/g)*prow,
    where pv is the pivot entry and g = gcd(pv, f), and then divided by
    its content.  Returns the pivot rows ``[(column, row)]`` in column
    order, which divided by their pivot entries ``row[column]`` are the
    reduced row echelon form, and the rows left over, which have entries
    in right-hand side columns only.
    """
    n = len(cols)
    index = {c: i for i, c in enumerate(cols)}
    work = {r: {index[c]: v for c, v in row.items() if v}
            for r, row in a.items()}
    for j, b in enumerate(rhs):
        for r, v in b.items():
            if v:
                work.setdefault(r, {})[n + j] = v
    rows = [_int_row(row) for row in work.values()]
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
        prow = rows[p]
        pivots.append((col, prow))
        pv = prow[col]
        for i in occupied[col]:
            row = rows[i]
            f = row.get(col) if i != p else None
            if not f:
                continue
            g = gcd(pv, f)
            s, t = pv // g, f // g
            if s < 0:
                s, t = -s, -t
            if s != 1:
                for c in row:
                    row[c] *= s
            for c, v in prow.items():
                w = row.get(c, 0) - t * v
                if w:
                    if c not in row and c < n:
                        occupied[c].append(i)
                    row[c] = w
                else:
                    row.pop(c, None)
            content = gcd(*row.values())
            if content > 1:
                for c in row:
                    row[c] //= content
    return pivots, [row for i, row in enumerate(rows) if i not in used]


def rank(a: SMat, cols: Sequence) -> int:
    return len(_eliminate(a, cols)[0])


def kernel(a: SMat, cols: Sequence) -> list[SVec]:
    """Basis of the right kernel of ``a``: one vector per free column,
    in column order, with 1 there and 0 at the other free columns."""
    return _kernel_vectors(_eliminate(a, cols)[0], cols)


def _kernel_vectors(pivots: list, cols: Sequence) -> list[SVec]:
    """``kernel`` read off the pivot rows of ``_eliminate``."""
    pivot_set = {col for col, _ in pivots}
    basis = {f: {cols[f]: 1} for f in range(len(cols)) if f not in pivot_set}
    for col, row in pivots:
        pv = row[col]
        for f, w in row.items():
            if f != col:
                basis[f][cols[col]] = qdiv(-w, pv)
    return list(basis.values())


def solve(a: SMat, cols: Sequence, rhs: Sequence[SVec]
          ) -> list[Optional[SVec]]:
    """Solve ``a x = b`` for each right-hand side b, eliminating once.

    Each b is a vector over the row keys.  A consistent b gives x, the
    solution with every free variable zero, keyed by column in column
    order; an inconsistent b, one that leaves a reduced row reading
    0 = c with c nonzero, gives None.
    """
    n = len(cols)
    pivots, rest = _eliminate(a, cols, rhs)
    inconsistent = {j for row in rest for j in row}
    return [None if j in inconsistent else
            {cols[col]: qdiv(row[j], row[col]) for col, row in pivots
             if j in row}
            for j in range(n, n + len(rhs))]


def _beside_identity(a: SMat, cols: Sequence) -> tuple[list, dict]:
    """``[a | I]`` eliminated, with one identity column per row key of
    ``a``.  Row operations act alike on every right-hand side, so a
    reduced row holds in its identity columns the combination of b's
    entries that it carries as its right-hand side entry.  Returns the
    pivot heads [(column of ``a``, pivot entry)] in column order and,
    for each row key, {reduced row: its multiple of b[key]}, an int:
    pivot rows first, numbered as in the heads, then the rows left
    over, which are zero in the columns of ``a``."""
    keys = list(a)
    n = len(cols)
    pivots, rest = _eliminate(a, cols, [{r: 1} for r in keys])
    spread: dict = {r: {} for r in keys}
    for i, row in enumerate([row for _col, row in pivots] + rest):
        for c, v in row.items():
            if c >= n:
                spread[keys[c - n]][i] = v
    return [(cols[col], row[col]) for col, row in pivots], spread


def solution_operator(a: SMat, cols: Sequence) -> tuple[SMat, SMat]:
    """The solution operator of ``a x = b`` over Q: the pivot map S and
    the consistency rows C, both with the row keys of ``a`` as rows
    (every row key is a row of each, possibly empty).

    Both are read off ``[a | I]`` eliminated: pivot row i, divided by
    its pivot entry, gives the column of S at its pivot column, and the
    j-th row left over gives column j of C (int entries: only its zeros
    matter).  A b over the row keys is consistent exactly when
    b . C = 0, and then b . S is the solution that ``solve`` gives, free
    variables zero.  A b with a nonzero entry off the row keys is
    inconsistent.
    """
    heads, spread = _beside_identity(a, cols)
    h = len(heads)
    S = {r: {heads[i][0]: qdiv(v, heads[i][1])
             for i, v in row.items() if i < h} for r, row in spread.items()}
    C = {r: {i - h: v for i, v in row.items() if i >= h}
         for r, row in spread.items()}
    return S, C


def solver(a: SMat, cols: Sequence) -> Callable[[SVec], Optional[SVec]]:
    """The map b -> ``solve(a, cols, [b])[0]``, eliminating once for
    every b to come: b . S for a consistent b (see
    ``solution_operator``), keyed by column in column order, and None
    otherwise.  It runs on ints, over the lcm of b's denominators."""
    heads, spread = _beside_identity(a, cols)

    def apply(b: SVec) -> Optional[SVec]:
        b = {r: v for r, v in b.items() if v}
        if not b.keys() <= spread.keys():
            return None
        m = lcm(*(v.denominator for v in b.values()))
        acc: dict[int, int] = {}
        for r, v in b.items():
            nv = v.numerator * (m // v.denominator)
            for i, w in spread[r].items():
                acc[i] = acc.get(i, 0) + w * nv
        if any(v for i, v in acc.items() if i >= len(heads)):
            return None
        return {c: qdiv(acc[i], pv * m) for i, (c, pv) in enumerate(heads)
                if acc.get(i)}

    return apply


class Homology:
    """The homology over Q of the differential ``d``, acting on columns,
    which raises ``degree`` (basis key to degree, in basis order) by
    one.  A boundary acting on rows is its transpose, with the same
    Betti numbers.  ``d`` is taken as given: an entry that is not of
    degree +1, or a ``d`` that does not square to zero, raises
    ``CheckFailed`` with ``refusal`` formatted with what fails and a row
    key where it fails.

    One elimination gives ``betti``, for every degree present in
    ascending order, and the cycles and boundaries.  The ``reps``, the
    cycles outside the span of the boundaries and the earlier cycles,
    and ``classes`` read one more elimination, made on first use.
    """

    def __init__(self, d: SMat, degree: dict, refusal: str):
        for r, c, _v in smat_entries(d):
            if r not in degree or degree.get(c) != degree[r] - 1:
                raise CheckFailed(refusal.format(
                    f"entry {r}<-{c} is not of degree +1", r))
        if square := smat_mul(d, d):
            raise CheckFailed(refusal.format("does not square to zero",
                                             next(iter(square))))
        basis = list(degree)
        pivots, _ = _eliminate(d, basis)
        qs = list(degree.values())
        ranks = [degree[basis[c]] for c, _ in pivots]
        self.betti = {q: qs.count(q) - ranks.count(q) - ranks.count(q - 1)
                      for q in sorted(set(qs))}
        self._complex = d, basis, pivots

    @cached_property
    def _classes(self) -> tuple[list, SMat, SMat]:
        """The ``solution_operator`` (S, C) of [boundaries | cycles]; the
        reps are the cycles at its pivot columns, each a column of S, and
        P is S at those columns, by index in ``reps``."""
        d, basis, pivots = self._complex
        # the boundaries are the pivot columns, the cycles as in kernel
        columns = smat_transpose(d)
        span = {("b", j): columns[basis[c]] for j, (c, _) in enumerate(pivots)}
        cycles = _kernel_vectors(pivots, basis)
        span.update({("z", i): z for i, z in enumerate(cycles)})
        S, C = solution_operator(smat_transpose(span), list(span))
        zs = sorted({i for row in S.values() for t, i in row if t == "z"})
        index = {("z", i): k for k, i in enumerate(zs)}
        P = {r: {index[c]: v for c, v in row.items() if c in index}
             for r, row in S.items()}
        return [cycles[i] for i in zs], P, C

    @property
    def reps(self) -> list[SVec]:
        return self._classes[0]

    def classes(self, ys: SMat) -> Optional[SMat]:
        """The class of each row of ``ys`` over ``reps``, by index, or
        None when a row is not a cycle: as ``solution_operator`` solves
        it over [boundaries | reps], with the boundary part dropped."""
        _, P, C = self._classes
        if any(not y.keys() <= P.keys() for y in ys.values()) or \
                smat_mul(ys, C):
            return None
        return smat_mul(ys, P)
