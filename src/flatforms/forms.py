"""Polynomial differential forms on a standard simplex, exact coefficients.

A form on the k-simplex lives in the chart (x_1, ..., x_k) obtained by
eliminating the zeroth barycentric coordinate, x_0 = 1 - x_1 - ... - x_k.
Terms are stored sparsely as

    packed key  ->  int numerator

over one positive int denominator per form.  The key of x^e dx^D is one
int: the dx index set D is a bitmask in its low k bits (bit i - 1 for
dx_i), and above it each exponent e_i has a digit of ``_DIGIT`` bits,
x_1 lowest.  The top bit of a digit is a guard that a stored key leaves
clear, so exponents stay below ``_BOUND`` and a k <= 3 key fits in one
machine word.  The key of a product is the sum of the keys: the digits
add without carrying into each other, disjoint masks add to their union,
and a guard bit set in the sum is an exponent past the bound, which
raises ``ExponentOverflow`` instead of spilling into the next variable.
The sign of dx^D ∧ dx^D' is one lookup in a per-chart table indexed by
the two masks (``_sign_row``).

Numerators and denominator are kept in lowest terms, so equal forms are
stored alike; a form over 1 needs no gcd.  Wedge, exterior derivative,
restriction to faces and the substitutions below run on Python ints and
read digits and masks off the keys.  ``PolyForm.terms`` shows the
coefficients as Fractions keyed by (exponent tuple, dx tuple), in
storage order, for the contraction operator of the Poincaré lemma,
evaluation and serialization; only it, ``to_json``/``from_json`` and
``__repr__`` unpack keys.  All operations are exact.

The extension system for r-forms of polynomial degree at most d on the
k-simplex depends on (k, r, d) alone, and only its right-hand side on
the boundary data.  So each such shape is eliminated once per process
(``linalg.solution_operator``, cached per shape, on packed keys) and
every extension of that shape applies the stored operator to its
right-hand side (``linalg.apply_operator``).

Face restrictions and chart changes are affine maps that send each
chart variable to a barycentric coordinate of the target or to zero;
``PolyForm.affine_pullback`` performs all of them from a per-map table
(``restrict`` takes the face inclusion's table from ``_restrict_table``,
built once per face).  The image of each unit term under a table
depends on the term, the target chart and the table alone, so
``_term_image`` builds it once per process and a pullback only scales
and sums those images.  ``PolyForm.pullback`` substitutes arbitrary
polynomial images, and ``RatioPullback`` substitutes rational images
N_i/Q with one denominator, homogenised over each form's own power of
Q: the P/Q^e substitution behind the smoothing.  It builds the powers of
each Q, and the images of each (Q, numerators), once per distinct form
and lives for one walk.
``PolyForm.vanishes_on_facet`` asks whether every coefficient, normal
components included, vanishes along a facet.

The term layout is private to this module: other modules build and
take apart forms only through the methods and functions here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .linalg import (
    CheckFailed,
    Q,
    apply_operator,
    qdiv,
    qentry,
    qint,
    qkeys,
    solution_operator,
)
from .simplicial import facet_positions

Key = tuple[tuple[int, ...], tuple[int, ...]]

_DIGIT = 16                      # bits per exponent digit, guard bit included
_BOUND = 1 << (_DIGIT - 1)       # the first exponent a digit cannot hold
_DIGIT_MASK = (1 << _DIGIT) - 1
EXTENSION_HEADROOM = 3           # ansatz degrees end at d0 + k + this


class IncompatibleBoundaryData(CheckFailed):
    """Boundary data whose facet restrictions disagree on a common face;
    ``facets`` is the pair (i, j) of facet indices that witnesses it."""

    def __init__(self, message, facets: tuple[int, int]):
        super().__init__(message)
        self.facets = facets


class ExponentOverflow(CheckFailed, ValueError):
    """An exponent at or past ``_BOUND``, which a packed key cannot hold:
    given to ``PolyForm``, or reached by a product or a substitution.
    Read from an instance file it is a fault of the file (a
    ``ValueError``), met by a check it fails that check."""


# ---------------------------------------------------------------------------
# the packed key
# ---------------------------------------------------------------------------

@cache
def _shifts(k: int) -> tuple:
    """The bit offset of each exponent digit of a k-chart key, x_1 first."""
    return tuple(k + i * _DIGIT for i in range(k))


@cache
def _low(k: int) -> int:
    """The dx mask bits of a k-chart key: none for k <= 0 (the chart of
    a vertex, and of the empty face, k = -1)."""
    return (1 << k) - 1 if k > 0 else 0


@cache
def _guard(k: int) -> int:
    """The guard bits of the exponent digits of a k-chart key."""
    return sum(1 << (s + _DIGIT - 1) for s in _shifts(k))


def _exps(k: int, key: int) -> tuple:
    """The exponent tuple of a k-chart key."""
    return tuple(key >> s & _DIGIT_MASK for s in _shifts(k))


@cache
def _dx_tuple(k: int, mask: int) -> tuple:
    """The increasing dx indices of a k-chart dx mask."""
    return tuple(i for i in range(1, k + 1) if mask >> (i - 1) & 1)


def _unpack(k: int, key: int) -> Key:
    """The (exponent tuple, dx tuple) of a k-chart key."""
    return _exps(k, key), _dx_tuple(k, key & _low(k))


def _mask(dxs) -> int:
    """The dx mask of the dx indices ``dxs``."""
    return sum(1 << (i - 1) for i in dxs)


def _overflow(k: int, exps) -> ExponentOverflow:
    """The error naming the largest of the exponents ``exps``."""
    i, e = max(enumerate(exps, start=1), key=lambda ie: ie[1])
    return ExponentOverflow(f"x{i}^{e} on the {k}-chart: exponents stay "
                            f"below {_BOUND}")


def _pack_exps(k: int, exps: Sequence[int]) -> int:
    """The key of the monomial x^exps with no dx."""
    if any(e >= _BOUND for e in exps):
        raise _overflow(k, exps)
    return sum(e << s for e, s in zip(exps, _shifts(k)))


def _key(k: int, term) -> int:
    """The key of ``term`` = (exponent tuple, dx tuple) on the k-chart:
    k nonnegative ints, and dx indices strictly increasing in 1..k."""
    try:
        exps, dxs = term
    except (TypeError, ValueError):
        raise ValueError(f"term {term!r} is not a pair (exponents, dx)")
    if not (type(exps) is tuple and len(exps) == k
            and all(isinstance(e, int) and e >= 0 for e in exps)):
        raise ValueError(f"term {term!r}: exponents are not a tuple of "
                         f"{k} nonnegative ints")
    if not (type(dxs) is tuple and all(isinstance(i, int) for i in dxs)
            and all(a < b for a, b in zip((0,) + dxs, dxs))
            and (not dxs or dxs[-1] <= k)):
        raise ValueError(f"term {term!r}: dx indices are not strictly "
                         f"increasing in 1..{k}")
    return _pack_exps(k, exps) + _mask(dxs)


@cache
def _sign_row(k: int, m1: int) -> tuple:
    """For each dx mask m2 of the k-chart in turn, the sign of
    dx^m1 ∧ dx^m2 against dx^(m1 | m2): (-1) to the number of pairs of
    an index in m1 above an index in m2, and 0 when they share one."""
    row = []
    for m2 in range(_low(k) + 1):
        inv = sum((m1 >> (b + 1)).bit_count()
                  for b in range(k) if m2 >> b & 1)
        row.append(0 if m1 & m2 else -1 if inv & 1 else 1)
    return tuple(row)


@cache
def _bary_power(k: int, e: int) -> tuple:
    """y_0**e = (1 - y_1 - ... - y_k)**e as (key, int) pairs."""
    if e == 0 or k == 0:
        return ((0, 1),)
    return tuple(Powers(PolyForm.coordinate(k, 0))[e]._num.items())


@cache
def _dx_image(targets: tuple, k: int) -> tuple:
    """dy_j wedged over j in ``targets``, in order, on the k-chart, as
    (dx mask, int) pairs; a None target makes it zero."""
    if None in targets:
        return ()
    f = PolyForm.one(k)
    for j in targets:
        f = f.wedge(PolyForm.dx(k, j))
    return tuple(f._num.items())


@cache
def _restrict_table(k: int, positions: tuple) -> tuple:
    """The ``affine_pullback`` table of the inclusion of the face through
    the vertex positions ``positions`` (strictly increasing, in 0..k) of
    the k-simplex: x_i goes to the face coordinate of its position, or to
    zero off the face."""
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError("positions must be strictly increasing")
    if positions and not (0 <= positions[0] and positions[-1] <= k):
        raise ValueError("positions out of range")
    pos_of = {p: j for j, p in enumerate(positions)}
    return tuple(pos_of.get(i) for i in range(1, k + 1))


@cache
def _term_image(key: int, target_k: int, table: tuple) -> tuple:
    """The image of the unit term with key ``key`` on the len(table)-chart
    under the ``affine_pullback`` table on the target_k-chart, as (key,
    int) pairs: bary shift outer, dx image inner.  Empty when a variable
    sent to zero carries a positive exponent or a dx maps to zero."""
    k = len(table)
    mono = [0] * target_k
    e0 = 0
    for s, j in zip(_shifts(k), table):
        e = key >> s & _DIGIT_MASK
        if j:
            mono[j - 1] += e
        elif j == 0:
            e0 += e
        elif e:
            return ()
    dxs = _dx_tuple(k, key & _low(k))
    dx_image = _dx_image(tuple(table[i - 1] for i in dxs), target_k)
    if not dx_image:
        return ()
    base, guard = _pack_exps(target_k, mono), _guard(target_k)
    out = []
    for shift, pc in _bary_power(target_k, e0):
        if (base + shift) & guard:
            raise _overflow(target_k, _exps(target_k, base + shift))
        out += [(base + shift + dd, pc * s) for dd, s in dx_image]
    return tuple(out)


def _form(k: int, num: dict, den: int = 1) -> "PolyForm":
    """The form on the k-chart with int numerators ``num`` (no zeros)
    over ``den`` > 0, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {key: c // g for key, c in num.items()}
    f = object.__new__(PolyForm)
    f.k, f._num, f._den = k, num, den
    return f


def _rational_form(k: int, coefs: dict) -> "PolyForm":
    """The form on the k-chart with rational coefficients ``coefs`` by
    key, zeros dropped."""
    coefs = {key: c for key, c in coefs.items() if c != 0}
    # over the lcm of the reduced denominators the numerators are
    # already coprime to it: lowest terms
    den = lcm(*(c.denominator for c in coefs.values()))
    return _form(k, {key: c.numerator * (den // c.denominator)
                     for key, c in coefs.items()}, den)


class PolyForm:
    """A polynomial differential form on the k-chart (see the module
    docstring for the packed term keys).  Immutable: every operation
    returns a new form, and the hash is computed once."""

    __slots__ = ("k", "_num", "_den", "_hash")

    def __init__(self, k: int, terms: Optional[dict] = None):
        """The form sum c x^e dx^D over ``terms`` {(e, D): c}: e a tuple
        of k nonnegative ints, D strictly increasing in 1..k, c rational.
        A term of any other shape raises ValueError."""
        f = _rational_form(k, {_key(k, key): qentry(c)
                               for key, c in (terms or {}).items()})
        self.k, self._num, self._den = k, f._num, f._den

    @property
    def terms(self) -> Mapping[Key, Fraction]:
        """The coefficients as Fractions, read-only, in storage order."""
        k, den = self.k, self._den
        return MappingProxyType({_unpack(k, key): Fraction(c, den)
                                 for key, c in self._num.items()})

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, k: int) -> "PolyForm":
        return _form(k, {})

    @classmethod
    def const(cls, k: int, c) -> "PolyForm":
        c = qentry(c)
        if c == 0:
            return _form(k, {})
        return _form(k, {0: c.numerator}, c.denominator)

    @classmethod
    def one(cls, k: int) -> "PolyForm":
        return _form(k, {0: 1})

    @classmethod
    def coordinate(cls, k: int, i: int) -> "PolyForm":
        """Barycentric coordinate x_i as a 0-form, i in 0..k."""
        if not 0 <= i <= k:
            raise ValueError(f"coordinate index {i} out of range 0..{k}")
        if i > 0:
            return _form(k, {1 << _shifts(k)[i - 1]: 1})
        # x_0 = 1 - x_1 - ... - x_k
        num = {0: 1}
        for s in _shifts(k):
            num[1 << s] = -1
        return _form(k, num)

    @classmethod
    def dx(cls, k: int, i: int) -> "PolyForm":
        """The differential dx_i, i in 0..k (dx_0 = -dx_1 - ... - dx_k)."""
        if not 0 <= i <= k:
            raise ValueError(f"dx index {i} out of range 0..{k}")
        if i > 0:
            return _form(k, {1 << (i - 1): 1})
        return _form(k, {1 << j: -1 for j in range(k)})

    # -- ring / module structure --------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyForm) and self.k == other.k \
            and self._den == other._den and self._num == other._num

    def __hash__(self):
        # equal forms are stored alike; the slot is unset until the
        # first call
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.k, self._den,
                               frozenset(self._num.items())))
            return self._hash

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if self.k != other.k:
            raise ValueError("chart dimension mismatch")
        a, b = self._den, other._den
        den = a if a == b else lcm(a, b)
        ma, mb = den // a, den // b
        out = dict(self._num) if ma == 1 else \
            {key: c * ma for key, c in self._num.items()}
        for key, c in other._num.items():
            v = out.get(key, 0) + c * mb
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
        return _form(self.k, out, den)

    def __neg__(self) -> "PolyForm":
        return _form(self.k, {key: -c for key, c in self._num.items()},
                     self._den)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def graded_involution(self) -> "PolyForm":
        """The form with its odd-degree parts negated: (-1)**r on r-forms."""
        low = _low(self.k)
        return _form(self.k, {key: (-c if (key & low).bit_count() & 1 else c)
                              for key, c in self._num.items()}, self._den)

    def scale(self, c) -> "PolyForm":
        c = qentry(c)
        p, q = c.numerator, c.denominator
        if p == 0:
            return _form(self.k, {})
        return _form(self.k, {key: p * v for key, v in self._num.items()},
                     self._den * q)

    def wedge(self, other: "PolyForm") -> "PolyForm":
        k = self.k
        if k != other.k:
            raise ValueError("chart dimension mismatch")
        low, guard = _low(k), _guard(k)
        out: dict[int, int] = {}
        get, pop = out.get, out.pop
        right = list(other._num.items())
        for k1, c1 in self._num.items():
            row = _sign_row(k, k1 & low)
            for k2, c2 in right:
                sign = row[k2 & low]
                if sign:
                    key = k1 + k2
                    if key & guard:
                        raise _overflow(k, _exps(k, key))
                    v = get(key, 0) + sign * c1 * c2
                    if v == 0:
                        pop(key, None)
                    else:
                        out[key] = v
        return _form(k, out, self._den * other._den)

    def d(self) -> "PolyForm":
        k = self.k
        low = _low(k)
        # per variable: its digit, its dx bit, and the signs of that dx
        # wedged on the left of each dx mask
        units = [(s, 1 << i, _sign_row(k, 1 << i))
                 for i, s in enumerate(_shifts(k))]
        out: dict[int, int] = {}
        for key, c in self._num.items():
            mask = key & low
            for s, dx, signs in units:
                e = key >> s & _DIGIT_MASK
                sign = signs[mask]
                if e == 0 or sign == 0:
                    continue
                dkey = key - (1 << s) + dx
                v = out.get(dkey, 0) + sign * c * e
                if v == 0:
                    out.pop(dkey, None)
                else:
                    out[dkey] = v
        return _form(k, out, self._den)

    # -- structure queries ---------------------------------------------

    def form_degrees(self) -> set[int]:
        low = _low(self.k)
        return {(key & low).bit_count() for key in self._num}

    def degree_part(self, r: int) -> "PolyForm":
        low = _low(self.k)
        return _form(self.k, {key: c for key, c in self._num.items()
                              if (key & low).bit_count() == r}, self._den)

    def is_homogeneous(self, r: int) -> bool:
        low = _low(self.k)
        return all((key & low).bit_count() == r for key in self._num)

    def poly_degree(self) -> int:
        """Maximal total exponent degree appearing (0 for the zero form)."""
        return max((sum(_exps(self.k, key)) for key in self._num), default=0)

    def vanishes_on_facet(self, j: int) -> bool:
        """Whether every coefficient vanishes at the points of the facet
        omitting vertex position ``j``, normal components included.

        For j >= 1 the facet is the hyperplane x_j = 0, so each term must
        carry a positive power of x_j.  For j = 0 it is x_1 + ... + x_k
        = 1, parametrised by the table [0, 1, ..., k-1]; the coefficient
        polynomial of each dx tuple must restrict to zero there.  (A
        chart making this facet a coordinate hyperplane changes the dx
        basis by an invertible constant map, so that is the same test.)
        """
        k = self.k
        if j >= 1:
            s = _shifts(k)[j - 1]
            return all(key >> s & _DIGIT_MASK for key in self._num)
        low = _low(k)
        coefs: dict[int, dict] = {}
        for key, c in self._num.items():
            coefs.setdefault(key & low, {})[key & ~low] = c
        facet = tuple(range(k))
        return all(_form(k, num).affine_pullback(k - 1, facet).is_zero()
                   for num in coefs.values())

    def value_at(self, point: Sequence):
        """Value of a 0-form at a chart point: its numerators summed
        there, divided once by its denominator (``qdiv``)."""
        pt = [qentry(p) for p in point]
        if len(pt) != self.k:
            raise ValueError("point has wrong dimension")
        if not self.is_homogeneous(0):
            raise ValueError("value_at needs a 0-form")
        total = 0
        for key, c in self._num.items():
            for x, e in zip(pt, _exps(self.k, key)):
                if e:
                    c *= x ** e
            total += c
        return qdiv(total.numerator, total.denominator * self._den)

    # -- pullbacks -------------------------------------------------------

    def pullback(self, target_k: int, images: dict[int, "PolyForm"]) -> "PolyForm":
        """Substitute x_i by the given 0-forms on a target chart.

        ``images[i]`` (for i = 1..k) is the pullback of the coordinate
        x_i; differentials map along d(images[i]).
        """
        k = self.k
        powers = {i: Powers(f) for i, f in images.items()}
        out = PolyForm.zero(target_k)
        for key, c in self._num.items():
            acc = _form(target_k, {0: c})
            for i, e in enumerate(_exps(k, key), start=1):
                if e:
                    acc = acc.wedge(powers[i][e])
                    if acc.is_zero():
                        break
            if acc.is_zero():
                continue
            for i in _dx_tuple(k, key & _low(k)):
                acc = acc.wedge(powers[i].d)
                if acc.is_zero():
                    break
            out = out + acc
        return _form(target_k, out._num, out._den * self._den)

    def restrict(self, positions: Sequence[int]) -> "PolyForm":
        """Restrict along the face inclusion picking the given vertex positions.

        ``positions`` is a strictly increasing tuple in 0..k naming which
        vertices of the source simplex the target simplex runs through;
        the result is a form on the standard simplex of dimension
        ``len(positions) - 1``.  The empty face has no points, so every
        form restricts to zero on it.
        """
        positions = tuple(positions)
        if not positions:
            return PolyForm.zero(-1)
        return self.affine_pullback(len(positions) - 1,
                                    _restrict_table(self.k, positions))

    def affine_pullback(self, target_k: int,
                        table: Sequence[Optional[int]]) -> "PolyForm":
        """Pull back along an affine map sending each chart variable to a
        barycentric coordinate of the target chart or to zero.

        ``table[i - 1]`` is j in 0..target_k when x_i pulls back to the
        target coordinate y_j, with y_0 = 1 - y_1 - ... - y_target_k, and
        None when x_i pulls back to zero; dx_i maps the matching way.
        The result equals ``pullback`` with those coordinate images.
        Each term's image comes from ``_term_image``, built once per
        (term, target chart, table) in the process.
        """
        table = tuple(table)
        out: dict[int, int] = {}
        for key, c in self._num.items():
            for tkey, m in _term_image(key, target_k, table):
                v = out.get(tkey, 0) + c * m
                if v == 0:
                    out.pop(tkey, None)
                else:
                    out[tkey] = v
        return _form(target_k, out, self._den)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for (exps, dxs), c in sorted(self.terms.items()):
            mono = {str(i + 1): e for i, e in enumerate(exps) if e}
            terms.append({"mono": mono, "dx": list(dxs), "coeff": str(c)})
        return {"k": self.k, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "PolyForm":
        qkeys(data, ("k", "terms"), "a form")
        k = qint(data["k"])
        chart = range(1, k + 1)
        # a variable key is the decimal ``to_json`` writes, so that two
        # keys never name one variable
        variable = {str(i): i for i in chart}
        terms = {}
        for t in data["terms"]:
            qkeys(t, ("mono", "dx", "coeff"), "a form term")
            mono = {variable.get(var): qint(e)
                    for var, e in t["mono"].items()}
            dxs = tuple(qint(i) for i in t["dx"])
            if not (all(v is not None and e >= 0 for v, e in mono.items())
                    and all(i in chart for i in dxs)
                    and list(dxs) == sorted(set(dxs))):
                raise ValueError(f"term {t} is not a form on a {k}-chart")
            key = (tuple(mono.get(i, 0) for i in chart), dxs)
            if key in terms:
                raise ValueError(f"term {t} repeats an earlier term's "
                                 f"monomial and dx")
            terms[key] = qentry(t["coeff"])
        return cls(k, terms)

    def __repr__(self):
        if not self._num:
            return f"PolyForm({self.k}, 0)"
        bits = []
        for (exps, dxs), c in sorted(self.terms.items()):
            mono = "".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                           for i, e in enumerate(exps) if e)
            dx = "".join(f"dx{i}" for i in dxs)
            bits.append(f"{c}*{mono or '1'}{('∧' + dx) if dx else ''}")
        return f"PolyForm({self.k}, {' + '.join(bits)})"


class Powers:
    """The powers p**0, p**1, ... of one 0-form ``p``, each built once by
    repeated wedge, and the differential dp."""

    __slots__ = ("base", "d", "_pw")

    def __init__(self, p: PolyForm):
        self.base = p
        self.d = p.d()
        self._pw = [PolyForm.one(p.k)]

    def __getitem__(self, n: int) -> PolyForm:
        pw = self._pw
        while len(pw) <= n:
            pw.append(pw[-1].wedge(self.base))
        return pw[n]


class RatioPullback:
    """Pullbacks along x_i -> N_i / Q, each piece built once per distinct
    input: one ``Powers`` per denominator Q, and per (Q, numerators) the
    powers of each N_i, the numerators Q dN_i - N_i dQ of the images of
    the dx_i, and the image of each basis term.

    Equal forms share the pieces, so a partition whose simplices of one
    dimension carry the same Q and N_i builds them once for all of them.
    The memos are keyed on forms: an object serves one walk and goes
    with it.
    """

    __slots__ = ("_powers", "_subs")

    def __init__(self):
        self._powers: dict[PolyForm, Powers] = {}
        self._subs: dict[tuple, tuple] = {}   # (Q, nums) -> pieces

    def powers(self, den: PolyForm) -> Powers:
        """The powers of ``den``, built once per object."""
        pw = self._powers.get(den)
        if pw is None:
            pw = self._powers[den] = Powers(den)
        return pw

    def pullback(self, forms: Sequence[PolyForm], nums: Sequence[PolyForm],
                 den: PolyForm) -> list[tuple[PolyForm, int]]:
        """Pull ``forms`` back along x_i -> nums[i - 1] / Q, Q = ``den``,
        onto Q's chart.

        A term c x^e dx^D pulls back to

            c N^e ∧_{i in D} (Q dN_i - N_i dQ) / Q^(|e| + 2|D|),

        so each form comes out over its own Q^top, with top the largest
        |e| + 2|D| among its own terms, and the numerator of each term
        carries the remaining power of Q.  Returns one (numerator, top)
        pair per form, in the order of ``forms``.  Each form's int
        numerators scale the basis-term images, and its denominator
        divides the sum once.
        """
        q = self.powers(den)
        nums = tuple(nums)
        pieces = self._subs.get((den, nums))
        if pieces is None:
            npow = [Powers(n) for n in nums]
            dimg = [q.base.wedge(pw.d) - pw.base.wedge(q.d) for pw in npow]
            pieces = self._subs[(den, nums)] = npow, dimg, {}
        npow, dimg, images = pieces
        k, target_k = len(nums), den.k
        low = _low(k)
        out = []
        for p in forms:
            by_weight: dict[int, PolyForm] = {}   # |e| + 2|D| -> sum of images
            for key, coef in p._num.items():
                image = images.get(key)
                if image is None:
                    exps = _exps(k, key)
                    dxs = _dx_tuple(k, key & low)
                    f = PolyForm.one(target_k)
                    for i, e in enumerate(exps):
                        if e:
                            f = f.wedge(npow[i][e])
                    for i in dxs:
                        f = f.wedge(dimg[i - 1])
                    image = images[key] = f, sum(exps) + 2 * len(dxs)
                f, w = image
                term = f.scale(coef)
                by_weight[w] = by_weight[w] + term if w in by_weight else term
            top = max(by_weight, default=0)
            num = PolyForm.zero(target_k)
            for w, f in by_weight.items():
                num = num + (f if w == top else q[top - w].wedge(f))
            out.append((_form(target_k, num._num, num._den * p._den), top))
        return out


# ---------------------------------------------------------------------------
# extension from boundary data
# ---------------------------------------------------------------------------

def _common_face_check(k: int, data: Sequence[PolyForm]):
    """Pairwise codim-2 compatibility of facet data on the k-simplex.

    Facet j carries a form on the (k-1)-simplex through vertices
    0..ĵ..k.  For i < j the common face omits both i and j: inside
    facet i it omits position j - 1, inside facet j position i, and the
    two restrictions must agree exactly.
    """
    if k < 2:
        return  # the facets of an edge are disjoint vertices
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            ri = data[i].restrict(facet_positions(k - 1, j - 1))
            rj = data[j].restrict(facet_positions(k - 1, i))
            if ri != rj:
                raise IncompatibleBoundaryData(
                    f"facets {i} and {j} disagree on their common face",
                    (i, j))


def _monomials_upto(k: int, deg: int):
    if k == 0:
        yield ()
        return
    for d0 in range(deg + 1):
        for rest in _monomials_upto(k - 1, deg - d0):
            yield (d0,) + rest


def _dx_tuples(k: int, r: int):
    return list(combinations(range(1, k + 1), r))


def extend_from_boundary(k: int, data: Sequence[PolyForm]) -> PolyForm:
    """Extend compatible facet data to a form on the k-simplex.

    ``data[j]`` is the prescribed restriction to facet j (omitting
    vertex j), as a form on the standard (k-1)-simplex.  The extension
    is found by solving for polynomial coefficients: the ansatz degree
    starts at the largest degree present in the data and escalates one
    step at a time, so the result has minimal ansatz degree, and free
    coefficients are zeroed, making the output deterministic.

    The solve decides whether the data extend: an extension restricts
    to each facet's data, so facet data that clash on a common face
    have none.  Only when a degree part fails does the common-face check
    run, on the full data, to name the clashing facet pair: it raises
    ``IncompatibleBoundaryData`` when facet restrictions clash on a
    codimension-2 face.  Otherwise the part's own ``CheckFailed`` (no
    extension up to the degree ceiling, or ``ExponentOverflow``) stands.
    """
    if len(data) != k + 1:
        raise ValueError(f"need {k + 1} facet forms, got {len(data)}")
    for j, f in enumerate(data):
        if f.k != k - 1:
            raise ValueError(f"facet {j} data has chart dim {f.k}, want {k - 1}")

    degrees = sorted(set().union(*[f.form_degrees() for f in data]) or {0})
    d0 = max(f.poly_degree() for f in data)
    ceiling = d0 + k + EXTENSION_HEADROOM

    total = PolyForm.zero(k)
    try:
        for r in degrees:
            part = _extend_homogeneous(k, [f.degree_part(r) for f in data], r,
                                       d0, ceiling)
            total = total + part
    except CheckFailed:
        _common_face_check(k, data)
        raise
    return total


@cache
def _extension_operator(k: int, r: int, deg: int):
    """The ``solution_operator`` of the extension system for r-forms of
    polynomial degree at most ``deg`` on the k-simplex: one column per
    basis term (monomial outer, dx tuple inner), one row per (facet j,
    term of the restriction to facet j), all keyed by packed keys.  It
    depends on the shape alone, so it is eliminated once per shape."""
    masks = [_mask(dd) for dd in _dx_tuples(k, r)]
    cols = [_pack_exps(k, mono) + m for mono in _monomials_upto(k, deg)
            for m in masks]
    rows: dict[tuple, dict[int, int]] = {}
    for j in range(k + 1):
        positions = facet_positions(k, j)
        for key in cols:
            for tkey, c in _form(k, {key: 1}).restrict(positions)._num.items():
                rows.setdefault((j, tkey), {})[key] = c
    return solution_operator(rows, cols)


def _extend_homogeneous(k: int, data: Sequence[PolyForm], r: int,
                        d0: int, ceiling: int) -> PolyForm:
    if all(f.is_zero() for f in data):
        return PolyForm.zero(k)
    rhs = {(j, tkey): qdiv(c, data[j]._den) for j in range(k + 1)
           for tkey, c in data[j]._num.items()}
    for deg in range(d0, ceiling + 1):
        x = apply_operator(_extension_operator(k, r, deg), rhs)
        if x is not None:
            return _rational_form(k, x)
    raise CheckFailed(
        f"no degree <= {ceiling} extension for form degree {r} on the {k}-simplex")


# ---------------------------------------------------------------------------
# contraction operator (Poincaré lemma)
# ---------------------------------------------------------------------------

def poincare_contract(omega: PolyForm, apex: Optional[Sequence] = None) -> PolyForm:
    """Contract along the straight-line homotopy onto ``apex``.

    With H(t, x) = A + t(x - A) this returns the t-integral of the
    dt-part of H*omega, a form one degree lower.  For r >= 1 one has
    d(contract(w)) + contract(dw) = w, and for a 0-form f the identity
    contract(df) = f - f(A).
    """
    k = omega.k
    if apex is None:
        apex = [0] * k
    A = [qentry(a) for a in apex]
    if len(A) != k:
        raise ValueError("apex has wrong dimension")

    # Work in an auxiliary chart with one extra variable t (index k+1):
    # substitute x_i -> A_i + t*(x_i - A_i), dx_i -> (x_i - A_i) dt + t dx_i,
    # then integrate the dt-coefficient over t in [0, 1].
    kk = k + 1
    t_var = kk  # dx index of t in the auxiliary chart
    subs: dict[int, PolyForm] = {}
    for i in range(1, k + 1):
        xi = PolyForm(kk, {(tuple(1 if j == i - 1 else 0 for j in range(kk)), ()): Q(1)})
        t = PolyForm(kk, {(tuple(1 if j == kk - 1 else 0 for j in range(kk)), ()): Q(1)})
        subs[i] = PolyForm.const(kk, A[i - 1]) + t.wedge(xi - PolyForm.const(kk, A[i - 1]))
    pulled = omega.pullback(kk, subs)

    out = PolyForm.zero(k)
    for (exps, dxs), c in pulled.terms.items():
        if t_var not in dxs:
            continue
        pos = dxs.index(t_var)
        rest = dxs[:pos] + dxs[pos + 1:]
        sign = (-1) ** pos  # move dt to the front
        t_exp = exps[kk - 1]
        # exact integral of t^m over [0,1]
        coeff = qdiv(sign * c.numerator, c.denominator * (t_exp + 1))
        key = (exps[:k], rest)
        out = out + PolyForm(k, {key: coeff})
    return out
