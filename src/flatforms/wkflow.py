"""The canonical downward flows on standard simplices, in closed form.

The k-simplex carries the quadratic vector field

    W(x)_m = x_m * (sum_{i<m} x_i - sum_{i>m} x_i)

in barycentric coordinates.  It is the replicator equation for the
antisymmetric payoff A[m][i] = sign(m - i) (Hofbauer & Sigmund,
*Evolutionary Games and Population Dynamics*, 1998), so x^T A x = 0 and
the mass sum_m x_m is conserved.  Every face is invariant, the vertices
are the equilibria, and the weighted height h(x) = sum_m m * x_m
strictly increases along nonconstant trajectories.

The flow is solved exactly.  On sum x = 1 the field is
W_m = x_m (P_{m-1} + P_m - 1) for the prefix sums P_m = x_0 + ... + x_m,
and the products x_j (P_j + P_{j-1}) = P_j^2 - P_{j-1}^2 telescope, so
each prefix sum follows its own logistic equation

    P_m' = P_m^2 - P_m.

With s = e^-t and P = P_m(0), forward in time P_m(s) = P s / (P s + 1 - P)
and backward P_m(s) = P / (P + (1 - P) s); a prefix sum of 0 or 1 stays
put, and the top one is always 1.  Forward every P_m < 1 falls to 0 as
s -> 0, so the trajectory ends at the vertex of the largest index in the
support, and backward every P_m > 0 rises to 1, so it ends at the
smallest.  The height h = k - sum_{m<k} P_m moves with the P_m, strictly
unless the start is a vertex.

A point is a pair ``(w, n)``: k + 1 int weights ``w`` over one positive
int denominator ``n``, so that x_m = w_m / n.  Every function here works
on that pair in int arithmetic, and nothing in this module builds a
Fraction or rounds: Fractions appear only where the command line reads
a point from text.  With the prefix sums S_m of ``w`` and s = a / b,
``flow`` moves S_m / n forward to S a / (S a + (n - S) b) and
backward to S b / (S b + (n - S) a), and puts the point over the lcm of
those denominators, which is n itself at s = 0.  The checks are int
identities: the field is homogeneous of degree 2, so ``logistic_law``
compares the prefix sums of ``wk_eval(k, w)`` with S_m^2 - S_m n, and
``height_monotone`` compares heights over their denominators by
cross-multiplying.

A sweep starts from exact points: ``sweep_starts`` draws k + 1 ints in
1..2^30 from ``random.Random(seed)`` and puts them over their sum, so
every start is a barycentric point with positive coordinates
(``is_barycentric``, the check that ``flow --start`` applies too) and
re-runs as printed under ``--start``.
"""

from __future__ import annotations

import random
from itertools import accumulate
from math import gcd, lcm

# ``flow --start`` reports the points at s = 2^-j for j = 0..SCHEDULE
SCHEDULE = 20

# sweep starts are ints in 1..2^SWEEP_BITS over their sum
SWEEP_BITS = 30


def wk_eval(k: int, x):
    """Evaluate the field at the coordinates ``x``, exactly.

    The field is homogeneous of degree 2, so at the weights ``w`` of a
    point (w, n) it is n^2 times the field at w / n.

    Parameters
    ----------
    k : simplex dimension
    x : sequence of k+1 coordinates (ints or Fractions)

    Returns
    -------
    tuple of k+1 derivatives (same arithmetic as the input)
    """
    if len(x) != k + 1:
        raise ValueError(f"expected {k + 1} coordinates, got {len(x)}")
    prefix = 0
    total = sum(x)
    out = []
    for m in range(k + 1):
        suffix = total - prefix - x[m]
        out.append(x[m] * (prefix - suffix))
        prefix = prefix + x[m]
    return tuple(out)


def flow(point, s, backward: bool = False):
    """The point (w, n) at s = e^-t of the trajectory through ``point``,
    t >= 0 forward in time or, with ``backward``, back in time, for an
    exact rational s in [0, 1] (an int or a Fraction); s = 0 gives the
    limit.  Each prefix sum strictly between 0 and n follows its
    logistic curve, in lowest terms, and one of 0 or n stays put over n
    (at s = 0 the formula would read 0/0 there)."""
    w, n = point
    a, b = s.numerator, s.denominator
    if backward:
        a, b = b, a
    sums = []
    for p in accumulate(w):
        if 0 < p < n:
            num = p * a
            den = num + (n - p) * b
            g = gcd(num, den)
            sums.append((num // g, den // g))
        else:
            sums.append((p, n))
    total = lcm(*(den for _num, den in sums))
    out = []
    before = 0
    for num, den in sums:
        scaled = num * (total // den)
        out.append(scaled - before)
        before = scaled
    return out, total


def logistic_law(k: int, point) -> bool:
    """Whether the prefix sums of the field at ``point`` = (w, n) equal
    P_m^2 - P_m for the prefix sums P_m = S_m / n of the point, the
    logistic law that ``flow`` solves: in ints, whether the prefix sums
    of ``wk_eval(k, w)`` equal S_m^2 - S_m n."""
    w, n = point
    return all(f == p * p - p * n for f, p in zip(accumulate(wk_eval(k, w)),
                                                  accumulate(w)))


def lyapunov_rate(k: int, x):
    """Instantaneous increase of h(x) = sum_m m*x_m along the flow.

    Equals sum_{i<j} (j - i) x_i x_j, hence is nonnegative on the
    simplex and zero exactly at the vertices.  Like the field it is
    homogeneous of degree 2 in ``x``.
    """
    v = wk_eval(k, x)
    return sum(m * v[m] for m in range(k + 1))


def height(k: int, w):
    """sum_m m * w_m: the height of the point (w, n) times n."""
    return sum(m * w[m] for m in range(k + 1))


def height_monotone(k: int, path, backward: bool = False) -> bool:
    """Whether the height rises strictly along the points (w, n) of
    ``path`` (falls, with ``backward``), or stays constant on a path
    that starts at a vertex."""
    heights = [(height(k, w), n) for w, n in path]
    if vertex_index(path[0]) is not None:
        h0, n0 = heights[0]
        return all(h * n0 == h0 * n for h, n in heights)
    if backward:
        heights.reverse()
    return all(h * m < g * n for (h, n), (g, m) in zip(heights, heights[1:]))


def is_barycentric(point) -> bool:
    """Whether the weights of ``point`` = (w, n) are nonnegative and sum
    to exactly n."""
    w, n = point
    return sum(w) == n and all(c >= 0 for c in w)


def sweep_starts(k: int, count: int, seed: int) -> list[tuple[list[int], int]]:
    """``count`` exact starts on the k-simplex from the generator seeded
    with ``seed``: each is k + 1 ints drawn from 1..2^SWEEP_BITS over
    their sum, so every start is a barycentric point with positive
    coordinates."""
    rng = random.Random(seed)
    starts = []
    for _ in range(count):
        weights = [rng.randint(1, 2 ** SWEEP_BITS) for _ in range(k + 1)]
        starts.append((weights, sum(weights)))
    return starts


def support(point):
    """Indices with positive weight in ``point`` = (w, n)."""
    return [m for m, c in enumerate(point[0]) if c > 0]


def vertex_index(point):
    """The index m when the barycentric ``point`` is the vertex e_m,
    else None."""
    supp = support(point)
    return supp[0] if len(supp) == 1 else None


def classify_limits(point) -> tuple[int, int]:
    """Exact (backward, forward) limit vertices of the trajectory
    through ``point``.

    The backward limit is the smallest index in the support, the forward
    limit the largest.
    """
    supp = support(point)
    if not supp:
        raise ValueError("point has empty support")
    return supp[0], supp[-1]


def vertex_linearization(k: int, m: int):
    """Linearization of the field at vertex m in the reduced chart.

    Eliminating x_m leaves chart coordinates (x_i)_{i != m}.  Since
    xdot_i = x_i * (sum_{t<i} x_t - sum_{t>i} x_t) and x_i vanishes at
    the vertex, d(xdot_i)/dx_j there is zero for j != i and the bracket,
    sign(i - m), for j == i: the Jacobian is that diagonal, exactly.

    Returns
    -------
    (jacobian, n_stable, n_unstable) : the k-by-k integer diagonal
        matrix plus the counts of negative and positive eigenvalues;
        n_stable == m always.
    """
    if not 0 <= m <= k:
        raise ValueError(f"vertex {m} out of range 0..{k}")
    others = [i for i in range(k + 1) if i != m]
    jac = [[0] * k for _ in range(k)]
    for a, i in enumerate(others):
        jac[a][a] = 1 if i > m else -1
    n_stable = sum(1 for a in range(k) if jac[a][a] < 0)
    n_unstable = sum(1 for a in range(k) if jac[a][a] > 0)
    return jac, n_stable, n_unstable


def face_restriction_check(k: int, positions) -> bool:
    """The field restricted to a face equals the face's own field (exact).

    ``positions`` lists the surviving barycentric indices; sampled at
    the weights of the barycenter and of the point with weights 1..kk+1
    (the field is homogeneous, so weights stand for the points).
    """
    positions = list(positions)
    kk = len(positions) - 1
    samples = [[1] * (kk + 1)]
    if kk >= 1:
        samples.append(list(range(1, kk + 2)))
    for y in samples:
        x = [0] * (k + 1)
        for j, p in enumerate(positions):
            x[p] = y[j]
        big = wk_eval(k, x)
        small = wk_eval(kk, y)
        if any(big[p] != small[j] for j, p in enumerate(positions)):
            return False
        if any(big[i] != 0 for i in range(k + 1) if i not in positions):
            return False
    return True
