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
put, and the top one is always 1.  ``flow`` gives the point at any
rational s in [0, 1] as Fractions, s = 0 being the limit: forward every
P_m < 1 falls to 0, so the trajectory ends at the vertex of the largest
index in the support, and backward every P_m > 0 rises to 1, so it ends
at the smallest.  The height h = k - sum_{m<k} P_m moves with the P_m,
strictly unless the start is a vertex.  ``logistic_law`` checks the
closed form against the field itself at a point.  Nothing in this
module rounds: every value is a Fraction and every check is exact.

A sweep starts from exact points: ``sweep_starts`` draws k + 1 ints in
1..2^30 from ``random.Random(seed)`` and divides each by their sum, so
every start is a barycentric point with positive coordinates
(``is_barycentric``, the check that ``flow --start`` applies too) and
re-runs as printed under ``--start``.
"""

from __future__ import annotations

import random
from itertools import accumulate

from .linalg import Q

# ``flow --start`` reports the points at s = 2^-j for j = 0..SCHEDULE
SCHEDULE = 20

# sweep starts are ints in 1..2^SWEEP_BITS over their sum
SWEEP_BITS = 30


def wk_eval(k: int, x):
    """Evaluate the field at a barycentric point, exactly on Fractions.

    Parameters
    ----------
    k : simplex dimension
    x : sequence of k+1 barycentric coordinates

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


def flow(x, s, backward: bool = False) -> list[Q]:
    """The point at s = e^-t of the trajectory through the barycentric
    point ``x``, t >= 0 forward in time or, with ``backward``, back in
    time; s = 0 gives the limit.  Each prefix sum strictly between 0 and
    1 follows its logistic curve, and one of 0 or 1 stays put (at s = 0
    the formula would read 0/0 there)."""
    out = []
    before = 0
    for p in accumulate(x):
        if 0 < p < 1:
            p = p / (p + (1 - p) * s) if backward else p * s / (p * s + 1 - p)
        out.append(p - before)
        before = p
    return out


def logistic_law(k: int, x) -> bool:
    """Whether the prefix sums of the field at ``x`` equal P_m^2 - P_m,
    the logistic law that ``flow`` solves, for the prefix sums P_m of
    ``x``."""
    return all(w == p * p - p for w, p in zip(accumulate(wk_eval(k, x)),
                                              accumulate(x)))


def lyapunov_rate(k: int, x):
    """Instantaneous increase of h(x) = sum_m m*x_m along the flow.

    Equals sum_{i<j} (j - i) x_i x_j, hence is nonnegative on the
    simplex and zero exactly at the vertices.
    """
    v = wk_eval(k, x)
    return sum(m * v[m] for m in range(k + 1))


def height(k: int, x):
    return sum(m * x[m] for m in range(k + 1))


def height_monotone(k: int, path, backward: bool = False) -> bool:
    """Whether the height rises strictly along the points of ``path``
    (falls, with ``backward``), or stays constant on a path that starts
    at a vertex."""
    heights = [height(k, x) for x in path]
    if vertex_index(path[0]) is not None:
        return len(set(heights)) == 1
    if backward:
        heights.reverse()
    return all(a < b for a, b in zip(heights, heights[1:]))


def is_barycentric(x) -> bool:
    """Whether the exact coordinates ``x`` are nonnegative and sum to
    exactly 1."""
    return sum(x) == 1 and all(c >= 0 for c in x)


def sweep_starts(k: int, count: int, seed: int) -> list[list[Q]]:
    """``count`` exact starts on the k-simplex from the generator seeded
    with ``seed``: each is k + 1 ints drawn from 1..2^SWEEP_BITS, each
    divided by their sum, so every start is a barycentric point with
    positive coordinates."""
    rng = random.Random(seed)
    starts = []
    for _ in range(count):
        weights = [rng.randint(1, 2 ** SWEEP_BITS) for _ in range(k + 1)]
        total = sum(weights)
        starts.append([Q(w, total) for w in weights])
    return starts


def support(x):
    """Indices with positive coordinate mass."""
    return [m for m, c in enumerate(x) if c > 0]


def vertex_index(x):
    """The index m when the barycentric point ``x`` is the vertex e_m,
    else None."""
    supp = support(x)
    return supp[0] if len(supp) == 1 else None


def classify_limits(x) -> tuple[int, int]:
    """Exact (backward, forward) limit vertices of the trajectory through x.

    The backward limit is the smallest index in the support, the forward
    limit the largest.
    """
    supp = support(x)
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
    exact rational points.
    """
    positions = list(positions)
    kk = len(positions) - 1
    samples = []
    base = [Q(1, kk + 1)] * (kk + 1) if kk >= 0 else []
    samples.append(base)
    if kk >= 1:
        t = [Q(i + 1) for i in range(kk + 1)]
        s = sum(t)
        samples.append([ti / s for ti in t])
    for y in samples:
        x = [Q(0)] * (k + 1)
        for j, p in enumerate(positions):
            x[p] = y[j]
        big = wk_eval(k, x)
        small = wk_eval(kk, y)
        if any(big[p] != small[j] for j, p in enumerate(positions)):
            return False
        if any(big[i] != 0 for i in range(k + 1) if i not in positions):
            return False
    return True
