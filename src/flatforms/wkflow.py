"""The canonical downward flows on standard simplices.

The k-simplex carries the quadratic vector field

    W(x)_m = x_m * (sum_{i<m} x_i - sum_{i>m} x_i)

in barycentric coordinates.  Every face is invariant, the vertices are
the equilibria, and the weighted height h(x) = sum_m m * x_m strictly
increases along nonconstant trajectories.  The closed-form limit data
(smallest / largest index carrying mass) is exact; numerical
integration is used only to simulate trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .linalg import Q


class NoConvergence(Exception):
    pass


BaryPoint = tuple  # length k+1, entries summing to 1


def wk_eval(k: int, x):
    """Evaluate the field at a barycentric point.

    Exact when given Fractions, floating point when given floats.

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


def lyapunov_rate(k: int, x):
    """Instantaneous increase of h(x) = sum_m m*x_m along the flow.

    Equals sum_{i<j} (j - i) x_i x_j, hence is nonnegative on the
    simplex and zero exactly at the vertices.
    """
    v = wk_eval(k, x)
    return sum(m * v[m] for m in range(k + 1))


def height(k: int, x):
    return sum(m * x[m] for m in range(k + 1))


def support(x, tol=0):
    """Indices with coordinate mass above ``tol``."""
    return [m for m, c in enumerate(x) if c > tol]


def classify_limits(x, tol=0) -> tuple[int, int]:
    """Exact (backward, forward) limit vertices of the trajectory through x.

    The backward limit is the smallest index in the support, the forward
    limit the largest.
    """
    supp = support(x, tol)
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


@dataclass
class Trajectory:
    k: int
    times: np.ndarray
    points: np.ndarray  # shape (len(times), k+1)
    limit: tuple | None = None
    backward: bool = False


def flow(k: int, start, backward: bool = False, t_max: float = 200.0,
         speed_floor: float = 1e-10, rtol: float = 1e-9, atol: float = 1e-12
         ) -> Trajectory:
    """Integrate the flow from ``start`` until the speed drops below floor.

    Raises ``NoConvergence`` when the trajectory has not settled by
    ``t_max``.  ``backward=True`` integrates the time-reversed field.
    """
    x0 = np.asarray([float(c) for c in start], dtype=float)
    if len(x0) != k + 1:
        raise ValueError(f"expected {k + 1} coordinates")
    if np.any(x0 < -1e-12) or abs(x0.sum() - 1.0) > 1e-9:
        raise ValueError("start is not a barycentric point")
    sign = -1.0 if backward else 1.0

    def rhs(_t, x):
        return sign * np.asarray(wk_eval(k, x), dtype=float)

    def settled(_t, x):
        return float(np.linalg.norm(np.asarray(wk_eval(k, x), dtype=float))) - speed_floor

    settled.terminal = True
    settled.direction = -1

    sol = solve_ivp(rhs, (0.0, t_max), x0, method="RK45",
                    events=settled, rtol=rtol, atol=atol, max_step=1.0)
    pts = sol.y.T
    converged = bool(sol.t_events[0].size) or \
        float(np.linalg.norm(rhs(0.0, pts[-1]))) <= speed_floor
    if not converged:
        raise NoConvergence(
            f"speed still {np.linalg.norm(rhs(0.0, pts[-1])):.3e} at t={t_max}")
    final = np.clip(pts[-1], 0.0, None)
    final = final / final.sum()
    return Trajectory(k=k, times=sol.t, points=pts, limit=tuple(final),
                      backward=backward)


def nearest_vertex(point, tol=1e-6):
    """Index of the vertex the point lies within ``tol`` of, else None."""
    p = np.asarray(point, dtype=float)
    m = int(p.argmax())
    e = np.zeros_like(p)
    e[m] = 1.0
    if float(np.abs(p - e).max()) <= tol:
        return m
    return None
