"""The canonical downward flows on standard simplices.

The k-simplex carries the quadratic vector field

    W(x)_m = x_m * (sum_{i<m} x_i - sum_{i>m} x_i)

in barycentric coordinates.  It is the replicator equation for the
antisymmetric payoff A[m][i] = sign(m - i) (Hofbauer & Sigmund,
*Evolutionary Games and Population Dynamics*, 1998), so x^T A x = 0 and
the mass sum_m x_m is conserved.  Every face is invariant, the vertices
are the equilibria, and the weighted height h(x) = sum_m m * x_m
strictly increases along nonconstant trajectories.  The closed-form
limit data (smallest / largest index carrying mass) is exact, and so is
``wk_eval`` on Fractions; numerical integration is used only to
simulate trajectories.

Trajectories are simulated by one integrator, ``flow_batch``: the
Dormand-Prince RK45 pair (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, II.4-5) in numpy, advancing a whole batch of
starts per loop iteration.  Every row keeps its own step size, RMS error
norm and accept/reject decision, with the fixed RTOL = 1e-9,
ATOL = 1e-12 and steps of at most MAX_STEP = 1.0.  A row stops when its
speed |W(x)| falls through SPEED_FLOOR = 1e-10 (the crossing is located
on that step's dense output) or at ``t_max``, 200 by default; a single
trajectory is a batch of one.  Each loop iteration makes the same float
operations in the same order as a plain transcription of the method
(``wk_field`` is one cumulative sum and a few in-place updates of one
buffer, stage sums are built in place, the heights are one accumulate
of the weighted coordinates), and skips the per-row selections where
every row was accepted or none retried or finished.

A sweep starts from exact points: ``sweep_starts`` rounds each standard
exponential that ``rng.dirichlet(np.ones(k + 1))`` would draw up to a
positive multiple of 2^-30 and divides the row by its sum over Q, so
every start is a barycentric point (``is_barycentric``, the check that
``flow --start`` applies too) and re-runs as printed under ``--start``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Q


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


def wk_field(x: np.ndarray) -> np.ndarray:
    """The field at every row of an (n, k+1) float array.

    Same operations in the same order as ``wk_eval``, so each row equals
    ``wk_eval`` on it: the running prefix sums, the total as the last
    prefix plus the last coordinate, then total - prefix - x_m,
    prefix - that, and the product with x_m, built in one buffer.
    """
    out = np.empty_like(x)
    out[:, 0] = 0.0
    np.add.accumulate(x[:, :-1], axis=1, out=out[:, 1:])
    suffix = out[:, -1:] + x[:, -1:]
    suffix = suffix - out
    suffix -= x
    out -= suffix
    out *= x
    return out


def lyapunov_rate(k: int, x):
    """Instantaneous increase of h(x) = sum_m m*x_m along the flow.

    Equals sum_{i<j} (j - i) x_i x_j, hence is nonnegative on the
    simplex and zero exactly at the vertices.
    """
    v = wk_eval(k, x)
    return sum(m * v[m] for m in range(k + 1))


def height(k: int, x):
    return sum(m * x[m] for m in range(k + 1))


def _heights(y, weights):
    """``height`` of every row of an (n, k+1) float array, with
    ``weights`` = (0, 1, ..., k): the same products added left to right
    in one accumulate, so each row equals ``height`` on it."""
    return np.add.accumulate(y * weights, axis=1)[:, -1]


def is_barycentric(x) -> bool:
    """Whether the exact coordinates ``x`` are nonnegative and sum to
    exactly 1."""
    return sum(x) == 1 and all(c >= 0 for c in x)


# sweep starts: each standard exponential is rounded up to a multiple of
# 2^-SWEEP_BITS, so the weights are positive ints
SWEEP_BITS = 30


def sweep_starts(k: int, count: int, seed: int) -> list[list[Q]]:
    """``count`` exact starts drawn from the uniform distribution on the
    k-simplex, from the generator seeded with ``seed``.

    Dirichlet(1, ..., 1) is a row of k+1 standard exponentials divided
    by their sum (the draws ``rng.dirichlet(np.ones(k + 1))`` makes);
    each exponential E becomes the positive int ceil(E * 2^SWEEP_BITS)
    and the row is divided by its sum exactly, so every start is a
    barycentric point with positive coordinates.
    """
    rng = np.random.default_rng(seed)
    draws = rng.standard_exponential((count, k + 1))
    weights = np.maximum(np.ceil(draws * 2.0 ** SWEEP_BITS), 1)
    weights = weights.astype(np.int64)
    return [[Q(w, total) for w in row]
            for row, total in zip(weights.tolist(),
                                  weights.sum(axis=1).tolist())]


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


# ---------------------------------------------------------------------------
# batched Dormand-Prince RK45
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) tableau, error weights and the dense-output matrix
# for the optimal c_6 (Hairer, Norsett & Wanner, Solving ODEs I, II.4-5
# and Table 5.2; Shampine, "Some practical Runge-Kutta formulas", Math.
# Comp. 46, 1986).  The field is autonomous, so the nodes c_i are unused.
_A = (
    (),
    (1/5,),
    (3/40, 9/40),
    (44/45, -56/15, 32/9),
    (19372/6561, -25360/2187, 64448/6561, -212/729),
    (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656),
)
_B = (35/384, 0, 500/1113, 125/192, -2187/6784, 11/84)
_E = (-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
_P = (
    (1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432),
    (0, 0, 0, 0),
    (0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799),
    (0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072),
    (0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632),
    (0, -282668133/205662961, 2019193451/616988883,
     -1453857185/822651844),
    (0, 40617522/29380423, -110615467/29380423, 69997945/29380423),
)
_P_COLS = tuple(zip(*_P))

# step-size control: error estimator order 4, so errors scale as h**5
MAX_STEP = 1.0
RTOL, ATOL = 1e-9, 1e-12
SPEED_FLOOR = 1e-10
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1 / 5
# heights may dip by this much between recorded points and still count
# as monotone
HEIGHT_DRIFT = 1e-9
# bisection halvings that locate the settling event to one ulp of the step
EVENT_BISECTIONS = 53


def _combine(K, weights):
    """sum_s weights[s] * K[s], in stage order, skipping zero weights;
    a new array."""
    out = None
    for stage, w in zip(K, weights):
        if w:
            if out is None:
                out = stage * w
            else:
                out += stage * w
    return out


def _norm(v):
    return np.sqrt((v * v).sum(axis=1))


def _rms(v):
    return _norm(v) / v.shape[1] ** 0.5


def _initial_step(fun, y0, f0, t_max):
    """First step of every row, by the rule of Hairer, Norsett & Wanner
    II.4 as scipy's RK45 applies it."""
    scale = ATOL + np.abs(y0) * RTOL
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_max)
    f1 = fun(y0 + h0[:, None] * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    with np.errstate(divide="ignore"):
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1 / 5))
    return np.minimum(np.minimum(100 * h0, h1), min(t_max, MAX_STEP))


@dataclass
class FlowBatch:
    """Outcome of ``flow_batch``, one entry per start row.

    ``points`` lists every recorded point, tagged by its row in
    ``point_rows`` and its time in ``point_times``: each start, every
    accepted step, and the event point in place of the step that crossed
    the speed floor.  ``path`` picks out one row in time order.
    """

    t_max: float
    limits: np.ndarray  # (n, k+1): final points, clipped and renormalised
    speeds: np.ndarray  # (n,): |W| at the final point
    converged: np.ndarray  # (n,) bool: settled below the speed floor
    monotone: np.ndarray  # (n,) bool: height monotone along the path
    point_rows: np.ndarray
    point_times: np.ndarray
    points: np.ndarray

    def path(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        sel = self.point_rows == i
        return self.point_times[sel], self.points[sel]

    def unsettled(self, i: int) -> str:
        """Why row ``i`` did not converge."""
        return f"speed still {self.speeds[i]:.3e} at t={self.t_max}"


def flow_batch(k: int, starts, backward: bool = False,
               t_max: float = 200.0) -> FlowBatch:
    """Integrate the flow from every row of ``starts`` at once.

    Each row runs until its speed falls through ``SPEED_FLOOR`` or until
    ``t_max``, with its own step size and error control; a row whose step
    shrinks below ten ulps of its time stops where it is.  A row has
    converged if its speed crossed the floor or ends at or below it.
    ``backward=True`` integrates the time-reversed field.
    """
    y = np.array(starts, dtype=float)
    if y.ndim != 2 or y.shape[1] != k + 1:
        raise ValueError(f"expected rows of {k + 1} coordinates")
    # comparisons with NaN are false, so NaN coordinates fail too
    if not (np.all(y >= -1e-12)
            and np.all(np.abs(y.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError("start is not a barycentric point")
    if backward:
        def fun(x):
            v = wk_field(x)
            return np.negative(v, out=v)
    else:
        fun = wk_field

    def monotone(before, after):
        if backward:
            return after <= before + HEIGHT_DRIFT
        return after >= before - HEIGHT_DRIFT

    n = len(y)
    final = y.copy()
    mono_out = np.ones(n, dtype=bool)
    fired_out = np.zeros(n, dtype=bool)
    recorded = [(np.arange(n), np.zeros(n), y)]
    events = []  # rows, t_old, step, y_old, height, monotone, stages K

    # per-row state of the rows still running
    rows = np.arange(n)
    t = np.zeros(n)
    f = fun(y)
    h_abs = _initial_step(fun, y, f, t_max)
    g = _norm(f) - SPEED_FLOOR
    weights = np.arange(k + 1, dtype=float)
    hgt = _heights(y, weights)
    mono = np.ones(n, dtype=bool)
    retry = np.zeros(n, dtype=bool)  # the row's last attempt was rejected

    # Where every row agrees (all accepted, none retrying, none finished;
    # about three iterations in four of a sweep) the np.where selections
    # and the compaction are skipped: they would return the arrays they
    # were given.  An error of 0 makes the step
    # factor inf, so that division is silenced for the whole loop.
    with np.errstate(divide="ignore"):
        while rows.size:
            retrying = retry.any()
            min_step = 10 * (np.nextafter(t, np.inf) - t)
            clipped = np.minimum(np.maximum(h_abs, min_step), MAX_STEP)
            h_abs = np.where(retry, h_abs, clipped) if retrying else clipped
            # a rejected step that shrank below min_step ends the row
            # unstepped
            stuck = h_abs < min_step
            t_new = np.minimum(t + h_abs, t_max)
            h = t_new - t
            # each row's step spread over its coordinates, so that every
            # product with it runs on two arrays of one shape
            hc = np.empty_like(y)
            hc[...] = h[:, None]
            K = [f]
            for a in _A[1:]:
                stage = _combine(K, a)
                stage *= hc
                stage += y
                K.append(fun(stage))
            y_new = _combine(K, _B)
            y_new *= hc
            y_new += y
            f_new = fun(y_new)
            K.append(f_new)
            scale = np.maximum(np.abs(y), np.abs(y_new))
            scale *= RTOL
            scale += ATOL
            err = _combine(K, _E)
            err *= hc
            err /= scale
            err = _rms(err)

            accept = (err < 1) & ~stuck
            all_accepted = accept.all()
            factor = SAFETY * err ** ERROR_EXPONENT
            if all_accepted:
                factor = np.minimum(MAX_FACTOR, factor)
            else:
                factor = np.where(accept, np.minimum(MAX_FACTOR, factor),
                                  np.maximum(MIN_FACTOR, factor))
            if retrying:
                factor = np.where(accept & retry, np.minimum(1.0, factor),
                                  factor)
            h_abs = h * factor
            retry = ~accept

            g_new = _norm(f_new) - SPEED_FLOOR
            fired = accept & (g >= 0) & (g_new <= 0)
            hgt_new = _heights(y_new, weights)
            step_ok = monotone(hgt, hgt_new)
            if all_accepted and not fired.any():
                stepped = accept
                mono &= step_ok
                recorded.append((rows, t_new, y_new))
                t, y, f, g, hgt = t_new, y_new, f_new, g_new, hgt_new
            else:
                stepped = accept & ~fired
                mono = np.where(stepped, mono & step_ok, mono)
                if fired.any():
                    events.append([rows[fired], t[fired], h[fired], y[fired],
                                   hgt[fired], mono[fired]]
                                  + [s[fired] for s in K])
                recorded.append((rows[stepped], t_new[stepped],
                                 y_new[stepped]))
                acc = accept[:, None]
                t = np.where(accept, t_new, t)
                y = np.where(acc, y_new, y)
                f = np.where(acc, f_new, f)
                g = np.where(accept, g_new, g)
                hgt = np.where(stepped, hgt_new, hgt)

            done = stuck | (stepped & (t_new >= t_max))
            finished = done | fired
            if finished.any():
                final[rows[done]] = y[done]
                mono_out[rows[done]] = mono[done]
                keep = ~finished
                rows, t, y, f, h_abs, g, hgt, mono, retry = (
                    a[keep] for a in (rows, t, y, f, h_abs, g, hgt, mono,
                                      retry))

    if events:
        ev_rows, t_old, step, y_old, h_prev, ev_mono, *K = (
            np.concatenate(parts) for parts in zip(*events))
        Qc = [_combine(K, col) for col in _P_COLS]
        y_ev, x = _locate_events(y_old, step, Qc)
        final[ev_rows] = y_ev
        fired_out[ev_rows] = True
        h_ev = _heights(y_ev, weights)
        mono_out[ev_rows] = ev_mono & monotone(h_prev, h_ev)
        recorded.append((ev_rows, t_old + x * step, y_ev))

    speeds = _norm(wk_field(final))
    limits = np.clip(final, 0.0, None)
    limits = limits / limits.sum(axis=1, keepdims=True)
    point_rows, point_times, points = (np.concatenate(parts)
                                       for parts in zip(*recorded))
    return FlowBatch(t_max=t_max, limits=limits, speeds=speeds,
                     converged=fired_out | (speeds <= SPEED_FLOOR),
                     monotone=mono_out, point_rows=point_rows,
                     point_times=point_times, points=points)


def _dense(y_old, step, Qc, x):
    """Each step's dense output at fraction ``x`` of it."""
    p = x[:, None]
    power = p
    acc = Qc[0] * power
    for column in Qc[1:]:
        power = power * p
        acc = acc + column * power
    return step[:, None] * acc + y_old


def _locate_events(y_old, step, Qc):
    """Where on each step's dense output the speed falls through the floor.

    The speed is above the floor at the step's start and at or below it
    at its end; bisection keeps that bracket and returns its right end,
    as (point, fraction of the step).
    """
    lo = np.zeros(len(step))
    hi = np.ones(len(step))
    for _ in range(EVENT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        above = _norm(wk_field(_dense(y_old, step, Qc, mid))) - SPEED_FLOOR > 0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return _dense(y_old, step, Qc, hi), hi


VERTEX_TOL = 1e-6


def nearest_vertex(point):
    """Index of the vertex the point lies within ``VERTEX_TOL`` of, else
    None."""
    p = np.asarray(point, dtype=float)
    m = int(p.argmax())
    e = np.zeros_like(p)
    e[m] = 1.0
    if float(np.abs(p - e).max()) <= VERTEX_TOL:
        return m
    return None
