"""Single-loop design-point search for standardized hybrid problems.

Each outer iteration first solves the uncertain-variable subproblem (the
minimum-norm point of the limit-state surface inside the unit box at fixed
Gaussian coordinates), then applies one HLRF update to the Gaussian
coordinates at the fixed box point.  Convergence is declared on the step
norm of the combined iterate.

The box subproblem is refined by sequential linearization from two seeds
together.  A pass takes f and its gradient at every moving seed from one
`lsf_and_gradient` call, which alone decides how to differentiate, and
solves one continuous quadratic knapsack per seed: the minimum-norm delta
in [-1, 1]^n on a hyperplane, to the bits a plain 200-step bisection of
its multiplier gives.  The solve reads the multiplier off one evaluation
of the floating-point reach at a window of 33 consecutive floats around
the closed-form breakpoint inverse (Kiwiel 2008), or takes the box corner
at the bottom clamp; any other solve runs that bisection.  No solve of the
paper rows or the belief rows bisects.
"""

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DegenerateGradientError, InvalidParameterError
from .model import evaluate_rows

__all__ = [
    "SolverSettings",
    "IterationRecord",
    "DesignPoint",
    "ua_step",
    "pa_step",
    "find_design_point",
]

logger = logging.getLogger(__name__)

_MAX_ITERATIONS = 100  # outer iterations before the search reports non-convergence
_UA_GRID = 21  # seed-grid points per axis of the box subproblem (n <= 3)
_UA_REFINE_ITERATIONS = 50  # linearization passes per box-subproblem seed
# |mu| / mu_max from which 200 halvings of (-mu_max, mu_max) reach adjacent floats
_ADJACENT_WITHIN_200 = 2.0 ** -128
# steps in ulps, from the breakpoint inverse, of the consecutive floats at
# which the box solve evaluates the reach at once: over the solves of the
# paper rows and the belief rows the float crossing lies 23 below to 7
# above the inverse
_WINDOW = np.arange(-24, 9)


@dataclass(frozen=True)
class SolverSettings:
    """Tuning knobs for the design-point iteration.

    epsilon is the convergence tolerance on the combined step norm; the
    finite-difference floor of the gradient sits near 1e-8, so pushing
    epsilon far below 1e-6 buys nothing.  fd_rel_step is the relative
    central-difference step the search differentiates with, which the
    DesignPoint records.  Both must be finite and positive.  The search
    stops after _MAX_ITERATIONS outer iterations.
    """

    epsilon: float = 1e-6
    fd_rel_step: float = 1e-6

    def __post_init__(self):
        for name in ("epsilon", "fd_rel_step"):
            if not 0.0 < getattr(self, name) < math.inf:  # also refuses nan
                raise InvalidParameterError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class IterationRecord:
    """One row of the solver trace."""

    index: int
    beta: float
    step_norm: float
    lsf_value: float


@dataclass(frozen=True)
class DesignPoint:
    """Converged (or best-effort) fixed point of the search's alternation.

    (u_star, delta_star) is block-wise stationary: delta_star is the
    minimum-norm box point on the failure surface at u_star, and u_star
    the HLRF point at delta_star.  It need not minimize the norm over
    the failure surface jointly: on crank_slider t=0 beta is 2.0295
    where the joint minimum is 1.4053.  beta equals the Euclidean norm
    of (u_star, delta_star); `converged` reports honestly whether the
    step tolerance was met.  fd_rel_step is
    the relative finite-difference step the search differentiated with,
    which the polar reduction reuses.  The trace records the search for
    `--trace` and the run report; the reduction does not read it.
    """

    u_star: np.ndarray = field(repr=False)
    delta_star: np.ndarray = field(repr=False)
    beta: float = 0.0
    iterations: int = 0
    converged: bool = False
    trace: tuple = ()
    fd_rel_step: float = SolverSettings.fd_rel_step

    def omega(self):
        return np.concatenate([self.u_star, self.delta_star])


def _norm(v):
    """np.linalg.norm of a 1-D float array, bit for bit: it takes the
    square root of v.dot(v) too."""
    return math.sqrt(v.dot(v))


def _reach(grad, mu):
    """grad . clip(mu*grad, -1, 1) in floating point, as the bisection
    compares it with its goal."""
    # minimum/maximum give np.clip's values without its dispatch cost
    return float(grad @ np.minimum(np.maximum(mu * grad, -1.0), 1.0))


def _reaches(grad, mus):
    """_reach(grad, mu) at each of the floats mus, bit for bit, in one
    pass: np.vecdot takes each row's product with the same dot as
    grad @ v."""
    return np.vecdot(np.minimum(np.maximum(np.multiply.outer(mus, grad), -1.0),
                                1.0), grad)


def _breakpoints(mags):
    """Prefix sums of r(mu) = sum |g_i| clip(mu |g_i|, -1, 1), as lists.

    r is odd and piecewise linear with kinks at 1/|g_i|.  With mags the
    nonzero |g| in descending order, r(mu) = before[k] + mu*after[k] on the
    k-th segment of mu >= 0, where before[k] = sum_{j<k} mags[j] and
    after[k] = sum_{j>=k} mags[j]^2: running sums, before from the largest
    magnitude and after from the smallest square.
    """
    before = list(accumulate(mags[:-1], initial=0.0))
    after = list(accumulate(g * g for g in reversed(mags)))[::-1]
    return before, after


def _reach_inverse(before, after, level):
    """mu with r(mu) = level, for |level| < sum |g|.

    On mu >= 0, r is concave and each segment's line before[k] +
    mu*after[k] lies on or above it, so r^-1(level) is the largest of the
    lines' inverses; no segment search is needed.  r is odd, so negative
    levels mirror.  Rounding moves r at the result by at most
    (n+2)*eps*|level| plus n*eps*sum |g|.
    """
    mu = max((abs(level) - b) / a for b, a in zip(before, after))
    return math.copysign(mu, level)


def _halve(grad, goal, lo, hi):
    """Midpoint bisection of (lo, hi) on _reach(grad, mu) < goal, for at
    most 200 steps; it stops once the midpoint rounds onto an end."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _reach(grad, mid) < goal:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _window(grad, goal, mu, mu_max):
    """The adjacent floats (pred theta, theta) of the float reach's
    crossing of goal when both lie in the window of consecutive floats
    around mu (steps _WINDOW in ulps) and inside (-mu_max, mu_max); None
    otherwise, a window that a float bound or zero cuts included."""
    bits = np.array(mu).view(np.int64)
    # on a negative float, a larger integer is a larger magnitude
    mus = (bits + _WINDOW if mu > 0.0 else bits - _WINDOW).view(float)
    if not (-mu_max < mus[0] and mus[-1] < mu_max):
        return None
    # the float reach does not decrease with mu, so the floats below theta
    # are the leading run of the window
    below = np.count_nonzero(_reaches(grad, mus) < goal)
    if below == 0 or below == mus.size:
        return None
    return float(mus[below - 1]), float(mus[below])


def _solve_box_qp(grad, target):
    """Minimum-norm delta in [-1,1]^n with grad . delta = target (clamped).

    The unconstrained stationary point is a multiple of grad, and clamping
    each coordinate keeps grad . clip(mu*grad) monotone in mu.  When even
    the extreme box point cannot reach the target the closest achievable
    point is returned.  The result is bitwise that of a bisection from
    (-mu_max, mu_max) on P(mu) = _reach(grad, mu) < goal, run for 200
    steps.

    The float reach does not decrease as mu grows: round-to-nearest keeps
    the order of its inputs through mu*g_i, the clip, each product and
    each partial sum, in any summation order.  So P is true below one
    float theta and false from theta on, and once midpoint halving
    reaches adjacent floats it has reached (pred theta, theta), whatever
    path it took; its answer is 0.5*(lo+hi) of that pair.  At the bottom
    goal P is false everywhere and the pair is -mu_max and the float above
    it.  Otherwise, when every square in the closed-form inverse of the
    reach is finite and nonzero, the solve evaluates the reach at once at
    the window of consecutive floats around that inverse and reads the
    pair off where the window holds it.  A target well inside sum |g| is
    its own goal, so the top reach is evaluated only near the clamp.
    Anywhere else the 200-step bisection itself runs: on a window miss,
    an undefined inverse, and a pair within mu_max * 2^-128 of zero, from
    where 200 halvings of (-mu_max, mu_max) need not reach adjacency.
    """
    gnorm_sq = float(grad.dot(grad))
    if gnorm_sq < 1e-30:
        return np.zeros_like(grad)

    target = float(target)
    # the set-up runs on Python floats: numpy costs more than it saves on
    # the dozen or so entries of a box gradient
    mags = sorted((abs(g) for g in grad.tolist() if g != 0.0), reverse=True)
    mu_max = (1.0 + abs(target)) / gnorm_sq + 1.0 / mags[-1]
    # the top reach is sum |g| to within n + 2 roundings of either sum, so
    # a target this far inside sum(mags) is its own goal
    if abs(target) < sum(mags) * (1.0 - 4 * (grad.size + 2) * 2.0 ** -53) < math.inf:
        goal, top = target, math.inf
    else:
        top = _reach(grad, mu_max)  # the reach rounds alike at mu and -mu
        goal = min(max(target, -top), top)

    pair = None  # the plain bisection below unless the window holds the pair
    if goal == -top:  # no reach compares below the one at -mu_max
        pair = -mu_max, math.nextafter(-mu_max, 0.0)
    else:
        before, after = _breakpoints(mags)
        if 0.0 < after[-1] and after[0] < math.inf:
            pair = _window(grad, goal, _reach_inverse(before, after, goal), mu_max)
    if pair is None or min(abs(pair[0]), abs(pair[1])) < mu_max * _ADJACENT_WITHIN_200:
        pair = _halve(grad, goal, -mu_max, mu_max)
    lo, hi = pair
    return np.minimum(np.maximum(0.5 * (lo + hi) * grad, -1.0), 1.0)


def _ua_refine(std, u_fixed, seeds, fd_rel_step):
    """Sequential linearization of the box-constrained minimum-norm problem
    from one or two seeds at once; one refined delta per seed, in seed
    order.

    Each pass linearizes f at each moving seed's current delta and solves
    the resulting box QP exactly; for affine limit states one pass is
    exact.  When the zero level set does not meet the box the clamped QP
    walks to the box point minimizing the linearized |f|, which is the
    documented fallback.  A seed stops moving once its step drops below
    1e-11 or after _UA_REFINE_ITERATIONS passes.  A pass is one
    `lsf_and_gradient` call on the moving rows: both seeds' block while
    both move, a lone seed's point after.  So every limit-state call and
    each delta are a seed-by-seed refinement's, to the bit.
    """
    m, k = std.m, std.m + std.n
    deltas = [np.asarray(seed, dtype=float) for seed in seeds]
    # row i is (u_fixed, delta) of seed i; each pass overwrites the deltas
    omegas = np.empty((len(deltas), k))
    omegas[:, :m] = u_fixed
    omegas[:, m:] = deltas
    moving = list(range(len(deltas)))
    for _ in range(_UA_REFINE_ITERATIONS):
        if len(moving) == 1:
            # a lone seed's row is a 1-D view: a block of one costs more
            lines = [std.lsf_and_gradient(omegas[moving[0]], fd_rel_step)]
        else:
            values, grads = std.lsf_and_gradient(omegas, fd_rel_step)
            lines = zip(values.tolist(), grads)
        still = []
        for i, (value, grad) in zip(moving, lines):
            grad = grad[m:]
            target = float(grad.dot(deltas[i])) - value
            new = _solve_box_qp(grad, target)
            if _norm(new - deltas[i]) >= 1e-11:
                still.append(i)
            deltas[i] = new
            omegas[i, m:] = new
        if not still:
            break
        moving = still
    return deltas


@lru_cache(maxsize=None)
def _grid(n):
    """The seed grid of the n-dimensional unit box (n <= 3), read-only:
    _UA_GRID points per axis, the last coordinate varying fastest."""
    axes = [np.linspace(-1.0, 1.0, _UA_GRID)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)
    points.flags.writeable = False
    return points


@lru_cache(maxsize=None)
def _corners(n):
    """The corner seeds of the n-dimensional unit box (n >= 4), read-only:
    all 2^n in lexicographic order of their signs when 2^n <= 128, else
    128 drawn with a fixed seed."""
    if 2 ** n <= 128:
        bits = np.array(list(np.ndindex(*(2,) * n)))
    else:
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(128, n))
    corners = np.where(bits == 1, 1.0, -1.0)
    corners.flags.writeable = False
    return corners


def _at_u(u_fixed, deltas):
    """The omega rows (u_fixed, delta) for each row delta of deltas."""
    us = np.broadcast_to(u_fixed, (len(deltas), u_fixed.size))
    return np.hstack([us, deltas])


def ua_step(std, u_fixed, fd_rel_step=SolverSettings.fd_rel_step):
    """Uncertain-variable design point at fixed Gaussian coordinates.

    Minimizes the combined norm subject to f(u_fixed, delta) = 0 over the
    unit box; with no zero in the box, returns the box point minimizing |f|.
    The refinement runs from two seeds together, the box center and the
    best of a seed set, keeping whichever lands better.  For n <= 3 the
    seed set is a dense grid of 21 points per axis, built once per n and
    evaluated in one `evaluate_rows` call on its omega rows mapped by
    `std.physical`; beyond that it is the box corners, scalar calls through
    `lsf_omega_rows`.  With n = 0 the box point is empty.  Gradients
    without an analytic one are central differences with relative step
    fd_rel_step.
    """
    u_fixed = np.asarray(u_fixed, dtype=float)
    n = std.n
    if n == 0:
        return np.empty(0)

    if n <= 3:
        points = _grid(n)
        values = evaluate_rows(std.problem, *std.physical(_at_u(u_fixed, points)))
        # the shortest of the grid points nearest the zero set
        nearest = points[np.argsort(np.abs(values))[:_UA_GRID]]
        seed = min(nearest, key=_norm)
    else:
        corner_pts = _corners(n)
        corner_vals = std.lsf_omega_rows(_at_u(u_fixed, corner_pts))
        seed = corner_pts[int(np.argmin(np.abs(corner_vals)))]

    best = None
    best_key = None
    for delta in _ua_refine(std, u_fixed, [np.zeros(n), seed], fd_rel_step):
        residual = abs(std.lsf_omega(np.concatenate([u_fixed, delta])))
        # feasible solutions rank before infeasible ones, then by norm
        key = (residual > 1e-8, residual if residual > 1e-8 else 0.0,
               _norm(delta))
        if best_key is None or key < best_key:
            best, best_key = delta, key
    return best


def pa_step(std, u_prev, delta_fixed, beta_prev,
            fd_rel_step=SolverSettings.fd_rel_step):
    """One HLRF update of the Gaussian coordinates at a fixed box point.

    beta_next = beta_prev + f / |grad_u f| and u_next along the negative
    normalized u-gradient; exact in one step for limit states affine in u.
    Without an analytic gradient it differentiates with fd_rel_step.
    """
    value, grad = std.lsf_and_gradient(np.concatenate([u_prev, delta_fixed]),
                                       fd_rel_step)
    grad_u = grad[: std.m]
    grad_norm = _norm(grad_u)
    if grad_norm < 1e-12:
        raise DegenerateGradientError("u-gradient vanished in the HLRF update")
    beta_next = beta_prev + value / grad_norm
    u_next = -beta_next * grad_u / grad_norm
    return u_next, float(beta_next)


def find_design_point(std, settings=None):
    """Alternate the box subproblem and the HLRF update until the combined
    step norm drops below epsilon.

    Starts from the origin (the median of every input) and differentiates
    with settings.fd_rel_step.  Non-convergence returns the last iterate
    with converged=False rather than raising, and logs a warning with the
    iteration count and the last step norm; the trace carries (index,
    |omega|, step norm, f value) per iteration.  Iterations where |omega|
    grows after the first near-feasible iterate are logged in one warning
    after the loop, since the update is not a descent method in general.
    """
    settings = settings or SolverSettings()
    if std.m < 1:
        raise InvalidParameterError(
            "the design-point search needs at least one random variable; "
            "purely uncertain problems bypass it"
        )
    u = np.zeros(std.m)
    delta = np.zeros(std.n)
    beta_scalar = 0.0
    trace = []
    converged = False
    feasible_seen = False
    prev_norm = None
    growth = []  # (iteration, |omega| before, |omega| after) where it grew

    for k in range(1, _MAX_ITERATIONS + 1):
        delta_new = ua_step(std, u, settings.fd_rel_step)
        u_new, beta_scalar = pa_step(std, u, delta_new, beta_scalar,
                                     settings.fd_rel_step)
        step = _norm(np.concatenate([u_new - u, delta_new - delta]))
        u, delta = u_new, delta_new
        omega = np.concatenate([u, delta])
        omega_norm = _norm(omega)
        value = std.lsf_omega(omega)
        trace.append(IterationRecord(k, omega_norm, step, float(value)))
        growth_floor = 1e-7 * max(1.0, prev_norm if prev_norm is not None else 0.0)
        if feasible_seen and prev_norm is not None \
                and omega_norm > prev_norm + growth_floor:
            growth.append((k, prev_norm, omega_norm))
        if abs(value) < 1e-6:
            feasible_seen = True
        prev_norm = omega_norm
        if step <= settings.epsilon:
            converged = True
            break
    if growth:
        logger.warning(
            "design-point norm grew at %d iterations: first at iteration %d "
            "(%.6g to %.6g), last at iteration %d (%.6g to %.6g)",
            len(growth), *growth[0], *growth[-1],
        )
    if not converged:
        logger.warning(
            "design point did not converge in %d iterations; last step norm %.6g",
            len(trace), step,
        )

    return DesignPoint(
        u_star=u,
        delta_star=delta,
        beta=trace[-1].beta,
        iterations=len(trace),
        converged=converged,
        trace=tuple(trace),
        fd_rel_step=settings.fd_rel_step,
    )
