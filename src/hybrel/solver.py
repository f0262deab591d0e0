"""Single-loop design-point search for standardized hybrid problems.

Each outer iteration first solves the uncertain-variable subproblem (the
minimum-norm point of the limit-state surface inside the unit box at fixed
Gaussian coordinates), then applies one HLRF update to the Gaussian
coordinates at the fixed box point.  Convergence is declared on the step
norm of the combined iterate.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGradientError, InvalidParameterError

__all__ = [
    "SolverSettings",
    "IterationRecord",
    "DesignPoint",
    "ua_step",
    "pa_step",
    "find_design_point",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverSettings:
    """Tuning knobs for the design-point iteration.

    epsilon is the convergence tolerance on the combined step norm; the
    finite-difference floor of the gradient sits near 1e-8, so pushing
    epsilon far below 1e-6 buys nothing.
    """

    epsilon: float = 1e-6
    max_iterations: int = 100
    ua_grid: int = 21
    ua_refine_iterations: int = 50
    fd_rel_step: float = 1e-6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InvalidParameterError("epsilon must be positive")
        if self.max_iterations < 1:
            raise InvalidParameterError("max_iterations must be at least 1")
        if self.ua_grid < 3:
            raise InvalidParameterError("ua_grid must be at least 3")


@dataclass(frozen=True)
class IterationRecord:
    """One row of the solver trace."""

    index: int
    beta: float
    step_norm: float
    lsf_value: float


@dataclass(frozen=True)
class DesignPoint:
    """Converged (or best-effort) minimizer of the norm on the failure surface.

    beta equals the Euclidean norm of (u_star, delta_star); `converged`
    reports honestly whether the step tolerance was met.
    """

    u_star: np.ndarray = field(repr=False)
    delta_star: np.ndarray = field(repr=False)
    beta: float = 0.0
    iterations: int = 0
    converged: bool = False
    trace: tuple = ()

    def omega(self):
        return np.concatenate([self.u_star, self.delta_star])


def _delta_gradient(std, u_fixed, delta):
    omega = np.concatenate([u_fixed, delta])
    return std.gradient_omega(omega)[std.m:]


def _solve_box_qp(grad, target):
    """Minimum-norm delta in [-1,1]^n with grad . delta = target (clamped).

    The unconstrained stationary point is a multiple of grad; clamping each
    coordinate keeps grad . clip(mu*grad) monotone in mu, so the multiplier
    is found by bisection.  When even the extreme box point cannot reach the
    target the closest achievable point is returned.  The bisection stops
    once the midpoint rounds onto an end: from then on (lo, hi) either stays
    put or collapses onto that end, so 0.5*(lo+hi) is final.
    """
    gnorm_sq = float(grad @ grad)
    if gnorm_sq < 1e-30:
        return np.zeros_like(grad)

    def reach(mu):
        # minimum/maximum give np.clip's values without its dispatch cost
        return float(grad @ np.minimum(np.maximum(mu * grad, -1.0), 1.0))

    mu_max = (1.0 + abs(target)) / gnorm_sq + 1.0 / np.min(np.abs(grad[grad != 0]))
    lo, hi = -mu_max, mu_max
    goal = min(max(target, reach(lo)), reach(hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if reach(mid) < goal:
            lo = mid
        else:
            hi = mid
    return np.clip(0.5 * (lo + hi) * grad, -1.0, 1.0)


def _ua_refine(std, u_fixed, delta0, iterations):
    """Sequential linearization of the box-constrained minimum-norm problem.

    Each pass linearizes f at the current delta and solves the resulting
    box QP exactly; for affine limit states one pass is exact.  When the
    zero level set does not meet the box the clamped QP walks to the box
    point minimizing the linearized |f|, which is the documented fallback.
    """
    delta = np.asarray(delta0, dtype=float)
    for _ in range(iterations):
        value = std.lsf_std(u_fixed, delta)
        grad = _delta_gradient(std, u_fixed, delta)
        target = float(grad @ delta) - value
        new = _solve_box_qp(grad, target)
        if np.linalg.norm(new - delta) < 1e-11:
            return new
        delta = new
    return delta


def ua_step(std, u_fixed, settings=None):
    """Uncertain-variable design point at fixed Gaussian coordinates.

    Minimizes the combined norm subject to f(u_fixed, delta) = 0 over the
    unit box; with no zero in the box, returns the box point minimizing |f|.
    For n <= 3 a dense grid seeds the refinement (grid resolution
    settings.ua_grid per axis, evaluated in one `lsf_rows` call); beyond that the refinement runs from the
    box center and from the best corner, keeping whichever lands better.
    """
    settings = settings or SolverSettings()
    u_fixed = np.asarray(u_fixed, dtype=float)
    n = std.n
    if n == 0:
        return np.empty(0)

    candidates = [np.zeros(n)]
    if n <= 3:
        axes = [np.linspace(-1.0, 1.0, settings.ua_grid)] * n
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([g.ravel() for g in mesh], axis=1)
        values = std.lsf_rows(u_fixed, points)
        crossing = None
        best_norm = np.inf
        order = np.argsort(np.abs(values))
        for idx in order[: max(8, settings.ua_grid)]:
            nrm = np.linalg.norm(points[idx])
            if nrm < best_norm:
                best_norm = nrm
                crossing = points[idx]
        if crossing is not None:
            candidates.append(crossing)
    else:
        if 2 ** n <= 128:
            bits = np.array(list(np.ndindex(*(2,) * n)))
        else:
            rng = np.random.default_rng(0)
            bits = rng.integers(0, 2, size=(128, n))
        corner_pts = np.where(bits == 1, 1.0, -1.0)
        corner_vals = np.array([std.lsf_std(u_fixed, p) for p in corner_pts])
        candidates.append(corner_pts[int(np.argmin(np.abs(corner_vals)))])

    best = None
    best_key = None
    for seed in candidates:
        delta = _ua_refine(std, u_fixed, seed, settings.ua_refine_iterations)
        residual = abs(std.lsf_std(u_fixed, delta))
        # feasible solutions rank before infeasible ones, then by norm
        key = (residual > 1e-8, residual if residual > 1e-8 else 0.0,
               float(np.linalg.norm(delta)))
        if best_key is None or key < best_key:
            best, best_key = delta, key
    return np.clip(best, -1.0, 1.0)


def pa_step(std, u_prev, delta_fixed, beta_prev):
    """One HLRF update of the Gaussian coordinates at a fixed box point.

    beta_next = beta_prev + f / |grad_u f| and u_next along the negative
    normalized u-gradient; exact in one step for limit states affine in u.
    """
    u_prev = np.asarray(u_prev, dtype=float)
    delta_fixed = np.asarray(delta_fixed, dtype=float)
    omega = np.concatenate([u_prev, delta_fixed])
    grad_u = std.gradient_omega(omega)[: std.m]
    grad_norm = float(np.linalg.norm(grad_u))
    if grad_norm < 1e-12:
        raise DegenerateGradientError("u-gradient vanished in the HLRF update")
    value = std.lsf_std(u_prev, delta_fixed)
    beta_next = beta_prev + value / grad_norm
    u_next = -beta_next * grad_u / grad_norm
    return u_next, float(beta_next)


def find_design_point(std, settings=None):
    """Alternate the box subproblem and the HLRF update until the combined
    step norm drops below epsilon.

    Starts from the origin (the median of every input).  Non-convergence
    returns the last iterate with converged=False rather than raising, and
    logs a warning with the iteration count and the last step norm; the
    trace carries (index, |omega|, step norm, f value) per iteration.  A
    growing |omega| after the first near-feasible iterate is logged as a
    warning, since the update is not a descent method in general.
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
    iterations = 0

    for k in range(1, settings.max_iterations + 1):
        iterations = k
        delta_new = ua_step(std, u, settings) if std.n else delta
        u_new, beta_scalar = pa_step(std, u, delta_new, beta_scalar)
        step = float(np.linalg.norm(np.concatenate([u_new - u, delta_new - delta])))
        u, delta = u_new, delta_new
        omega_norm = float(np.linalg.norm(np.concatenate([u, delta])))
        value = std.lsf_std(u, delta)
        trace.append(IterationRecord(k, omega_norm, step, float(value)))
        growth_floor = 1e-7 * max(1.0, prev_norm if prev_norm is not None else 0.0)
        if feasible_seen and prev_norm is not None \
                and omega_norm > prev_norm + growth_floor:
            logger.warning(
                "design-point norm grew from %.6g to %.6g at iteration %d",
                prev_norm, omega_norm, k,
            )
        if abs(value) < 1e-6:
            feasible_seen = True
        prev_norm = omega_norm
        if step <= settings.epsilon:
            converged = True
            break
    if not converged:
        logger.warning(
            "design point did not converge in %d iterations; last step norm %.6g",
            iterations, step,
        )

    return DesignPoint(
        u_star=u,
        delta_star=delta,
        beta=float(np.linalg.norm(np.concatenate([u, delta]))),
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )
