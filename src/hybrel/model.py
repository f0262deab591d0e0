"""Hybrid problem definition, standardization and reference evaluators.

A hybrid problem couples Gaussian random inputs with bounded uncertain
inputs through a limit-state function; positive response means safe.  The
standardization maps random inputs to standard normals and uncertain inputs
to the symmetric unit box, sharing one arithmetic path with the original
limit state.  The reference evaluator computes the reliability metric by
the chance integral of `chance.py` (small dimension only); a purely random
problem first tries the exact affine closed form and the one-dimensional
root bracketing of `degenerate_random`.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .chance import _exceedance, _non_finite, _response, _rows
from .distributions import LinearUncertain, Normal, normal_cdf
from .errors import InvalidParameterError

__all__ = [
    "RandomVariable",
    "UncertainVariable",
    "HybridProblem",
    "StandardizedProblem",
    "standardize",
    "evaluate_rows",
    "fd_gradient",
    "reliability_reference",
    "degenerate_random",
]

_AFFINE_RTOL = 1e-8  # superposition error of _detect_affine, relative to scale


@dataclass(frozen=True)
class RandomVariable:
    """Named Gaussian input; only the normal family is accepted."""

    name: str
    mean: float
    stddev: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.stddev) and self.stddev > 0):
            raise InvalidParameterError(f"bad random variable {self!r}")

    @property
    def dist(self):
        return Normal(self.mean, self.stddev)


@dataclass(frozen=True)
class UncertainVariable:
    """Named uncertain input known only through its bounds."""

    name: str
    lower: float
    upper: float

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)
                and self.upper > self.lower):
            raise InvalidParameterError(f"bad uncertain variable {self!r}")

    @property
    def dist(self):
        return LinearUncertain(self.lower, self.upper)


@dataclass(frozen=True)
class HybridProblem:
    """Limit-state function plus its random and uncertain input declarations.

    lsf(x, y) takes the physical random vector (length m) and physical
    uncertain vector (length n) and returns the scalar performance response;
    response > 0 is safe, <= 0 failed.  The optional analytic `gradient`
    callable must return the concatenated (df/dx, df/dy) vector at (x, y);
    when absent derivatives fall back to central finite differences.  The
    optional `lsf_batch` accepts (N, m) and (N, n) arrays and returns (N,)
    responses; the Monte Carlo oracle, the design-point search's seed grid
    and the chance-measure reference use it when present.  Every response
    is checked as in `evaluate_rows`.

    User callables must tolerate concurrent invocation; the problem itself
    is immutable.
    """

    lsf: object
    randoms: tuple = ()
    uncertains: tuple = ()
    gradient: object = None
    lsf_batch: object = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "randoms", tuple(self.randoms))
        object.__setattr__(self, "uncertains", tuple(self.uncertains))
        if self.m + self.n < 1:
            raise InvalidParameterError("problem needs at least one input variable")

    @property
    def m(self):
        return len(self.randoms)

    @property
    def n(self):
        return len(self.uncertains)

    def random_dists(self):
        return [rv.dist for rv in self.randoms]

    def uncertain_dists(self):
        return [uv.dist for uv in self.uncertains]


def evaluate_rows(problem, x, y):
    """Responses at the rows of x (N, m) and y (N, n): one `lsf_batch`
    call when the problem has one, a per-row `lsf` loop otherwise.  NaN or
    an infinity raises NonFiniteResponseError, a non-scalar response or a
    batch not of shape (N,) InvalidParameterError; both name the point."""
    return _rows(problem.lsf, problem.lsf_batch, x, y)


def _central_differences(evaluate, point, rel_step):
    """Central-difference gradient at point from evaluate(rows), the values
    at the 2k rows of the stencil: row 2i is point + h_i e_i, row 2i + 1 is
    point - h_i e_i, with h = rel_step * max(1, |point|)."""
    k = point.size
    # fmax, like max(1.0, nan), steps a NaN coordinate by rel_step
    h = rel_step * np.fmax(1.0, np.abs(point))
    rows = np.repeat(point[None, :], 2 * k, axis=0)
    # entry i of rows 2i and 2i + 1 sits at i*(2k + 1) and k + i*(2k + 1)
    # of the flat array
    flat = rows.reshape(-1)
    flat[::2 * k + 1] += h
    flat[k::2 * k + 1] -= h
    values = evaluate(rows)
    return (values[0::2] - values[1::2]) / (2 * h)


def fd_gradient(func, point, rel_step=1e-6):
    """Central finite-difference gradient with per-coordinate step
    h = rel_step * max(1, |coordinate|); func is called at point + h_i e_i,
    then at point - h_i e_i, coordinate by coordinate."""
    return _central_differences(
        lambda rows: np.fromiter(map(func, rows), float, len(rows)),
        np.asarray(point, dtype=float), rel_step)


@dataclass(frozen=True)
class StandardizedProblem:
    """Problem expressed over standard-normal u and unit-box delta.

    The standardized limit state calls the original one on the mapped-back
    physical coordinates, so both share a single arithmetic path and agree
    pointwise by construction.  A NaN or infinite response raises
    NonFiniteResponseError, a non-scalar one InvalidParameterError naming
    its shape; both name the physical point.
    """

    problem: HybridProblem
    means: np.ndarray = field(repr=False)
    stddevs: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    half_widths: np.ndarray = field(repr=False)
    fd_rel_step: float = 1e-6

    # cached: the limit-state path reads m on every call
    @cached_property
    def m(self):
        return self.problem.m

    @cached_property
    def n(self):
        return self.problem.n

    def to_physical_random(self, u):
        return self.means + self.stddevs * np.asarray(u, dtype=float)

    def to_standard_random(self, x):
        return (np.asarray(x, dtype=float) - self.means) / self.stddevs

    def to_physical_uncertain(self, delta):
        return self.centers + self.half_widths * np.asarray(delta, dtype=float)

    def to_standard_uncertain(self, y):
        return (np.asarray(y, dtype=float) - self.centers) / self.half_widths

    def lsf_std(self, u, delta):
        """Response at standardized (u, delta), each an array or a sequence."""
        x = self.means + self.stddevs * u
        y = self.centers + self.half_widths * delta
        return _response(self.problem.lsf(x, y), x, y)

    def lsf_std_rows(self, u, delta):
        """Responses at the rows of standardized u (N, m) and delta (N, n):
        both are mapped to physical coordinates at once, then `lsf` is
        called once per row, in row order, never `lsf_batch`; each response
        is checked as `lsf_std` checks it."""
        x = self.means + self.stddevs * u
        y = self.centers + self.half_widths * delta
        return _rows(self.problem.lsf, None, x, y)

    def lsf_rows(self, u, deltas):
        """Responses at fixed u for each row of deltas (N, n), through
        `evaluate_rows`."""
        y = self.to_physical_uncertain(deltas)
        x = np.tile(self.to_physical_random(u), (len(y), 1))
        return evaluate_rows(self.problem, x, y)

    def lsf_omega(self, omega):
        m = self.m
        return self.lsf_std(omega[:m], omega[m:])

    def gradient_omega(self, omega):
        """Gradient of the standardized limit state at omega = (u, delta).

        Chain rule through the affine maps when an analytic physical
        gradient is available, central differences otherwise: the stencil
        rows of `fd_gradient`, in its order, through `lsf_std_rows`.  A NaN
        or infinite analytic gradient raises NonFiniteResponseError naming
        the gradient and the physical point.
        """
        omega = np.asarray(omega, dtype=float)
        if self.problem.gradient is not None:
            x = self.to_physical_random(omega[: self.m])
            y = self.to_physical_uncertain(omega[self.m:])
            phys = np.asarray(self.problem.gradient(x, y), dtype=float)
            if not np.isfinite(phys).all():
                raise _non_finite("gradient", phys.tolist(), x, y)
            scale = np.concatenate([self.stddevs, self.half_widths])
            return phys * scale
        m = self.m
        return _central_differences(
            lambda rows: self.lsf_std_rows(rows[:, :m], rows[:, m:]),
            omega, self.fd_rel_step)


def standardize(problem):
    """Build the standardized view of a hybrid problem."""
    means = np.array([rv.mean for rv in problem.randoms], dtype=float)
    stddevs = np.array([rv.stddev for rv in problem.randoms], dtype=float)
    lowers = np.array([uv.lower for uv in problem.uncertains], dtype=float)
    uppers = np.array([uv.upper for uv in problem.uncertains], dtype=float)
    return StandardizedProblem(
        problem=problem,
        means=means,
        stddevs=stddevs,
        centers=(lowers + uppers) / 2,
        half_widths=(uppers - lowers) / 2,
    )


# ---------------------------------------------------------------------------
# degenerate evaluators
# ---------------------------------------------------------------------------

def _detect_affine(func, dim):
    """Return (constant, coefficient vector) when func is affine, else None.

    Probes the unit directions and checks superposition at three fixed
    interior points; the tolerance is relative to the response scale.
    """
    origin = np.zeros(dim)
    c = func(origin)
    coeffs = np.empty(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        fp = func(e)
        fm = func(-e)
        coeffs[i] = (fp - fm) / 2
        if abs(fp + fm - 2 * c) > _AFFINE_RTOL * max(1.0, abs(c), abs(fp)):
            return None
    probes = [np.full(dim, 0.37), np.linspace(-1.3, 0.9, dim),
              np.full(dim, -2.1)]
    for p in probes:
        predicted = c + coeffs @ p
        actual = func(p)
        if abs(actual - predicted) > _AFFINE_RTOL * max(1.0, abs(actual),
                                                        abs(predicted)):
            return None
    return c, coeffs


def degenerate_random(problem, quad_nodes=200):
    """Reliability of a purely random problem: Pr{f(x) > 0}.

    Affine limit states (detected by probing) are evaluated in closed form
    as normal_cdf(c / |a|) in standardized coordinates, which is exact.  A
    one-dimensional nonlinear limit state is decomposed into sign intervals
    by root bracketing on [-10, 10].  Higher-dimensional nonlinear problems
    (m <= 3) fall back to the chance integral with no uncertain inputs, a
    tensor quadrature of the safe-set indicator over `evaluate_rows`, whose
    accuracy is limited by the discontinuity; treat that path as a smoke
    check rather than a precision oracle.
    """
    if problem.n != 0:
        raise InvalidParameterError("degenerate_random requires n = 0")
    std = standardize(problem)
    m = problem.m
    func = lambda u: std.lsf_std(u, np.empty(0))

    affine = _detect_affine(func, m)
    if affine is not None:
        c, a = affine
        norm_a = float(np.linalg.norm(a))
        if norm_a < 1e-300:
            return 1.0 if c > 0 else 0.0
        return float(normal_cdf(c / norm_a))

    if m == 1:
        # imported here so that `import hybrel` does not load scipy.optimize
        from scipy.optimize import brentq

        f1 = lambda t: func(np.array([t]))
        grid = np.linspace(-10.0, 10.0, 2001)
        vals = np.array([f1(t) for t in grid])
        roots = []
        for i in range(len(grid) - 1):
            if np.sign(vals[i]) != np.sign(vals[i + 1]) and vals[i] != vals[i + 1]:
                roots.append(brentq(f1, grid[i], grid[i + 1], xtol=1e-13))
        edges = [-np.inf] + sorted(roots) + [np.inf]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid = np.clip(0.5 * (max(lo, -12.0) + min(hi, 12.0)), -12.0, 12.0)
            if f1(mid) > 0:
                cdf_hi = 1.0 if hi == np.inf else float(normal_cdf(hi))
                cdf_lo = 0.0 if lo == -np.inf else float(normal_cdf(lo))
                total += cdf_hi - cdf_lo
        return min(max(total, 0.0), 1.0)

    return _exceedance(partial(evaluate_rows, problem), problem.random_dists(),
                       [], 0.0, quad_nodes, None, False)


def reliability_reference(problem, quad_nodes=64, threshold=0.0, verify=False):
    """Reference hybrid reliability: the chance measure of {f > threshold}.

    Routes purely random problems to `degenerate_random` and otherwise runs
    the tensor-quadrature chance integral (m <= 3), whose belief bisection
    makes one `evaluate_rows` call per step over its open nodes.  The
    production path for benchmark-sized problems is the polar pipeline;
    this evaluator exists to cross-check it at small dimension.
    """
    if problem.n == 0:
        if threshold != 0.0:
            lsf, batch = problem.lsf, problem.lsf_batch
            shifted = lambda x, y: np.subtract(batch(x, y), threshold)
            problem = replace(problem, lsf=lambda x, y: lsf(x, y) - threshold,
                              lsf_batch=None if batch is None else shifted)
        return degenerate_random(problem)
    return _exceedance(partial(evaluate_rows, problem), problem.random_dists(),
                       problem.uncertain_dists(), threshold, quad_nodes, None,
                       verify)
