"""Hybrid problem definition, the checked limit-state contract, and
standardization.

A hybrid problem couples Gaussian random inputs with bounded uncertain
inputs through a limit-state function; positive response means safe.  Every
response a user limit state returns is checked here, whether one point
(`_response`) or the rows of an array (`_rows`, `evaluate_rows`): NaN or an
infinity raises NonFiniteResponseError, a non-scalar response or a batch of
the wrong shape InvalidParameterError, each naming the physical point.  The
standardization is one affine map over omega = (u, delta), standard normals
for the random inputs and the symmetric unit box for the uncertain ones:
`StandardizedProblem.physical` takes a point or rows of omega to the
physical (x, y), and its two evaluators, `lsf_omega` for a point and
`lsf_omega_rows` for rows, share that one arithmetic path with the
original limit state.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import LinearUncertain, Normal
from .errors import InvalidParameterError, NonFiniteResponseError

__all__ = [
    "RandomVariable",
    "UncertainVariable",
    "HybridProblem",
    "StandardizedProblem",
    "standardize",
    "evaluate_rows",
    "fd_gradient",
]


def _point(x, y):
    return f"x={np.asarray(x).tolist()}, y={np.asarray(y).tolist()}"


def _non_finite(source, value, x, y):
    return NonFiniteResponseError(f"{source} returned {value} at {_point(x, y)}")


def _response(value, x, y):
    """One limit-state response at the physical point (x, y) as a float: a
    non-scalar raises InvalidParameterError naming its shape, NaN or an
    infinity NonFiniteResponseError; both name the point."""
    # numpy's float64 is a float; anything else takes the full check
    if isinstance(value, float) and math.isfinite(value):
        return value
    if np.shape(value) != ():
        raise InvalidParameterError(
            f"limit state returned shape {np.shape(value)}, not a scalar, "
            f"at {_point(x, y)}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise _non_finite("limit state", value, x, y)
    return value


def _rows(lsf, lsf_batch, x, y):
    """Checked responses at the rows of x (N, m) and y (N, n): one
    `lsf_batch` call, whose result must have shape (N,), when lsf_batch is
    not None, a per-row `lsf` loop through `_response` otherwise.  A result
    of the wrong shape raises InvalidParameterError, the first NaN or
    infinite response NonFiniteResponseError; both name a physical point."""
    if lsf_batch is None:
        # a finite float, numpy's float64 included, needs no _response call
        return np.fromiter(
            (value if isinstance(value := lsf(xi, yi), float) and math.isfinite(value)
             else _response(value, xi, yi) for xi, yi in zip(x, y)),
            float, len(x))
    values = np.asarray(lsf_batch(x, y), dtype=float)
    if values.shape != (len(x),):
        raise InvalidParameterError(
            f"limit-state batch returned shape {values.shape} for "
            f"{len(x)} rows, the first at {_point(x[0], y[0])}"
        )
    finite = np.isfinite(values)
    if not finite.all():
        i = np.flatnonzero(~finite)[0]
        raise _non_finite("limit state", float(values[i]), x[i], y[i])
    return values


def _law(name, kind, law, *params):
    """law(*params), the law of a {kind} variable; a refusal names it."""
    try:
        return law(*params)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"bad {kind} variable {name!r}: {exc}") from exc


@dataclass(frozen=True)
class RandomVariable:
    """Named Gaussian input; its law `dist` is built, and so checked, once."""

    name: str
    mean: float
    stddev: float
    dist: Normal = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dist",
                           _law(self.name, "random", Normal, self.mean, self.stddev))


@dataclass(frozen=True)
class UncertainVariable:
    """Named uncertain input known only through its bounds; its law `dist`
    is built, and so checked, once."""

    name: str
    lower: float
    upper: float
    dist: LinearUncertain = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dist", _law(self.name, "uncertain",
                                              LinearUncertain, self.lower, self.upper))


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

    User callables are called from one thread, in order; the problem
    itself is immutable.
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


def _central_differences(evaluate, point, rel_step, with_point=False):
    """Central-difference gradient at point from evaluate(rows), the values
    at the 2k rows of the stencil: row 2i is point + h_i e_i, row 2i + 1 is
    point - h_i e_i, with h = rel_step * max(1, |point|).  with_point puts
    the point itself first, as row 0 of one block of 2k + 1 rows, and
    returns (value at the point, gradient)."""
    k = point.size
    lead = int(with_point)
    # fmax, like max(1.0, nan), steps a NaN coordinate by rel_step
    h = np.fmax(1.0, np.abs(point))
    h *= rel_step
    rows = np.empty((2 * k + lead, k))
    rows[...] = point
    # entry i of stencil rows 2i and 2i + 1 sits at i*(2k + 1) and
    # k + i*(2k + 1) of the flat array, after the lead rows' lead*k entries
    flat = rows.reshape(-1)
    np.add(point, h, out=flat[lead * k::2 * k + 1])
    np.subtract(point, h, out=flat[lead * k + k::2 * k + 1])
    values = evaluate(rows)
    gradient = np.subtract(values[lead::2], values[lead + 1::2])
    gradient /= h + h  # 2h exactly
    return (float(values[0]), gradient) if with_point else gradient


def fd_gradient(func, point, rel_step=1e-6):
    """Central finite-difference gradient with per-coordinate step
    h = rel_step * max(1, |coordinate|); func is called at point + h_i e_i,
    then at point - h_i e_i, coordinate by coordinate."""
    return _central_differences(
        lambda rows: np.fromiter(map(func, rows), float, len(rows)),
        np.asarray(point, dtype=float), rel_step)


@dataclass(frozen=True)
class StandardizedProblem:
    """Problem expressed over omega = (u, delta): standard-normal u for the
    random inputs, then the unit-box delta for the uncertain ones.

    One affine map, physical = shift + scale * omega, takes omega to the
    physical (x, y): shift holds the random means, then the box centres,
    and scale the standard deviations, then the box half-widths.  Both
    evaluators call the original limit state on the mapped point, so the
    two share a single arithmetic path and agree pointwise by construction.
    A NaN or infinite response raises NonFiniteResponseError, a non-scalar
    one InvalidParameterError naming its shape; both name the physical
    point.
    """

    problem: HybridProblem
    shift: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)

    # cached: the limit-state path reads m on every call
    @cached_property
    def m(self):
        return self.problem.m

    @cached_property
    def n(self):
        return self.problem.n

    def physical(self, omega):
        """The physical (x, y) of omega, a point of length m + n or an
        array of such rows (N, m + n); x and y are views of one mapped
        array."""
        phys = self.scale * omega
        phys += self.shift
        m = self.m
        return phys[..., :m], phys[..., m:]

    def lsf_omega(self, omega):
        """Checked response at the standardized point omega, an array or a
        sequence."""
        x, y = self.physical(omega)
        return _response(self.problem.lsf(x, y), x, y)

    def lsf_omega_rows(self, omegas):
        """Responses at the rows of standardized omegas (N, m + n): all are
        mapped in one `physical` call, then `lsf` is called once per row,
        in row order, never `lsf_batch`; each response is checked as
        `lsf_omega` checks it."""
        return _rows(self.problem.lsf, None, *self.physical(omegas))

    def lsf_and_gradient(self, omega, fd_rel_step):
        """(f, gradient) of the standardized limit state at omega = (u,
        delta): the one derivative call of the design-point search and the
        polar reduction.

        Without an analytic gradient, central differences with relative
        step fd_rel_step as one block through `lsf_omega_rows`: the point,
        then the stencil rows of `fd_gradient` in its order.  With one, an
        `lsf_omega` call and then the chain rule through the affine map; a
        NaN or infinite analytic gradient raises NonFiniteResponseError
        naming the gradient and the physical point.
        """
        omega = np.asarray(omega, dtype=float)
        if self.problem.gradient is None:
            return _central_differences(self.lsf_omega_rows, omega, fd_rel_step,
                                        with_point=True)
        value = self.lsf_omega(omega)
        x, y = self.physical(omega)
        phys = np.asarray(self.problem.gradient(x, y), dtype=float)
        if not np.isfinite(phys).all():
            raise _non_finite("gradient", phys.tolist(), x, y)
        return value, phys * self.scale


def standardize(problem):
    """Build the standardized view of a hybrid problem."""
    lowers = np.array([uv.lower for uv in problem.uncertains], dtype=float)
    uppers = np.array([uv.upper for uv in problem.uncertains], dtype=float)
    means = [rv.mean for rv in problem.randoms]
    stddevs = [rv.stddev for rv in problem.randoms]
    return StandardizedProblem(
        problem=problem,
        shift=np.concatenate([means, (lowers + uppers) / 2]),
        scale=np.concatenate([stddevs, (uppers - lowers) / 2]),
    )
