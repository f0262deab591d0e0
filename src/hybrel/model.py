"""Hybrid problem definition, the checked limit-state contract, and
standardization.

A hybrid problem couples Gaussian random inputs with bounded uncertain
inputs through a limit-state function; positive response means safe.  Every
response a user limit state returns is checked here, whether one point
(`_response`) or the rows of an array (`_rows`, `evaluate_rows`): NaN or an
infinity raises NonFiniteResponseError, a non-scalar response, a batch of
the wrong shape or a response that is not a real number (a string or None,
say) InvalidParameterError, each naming the physical point.  The
standardization is one affine map over omega = (u, delta), standard normals
for the random inputs and the symmetric unit box for the uncertain ones:
`StandardizedProblem.physical` takes a point or rows of omega to the
physical (x, y), and its two evaluators, `lsf_omega` for a point and
`lsf_omega_rows` for rows, share that one arithmetic path with the
original limit state.
"""

import math
import numbers
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


def _all_real(array):
    """Whether every entry of array is a real number: a bool, integer or
    float dtype, or an object dtype whose entries are each a numbers.Real
    or a Decimal (a Python int past int64, a Fraction, say)."""
    kind = array.dtype.kind
    if kind in "biuf":
        return True
    if kind != "O":
        return False
    from decimal import Decimal  # only an object array needs it
    return all(isinstance(value, (numbers.Real, Decimal)) for value in array.flat)


def _point(x, y):
    return f"x={np.asarray(x).tolist()}, y={np.asarray(y).tolist()}"


def _non_finite(source, value, x, y):
    return NonFiniteResponseError(f"{source} returned {value} at {_point(x, y)}")


def _response(value, x, y):
    """One limit-state response at the physical point (x, y) as a float: a
    non-scalar or a value that is not a real number (a string or None, say)
    raises InvalidParameterError naming its shape or type, NaN or an
    infinity NonFiniteResponseError; each names the point."""
    # numpy's float64 is a float; anything else takes the full check
    if isinstance(value, float) and math.isfinite(value):
        return value
    array = np.asarray(value)
    if array.shape != ():
        raise InvalidParameterError(
            f"limit state returned shape {array.shape}, not a scalar, "
            f"at {_point(x, y)}"
        )
    if not _all_real(array):
        raise InvalidParameterError(
            f"limit state returned {type(value).__name__} of dtype "
            f"{array.dtype}, not a real number, at {_point(x, y)}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise _non_finite("limit state", value, x, y)
    return value


def _rows(lsf, lsf_batch, x, y):
    """Checked responses at the rows of x (N, m) and y (N, n): one
    `lsf_batch` call, whose result must be N real numbers, when lsf_batch
    is not None, a per-row `lsf` loop through `_response` otherwise.  A
    result of the wrong shape or not of real numbers raises
    InvalidParameterError, the first NaN or infinite response
    NonFiniteResponseError; both name a physical point."""
    if lsf_batch is None:
        # a finite float, numpy's float64 included, needs no _response call
        return np.fromiter(
            (value if isinstance(value := lsf(xi, yi), float) and math.isfinite(value)
             else _response(value, xi, yi) for xi, yi in zip(x, y)),
            float, len(x))
    values = np.asarray(lsf_batch(x, y))
    if not _all_real(values):
        raise InvalidParameterError(
            f"limit-state batch returned dtype {values.dtype}, not real "
            f"numbers, for {len(x)} rows, the first at {_point(x[0], y[0])}"
        )
    values = values.astype(float, copy=False)
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
    callable must return (df/dx, df/dy) at (x, y) as m + n real numbers;
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
    an infinity raises NonFiniteResponseError, a non-scalar response, a
    batch not of shape (N,) or a response that is not a real number
    InvalidParameterError; both name the point."""
    return _rows(problem.lsf, problem.lsf_batch, x, y)


def _central_differences(evaluate, points, rel_step, with_point=False):
    """Central-difference gradients at points, one point (k,) or a block of
    points (..., k), from evaluate(rows), the values at one block of rows
    that holds each point's stencil in turn: its row 2i is point + h_i e_i,
    its row 2i + 1 is point - h_i e_i, with h = rel_step * max(1, |point|).
    with_point puts each point itself first, as row 0 of its 2k + 1 rows,
    and returns (values at the points, gradients)."""
    k = points.shape[-1]
    lead = int(with_point)
    # fmax, like max(1.0, nan), steps a NaN coordinate by rel_step
    h = np.fmax(1.0, np.abs(points))
    h *= rel_step
    block = points.shape[:-1]  # () for one point
    rows = np.empty(block + (2 * k + lead, k))
    rows[...] = points[..., None, :]
    # entry i of a point's stencil rows 2i and 2i + 1 sits at i*(2k + 1) and
    # k + i*(2k + 1) of its flat rows, after the lead rows' lead*k entries
    flat = rows.reshape(block + (-1,))
    np.add(points, h, out=flat[..., lead * k::2 * k + 1])
    np.subtract(points, h, out=flat[..., lead * k + k::2 * k + 1])
    values = evaluate(rows.reshape(-1, k)).reshape(rows.shape[:-1])
    gradients = np.subtract(values[..., lead::2], values[..., lead + 1::2])
    gradients /= h + h  # 2h exactly
    return (values[..., 0], gradients) if with_point else gradients


def fd_gradient(func, point, rel_step=1e-6):
    """Central finite-difference gradient with per-coordinate step
    h = rel_step * max(1, |coordinate|); func is called at point + h_i e_i,
    then at point - h_i e_i, coordinate by coordinate.  A scalar point is
    a point of one coordinate."""
    return _central_differences(
        lambda rows: np.fromiter(map(func, rows), float, len(rows)),
        np.atleast_1d(np.asarray(point, dtype=float)), rel_step)


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
    one or one that is not a real number InvalidParameterError naming its
    shape or type; both name the physical point.
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
        """(f, gradient) of the standardized limit state at one point omega
        = (u, delta), (k,), as (float, (k,) gradient), or at a block of
        points (P, k), as ((P,) values, (P, k) gradients): the one
        derivative call of the design-point search and the polar reduction.

        Without an analytic gradient, central differences with step h_i =
        fd_rel_step * max(1, |omega_i|) in one `lsf_omega_rows` block: each
        point, then its stencil rows in `fd_gradient`'s order.  With one,
        each point in turn takes an `lsf_omega` call, then a `gradient` call
        and the chain rule; a gradient not of shape (m + n,) and real raises
        InvalidParameterError naming its shape and dtype, a NaN or infinite
        one NonFiniteResponseError, each naming the physical point.
        """
        omega = np.asarray(omega, dtype=float)
        if self.problem.gradient is None:
            value, gradient = _central_differences(
                self.lsf_omega_rows, omega, fd_rel_step, with_point=True)
            return (float(value) if omega.ndim == 1 else value), gradient
        if omega.ndim == 2:
            pairs = [self.lsf_and_gradient(row, fd_rel_step) for row in omega]
            return np.array([v for v, _ in pairs]), np.array([g for _, g in pairs])
        value = self.lsf_omega(omega)
        x, y = self.physical(omega)
        phys = np.asarray(self.problem.gradient(x, y))
        if phys.shape != omega.shape or not _all_real(phys):
            raise InvalidParameterError(
                f"gradient returned shape {phys.shape} of dtype {phys.dtype}, "
                f"not {omega.shape} real numbers, at {_point(x, y)}")
        phys = phys.astype(float, copy=False)
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
