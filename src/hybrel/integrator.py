"""Reliability of a reduced limit state by the polar double integral.

At a frozen squared-uncertain-radius value ("shift"), the radius variable
follows the shifted chi law with the random dimension's degrees of freedom
and the angle cosine follows the cosine-angle law of the total dimension;
the safe event is offset + radius*cosine > 0 on radius > sqrt(shift).
Sweeping the shift over its uncertainty distribution, on [0, n] for n
uncertain inputs, yields the reliability envelope.

With no uncertain inputs (n = 0) the only shift is 0 and the safe set is a
Gaussian half-space, so the reliability is exactly Phi(offset), evaluated
in closed form with math.erfc.  Otherwise the radius integral runs over the
chi law of the m random coordinates, truncated at its 1 - 1e-10 quantile,
as a Gauss-Legendre rule in s with r = lo + span*s^2 starting at the kink
radius sqrt(offset^2 - shift); the quadratic stretch absorbs the
square-root behaviour of the angle threshold there.  The angle mass at
each radius is closed form: the cosine-angle law at integer dimension has
a cumulative function that is a finite sum of positive terms, a polynomial
in sin^2 evaluated by Horner's rule (cos_angle_cdf).  The offset's sign is
the same at every node, so the sweep evaluates the law's upper half at
|offset|/v and reflects it once when the offset is negative.  A whole
sweep of up to 4096 shifts is evaluated as one (shifts x nodes) array,
updated in place: a handful of such arrays are allocated per sweep,
whatever the dimension.  r^2 is formed once, for both the angle threshold
and the chi density's r^2/2, whose constant terms are one addition.  The
node sum is an elementwise product with the weights and a row sum, not a
matrix product, so that a shift's value does not depend on the other
shifts of its broadcast.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .config import as_count
from .distributions import (
    _chi_pdf_positive,
    _cos_angle_signed,
    chi_square_cdf,
    chi_square_ppf,
)
from .errors import AccuracyError, InvalidParameterError

__all__ = ["ShiftSchedule", "ReliabilityInterval", "reliability_at_shift",
           "reliability_interval"]

_TAIL = 1e-10  # truncation mass of the radius variable
_BLOCK = 4096  # shifts per broadcast, bounding the (shifts x nodes) arrays


@dataclass(frozen=True)
class ShiftSchedule:
    """The non-decreasing shift values a sweep visits, stored as floats.

    uniform() maps belief levels through the inverse uncertainty
    distribution of the squared uncertain radius; for the default linear
    family on [0, n] the endpoints are exactly 0 and n.
    """

    shifts: tuple

    def __post_init__(self):
        shifts = np.asarray(self.shifts, dtype=float).reshape(-1)
        finite = np.isfinite(shifts)
        if not finite.all():
            # an order check passes NaN, since every comparison with it is false
            raise InvalidParameterError(
                f"shift values must be finite, got {shifts[~finite][0]}")
        if shifts.size == 0 or np.any(shifts[1:] < shifts[:-1]):
            raise InvalidParameterError(
                "shift values must be non-empty and non-decreasing")
        object.__setattr__(self, "shifts", tuple(shifts.tolist()))

    @classmethod
    def uniform(cls, n_uncertain, levels=21):
        """Uniform belief-level grid mapped through the linear family on
        [0, n_uncertain].  With no uncertain variables the schedule
        collapses to the single shift 0.  Both counts must be integers
        (Python or numpy).
        """
        n_uncertain = as_count(n_uncertain, "n_uncertain")
        levels = as_count(levels, "levels")
        if n_uncertain < 0:
            raise InvalidParameterError("n_uncertain must be >= 0")
        if n_uncertain == 0:
            return cls((0.0,))
        if levels < 2:
            raise InvalidParameterError("levels must be >= 2 when n > 0")
        # the linear family's inverse on [0, n] is alpha * n
        return cls(np.linspace(0.0, 1.0, levels) * float(n_uncertain))


@dataclass(frozen=True)
class ReliabilityInterval:
    """Reliability envelope over the shift sweep with its failure complement.

    The failure interval is the exact complement: f_lo = 1 - r_hi and
    f_hi = 1 - r_lo.  curve holds the ordered (shift, reliability) pairs.
    """

    r_lo: float
    r_hi: float
    curve: tuple

    def __post_init__(self):
        if not (0.0 <= self.r_lo <= self.r_hi <= 1.0):
            raise InvalidParameterError("need 0 <= r_lo <= r_hi <= 1")

    @property
    def f_lo(self):
        return 1.0 - self.r_hi

    @property
    def f_hi(self):
        return 1.0 - self.r_lo


@lru_cache(maxsize=None)
def _radius_rule(nodes):
    """Gauss-Legendre rule in s on [0, 1]: the squared nodes s^2 and the
    weights times 2s, the stretch's dr/ds apart from its factor span."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    s = (t + 1.0) / 2.0
    return s * s, w * s


@lru_cache(maxsize=None)
def _radius_cap(m):
    """The chi(m) radius at which the integral truncates."""
    return math.sqrt(chi_square_ppf(1.0 - _TAIL, m))


def _broadcast_reliability(reduced, shifts, quad_nodes):
    """Reliabilities at a 1-D array of shifts, one (shifts x nodes) broadcast."""
    offset = reduced.offset
    m, n = reduced.m, reduced.n
    if n == 0:
        # every shift is 0 and the safe set is the half-space
        # {offset + u.e > 0} of a standard Gaussian: its mass is Phi(offset)
        return np.full(shifts.shape, 0.5 * math.erfc(-offset / math.sqrt(2)))

    total_dim = m + n
    r_max = _radius_cap(m)
    # below the kink radius sqrt(offset^2 - shift) the safe event holds for
    # every angle when offset > 0 and for none when offset < 0; that mass is
    # analytic (chi_square_cdf is zero where there is no kink)
    kink_sq = offset * offset - shifts
    base = chi_square_cdf(kink_sq, m) if offset > 0.0 else 0.0
    lo = np.minimum(np.sqrt(np.maximum(kink_sq, 0.0)), r_max)
    span = r_max - lo

    # quadratic stretch r = lo + span*s^2 absorbs the square-root behaviour
    # of the angle threshold at the kink radius, keeping the integrand
    # smooth; r > 0 on every node
    s_sq, weights = _radius_rule(quad_nodes)
    r = np.multiply.outer(span, s_sq)
    r += lo[:, None]
    # P(cosine > -offset/v) = P(cosine < offset/v) by the law's symmetry,
    # with v = sqrt(r^2 + shift): the law's upper half at |offset|/v,
    # reflected when offset < 0
    r_sq = r * r
    threshold = r_sq + shifts[:, None]
    np.sqrt(threshold, out=threshold)
    np.divide(abs(offset), threshold, out=threshold)
    integrand = _cos_angle_signed(threshold, total_dim, offset < 0.0)
    r_sq /= 2
    integrand *= _chi_pdf_positive(r, m, half_sq=r_sq)
    integrand *= weights
    integral = integrand.sum(axis=1)
    integral *= span
    integral += base
    return np.clip(integral, 0.0, 1.0, out=integral)


def _reliability_at_shifts(reduced, shifts, quad_nodes, verify):
    """Reliabilities of the reduced limit state at every shift of an array.

    Probability mass of {offset + radius*cosine > 0} with the radius
    following the shifted chi law (dof = m, each shift as given, in [0, n])
    truncated at the 1 - 1e-10 quantile, and the cosine following the
    cosine-angle law of dimension m + n; Phi(offset) exactly when n = 0.
    The shifts are evaluated together as one (shifts x quad_nodes) array,
    at most 4096 shifts at a time, and every entry equals the one-element
    call with that shift.  verify=True re-evaluates at doubled quad_nodes
    and raises AccuracyError if any value moves by more than 1e-6.
    """
    if reduced.m < 1:
        raise InvalidParameterError("the integrator requires m >= 1")
    shifts = np.asarray(shifts, dtype=float).reshape(-1)
    if not np.all((shifts >= 0) & (shifts <= reduced.n)):
        raise InvalidParameterError(f"shift must lie in [0, n] = [0, {reduced.n}]")
    quad_nodes = as_count(quad_nodes, "quad_nodes")
    if quad_nodes < 32:
        raise InvalidParameterError("quad_nodes must be at least 32")

    def sweep(nodes):
        return np.concatenate(
            [_broadcast_reliability(reduced, shifts[i:i + _BLOCK], nodes)
             for i in range(0, len(shifts), _BLOCK)])

    values = sweep(quad_nodes)
    if verify:
        check = sweep(2 * quad_nodes)
        moved = np.abs(check - values)
        if np.any(moved > 1e-6):
            worst = int(np.argmax(moved))
            raise AccuracyError(
                f"reliability integral moved by {moved[worst]:.3e} under "
                f"node doubling at {quad_nodes} nodes (shift {shifts[worst]!r})"
            )
    return values


def reliability_at_shift(reduced, shift, quad_nodes=64, verify=False):
    """Reliability of the reduced limit state at one frozen shift value.

    The one-element call of the sweep's kernel, so it equals the matching
    curve entry of :func:`reliability_interval` bit for bit.
    """
    return float(_reliability_at_shifts(reduced, [shift], quad_nodes, verify)[0])


def reliability_interval(reduced, schedule=None, quad_nodes=64, verify=False,
                         thread_cap=1):
    """Reliability envelope over a shift schedule.

    Evaluates the reliability at every scheduled shift, as one broadcast
    for a schedule of up to 4096 shifts, and returns the min/max envelope
    with the full curve; the default schedule is ShiftSchedule.uniform(n).
    thread_cap > 1 splits the shifts into that many contiguous blocks, one
    broadcast each, on a thread pool; every curve value is the same as
    with thread_cap = 1, and as reliability_at_shift at that shift.
    """
    if schedule is None:
        schedule = ShiftSchedule.uniform(reduced.n)
    shifts = np.array(schedule.shifts)
    parts = min(thread_cap, len(shifts))
    if parts > 1:
        # imported here so that a single-threaded run does not load it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parts) as pool:
            values = np.concatenate(list(pool.map(
                lambda block: _reliability_at_shifts(reduced, block,
                                                     quad_nodes, verify),
                np.array_split(shifts, parts),
            )))
    else:
        values = _reliability_at_shifts(reduced, shifts, quad_nodes, verify)
    return ReliabilityInterval(
        r_lo=float(values.min()),
        r_hi=float(values.max()),
        curve=tuple(zip(schedule.shifts, values.tolist())),
    )
