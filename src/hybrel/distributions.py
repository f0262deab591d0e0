"""Probability and uncertainty distribution families.

The two input laws are objects that hold their formulas and the only check
of their parameters, made at construction: `Normal` (pdf, cdf, inv_cdf) for
the random inputs and `LinearUncertain` (cdf and its exact inverse) for the
uncertain ones; `normal_cdf(x, mean, stddev)` is `Normal(mean, stddev).cdf(x)`.
The sweep's laws take a dimension: chi, chi-square, shifted chi (the law of
sqrt(Q + shift) for Q chi-square) and the cosine-angle family (the law of
the cosine of the angle between a random direction and a fixed unit vector).

One kernel per law: the chi family's laws are changes of variables of the
chi density and chi_square_cdf, the two kernels the shift sweep integrates.
Every dimension is a count (config.as_count, then its lower bound), so the
chi-square and cosine-angle CDFs are finite sums of positive terms
(Abramowitz & Stegun 26.4.4-5 and the sin^k reduction formula), evaluated
in closed form with the standard library's erfc and lgamma; only the
normal law calls scipy.special, on first use.

All evaluation functions accept scalars or numpy arrays and return a matching
shape; scalar inputs come back as Python floats.  Every object is immutable
after construction and every function is pure, so concurrent use is safe.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import as_count
from .errors import InvalidParameterError

__all__ = [
    "Normal",
    "LinearUncertain",
    "normal_cdf",
    "chi_pdf",
    "chi_cdf",
    "chi_square_pdf",
    "chi_square_cdf",
    "chi_square_ppf",
    "shifted_chi_pdf",
    "shifted_chi_cdf",
    "cos_angle_pdf",
    "cos_angle_cdf",
]


def _as_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must be finite, got {x!r}")
    return arr


def _maybe_scalar(value, like):
    if np.isscalar(like) or np.ndim(like) == 0:
        return float(value)
    return value


def _dimension(value, name, least):
    """value as an int by config.as_count, refused below `least`."""
    value = as_count(value, name)
    if value < least:
        raise InvalidParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# the two input laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Normal:
    """Gaussian law N(mean, stddev) of a random input."""

    mean: float = 0.0
    stddev: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.stddev) and self.stddev > 0):
            raise InvalidParameterError(
                f"Normal needs a finite mean and a finite stddev > 0, got {self!r}")

    def pdf(self, x):
        z = (_as_array(x, "x") - self.mean) / self.stddev
        return _maybe_scalar(
            np.exp(-0.5 * z * z) / (self.stddev * math.sqrt(2 * math.pi)), x)

    def cdf(self, x):
        """Strictly increasing in x; a non-finite x raises."""
        from scipy.special import ndtr

        return _maybe_scalar(ndtr((_as_array(x, "x") - self.mean) / self.stddev), x)

    def inv_cdf(self, p):
        """Quantile function; p must lie strictly inside (0, 1)."""
        from scipy.special import ndtri

        arr = _as_array(p, "p")
        if np.any(arr <= 0) or np.any(arr >= 1):
            raise InvalidParameterError("p must lie strictly inside (0, 1)")
        return _maybe_scalar(self.mean + self.stddev * ndtri(arr), p)


def normal_cdf(x, mean=0.0, stddev=1.0):
    """Cumulative distribution of N(mean, stddev) at x."""
    return Normal(mean, stddev).cdf(x)


@dataclass(frozen=True)
class LinearUncertain:
    """Linear uncertainty distribution L(lower, upper) of an uncertain input:
    clamp((x - lower)/(upper - lower), 0, 1).

    The family is regular: the inverse exists on [0, 1] with the endpoint
    convention inv(0) = lower, inv(1) = upper, which the forced-root
    conventions downstream rely on.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)
                and self.upper > self.lower):
            raise InvalidParameterError(
                f"LinearUncertain needs finite bounds, lower < upper, got {self!r}")

    def cdf(self, x):
        arr = _as_array(x, "x")
        return _maybe_scalar(
            np.clip((arr - self.lower) / (self.upper - self.lower), 0.0, 1.0), x)

    def inv(self, alpha):
        """Exact inverse of `cdf` on [0, 1]; inv(1) is upper itself, where
        lower + (upper - lower) can round past it."""
        arr = _as_array(alpha, "alpha")
        if np.any(arr < 0) or np.any(arr > 1):
            raise InvalidParameterError("alpha must lie in [0, 1]")
        value = self.lower + arr * (self.upper - self.lower)
        return _maybe_scalar(np.where(arr == 1.0, self.upper, value), alpha)


# ---------------------------------------------------------------------------
# chi / chi-square family
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
# the gamma terms start from exp(-y), which underflows past y = 745; up to
# this dof the mass the sums then miss stays below 1e-19
_MAX_GAMMA_DOF = 1000
_SERIES_BLOCK = 16  # terms of the lower-tail series summed per block
_NEWTON_STEPS = 100
_MAX_LOG_STEP = 40.0


def _gamma_tails(dof, y):
    """Regularized incomplete gamma functions (P, Q) at a = dof/2 and y >= 0.

    With a = k + h (h = 0 for even dof, 1/2 for odd) both tails are sums of
    the positive terms t_j = exp(-y) y^(j+h) / Gamma(j+h+1), each one the
    one before times y/(j+h):

        Q = sum_{j<k} t_j  (plus erfc(sqrt(y)) for odd dof),
        P = sum_{j>=k} t_j.

    Below y = a + 1 the series for P converges fast and Q = 1 - P; from
    there on the finite sum gives Q and P = 1 - Q, so the smaller tail
    always keeps its full relative accuracy.  The series runs in blocks of
    _SERIES_BLOCK terms, each one outer division y/(a+j), one running
    product from the last term so far and one row sum.  An entry stops
    adding after the block whose last term is at most eps times its sum,
    whatever the other entries still add, so an array call equals its
    elementwise scalar calls.
    """
    if dof > _MAX_GAMMA_DOF:
        raise InvalidParameterError(
            f"dof must be at most {_MAX_GAMMA_DOF}, got {dof!r}"
        )
    flat = y.reshape(-1)
    k, odd = divmod(dof, 2)
    a = dof / 2
    term = np.exp(-flat)
    if odd:  # times y^(1/2) / Gamma(3/2)
        term = term * 2.0 * np.sqrt(flat / math.pi)
    head = np.zeros_like(flat)
    for j in range(1, k + 1):
        head += term
        term = term * flat / (j + odd / 2)
    lower_p = np.empty_like(flat)
    upper_q = np.empty_like(flat)
    low = flat < a + 1
    if np.any(low):
        y_low = flat[low]
        t = term[low]
        total = t.copy()
        step = 0
        active = t > _EPS * total
        while active.any():
            block = np.divide.outer(
                y_low, a + np.arange(step + 1, step + _SERIES_BLOCK + 1))
            block[:, 0] *= t
            np.cumprod(block, axis=1, out=block)
            np.add(total, block.sum(axis=1), out=total, where=active)
            t = block[:, -1]
            active &= t > _EPS * total
            step += _SERIES_BLOCK
        lower_p[low] = total
        upper_q[low] = 1.0 - total
    high = ~low
    if np.any(high):
        q = head[high]
        if odd:
            q = q + np.array([math.erfc(math.sqrt(v)) for v in flat[high].tolist()])
        upper_q[high] = q
        lower_p[high] = 1.0 - q
    return lower_p.reshape(y.shape), upper_q.reshape(y.shape)


def _gamma_quantile(dof, p):
    """y >= 0 with P(dof/2, y) = p for 0 <= p < 1.

    Newton's method on the logarithm of the smaller tail (Q above the
    median, P below it) as a function of log(y): both are concave there, so
    after at most one overshoot the steps approach the root from one side,
    and the smaller tail's relative accuracy carries to the far tails.
    Every evaluation shrinks a bracket on the root; a step that leaves the
    bracket bisects it (geometrically) instead, and one step changes y by
    at most a factor exp(_MAX_LOG_STEP).  A root below the smallest
    positive double comes back as 0.
    """
    if p == 0.0:
        return 0.0
    a = dof / 2
    upper = p > 0.5
    target = math.log(1.0 - p if upper else p)
    lo, hi = 0.0, math.inf
    y = a
    for _ in range(_NEWTON_STEPS):
        lower_p, upper_q = _gamma_tails(dof, np.array([y]))
        tail = float(upper_q[0] if upper else lower_p[0])
        excess = math.log(tail) - target if tail > 0.0 else -math.inf
        if excess == 0.0:
            return y
        # log Q falls with y and log P rises
        if (excess > 0.0) != upper:
            hi = y
        else:
            lo = y
        # |d log(tail) / d log(y)| = y * density / tail
        slope = 0.0
        if tail > 0.0:
            slope = math.exp(a * math.log(y) - y - math.lgamma(a)) / tail
        if slope > 0.0:
            step = min(max(excess / slope, -_MAX_LOG_STEP), _MAX_LOG_STEP)
            candidate = y * math.exp(step if upper else -step)
        else:
            candidate = math.nan
        if not lo < candidate < hi:
            if hi == math.inf:
                candidate = 2.0 * y
            elif lo == 0.0:
                candidate = hi * math.exp(-_MAX_LOG_STEP)
            else:
                candidate = math.sqrt(lo) * math.sqrt(hi)
        if candidate == 0.0:
            return 0.0
        if abs(candidate - y) <= 2.0 * _EPS * candidate:
            return candidate
        y = candidate
    return y


def chi_square_pdf(x, dof):
    """Chi-square(dof) density, zero for x <= 0: chi_pdf(sqrt(x)) / (2 sqrt(x)),
    for dof >= 2 formed as the chi(dof - 1) density at sqrt(x) times
    Gamma((dof-1)/2) / (2 sqrt(2) Gamma(dof/2)), with no subnormal factor."""
    dof = _dimension(dof, "dof", 1)
    arr = _as_array(x, "x")
    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        radius = np.sqrt(arr[pos])
        out[pos] = _chi_pdf_positive(radius, 1) / (2.0 * radius) if dof == 1 else (
            _chi_pdf_positive(radius, dof - 1) / math.sqrt(8.0)
            * math.exp(math.lgamma((dof - 1) / 2) - math.lgamma(dof / 2)))
    return _maybe_scalar(out, x)


def chi_square_cdf(x, dof):
    """Chi-square cumulative distribution."""
    dof = _dimension(dof, "dof", 1)
    arr = _as_array(x, "x")
    return _maybe_scalar(_gamma_tails(dof, np.maximum(arr, 0.0) / 2)[0], x)


def chi_square_ppf(p, dof):
    """Chi-square quantile; p in [0, 1)."""
    dof = _dimension(dof, "dof", 1)
    arr = _as_array(p, "p")
    if np.any(arr < 0) or np.any(arr >= 1):
        raise InvalidParameterError("p must lie in [0, 1)")
    quantiles = [2.0 * _gamma_quantile(dof, value) for value in arr.ravel().tolist()]
    return _maybe_scalar(np.reshape(quantiles, arr.shape), p)


def _chi_pdf_positive(x, dof, half_sq=None):
    """chi(dof) density at an array of radii that are all positive.

    half_sq, when given, is x^2/2 as an array of x's shape; the call only
    reads it."""
    out = np.log(x, out=np.empty_like(x))
    out *= dof - 1
    if half_sq is None:
        half_sq = x * x
        half_sq /= 2
    out -= half_sq
    # log(2^(1-dof/2) / Gamma(dof/2)), added as one constant
    out += (1 - dof / 2) * math.log(2) - math.lgamma(dof / 2)
    return np.exp(out, out=out)


def chi_pdf(x, dof):
    """Density of the norm of a `dof`-dimensional standard Gaussian vector.

    chi(dof) = law of sqrt(Q) with Q chi-square(dof):
    p(x) = 2^(1-dof/2) x^(dof-1) exp(-x^2/2) / Gamma(dof/2), x > 0.
    """
    dof = _dimension(dof, "dof", 1)
    arr = _as_array(x, "x")
    pos = arr > 0
    out = np.zeros_like(arr)
    if np.any(pos):
        out[pos] = _chi_pdf_positive(arr[pos], dof)
    return _maybe_scalar(out, x)


def chi_cdf(x, dof):
    """Cumulative distribution of chi(dof): chi_square_cdf at max(x, 0)^2."""
    return shifted_chi_cdf(x, dof, 0.0)


def _check_shift(shift):
    if not (math.isfinite(shift) and shift >= 0):
        raise InvalidParameterError(f"shift must be finite and >= 0, got {shift!r}")


def shifted_chi_pdf(v, dof, shift):
    """Density of sqrt(Q + shift) with Q chi-square(dof); support v > sqrt(shift).

    With r = sqrt(v^2 - shift), which is chi(dof), the change of variables
    gives chi_pdf(r) v / r; zero where v <= 0 or v^2 - shift rounds to <= 0.
    """
    _check_shift(shift)
    if shift == 0:  # the radius is v itself
        return chi_pdf(v, dof)
    dof = _dimension(dof, "dof", 1)
    arr = _as_array(v, "v")
    radius = np.sqrt(np.maximum(arr * arr - shift, 0.0))
    out = np.zeros_like(arr)
    pos = (arr > 0) & (radius > 0)
    if np.any(pos):
        out[pos] = _chi_pdf_positive(radius[pos], dof) * arr[pos] / radius[pos]
    return _maybe_scalar(out, v)


def shifted_chi_cdf(v, dof, shift):
    """Cumulative distribution of sqrt(Q + shift), Q chi-square(dof):
    chi_square_cdf at min(v, 1e150)^2 - shift for v > 0, zero for v <= 0."""
    _check_shift(shift)
    positive = np.clip(_as_array(v, "v"), 0.0, 1e150)
    return chi_square_cdf(positive * positive - shift, dof)


# ---------------------------------------------------------------------------
# cosine-angle family
# ---------------------------------------------------------------------------

def cos_angle_pdf(v, total_dim):
    """Density of the cosine of the angle between a uniformly random direction
    in `total_dim` dimensions and any fixed unit vector.

    Evaluates c ((1 - v)(1 + v))^((N-3)/2), that is c sin^(N-2)(arccos v) /
    sqrt(1 - v^2) with N = total_dim, on (-1, 1); 1/c = B(1/2, (N-1)/2) =
    sqrt(pi) Gamma((N-1)/2) / Gamma(N/2) is the integral of the shape over
    (-1, 1).  Outside the open interval the density is zero by convention
    (for N = 2 the shape diverges at the endpoints but remains integrable).
    """
    total_dim = _dimension(total_dim, "total_dim", 2)
    arr = _as_array(v, "v")
    out = np.zeros_like(arr)
    inside = np.abs(arr) < 1.0
    if np.any(inside):
        vi = arr[inside]
        shape = ((1.0 - vi) * (1.0 + vi)) ** ((total_dim - 3) / 2)
        log_norm = (0.5 * math.log(math.pi) + math.lgamma((total_dim - 1) / 2)
                    - math.lgamma(total_dim / 2))
        out[inside] = shape * math.exp(-log_norm)
    return _maybe_scalar(out, v)


@lru_cache(maxsize=None)
def _cos_angle_coefficients(total_dim):
    """The coefficients 1/((k-1) W_(k-2)) of cos_angle_cdf's positive
    terms, k = 2 or 3, ..., total_dim - 2 in steps of two, the last first."""
    weight = 2.0 if total_dim % 2 else math.pi
    coefficients = []
    for k in range(2 + total_dim % 2, total_dim - 1, 2):
        coefficients.append(1.0 / ((k - 1) * weight))
        weight = weight * (k - 1) / k
    return tuple(reversed(coefficients))


def _cos_angle_upper(c, total_dim):
    """cos_angle_cdf at an array of cosines c in [0, 1], as a new array."""
    if total_dim % 2 == 0:
        share = np.negative(c)
        np.arccos(share, out=share)
        share /= math.pi
    else:
        share = c + 1.0
        share /= 2.0
    coefficients = _cos_angle_coefficients(total_dim)
    if coefficients:
        sin_sq = 1.0 - c
        sin_sq *= 1.0 + c
        # sum_j a_j sin^(2j) by Horner, times c and the first term's power
        # of sin: sin for even N, sin^2 for odd N; the first product turns
        # the float a_0 into an array, the later ones update it in place
        poly = coefficients[0]
        for a in coefficients[1:]:
            poly *= sin_sq
            poly += a
        lead = np.sqrt(sin_sq, out=sin_sq) if total_dim % 2 == 0 else sin_sq
        lead *= c
        poly *= lead
        share += poly
    return share


def _cos_angle_signed(magnitude, total_dim, negative):
    """cos_angle_cdf at the cosines of the given magnitudes and signs, as a
    new array.

    magnitude is a float array >= 0, clamped to 1 in place; negative is a
    bool or a boolean array of its shape, true where the cosine is
    negative, which the law's symmetry turns into 1 - G.
    """
    np.minimum(magnitude, 1.0, out=magnitude)
    share = _cos_angle_upper(magnitude, total_dim)
    if negative is not False:
        np.subtract(1.0, share, out=share, where=negative)
    return share


def cos_angle_cdf(v, total_dim):
    """Cumulative distribution of the cosine-angle family.

    For v >= 0 and theta = arccos(v) it is G_(N-2), the share of the sphere's
    weight sin^k on [theta, pi] with k = total_dim - 2 = N - 2.  Integrating
    sin^k by parts steps k by two with positive terms,

        G_k = G_(k-2) + sin(theta)^(k-1) v / ((k-1) W_(k-2)),
        W_k = W_(k-2) (k-1) / k,

    from G_0 = arccos(-v)/pi, W_0 = pi (even N) or G_1 = (1+v)/2, W_1 = 2
    (odd N), W_k being the integral of sin^k over [0, pi].  The terms past
    the first form a polynomial in sin(theta)^2 times v sin(theta) (even N)
    or v sin(theta)^2 (odd N), evaluated by Horner's rule with the
    coefficients 1/((k-1) W_(k-2)) cached per dimension; the law's symmetry
    gives 1 - G for v < 0.  This is the regularized incomplete beta
    I_((1+v)/2)(a, a), a = (N-1)/2, in closed form; the test suite checks it
    against direct quadrature of :func:`cos_angle_pdf` and against mpmath.
    """
    total_dim = _dimension(total_dim, "total_dim", 2)
    arr = _as_array(v, "v")
    flat = arr.reshape(-1)
    share = _cos_angle_signed(np.abs(flat), total_dim, flat < 0.0)
    return _maybe_scalar(share.reshape(arr.shape), v)
