"""Probability and uncertainty distribution families.

Probability side: normal, chi, chi-square, shifted chi (the law of
sqrt(Q + shift) for Q chi-square) and the cosine-angle family (the law of
the cosine of the angle between a random direction and a fixed unit vector).
Uncertainty side: the linear (interval) family with its cumulative function
and exact inverse.

All evaluation functions accept scalars or numpy arrays and return a matching
shape; scalar inputs come back as Python floats.  Every object is immutable
after construction and every function is pure, so concurrent use is safe.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammainc, gammaincinv, gammaln, ndtr, ndtri

from .errors import InvalidParameterError

__all__ = [
    "Normal",
    "LinearUncertain",
    "normal_cdf",
    "normal_pdf",
    "normal_inv_cdf",
    "chi_pdf",
    "chi_cdf",
    "chi_square_pdf",
    "chi_square_cdf",
    "chi_square_ppf",
    "shifted_chi_pdf",
    "shifted_chi_cdf",
    "cos_angle_pdf",
    "cos_angle_cdf",
    "linear_unc_cdf",
    "linear_unc_inv",
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


def _check_dof(dof):
    if not float(dof).is_integer() or dof < 1:
        raise InvalidParameterError(f"dof must be a positive integer, got {dof!r}")
    return int(dof)


# ---------------------------------------------------------------------------
# normal family
# ---------------------------------------------------------------------------

def normal_cdf(x, mean=0.0, stddev=1.0):
    """Cumulative distribution of N(mean, stddev) at x.

    Strictly increasing in x; raises on non-finite input or stddev <= 0.
    """
    if not (np.isfinite(stddev) and stddev > 0):
        raise InvalidParameterError(f"stddev must be positive, got {stddev!r}")
    if not np.isfinite(mean):
        raise InvalidParameterError(f"mean must be finite, got {mean!r}")
    arr = _as_array(x, "x")
    return _maybe_scalar(ndtr((arr - mean) / stddev), x)


def normal_pdf(x, mean=0.0, stddev=1.0):
    """Density of N(mean, stddev) at x."""
    if not (np.isfinite(stddev) and stddev > 0):
        raise InvalidParameterError(f"stddev must be positive, got {stddev!r}")
    arr = _as_array(x, "x")
    z = (arr - mean) / stddev
    return _maybe_scalar(np.exp(-0.5 * z * z) / (stddev * math.sqrt(2 * math.pi)), x)


def normal_inv_cdf(p, mean=0.0, stddev=1.0):
    """Quantile function of N(mean, stddev); p must lie in (0, 1)."""
    arr = _as_array(p, "p")
    if np.any(arr <= 0) or np.any(arr >= 1):
        raise InvalidParameterError("p must lie strictly inside (0, 1)")
    return _maybe_scalar(mean + stddev * ndtri(arr), p)


# ---------------------------------------------------------------------------
# chi / chi-square family
# ---------------------------------------------------------------------------

def chi_square_pdf(x, dof):
    """Chi-square density with `dof` degrees of freedom; zero for x <= 0."""
    dof = _check_dof(dof)
    arr = _as_array(x, "x")
    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        xp = arr[pos]
        log_pdf = (
            (dof / 2 - 1) * np.log(xp)
            - xp / 2
            - (dof / 2) * math.log(2)
            - gammaln(dof / 2)
        )
        out[pos] = np.exp(log_pdf)
    return _maybe_scalar(out, x)


def chi_square_cdf(x, dof):
    """Chi-square cumulative distribution."""
    dof = _check_dof(dof)
    arr = _as_array(x, "x")
    return _maybe_scalar(gammainc(dof / 2, np.maximum(arr, 0.0) / 2), x)


def chi_square_ppf(p, dof):
    """Chi-square quantile; p in [0, 1)."""
    dof = _check_dof(dof)
    arr = _as_array(p, "p")
    if np.any(arr < 0) or np.any(arr >= 1):
        raise InvalidParameterError("p must lie in [0, 1)")
    return _maybe_scalar(2 * gammaincinv(dof / 2, arr), p)


def chi_pdf(x, dof):
    """Density of the norm of a `dof`-dimensional standard Gaussian vector.

    chi(dof) = law of sqrt(Q) with Q chi-square(dof):
    p(x) = 2^(1-dof/2) x^(dof-1) exp(-x^2/2) / Gamma(dof/2), x > 0.
    """
    dof = _check_dof(dof)
    arr = _as_array(x, "x")
    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        xp = arr[pos]
        log_pdf = (
            (1 - dof / 2) * math.log(2)
            + (dof - 1) * np.log(xp)
            - xp * xp / 2
            - gammaln(dof / 2)
        )
        out[pos] = np.exp(log_pdf)
    return _maybe_scalar(out, x)


def chi_cdf(x, dof):
    """Cumulative distribution of chi(dof)."""
    dof = _check_dof(dof)
    arr = _as_array(x, "x")
    xp = np.maximum(arr, 0.0)
    return _maybe_scalar(gammainc(dof / 2, xp * xp / 2), x)


def shifted_chi_pdf(v, dof, shift):
    """Density of sqrt(Q + shift) with Q chi-square(dof); support v > sqrt(shift).

    This is the change-of-variables density

        p(v) = 2^(1-dof/2) v (v^2-shift)^(dof/2-1) exp(-(v^2-shift)/2) / Gamma(dof/2)

    which reduces to chi(dof) at shift = 0 and integrates to one; the
    2% sampling cross-check in the test suite pins this form down.
    """
    dof = _check_dof(dof)
    if not (np.isfinite(shift) and shift >= 0):
        raise InvalidParameterError(f"shift must be >= 0, got {shift!r}")
    arr = _as_array(v, "v")
    out = np.zeros_like(arr)
    pos = arr > math.sqrt(shift)
    if np.any(pos):
        vp = arr[pos]
        q = vp * vp - shift
        base = (1 - dof / 2) * math.log(2) - q / 2 - gammaln(dof / 2)
        log_pdf = base + np.log(vp) + (dof / 2 - 1) * np.log(q)
        out[pos] = np.exp(log_pdf)
    return _maybe_scalar(out, v)


def shifted_chi_cdf(v, dof, shift):
    """Cumulative distribution of sqrt(Q + shift), Q chi-square(dof)."""
    dof = _check_dof(dof)
    if shift < 0:
        raise InvalidParameterError(f"shift must be >= 0, got {shift!r}")
    arr = _as_array(v, "v")
    q = np.maximum(arr * arr - shift, 0.0)
    return _maybe_scalar(gammainc(dof / 2, q / 2), v)


# ---------------------------------------------------------------------------
# cosine-angle family
# ---------------------------------------------------------------------------

def _check_total_dim(total_dim):
    if not float(total_dim).is_integer() or total_dim < 2:
        raise InvalidParameterError(
            f"total_dim must be an integer >= 2, got {total_dim!r}"
        )
    return int(total_dim)


def cos_angle_pdf(v, total_dim):
    """Density of the cosine of the angle between a uniformly random direction
    in `total_dim` dimensions and any fixed unit vector.

    Evaluates c * sin^(total_dim-2)(arccos v) / sqrt(1 - v^2) on (-1, 1),
    with 1/c = B(1/2, (total_dim-1)/2) = sqrt(pi) Gamma((total_dim-1)/2) /
    Gamma(total_dim/2), the integral of the shape over (-1, 1).  Outside
    the open interval the density is zero by convention (for total_dim = 2
    the shape diverges at the endpoints but remains integrable).
    """
    total_dim = _check_total_dim(total_dim)
    arr = _as_array(v, "v")
    out = np.zeros_like(arr)
    inside = np.abs(arr) < 1.0
    if np.any(inside):
        vi = arr[inside]
        theta = np.arccos(vi)
        shape = np.sin(theta) ** (total_dim - 2) / np.sqrt(1.0 - vi * vi)
        log_norm = (0.5 * math.log(math.pi) + gammaln((total_dim - 1) / 2)
                    - gammaln(total_dim / 2))
        out[inside] = shape * math.exp(-log_norm)
    return _maybe_scalar(out, v)


def cos_angle_cdf(v, total_dim):
    """Cumulative distribution of the cosine-angle family.

    Uses the equivalent symmetric-beta form: (1+v)/2 follows a
    Beta(a, a) law with a = (total_dim-1)/2.  The test suite checks this
    against direct quadrature of :func:`cos_angle_pdf`.
    """
    total_dim = _check_total_dim(total_dim)
    arr = _as_array(v, "v")
    a = (total_dim - 1) / 2
    u = np.clip((arr + 1.0) / 2.0, 0.0, 1.0)
    return _maybe_scalar(betainc(a, a, u), v)


# ---------------------------------------------------------------------------
# linear uncertainty family
# ---------------------------------------------------------------------------

def _check_bounds(a, b):
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise InvalidParameterError(f"bounds must satisfy b > a, got ({a!r}, {b!r})")


def linear_unc_cdf(x, a, b):
    """Linear uncertainty distribution on [a, b]: clamp((x-a)/(b-a), 0, 1)."""
    _check_bounds(a, b)
    arr = _as_array(x, "x")
    return _maybe_scalar(np.clip((arr - a) / (b - a), 0.0, 1.0), x)


def linear_unc_inv(alpha, a, b):
    """Exact inverse of :func:`linear_unc_cdf` on [0, 1].

    The endpoints map to the support bounds: inv(0) = a and inv(1) = b,
    which is what the forced-root conventions downstream rely on.
    """
    _check_bounds(a, b)
    arr = _as_array(alpha, "alpha")
    if np.any(arr < 0) or np.any(arr > 1):
        raise InvalidParameterError("alpha must lie in [0, 1]")
    return _maybe_scalar(a + arr * (b - a), alpha)


# ---------------------------------------------------------------------------
# distribution objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Normal:
    """Gaussian random variable."""

    mean: float = 0.0
    stddev: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.stddev) and self.stddev > 0):
            raise InvalidParameterError(
                f"Normal requires finite mean and stddev > 0, got {self!r}"
            )

    def pdf(self, x):
        return normal_pdf(x, self.mean, self.stddev)

    def cdf(self, x):
        return normal_cdf(x, self.mean, self.stddev)

    def inv_cdf(self, p):
        return normal_inv_cdf(p, self.mean, self.stddev)


@dataclass(frozen=True)
class LinearUncertain:
    """Linear (interval) uncertainty distribution on [lower, upper].

    The family is regular: the inverse exists on [0, 1] with the endpoint
    convention inv(0) = lower, inv(1) = upper.
    """

    lower: float
    upper: float

    def __post_init__(self):
        _check_bounds(self.lower, self.upper)

    @property
    def regular(self):
        return True

    def cdf(self, x):
        return linear_unc_cdf(x, self.lower, self.upper)

    def inv(self, alpha):
        return linear_unc_inv(alpha, self.lower, self.upper)
