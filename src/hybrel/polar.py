"""Polar-feature reduction of a standardized limit state.

First-order expansion at the design point turns the (m+n)-dimensional
standardized limit state into a three-variable surrogate over the squared
Gaussian radius, the squared uncertain radius, and the cosine of the angle
to the gradient direction:

    g(q_rand, q_unc, cosine) = offset*grad_norm + grad_norm*sqrt(q_rand+q_unc)*cosine

Sign classification only needs the normalized margin
offset + sqrt(q_rand+q_unc)*cosine, since grad_norm > 0.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import _dimension
from .errors import DegenerateGradientError, InvalidParameterError, UndefinedAngleError

__all__ = ["PolarFeatures", "ReducedLSF", "polar_features", "reduce_to_polar"]

logger = logging.getLogger(__name__)

_COLLINEARITY_TOL = 1e-3  # radians from u* to the u-gradient before a warning


@dataclass(frozen=True)
class PolarFeatures:
    """Radius/angle features of a standardized point.

    radius**2 == random_sq + uncertain_sq by construction, and uncertain_sq
    lies in [0, n] because each box coordinate is bounded by one.
    """

    radius: float
    cosine: float
    random_sq: float
    uncertain_sq: float


def polar_features(omega, direction, m, n):
    """Polar features of omega against a unit direction vector.

    radius is the Euclidean norm, cosine the normalized inner product with
    `direction`; the squared norm splits into the first-m (random) and
    last-n (uncertain) contributions.  Raises at the origin, where the
    angle is undefined.
    """
    omega = np.asarray(omega, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if omega.size != m + n or direction.size != m + n:
        raise InvalidParameterError("omega and direction must have length m + n")
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise InvalidParameterError("direction must be a unit vector")
    radius = float(np.linalg.norm(omega))
    if radius == 0.0:
        raise UndefinedAngleError("angle features are undefined at the origin")
    return PolarFeatures(
        radius=radius,
        cosine=float(omega @ direction) / radius,
        random_sq=float(np.sum(omega[:m] ** 2)),
        uncertain_sq=float(np.sum(omega[m:] ** 2)),
    )


@dataclass(frozen=True)
class ReducedLSF:
    """First-order polar surrogate of a standardized limit state.

    offset is the normalized plane offset (the signed distance of the
    tangent plane from the origin), grad_norm the Euclidean norm of the
    gradient at the expansion point, and direction the unit gradient over
    the m random and n uncertain inputs, kept as a read-only copy so the
    caller's array stays its own.
    """

    offset: float
    grad_norm: float
    m: int
    n: int
    direction: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m", _dimension(self.m, "m", 0))
        object.__setattr__(self, "n", _dimension(self.n, "n", 0))
        direction = np.array(self.direction, dtype=float)
        if direction.shape != (self.m + self.n,):
            raise InvalidParameterError(
                f"direction must have shape (m + n,), got {direction.shape}")
        if self.grad_norm <= 0:
            raise InvalidParameterError("grad_norm must be positive")
        if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
            raise InvalidParameterError("direction must be a unit vector")
        direction.setflags(write=False)
        object.__setattr__(self, "direction", direction)

    def surrogate(self, random_sq, uncertain_sq, cosine):
        """Value of the reduced limit state g at the three polar variables."""
        return self.grad_norm * (
            self.offset + np.sqrt(random_sq + uncertain_sq) * cosine
        )

    def at_point(self, omega):
        """Surrogate evaluated at the polar features of a concrete point."""
        feats = polar_features(omega, self.direction, self.m, self.n)
        return self.surrogate(feats.random_sq, feats.uncertain_sq, feats.cosine)


def reduce_to_polar(std_problem, design_point):
    """Reduce a standardized problem to its polar surrogate at a design point.

    offset = (f(w*) - grad(w*).w*) / |grad(w*)| and grad_norm = |grad(w*)|,
    with the expansion direction taken as the normalized gradient.  f(w*)
    and grad(w*) come from one `lsf_and_gradient` call at the design
    point's coordinates, which without an analytic gradient differentiates
    with the design point's fd_rel_step, the step of the search that found
    it.  The point's trace is not read, so a point moved or built by hand
    reduces as a fresh one.  At a converged design point the Gaussian
    subvector is collinear (up to sign) with the Gaussian part of the
    gradient; that alignment is the convergence diagnostic checked here,
    and a deviation beyond 1e-3 radians is logged as a warning, not raised.
    (Box-pinned uncertain coordinates carry bound multipliers and interior
    ones their own subproblem multiplier, so full-vector collinearity is
    not available as a diagnostic for mixed problems.)
    """
    omega = design_point.omega()
    u_star = omega[: std_problem.m]
    value, grad = std_problem.lsf_and_gradient(omega, design_point.fd_rel_step)
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm < 1e-12:
        raise DegenerateGradientError(
            "limit-state gradient vanished at the design point"
        )
    direction = grad / grad_norm
    grad_u = grad[: u_star.size]
    norms = np.linalg.norm(u_star) * np.linalg.norm(grad_u)
    if norms > 1e-12:
        cosine = float(u_star @ grad_u) / norms
        angle_gap = math.sqrt(max(0.0, 1.0 - cosine * cosine))
        if angle_gap > _COLLINEARITY_TOL:
            logger.warning(
                "Gaussian design-point coordinates deviate from the gradient "
                "direction by %.2e rad; the design point may not be converged",
                math.asin(min(1.0, angle_gap)),
            )
    offset = (value - float(grad @ omega)) / grad_norm
    return ReducedLSF(
        offset=float(offset),
        grad_norm=grad_norm,
        m=std_problem.m,
        n=std_problem.n,
        direction=direction,
    )
