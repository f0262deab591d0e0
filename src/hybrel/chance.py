"""Operational law for the chance measure.

Given a limit-state callable over fixed random inputs and monotone uncertain
inputs, the belief degree of the exceedance event {f > x} is the root of a
scalar equation in the belief level (increasing variables evaluated at the
inverse distribution of one-minus-level, decreasing variables at the level
itself).  A dense-grid supremum scan provides an independent oracle for that
root, and the chance measure integrates the per-random-input belief over the
random inputs with a Gaussian-measure tensor quadrature.  Only the
exceedance orientation is computed: the chance measure is self-dual, so the
chance distribution Ch{f <= x} is one minus the exceedance.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import normal_cdf
from .errors import (
    AccuracyError,
    AmbiguousRootError,
    InvalidParameterError,
    UnsupportedDimensionError,
)

__all__ = [
    "MonotonicityProfile",
    "BeliefRoot",
    "detect_profile",
    "belief_at_limit_state",
    "belief_sup_grid",
    "chance_distribution",
    "chance_exceedance",
    "gaussian_nodes",
]

_SIGNS = ("increasing", "decreasing", "unknown")
_BOX_PROBES = 5  # pseudo-random uncertain points re-checked per random point
_SUPPORT_PROBES = 5  # random points, within 2.5 sigma, re-checked per profile
_ROOT_TOL = 1e-10  # |h(alpha)| accepted as the belief root
_PRESCAN = 11  # belief levels scanned for a monotonicity violation


@dataclass(frozen=True)
class MonotonicityProfile:
    """Per-uncertain-variable monotonicity classification of the limit state."""

    signs: tuple

    def __post_init__(self):
        for s in self.signs:
            if s not in _SIGNS:
                raise InvalidParameterError(f"unknown monotonicity sign {s!r}")
        object.__setattr__(self, "signs", tuple(self.signs))

    @property
    def has_unknown(self):
        return "unknown" in self.signs

    def __len__(self):
        return len(self.signs)


@dataclass(frozen=True)
class BeliefRoot:
    """Belief degree of the safe event at fixed random inputs.

    status is "interior-root" when the limit-state equation crossed zero
    strictly inside (0, 1); the endpoint conventions are reported as
    "forced-zero" (value 0) and "forced-one" (value 1).
    """

    value: float
    status: str

    def __post_init__(self):
        if self.status not in ("interior-root", "forced-zero", "forced-one"):
            raise InvalidParameterError(f"bad status {self.status!r}")
        if (self.status == "forced-zero") != (self.value == 0.0):
            raise InvalidParameterError("forced-zero requires value 0")
        if (self.status == "forced-one") != (self.value == 1.0):
            raise InvalidParameterError("forced-one requires value 1")


def _tau_at_level(unc_dists, signs, alpha):
    """Uncertain-variable vector fed to f at belief level alpha of the event
    {f > x}: increasing variables take the (1-alpha)-quantile, decreasing
    ones the alpha-quantile."""
    tau = np.empty(len(unc_dists))
    for i, (dist, sign) in enumerate(zip(unc_dists, signs)):
        tau[i] = dist.inv(1.0 - alpha if sign == "increasing" else alpha)
    return tau


def detect_profile(f, fixed_randoms, unc_dists):
    """Classify each uncertain variable as increasing or decreasing in f at
    one fixed random point.

    The sign of a central finite difference is taken at the support midpoint
    and re-checked at 5 deterministic pseudo-random points of the support
    box; any disagreement (or a sign change) downgrades the variable to
    "unknown".  A variable whose partial derivative is zero at every probe
    is classified "increasing" (either sign is vacuous).  The sign may still
    change elsewhere in the random support; :func:`chance_exceedance`
    re-checks it there.
    """
    fixed = np.asarray(fixed_randoms, dtype=float)
    n = len(unc_dists)
    if n == 0:
        return MonotonicityProfile(())
    lo = np.array([d.inv(0.0) for d in unc_dists])
    hi = np.array([d.inv(1.0) for d in unc_dists])
    rng = np.random.default_rng(0)
    probes = [0.5 * (lo + hi)]
    for _ in range(_BOX_PROBES):
        probes.append(lo + rng.uniform(0.05, 0.95, size=n) * (hi - lo))

    signs = []
    for i in range(n):
        h = 1e-6 * max(1.0, abs(hi[i] - lo[i]))
        seen = set()
        for tau in probes:
            tp = tau.copy()
            tm = tau.copy()
            tp[i] += h
            tm[i] -= h
            diff = f(fixed, tp) - f(fixed, tm)
            scale = max(1.0, abs(f(fixed, tau)))
            if abs(diff) <= 1e-12 * scale:
                continue
            seen.add("increasing" if diff > 0 else "decreasing")
        if len(seen) == 0:
            signs.append("increasing")
        elif len(seen) == 1:
            signs.append(seen.pop())
        else:
            signs.append("unknown")
    return MonotonicityProfile(tuple(signs))


def _support_profile(f, prob_dists, unc_dists):
    """The profile policy of :func:`chance_exceedance`."""
    median = np.array([d.inv_cdf(0.5) for d in prob_dists])
    signs = detect_profile(f, median, unc_dists).signs
    rng = np.random.default_rng(0)
    for z in rng.uniform(-2.5, 2.5, size=(_SUPPORT_PROBES, len(prob_dists))):
        eta = np.array([d.inv_cdf(normal_cdf(v)) for d, v in zip(prob_dists, z)])
        other = detect_profile(f, eta, unc_dists).signs
        signs = tuple(a if a == b else "unknown" for a, b in zip(signs, other))
    return MonotonicityProfile(signs)


def _belief_root(f, fixed_randoms, unc_dists, signs, x):
    """Belief degree of {f > x}: the root of h(alpha) = f(...) - x.

    h is non-increasing in alpha, so the root is bracketed on [0, 1] and
    bisection is unconditionally convergent.  An 11-point pre-scan guards
    the monotonicity assumption and reports the trace on violation.
    """
    fixed = np.asarray(fixed_randoms, dtype=float)

    def h(alpha):
        return f(fixed, _tau_at_level(unc_dists, signs, alpha)) - x

    grid = np.linspace(0.0, 1.0, _PRESCAN)
    values = np.array([h(a) for a in grid])
    nonzero = values[np.abs(values) > _ROOT_TOL]
    flips = int(np.sum(np.diff(np.sign(nonzero)) != 0)) if len(nonzero) > 1 else 0
    if flips > 1:
        raise AmbiguousRootError(
            "limit state is not monotone in the belief level; "
            "declare the profile explicitly or use the grid supremum",
            scan=zip(grid.tolist(), values.tolist()),
        )

    h0, h1 = values[0], values[-1]
    if h0 <= 0.0:
        # even the most favorable uncertain realization fails the event
        return BeliefRoot(0.0, "forced-zero")
    if h1 >= 0.0:
        return BeliefRoot(1.0, "forced-one")

    lo_a, hi_a = 0.0, 1.0
    while True:  # the width test ends this within 34 halvings
        mid = 0.5 * (lo_a + hi_a)
        hm = h(mid)
        if abs(hm) <= _ROOT_TOL or (hi_a - lo_a) < 1e-10:
            return BeliefRoot(mid, "interior-root")
        if hm > 0.0:
            lo_a = mid
        else:
            hi_a = mid


def belief_at_limit_state(f, fixed_randoms, unc_dists, profile):
    """Belief degree of {f(fixed_randoms, tau) > 0} over the uncertain inputs.

    Requires a fully classified profile (no "unknown" entries) and regular
    uncertainty distributions.  Returns a :class:`BeliefRoot`; the endpoint
    conventions apply when the limit state does not change sign over the
    support.
    """
    if profile.has_unknown:
        raise InvalidParameterError(
            "profile contains unknown entries; route through belief_sup_grid"
        )
    if len(profile) != len(unc_dists):
        raise InvalidParameterError("profile length must match unc_dists")
    for dist in unc_dists:
        if not dist.regular:
            raise InvalidParameterError("root finding requires regular distributions")
    return _belief_root(f, fixed_randoms, unc_dists, profile.signs, 0.0)


def belief_sup_grid(f, fixed_randoms, unc_dists, grid_per_var=201):
    """Grid-supremum oracle for the belief degree of {f > 0}.

    Scans a tensor grid of the uncertain support box, locates zero crossings
    of f by sign change between neighbors along each grid line, linearly
    interpolates the crossing coordinate, and returns the supremum of the
    crossing-point measure min over increasing variables of (1 - cdf) and
    over decreasing variables of cdf.  With an empty zero set the endpoint
    conventions apply: 1 if f > 0 over the whole box, 0 if f < 0.

    Combinatorial in the number of uncertain variables; supported for
    n <= 3 only.
    """
    n = len(unc_dists)
    if n == 0:
        raise InvalidParameterError("at least one uncertain variable required")
    if n > 3:
        raise UnsupportedDimensionError(f"grid supremum supports n <= 3, got {n}")
    if grid_per_var < 101:
        raise InvalidParameterError("grid_per_var must be at least 101")

    fixed = np.asarray(fixed_randoms, dtype=float)
    profile = detect_profile(f, fixed, unc_dists)
    if profile.has_unknown:
        raise InvalidParameterError(
            "could not classify monotonicity; the supremum formula needs it"
        )

    axes = [np.linspace(d.inv(0.0), d.inv(1.0), grid_per_var) for d in unc_dists]
    mesh = np.meshgrid(*axes, indexing="ij")
    values = np.empty(mesh[0].shape)
    for idx in itertools.product(*(range(grid_per_var) for _ in range(n))):
        tau = np.array([mesh[j][idx] for j in range(n)])
        values[idx] = f(fixed, tau)

    def measure(tau):
        parts = []
        for dist, sign, t in zip(unc_dists, profile.signs, tau):
            c = dist.cdf(t)
            parts.append(1.0 - c if sign == "increasing" else c)
        return min(parts)

    best = -1.0
    for axis in range(n):
        fwd = np.take(values, range(1, grid_per_var), axis=axis)
        bck = np.take(values, range(0, grid_per_var - 1), axis=axis)
        crossing = np.sign(fwd) != np.sign(bck)
        for idx in np.argwhere(crossing):
            lo_idx = list(idx)
            hi_idx = list(idx)
            hi_idx[axis] += 1
            v0 = values[tuple(lo_idx)]
            v1 = values[tuple(hi_idx)]
            tau = np.array([axes[j][lo_idx[j]] for j in range(n)])
            t0 = axes[axis][lo_idx[axis]]
            t1 = axes[axis][hi_idx[axis]]
            frac = v0 / (v0 - v1) if v0 != v1 else 0.5
            tau[axis] = t0 + frac * (t1 - t0)
            best = max(best, measure(tau))

    exact = np.abs(values) == 0.0
    for idx in np.argwhere(exact):
        tau = np.array([axes[j][idx[j]] for j in range(n)])
        best = max(best, measure(tau))

    if best >= 0.0:
        return float(best)
    return 1.0 if np.all(values > 0) else 0.0


# ---------------------------------------------------------------------------
# chance distribution
# ---------------------------------------------------------------------------

def gaussian_nodes(quad_nodes):
    """Nodes and weights for integrating against a 1-D probability measure.

    Composite Gauss-Legendre on the probability scale: s-nodes in (0, 1) with
    weights summing to one, to be mapped through a distribution's quantile
    function.  Plain Gauss-Hermite stalls near 1e-4 accuracy on the clamped
    integrands this module produces, while the composite rule keeps the
    node-doubling convergence contract reachable.
    """
    if quad_nodes < 8:
        raise InvalidParameterError("quad_nodes must be at least 8")
    order = 8
    panels = max(1, int(math.ceil(quad_nodes / order)))
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mids = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    s = (mids[:, None] + half[:, None] * t[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return s, ws


def _belief_value(f, eta, unc_dists, profile, x):
    """Belief degree of {f(eta, tau) > x} over the uncertain inputs."""
    if len(unc_dists) == 0:
        return 1.0 if f(np.asarray(eta, dtype=float), np.empty(0)) > x else 0.0
    if profile.has_unknown:
        shifted = lambda xr, tau: f(xr, tau) - x
        return belief_sup_grid(shifted, eta, unc_dists)
    return _belief_root(f, eta, unc_dists, profile.signs, x).value


def _chance_integral(f, prob_dists, unc_dists, x, quad_nodes, profile):
    m = len(prob_dists)
    if m == 0:
        return _belief_value(f, np.empty(0), unc_dists, profile, x)

    s, w1 = gaussian_nodes(quad_nodes)
    axes = [np.asarray(d.inv_cdf(s)) for d in prob_dists]
    total = 0.0
    for idx in itertools.product(*(range(len(s)) for _ in range(m))):
        eta = np.array([axes[j][idx[j]] for j in range(m)])
        weight = math.prod(w1[i] for i in idx)
        total += weight * _belief_value(f, eta, unc_dists, profile, x)
    return float(total)


def chance_exceedance(f, prob_dists, unc_dists, x=0.0, quad_nodes=64,
                      profile=None, verify=False):
    """Chance measure of the exceedance event {f > x}; at x = 0 this is the
    hybrid reliability metric.

    Integrates the per-random-input belief degree over the random inputs by
    tensor quadrature (m <= 3; this is the reference path, the production
    pipeline goes through the polar reduction).  The inner belief is the
    root of the limit-state equation, which needs each uncertain variable's
    monotonicity sign to hold over the whole random support.  With no
    profile given, the sign found at the median random point is re-checked
    at 5 pseudo-random points within 2.5 standard deviations of it; a
    variable whose sign differs is "unknown" and goes through the grid
    supremum (n <= 3).

    With verify=True the integral is recomputed at doubled quad_nodes and an
    AccuracyError is raised when the relative change exceeds 1e-6.
    """
    m = len(prob_dists)
    if m > 3:
        raise UnsupportedDimensionError(
            f"tensor quadrature reference path supports m <= 3, got {m}"
        )
    if profile is None:
        profile = _support_profile(f, prob_dists, unc_dists)
    value = _chance_integral(f, prob_dists, unc_dists, x, quad_nodes, profile)
    if verify:
        check = _chance_integral(f, prob_dists, unc_dists, x, 2 * quad_nodes,
                                 profile)
        if abs(check - value) > 1e-6 * max(1.0, abs(value)):
            raise AccuracyError(
                f"chance measure did not converge under node doubling: "
                f"{value!r} vs {check!r} at {quad_nodes} nodes"
            )
    return min(max(value, 0.0), 1.0)


def chance_distribution(f, prob_dists, unc_dists, x, quad_nodes=64,
                        profile=None, verify=False):
    """Chance distribution of f at x: the chance measure of {f <= x}, which
    by self-duality is one minus :func:`chance_exceedance` at x."""
    return 1.0 - chance_exceedance(f, prob_dists, unc_dists, x, quad_nodes,
                                   profile, verify)
