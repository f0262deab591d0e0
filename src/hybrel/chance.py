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

User limit states are evaluated on arrays of points only through the checked
`_rows`; the private functions take such a rows callable.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import normal_cdf
from .errors import (
    AccuracyError,
    AmbiguousRootError,
    InvalidParameterError,
    NonFiniteResponseError,
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
_BLOCK = 1 << 14  # quadrature nodes per pass of the belief bisection
_GRID = 201  # grid points per uncertain variable of the grid supremum


def _point(x, y):
    return f"x={np.asarray(x).tolist()}, y={np.asarray(y).tolist()}"


def _non_finite(source, value, x, y):
    return NonFiniteResponseError(f"{source} returned {value} at {_point(x, y)}")


def _response(value, x, y):
    """One limit-state response at the physical point (x, y) as a float: a
    non-scalar raises InvalidParameterError naming its shape, NaN or an
    infinity NonFiniteResponseError; both name the point."""
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
        return np.fromiter((_response(lsf(xi, yi), xi, yi)
                            for xi, yi in zip(x, y)), float, len(x))
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


def _profile_at(rows, randoms, unc_dists):
    """Monotonicity profile from central-difference signs at each random
    point in randoms, probed at the support midpoint and at 5 deterministic
    pseudo-random points of the box, all in one `rows` call.  A probe where
    the partial vanishes adds no sign; one sign seen is that sign, two are
    "unknown", and none is "increasing" (either sign is vacuous)."""
    n = len(unc_dists)
    if n == 0:
        return MonotonicityProfile(())
    lo = np.array([d.inv(0.0) for d in unc_dists])
    hi = np.array([d.inv(1.0) for d in unc_dists])
    rng = np.random.default_rng(0)
    probes = [0.5 * (lo + hi)]
    for _ in range(_BOX_PROBES):
        probes.append(lo + rng.uniform(0.05, 0.95, size=n) * (hi - lo))

    # for each random point, variable i and probe tau: tau + h_i e_i,
    # tau - h_i e_i and tau itself, in that order
    h = np.diag(1e-6 * np.maximum(1.0, np.abs(hi - lo)))
    offsets = np.stack([h, -h, np.zeros_like(h)], axis=1)
    taus = np.array(probes)[None, :, None, :] + offsets[:, None]
    k, size = len(randoms), taus.size // n
    values = rows(np.repeat(np.array(randoms, ndmin=2), size, axis=0),
                  np.tile(taus.reshape(size, n), (k, 1)))
    plus, minus, mid = np.moveaxis(values.reshape(k, *taus.shape[:-1]), -1, 0)
    diff = plus - minus
    signed = np.abs(diff) > 1e-12 * np.maximum(1.0, np.abs(mid))
    rising = (signed & (diff > 0)).any(axis=(0, 2))
    falling = (signed & (diff < 0)).any(axis=(0, 2))
    return MonotonicityProfile(tuple(
        "unknown" if up and down else "decreasing" if down else "increasing"
        for up, down in zip(rising, falling)
    ))


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
    return _profile_at(partial(_rows, f, None),
                       [np.asarray(fixed_randoms, dtype=float)], unc_dists)


def _support_profile(rows, prob_dists, unc_dists):
    """The profile policy of :func:`chance_exceedance`: the signs seen at the
    median random point and at 5 pseudo-random points within 2.5 standard
    deviations of it, combined, so a point where a partial vanishes adds
    no sign."""
    points = [np.array([d.inv_cdf(0.5) for d in prob_dists])]
    rng = np.random.default_rng(0)
    for z in rng.uniform(-2.5, 2.5, size=(_SUPPORT_PROBES, len(prob_dists))):
        points.append(np.array([d.inv_cdf(normal_cdf(v))
                                for d, v in zip(prob_dists, z)]))
    return _profile_at(rows, points, unc_dists)


def _belief_rows(rows, etas, unc_dists, signs, x):
    """Belief degrees of {f > x} at the rows of etas (N, m), and their
    BeliefRoot statuses: the roots of h(alpha) = f - x, where increasing
    variables take the (1-alpha)-quantile and decreasing ones the
    alpha-quantile.  h is non-increasing, so bisection on [0, 1] converges;
    each step is one `rows` call over the open rows.  An 11-point pre-scan
    per row guards monotonicity and reports the first bad row's trace."""

    def h(alpha, at):
        tau = np.empty((alpha.size, len(signs)))
        for j, (dist, label) in enumerate(zip(unc_dists, signs)):
            tau[:, j] = dist.inv(1.0 - alpha if label == "increasing" else alpha)
        return rows(etas[at], tau) - x

    k = len(etas)
    grid = np.linspace(0.0, 1.0, _PRESCAN)
    scan = h(np.tile(grid, k), np.repeat(np.arange(k), _PRESCAN)).reshape(k, -1)
    sign = np.where(np.abs(scan) > _ROOT_TOL, np.sign(scan), 0.0)
    # each row's nonzero signs in level order, then its skipped levels
    sign = np.take_along_axis(sign, np.argsort(sign == 0.0, 1, kind="stable"), 1)
    flips = np.count_nonzero((np.diff(sign) != 0) & (sign[:, 1:] != 0), 1)
    bad = np.flatnonzero(flips > 1)
    if bad.size:
        raise AmbiguousRootError(
            "limit state is not monotone in the belief level; "
            "declare the profile explicitly or use the grid supremum",
            scan=zip(grid.tolist(), scan[bad[0]].tolist()),
        )

    # at h(0) <= 0 even the most favorable uncertain realization fails
    zero = scan[:, 0] <= 0.0
    one = ~zero & (scan[:, -1] >= 0.0)
    value = np.where(one, 1.0, 0.0)
    status = np.where(zero, "forced-zero",
                      np.where(one, "forced-one", "interior-root"))
    at = np.flatnonzero(~zero & ~one)
    lo, hi = np.zeros(at.size), np.ones(at.size)
    while at.size:  # the width test ends this within 34 halvings
        mid = 0.5 * (lo + hi)
        hm = h(mid, at)
        done = (np.abs(hm) <= _ROOT_TOL) | (hi - lo < 1e-10)
        value[at[done]] = mid[done]
        up, go = hm > 0.0, ~done
        at, lo, hi = at[go], np.where(up, mid, lo)[go], np.where(up, hi, mid)[go]
    return value, status


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
    fixed = np.array(fixed_randoms, dtype=float, ndmin=2)
    value, status = _belief_rows(partial(_rows, f, None), fixed, unc_dists,
                                 profile.signs, 0.0)
    return BeliefRoot(float(value[0]), str(status[0]))


def belief_sup_grid(f, fixed_randoms, unc_dists, grid_per_var=_GRID):
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
    return _sup_grid(partial(_rows, f, None),
                     np.asarray(fixed_randoms, dtype=float), unc_dists,
                     grid_per_var)


def _sup_grid(rows, fixed, unc_dists, grid_per_var):
    """:func:`belief_sup_grid` at the random point fixed, whose profile
    probes and grid each make one `rows` call."""
    n = len(unc_dists)
    if n == 0:
        raise InvalidParameterError("at least one uncertain variable required")
    if n > 3:
        raise UnsupportedDimensionError(f"grid supremum supports n <= 3, got {n}")
    if grid_per_var < 101:
        raise InvalidParameterError("grid_per_var must be at least 101")

    profile = _profile_at(rows, [fixed], unc_dists)
    if profile.has_unknown:
        raise InvalidParameterError(
            "could not classify monotonicity; the supremum formula needs it"
        )

    axes = [np.linspace(d.inv(0.0), d.inv(1.0), grid_per_var) for d in unc_dists]
    grid = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), -1)
    points = grid.reshape(-1, n)
    xs = np.broadcast_to(fixed, (len(points), fixed.size))
    values = rows(xs, points).reshape(grid.shape[:-1])

    # candidate zero points: the grid points where f is exactly zero, and
    # the interpolated crossing of every sign change along each axis
    taus = [points[values.ravel() == 0.0]]
    for axis in range(n):
        bck = np.take(values, range(0, grid_per_var - 1), axis=axis)
        fwd = np.take(values, range(1, grid_per_var), axis=axis)
        crossing = np.sign(fwd) != np.sign(bck)
        v0, v1 = bck[crossing], fwd[crossing]
        frac = np.divide(v0, v0 - v1, out=np.full(v0.shape, 0.5), where=v0 != v1)
        tau = np.take(grid, range(0, grid_per_var - 1), axis)[crossing]
        t1 = np.take(grid[..., axis], range(1, grid_per_var), axis)[crossing]
        tau[:, axis] += frac * (t1 - tau[:, axis])
        taus.append(tau)
    tau = np.concatenate(taus)
    if len(tau):
        parts = [1.0 - dist.cdf(t) if sign == "increasing" else dist.cdf(t)
                 for dist, sign, t in zip(unc_dists, profile.signs, tau.T)]
        return float(np.min(parts, axis=0).max())
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


def _chance_integral(rows, prob_dists, unc_dists, x, quad_nodes, profile):
    """Tensor-quadrature sum of the belief degree of {f > x} over the random
    nodes, in node order, a block of at most _BLOCK nodes at a time."""
    m = len(prob_dists)
    s, w1 = gaussian_nodes(quad_nodes)
    axes = [np.asarray(d.inv_cdf(s)) for d in prob_dists]
    size = len(s) ** m
    total = 0.0
    for start in range(0, size, _BLOCK):
        node = np.arange(start, min(start + _BLOCK, size))
        etas = np.empty((node.size, m))
        weight = np.ones(node.size)
        for j, axis in enumerate(axes):  # the last axis runs fastest
            i = node // len(s) ** (m - 1 - j) % len(s)
            etas[:, j] = axis[i]
            weight = weight * w1[i]
        if not unc_dists:
            belief = np.where(rows(etas, np.empty((node.size, 0))) > x, 1.0, 0.0)
        elif profile.has_unknown:
            shifted = lambda xs, taus: rows(xs, taus) - x
            belief = np.array([_sup_grid(shifted, eta, unc_dists, _GRID)
                               for eta in etas])
        else:
            belief = _belief_rows(rows, etas, unc_dists, profile.signs, x)[0]
        # cumsum adds one node after another, as a running total does
        total = np.cumsum(np.concatenate(([total], weight * belief)))[-1]
    return float(total)


def _exceedance(rows, prob_dists, unc_dists, x, quad_nodes, profile, verify):
    """:func:`chance_exceedance` of the limit state whose checked responses
    at the rows of (N, m) and (N, n) arrays are rows(xs, taus)."""
    m = len(prob_dists)
    if m > 3:
        raise UnsupportedDimensionError(
            f"tensor quadrature reference path supports m <= 3, got {m}"
        )
    if profile is None:
        profile = _support_profile(rows, prob_dists, unc_dists)
    args = (rows, prob_dists, unc_dists, x)
    value = _chance_integral(*args, quad_nodes, profile)
    if verify:
        check = _chance_integral(*args, 2 * quad_nodes, profile)
        if abs(check - value) > 1e-6 * max(1.0, abs(value)):
            raise AccuracyError(
                f"chance measure did not converge under node doubling: "
                f"{value!r} vs {check!r} at {quad_nodes} nodes"
            )
    return min(max(value, 0.0), 1.0)


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
    return _exceedance(partial(_rows, f, None), prob_dists, unc_dists, x,
                       quad_nodes, profile, verify)


def chance_distribution(f, prob_dists, unc_dists, x, quad_nodes=64,
                        profile=None, verify=False):
    """Chance distribution of f at x: the chance measure of {f <= x}, which
    by self-duality is one minus :func:`chance_exceedance` at x."""
    return 1.0 - chance_exceedance(f, prob_dists, unc_dists, x, quad_nodes,
                                   profile, verify)
