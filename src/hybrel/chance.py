"""The chance measure as defined: the reference oracle for the polar method.

Given a limit-state callable over fixed random inputs and monotone uncertain
inputs, the belief degree of the exceedance event {f > x} is the root of a
scalar equation in the belief level (increasing variables evaluated at the
inverse distribution of one-minus-level, decreasing variables at the level
itself).  The chance measure integrates that root over the random inputs
with a Gaussian-measure tensor quadrature, taking a variable's sign node by
node where it changes across the random support; with no random inputs it
is the belief degree (Liu 2013).  A grid supremum scan checks the root.
Only the exceedance is computed: by self-duality Ch{f <= x} is one minus it.

`reliability_reference` applies that integral to a `HybridProblem`; a
purely random problem goes to `degenerate_random`, which tries the exact
affine closed form and a one-dimensional sign grid first.  User limit
states are evaluated on arrays of points only through `model._rows`, the
checked evaluator of the run pipeline; the private functions take such a
rows callable.  Nothing in the run pipeline imports this module.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import as_count
from .distributions import normal_cdf
from .errors import (
    AccuracyError,
    AmbiguousRootError,
    InvalidParameterError,
    UnsupportedDimensionError,
)
from .model import _central_differences, _rows, evaluate_rows, standardize

__all__ = [
    "MonotonicityProfile",
    "detect_profile",
    "belief_sup_grid",
    "chance_distribution",
    "chance_exceedance",
    "gaussian_nodes",
    "reliability_reference",
    "degenerate_random",
]

_SIGNS = ("increasing", "decreasing", "unknown")
_BOX_PROBES = 5  # pseudo-random uncertain points re-checked per random point
_SUPPORT_PROBES = 5  # random points, within 2.5 sigma, re-checked per profile
_LEVEL_STEP = 1e-6  # central-difference step in an uncertain variable's level
_ROOT_TOL = 1e-10  # |h(alpha)| accepted as the belief root
_PRESCAN = 11  # belief levels scanned for a monotonicity violation
_BLOCK = 1 << 14  # quadrature nodes per pass of the belief bisection
_AFFINE_RTOL = 1e-8  # superposition error of _detect_affine, relative to scale
_PURE_RANDOM_NODES = 200  # quadrature nodes of degenerate_random's m = 2, 3 route


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


def _signs_at(rows, randoms, unc_dists, probed=None):
    """(rising, falling), (k, n) bools: the signs of each uncertain
    variable's partial at each row of randoms (k, m), from one `rows` call
    of `model._central_differences` over the levels t of the box, tau = lo
    + t w, with step _LEVEL_STEP: at the box midpoint and 5 deterministic
    pseudo-random levels, each probe's own row, then t +- h per probed
    variable.  A partial counts when |df/dt| > 5e-7 max(1, |f(tau)|) min(1,
    w), as |f(tau + h) - f(tau - h)| > 1e-12 max(1, |f(tau)|) at h = 1e-6
    max(1, w) in tau would.  probed, an (n,) bool mask, limits the
    differences to its variables (the others show no sign)."""
    n = len(unc_dists)
    if n == 0:
        return np.zeros((2, len(randoms), 0), dtype=bool)
    lo = np.array([d.inv(0.0) for d in unc_dists])
    width = np.array([d.inv(1.0) for d in unc_dists]) - lo
    probed = np.ones(n, dtype=bool) if probed is None else probed
    rng = np.random.default_rng(0)
    levels = np.vstack([np.full(n, 0.5), rng.uniform(0.05, 0.95, (_BOX_PROBES, n))])
    randoms = np.array(randoms, ndmin=2)
    k, p, per = len(randoms), len(levels), 2 * np.count_nonzero(probed) + 1

    def at_levels(probe_rows):  # each random point's probes in turn, per rows each
        full = np.repeat(np.tile(levels, (k, 1)), per, axis=0)
        full[:, probed] = probe_rows
        return rows(np.repeat(randoms, p * per, axis=0), lo + full * width)

    mid, grads = _central_differences(at_levels, np.broadcast_to(
        levels[:, probed], (k, p, per // 2)), _LEVEL_STEP, with_point=True)
    floor = 5e-7 * np.maximum(1.0, np.abs(mid))[..., None] * np.minimum(1.0, width[probed])
    grads[np.abs(grads) <= floor] = 0.0  # a partial this small shows no sign
    signs = np.zeros((2, k, n), dtype=bool)
    signs[:, :, probed] = (grads > 0).any(axis=1), (grads < 0).any(axis=1)
    return signs


def _profile(rising, falling):
    """The profile of the signs seen at any point: one sign is that sign,
    two are "unknown", none is "increasing" (either sign is vacuous)."""
    return MonotonicityProfile(tuple(
        "unknown" if up and down else "decreasing" if down else "increasing"
        for up, down in zip(rising.any(axis=0), falling.any(axis=0))))


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
    return _profile(*_signs_at(partial(_rows, f, None),
                               [np.asarray(fixed_randoms, dtype=float)], unc_dists))


def _support_profile(rows, prob_dists, unc_dists):
    """The profile policy of :func:`chance_exceedance`: the signs seen at the
    median random point and at 5 pseudo-random points within 2.5 standard
    deviations of it, combined, so a point where a partial vanishes adds
    no sign."""
    points = [np.array([d.inv_cdf(0.5) for d in prob_dists])]
    rng = np.random.default_rng(0)
    m = len(prob_dists)  # with no random inputs the median is the only point
    for z in rng.uniform(-2.5, 2.5, size=(_SUPPORT_PROBES if m else 0, m)):
        points.append(np.array([d.inv_cdf(normal_cdf(v))
                                for d, v in zip(prob_dists, z)]))
    return _profile(*_signs_at(rows, points, unc_dists))


def _belief_rows(rows, etas, unc_dists, falling, x):
    """Belief degrees of {f > x} at the rows of etas (N, m): the roots of
    h(alpha) = f - x, where increasing variables take the
    (1-alpha)-quantile and the decreasing ones, True in the mask falling
    ((n,), or (N, n) with one row per node), the alpha-quantile.  h is
    non-increasing, so bisection on [0, 1] converges; each step is one
    `rows` call over the open rows.  A row is exactly 0 where h(0) <= 0 and
    1 where h(1) >= 0, else strictly inside (0, 1).  An 11-point pre-scan
    per row guards monotonicity and reports the first bad row's trace."""
    falling = np.broadcast_to(falling, (len(etas), len(unc_dists)))

    def h(alpha, at):
        level = np.where(falling[at], alpha[:, None], 1.0 - alpha[:, None])
        tau = np.empty(level.shape)
        for j, dist in enumerate(unc_dists):
            tau[:, j] = dist.inv(level[:, j])
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
    at = np.flatnonzero(~zero & ~one)
    lo, hi = np.zeros(at.size), np.ones(at.size)
    while at.size:  # the width test ends this within 34 halvings
        mid = 0.5 * (lo + hi)
        hm = h(mid, at)
        done = (np.abs(hm) <= _ROOT_TOL) | (hi - lo < 1e-10)
        value[at[done]] = mid[done]
        up, go = hm > 0.0, ~done
        at, lo, hi = at[go], np.where(up, mid, lo)[go], np.where(up, hi, mid)[go]
    return value


def belief_sup_grid(f, fixed_randoms, unc_dists, grid_per_var=201):
    """Grid-supremum oracle for the belief degree of {f > 0}.

    Scans a tensor grid of the uncertain support box, locates zero crossings
    of f by sign change between neighbors along each grid line, linearly
    interpolates the crossing coordinate, and returns the supremum of the
    crossing-point measure min over increasing variables of (1 - cdf) and
    over decreasing variables of cdf.  With an empty zero set the endpoint
    conventions apply: 1 if f > 0 over the whole box, 0 if f < 0.  The
    chance integral never runs it; it is an independent check of the root.

    Combinatorial in the number of uncertain variables; supported for
    n <= 3 only.  The formula needs each variable's monotonicity sign at
    fixed_randoms; a variable that is not monotone there raises
    AmbiguousRootError.
    """
    n = len(unc_dists)
    if n == 0:
        raise InvalidParameterError("at least one uncertain variable required")
    if n > 3:
        raise UnsupportedDimensionError(f"grid supremum supports n <= 3, got {n}")
    grid_per_var = as_count(grid_per_var, "grid_per_var")
    if grid_per_var < 101:
        raise InvalidParameterError("grid_per_var must be at least 101")

    profile = detect_profile(f, fixed_randoms, unc_dists)
    if profile.has_unknown:  # a limit of this method, not a bad parameter
        raise AmbiguousRootError(
            "could not classify monotonicity; the supremum formula needs it"
        )

    axes = [np.linspace(d.inv(0.0), d.inv(1.0), grid_per_var) for d in unc_dists]
    grid = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), -1)
    points = grid.reshape(-1, n)
    fixed = np.asarray(fixed_randoms, dtype=float)
    xs = np.broadcast_to(fixed, (len(points), fixed.size))
    values = _rows(f, None, xs, points).reshape(grid.shape[:-1])

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
    quad_nodes = as_count(quad_nodes, "quad_nodes")
    if quad_nodes < 8:
        raise InvalidParameterError("quad_nodes must be at least 8")
    order = 8
    panels = math.ceil(quad_nodes / order)
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mids = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    s = (mids[:, None] + half[:, None] * t[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return s, ws


def _chance_integral(rows, prob_dists, unc_dists, x, quad_nodes, profile):
    """Tensor-quadrature sum of the belief degree of {f > x} over the random
    nodes, in node order, a block of at most _BLOCK nodes at a time.  A
    variable the profile leaves "unknown" takes its sign at each node from
    one probe call per block, which differences only those variables; a
    node where one shows both signs has no root."""
    signs = np.array(profile.signs, dtype=str)
    unknown, falling = signs == "unknown", signs == "decreasing"
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
        else:
            rising, down = (_signs_at(rows, etas, unc_dists, unknown)
                            if unknown.any() else (unknown, falling))
            if (rising & down & unknown).any():
                raise AmbiguousRootError("could not classify monotonicity; "
                                         "the belief root needs it")
            belief = _belief_rows(rows, etas, unc_dists,
                                  np.where(unknown, down, falling), x)
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
    if math.isnan(x):
        raise InvalidParameterError("threshold x must not be NaN")
    if profile is None:
        profile = _support_profile(rows, prob_dists, unc_dists)
    elif len(profile) != len(unc_dists):
        raise InvalidParameterError(f"profile has {len(profile)} signs for "
                                    f"{len(unc_dists)} uncertain inputs")
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
    pipeline goes through the polar reduction); with no random inputs it is
    the belief degree.  The inner belief is the root of the limit-state
    equation, which needs each uncertain variable's monotonicity sign at
    each node.  With no profile given, the sign found at the median random
    point is re-checked at 5 pseudo-random points within 2.5 standard
    deviations of it; a variable whose sign differs is "unknown" and is
    probed again at each node, where showing both signs raises
    AmbiguousRootError.  A declared profile has one sign per input.

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


# ---------------------------------------------------------------------------
# reference reliability of a hybrid problem
# ---------------------------------------------------------------------------

def _detect_affine(rows, dim):
    """Return (constant, coefficient vector) when rows, the responses at the
    rows of (N, dim) standardized points, is affine, else None.

    One call probes the origin, the unit directions both ways and three
    fixed interior points, where superposition is checked; the tolerance
    is relative to the response scale.
    """
    eye = np.eye(dim)
    probes = np.array([np.full(dim, 0.37), np.linspace(-1.3, 0.9, dim),
                       np.full(dim, -2.1)])
    values = rows(np.concatenate([np.zeros((1, dim)), eye, -eye, probes]))
    c, fp, fm, actual = values[0], values[1:dim + 1], values[dim + 1:-3], values[-3:]
    coeffs = (fp - fm) / 2
    predicted = c + probes @ coeffs
    bent = np.abs(fp + fm - 2 * c) > _AFFINE_RTOL * np.fmax(max(1.0, abs(c)), np.abs(fp))
    off = np.abs(actual - predicted) > _AFFINE_RTOL * np.fmax(
        1.0, np.fmax(np.abs(actual), np.abs(predicted)))
    if bent.any() or off.any():
        return None
    return float(c), coeffs


def degenerate_random(problem, verify=False):
    """Reliability of a purely random problem, Pr{f(x) > 0}, as a float.

    The limit state is evaluated only through `evaluate_rows`, on
    standardized rows.  An affine one (told by one probing call) has the
    exact closed form normal_cdf(c / |a|).  At m = 1 the cells of a
    2,001-point grid over [-10, 10] whose ends differ in sign are bisected
    together, one call per step, until their ends are adjacent floats; the
    safe mass sums the normal_cdf differences of the safe cells and of the
    safe parts of the split ones, and beyond +-10 the grid's end signs
    hold.  A nonlinear m = 2, 3 problem runs the chance integral with no
    uncertain inputs, a 200-node tensor quadrature of the safe-set
    indicator whose accuracy the discontinuity limits: a smoke check, not a
    precision oracle.  verify=True recomputes that route at 400 nodes and
    raises AccuracyError when the value moves by more than 1e-6 relative;
    the affine and m = 1 routes are exact and skip the check.
    """
    if problem.n != 0:
        raise InvalidParameterError("degenerate_random requires n = 0")
    std = standardize(problem)
    m = problem.m
    rows = lambda u: evaluate_rows(problem, *std.physical(u))  # with n = 0, omega is u

    affine = _detect_affine(rows, m)
    if affine is not None:
        c, a = affine
        norm_a = float(np.linalg.norm(a))
        if norm_a < 1e-300:
            return 1.0 if c > 0 else 0.0
        return float(normal_cdf(c / norm_a))

    if m == 1:
        grid = np.linspace(-10.0, 10.0, 2001)
        safe = rows(grid[:, None]) > 0.0
        cells = np.flatnonzero(safe[:-1] != safe[1:])
        lo, hi = grid[cells], grid[cells + 1]
        mid = 0.5 * (lo + hi)
        while (wide := (lo < mid) & (mid < hi)).any():  # ends not yet adjacent
            # True where mid has the sign of its cell's left end
            left = (rows(mid[wide, None]) > 0.0) == safe[cells[wide]]
            lo[wide] = np.where(left, mid[wide], lo[wide])
            hi[wide] = np.where(left, hi[wide], mid[wide])
            mid = 0.5 * (lo + hi)
        # each split cell becomes two pieces, parted at its crossing, each
        # taking the sign of its grid end
        edges = np.insert(grid, cells + 1, hi)
        piece_safe = np.insert(safe[:-1], cells + 1, safe[cells + 1])
        total = np.diff(normal_cdf(edges))[piece_safe].sum()
        # Phi(-10) is also the mass beyond +10
        total += normal_cdf(-10.0) * (int(safe[0]) + int(safe[-1]))
        return min(float(total), 1.0)

    return _exceedance(partial(evaluate_rows, problem), problem.random_dists(),
                       [], 0.0, _PURE_RANDOM_NODES, None, verify)


def reliability_reference(problem, quad_nodes=64, verify=False):
    """Reference hybrid reliability: the chance measure of {f > 0}.

    Runs the tensor-quadrature chance integral (m <= 3), whose belief
    bisection makes one `evaluate_rows` call per step over its open nodes.
    A purely random problem goes to `degenerate_random` instead, which
    ignores quad_nodes: its m = 2, 3 route runs a fixed 200-node rule, and
    verify doubles it to 400 nodes; its affine and m = 1 routes are exact
    and skip the check.  The production path for benchmark-sized problems
    is the polar pipeline; this evaluator exists to cross-check it at
    small dimension.
    """
    if problem.n == 0:
        return degenerate_random(problem, verify)
    return _exceedance(partial(evaluate_rows, problem), problem.random_dists(),
                       problem.uncertain_dists(), 0.0, quad_nodes, None,
                       verify)
