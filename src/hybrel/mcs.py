"""Monte Carlo failure-probability baseline.

The comparison convention treats every uncertain variable as uniform over
its interval; random variables sample from their declared normals.  Draws
come from a single numpy PCG64 stream seeded explicitly and consumed in
fixed-size chunks, so a seed pins the estimate bit-exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import as_count
from .distributions import Normal
from .errors import InvalidParameterError
from .model import evaluate_rows

__all__ = ["MCSEstimate", "estimate_failure"]

_CHUNK = 1_000_000


@dataclass(frozen=True)
class MCSEstimate:
    """Failure fraction with a normal-approximation confidence interval.

    zero_failures flags the degenerate case where no failure was observed;
    the upper bound then falls back to the rule-of-three bound 3/samples.
    """

    p_hat: float
    ci_lo: float
    ci_hi: float
    samples: int
    seed: int
    confidence: float
    failures: int
    zero_failures: bool = False


def estimate_failure(problem, samples=1_000_000, confidence=0.95, seed=0):
    """Estimate Pr{g <= 0} by joint sampling of all inputs.

    Randoms draw from their normal distributions, uncertains uniformly from
    their bounds (the oracle's convention, not a statement about their
    epistemic nature).  Each chunk goes through `evaluate_rows`: the
    problem's `lsf_batch` when available, a per-realization loop otherwise,
    which is only sensible for small sample counts.  A NaN or infinite
    response raises NonFiniteResponseError; it never counts as safe.
    samples and seed must be integers, seed non-negative.
    """
    samples, seed = as_count(samples, "samples"), as_count(seed, "seed")
    if samples < 10_000:
        raise InvalidParameterError("samples must be at least 10^4")
    if seed < 0:
        raise InvalidParameterError("seed must be >= 0")
    if not (0.0 < confidence < 1.0):
        raise InvalidParameterError("confidence must lie in (0, 1)")

    rng = np.random.default_rng(seed)  # PCG64 stream
    m, n = problem.m, problem.n
    means = np.array([rv.mean for rv in problem.randoms])
    stds = np.array([rv.stddev for rv in problem.randoms])
    lows = np.array([uv.lower for uv in problem.uncertains])
    highs = np.array([uv.upper for uv in problem.uncertains])

    failures = 0
    remaining = samples
    while remaining > 0:
        block = min(_CHUNK, remaining)
        x = means + stds * rng.standard_normal((block, m)) if m else np.empty((block, 0))
        y = lows + (highs - lows) * rng.random((block, n)) if n else np.empty((block, 0))
        g = evaluate_rows(problem, x, y)
        failures += int(np.count_nonzero(g <= 0.0))
        remaining -= block

    p_hat = failures / samples
    if failures:
        z = Normal().inv_cdf((1.0 + confidence) / 2.0)
        half = z * math.sqrt(p_hat * (1.0 - p_hat) / samples)
        ci_lo, ci_hi = max(0.0, p_hat - half), min(1.0, p_hat + half)
    else:  # the normal interval collapses; fall back to the rule of three
        ci_lo, ci_hi = 0.0, min(1.0, 3.0 / samples)
    return MCSEstimate(
        p_hat=p_hat,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        samples=samples,
        seed=seed,
        confidence=confidence,
        failures=failures,
        zero_failures=failures == 0,
    )
