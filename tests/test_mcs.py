import math

import numpy as np
import pytest

from hybrel.chance import degenerate_random
from hybrel.distributions import normal_cdf
from hybrel.errors import InvalidParameterError
from hybrel.mcs import estimate_failure
from hybrel.model import HybridProblem, RandomVariable, UncertainVariable


def _linear_problem(m, n):
    total = m + n

    def lsf(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return 1.0 - (x.sum(axis=-1) + y.sum(axis=-1)) / total

    return HybridProblem(
        lsf=lsf,
        randoms=tuple(RandomVariable(f"u{i}", 0.0, 1.0) for i in range(m)),
        uncertains=tuple(UncertainVariable(f"y{j}", -1.0, 1.0) for j in range(n)),
        lsf_batch=lsf,
    )


class TestEstimateFailure:
    def test_deterministic_under_seed(self):
        problem = _linear_problem(2, 2)
        a = estimate_failure(problem, samples=50_000, seed=42)
        b = estimate_failure(problem, samples=50_000, seed=42)
        assert a.p_hat == b.p_hat
        assert a.ci_lo == b.ci_lo and a.ci_hi == b.ci_hi

    def test_different_seeds_differ(self):
        problem = _linear_problem(9, 1)
        a = estimate_failure(problem, samples=100_000, seed=1)
        b = estimate_failure(problem, samples=100_000, seed=2)
        assert a.p_hat != b.p_hat

    def test_never_fails_rule_of_three(self):
        problem = HybridProblem(
            lsf=lambda x, y: 1.0 + np.asarray(x, float)[..., 0] ** 2,
            randoms=(RandomVariable("u", 0.0, 1.0),),
        )
        est = estimate_failure(problem, samples=20_000, seed=0)
        assert est.p_hat == 0.0
        assert est.zero_failures
        assert est.ci_lo == 0.0
        assert est.ci_hi == pytest.approx(3.0 / 20_000)

    def test_symmetric_half(self):
        problem = HybridProblem(
            lsf=lambda x, y: -np.asarray(x, float)[..., 0],
            randoms=(RandomVariable("u", 0.0, 1.0),),
        )
        est = estimate_failure(problem, samples=100_000, seed=3)
        assert est.ci_lo <= 0.5 <= est.ci_hi
        assert est.p_hat == pytest.approx(0.5, abs=0.01)

    def test_ci_width_scales_with_samples(self):
        problem = _linear_problem(9, 1)
        w = {}
        for n in (10_000, 100_000, 1_000_000):
            est = estimate_failure(problem, samples=n, seed=5)
            w[n] = est.ci_hi - est.ci_lo
        # each tenfold sample increase shrinks the width by about sqrt(10)
        for small, large in ((10_000, 100_000), (100_000, 1_000_000)):
            if w[small] > 0 and w[large] > 0:
                assert w[small] / w[large] == pytest.approx(math.sqrt(10), rel=0.8)

    def test_matches_degenerate_random(self):
        problem = HybridProblem(
            lsf=lambda x, y: 1.0 - (np.asarray(x, float)[..., 0]
                                    + np.asarray(x, float)[..., 1]) / 2.0,
            randoms=(RandomVariable("u1", 0.0, 1.0), RandomVariable("u2", 0.0, 1.0)),
        )
        est = estimate_failure(problem, samples=200_000, seed=7)
        exact = 1.0 - degenerate_random(problem)
        half = (est.ci_hi - est.ci_lo) / 2
        assert abs(est.p_hat - exact) <= 3 * half

    def test_scalar_loop_fallback(self):
        # no lsf_batch: the row loop must agree with the batch path
        def lsf(x, y):
            return 1.0 - (np.asarray(x, float).sum(axis=-1)
                          + np.asarray(y, float).sum(axis=-1)) / 2.0

        batched = HybridProblem(
            lsf=lsf,
            randoms=(RandomVariable("u", 0.0, 1.0),),
            uncertains=(UncertainVariable("y", -1.0, 1.0),),
            lsf_batch=lsf,
        )
        looped = HybridProblem(
            lsf=lsf,
            randoms=(RandomVariable("u", 0.0, 1.0),),
            uncertains=(UncertainVariable("y", -1.0, 1.0),),
        )
        a = estimate_failure(batched, samples=10_000, seed=11)
        b = estimate_failure(looped, samples=10_000, seed=11)
        assert a.p_hat == b.p_hat

    def test_linear_case_against_analytic_level(self):
        # failure is sum(u) + sum(y) >= 10 with variance 9 + 1/3
        problem = _linear_problem(9, 1)
        est = estimate_failure(problem, samples=400_000, seed=13)
        approx = float(normal_cdf(-10.0 / math.sqrt(9 + 1 / 3)))
        half = (est.ci_hi - est.ci_lo) / 2
        assert abs(est.p_hat - approx) <= 4 * half

    def test_parameter_validation(self):
        problem = _linear_problem(1, 1)
        with pytest.raises(InvalidParameterError):
            estimate_failure(problem, samples=5_000)
        with pytest.raises(InvalidParameterError):
            estimate_failure(problem, samples=10_000, confidence=1.5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"samples": 10_000.5}, "samples must be an integer, got 10000.5"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ])
    def test_bad_counts_refused(self, kwargs, message):
        kwargs = {"samples": 10_000, **kwargs}
        with pytest.raises(InvalidParameterError) as excinfo:
            estimate_failure(_linear_problem(1, 1), **kwargs)
        assert str(excinfo.value) == message
