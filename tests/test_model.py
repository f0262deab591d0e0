import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from hybrel.benchmarks import BenchmarkCase, run_case
from hybrel.errors import InvalidParameterError, NonFiniteResponseError
from hybrel.mcs import estimate_failure
from hybrel.model import (
    HybridProblem,
    RandomVariable,
    UncertainVariable,
    degenerate_random,
    fd_gradient,
    reliability_reference,
    standardize,
)
from hybrel.solver import find_design_point

STD_NORMAL = RandomVariable("u", 0.0, 1.0)


def _pure_random(lsf, m=1):
    randoms = tuple(RandomVariable(f"u{i}", 0.0, 1.0) for i in range(m))
    return HybridProblem(lsf=lsf, randoms=randoms)


def _pure_uncertain(lsf, bounds):
    uncertains = tuple(
        UncertainVariable(f"y{i}", lo, hi) for i, (lo, hi) in enumerate(bounds)
    )
    return HybridProblem(lsf=lsf, uncertains=uncertains)


class TestStandardize:
    def test_one_stddev(self):
        problem = HybridProblem(
            lsf=lambda x, y: x[0],
            randoms=(RandomVariable("x", 10.0, 2.0),),
        )
        std = standardize(problem)
        assert std.to_standard_random([12.0])[0] == pytest.approx(1.0, abs=1e-15)

    def test_box_midpoint_and_edge(self):
        problem = HybridProblem(
            lsf=lambda x, y: y[0],
            uncertains=(UncertainVariable("y", 2.0, 4.0),),
        )
        std = standardize(problem)
        assert std.to_standard_uncertain([3.0])[0] == pytest.approx(0.0, abs=1e-15)
        assert std.to_standard_uncertain([4.0])[0] == pytest.approx(1.0, abs=1e-15)

    @given(
        st.floats(-100, 100), st.floats(0.01, 50), st.floats(-3, 3),
        st.floats(-100, 100), st.floats(0.01, 50), st.floats(-1, 1),
    )
    def test_roundtrip(self, mean, sd, u, lo, width, delta):
        problem = HybridProblem(
            lsf=lambda x, y: x[0] + y[0],
            randoms=(RandomVariable("x", mean, sd),),
            uncertains=(UncertainVariable("y", lo, lo + width),),
        )
        std = standardize(problem)
        eps = np.finfo(float).eps
        x = std.to_physical_random([u])
        slack_u = 1e-12 + 8 * eps * (abs(mean) / sd + abs(u) + 1)
        assert abs(std.to_standard_random(x)[0] - u) <= slack_u
        y = std.to_physical_uncertain([delta])
        slack_d = 1e-12 + 8 * eps * (abs(lo) / width + abs(delta) + 1)
        assert abs(std.to_standard_uncertain(y)[0] - delta) <= slack_d

    def test_roundtrip_unit_scale(self):
        problem = HybridProblem(
            lsf=lambda x, y: x[0] + y[0],
            randoms=(RandomVariable("x", 10.0, 2.0),),
            uncertains=(UncertainVariable("y", 2.0, 4.0),),
        )
        std = standardize(problem)
        for u in np.linspace(-4, 4, 17):
            assert std.to_standard_random(std.to_physical_random([u]))[0] == \
                pytest.approx(u, abs=1e-12)
        for d in np.linspace(-1, 1, 17):
            assert std.to_standard_uncertain(std.to_physical_uncertain([d]))[0] == \
                pytest.approx(d, abs=1e-12)

    def test_same_arithmetic_path(self):
        calls = []

        def lsf(x, y):
            calls.append((np.array(x), np.array(y)))
            return x[0] - y[0]

        problem = HybridProblem(
            lsf=lsf,
            randoms=(RandomVariable("x", 5.0, 2.0),),
            uncertains=(UncertainVariable("y", -1.0, 3.0),),
        )
        std = standardize(problem)
        value = std.lsf_std(np.array([0.5]), np.array([0.25]))
        assert value == problem.lsf(*calls[-1])

    def test_analytic_gradient_chain_rule(self):
        problem = HybridProblem(
            lsf=lambda x, y: x[0] ** 2 + 3 * y[0],
            randoms=(RandomVariable("x", 1.0, 2.0),),
            uncertains=(UncertainVariable("y", 0.0, 4.0),),
            gradient=lambda x, y: np.array([2 * x[0], 3.0]),
        )
        std = standardize(problem)
        omega = np.array([0.5, 0.5])
        grad = std.gradient_omega(omega)
        # df/du = df/dx * stddev, df/ddelta = df/dy * half-width
        x0 = 1.0 + 2.0 * 0.5
        assert grad[0] == pytest.approx(2 * x0 * 2.0, rel=1e-12)
        assert grad[1] == pytest.approx(3.0 * 2.0, rel=1e-12)
        fd = fd_gradient(std.lsf_omega, omega)
        assert grad == pytest.approx(fd, rel=1e-5)

    def test_empty_problem_rejected(self):
        with pytest.raises(InvalidParameterError):
            HybridProblem(lsf=lambda x, y: 0.0)

    def test_lsf_std_accepts_sequences(self):
        problem = HybridProblem(
            lsf=lambda x, y: x[0] * x[1] - y[0],
            randoms=(RandomVariable("a", 5.0, 2.0), RandomVariable("b", -1.0, 0.5)),
            uncertains=(UncertainVariable("y", -1.0, 3.0),),
        )
        std = standardize(problem)
        expected = std.lsf_std(np.array([0.5, -1.5]), np.array([0.25]))
        assert std.lsf_std([0.5, -1.5], [0.25]) == expected
        assert std.lsf_std((0.5, -1.5), (0.25,)) == expected
        assert std.lsf_omega([0.5, -1.5, 0.25]) == expected


def _fd_oracle(std, omega):
    """fd_gradient over an explicit map from omega to the physical (x, y)."""
    m = std.m
    physical = lambda w: std.problem.lsf(std.means + std.stddevs * w[:m],
                                         std.centers + std.half_widths * w[m:])
    return fd_gradient(physical, omega, std.fd_rel_step)


class TestGradientOmegaWithoutAnalyticGradient:
    @given(
        m=st.integers(1, 4),
        n=st.integers(0, 4),
        curvature=st.sampled_from([0.0, 0.05, -0.3]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_equals_fd_oracle_bit_for_bit(self, m, n, curvature, seed):
        # affine when curvature is 0, mildly quadratic otherwise
        rng = np.random.default_rng(seed)
        weights = rng.uniform(-3.0, 3.0, size=m + n)
        constant = float(rng.uniform(-5.0, 5.0))

        def lsf(x, y):
            w = np.concatenate([x, y])
            return constant + float(weights @ w) + curvature * float(w @ w)

        lower = rng.uniform(-10.0, 10.0, size=n)
        problem = HybridProblem(
            lsf=lsf,
            randoms=tuple(RandomVariable(f"x{i}", float(mu), float(sd))
                          for i, (mu, sd) in enumerate(
                              zip(rng.uniform(-10.0, 10.0, size=m),
                                  rng.uniform(0.1, 5.0, size=m)))),
            uncertains=tuple(UncertainVariable(f"y{j}", float(lo), float(lo + w))
                             for j, (lo, w) in enumerate(
                                 zip(lower, rng.uniform(0.1, 8.0, size=n)))),
        )
        std = standardize(problem)
        omega = np.concatenate([rng.normal(size=m) * 2.0,
                                rng.uniform(-1.0, 1.0, size=n)])
        got = std.gradient_omega(omega)
        assert got.tobytes() == _fd_oracle(std, omega).tobytes()


def _nan_beyond(limit, batch):
    """3 - x - y, but NaN wherever x > limit."""
    def lsf(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return np.where(x[..., 0] > limit, math.nan, 3.0 - x[..., 0] - y[..., 0])

    return HybridProblem(
        lsf=lambda x, y: float(lsf(x, y)),
        randoms=(RandomVariable("x0", 0.0, 1.0),),
        uncertains=(UncertainVariable("y0", -1.0, 1.0),),
        lsf_batch=lsf if batch else None,
    )


class TestNonFiniteResponse:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalar_call_names_the_point(self, bad):
        problem = HybridProblem(
            lsf=lambda x, y: bad if x[0] > 1.0 else 1.0,
            randoms=(RandomVariable("x", 0.0, 2.0),),
            uncertains=(UncertainVariable("y", 0.0, 4.0),),
        )
        std = standardize(problem)
        assert std.lsf_std(np.array([0.25]), np.array([0.0])) == 1.0
        with pytest.raises(NonFiniteResponseError, match=r"x=\[1\.5\], y=\[2\.0\]"):
            std.lsf_std(np.array([0.75]), np.array([0.0]))

    def test_row_call_names_the_first_bad_row(self):
        std = standardize(_nan_beyond(1.5, batch=True))
        deltas = np.array([[-1.0], [0.0], [0.5]])
        assert std.lsf_rows([1.0], deltas).tolist() == [3.0, 2.0, 1.5]
        with pytest.raises(NonFiniteResponseError, match=r"x=\[2\.0\], y=\[-1\.0\]"):
            std.lsf_rows([2.0], deltas)

    @pytest.mark.parametrize("batch", [False, True])
    def test_design_point_search_raises(self, batch):
        with pytest.raises(NonFiniteResponseError, match="limit state returned nan"):
            find_design_point(standardize(_nan_beyond(1.5, batch)))

    def test_gradient_nan_names_the_gradient(self):
        problem = HybridProblem(
            lsf=lambda x, y: 3.0 - x[0] - y[0],
            randoms=(RandomVariable("x0", 0.0, 1.0),),
            uncertains=(UncertainVariable("y0", -1.0, 1.0),),
            gradient=lambda x, y: [math.nan, -1.0],
        )
        case = BenchmarkCase("nan_gradient", problem, "NaN analytic gradient")
        with pytest.raises(NonFiniteResponseError,
                           match=r"^gradient returned \[nan, -1\.0\] at x=\[0\.0\], y=\[0\.0\]$"):
            run_case(case)

    @pytest.mark.parametrize("n", [0, 1])
    def test_non_scalar_response_names_its_shape(self, n):
        problem = HybridProblem(
            lsf=lambda x, y: np.array([3.0 - x[0] - y.sum()]),
            randoms=(STD_NORMAL,),
            uncertains=(UncertainVariable("y", -1.0, 1.0),) * n,
        )
        with pytest.raises(InvalidParameterError,
                           match=r"shape \(1,\), not a scalar, at x=\["):
            find_design_point(standardize(problem))

    def test_batch_of_wrong_shape_names_its_shape(self):
        lsf = lambda x, y: 3.0 - x[..., 0] - y[..., 0]
        problem = HybridProblem(
            lsf=lsf,
            randoms=(STD_NORMAL,),
            uncertains=(UncertainVariable("y", -1.0, 1.0),),
            lsf_batch=lambda x, y: lsf(x, y)[:, None],
        )
        std = standardize(problem)
        deltas = np.array([[-1.0], [1.0]])
        with pytest.raises(InvalidParameterError,
                           match=r"shape \(2, 1\) for 2 rows, the first at "
                                 r"x=\[0\.5\], y=\[-1\.0\]"):
            std.lsf_rows([0.5], deltas)

    def test_monte_carlo_counts_nan_as_safe(self):
        # the sampling baseline keeps counting g <= 0 only; NaN is not a failure
        problem = _nan_beyond(-10.0, batch=True)
        assert estimate_failure(problem, samples=10_000, seed=0).failures == 0


class TestFdGradient:
    def test_polynomial(self):
        func = lambda p: p[0] ** 3 + 2 * p[1]
        grad = fd_gradient(func, np.array([2.0, 5.0]))
        assert grad[0] == pytest.approx(12.0, rel=1e-8)
        assert grad[1] == pytest.approx(2.0, rel=1e-8)

    def test_relative_step_at_large_coordinates(self):
        func = lambda p: p[0] ** 2
        grad = fd_gradient(func, np.array([1e6]))
        assert grad[0] == pytest.approx(2e6, rel=1e-6)


class TestDegenerateRandom:
    def test_linear_against_cdf_quadrature_oracle(self):
        problem = _pure_random(lambda x, y: 3.0 - x[0])
        oracle, err = quad(
            lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), -12, 3.0
        )
        assert err < 1e-9
        assert degenerate_random(problem) == pytest.approx(oracle, abs=1e-6)
        assert degenerate_random(problem) == pytest.approx(0.998650, abs=1e-6)

    def test_symmetric(self):
        problem = _pure_random(lambda x, y: -x[0])
        assert degenerate_random(problem) == pytest.approx(0.5, abs=1e-12)

    def test_always_safe(self):
        problem = _pure_random(lambda x, y: 1.0 + x[0] ** 2)
        assert degenerate_random(problem) == pytest.approx(1.0, abs=1e-9)

    def test_affine_multidimensional(self):
        problem = _pure_random(
            lambda x, y: 2.0 - (x[0] + x[1]) / math.sqrt(2), m=2
        )
        from hybrel.distributions import normal_cdf
        assert degenerate_random(problem) == pytest.approx(
            normal_cdf(2.0), abs=1e-12
        )

    def test_nonlinear_one_dimensional_two_sided(self):
        # safe iff |u| < 2
        problem = _pure_random(lambda x, y: 4.0 - x[0] ** 2)
        from hybrel.distributions import normal_cdf
        expected = normal_cdf(2.0) - normal_cdf(-2.0)
        assert degenerate_random(problem) == pytest.approx(expected, abs=1e-9)

    def test_requires_no_uncertains(self):
        problem = HybridProblem(
            lsf=lambda x, y: x[0] + y[0],
            randoms=(STD_NORMAL,),
            uncertains=(UncertainVariable("y", 0.0, 1.0),),
        )
        with pytest.raises(InvalidParameterError):
            degenerate_random(problem)


def test_import_leaves_scipy_optimize_unloaded():
    # only degenerate_random's one-dimensional nonlinear branch needs brentq
    code = "import sys, hybrel; print('scipy.optimize' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "False"


class TestDegenerateUncertain:
    """reliability_reference's purely uncertain (m = 0) route."""

    def test_symmetric_interval(self):
        problem = _pure_uncertain(lambda x, y: y[0], [(-1.0, 1.0)])
        assert reliability_reference(problem) == pytest.approx(0.5, abs=1e-9)

    def test_against_grid_oracle(self):
        problem = _pure_uncertain(lambda x, y: 0.7 - y[0], [(0.0, 1.0)])
        from hybrel.chance import belief_sup_grid
        from hybrel.distributions import LinearUncertain
        oracle = belief_sup_grid(
            lambda _x, tau: 0.7 - tau[0], np.empty(0),
            [LinearUncertain(0.0, 1.0)], grid_per_var=2001,
        )
        assert reliability_reference(problem) == pytest.approx(oracle, abs=1e-3)

    def test_forced_zero(self):
        problem = _pure_uncertain(lambda x, y: y[0] - 2.0, [(0.0, 1.0)])
        assert reliability_reference(problem) == 0.0


class TestReliabilityReference:
    def test_pure_random_route(self):
        problem = _pure_random(lambda x, y: 3.0 - x[0])
        assert reliability_reference(problem) == pytest.approx(0.998650, abs=1e-6)

    def test_pure_uncertain_route(self):
        problem = _pure_uncertain(lambda x, y: y[0], [(-1.0, 1.0)])
        assert reliability_reference(problem) == pytest.approx(0.5, abs=1e-9)
        from hybrel.chance import belief_sup_grid
        from hybrel.distributions import LinearUncertain
        oracle = belief_sup_grid(
            lambda _x, tau: tau[0], np.empty(0),
            [LinearUncertain(-1.0, 1.0)], grid_per_var=2001,
        )
        assert reliability_reference(problem) == pytest.approx(oracle, abs=1e-6)

    def test_mixed_against_quadrature_oracle(self):
        # g = 2 - u - tau: inner belief clamp((3 - u)/2, 0, 1), outer Gaussian
        problem = HybridProblem(
            lsf=lambda x, y: 2.0 - x[0] - y[0],
            randoms=(STD_NORMAL,),
            uncertains=(UncertainVariable("y", -1.0, 1.0),),
        )
        oracle, err = quad(
            lambda u: np.clip((3.0 - u) / 2, 0, 1)
            * math.exp(-u * u / 2) / math.sqrt(2 * math.pi),
            -12, 12, limit=400,
        )
        assert err < 1e-9
        # the inner belief has clamp kinks, so convergence is second order
        # in the panel count; 512 nodes resolves to ~1e-5
        value = reliability_reference(problem, quad_nodes=512)
        assert value == pytest.approx(oracle, abs=2e-5)
        finer = reliability_reference(problem, quad_nodes=4096)
        assert finer == pytest.approx(oracle, abs=2e-6)

    def test_duality(self):
        from hybrel.chance import chance_distribution
        problem = HybridProblem(
            lsf=lambda x, y: 2.0 - x[0] - y[0],
            randoms=(STD_NORMAL,),
            uncertains=(UncertainVariable("y", -1.0, 1.0),),
        )
        r = reliability_reference(problem, quad_nodes=128)
        f = chance_distribution(
            problem.lsf, problem.random_dists(), problem.uncertain_dists(), 0.0,
            quad_nodes=128,
        )
        assert r + f == pytest.approx(1.0, abs=2e-6)

    def test_crank_beliefs_go_through_lsf_batch(self):
        # crank_slider t=0 at 8 nodes: only the profile probes (6 random
        # points x 4 variables x 6 box probes x 3 calls = 432) stay scalar;
        # the batch rows are exactly the evaluations the scalar path makes
        import dataclasses

        from hybrel.benchmarks import case_crank_slider
        problem = case_crank_slider(0.0).problem
        calls = {"scalar": 0, "rows": 0}

        def lsf(x, y):
            calls["scalar"] += 1
            return problem.lsf(x, y)

        def lsf_batch(x, y):
            calls["rows"] += len(x)
            return problem.lsf_batch(x, y)

        scalar_only = dataclasses.replace(problem, lsf=lsf, lsf_batch=None)
        value = reliability_reference(scalar_only, quad_nodes=8)
        scalar_calls = calls["scalar"]
        calls["scalar"] = 0
        batched = dataclasses.replace(problem, lsf=lsf, lsf_batch=lsf_batch)
        assert reliability_reference(batched, quad_nodes=8) == value
        assert calls["scalar"] <= 432
        assert calls["scalar"] + calls["rows"] == scalar_calls

    def test_threshold_parameter(self):
        problem = _pure_random(lambda x, y: -x[0])
        from hybrel.distributions import normal_cdf
        # Ch{-u > 1} = Pr{u < -1}
        assert reliability_reference(problem, threshold=1.0) == pytest.approx(
            normal_cdf(-1.0), abs=1e-9
        )
