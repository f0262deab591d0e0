import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from hybrel.benchmarks import (
    BenchmarkCase,
    case_cantilever_tube,
    case_crank_slider,
    run_case,
)
from hybrel.chance import (
    belief_sup_grid,
    chance_exceedance,
    degenerate_random,
    detect_profile,
    reliability_reference,
)
from hybrel.errors import (
    AccuracyError,
    AmbiguousRootError,
    InvalidParameterError,
    NonFiniteResponseError,
)
from hybrel.mcs import estimate_failure
from hybrel.model import (
    HybridProblem,
    RandomVariable,
    UncertainVariable,
    evaluate_rows,
    fd_gradient,
    standardize,
)
from hybrel.solver import find_design_point

STD_NORMAL = RandomVariable("u", 0.0, 1.0)
FD_STEP = 1e-6  # the search's default relative step


def _pure_random(lsf, m=1):
    randoms = tuple(RandomVariable(f"u{i}", 0.0, 1.0) for i in range(m))
    return HybridProblem(lsf=lsf, randoms=randoms)


def _pure_uncertain(lsf, bounds):
    uncertains = tuple(
        UncertainVariable(f"y{i}", lo, hi) for i, (lo, hi) in enumerate(bounds)
    )
    return HybridProblem(lsf=lsf, uncertains=uncertains)


def _counted(problem):
    """problem whose callables count scalar calls and batch rows, and the
    counts."""
    calls = {"scalar": 0, "rows": 0}

    def lsf(x, y):
        calls["scalar"] += 1
        return problem.lsf(x, y)

    def lsf_batch(x, y):
        calls["rows"] += len(x)
        return problem.lsf_batch(x, y)

    batch = None if problem.lsf_batch is None else lsf_batch
    return replace(problem, lsf=lsf, lsf_batch=batch), calls


class TestStandardize:
    # a, b ~ N(10, 2), N(-1, 0.5); c in [2, 4], d in [-3, 5]
    MIXED = HybridProblem(
        lsf=lambda x, y: x[0] * x[1] - y[0] + y[1],
        randoms=(RandomVariable("a", 10.0, 2.0), RandomVariable("b", -1.0, 0.5)),
        uncertains=(UncertainVariable("c", 2.0, 4.0),
                    UncertainVariable("d", -3.0, 5.0)),
    )

    def test_physical_at_the_mean_and_box_midpoint(self):
        std = standardize(self.MIXED)
        # one map, the random block first
        assert std.shift.tolist() == [10.0, -1.0, 3.0, 1.0]
        assert std.scale.tolist() == [2.0, 0.5, 1.0, 4.0]
        x, y = std.physical(np.zeros(4))
        assert (x.tolist(), y.tolist()) == ([10.0, -1.0], [3.0, 1.0])

    def test_physical_at_the_box_edges(self):
        std = standardize(self.MIXED)
        x, y = std.physical([1.0, -2.0, -1.0, 1.0])
        assert (x.tolist(), y.tolist()) == ([12.0, -2.0], [2.0, 5.0])
        x, y = std.physical([0.0, 0.0, 1.0, -1.0])
        assert (x.tolist(), y.tolist()) == ([10.0, -1.0], [4.0, -3.0])

    @given(m=st.integers(1, 3), n=st.integers(0, 3), rows=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_points_bit_for_bit(self, m, n, rows, seed):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-10.0, 10.0, size=n)
        problem = HybridProblem(
            lsf=lambda x, y: float(np.sin(x).sum() + x[0] * y.sum() - y @ y),
            randoms=tuple(RandomVariable(f"x{i}", float(mu), float(sd))
                          for i, (mu, sd) in enumerate(
                              zip(rng.uniform(-10.0, 10.0, size=m),
                                  rng.uniform(0.1, 5.0, size=m)))),
            uncertains=tuple(UncertainVariable(f"y{j}", float(lo), float(lo + w))
                             for j, (lo, w) in enumerate(
                                 zip(lower, rng.uniform(0.1, 8.0, size=n)))),
        )
        std = standardize(problem)
        omegas = np.hstack([rng.normal(size=(rows, m)) * 2.0,
                            rng.uniform(-1.0, 1.0, size=(rows, n))])
        xs, ys = std.physical(omegas)
        values = std.lsf_omega_rows(omegas)
        for omega, x, y, value in zip(omegas, xs, ys, values):
            x1, y1 = std.physical(omega)
            assert (x.tobytes(), y.tobytes()) == (x1.tobytes(), y1.tobytes())
            assert value.tobytes() == np.float64(std.lsf_omega(omega)).tobytes()

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
        value = std.lsf_omega(np.array([0.5, 0.25]))
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
        grad = std.lsf_and_gradient(omega, FD_STEP)[1]
        # df/du = df/dx * stddev, df/ddelta = df/dy * half-width
        x0 = 1.0 + 2.0 * 0.5
        assert grad[0] == pytest.approx(2 * x0 * 2.0, rel=1e-12)
        assert grad[1] == pytest.approx(3.0 * 2.0, rel=1e-12)
        fd = fd_gradient(std.lsf_omega, omega)
        assert grad == pytest.approx(fd, rel=1e-5)
        # with an analytic gradient the pair is one lsf call and one
        # gradient call
        value, fused = std.lsf_and_gradient(omega, FD_STEP)
        assert value == std.lsf_omega(omega)
        assert fused.tobytes() == grad.tobytes()

    def test_empty_problem_rejected(self):
        with pytest.raises(InvalidParameterError):
            HybridProblem(lsf=lambda x, y: 0.0)

    def test_lsf_omega_accepts_sequences(self):
        problem = HybridProblem(
            lsf=lambda x, y: x[0] * x[1] - y[0],
            randoms=(RandomVariable("a", 5.0, 2.0), RandomVariable("b", -1.0, 0.5)),
            uncertains=(UncertainVariable("y", -1.0, 3.0),),
        )
        std = standardize(problem)
        expected = std.lsf_omega(np.array([0.5, -1.5, 0.25]))
        assert std.lsf_omega([0.5, -1.5, 0.25]) == expected
        assert std.lsf_omega((0.5, -1.5, 0.25)) == expected


def _fd_oracle(problem, omega):
    """fd_gradient over a map from omega to the physical (x, y) written
    out from the problem's declared variables."""
    means = np.array([rv.mean for rv in problem.randoms])
    stddevs = np.array([rv.stddev for rv in problem.randoms])
    lowers = np.array([uv.lower for uv in problem.uncertains])
    uppers = np.array([uv.upper for uv in problem.uncertains])
    centers, half_widths = (lowers + uppers) / 2, (uppers - lowers) / 2
    m = problem.m
    physical = lambda w: problem.lsf(means + stddevs * w[:m],
                                     centers + half_widths * w[m:])
    return fd_gradient(physical, omega, FD_STEP)


class TestGradientWithoutAnalyticGradient:
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
        got = std.lsf_and_gradient(omega, FD_STEP)[1]
        assert got.tobytes() == _fd_oracle(problem, omega).tobytes()


def _recorded(problem):
    """problem whose lsf records the bytes of each physical point it is
    called at and whose lsf_batch counts its rows, and the record."""
    record = {"points": [], "rows": 0}

    def lsf(x, y):
        record["points"].append((x.tobytes(), y.tobytes()))
        return problem.lsf(x, y)

    def lsf_batch(x, y):
        record["rows"] += len(x)
        return problem.lsf_batch(x, y)

    batch = None if problem.lsf_batch is None else lsf_batch
    return replace(problem, lsf=lsf, lsf_batch=batch), record


def _assert_stencil_is_fd_gradients(problem, omega):
    """lsf_and_gradient calls lsf at omega, then at fd_gradient's points
    over lsf_omega, in its order, never lsf_batch; its value is
    lsf_omega's and its gradient has fd_gradient's bytes."""
    std, record = _recorded(problem)
    std = standardize(std)
    fused_value, fused = std.lsf_and_gradient(omega, FD_STEP)
    calls = record["points"][:]
    record["points"].clear()
    want = fd_gradient(std.lsf_omega, omega, FD_STEP)
    stencil = record["points"][:]
    record["points"].clear()
    value = std.lsf_omega(omega)
    assert len(stencil) == 2 * omega.size
    assert calls == record["points"] + stencil
    assert np.float64(fused_value).tobytes() == np.float64(value).tobytes()
    assert fused.tobytes() == want.tobytes()
    assert record["rows"] == 0


class TestStencilRows:
    """The finite-difference stencil is mapped once and evaluated one
    scalar call per row, at the points fd_gradient visits."""

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("case", [case_crank_slider(40.0),
                                      case_cantilever_tube()],
                             ids=["crank_slider_t40", "cantilever_tube"])
    def test_builtin_cases(self, case, batch):
        problem = case.problem if batch else replace(case.problem, lsf_batch=None)
        rng = np.random.default_rng(3)
        omega = np.concatenate([rng.normal(size=problem.m),
                                rng.uniform(-1.0, 1.0, size=problem.n)])
        _assert_stencil_is_fd_gradients(problem, omega)

    @given(
        m=st.integers(1, 4),
        n=st.integers(0, 4),
        curvature=st.sampled_from([0.0, 0.05, -0.3]),
        batch=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_affine_and_quadratic(self, m, n, curvature, batch, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(-3.0, 3.0, size=m + n)
        constant = float(rng.uniform(-5.0, 5.0))

        def lsf(x, y):
            w = np.concatenate([x, y], axis=-1)
            return constant + w @ weights + curvature * np.sum(w * w, axis=-1)

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
            lsf_batch=lsf if batch else None,
        )
        omega = np.concatenate([rng.normal(size=m) * 2.0,
                                rng.uniform(-1.0, 1.0, size=n)])
        _assert_stencil_is_fd_gradients(problem, omega)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "shape"])
    @pytest.mark.parametrize("row", [0, 3, 5])
    def test_bad_row_names_its_point(self, bad, row):
        # one stencil row (+h on u0, -h on u1, -h on delta0) answers bad;
        # the error is the one lsf_omega raises at that point
        omega = np.array([0.3, -0.2, 0.4])
        points = []
        fd_gradient(lambda w: points.append(w.copy()) or 0.0, omega)
        base = HybridProblem(
            lsf=lambda x, y: 3.0 - x[0] - 0.5 * x[1] - y[0],
            randoms=(RandomVariable("x0", 1.0, 2.0), RandomVariable("x1", 0.0, 0.5)),
            uncertains=(UncertainVariable("y0", -1.0, 3.0),),
        )
        x, y = standardize(base).physical(points[row])
        target = (x.tobytes(), y.tobytes())

        def lsf(x, y):
            value = base.lsf(x, y)
            if (x.tobytes(), y.tobytes()) != target:
                return value
            return np.array([value]) if bad == "shape" else bad

        std = standardize(replace(base, lsf=lsf))
        error = InvalidParameterError if bad == "shape" else NonFiniteResponseError
        with pytest.raises(error) as from_stencil:
            std.lsf_and_gradient(omega, FD_STEP)[1]
        with pytest.raises(error) as from_point:
            std.lsf_omega(points[row])
        assert str(from_stencil.value) == str(from_point.value)
        assert str(from_point.value).endswith(f"at x={x.tolist()}, y={y.tolist()}")


def _nan_beyond(limit, batch, bad=math.nan):
    """3 - x - y, but NaN (or bad) wherever x > limit."""
    def lsf(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return np.where(x[..., 0] > limit, bad, 3.0 - x[..., 0] - y[..., 0])

    return HybridProblem(
        lsf=lambda x, y: float(lsf(x, y)),
        randoms=(RandomVariable("x0", 0.0, 1.0),),
        uncertains=(UncertainVariable("y0", -1.0, 1.0),),
        lsf_batch=lsf if batch else None,
    )


# the checked oracles, each run on a problem with randoms and uncertains;
# belief_sup_grid and detect_profile are taken at the random point x = 2
_ORACLES = {
    "estimate_failure": lambda p: estimate_failure(p, samples=10_000, seed=0),
    "reliability_reference": reliability_reference,
    "chance_exceedance": lambda p: chance_exceedance(p.lsf, p.random_dists(),
                                                     p.uncertain_dists()),
    "belief_sup_grid": lambda p: belief_sup_grid(p.lsf, [2.0],
                                                 p.uncertain_dists()),
    "detect_profile": lambda p: detect_profile(p.lsf, [2.0], p.uncertain_dists()),
}


class TestNonFiniteResponse:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalar_call_names_the_point(self, bad):
        problem = HybridProblem(
            lsf=lambda x, y: bad if x[0] > 1.0 else 1.0,
            randoms=(RandomVariable("x", 0.0, 2.0),),
            uncertains=(UncertainVariable("y", 0.0, 4.0),),
        )
        std = standardize(problem)
        assert std.lsf_omega(np.array([0.25, 0.0])) == 1.0
        with pytest.raises(NonFiniteResponseError, match=r"x=\[1\.5\], y=\[2\.0\]"):
            std.lsf_omega(np.array([0.75, 0.0]))

    def test_row_call_names_the_first_bad_row(self):
        problem = _nan_beyond(1.5, batch=True)
        std = standardize(problem)
        deltas = np.array([[-1.0], [0.0], [0.5]])
        rows = lambda u: np.hstack([np.full((3, 1), u), deltas])
        assert evaluate_rows(problem, *std.physical(rows(1.0))).tolist() == \
            [3.0, 2.0, 1.5]
        with pytest.raises(NonFiniteResponseError, match=r"x=\[2\.0\], y=\[-1\.0\]"):
            evaluate_rows(problem, *std.physical(rows(2.0)))

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
        omegas = np.array([[0.5, -1.0], [0.5, 1.0]])
        with pytest.raises(InvalidParameterError,
                           match=r"shape \(2, 1\) for 2 rows, the first at "
                                 r"x=\[0\.5\], y=\[-1\.0\]"):
            evaluate_rows(problem, *standardize(problem).physical(omegas))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("oracle, batch", [
        ("estimate_failure", False), ("estimate_failure", True),
        ("reliability_reference", False), ("reliability_reference", True),
        ("chance_exceedance", False), ("belief_sup_grid", False),
        ("detect_profile", False),
    ])
    def test_oracles_name_the_first_bad_point(self, oracle, batch, bad):
        # the error names the first point, in evaluation order, beyond the
        # limit; a bad response is never counted as safe or failed
        seen = []
        problem = _nan_beyond(1.5, batch, bad)
        lsf, lsf_batch = problem.lsf, problem.lsf_batch

        def record(x, y):
            seen.append((np.array(x), np.array(y)))
            return lsf(x, y)

        def record_rows(x, y):
            seen.extend(zip(np.array(x), np.array(y)))
            return lsf_batch(x, y)

        problem = replace(problem, lsf=record,
                          lsf_batch=record_rows if batch else None)
        with pytest.raises(NonFiniteResponseError) as excinfo:
            _ORACLES[oracle](problem)
        x, y = next((x, y) for x, y in seen if x[0] > 1.5)
        assert str(excinfo.value) == (f"limit state returned {bad} at "
                                      f"x={x.tolist()}, y={y.tolist()}")

    @pytest.mark.parametrize("oracle", ["estimate_failure", "reliability_reference"])
    def test_oracles_name_a_batch_of_wrong_shape(self, oracle):
        problem = _nan_beyond(10.0, batch=True)
        lsf_batch = problem.lsf_batch
        wide = replace(problem,
                       lsf_batch=lambda x, y: np.stack([lsf_batch(x, y)] * 2, 1))
        with pytest.raises(InvalidParameterError,
                           match=r"^limit-state batch returned shape \((\d+), 2\) "
                                 r"for \1 rows, the first at x=\["):
            _ORACLES[oracle](wide)


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

    def test_sign_grid_is_one_batch_call(self):
        # one probing call of 2m + 4 rows, the 2,001-point sign grid in one
        # call, then one call per bisection step over the two crossing
        # cells, none of them scalar
        batches = []

        def lsf_batch(x, y):
            batches.append(len(x))
            return 4.0 - x[:, 0] ** 2

        problem, calls = _counted(replace(
            _pure_random(lambda x, y: 4.0 - x[0] ** 2), lsf_batch=lsf_batch))
        from hybrel.distributions import normal_cdf
        assert degenerate_random(problem) == pytest.approx(
            2.0 * normal_cdf(2.0) - 1.0, abs=1e-12
        )
        assert calls["scalar"] == 0
        assert batches == [6, 2001] + [2] * 45

    def test_batch_last_bit_off_at_grid_root(self):
        # safe iff |u| > g for a point g of the sign grid; lsf is one ulp
        # above zero at g and lsf_batch one ulp below, and only lsf_batch
        # is evaluated, so the two never meet in one bracket
        g = float(np.linspace(-10.0, 10.0, 2001)[1150])
        below, above = np.nextafter(g * g, -np.inf), np.nextafter(g * g, np.inf)
        problem, calls = _counted(replace(
            _pure_random(lambda x, y: x[0] * x[0] - below),
            lsf_batch=lambda x, y: x[:, 0] * x[:, 0] - above))
        from hybrel.distributions import normal_cdf
        assert degenerate_random(problem) == pytest.approx(
            2.0 * normal_cdf(-g), abs=1e-12
        )
        assert calls["scalar"] == 0

    def test_quadratic_against_closed_form(self):
        # 1.2 - (x - 0.5)^2 > 0 iff |x - 0.5| < sqrt(1.2), with x ~ N(0.4, 0.8)
        from hybrel.distributions import normal_cdf
        g = lambda x, y: 1.2 - (x[..., 0] - 0.5) * (x[..., 0] - 0.5)
        problem = HybridProblem(lsf=g, lsf_batch=g,
                                randoms=(RandomVariable("x", 0.4, 0.8),))
        root = math.sqrt(1.2)
        exact = normal_cdf((0.1 + root) / 0.8) - normal_cdf((0.1 - root) / 0.8)
        value = degenerate_random(problem)
        assert type(value) is float
        assert abs(value - exact) <= 1e-15

    def test_cubic_against_closed_form(self):
        # (u - a)(u - b)(u - c) > 0 on (a, b) and beyond c; no root is a
        # point of the sign grid
        from hybrel.distributions import normal_cdf
        a, b, c = -1.2345678, 0.3141592, 2.7182818
        g = lambda x, y: (x[..., 0] - a) * (x[..., 0] - b) * (x[..., 0] - c)
        problem = _pure_random(g)
        exact = normal_cdf(b) - normal_cdf(a) + normal_cdf(-c)
        assert abs(degenerate_random(replace(problem, lsf_batch=g)) - exact) <= 1e-13
        assert abs(degenerate_random(problem) - exact) <= 1e-13

    def test_requires_no_uncertains(self):
        problem = HybridProblem(
            lsf=lambda x, y: x[0] + y[0],
            randoms=(STD_NORMAL,),
            uncertains=(UncertainVariable("y", 0.0, 1.0),),
        )
        with pytest.raises(InvalidParameterError):
            degenerate_random(problem)


def _python(*args):
    """A fresh interpreter on this checkout's package; its completed run."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, check=True)


def test_import_leaves_scipy_optimize_unloaded():
    out = _python("-c", "import sys, hybrel; print('scipy.optimize' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_pure_random_route_is_batch_only():
    # a nonlinear m = 1 problem with lsf_batch: the probes, the sign grid
    # and the crossing bisection all go through lsf_batch, and no root
    # finder is loaded
    code = """
import sys
from hybrel import HybridProblem, RandomVariable
from hybrel.chance import degenerate_random
def lsf(x, y):
    raise AssertionError("scalar lsf call")
problem = HybridProblem(lsf=lsf, lsf_batch=lambda x, y: 4.0 - x[:, 0] ** 2,
                        randoms=(RandomVariable("u", 0.0, 1.0),))
print(degenerate_random(problem))
print("scipy.optimize" in sys.modules)
"""
    value, loaded = _python("-c", code).stdout.split()
    assert float(value) == pytest.approx(0.9544997361036416, abs=1e-12)
    assert loaded == "False"


def test_run_case_leaves_scipy_special_unloaded():
    # the chi-square and cosine-angle laws are closed forms; only the normal
    # law imports scipy.special, on its first use
    code = """
import sys
from hybrel import get_case, normal_cdf, reliability_reference, run_case
for key, params in (("linear", {}), ("crank_slider", {"t": 0.0}),
                    ("cantilever_tube", {})):
    run_case(get_case(key, **params))
print("scipy.special" in sys.modules)
print(normal_cdf(0.0))
# linear (2, 0): 1 - (u1 + u2)/2 > 0 has probability Phi(sqrt(2))
print(reliability_reference(get_case("linear", m=2, n=0).problem))
print(normal_cdf(2.0 ** 0.5))
"""
    lines = _python("-c", code).stdout.split()
    assert lines[0] == "False"
    assert float(lines[1]) == 0.5
    assert float(lines[2]) == pytest.approx(float(lines[3]), abs=1e-12)


@pytest.mark.parametrize("argv", [
    ("run", "--case", "linear"),
    ("run", "--case", "linear", "--format", "json"),
    ("run", "--case", "crank_slider", "--t", "0"),
    ("run", "--case", "cantilever_tube", "--format", "json"),
    ("curve", "--case", "linear"),
    ("design-point", "--case", "crank_slider"),
    # m = 1, n = 0: the sweep's closed form Phi(offset) needs no scipy
    ("run", "--problem", "{tmp}/one_random.cfg"),
])
def test_cli_leaves_scipy_special_unloaded(argv, tmp_path):
    (tmp_path / "one_random.cfg").write_text(
        "lsf = linear\nrandom = u1 0.0 1.0\n", encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    # -X importtime lists every module the process imported, one per line
    err = _python("-X", "importtime", "-m", "hybrel.cli", *argv).stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()
                if line.startswith("import time:")}
    assert "hybrel.benchmarks" in imported
    assert "scipy.special" not in imported


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

    def test_pure_random_verify_doubles_the_nodes(self):
        # nonlinear with m = 2: the 200-node indicator rule reads 0.92415
        # and moves to 0.92423 at 400 nodes, so verify refuses it
        problem = HybridProblem(
            lsf=lambda x, y: 3.0 - x[0] ** 2 / 2 - x[1],
            lsf_batch=lambda x, y: 3.0 - x[:, 0] ** 2 / 2 - x[:, 1],
            randoms=(STD_NORMAL, RandomVariable("x1", 0.5, 1.2)),
        )
        assert reliability_reference(problem) == 0.9241538498037234
        with pytest.raises(AccuracyError, match="at 200 nodes"):
            reliability_reference(problem, verify=True)

    def test_pure_random_exact_routes_skip_verify(self):
        affine = _pure_random(lambda x, y: 3.0 - x[0])
        bisected = _pure_random(lambda x, y: 4.0 - x[0] ** 2)
        for problem in (affine, bisected):
            assert reliability_reference(problem, verify=True) \
                == reliability_reference(problem)

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

    @staticmethod
    def _same_rule(belief, quad_nodes=64):
        """The chance integral's own 1-D rule applied to an exact belief of
        the standard normal random input."""
        from hybrel.chance import gaussian_nodes
        from hybrel.distributions import Normal
        s, w = gaussian_nodes(quad_nodes)
        return sum(wi * belief(xi) for xi, wi in zip(Normal().inv_cdf(s), w))

    @staticmethod
    def _mean_belief(x):
        # 0.5 + x t with t ~ L(-1, 1): the root is 1 - alpha = (1 - 0.5/x)/2
        # for x > 0 and alpha = (1 - 0.5/x)/2 for x < 0
        return min(max((1.0 + 0.5 / abs(x)) / 2, 0.0), 1.0)

    def test_unclassified_profile_goes_through_lsf_batch(self):
        # d/dy (0.5 + x y) = x changes sign across the random support, so
        # each node takes its own sign from the block's probe call, and the
        # root's bisection makes batch calls over the open nodes: the same
        # evaluations as the scalar path
        g = lambda x, y: 0.5 + x[..., 0] * y[..., 0]
        problem = HybridProblem(
            lsf=lambda x, y: float(g(x, y)),
            randoms=(STD_NORMAL,),
            uncertains=(UncertainVariable("y0", -1.0, 1.0),),
            lsf_batch=g,
        )
        scalar_only, scalar_calls = _counted(replace(problem, lsf_batch=None))
        batched, calls = _counted(problem)
        value = reliability_reference(batched)
        assert value == reliability_reference(scalar_only)
        assert calls == {"scalar": 0, "rows": scalar_calls["scalar"]}
        assert value == pytest.approx(self._same_rule(self._mean_belief), abs=1e-10)

    def test_unclassified_nonlinear_in_tau_against_brentq(self):
        # 0.5 + x (y + 0.3 y^3): the belief is (1 + s)/2 with s + 0.3 s^3 =
        # 0.5/|x|, and 1 once 0.5/|x| >= 1.3; the root agrees with the same
        # rule's brentq sum to the bisection's tolerance
        from scipy.optimize import brentq
        g = lambda x, y: 0.5 + x[..., 0] * (y[..., 0] + 0.3 * y[..., 0] ** 3)
        problem = HybridProblem(
            lsf=lambda x, y: float(g(x, y)), lsf_batch=g,
            randoms=(STD_NORMAL,),
            uncertains=(UncertainVariable("y0", -1.0, 1.0),),
        )

        def belief(x):
            c = 0.5 / abs(x)
            if c >= 1.3:
                return 1.0
            return (1.0 + brentq(lambda t: t + 0.3 * t ** 3 - c, 0.0, 1.0,
                                 xtol=1e-15)) / 2

        value = reliability_reference(problem, quad_nodes=64)
        assert value == pytest.approx(self._same_rule(belief), abs=1e-10)

    def test_unclassified_four_uncertain_inputs(self):
        # the mean of four L(-1, 1) inputs is L(-1, 1) by the operational
        # law, so the belief is that of 0.5 + x y
        g = lambda x, y: 0.5 + x[..., 0] * y.sum(axis=-1) / 4
        problem = HybridProblem(
            lsf=lambda x, y: float(g(x, y)), lsf_batch=g,
            randoms=(STD_NORMAL,),
            uncertains=tuple(UncertainVariable(f"y{i}", -1.0, 1.0)
                             for i in range(4)),
        )
        value = reliability_reference(problem)
        assert value == pytest.approx(self._same_rule(self._mean_belief), abs=1e-10)

    def test_unclassified_nodes_share_batch_calls(self):
        # the per-node signs are one probe call per block and each bisection
        # step one call over the open nodes, whatever the node count
        g = lambda x, y: 0.5 + x[..., 0] * y[..., 0] + 0.1 * x[..., 1]
        calls = []

        def lsf_batch(x, y):
            calls.append(len(x))
            return g(x, y)

        problem = HybridProblem(
            lsf=lambda x, y: float(g(x, y)), lsf_batch=lsf_batch,
            randoms=(STD_NORMAL, RandomVariable("u1", 0.0, 1.0)),
            uncertains=(UncertainVariable("y0", -1.0, 1.0),),
        )
        reliability_reference(problem, quad_nodes=32)
        assert len(calls) < 100

    def test_nonlinear_pure_random_goes_through_lsf_batch(self):
        # 3 - x0^2/2 - x1 is not affine, so it takes the m = 2 indicator
        # quadrature, whose 200 x 200 nodes are batch rows. Oracles: the
        # scalar path, and Pr{x1 < 3 - x0^2/2} = E[Phi((2.5 - x0^2/2)/1.2)]
        # by quad, within the indicator rule's first-order error
        from hybrel.distributions import normal_cdf
        g = lambda x, y: 3.0 - x[..., 0] ** 2 / 2 - x[..., 1]
        problem = HybridProblem(
            lsf=lambda x, y: float(g(x, y)),
            randoms=(STD_NORMAL, RandomVariable("x1", 0.5, 1.2)),
            lsf_batch=g,
        )
        batched, calls = _counted(problem)
        value = reliability_reference(batched)
        # the affine probe's 2m + 4 = 8 rows, then the 200 x 200 nodes
        assert calls == {"scalar": 0, "rows": 40_008}
        assert value == reliability_reference(replace(problem, lsf_batch=None))
        exact, err = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
                          * float(normal_cdf((2.5 - t * t / 2) / 1.2)), -12, 12)
        assert err < 1e-9
        assert value == pytest.approx(exact, abs=2e-4)
        assert value == 0.9241538498037234  # the 200-node rule's bits

    def test_non_monotone_uncertain_input_is_ambiguous(self):
        # d/dy0 = -2 (y0 - 0.3) changes sign inside [-1, 1] at every random
        # point, so the belief root does not apply: the problem is well
        # posed, the method has no answer for it
        problem = HybridProblem(
            lsf=lambda x, y: 0.2 + x[0] - (y[0] - 0.3) ** 2,
            randoms=(STD_NORMAL,),
            uncertains=(UncertainVariable("y0", -1.0, 1.0),),
        )
        with pytest.raises(AmbiguousRootError,
                           match="^could not classify monotonicity; the "
                                 "belief root needs it$") as excinfo:
            reliability_reference(problem, quad_nodes=16)
        assert not isinstance(excinfo.value, ValueError)


def test_tube_design_point_calls():
    # perfbench's traced run pins this count; a change to the search that
    # moves it shows here first
    problem, calls = _counted(case_cantilever_tube().problem)
    find_design_point(standardize(problem))
    assert calls == {"scalar": 12_960, "rows": 0}
