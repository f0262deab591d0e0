import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybrel.errors import DegenerateGradientError, InvalidParameterError
from hybrel.model import HybridProblem, RandomVariable, UncertainVariable, standardize
from hybrel.solver import (
    SolverSettings,
    _solve_box_qp,
    find_design_point,
    pa_step,
    ua_step,
)


def _std(lsf, m, n):
    problem = HybridProblem(
        lsf=lsf,
        randoms=tuple(RandomVariable(f"u{i}", 0.0, 1.0) for i in range(m)),
        uncertains=tuple(UncertainVariable(f"y{j}", -1.0, 1.0) for j in range(n)),
    )
    return standardize(problem)


def _linear_std(coeffs, constant, m, n):
    coeffs = np.asarray(coeffs, dtype=float)

    def lsf(x, y):
        w = np.concatenate([np.asarray(x, float), np.asarray(y, float)])
        return constant + float(coeffs @ w)

    return _std(lsf, m, n)


def _box_qp_200_steps(grad, target):
    """Reference box solve: a fixed 200 bisection steps, with np.clip in
    the bracket function."""
    gnorm_sq = float(grad @ grad)
    if gnorm_sq < 1e-30:
        return np.zeros_like(grad)

    def reach(mu):
        return float(grad @ np.clip(mu * grad, -1.0, 1.0))

    mu_max = (1.0 + abs(target)) / gnorm_sq + 1.0 / np.min(np.abs(grad[grad != 0]))
    lo, hi = -mu_max, mu_max
    goal = min(max(target, reach(lo)), reach(hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if reach(mid) < goal:
            lo = mid
        else:
            hi = mid
    return np.clip(0.5 * (lo + hi) * grad, -1.0, 1.0)


# gradient entries from 1e-6 to 1e6 in magnitude, either sign, zeros allowed
_GRAD_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]),
              st.floats(min_value=-6.0, max_value=6.0)),
)


class TestSolveBoxQp:
    @given(
        grad=st.lists(_GRAD_ENTRY, min_size=1, max_size=12),
        # target as a multiple of the reachable bound sum|g|: inside the
        # reachable range within [-1, 1], beyond it outside
        share=st.one_of(st.floats(min_value=-3.0, max_value=3.0),
                        st.sampled_from([-1.0, 0.0, 1.0])),
    )
    def test_matches_200_step_bisection_bit_for_bit(self, grad, share):
        grad = np.array(grad)
        target = share * float(np.abs(grad).sum())
        expected = _box_qp_200_steps(grad, target)
        got = _solve_box_qp(grad, target)
        assert got.tobytes() == expected.tobytes()


class TestUaStep:
    def test_boundary_constraint(self):
        # f = 1 - (u + delta)/2 at u = 1: zero set is delta = 1
        std = _linear_std([-0.5, -0.5], 1.0, 1, 1)
        delta = ua_step(std, np.array([1.0]))
        assert delta[0] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_fallback_minimizes_abs_f(self):
        # f = delta^2 + 1 > 0 everywhere: fallback is argmin |f| = 0
        std = _std(lambda x, y: y[0] ** 2 + 1.0, 1, 1)
        delta = ua_step(std, np.array([0.0]))
        assert delta[0] == pytest.approx(0.0, abs=1e-6)

    def test_zero_set_through_origin(self):
        std = _std(lambda x, y: y[0], 1, 1)
        delta = ua_step(std, np.array([0.7]))
        assert delta[0] == pytest.approx(0.0, abs=1e-9)

    def test_min_norm_solution_two_variables(self):
        # f = 1 - (delta1 + delta2): min-norm point on the line is (0.5, 0.5)
        std = _std(lambda x, y: 1.0 - y[0] - y[1], 1, 2)
        delta = ua_step(std, np.array([0.0]))
        assert delta == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_large_n_projected_path(self):
        # five uncertains, zero set sum(delta) = 2.5: symmetric solution 0.5
        std = _std(lambda x, y: 2.5 - np.sum(y), 1, 5)
        delta = ua_step(std, np.array([0.0]))
        assert delta == pytest.approx(np.full(5, 0.5), abs=1e-8)

    def test_empty_for_no_uncertains(self):
        std = _linear_std([-1.0], 3.0, 1, 0)
        assert ua_step(std, np.array([0.0])).size == 0


class TestPaStep:
    def test_linear_one_step(self):
        std = _linear_std([-1.0], 3.0, 1, 0)
        u, beta = pa_step(std, np.array([0.0]), np.empty(0), 0.0)
        assert beta == pytest.approx(3.0, rel=1e-9)
        assert u[0] == pytest.approx(3.0, rel=1e-9)

    def test_linear_fixed_point(self):
        # f = c - a.u has fixed point u* = a c/|a|^2, beta = c/|a|
        a = np.array([0.6, 0.8])
        c = 2.0
        std = _linear_std(-a, c, 2, 0)
        u, beta = np.zeros(2), 0.0
        for _ in range(3):
            u, beta = pa_step(std, u, np.empty(0), beta)
        assert beta == pytest.approx(c / np.linalg.norm(a), rel=1e-9)
        assert u == pytest.approx(a * c / (a @ a), rel=1e-7)

    def test_fixed_point_property(self):
        a = np.array([0.6, 0.8])
        std = _linear_std(-a, 2.0, 2, 0)
        u, beta = pa_step(std, np.zeros(2), np.empty(0), 0.0)
        u2, beta2 = pa_step(std, u, np.empty(0), beta)
        assert u2 == pytest.approx(u, abs=1e-9)
        assert beta2 == pytest.approx(beta, abs=1e-9)

    def test_degenerate_gradient(self):
        std = _std(lambda x, y: 1.0 + y[0], 1, 1)
        with pytest.raises(DegenerateGradientError):
            pa_step(std, np.array([0.0]), np.array([0.0]), 0.0)


class TestFindDesignPoint:
    def test_single_variable_linear(self):
        std = _linear_std([-1.0], 3.0, 1, 0)
        dp = find_design_point(std)
        assert dp.converged
        assert dp.iterations <= 2
        assert dp.beta == pytest.approx(3.0, rel=1e-9)
        assert dp.u_star[0] == pytest.approx(3.0, rel=1e-9)

    def test_mixed_two_variable(self):
        std = _linear_std([-0.5, -0.5], 1.0, 1, 1)
        dp = find_design_point(std)
        assert dp.converged
        assert dp.u_star[0] == pytest.approx(1.0, abs=1e-6)
        assert dp.delta_star[0] == pytest.approx(1.0, abs=1e-6)
        assert dp.beta == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_ten_variable_symmetric(self):
        std = _linear_std(np.full(10, -0.1), 1.0, 5, 5)
        dp = find_design_point(std)
        assert dp.converged
        assert dp.u_star == pytest.approx(np.ones(5), abs=1e-6)
        assert dp.delta_star == pytest.approx(np.ones(5), abs=1e-6)
        assert dp.beta == pytest.approx(math.sqrt(10), abs=1e-6)

    def test_beta_equals_norm(self):
        std = _linear_std([-0.2, -0.4, -0.1], 1.0, 2, 1)
        dp = find_design_point(std)
        omega = np.concatenate([dp.u_star, dp.delta_star])
        assert dp.beta == pytest.approx(np.linalg.norm(omega), abs=1e-9)

    def test_permutation_invariance(self):
        coeffs = np.array([-0.3, -0.7, -0.15, -0.35])
        std = _linear_std(coeffs, 1.0, 2, 2)
        perm = [1, 0, 3, 2]  # swap within randoms and within uncertains

        def lsf_perm(x, y):
            w = np.concatenate([np.asarray(x, float), np.asarray(y, float)])
            return 1.0 + float(coeffs[perm] @ w)

        std_perm = _std(lsf_perm, 2, 2)
        beta_a = find_design_point(std).beta
        beta_b = find_design_point(std_perm).beta
        assert beta_a == pytest.approx(beta_b, abs=1e-6)

    def test_nonconvergence_reported_honestly(self):
        std = _linear_std([-0.5, -0.5], 1.0, 1, 1)
        dp = find_design_point(std, SolverSettings(max_iterations=1))
        assert not dp.converged
        assert dp.iterations == 1

    def test_nonconvergence_logs_one_warning(self, caplog):
        std = _linear_std([-0.5, -0.5], 1.0, 1, 1)
        with caplog.at_level(logging.WARNING, logger="hybrel.solver"):
            dp = find_design_point(std, SolverSettings(max_iterations=1))
        records = [r for r in caplog.records if r.name == "hybrel.solver"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        assert "did not converge in 1 iterations" in message
        assert f"{dp.trace[-1].step_norm:.6g}" in message

    def test_convergence_logs_nothing(self, caplog):
        std = _linear_std([-0.5, -0.5], 1.0, 1, 1)
        with caplog.at_level(logging.WARNING, logger="hybrel.solver"):
            dp = find_design_point(std)
        assert dp.converged
        assert not [r for r in caplog.records if r.name == "hybrel.solver"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batch_seed_grid_matches_scalar_loop(self, n):
        # nonlinear in u and delta; + and * only, so a row of the batch
        # and a scalar call round identically
        coeffs = (0.6, -0.35, 0.25)

        def lsf(x, y):
            x = np.asarray(x, float)
            y = np.asarray(y, float)
            value = 4.0 - x[..., 0] - 0.4 * x[..., 1] - 0.15 * x[..., 0] * x[..., 1]
            for j in range(n):
                value = value - coeffs[j] * y[..., j] + 0.05 * y[..., j] * y[..., j] * y[..., j]
            return value

        batch_rows = []

        def lsf_batch(x, y):
            assert x.shape == (len(y), 2) and x.flags.writeable
            batch_rows.append(len(y))
            return lsf(x, y)

        def problem(batch):
            return HybridProblem(
                lsf=lsf,
                randoms=(RandomVariable("x0", 0.5, 1.5), RandomVariable("x1", 0.0, 1.0)),
                uncertains=tuple(UncertainVariable(f"y{j}", -2.0, 1.0)
                                 for j in range(n)),
                lsf_batch=batch,
            )

        looped = find_design_point(standardize(problem(None)))
        batched = find_design_point(standardize(problem(lsf_batch)))
        assert looped.converged and looped.iterations > 2
        assert batched.omega().tobytes() == looped.omega().tobytes()
        assert batched.trace == looped.trace
        assert batch_rows == [21 ** n] * batched.iterations

    def test_requires_random_variables(self):
        std = _std(lambda x, y: 1.0 - y[0], 0, 1)
        with pytest.raises(InvalidParameterError):
            find_design_point(std)

    def test_trace_records(self):
        std = _linear_std([-1.0], 3.0, 1, 0)
        dp = find_design_point(std)
        assert len(dp.trace) == dp.iterations
        first = dp.trace[0]
        assert first.index == 1
        assert first.beta == pytest.approx(3.0, rel=1e-9)
        assert first.lsf_value == pytest.approx(0.0, abs=1e-9)

    def test_growth_logged_not_fatal(self, caplog):
        # a mildly nonlinear state still converges; growth only logs
        std = _std(lambda x, y: 2.0 - x[0] - 0.3 * np.sin(2 * x[0]), 1, 0)
        with caplog.at_level(logging.WARNING):
            dp = find_design_point(std)
        assert dp.converged

    def test_settings_validation(self):
        with pytest.raises(InvalidParameterError):
            SolverSettings(epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            SolverSettings(max_iterations=0)
        with pytest.raises(InvalidParameterError):
            SolverSettings(ua_grid=2)
