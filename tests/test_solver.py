import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybrel import solver
from hybrel.errors import (
    DegenerateGradientError,
    InvalidParameterError,
    NonFiniteResponseError,
)
from hybrel.model import HybridProblem, RandomVariable, UncertainVariable, standardize
from hybrel.solver import (
    _breakpoints,
    _corners,
    _reach,
    _reach_inverse,
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


def _bisection_pair(grad, target):
    """The bracket (lo, hi) of the multiplier after a fixed 200 bisection
    steps, with np.clip in the bracket function, for a nonzero grad."""

    def reach(mu):
        return float(grad @ np.clip(mu * grad, -1.0, 1.0))

    gnorm_sq = float(grad @ grad)
    mu_max = (1.0 + abs(target)) / gnorm_sq + 1.0 / np.min(np.abs(grad[grad != 0]))
    lo, hi = -mu_max, mu_max
    goal = min(max(target, reach(lo)), reach(hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if reach(mid) < goal:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _box_qp_200_steps(grad, target):
    """Reference box solve: the midpoint of _bisection_pair's bracket."""
    if float(grad @ grad) < 1e-30:
        return np.zeros_like(grad)
    lo, hi = _bisection_pair(grad, target)
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

    @staticmethod
    def _assert_bitwise(grad, targets):
        for target in targets:
            expected = _box_qp_200_steps(grad, target)
            assert _solve_box_qp(grad, target).tobytes() == expected.tobytes(), \
                (grad.tolist(), target)

    @given(grad=st.lists(_GRAD_ENTRY, min_size=1, max_size=12))
    def test_targets_at_and_just_inside_the_reachable_bound(self, grad):
        grad = np.array(grad)
        bound = float(np.abs(grad).sum())
        inside = bound * (1.0 - 1e-15)
        self._assert_bitwise(grad, [bound, -bound, inside, -inside])

    @given(grad=st.lists(_GRAD_ENTRY, min_size=1, max_size=12)
           .filter(lambda g: any(g)),
           ulps=st.integers(0, 200), sign=st.sampled_from([-1.0, 1.0]))
    def test_targets_around_the_unclamped_bound(self, grad, ulps, sign):
        # below sum|g| * (1 - 4(n+2) 2^-53) the solve takes the target as
        # its goal without evaluating the reach at the box corner
        grad = np.array(grad)
        bound = math.fsum(np.abs(grad)) * (1.0 - ulps * 2.0 ** -53)
        self._assert_bitwise(grad, [sign * bound])

    def test_sums_of_the_magnitudes_that_round_apart(self):
        # summed from the largest, each 0.6-ulp term rounds the sum up a
        # whole ulp: sum(mags) reads 1 + 10 ulps where the reach at the
        # box corner reads 1 + 6, so a target between them still clamps
        grad = np.array([0.6 * 2.0 ** -52] * 10 + [1.0])
        self._assert_bitwise(grad, [sign * (1.0 + k * 2.0 ** -52)
                                    for k in range(13) for sign in (-1.0, 1.0)])

    @given(grad=st.lists(_GRAD_ENTRY, min_size=1, max_size=12),
           ulps=st.integers(-4, 4), sign=st.sampled_from([-1.0, 1.0]))
    def test_goals_within_ulps_of_a_kink(self, grad, ulps, sign):
        grad = np.array(grad)
        mags = np.abs(grad[grad != 0])
        for mag in np.unique(mags):
            # r(1/|g_k|), summed exactly
            kink = math.fsum(mags * np.minimum(mags / mag, 1.0))
            target = sign * kink
            for _ in range(abs(ulps)):
                target = np.nextafter(target, math.copysign(math.inf, ulps))
            self._assert_bitwise(grad, [float(target)])

    @given(
        magnitudes=st.lists(st.floats(min_value=-3.0, max_value=3.0),
                            min_size=1, max_size=3),
        picks=st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                       min_size=2, max_size=12),
        share=st.floats(min_value=-1.2, max_value=1.2),
    )
    def test_tied_magnitudes(self, magnitudes, picks, share):
        grad = np.array([(-1.0 if negative else 1.0)
                         * 10.0 ** magnitudes[k % len(magnitudes)]
                         for k, negative in picks])
        bound = float(np.abs(grad).sum())
        self._assert_bitwise(grad, [share * bound, 0.0, 0.5 * bound])

    @given(size=st.integers(1, 12), index=st.integers(0, 11),
           entry=_GRAD_ENTRY.filter(lambda g: g != 0.0),
           share=st.floats(min_value=-2.0, max_value=2.0))
    def test_single_nonzero_entry(self, size, index, entry, share):
        grad = np.zeros(size)
        grad[index % size] = entry
        self._assert_bitwise(grad, [share * abs(entry), abs(entry), -abs(entry)])

    @given(grad=st.lists(_GRAD_ENTRY, min_size=1, max_size=12)
           .filter(lambda g: any(g)),
           ulps=st.integers(-4, 4), sign=st.sampled_from([-1.0, 1.0]))
    def test_targets_at_and_within_ulps_of_the_float_reach_at_the_box_corner(
            self, grad, ulps, sign):
        # the reach where every coordinate clips: the goal's clamp
        grad = np.array(grad)
        target = sign * float(grad @ np.sign(grad))
        for _ in range(abs(ulps)):
            target = math.nextafter(target, math.copysign(math.inf, ulps))
        self._assert_bitwise(grad, [target])

    @given(grad=st.lists(_GRAD_ENTRY, min_size=1, max_size=12))
    def test_near_zero_targets_where_the_200_step_cap_binds(self, grad):
        # the reach crosses these goals so near mu = 0 that 200 halvings
        # from (-mu_max, mu_max) never reach adjacent floats there
        grad = np.array(grad)
        self._assert_bitwise(grad, [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
                                    1e-200, -1e-200])

    @given(
        exponents=st.lists(st.floats(min_value=-150.0, max_value=150.0),
                           min_size=1, max_size=3),
        picks=st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                       min_size=1, max_size=12),
        share=st.floats(min_value=-1.2, max_value=1.2),
    )
    def test_magnitudes_spanning_300_decades_with_ties(self, exponents, picks,
                                                       share):
        grad = np.array([(-1.0 if negative else 1.0)
                         * 10.0 ** exponents[k % len(exponents)]
                         for k, negative in picks])
        bound = float(np.abs(grad).sum())
        self._assert_bitwise(grad, [share * bound, bound, -bound, 0.0,
                                    0.5 * bound, 1e-200])

    @given(grad=st.lists(_GRAD_ENTRY, min_size=1, max_size=12),
           share=st.one_of(st.floats(min_value=-1.2, max_value=1.2),
                           st.sampled_from([0.0, 1e-300, -1e-300])),
           start=st.one_of(st.floats(min_value=-1e6, max_value=1e6),
                           st.sampled_from([math.nan, math.inf, -math.inf])))
    def test_any_start_gives_the_same_bits(self, grad, share, start):
        # the float reach is monotone, so the search may start anywhere;
        # from a start far off, a crossing near mu = 0 still falls back
        grad = np.array(grad)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_reach_inverse", lambda *args: start)
            self._assert_bitwise(grad, [share * float(np.abs(grad).sum())])

    @pytest.mark.parametrize("grad", [
        [1.0, 1e-165],  # the smallest square is zero
        [2.0, -1e-160, 1e-170, 0.5],
        [1e-160, -3.0],  # subnormal square
        [1e155, -2e155, 3e160],  # the largest square is inf
    ])
    def test_squares_that_under_or_overflow(self, grad):
        grad = np.array(grad)
        bound = float(np.abs(grad).sum())
        with np.errstate(over="ignore"):  # grad . grad may be inf
            self._assert_bitwise(grad, [share * bound for share in (
                -1.1, -1.0, -0.5, -1e-12, 0.0, 1e-9, 0.3, 1.0, 2.0)])

    @given(grad=st.lists(_GRAD_ENTRY, min_size=1, max_size=12),
           exponent=st.floats(min_value=-10.0, max_value=10.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_reach_never_decreases_over_consecutive_floats(self, grad, exponent,
                                                           sign):
        # the box solve's shortcut to the bisection's answer rests on this
        grad = np.array(grad)
        mu = sign * 10.0 ** exponent
        for _ in range(32):
            mu = math.nextafter(mu, -math.inf)
        reaches = []
        for _ in range(64):
            reaches.append(_reach(grad, mu))
            mu = math.nextafter(mu, math.inf)
        assert reaches == sorted(reaches)

    @given(grad=st.lists(_GRAD_ENTRY, min_size=1, max_size=12)
           .filter(lambda g: any(g)))
    def test_breakpoint_inverse_against_dense_evaluation(self, grad):
        grad = np.array(grad)
        mags = np.sort(np.abs(grad[grad != 0]))[::-1]
        before, after = _breakpoints(mags)
        # r is linear between kinks, so a grid holding every kink and
        # many points between interpolates it exactly
        kinks = 1.0 / mags
        grid = np.unique(np.concatenate([
            kinks, np.geomspace(kinks[0] * 1e-3, kinks[-1], 400), [0.0]]))
        reach = np.array([math.fsum(mags * np.minimum(mu * mags, 1.0))
                          for mu in grid])
        total = math.fsum(mags)
        for share in np.linspace(-0.999, 0.999, 37):
            level = share * total
            want = math.copysign(np.interp(abs(level), reach, grid), level)
            got = _reach_inverse(before, after, level)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300)

    @given(grad=st.lists(_GRAD_ENTRY, min_size=1, max_size=12)
           .filter(lambda g: any(g)),
           exponent=st.floats(min_value=-8.0, max_value=8.0))
    def test_reach_is_odd_bit_for_bit(self, grad, exponent):
        # the box solve takes the reach at -mu_max as minus the one at mu_max
        grad = np.array(grad)
        mu = 10.0 ** exponent
        down, up = _reach(grad, -mu), _reach(grad, mu)
        assert np.float64(down).tobytes() == np.float64(-up).tobytes()

    def test_most_steps_skip_the_float_reach(self, monkeypatch):
        # the plain bisection evaluates the reach about 60 times per solve,
        # one float each; an inside goal whose pair the window holds takes
        # one evaluation at the window's floats, and a bottom goal one at
        # the box corner
        calls = []
        reach, reaches = solver._reach, solver._reaches
        monkeypatch.setattr(solver, "_reach", lambda grad, mu: calls.append(
            ("reach", mu)) or reach(grad, mu))
        monkeypatch.setattr(solver, "_reaches", lambda grad, mus: calls.append(
            ("reaches", mus)) or reaches(grad, mus))
        rng = np.random.default_rng(7)
        solves = 200
        kinds, rows = [], 0
        for _ in range(solves):
            grad = rng.normal(size=6) * 10.0 ** rng.uniform(-3, 3, size=6)
            share = rng.uniform(-1.2, 1.2)
            target = share * float(np.abs(grad).sum())
            calls.clear()
            _solve_box_qp(grad, target)
            rows += sum(np.size(mus) for _, mus in calls)
            made = [name for name, _ in calls]
            if share < -1.0:
                kinds.append("bottom")
                # the top reach at the box corner, and no window
                assert made == ["reach"]
                continue
            mags = sorted(np.abs(grad).tolist(), reverse=True)
            mu = _reach_inverse(*_breakpoints(mags), target)
            window = (np.array(mu).view(np.int64) + solver._WINDOW).view(float)
            if share < 1.0 and set(_bisection_pair(grad, target)) <= set(
                    window.tolist()):
                kinds.append("window")
                assert made == ["reaches"]
            else:
                kinds.append("other")
                assert made.count("reaches") <= 1
                assert made.count("reach") <= 201
        assert set(kinds) == {"bottom", "window", "other"}
        # every float the reach is evaluated at counts, the window's included
        assert rows <= (len(solver._WINDOW) + 8) * solves

    @given(grad=st.lists(_GRAD_ENTRY, min_size=1, max_size=12),
           exponent=st.floats(min_value=-10.0, max_value=10.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_window_reaches_match_the_single_reach(self, grad, exponent, sign):
        grad = np.array(grad)
        bits = np.array(sign * 10.0 ** exponent).view(np.int64)
        mus = (bits + solver._WINDOW).view(float)
        got = solver._reaches(grad, mus)
        want = np.array([_reach(grad, mu) for mu in mus.tolist()])
        assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("n", range(4, 11))
    def test_corners_built_once_per_n(self, n):
        # the reference: every sign pattern in np.ndindex order up to 128
        # corners, 128 seeded draws beyond
        if 2 ** n <= 128:
            bits = np.array(list(np.ndindex(*(2,) * n)))
        else:
            bits = np.random.default_rng(0).integers(0, 2, size=(128, n))
        corners = _corners(n)
        assert corners.tobytes() == np.where(bits == 1, 1.0, -1.0).tobytes()
        assert _corners(n) is corners
        assert not corners.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "shape"])
    def test_bad_corner_names_its_point(self, bad):
        # the corner (-1, 1, 1, -1) answers bad; the error is the one
        # lsf_omega raises there
        corner = np.array([-1.0, 1.0, 1.0, -1.0])
        u = np.array([0.25])

        def lsf(x, y):
            value = 2.5 - x[0] - np.sum(y)
            if y.tolist() != corner.tolist():
                return value
            return np.array([value]) if bad == "shape" else bad

        std = _std(lsf, 1, 4)
        error = InvalidParameterError if bad == "shape" else NonFiniteResponseError
        with pytest.raises(error) as from_corner:
            ua_step(std, u)
        with pytest.raises(error) as from_point:
            std.lsf_omega(np.concatenate([u, corner]))
        assert str(from_corner.value) == str(from_point.value)
        assert str(from_point.value).endswith(
            "at x=[0.25], y=[-1.0, 1.0, 1.0, -1.0]")


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

    def test_nonconvergence_reported_honestly(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        std = _linear_std([-0.5, -0.5], 1.0, 1, 1)
        dp = find_design_point(std)
        assert not dp.converged
        assert dp.iterations == 1

    def test_nonconvergence_logs_one_warning(self, caplog, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        std = _linear_std([-0.5, -0.5], 1.0, 1, 1)
        with caplog.at_level(logging.WARNING, logger="hybrel.solver"):
            dp = find_design_point(std)
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
