import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hybrel.chance import (
    _belief_rows,
    _support_profile,
    MonotonicityProfile,
    belief_sup_grid,
    chance_distribution,
    chance_exceedance,
    detect_profile,
)
from hybrel.distributions import LinearUncertain, Normal
from hybrel.errors import (
    AccuracyError,
    AmbiguousRootError,
    InvalidParameterError,
    UnsupportedDimensionError,
)

NO_RANDOMS = np.empty(0)


def lin01():
    return LinearUncertain(0.0, 1.0)


def belief(f, dists, signs=None):
    """Belief degree of {f > 0} over the uncertain inputs: the chance measure
    with no random inputs, under the declared signs or the detected ones."""
    profile = None if signs is None else MonotonicityProfile(signs)
    return chance_exceedance(f, [], dists, profile=profile)


class TestProfileDetection:
    def test_simple_signs(self):
        f = lambda _x, tau: tau[0] - 2 * tau[1]
        profile = detect_profile(f, NO_RANDOMS, [lin01(), lin01()])
        assert profile.signs == ("increasing", "decreasing")
        assert not profile.has_unknown

    def test_non_monotone_is_unknown(self):
        f = lambda _x, tau: (tau[0] - 0.5) ** 2
        profile = detect_profile(f, NO_RANDOMS, [lin01()])
        assert profile.signs == ("unknown",)

    def test_flat_variable_defaults_increasing(self):
        f = lambda _x, tau: 1.0 + 0.0 * tau[0]
        profile = detect_profile(f, NO_RANDOMS, [lin01()])
        assert profile.signs == ("increasing",)

    def test_profile_validation(self):
        with pytest.raises(InvalidParameterError):
            MonotonicityProfile(("sideways",))


class TestBeliefRoot:
    """The belief degree at fixed random inputs, through the chance integral
    with no random inputs."""

    def test_decreasing_case_against_grid_oracle(self):
        f = lambda _x, tau: 0.7 - tau[0]
        value = belief(f, [lin01()], ("decreasing",))
        assert 0.0 < value < 1.0  # a bisected root, not an endpoint
        # oracle: the measure of {tau < 0.7} scanned on a dense grid
        oracle = belief_sup_grid(f, NO_RANDOMS, [lin01()], grid_per_var=2001)
        assert value == pytest.approx(oracle, abs=1e-3)
        assert value == pytest.approx(0.7, abs=1e-9)

    def test_increasing_case_against_grid_oracle(self):
        f = lambda _x, tau: tau[0] - 0.3
        value = belief(f, [lin01()], ("increasing",))
        oracle = belief_sup_grid(f, NO_RANDOMS, [lin01()], grid_per_var=2001)
        assert value == pytest.approx(oracle, abs=1e-3)
        assert value == pytest.approx(0.7, abs=1e-9)

    def test_forced_one(self):
        assert belief(lambda _x, tau: 5.0 + tau[0], [lin01()], ("increasing",)) == 1.0

    def test_forced_zero(self):
        assert belief(lambda _x, tau: tau[0] - 2.0, [lin01()], ("increasing",)) == 0.0

    def test_wrong_profile_raises_ambiguous(self):
        # oscillating limit state breaks the monotone pre-scan
        f = lambda _x, tau: np.sin(6 * np.pi * tau[0]) + 0.1
        with pytest.raises(AmbiguousRootError) as excinfo:
            belief(f, [lin01()], ("increasing",))
        assert len(excinfo.value.scan) == 11

    @given(st.floats(0.05, 0.95))
    def test_relabel_symmetry(self, c):
        # flipping the variable's sign in f and its label leaves the root alone
        dec = belief(lambda _x, tau: c - tau[0], [lin01()], ("decreasing",))
        inc = belief(lambda _x, tau: c - (-tau[0]), [LinearUncertain(-1.0, 0.0)],
                     ("increasing",))
        assert dec == pytest.approx(inc, abs=1e-9)

    @settings(max_examples=12, deadline=None)  # a 101^3 grid is 1M scalar calls
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_affine_belief_against_closed_form(self, seed, n):
        # g = c + b.tau is affine in the belief level: h(alpha) = h(0) -
        # alpha * sum |b_i| (u_i - l_i), so the belief is the clipped ratio;
        # the grid supremum finds it within one grid step of the measure
        rng = np.random.default_rng(seed)
        c = rng.uniform(-3, 3)
        b = rng.uniform(0.5, 2.0, n) * rng.choice((-1.0, 1.0), n)
        lo = rng.uniform(-2, 2, n)
        hi = lo + rng.uniform(0.5, 3.0, n)
        dists = [LinearUncertain(l, h) for l, h in zip(lo, hi)]
        f = lambda _x, tau: c + tau @ b
        expected = np.clip((c + np.maximum(b * lo, b * hi).sum())
                           / (np.abs(b) * (hi - lo)).sum(), 0.0, 1.0)
        assert belief(f, dists) == pytest.approx(expected, abs=1e-9)
        grid = 101
        assert belief_sup_grid(f, NO_RANDOMS, dists, grid_per_var=grid) == (
            pytest.approx(expected, abs=1 / (grid - 1)))


class TestBeliefRows:
    """The batched bisection behind every root-path belief."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 2))
    def test_affine_rows_against_closed_form(self, seed, n, m):
        # g = c + a.x + b.tau is affine in the belief level: h(alpha) =
        # h(0) - alpha * sum |b_i| (u_i - l_i), so the belief is the clipped
        # ratio, exactly 0 or 1 where the clip binds
        rng = np.random.default_rng(seed)
        c = rng.uniform(-3, 3)
        a = rng.uniform(-2, 2, m)
        b = rng.uniform(0.5, 2.0, n) * rng.choice((-1.0, 1.0), n)
        lo = rng.uniform(-2, 2, n)
        hi = lo + rng.uniform(0.5, 3.0, n)
        etas = rng.uniform(-3, 3, (40, m))
        rows = lambda xs, taus: c + xs @ a + taus @ b
        value = _belief_rows(
            rows, etas, [LinearUncertain(l, h) for l, h in zip(lo, hi)], b < 0, 0.0
        )
        h0 = c + etas @ a + np.maximum(b * lo, b * hi).sum()
        span = (np.abs(b) * (hi - lo)).sum()
        ratio = h0 / span
        np.testing.assert_allclose(value, np.clip(ratio, 0, 1), rtol=0, atol=1e-9)
        clear = np.minimum(np.abs(ratio), np.abs(ratio - 1)) > 1e-9
        assert (value[clear & (ratio < 0)] == 0.0).all()
        assert (value[clear & (ratio > 1)] == 1.0).all()
        inside = value[clear & (ratio > 0) & (ratio < 1)]
        assert ((0.0 < inside) & (inside < 1.0)).all()

    def test_first_non_monotone_row_is_reported(self):
        # row 2 changes sign twice in the belief level (+ - +) and row 4
        # oscillates; the others are the monotone 0.5 - tau.  The scan
        # reported is row 2's
        def rows(xs, taus):
            eta, tau = xs[:, 0], taus[:, 0]
            return np.where(eta == 2, (tau - 0.25) * (tau - 0.75),
                            0.5 - tau + (eta == 4) * np.sin(6 * np.pi * tau))

        etas = np.arange(6.0)[:, None]
        with pytest.raises(AmbiguousRootError) as excinfo:
            _belief_rows(rows, etas, [lin01()], [True], 0.0)
        levels = np.linspace(0.0, 1.0, 11)
        assert [level for level, _ in excinfo.value.scan] == levels.tolist()
        expected = (levels - 0.25) * (levels - 0.75)
        np.testing.assert_allclose([v for _, v in excinfo.value.scan], expected,
                                   rtol=0, atol=1e-12)
        # without the oscillating rows the batch is monotone and roots at 0.5
        value = _belief_rows(rows, etas[[0, 1, 3, 5]], [lin01()], [True], 0.0)
        np.testing.assert_allclose(value, 0.5, atol=1e-9)

    def test_endpoint_conventions_at_exact_zeros(self):
        # g = c - tau on [0, 1]: h(0) = c and h(1) = c - 1, so c = 0 is
        # exactly 0 (h(0) <= 0) and c = 1 exactly 1 (h(1) >= 0)
        c = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        rows = lambda xs, taus: xs[:, 0] - taus[:, 0]
        value = _belief_rows(rows, c[:, None], [lin01()], [True], 0.0)
        assert value.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]


class TestSupGrid:
    def test_two_variable_case(self):
        f = lambda _x, tau: 1.0 - tau[0] - tau[1]
        value = belief_sup_grid(f, NO_RANDOMS, [lin01(), lin01()], grid_per_var=201)
        assert value == pytest.approx(0.5, abs=1 / 200)

    def test_mixed_signs_two_variables(self):
        f = lambda _x, tau: tau[0] - tau[1] + 0.3
        value = belief_sup_grid(f, NO_RANDOMS, [lin01(), lin01()], grid_per_var=201)
        # maximize min(1 - t1, t2) along t2 = t1 + 0.3 -> 0.65 at t1 = 0.35
        assert value == pytest.approx(0.65, abs=1 / 100)

    def test_empty_zero_set_positive(self):
        f = lambda _x, tau: 2.0 + tau[0]
        assert belief_sup_grid(f, NO_RANDOMS, [lin01()]) == 1.0

    def test_empty_zero_set_negative(self):
        f = lambda _x, tau: -2.0 - tau[0]
        assert belief_sup_grid(f, NO_RANDOMS, [lin01()]) == 0.0

    def test_agreement_with_root_path(self):
        cases = [
            (lambda _x, tau: 0.82 - tau[0], [lin01()], ("decreasing",)),
            (lambda _x, tau: tau[0] - 0.41, [lin01()], ("increasing",)),
            (
                lambda _x, tau: 1.2 - tau[0] - tau[1],
                [lin01(), LinearUncertain(0.0, 2.0)],
                ("decreasing", "decreasing"),
            ),
        ]
        for f, dists, signs in cases:
            grid = belief_sup_grid(f, NO_RANDOMS, dists, grid_per_var=401)
            assert belief(f, dists, signs) == pytest.approx(grid, abs=1 / 400 + 1e-10)

    def test_dimension_guard(self):
        f = lambda _x, tau: tau.sum()
        with pytest.raises(UnsupportedDimensionError):
            belief_sup_grid(f, NO_RANDOMS, [lin01()] * 4)
        with pytest.raises(InvalidParameterError):
            belief_sup_grid(f, NO_RANDOMS, [lin01()], grid_per_var=50)


class TestChanceDistribution:
    def setup_method(self):
        self.f = lambda x, tau: x[0] + tau[0]
        self.dists = [Normal(0.0, 1.0)]
        self.unc = [LinearUncertain(-1.0, 1.0)]

    def test_joint_symmetry_at_zero(self):
        value = chance_distribution(self.f, self.dists, self.unc, 0.0)
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_upper_limit(self):
        value = chance_distribution(self.f, self.dists, self.unc, 10.0)
        assert value >= 1 - 1e-9

    def test_value_against_closed_form_oracle(self):
        # inner belief has the closed form clamp((x - eta + 1)/2, 0, 1);
        # integrate it against the Gaussian weight independently.  At x = 2
        # the kink at eta = 3 falls in the wide tail panels of the
        # probability-scale rule, which leaves 8.2e-6 at 512 nodes
        for x, tol in ((-1.0, 2e-6), (0.0, 2e-6), (0.7, 2e-6), (1.0, 2e-6),
                       (2.0, 1e-5)):
            oracle, err = quad(
                lambda e: np.clip((x - e + 1) / 2, 0, 1)
                * np.exp(-e * e / 2) / np.sqrt(2 * np.pi),
                -12, 12, limit=400, points=(x - 1, x + 1),  # clamp kinks
            )
            assert err < 1e-8  # quad's own bound; 1.9e-9 at x = 0
            value = chance_distribution(self.f, self.dists, self.unc, x,
                                        quad_nodes=512)
            assert value == pytest.approx(oracle, abs=tol)
            above = chance_exceedance(self.f, self.dists, self.unc, x,
                                      quad_nodes=512)
            assert above == pytest.approx(1.0 - oracle, abs=tol)
            # an unclassified profile routes the inner belief through the
            # grid supremum; 201 grid points and 32 nodes leave about 3e-4
            grid = chance_distribution(
                self.f, self.dists, self.unc, x, quad_nodes=32,
                profile=MonotonicityProfile(("unknown",)),
            )
            assert grid == pytest.approx(oracle, abs=1e-3)

    @pytest.mark.parametrize("block", [5, None])
    def test_sum_runs_in_node_order(self, monkeypatch, block):
        # the integral adds weight * belief node by node in tensor order
        # (last axis fastest), across node blocks too; oracle: that running
        # sum over each node's belief, the chance measure of the limit state
        # with that node's random inputs bound
        import itertools

        import hybrel.chance as chance
        if block is not None:
            monkeypatch.setattr(chance, "_BLOCK", block)
        f = lambda x, tau: 0.5 + 0.1 * x[0] - 0.07 * x[1] - tau[0]
        dists = [Normal(0.0, 1.0), Normal(0.3, 0.8)]
        profile = MonotonicityProfile(("decreasing",))
        s, w = chance.gaussian_nodes(16)
        axes = [d.inv_cdf(s) for d in dists]
        total = 0.0
        for i, j in itertools.product(range(len(s)), repeat=2):
            eta = np.array([axes[0][i], axes[1][j]])
            total += w[i] * w[j] * chance_exceedance(
                lambda _x, tau, eta=eta: f(eta, tau), [], [lin01()], profile=profile)
        assert chance_exceedance(f, dists, [lin01()], quad_nodes=16,
                                 profile=profile) == total

    def test_monotone_in_threshold(self):
        xs = np.linspace(-3, 3, 20)
        vals = [chance_distribution(self.f, self.dists, self.unc, x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_duality_with_exceedance(self):
        for x in (-1.0, 0.0, 0.7, 2.0):
            below = chance_distribution(self.f, self.dists, self.unc, x,
                                        quad_nodes=128)
            above = chance_exceedance(self.f, self.dists, self.unc, x,
                                      quad_nodes=128)
            assert below + above == pytest.approx(1.0, abs=2e-6)

    def test_verify_passes_on_smooth_inner_belief(self):
        f = lambda x, tau: 0.5 + 0.3 * np.tanh(x[0]) - tau[0]
        value = chance_distribution(f, self.dists, [lin01()], 0.0,
                                    quad_nodes=64, verify=True)
        assert 0.0 < value < 1.0

    def test_verify_raises_on_unconverged_quadrature(self):
        with pytest.raises(AccuracyError):
            chance_distribution(self.f, self.dists, self.unc, 1.0,
                                quad_nodes=64, verify=True)

    def test_sign_change_across_the_random_support(self):
        # d/dtau (0.5 + eta*tau) = eta changes sign with eta and vanishes at
        # the median, so only a check across the random support sees that
        # the root formula does not apply.  Oracle: the belief is 1 for
        # |eta| <= 0.5 and (1 + 0.5/|eta|)/2 beyond
        f = lambda x, tau: 0.5 + x[0] * tau[0]
        belief = lambda e: 1.0 if abs(e) <= 0.5 else (1 + 0.5 / abs(e)) / 2
        oracle, err = quad(
            lambda e: belief(e) * np.exp(-e * e / 2) / np.sqrt(2 * np.pi),
            -12, 12, limit=400, points=(-0.5, 0.5),
        )
        assert err < 1e-9
        value = chance_exceedance(f, self.dists, self.unc)
        assert value == pytest.approx(oracle, abs=1e-3)

    def test_partial_vanishing_at_the_median_adds_no_sign(self):
        # d/dtau (1.5 - eta^2 tau) = -eta^2 is zero at the median eta = 0
        # and negative elsewhere, so the variable is decreasing throughout.
        # Oracle: the belief is min(1, 1.5 / eta^2)
        f = lambda x, tau: 1.5 - x[0] ** 2 * tau[0]
        rows = lambda xs, taus: 1.5 - xs[:, 0] ** 2 * taus[:, 0]
        assert _support_profile(rows, self.dists, [lin01()]).signs == ("decreasing",)
        value = chance_exceedance(f, self.dists, [lin01()], quad_nodes=32)
        explicit = chance_exceedance(f, self.dists, [lin01()], quad_nodes=32,
                                     profile=MonotonicityProfile(("decreasing",)))
        assert value == explicit
        kink = np.sqrt(1.5)
        oracle, err = quad(
            lambda e: min(1.0, 1.5 / e**2 if e else 1.0)
            * np.exp(-e * e / 2) / np.sqrt(2 * np.pi),
            -12, 12, limit=400, points=(-kink, kink),
        )
        assert err < 1e-9
        assert value == pytest.approx(oracle, abs=1e-3)

    def test_node_probe_differences_only_unknown_variables(self, monkeypatch):
        # only y0's sign changes across the random support (with x0), so the
        # per-node probe differences y0 alone: 4096 nodes x 6 probes x 3
        # rows, not x 3 variables.  The probe points are the same, so the
        # value equals that of a probe that differences every variable
        import hybrel.chance as chance
        from hybrel import (HybridProblem, RandomVariable, UncertainVariable,
                            reliability_reference)

        rows = []

        def batch(x, y):
            rows.append(len(x))
            return (0.5 + x[:, 0] * y[:, 0] - 0.1 * y[:, 1] - 0.1 * y[:, 2]
                    + 0.1 * x[:, 1])

        problem = HybridProblem(
            lsf=lambda x, y: batch(x[None], y[None])[0], lsf_batch=batch,
            randoms=[RandomVariable(f"x{i}", 0.0, 1.0) for i in range(2)],
            uncertains=[UncertainVariable(f"y{i}", -1.0, 1.0) for i in range(3)])
        value = reliability_reference(problem, quad_nodes=64)
        assert (max(rows), sum(rows)) == (73_728, 220_866)
        signs_at = chance._signs_at
        monkeypatch.setattr(chance, "_signs_at",
                            lambda rows, randoms, unc, probed=None:
                            signs_at(rows, randoms, unc))
        assert reliability_reference(problem, quad_nodes=64) == value

    def test_dimension_guard(self):
        f = lambda x, tau: x.sum() + tau[0]
        with pytest.raises(UnsupportedDimensionError):
            chance_distribution(f, [Normal()] * 4, self.unc, 0.0)

    @pytest.mark.parametrize("signs", [("decreasing",),
                                       ("decreasing", "increasing", "increasing")])
    def test_declared_profile_needs_one_sign_per_uncertain_input(self, signs):
        # one sign per uncertain input, no fewer and no more
        f = lambda x, tau: 1.2 - tau[0] + tau[1] + 0.1 * x[0]
        with pytest.raises(InvalidParameterError, match="uncertain inputs"):
            chance_exceedance(f, self.dists, [lin01(), lin01()],
                              profile=MonotonicityProfile(signs))

    def test_nan_threshold_refused_infinite_ones_kept(self):
        f = lambda x, tau: 1.2 - tau[0] + 0.1 * x[0]
        for measure in (chance_exceedance, chance_distribution):
            with pytest.raises(InvalidParameterError, match="NaN"):
                measure(f, self.dists, [lin01()], np.nan)
        # no response exceeds +inf, and every one exceeds -inf (the node
        # weights sum to 1 up to rounding)
        assert chance_exceedance(f, self.dists, [lin01()], np.inf) == 0.0
        assert chance_exceedance(f, self.dists, [lin01()], -np.inf) == (
            pytest.approx(1.0, abs=1e-14))

    def test_no_uncertains_indicator_path(self):
        f = lambda x, _tau: 1.5 - x[0]
        value = chance_distribution(f, self.dists, [], 0.0, quad_nodes=256)
        # Ch{1.5 - eta <= 0} = Pr{eta >= 1.5}
        assert value == pytest.approx(1 - Normal().cdf(1.5), abs=2e-3)

    def test_two_random_inputs(self):
        f = lambda x, tau: x[0] + x[1] + tau[0]
        value = chance_distribution(f, [Normal(), Normal()], self.unc, 0.0,
                                    quad_nodes=48)
        assert value == pytest.approx(0.5, abs=1e-6)
