import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from hybrel.distributions import (
    LinearUncertain,
    Normal,
    chi_cdf,
    chi_pdf,
    chi_square_cdf,
    chi_square_pdf,
    chi_square_ppf,
    cos_angle_cdf,
    cos_angle_pdf,
    normal_cdf,
    shifted_chi_cdf,
    shifted_chi_pdf,
)
from hybrel.errors import InvalidParameterError
from hybrel.model import RandomVariable, UncertainVariable


class TestNormal:
    def test_symmetry_at_zero(self):
        assert Normal().cdf(0.0) == 0.5

    def test_median_equals_mean(self):
        for mean, std in [(3.0, 0.5), (-7.0, 4.0), (0.0, 10.0)]:
            assert Normal(mean, std).cdf(mean) == pytest.approx(0.5, abs=1e-15)

    def test_value_against_quadrature_oracle(self):
        # independent oracle: integrate the standard normal density directly
        oracle, err = quad(
            lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), -12.0, 1.96
        )
        assert err < 1e-10
        assert Normal().cdf(1.96) == pytest.approx(oracle, abs=1e-10)
        assert Normal().cdf(1.96) == pytest.approx(0.97500, abs=1e-4)

    def test_strictly_increasing(self):
        xs = np.linspace(-5, 5, 101)
        vals = Normal().cdf(xs)
        assert np.all(np.diff(vals) > 0)

    def test_inverse_roundtrip(self):
        dist = Normal(2.0, 3.0)
        for p in (1e-6, 0.2, 0.5, 0.8, 1 - 1e-6):
            assert dist.cdf(dist.inv_cdf(p)) == pytest.approx(p, abs=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            Normal().cdf(float("nan"))
        with pytest.raises(InvalidParameterError):
            Normal().cdf(float("inf"))
        with pytest.raises(InvalidParameterError):
            Normal().pdf(float("nan"))
        for p in (0.0, 1.0, -0.5, 1.5, float("nan")):
            with pytest.raises(InvalidParameterError):
                Normal().inv_cdf(p)


_LAWS = {
    "Normal": lambda mean, stddev: Normal(mean, stddev),
    "RandomVariable": lambda mean, stddev: RandomVariable("x7", mean, stddev),
    "normal_cdf": lambda mean, stddev: normal_cdf(0.0, mean, stddev),
    "LinearUncertain": lambda lower, upper: LinearUncertain(lower, upper),
    "UncertainVariable": lambda lower, upper: UncertainVariable("x7", lower, upper),
}
_NORMAL_PARAMS = [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, 0.0),
                  (0.0, -1.0), (0.0, math.nan), (0.0, math.inf)]
_BOUNDS = [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf),
           (2.0, 2.0), (2.0, 1.0)]


@pytest.mark.parametrize("law,params", [
    (law, params)
    for names, values in ((("Normal", "RandomVariable", "normal_cdf"), _NORMAL_PARAMS),
                          (("LinearUncertain", "UncertainVariable"), _BOUNDS))
    for law in names for params in values
])
def test_law_parameters_refused(law, params):
    # one check per law, in its constructor: a declared variable, the law
    # object and normal_cdf refuse the same parameters, and a variable's
    # refusal names the variable
    with pytest.raises(InvalidParameterError) as refusal:
        _LAWS[law](*params)
    assert ("'x7'" in str(refusal.value)) == law.endswith("Variable")


class TestChiSquare:
    def test_dof2_closed_form(self):
        # dof=2 collapses to exp(-x/2)/2
        assert chi_square_pdf(2.0, 2) == pytest.approx(math.exp(-1.0) / 2, rel=1e-12)

    def test_normalization(self):
        for dof in (1, 2, 5, 10):
            total, err = quad(lambda x: chi_square_pdf(x, dof), 0, 200, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_value_against_gamma_quadrature_oracle(self):
        # independent gamma evaluation: Gamma(5/2) by direct integral
        gamma_52, err = quad(lambda t: t ** 1.5 * math.exp(-t), 0, 60, limit=200)
        assert err < 1e-8
        x = 1.0
        oracle = x ** 1.5 * math.exp(-x / 2) / (2 ** 2.5 * gamma_52)
        assert chi_square_pdf(x, 5) == pytest.approx(oracle, rel=1e-8)
        # cross-check against the CDF difference quotient
        h = 1e-6
        quotient = (chi_square_cdf(x + h, 5) - chi_square_cdf(x - h, 5)) / (2 * h)
        assert chi_square_pdf(x, 5) == pytest.approx(quotient, rel=1e-7)

    def test_zero_below_support(self):
        assert chi_square_pdf(-1.0, 3) == 0.0
        assert chi_square_pdf(0.0, 3) == 0.0

    def test_dof_validation(self):
        with pytest.raises(InvalidParameterError):
            chi_square_pdf(1.0, 0)
        with pytest.raises(InvalidParameterError):
            chi_square_cdf(1.0, -1)
        # the closed-form sums start from exp(-x/2), which underflows
        # beyond the range they cover
        assert chi_square_cdf(1000.0, 1000) == pytest.approx(0.5, abs=0.01)
        for law in (chi_square_cdf, chi_square_ppf, chi_cdf):
            with pytest.raises(InvalidParameterError, match="at most 1000"):
                law(0.5, 1001)

    def test_inverse_roundtrip(self):
        for p in (0.01, 0.5, 0.99):
            assert chi_square_cdf(chi_square_ppf(p, 5), 5) == pytest.approx(p, abs=1e-9)


class TestChi:
    def test_normalization(self):
        for dof in (1, 2, 5, 10):
            total, _ = quad(lambda x: chi_pdf(x, dof), 0, 40, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_gaussian_norm_samples(self):
        # oracle: the norm of a k-dimensional standard Gaussian sample
        rng = np.random.default_rng(11)
        for k in (2, 5, 10):
            norms = np.linalg.norm(rng.standard_normal((100_000, k)), axis=1)
            stat = kstest(norms, lambda x: chi_cdf(x, k)).statistic
            assert stat < 0.01


class TestShiftedChi:
    def test_zero_below_support(self):
        assert shifted_chi_pdf(0.5, 3, 1.0) == 0.0
        assert shifted_chi_pdf(1.0, 3, 1.0) == 0.0

    def test_reduces_to_chi_at_zero_shift(self):
        vs = np.linspace(0.05, 6.0, 40)
        assert shifted_chi_pdf(vs, 4, 0.0) == pytest.approx(chi_pdf(vs, 4), rel=1e-12)

    def test_sampling_oracle_density(self):
        # density of sqrt(Q + 1), Q ~ chi-square(3), from a large sample
        rng = np.random.default_rng(5)
        sample = np.sqrt(rng.chisquare(3, 1_000_000) + 1.0)
        center, width = 1.5, 0.05
        hits = np.mean(np.abs(sample - center) <= width / 2)
        empirical = hits / width
        assert shifted_chi_pdf(center, 3, 1.0) == pytest.approx(empirical, rel=0.02)

    def test_normalization(self):
        for dof, shift in ((2, 0.5), (5, 1.0), (3, 2.0)):
            lo = math.sqrt(shift)
            total, _ = quad(lambda v: shifted_chi_pdf(v, dof, shift), lo, lo + 40,
                            limit=300)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_cdf_matches_sample_fraction(self):
        rng = np.random.default_rng(6)
        sample = np.sqrt(rng.chisquare(5, 200_000) + 2.0)
        for v in (1.8, 2.5, 3.5):
            frac = np.mean(sample <= v)
            assert shifted_chi_cdf(v, 5, 2.0) == pytest.approx(frac, abs=5e-3)

    def test_shift_validation(self):
        with pytest.raises(InvalidParameterError):
            shifted_chi_pdf(1.0, 3, -0.5)
        with pytest.raises(InvalidParameterError):
            shifted_chi_cdf(1.0, 3, -1.0)


class TestChiFamilyEdges:
    """The chi-family laws are views of chi_square_cdf and the chi density."""

    def test_shifted_cdf_is_zero_up_to_the_shift(self):
        # shifts with exact square roots, so v <= sqrt(shift) holds exactly
        for shift in (0.0, 0.25, 1.0, 2.25, 6.25):
            vs = np.linspace(-5.0, math.sqrt(shift), 41)
            for dof in (1, 2, 3, 7):
                assert np.all(shifted_chi_cdf(vs, dof, shift) == 0.0), (dof, shift)

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("law", [shifted_chi_pdf, shifted_chi_cdf])
    def test_non_finite_shift_is_refused(self, law, shift):
        with pytest.raises(InvalidParameterError):
            law(2.0, 3, shift)

    def test_chi_cdf_is_chi_square_cdf_of_the_square(self):
        xs = np.concatenate([[0.0, 1e-170, 1e-8], np.linspace(0.01, 12.0, 60)])
        for dof in (1, 2, 3, 12, 60):
            for x in xs.tolist():
                assert chi_cdf(x, dof) == chi_square_cdf(x * x, dof), (dof, x)

    def test_shifted_cdf_is_chi_square_cdf_above_the_shift(self):
        for shift in (0.0, 0.5, 2.0, 9.0):
            vs = math.sqrt(shift) + np.linspace(0.0, 10.0, 50)
            for dof in (1, 2, 5, 30):
                for v in vs.tolist():
                    assert (shifted_chi_cdf(v, dof, shift)
                            == chi_square_cdf(v * v - shift, dof)), (dof, shift, v)

    def test_chi_pdf_where_the_square_underflows(self):
        # 1e-170 squared is 0 in double; sqrt(2 / pi) is the dof-1 density at 0+
        assert chi_pdf(1e-170, 1) == pytest.approx(0.7978845608028654, abs=1e-15)

    def test_shifted_pdf_at_shift_zero_is_the_chi_density(self):
        # at shift 0 the radius is v itself, also where v * v underflows
        vs = np.concatenate([10.0 ** np.arange(-300.0, 1.0, 3.0), [2.5, 10.0, 60.0]])
        for dof in (1, 2, 3, 5, 12):
            want = chi_pdf(vs, dof)
            got = shifted_chi_pdf(vs, dof, 0.0)
            assert np.all(np.abs(got - want) <= 3e-16 * want), dof
        assert shifted_chi_pdf(1e-170, 1, 0.0) > 0.79

    def test_chi_square_pdf_without_a_subnormal_factor(self):
        # x^(3/2) e^(-x/2) / (2^(5/2) Gamma(5/2)) at x = 1e-170, and the
        # dof-2 density 1/2 at 0+
        assert chi_square_pdf(1e-170, 5) == pytest.approx(1.329807601338109e-256,
                                                          rel=1e-13, abs=0.0)
        assert chi_square_pdf(1e-300, 2) == pytest.approx(0.5, rel=1e-15, abs=0.0)

    def test_cdf_where_the_square_overflows(self):
        # v * v overflows at v = 1e200; the law is 1 there, with no warning
        with np.errstate(over="raise", invalid="raise"):
            assert chi_cdf(1e200, 3) == 1.0
            for shift in (0.0, 2.0, 1e6):
                assert shifted_chi_cdf(1e200, 3, shift) == 1.0
            both = shifted_chi_cdf(np.array([1e200, 1e300]), 12, 5.0)
            assert both.tolist() == [1.0, 1.0]


class TestCosineAngle:
    def test_three_dimensions_is_uniform(self):
        # in 3 dimensions the cosine of a random direction is uniform on (-1,1)
        for v in (-0.9, 0.0, 0.3, 0.77):
            assert cos_angle_pdf(v, 3) == pytest.approx(0.5, rel=1e-10)

    @given(st.floats(-0.999, 0.999), st.integers(2, 12))
    def test_symmetry(self, v, k):
        assert cos_angle_pdf(v, k) == pytest.approx(cos_angle_pdf(-v, k), rel=1e-12)

    def test_boundary_convention(self):
        assert cos_angle_pdf(1.0, 5) == 0.0
        assert cos_angle_pdf(-1.0, 5) == 0.0
        assert cos_angle_pdf(1.7, 5) == 0.0

    def test_normalization(self):
        for k in (2, 3, 4, 10):
            total, _ = quad(lambda v: cos_angle_pdf(v, k), -1, 1, limit=300)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_empirical_density_oracle(self):
        # density at 0 of u.e/|u| for standard Gaussian u in 10 dimensions
        rng = np.random.default_rng(7)
        vecs = rng.standard_normal((1_000_000, 10))
        cosines = vecs[:, 0] / np.linalg.norm(vecs, axis=1)
        width = 0.02
        empirical = np.mean(np.abs(cosines) <= width / 2) / width
        assert cos_angle_pdf(0.0, 10) == pytest.approx(empirical, rel=0.02)

    def test_cdf_against_pdf_quadrature(self):
        for k in (2, 5, 10):
            for v in (-0.5, 0.0, 0.8):
                oracle, _ = quad(lambda t: cos_angle_pdf(t, k), -1, v, limit=300)
                assert cos_angle_cdf(v, k) == pytest.approx(oracle, abs=1e-9)

    def test_sampling_matches_cdf(self):
        rng = np.random.default_rng(8)
        for k in (2, 3, 10):
            vecs = rng.standard_normal((100_000, k))
            sample = vecs[:, 0] / np.linalg.norm(vecs, axis=1)
            stat = kstest(sample, lambda x: cos_angle_cdf(x, k)).statistic
            assert stat < 0.01

    def test_dimension_validation(self):
        with pytest.raises(InvalidParameterError):
            cos_angle_pdf(0.0, 1)
        with pytest.raises(InvalidParameterError):
            cos_angle_cdf(0.0, 1)


class TestLinearUncertain:
    def test_midpoint(self):
        assert LinearUncertain(2.0, 4.0).cdf(3.0) == 0.5

    def test_inverse_interpolation(self):
        assert LinearUncertain(2.0, 4.0).inv(0.25) == 2.5

    def test_clamping(self):
        assert LinearUncertain(2.0, 4.0).cdf(5.0) == 1.0
        assert LinearUncertain(2.0, 4.0).cdf(1.0) == 0.0

    def test_endpoint_convention(self):
        dist = LinearUncertain(-3.0, 7.0)
        assert dist.inv(0.0) == -3.0
        assert dist.inv(1.0) == 7.0

    @given(
        st.floats(0, 1),
        st.floats(-50, 50),
        st.floats(1e-3, 100),
    )
    def test_inverse_roundtrip(self, alpha, a, width):
        dist = LinearUncertain(a, a + width)
        # representation error of a + alpha*width grows with |a|/width
        slack = 1e-12 + 8 * np.finfo(float).eps * max(1.0, abs(a)) / width
        assert abs(dist.cdf(dist.inv(alpha)) - alpha) <= slack

    def test_inverse_roundtrip_unit_scale(self):
        dist = LinearUncertain(-1.0, 1.0)
        for alpha in np.linspace(0.0, 1.0, 23):
            assert dist.cdf(dist.inv(alpha)) == pytest.approx(alpha, abs=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(InvalidParameterError):
            LinearUncertain(0.0, 1.0).inv(1.5)
        with pytest.raises(InvalidParameterError):
            LinearUncertain(0.0, 1.0).cdf(float("nan"))


@pytest.fixture(scope="module")
def mp():
    """mpmath at 40 significant digits, an oracle independent of the
    closed forms under test."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def _cos_angle_points(rng):
    near = np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-3])
    return np.concatenate([-1.0 + near, 1.0 - near, -near, near,
                           [-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 6)])


def _assert_density(got, exact, label):
    """got within 1e-12 relative of exact wherever exact exceeds 1e-290,
    and zero where exact is zero."""
    for value, want in zip(got.tolist(), exact):
        if want == 0:
            assert value == 0.0, label
        elif want > 1e-290:
            assert abs(value - want) <= 1e-12 * want, (label, value, want)


class TestAgainstMpmath:
    def test_cos_angle_cdf(self, mp):
        rng = np.random.default_rng(14)
        for total_dim in range(2, 61):
            a = mp.mpf(total_dim - 1) / 2
            points = _cos_angle_points(rng)
            got = cos_angle_cdf(points, total_dim)
            for v, value in zip(points.tolist(), got.tolist()):
                exact = mp.betainc(a, a, 0, (1 + mp.mpf(v)) / 2, regularized=True)
                assert abs(value - exact) <= 5e-16, (total_dim, v)

    def test_chi_square_family_in_both_tails(self, mp):
        # lower tail, bulk and upper tail of each law, the last point
        # reaching Q ~ 1e-16
        for dof in range(1, 61):
            a = mp.mpf(dof) / 2
            q = np.concatenate([[0.0, 1e-12, 1e-6 * dof],
                                np.linspace(0.05, 1.0, 5) * (dof + 2),
                                [dof + 2.0], np.linspace(1.5, 4.0, 4) * (dof + 20)])
            radius = np.sqrt(q)
            shift = 0.75 * dof
            shifted = np.sqrt(q + shift)
            # each law at the chi-square argument it forms in double precision
            checks = [
                (chi_square_cdf(q, dof), q / 2),
                (chi_cdf(radius, dof), radius * radius / 2),
                (shifted_chi_cdf(shifted, dof, shift),
                 np.maximum(shifted * shifted - shift, 0.0) / 2),
            ]
            for got, args in checks:
                for value, y in zip(got.tolist(), args.tolist()):
                    exact = mp.gammainc(a, 0, y, regularized=True)
                    assert abs(value - exact) <= 4e-15, (dof, y)

    def test_chi_densities(self, mp):
        # each density at the chi-square argument it forms in double precision
        for dof in range(1, 61):
            a = mp.mpf(dof) / 2

            def chi_square(x):
                return x ** (a - 1) * mp.exp(-x / 2) / (2 ** a * mp.gamma(a))

            q = np.concatenate([[1e-300, 1e-170, 1e-100, 1e-30, 1e-12, 1e-6 * dof],
                                np.linspace(0.05, 1.0, 5) * (dof + 2),
                                [dof + 2.0], np.linspace(1.5, 4.0, 4) * (dof + 20)])
            radius = np.sqrt(q)
            shift = 0.75 * dof
            shifted = np.sqrt(q + shift)
            formed = shifted * shifted - shift
            checks = [
                (chi_square_pdf(q, dof), [chi_square(mp.mpf(x)) for x in q.tolist()]),
                (chi_pdf(radius, dof), [2 * mp.mpf(r) * chi_square(mp.mpf(r) ** 2)
                                        for r in radius.tolist()]),
                # the Jacobian of v -> v^2 - shift is 2 v
                (shifted_chi_pdf(shifted, dof, shift),
                 [2 * mp.mpf(v) * chi_square(mp.mpf(y)) if y > 0 else 0
                  for v, y in zip(shifted.tolist(), formed.tolist())]),
            ]
            for got, exact in checks:
                _assert_density(got, exact, dof)

    def test_cos_angle_pdf(self, mp):
        rng = np.random.default_rng(15)
        for total_dim in range(2, 61):
            norm = mp.gamma(mp.mpf(total_dim) / 2) / (
                mp.sqrt(mp.pi) * mp.gamma(mp.mpf(total_dim - 1) / 2))
            points = _cos_angle_points(rng)
            points = points[np.abs(points) < 1.0]
            exact = [norm * ((1 - v) * (1 + v)) ** (mp.mpf(total_dim - 3) / 2)
                     for v in map(mp.mpf, points.tolist())]
            _assert_density(cos_angle_pdf(points, total_dim), exact, total_dim)

    def test_chi_square_cdf_lower_tail_relative_accuracy(self, mp):
        # below the mean the series keeps the small tail's digits
        for dof in (1, 2, 7, 30, 60):
            a = mp.mpf(dof) / 2
            for x in (1e-30, 1e-8, 1e-3, 0.2 * dof):
                exact = mp.gammainc(a, 0, mp.mpf(x) / 2, regularized=True)
                if exact > 1e-290:
                    assert abs(chi_square_cdf(x, dof) - exact) <= 1e-13 * exact

    def test_chi_square_cdf_where_the_series_runs_longest(self, mp):
        # the lower-tail series runs up to y = x/2 just below dof/2 + 1,
        # where its terms shrink slowest, and from the smallest y
        for dof in (1, 2, 3, 12, 101, 1000):
            a = mp.mpf(dof) / 2
            edge = dof + 2.0
            points = [1e-300, 1e-30, 1e-8, 1e-3, 0.5 * dof, 0.9 * edge,
                      edge - 1e-3, math.nextafter(edge, 0.0)]
            for x, value in zip(points, chi_square_cdf(np.array(points), dof)):
                exact = mp.gammainc(a, 0, mp.mpf(x) / 2, regularized=True)
                if exact > 1e-290:
                    assert abs(value - exact) <= 1e-13 * exact, (dof, x)
                else:
                    assert value <= 1e-290, (dof, x)

    def test_chi_square_ppf(self, mp):
        for dof in range(1, 61):
            a = mp.mpf(dof) / 2
            p = 1.0 - 1e-10
            x = chi_square_ppf(p, dof)
            # the exact root by Newton steps in mpmath from the value under test
            y = mp.mpf(x) / 2
            for _ in range(3):
                density = y ** (a - 1) * mp.exp(-y) / mp.gamma(a)
                y -= (mp.gammainc(a, 0, y, regularized=True) - p) / density
            assert abs(mp.gammainc(a, 0, y, regularized=True) - p) < 1e-35
            assert abs(x - 2 * y) <= 1e-15 * 2 * y, dof

    def test_chi_square_cdf_array_equals_its_scalar_calls(self):
        # each entry's series stops on its own terms, so an array call and
        # the elementwise scalar calls agree bit for bit
        for dof in range(1, 26):
            x = np.linspace(0.0, 2.0 * (dof + 2), 201)
            values = chi_square_cdf(x, dof).tolist()
            assert values == [chi_square_cdf(v, dof) for v in x.tolist()], dof

    def test_chi_square_ppf_round_trip(self):
        for dof in (1, 2, 3, 10, 41, 60):
            for p in (1e-300, 1e-10, 0.01, 0.3, 0.5, 0.9, 1 - 1e-10, 1 - 2.0 ** -53):
                x = chi_square_ppf(p, dof)
                assert chi_square_cdf(x, dof) == pytest.approx(p, rel=1e-13, abs=4e-16)
            # the upper tail is ill-conditioned this way round: p keeps only
            # the leading digits of 1 - p
            for x in (1e-3, 0.5 * dof, float(dof)):
                back = chi_square_ppf(chi_square_cdf(x, dof), dof)
                assert back == pytest.approx(x, rel=1e-12)
        assert chi_square_ppf(0.0, 4) == 0.0
        assert chi_square_ppf([0.5, 0.99], 3).shape == (2,)
