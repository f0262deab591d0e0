import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import chi, chi2

from hybrel import integrator
from hybrel.distributions import LinearUncertain, normal_cdf
from hybrel.errors import AccuracyError, InvalidParameterError
from hybrel.integrator import (
    ReliabilityInterval,
    ShiftSchedule,
    reliability_at_shift,
    reliability_interval,
)
from hybrel.polar import ReducedLSF


def _reduced(offset, m, n, grad_norm=1.0):
    direction = np.zeros(max(m + n, 1))
    direction[0] = 1.0
    return ReducedLSF(offset=offset, grad_norm=grad_norm, m=m, n=n,
                      direction=direction)


class TestShiftSchedule:
    def test_default_uniform(self):
        schedule = ShiftSchedule.uniform(5)
        assert len(schedule.shifts) == 21
        assert schedule.shifts[0] == 0.0
        assert schedule.shifts[-1] == 5.0
        assert all(b >= a for a, b in zip(schedule.shifts, schedule.shifts[1:]))

    def test_collapses_without_uncertains(self):
        schedule = ShiftSchedule.uniform(0)
        assert schedule.shifts == (0.0,)

    def test_custom_distribution(self):
        # the linear law on [0, 4] maps five uniform levels onto the integers
        schedule = ShiftSchedule.uniform(4, levels=5)
        assert schedule.shifts == (0.0, 1.0, 2.0, 3.0, 4.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ShiftSchedule(())
        with pytest.raises(InvalidParameterError):
            ShiftSchedule((0.0, 2.0, 1.0))
        with pytest.raises(InvalidParameterError):
            ShiftSchedule.uniform(-1)
        # NaN passes any order check; the error names the value, not a range
        for bad, name in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
            with pytest.raises(InvalidParameterError,
                               match=f"shift values must be finite, got {name}$"):
                ShiftSchedule((0.0, bad, 1.0))
        # a numpy array is stored as Python floats, so curves and pickled
        # reports carry the same bytes as from a tuple of floats
        from_array = ShiftSchedule(np.array([0.0, 0.5, 1.0]))
        assert all(type(v) is float for v in from_array.shifts)
        assert (pickle.dumps(from_array)
                == pickle.dumps(ShiftSchedule((0.0, 0.5, 1.0))))

    @pytest.mark.parametrize("n_uncertain,levels", [(2.5, 21), (3, 21.0),
                                                    (2.0, 21), (0.0, 21),
                                                    (True, 21), (0, True)])
    def test_uniform_refuses_non_integer_counts(self, n_uncertain, levels):
        ShiftSchedule.uniform(int(n_uncertain), int(levels))
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            ShiftSchedule.uniform(n_uncertain, levels)

    def test_uniform_takes_numpy_integer_counts(self):
        schedule = ShiftSchedule.uniform(np.int64(3), np.int32(201))
        assert schedule == ShiftSchedule.uniform(3, levels=201)

    @pytest.mark.parametrize("n_uncertain", [1, 3, 7, 40])
    @pytest.mark.parametrize("levels", [2, 21, 201])
    def test_uniform_is_the_linear_family_inverse(self, n_uncertain, levels):
        family = LinearUncertain(0.0, float(n_uncertain))
        alphas = np.linspace(0.0, 1.0, levels)
        assert (ShiftSchedule.uniform(n_uncertain, levels).shifts
                == tuple(family.inv(alphas).tolist()))


class TestReliabilityAtShift:
    def test_gaussian_tail_exactness(self):
        # rotational symmetry of the standard Gaussian makes the linear
        # pure-random case exact: the failure mass is Phi(-offset), to the
        # rounding of 1 - R near one and in relative terms far out the tail
        for m in (1, 2, 3, 5, 8, 10, 12):
            for offset in np.arange(1, 17) * 0.5:
                failure = 1.0 - reliability_at_shift(_reduced(offset, m, 0), 0.0)
                exact = float(ndtr(-offset))
                assert abs(failure - exact) <= 2.3e-16 + 1e-13 * exact, (
                    m, offset, failure, exact)

    def test_zero_offset_is_half(self):
        # exact up to the 1e-10 radius truncation
        for m, shift in ((2, 0.0), (2, 1.0), (5, 0.5), (9, 3.0)):
            value = reliability_at_shift(_reduced(0.0, m, 3), shift)
            assert value == pytest.approx(0.5, abs=1e-10)

    def test_large_offset_saturates(self):
        value = reliability_at_shift(_reduced(50.0, 2, 0), 0.0)
        assert value >= 1.0 - 1e-9

    def test_negative_offset_complements(self):
        # both sides drop the same truncated radius tail, so the pair sums
        # to one within twice the truncation mass
        up = reliability_at_shift(_reduced(2.0, 4, 2), 1.0)
        down = reliability_at_shift(_reduced(-2.0, 4, 2), 1.0)
        assert up + down == pytest.approx(1.0, abs=5e-10)

    def test_one_dimensional_special_case(self):
        value = reliability_at_shift(_reduced(1.7, 1, 0), 0.0)
        assert value == pytest.approx(normal_cdf(1.7), abs=1e-12)

    def test_monotone_decreasing_for_positive_offset(self):
        reduced = _reduced(2.5, 4, 3)
        shifts = np.linspace(0.0, 3.0, 13)
        values = [reliability_at_shift(reduced, s) for s in shifts]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_increasing_for_negative_offset(self):
        reduced = _reduced(-2.5, 4, 3)
        shifts = np.linspace(0.0, 3.0, 13)
        values = [reliability_at_shift(reduced, s) for s in shifts]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_node_doubling_stability(self):
        for offset, m, n, shift in [
            (math.sqrt(10), 9, 1, 0.5),
            (2.0, 5, 5, 2.0),
            (1.0, 2, 3, 1.5),
            (3.0, 2, 0, 0.0),
            (-1.0, 3, 2, 1.0),
        ]:
            reduced = _reduced(offset, m, n)
            a = reliability_at_shift(reduced, shift, quad_nodes=64)
            b = reliability_at_shift(reduced, shift, quad_nodes=128)
            assert abs(a - b) < 1e-6

    def test_verify_contract(self):
        value = reliability_at_shift(_reduced(2.0, 5, 5), 1.0, verify=True)
        assert 0.9 < value < 1.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            reliability_at_shift(_reduced(1.0, 2, 0), -0.5)
        with pytest.raises(InvalidParameterError):
            reliability_at_shift(_reduced(1.0, 2, 0), 0.0, quad_nodes=16)
        with pytest.raises(InvalidParameterError):
            reliability_at_shift(_reduced(1.0, 0, 2), 0.0)
        # the squared uncertain radius lies in [0, n]
        with pytest.raises(InvalidParameterError):
            reliability_at_shift(_reduced(1.0, 2, 3), 3.5)
        with pytest.raises(InvalidParameterError):
            reliability_at_shift(_reduced(1.0, 2, 0), 0.5)


class TestReliabilityInterval:
    def test_point_interval_without_uncertains(self):
        reduced = _reduced(2.0, 3, 0)
        interval = reliability_interval(reduced)
        assert interval.r_lo == interval.r_hi
        assert interval.r_lo == pytest.approx(
            reliability_at_shift(reduced, 0.0), abs=1e-15
        )

    def test_envelope_attained_by_curve(self):
        reduced = _reduced(2.0, 5, 4)
        interval = reliability_interval(reduced)
        values = [r for _s, r in interval.curve]
        assert interval.r_lo == min(values)
        assert interval.r_hi == max(values)
        assert len(interval.curve) == 21

    def test_failure_complement_exact(self):
        reduced = _reduced(1.5, 4, 2)
        interval = reliability_interval(reduced)
        assert interval.f_lo + interval.r_hi == 1.0
        assert interval.f_hi + interval.r_lo == 1.0

    def test_monotone_curve_endpoints(self):
        # positive offset: R decreasing in the shift, so the envelope ends
        # sit at the schedule endpoints
        reduced = _reduced(2.5, 6, 3)
        interval = reliability_interval(reduced)
        assert interval.r_hi == interval.curve[0][1]
        assert interval.r_lo == interval.curve[-1][1]

    def test_thread_cap_matches_sequential(self):
        # caps 2, 3 and 7 split the 201 shifts into uneven blocks; every
        # block partition and the one-shift call must agree bit for bit
        reduced = _reduced(2.0, 5, 4)
        schedule = ShiftSchedule.uniform(4, levels=201)
        seq = reliability_interval(reduced, schedule, thread_cap=1)
        for cap in (2, 3, 7):
            par = reliability_interval(reduced, schedule, thread_cap=cap)
            assert par.curve == seq.curve
        for shift, value in seq.curve:
            assert value == reliability_at_shift(reduced, shift)

    def test_verify_raises_when_node_doubling_moves(self):
        # 32 nodes cannot resolve the chi(400) radius peak
        with pytest.raises(AccuracyError):
            reliability_interval(_reduced(1.0, 400, 1), quad_nodes=32,
                                 verify=True)
        reliability_interval(_reduced(1.0, 400, 1), quad_nodes=32)

    def test_block_cap_matches_one_broadcast(self, monkeypatch):
        reduced = _reduced(-1.0, 3, 5)
        schedule = ShiftSchedule.uniform(5, levels=50)
        whole = reliability_interval(reduced, schedule)
        monkeypatch.setattr(integrator, "_BLOCK", 7)
        assert reliability_interval(reduced, schedule).curve == whole.curve

    @pytest.mark.parametrize("m, n", [(1, 4), (3, 7), (6, 6), (12, 10)])
    def test_failure_matches_nested_quadrature(self, m, n):
        # independent oracle: the failure mass as a radius integral of the
        # chi density times the failure share of the angle, each by adaptive
        # quadrature and with the angle share normalized by its own quadrature
        # (not the incomplete beta the integrator uses); same radius cut-off
        total_dim = m + n
        r_max = math.sqrt(chi2.ppf(1.0 - 1e-10, m))

        def sin_power(theta):
            return math.sin(theta) ** (total_dim - 2)

        full, _ = quad(sin_power, 0.0, math.pi, epsabs=0.0, epsrel=1e-12)

        def failure_share(r, beta, shift):
            theta_min = math.acos(-beta / math.sqrt(r * r + shift))
            share, _ = quad(sin_power, theta_min, math.pi, epsabs=0.0,
                            epsrel=1e-12)
            return share / full

        shifts = (0.0, n / 2, float(n))
        schedule = ShiftSchedule(shifts)
        for beta in (1.0, 2.0, 3.0):
            interval = reliability_interval(_reduced(beta, m, n), schedule)
            for shift, value in interval.curve:
                kink = math.sqrt(max(beta * beta - shift, 0.0))
                oracle, _ = quad(
                    lambda r: chi.pdf(r, m) * failure_share(r, beta, shift),
                    kink, r_max, epsabs=0.0, epsrel=1e-10, limit=200,
                )
                assert 1.0 - value == pytest.approx(oracle, rel=2e-5), (
                    m, n, beta, shift)

    def test_interval_validation(self):
        with pytest.raises(InvalidParameterError):
            ReliabilityInterval(r_lo=0.8, r_hi=0.4, curve=())
