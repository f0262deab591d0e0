import logging
import struct

import numpy as np
import pytest

from hybrel.benchmarks import (
    CASE_KEYS,
    BenchmarkCase,
    _POINT_OPS,
    _RADIANS,
    _tube_max_stress,
    case_cantilever_tube,
    case_crank_slider,
    case_linear,
    get_case,
    run_case,
)
from hybrel.config import RunSettings
from hybrel.errors import (
    DivergedDesignPointError,
    HybrelError,
    InvalidGeometryError,
    InvalidParameterError,
    NonFiniteResponseError,
)
from hybrel.mcs import estimate_failure
from hybrel.model import HybridProblem, RandomVariable, UncertainVariable, standardize


class TestRegistry:
    def test_keys(self):
        assert set(CASE_KEYS) == {"linear", "crank_slider", "cantilever_tube"}

    def test_get_case_dispatch(self):
        assert get_case("linear", m=3, n=2).m == 3
        assert get_case("crank_slider", t=10.0).problem.name == "crank_slider(t=10)"
        assert get_case("cantilever_tube").n == 6

    def test_unknown_case(self):
        with pytest.raises(InvalidParameterError):
            get_case("bridge")

    def test_cantilever_rejects_params(self):
        with pytest.raises(InvalidParameterError):
            get_case("cantilever_tube", t=1.0)

    @pytest.mark.parametrize("key, params", [
        ("linear", {"t": 1.0}),
        ("linear", {"m": 3, "n": 2, "t": 1.0}),
        ("crank_slider", {"m": 3}),
        ("crank_slider", {"n": 4, "t": 1.0}),
    ])
    def test_undeclared_params_rejected(self, key, params):
        with pytest.raises(InvalidParameterError, match="does not take"):
            get_case(key, **params)

    def test_linear_validation(self):
        with pytest.raises(InvalidParameterError):
            case_linear(0, 5)
        with pytest.raises(InvalidParameterError):
            case_linear(1, 0)

    def test_crank_time_range(self):
        with pytest.raises(InvalidParameterError):
            case_crank_slider(50.0)


class TestLinearCase:
    def test_batch_matches_scalar(self):
        case = case_linear(3, 2)
        x = np.array([0.1, -0.2, 0.5])
        y = np.array([0.3, -0.4])
        scalar = case.problem.lsf(x, y)
        batch = case.problem.lsf_batch(x[None, :], y[None, :])
        assert scalar == pytest.approx(batch[0], abs=1e-15)

    def test_reference_attached_for_table_rows(self):
        case = case_linear(5, 5)
        assert case.reference["failure_interval"] == (1.441e-4, 3.174e-4)


class TestCrankSlider:
    def test_geometry_error(self):
        case = case_crank_slider(0.0)
        x = np.array([10.0, 20.0, 1.98])
        bad = np.array([100.0, 150.0, 250.0, 125.0])  # b - a = 50 < e
        with pytest.raises(InvalidGeometryError):
            case.problem.lsf(x, bad)

    def test_geometry_error_in_a_batch(self):
        case = case_crank_slider(0.0)
        x = np.tile([10.0, 20.0, 1.98], (3, 1))
        y = np.array([[100.0, 300.0, 250.0, 125.0],
                      [100.0, 150.0, 250.0, 125.0],  # b - a = 50 < e
                      [100.0, 300.0, 250.0, 125.0]])
        assert np.all(case.problem.lsf_batch(x[[0, 2]], y[[0, 2]]) > 0.0)
        with pytest.raises(InvalidGeometryError):
            case.problem.lsf_batch(x, y)

    def test_nominal_is_safe(self):
        case = case_crank_slider(0.0)
        x = np.array([10.0, 20.0, 1.98])
        y = np.array([100.0, 300.0, 250.0, 125.0])
        assert case.problem.lsf(x, y) > 0.0

    def test_mcs_reproduces_calibration_target(self):
        # the stress scale was fixed against the reported t=0 level 0.06873
        case = case_crank_slider(0.0)
        est = estimate_failure(case.problem, samples=200_000, seed=0)
        assert est.p_hat == pytest.approx(0.06873, abs=0.004)

    def test_failure_grows_with_time(self):
        p0 = estimate_failure(case_crank_slider(0.0).problem,
                              samples=100_000, seed=1).p_hat
        p40 = estimate_failure(case_crank_slider(40.0).problem,
                               samples=100_000, seed=1).p_hat
        assert p40 > p0


class TestCantileverTube:
    def test_nominal_is_safe(self):
        case = case_cantilever_tube()
        x = np.array([5.0, 42.0, 120.0, 60.0, 185.0, 0.0])
        y = np.array([5.0, 10.0, 13.0, 13.0, 22.0, 90.0])
        assert case.problem.lsf(x, y) > 0.0

    def test_batch_matches_scalar(self):
        case = case_cantilever_tube()
        rng = np.random.default_rng(1)
        x = np.array([5.0, 42.0, 120.0, 60.0, 185.0, 0.0]) + rng.normal(0, 0.01, 6)
        y = np.array([5.0, 10.0, 13.0, 13.0, 22.0, 90.0])
        scalar = case.problem.lsf(x, y)
        batch = case.problem.lsf_batch(np.tile(x, (3, 1)), np.tile(y, (3, 1)))
        assert np.allclose(batch, scalar)

    def test_stress_against_mpmath(self):
        # the stress on Python floats, fourth powers by squaring included,
        # against the same expression at 30 digits
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(19)
        means = np.array([5.0, 42.0, 120.0, 60.0])
        stddevs = np.array([0.1, 0.5, 1.2, 0.6])
        lower = np.array([0.0, 5.0, 12.7, 12.7, 21.0, 85.0])
        upper = np.array([10.0, 15.0, 13.3, 13.3, 23.0, 95.0])
        # degrees to radians, kN to N, N m to N mm, as the limit state does
        units = np.array([_RADIANS, _RADIANS, 1e3, 1e3, 1e3, 1e3])
        with mp.workdps(30):
            for _ in range(200):
                geometry = means + stddevs * rng.uniform(-3.0, 3.0, 4)
                loads = rng.uniform(lower, upper) * units
                args = np.concatenate([geometry, loads]).tolist()
                got = _tube_max_stress(*args, _POINT_OPS)
                exact = _mp_tube_stress(mp, *(mp.mpf(a) for a in args))
                assert abs(got - exact) <= 1e-13 * exact, args


def _mp_tube_stress(mp, wall, d, length1, length2, th1, th2, f1, f2, p, torque):
    inner = d - 2 * wall
    area = mp.pi / 4 * (d ** 2 - inner ** 2)
    second = mp.pi / 64 * (d ** 4 - inner ** 4)
    moment = f1 * length1 * mp.cos(th1) + f2 * length2 * mp.cos(th2)
    sigma_x = (p + f1 * mp.sin(th1) + f2 * mp.sin(th2)) / area \
        + moment * (d / 2) / second
    tau = torque * d / (4 * second)
    return mp.sqrt(sigma_x ** 2 + 3 * tau ** 2)


def _physical_points(problem, count):
    """count seeded physical points (x, y): randoms within 4 standard
    deviations of their means, uncertains inside their intervals."""
    rng = np.random.default_rng(2024)
    means = np.array([rv.mean for rv in problem.randoms])
    stddevs = np.array([rv.stddev for rv in problem.randoms])
    lower = np.array([uv.lower for uv in problem.uncertains])
    upper = np.array([uv.upper for uv in problem.uncertains])
    x = means + stddevs * rng.uniform(-4.0, 4.0, (count, problem.m))
    y = lower + (upper - lower) * rng.uniform(0.0, 1.0, (count, problem.n))
    return x, y


@pytest.mark.parametrize("key, params", [
    ("linear", {"m": 5, "n": 5}),
    ("linear", {"m": 1, "n": 9}),
    ("crank_slider", {"t": 0.0}),
    ("crank_slider", {"t": 40.0}),
    ("cantilever_tube", {}),
])
def test_scalar_and_batch_contracts_agree_bit_for_bit(key, params):
    # one formula serves both contracts, so a point gives the same bits
    # whether it comes alone or as a row of a batch
    problem = get_case(key, **params).problem
    x, y = _physical_points(problem, 20_000)
    batch = problem.lsf_batch(x, y)
    scalar = np.array([problem.lsf(xi, yi) for xi, yi in zip(x, y)])
    assert scalar.tobytes() == batch.tobytes()
    one = problem.lsf_batch(x[:1], y[:1])
    assert one.shape == (1,)
    assert one.tobytes() == batch[:1].tobytes()


class _Subclass(np.ndarray):
    pass


# inputs other than float64 ndarrays, each of 1-D or 2-D float64 values
_CONVERSIONS = (
    ("list", lambda a: a.tolist()),
    ("int", lambda a: a.astype(np.int64)),
    ("float32", lambda a: a.astype(np.float32)),
    ("byte-swapped", lambda a: a.astype(">f8")),
    ("strided", lambda a: np.repeat(a, 2, axis=-1)[..., ::2]),
    ("subclass", lambda a: a.view(_Subclass)),
)


@pytest.mark.parametrize("key", CASE_KEYS)
def test_points_and_batches_of_any_float_array_like(key):
    # each input gives the bits of the float64 array of its values, as a
    # point and as a batch; a 2-D float64 batch takes the batch path
    problem = get_case(key).problem
    x, y = _physical_points(problem, 3)
    for name, convert in _CONVERSIONS:
        cx, cy = convert(x), convert(y)
        batch = problem.lsf(np.asarray(cx, dtype=float), np.asarray(cy, dtype=float))
        assert batch.shape == (3,), name
        assert problem.lsf(cx, cy).tobytes() == batch.tobytes(), name
        points = [_bits(problem.lsf(convert(xi), convert(yi))) for xi, yi in zip(x, y)]
        assert points == [_bits(value) for value in batch], name


_TUBE_X = [5.0, 42.0, 120.0, 60.0, 185.0, 0.0]
_TUBE_Y = [5.0, 10.0, 13.0, 13.0, 22.0, 90.0]
_CRANK_X = [10.0, 20.0, 1.98]
_CRANK_Y = [100.0, 300.0, 250.0, 125.0]


def _bits(value):
    return struct.pack(">d", value).hex()


class TestEdgePoints:
    """Points where Python-float arithmetic raises or meets a NaN.  A point
    gives the bits of its one-row batch, and both give the value or the
    error recorded when a point ran on numpy scalars."""

    @pytest.mark.parametrize("key, x, y, bits", [
        # zero wall: zero area and zero second moment
        ("cantilever_tube", [0.0, *_TUBE_X[1:]], _TUBE_Y, "fff0000000000000"),
        ("cantilever_tube", _TUBE_X, [np.inf, *_TUBE_Y[1:]], "fff8000000000000"),
        ("cantilever_tube", _TUBE_X, [-np.inf, *_TUBE_Y[1:]], "fff8000000000000"),
        ("cantilever_tube", [*_TUBE_X[:4], np.nan, 0.0], _TUBE_Y, "7ff8000000000000"),
        ("crank_slider", [*_CRANK_X[:2], np.nan], _CRANK_Y, "7ff8000000000000"),
    ])
    def test_point_gives_the_batch_bits(self, key, x, y, bits):
        problem = get_case(key).problem
        x, y = np.array(x), np.array(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            point = problem.lsf(x, y)
            row = problem.lsf_batch(x[None, :], y[None, :])
        assert row.shape == (1,)
        assert (_bits(point), _bits(row[0])) == (bits, bits)

    @pytest.mark.parametrize("x, y, value", [
        ([0.0, *_TUBE_X[1:]], _TUBE_Y, "-inf"),
        (_TUBE_X, [np.inf, *_TUBE_Y[1:]], "nan"),
    ])
    def test_standardized_point_names_the_response(self, x, y, value):
        std = standardize(case_cantilever_tube().problem)
        omega = (np.concatenate([x, y]) - std.shift) / std.scale
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteResponseError) as info:
            std.lsf_omega(omega)
        x, y = std.physical(omega)
        physical = f"x={x.tolist()}, y={y.tolist()}"
        assert str(info.value) == f"limit state returned {value} at {physical}"

    @pytest.mark.parametrize("x, y, message", [
        (_CRANK_X, [100.0, 150.0, 250.0, 125.0],  # b - a = 50 < e
         "coupler shorter than the offset: (b-a)^2 <= e^2"),
        ([20.0, 10.0, 1.98], _CRANK_Y,  # inner diameter above the outer
         "non-physical crank-slider configuration"),
    ])
    def test_crank_geometry_violation(self, x, y, message):
        problem = case_crank_slider(0.0).problem
        x, y = np.array(x), np.array(y)
        for call in (lambda: problem.lsf(x, y),
                     lambda: problem.lsf_batch(x[None, :], y[None, :])):
            with pytest.raises(InvalidGeometryError) as info:
                call()
            assert str(info.value) == message


def _quadratic_family(count):
    """The first `count` cases of a seeded family of mildly nonlinear limit
    states g = l - a.x - c.x^2 - b.y - y'Qy over standard normal x and
    [-1, 1] boxes y, drawn per case in the order m, n ~ U{1, 2, 3},
    a ~ U(0.5, 1.5), c ~ N(0, 0.15), b ~ U(-1.5, 1.5), Q symmetric from
    N(0, 0.6) and l ~ U(1.5, 4), from default_rng(7)."""
    rng = np.random.default_rng(7)
    for index in range(count):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a, c = rng.uniform(0.5, 1.5, m), rng.normal(0.0, 0.15, m)
        b, q = rng.uniform(-1.5, 1.5, n), rng.normal(0.0, 0.6, (n, n))
        q = (q + q.T) / 2
        level = rng.uniform(1.5, 4.0)

        def lsf_batch(x, y, a=a, c=c, b=b, q=q, level=level):
            return (level - x @ a - (x * x) @ c - y @ b
                    - np.einsum("...i,ij,...j->...", y, q, y))

        problem = HybridProblem(
            lsf=lambda x, y, f=lsf_batch: float(f(np.asarray(x), np.asarray(y))),
            lsf_batch=lsf_batch,
            randoms=tuple(RandomVariable(f"x{i}", 0.0, 1.0) for i in range(m)),
            uncertains=tuple(UncertainVariable(f"y{j}", -1.0, 1.0)
                             for j in range(n)),
        )
        yield BenchmarkCase(key=f"quadratic{index}", problem=problem,
                            description="")


class TestRunCase:
    def test_reports_are_consistent(self):
        report = run_case(case_linear(2, 1))
        assert report.case == "linear"
        assert (report.m, report.n) == (2, 1)
        assert 0.0 <= report.F_lo <= report.F_hi <= 1.0
        assert report.F_lo + report.R_hi == 1.0
        assert report.F_hi + report.R_lo == 1.0
        assert len(report.curve) == 21
        assert report.converged
        assert report.runtime_ms is None

    def test_alpha_levels_setting(self):
        report = run_case(case_linear(2, 1), RunSettings(alpha_levels=7))
        assert len(report.curve) == 7

    def test_timing_opt_in(self):
        report = run_case(case_linear(2, 1), include_timing=True)
        assert report.runtime_ms is not None and report.runtime_ms > 0

    def test_linear_anchor_values(self):
        report = run_case(case_linear(9, 1))
        assert report.beta == pytest.approx(np.sqrt(10), abs=1e-6)
        assert report.d == pytest.approx(np.sqrt(10), abs=1e-6)

    def test_linear_two_random_closed_form(self):
        # F = Pr{u1 + u2 >= 2} = normal_cdf(-sqrt(2))
        from hybrel.distributions import normal_cdf
        report = run_case(case_linear(2, 0))
        assert report.F_lo == report.F_hi
        assert report.F_lo == pytest.approx(normal_cdf(-np.sqrt(2)), abs=1e-6)

    def test_fd_step_reaches_the_gradients(self):
        # the finite-difference step moves the design point only at the
        # level of its truncation error
        case = case_crank_slider(10.0)
        default = run_case(case)
        coarse = run_case(case, RunSettings(fd_step=1e-3))
        assert coarse.beta != default.beta
        assert coarse.beta == pytest.approx(default.beta, abs=1e-6)
        assert coarse.settings["fd_step"] == 1e-3

    def test_composed_stages_reuse_the_search_step(self):
        # the public stages, composed by hand, differentiate the polar
        # reduction with the step the search was given, as run_case does
        from hybrel.integrator import ShiftSchedule, reliability_interval
        from hybrel.polar import reduce_to_polar
        from hybrel.solver import SolverSettings, find_design_point
        case = case_crank_slider(10.0)
        settings = RunSettings(fd_step=1e-3)
        std = standardize(case.problem)
        design = find_design_point(std, SolverSettings(fd_rel_step=1e-3))
        reduced = reduce_to_polar(std, design)
        interval = reliability_interval(
            reduced, ShiftSchedule.uniform(case.n, levels=settings.alpha_levels),
            quad_nodes=settings.quad_nodes)
        report = run_case(case, settings)
        assert (reduced.offset, interval.f_hi) == (report.d, report.F_hi)
        assert design.fd_rel_step == 1e-3

    def test_diverged_design_point_raises(self):
        # g >= 0.588 over all inputs, so the search cannot reach g = 0; it
        # diverges geometrically, and its point must not become F = 1
        problem = HybridProblem(
            lsf=lambda x, y: 3.1 - 0.58 * x[0] + 0.05 * x[0] ** 2
            - 1.36 * y[0] + 0.53 * y[0] ** 2,
            lsf_batch=lambda x, y: 3.1 - 0.58 * x[:, 0] + 0.05 * x[:, 0] ** 2
            - 1.36 * y[:, 0] + 0.53 * y[:, 0] ** 2,
            randoms=(RandomVariable("x", 0.0, 1.0),),
            uncertains=(UncertainVariable("y", -1.0, 1.0),),
        )
        case = BenchmarkCase(key="never_fails", problem=problem, description="")
        with pytest.raises(DivergedDesignPointError,
                           match=r"\|f\|/\|grad f\| = \d.*e\+\d+ > 1e-06 "
                                 r"at beta = \d.*e\+\d+ after 100 iterations"):
            run_case(case)
        assert issubclass(DivergedDesignPointError, HybrelError)
        assert not issubclass(DivergedDesignPointError, InvalidParameterError)

    def test_seeded_family_reports_only_points_on_the_surface(self):
        # some of these searches diverge and some stop on the surface
        # without meeting the step tolerance; a report must come from a
        # point within 1e-6 of the surface, |f(w*)| / |grad f(w*)|
        outcomes = []
        for case in _quadratic_family(100):
            try:
                report = run_case(case)
            except DivergedDesignPointError:
                outcomes.append("diverged")
                continue
            assert abs(report.trace[-1].lsf_value) / report.D <= 1e-6, case.key
            outcomes.append(report.converged)
        assert {"diverged", True, False} <= set(outcomes)

    def test_norm_growth_logs_one_warning_per_search(self, caplog):
        # quadratic9's |omega| grows at 91 of its 100 iterations
        *_, case = _quadratic_family(10)
        with caplog.at_level(logging.WARNING, logger="hybrel.solver"):
            report = run_case(case)
        growth = [r.getMessage() for r in caplog.records
                  if r.name == "hybrel.solver" and "norm grew" in r.getMessage()]
        assert growth == [
            "design-point norm grew at 91 iterations: first at iteration 10 "
            "(2.44236 to 2.44237), last at iteration 100 "
            f"(2.44322 to {report.trace[-1].beta:.6g})"
        ]

    def test_design_point_stays_in_box(self):
        from hybrel.model import standardize
        from hybrel.solver import find_design_point
        for case in (case_linear(3, 2), case_crank_slider(0.0)):
            dp = find_design_point(standardize(case.problem))
            assert np.all(np.abs(dp.delta_star) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("key,params", [
        ("linear", {"m": 5, "n": 5}),
        ("crank_slider", {"t": 0.0}),
        ("cantilever_tube", {}),
    ])
    def test_all_cases_run_end_to_end(self, key, params):
        report = run_case(get_case(key, **params))
        assert report.converged
        assert 0.0 < report.F_lo <= report.F_hi < 1.0
