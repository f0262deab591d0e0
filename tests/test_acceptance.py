"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured numbers.

Criteria 7 and 9 are split so that their reference-matching sub-checks are
isolated from the structural sub-checks.  Criterion 7's reference match
compares the linear (9,1) interval with that case's exact failure chance,
computed here by quadrature; the method row printed for (9,1) lies above
Phi(-3), which bounds every failure measure of the case, so it is kept for
the record only.  Criterion 9's positioning sub-check fails by design; its
failure message gives the measured cause.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, norm

from hybrel.benchmarks import (
    case_cantilever_tube,
    case_crank_slider,
    case_linear,
    run_case,
)
from hybrel.chance import MonotonicityProfile, belief_sup_grid, chance_exceedance
from hybrel.cli import run_cli
from hybrel.config import RunSettings
from hybrel.distributions import (
    LinearUncertain,
    Normal,
    chi_cdf,
    chi_pdf,
    chi_square_cdf,
    chi_square_pdf,
    cos_angle_cdf,
    cos_angle_pdf,
    normal_cdf,
    shifted_chi_cdf,
    shifted_chi_pdf,
)
from hybrel.integrator import reliability_at_shift
from hybrel.mcs import estimate_failure
from hybrel.model import HybridProblem, RandomVariable, standardize
from hybrel.polar import reduce_to_polar
from hybrel.solver import find_design_point

LINEAR_ROWS = [(1, 9), (3, 7), (5, 5), (7, 3), (9, 1)]


def _report_line(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def linear_reports():
    return {(m, n): run_case(case_linear(m, n)) for m, n in LINEAR_ROWS}


@pytest.fixture(scope="module")
def crank_reports():
    return {t: run_case(case_crank_slider(float(t))) for t in (0, 10, 20, 30, 40)}


@pytest.fixture(scope="module")
def tube_report():
    return run_case(case_cantilever_tube())


def test_criterion_1_degenerate_probabilistic_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for m in (2, 5, 10):
        for beta in (1.0, 2.0, 3.0):
            def lsf(x, y, _b=beta, _m=m):
                return _b - np.asarray(x, float).sum(axis=-1) / math.sqrt(_m)

            problem = HybridProblem(
                lsf=lsf,
                randoms=tuple(RandomVariable(f"u{i}", 0.0, 1.0) for i in range(m)),
            )
            std = standardize(problem)
            design = find_design_point(std)
            reduced = reduce_to_polar(std, design)
            value = reliability_at_shift(reduced, 0.0)
            worst = max(worst, abs(value - normal_cdf(beta)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 5.0
    _report_line(1, ok, f"max |R - Phi(beta)| = {worst:.2e} over 9 cases "
                        f"(tol 1e-3), runtime {elapsed:.2f}s (< 5s)")
    assert ok


def test_criterion_2_degenerate_uncertain_equivalence():
    start = time.perf_counter()
    lin01 = LinearUncertain(0.0, 1.0)
    cases = [
        (lambda _x, tau: 0.7 - tau[0], [lin01], ("decreasing",)),
        (lambda _x, tau: tau[0] - 0.3, [lin01], ("increasing",)),
        (lambda _x, tau: 1.0 - tau[0] - tau[1], [lin01, lin01],
         ("decreasing", "decreasing")),
        (lambda _x, tau: tau[0] - tau[1] + 0.3, [lin01, lin01],
         ("increasing", "decreasing")),
    ]
    worst = 0.0
    for f, dists, signs in cases:
        # with no random inputs the chance measure is the belief degree
        root = chance_exceedance(f, [], dists, profile=MonotonicityProfile(signs))
        grid = 2001 if len(dists) == 1 else 401
        oracle = belief_sup_grid(f, np.empty(0), dists, grid_per_var=grid)
        worst = max(worst, abs(root - oracle))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 5.0
    _report_line(2, ok, f"max |root - grid supremum| = {worst:.2e} over "
                        f"{len(cases)} cases (tol 1e-3), runtime {elapsed:.2f}s")
    assert ok


def test_criterion_3_duality(linear_reports, crank_reports, tube_report):
    worst = 0.0
    count = 0
    for report in [*linear_reports.values(), *crank_reports.values(), tube_report]:
        worst = max(worst, abs(report.F_lo + report.R_hi - 1.0))
        worst = max(worst, abs(report.F_hi + report.R_lo - 1.0))
        count += 1
    ok = worst <= 2e-6
    _report_line(3, ok, f"max |F + R - 1| = {worst:.2e} over {count} "
                        f"benchmark runs (tol 2e-6)")
    assert ok


def test_criterion_4_density_suite():
    start = time.perf_counter()
    problems = []

    # normalization within 1e-8
    norm_checks = [
        ("normal", Normal(0.3, 1.7).pdf, (-20, 20)),
        ("chi-square(5)", lambda x: chi_square_pdf(x, 5), (0, 300)),
        ("chi(7)", lambda x: chi_pdf(x, 7), (0, 50)),
        ("shifted-chi(3,1)", lambda x: shifted_chi_pdf(x, 3, 1.0), (1.0, 50)),
        ("cos-angle(6)", lambda x: cos_angle_pdf(x, 6), (-1, 1)),
    ]
    for name, pdf, (lo, hi) in norm_checks:
        total, _ = quad(pdf, lo, hi, limit=400)
        if abs(total - 1.0) > 1e-8:
            problems.append(f"{name} integrates to {total!r}")

    # KS < 0.01 against one-million-sample empirical distributions
    rng = np.random.default_rng(2024)
    n_samples = 1_000_000
    for k in (2, 5, 10):
        sample = np.linalg.norm(rng.standard_normal((n_samples, k)), axis=1)
        stat = kstest(sample, lambda x, _k=k: chi_cdf(x, _k)).statistic
        if stat >= 0.01:
            problems.append(f"chi({k}) KS = {stat:.4f}")
    for k in (2, 5, 10):
        sample = np.sum(rng.standard_normal((n_samples, k)) ** 2, axis=1)
        stat = kstest(sample, lambda x, _k=k: chi_square_cdf(x, _k)).statistic
        if stat >= 0.01:
            problems.append(f"chi-square({k}) KS = {stat:.4f}")
    for dof, shift in ((2, 0.5), (5, 1.0), (3, 2.0)):
        sample = np.sqrt(rng.chisquare(dof, n_samples) + shift)
        stat = kstest(
            sample, lambda x, _d=dof, _s=shift: shifted_chi_cdf(x, _d, _s)
        ).statistic
        if stat >= 0.01:
            problems.append(f"shifted-chi({dof},{shift}) KS = {stat:.4f}")
    for k in (2, 3, 10):
        vecs = rng.standard_normal((n_samples, k))
        sample = vecs[:, 0] / np.linalg.norm(vecs, axis=1)
        stat = kstest(sample, lambda x, _k=k: cos_angle_cdf(x, _k)).statistic
        if stat >= 0.01:
            problems.append(f"cos-angle({k}) KS = {stat:.4f}")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    detail = (f"5 normalizations within 1e-8 and 12 KS checks < 0.01 at 1e6 "
              f"samples, runtime {elapsed:.1f}s (< 60s)")
    if problems:
        detail = "; ".join(problems)
    _report_line(4, ok, detail)
    assert ok


def test_criterion_5_polar_exactness():
    case = case_linear(5, 5)
    std = standardize(case.problem)
    design = find_design_point(std)
    reduced = reduce_to_polar(std, design)
    offset_err = abs(reduced.offset - math.sqrt(10))

    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(10_000):
        omega = rng.normal(0.0, 1.5, size=10)
        if (reduced.at_point(omega) > 0) != (std.lsf_omega(omega) > 0):
            mismatches += 1
    ok = mismatches == 0 and offset_err < 1e-9
    _report_line(5, ok, f"sign agreement on 10^4 points: {10_000 - mismatches}"
                        f"/10000, |d - sqrt(10)| = {offset_err:.2e} (tol 1e-9)")
    assert ok


def test_criterion_6_mcs_table_reproduction():
    start = time.perf_counter()
    reference_mid = {
        (5, 5): (3.256e-5 + 6.294e-5) / 2,
        (7, 3): (1.701e-4 + 2.233e-4) / 2,
        (9, 1): (5.135e-4 + 5.653e-4) / 2,
    }
    details = []
    ok = True
    for (m, n), mid in reference_mid.items():
        case = case_linear(m, n)
        est = estimate_failure(case.problem, samples=10_000_000, seed=123)
        half = (est.ci_hi - est.ci_lo) / 2
        inside = abs(est.p_hat - mid) <= 3 * half
        ok = ok and inside
        details.append(f"({m},{n}): p={est.p_hat:.3e} vs mid {mid:.3e} "
                       f"within {abs(est.p_hat - mid) / half:.1f} half-widths")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report_line(6, ok, "; ".join(details) + f"; runtime {elapsed:.0f}s (< 5min)")
    assert ok


def test_criterion_7_trend_and_conservatism(linear_reports):
    f_los = [linear_reports[row].F_lo for row in LINEAR_ROWS]
    f_his = [linear_reports[row].F_hi for row in LINEAR_ROWS]
    monotone = (all(b > a for a, b in zip(f_los, f_los[1:]))
                and all(b > a for a, b in zip(f_his, f_his[1:])))
    conservative = True
    details = []
    for row in LINEAR_ROWS:
        est = estimate_failure(case_linear(*row).problem,
                               samples=1_000_000, seed=5)
        exceeds = linear_reports[row].F_hi > est.p_hat
        conservative = conservative and exceeds
        details.append(f"{row}: F_hi={linear_reports[row].F_hi:.2e} "
                       f"> mcs={est.p_hat:.2e}: {exceeds}")
    ok = monotone and conservative
    _report_line("7 (trend/conservatism)", ok,
                 f"monotone in m: {monotone}; upper endpoint exceeds the MCS "
                 f"point estimate on every row: {conservative}")
    assert ok


def _linear_9_1_failure_chance():
    """Exact chance measure Ch{g <= 0} of case_linear(9, 1), by quadrature.

    g <= 0 iff S + y >= 10, with S the sum of the nine standard normals,
    S ~ N(0, 9), and y linear uncertain on [-1, 1].  At fixed S the
    uncertain measure of {y >= 10 - S} is clip((S - 9) / 2, 0, 1); the
    chance measure is its expectation over S.  The value, 5.286e-4, lies
    inside the paper's Monte Carlo row for (9,1), which criterion 6 checks.
    """
    ramp, _ = quad(lambda s: 0.5 * (s - 9.0) * norm.pdf(s, scale=3.0), 9.0, 11.0)
    return ramp + norm.sf(11.0, scale=3.0)


def test_criterion_7_reference_interval_match(linear_reports):
    exact = _linear_9_1_failure_chance()
    printed = case_linear(9, 1).reference["failure_interval"]
    report = linear_reports[(9, 1)]
    fold_lo = max(exact / report.F_lo, report.F_lo / exact)
    fold_hi = max(exact / report.F_hi, report.F_hi / exact)
    within = fold_lo <= 5.0 and fold_hi <= 5.0
    _report_line("7 (reference match, m=9 n=1)", within,
                 f"computed [{report.F_lo:.3e}, {report.F_hi:.3e}] vs exact "
                 f"failure chance {exact:.3e} (quad); endpoint ratios "
                 f"{fold_lo:.2f}x / {fold_hi:.2f}x (required <= 5x); printed "
                 f"row [{printed[0]:.3e}, {printed[1]:.3e}] lies above "
                 f"Phi(-3) = 1.350e-3 and is not compared")
    assert within, (
        "an endpoint of the (9,1) failure interval lies more than 5x from "
        "the exact failure chance E[clip((S - 9)/2, 0, 1)], S ~ N(0, 9), "
        "computed by quadrature"
    )


def test_criterion_8_crank_slider_trend(crank_reports):
    times = sorted(crank_reports)
    los = [crank_reports[t].F_lo for t in times]
    his = [crank_reports[t].F_hi for t in times]
    strictly_increasing = (all(b > a for a, b in zip(los, los[1:]))
                           and all(b > a for a, b in zip(his, his[1:])))

    reference = (0.05152, 0.07276)
    lo, hi = crank_reports[0].F_lo, crank_reports[0].F_hi
    overlaps = hi >= reference[0] and lo <= reference[1]
    within_factor_2 = (hi >= reference[0] / 2) and (lo <= reference[1] * 2)
    ok = strictly_increasing and (overlaps or within_factor_2)
    _report_line(8, ok,
                 f"strictly increasing over t grid: {strictly_increasing}; "
                 f"t=0 interval [{lo:.4f}, {hi:.4f}] vs reference "
                 f"[{reference[0]:.4f}, {reference[1]:.4f}] "
                 f"(overlap: {overlaps})")
    assert ok


def test_criterion_9_magnitude(tube_report):
    reference = (2.859e-3, 5.790e-3)
    lo_ok = reference[0] / 10 <= tube_report.F_lo <= reference[0] * 10
    hi_ok = reference[1] / 10 <= tube_report.F_hi <= reference[1] * 10
    ok = lo_ok and hi_ok
    _report_line("9 (magnitude)", ok,
                 f"computed [{tube_report.F_lo:.3e}, {tube_report.F_hi:.3e}] "
                 f"within one order of magnitude of "
                 f"[{reference[0]:.3e}, {reference[1]:.3e}]: {ok}")
    assert ok


def test_criterion_9_conservative_positioning(tube_report):
    est = estimate_failure(case_cantilever_tube().problem,
                           samples=2_000_000, seed=0)
    method_width = tube_report.F_hi - tube_report.F_lo
    mcs_width = est.ci_hi - est.ci_lo
    wider = method_width > mcs_width
    positioned_above = tube_report.F_hi >= est.ci_hi
    ok = wider and positioned_above
    _report_line("9 (positioning)", ok,
                 f"interval width {method_width:.2e} > MCS CI width "
                 f"{mcs_width:.2e}: {wider}; upper bound {tube_report.F_hi:.3e} "
                 f">= MCS upper {est.ci_hi:.3e}: {positioned_above}")
    assert ok, (
        "the Monte Carlo estimate exceeds the method's upper failure bound "
        "by ~15%. The limit state's curvature is not the cause: sampling the "
        "tangent plane at the design point with the same uniform draws gives "
        "about the same failure fraction as sampling the limit state (both "
        "~1.19e-2 at 4M samples, the plane slightly higher). The cause is "
        "the shift sweep: F_hi is its value at the largest shift, n = 6, "
        "where the radius is sqrt(chi2_6 + 6). That radius has a lighter "
        "tail than the chi_12 radius that gives the first-order value "
        "Phi(-d) = 1.221e-2 (d = 2.2503), so F_hi = 1.025e-2 lies 16% below "
        "Phi(-d) and below the sampled estimate. Over TUBE_STRESS_SCALE "
        "0.24-0.27 the magnitude criterion holds and F_hi stays below Monte "
        "Carlo; the ordering first flips near 0.28, where the interval lies "
        "4-8x above the reference row."
    )


def test_criterion_10_integrator_convergence(linear_reports, crank_reports,
                                             tube_report):
    worst = 0.0
    cases = [case_linear(5, 5), case_linear(9, 1), case_crank_slider(0.0),
             case_cantilever_tube()]
    for case in cases:
        r64 = run_case(case, RunSettings(quad_nodes=64))
        r128 = run_case(case, RunSettings(quad_nodes=128))
        worst = max(worst, abs(r64.R_lo - r128.R_lo), abs(r64.R_hi - r128.R_hi))
        for (s_a, v_a), (s_b, v_b) in zip(r64.curve, r128.curve):
            assert s_a == s_b
            worst = max(worst, abs(v_a - v_b))

    monotone_ok = True
    for report in [*linear_reports.values(), *crank_reports.values(), tube_report]:
        values = [r for _s, r in report.curve]
        if report.d > 0:
            monotone_ok &= all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        elif report.d < 0:
            monotone_ok &= all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    ok = worst < 1e-6 and monotone_ok
    _report_line(10, ok, f"max node-doubling change = {worst:.2e} (tol 1e-6); "
                         f"shift curves monotone per the offset sign: {monotone_ok}")
    assert ok


def test_criterion_11_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        run_path = tmp_path / f"run_{name}.csv"
        curve_path = tmp_path / f"curve_{name}.csv"
        assert run_cli(["run", "--case", "linear", "--m", "5", "--n", "5",
                        "--seed", "11", "--out", str(run_path)]) == 0
        # curve draws nothing at random, so it takes no --seed
        assert run_cli(["curve", "--case", "crank_slider", "--t", "10",
                        "--out", str(curve_path)]) == 0
        outputs.append((run_path.read_bytes(), curve_path.read_bytes()))
    ok = outputs[0] == outputs[1]
    _report_line(11, ok, "two consecutive seeded CLI runs produced "
                         f"bit-identical CSV bytes: {ok}")
    assert ok
