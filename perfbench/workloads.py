"""The three benchmark workloads, their inputs and their output checks.

Every workload is closed-loop and single-threaded: one analysis at a time,
the next one starting when the previous one has returned.  Inputs come only
from the workload seed, and each run measures whole passes over a fixed
input list, so the mix of fast and slow analyses is the same in every run.

Every workload reports the same end-to-end metrics, in reference seconds
(see calibration_loop):

  latency_ref_ms.p50  one analysis (run_case call, or cold CLI process), as
  latency_ref_ms.p90  percentiles over the analyses of a pass, each analysis
                      taken at the median of its repeats in the run
  pass_ref_s          one pass over the workload's inputs: the sum of those
                      per-analysis medians

The same figures in plain wall time (pass_s, latency_ms.p50, latency_ms.p90)
are printed and written to the report, and again under the workload's own
names: table_s on paper_cases, curve_ms.p50 and curve_ms.p90 on
belief_curve, cli_run_s.p50 on cli_cold.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from scipy.special import ndtr

from hybrel import (
    BenchmarkCase,
    HybridProblem,
    RandomVariable,
    RunSettings,
    UncertainVariable,
    estimate_failure,
    get_case,
    run_case,
)

HERE = os.path.dirname(os.path.abspath(__file__))

# The 11 rows of the paper's benchmark table, as (row name, case key, params).
PAPER_ROWS = tuple(
    [(f"linear_{m}_{10 - m}", "linear", {"m": m, "n": 10 - m})
     for m in (1, 3, 5, 7, 9)]
    + [(f"crank_slider_t{t}", "crank_slider", {"t": float(t)})
       for t in (0, 10, 20, 30, 40)]
    + [("cantilever_tube", "cantilever_tube", {})]
)
MCS_SAMPLES = 250_000
PAPER_MIN_PASSES = 3

# belief_curve: one affine row per (m, n) pair, 96 rows per pass
BELIEF_M = tuple(range(1, 13))
BELIEF_N = (0, 4, 5, 6, 7, 8, 9, 10)
BELIEF_BETA = (2.0, 8.0)
BELIEF_LEVELS = 201
# An analysis's latency is the median of its repeats in the run, which
# keeps one slow stretch of the machine from moving the upper percentiles;
# with 96 rows, 10 fall beyond the 90th percentile.
BELIEF_MIN_PASSES = 3
# 1 - R cannot resolve a failure probability below 2**-53; a row that
# reports F = 0 is scored as if it had reported that resolution
TAIL_FLOOR = 2.0 ** -53

# cli_cold: two default linear calls for every crank-slider call, so the
# median of the three calls' latencies is a linear call's and the 90th
# percentile lies most of the way to the crank-slider call's
CLI_CALLS = (
    ("linear", ("--case", "linear"), "linear", {}),
    ("linear", ("--case", "linear"), "linear", {}),
    ("crank_slider_t0", ("--case", "crank_slider", "--t", "0"),
     "crank_slider", {"t": 0.0}),
)
CLI_MIN_CYCLES = 3
CLI_TIMEOUT_S = 120
CSV_COLUMNS = ("case,m,n,beta,d,D,F_lo,F_hi,R_lo,R_hi,"
               "mcs_p,mcs_ci_lo,mcs_ci_hi,runtime_ms,seed")
CSV_FLOATS = ("beta", "d", "D", "F_lo", "F_hi", "R_lo", "R_hi")

WARM_UP_ROW = {"m": 3, "n": 5, "beta": 3.0, "weights": [1.0] * 8}

# calibration_loop's work, and its median time on the 2-vCPU Xeon host the
# benchmark was written on, so that reference seconds read close to wall
# seconds there
CALIBRATION_STEPS = 400
REFERENCE_S = 3.0e-3
# calibration loops after a call take at least this share of its wall time
# (one loop at the least), so a long call gets a median of several
CALIBRATION_SHARE = 0.03


class Outcome:
    """Metrics, analysis counts and failed checks of one benchmark run."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.report = {}

    def metric(self, name, value, unit, samples):
        self.metrics[name] = {"value": float(value), "unit": unit,
                              "samples": int(samples)}

    def analysis(self, label, problems):
        """Count one attempted analysis; any problem marks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def check(self, label, problems):
        """Record problems of a check that is not itself an analysis."""
        self.problems.extend(f"{label}: {p}" for p in problems)

    @property
    def correct(self):
        return not self.problems


def attempt(func, *args, **kwargs):
    """func(*args, **kwargs), or the exception it raised."""
    try:
        return func(*args, **kwargs)
    except Exception as exc:  # a raising analysis is counted, not fatal
        return exc


def timed_passes(seconds, min_passes, run_pass):
    """Call run_pass(index) for whole passes: at least min_passes, then more
    while one more pass as long as the last still ends within `seconds`."""
    start = time.perf_counter()
    count = 0
    while True:
        began = time.perf_counter()
        run_pass(count)
        count += 1
        now = time.perf_counter()
        if count >= min_passes and now - start + (now - began) > seconds:
            return count


def calibration_loop():
    """Wall time of a fixed loop of small numpy, scipy.special and plain
    Python operations, the mix of hybrel's hot paths, with nothing of hybrel.

    A shared host runs the same code up to about twice as slowly for
    stretches of seconds to minutes, and a whole run can fall inside one, so
    no statistic of one run's raw wall times repeats from run to run.
    ReferenceClock runs this loop between analyses and scales each
    analysis's wall time by REFERENCE_S over the loop's time next to it.
    The loop does not change with the program under test, so two versions
    of it measured on one host compare in the same units.
    """
    began = time.perf_counter()
    x = np.linspace(-2.0, 2.0, 16)
    total = 0.0
    for i in range(CALIBRATION_STEPS):
        y = x * (1.0 + 1e-3 * i)
        total += float(ndtr(y).sum()) + float(y @ x) + math.sqrt(i + 1.0)
    return time.perf_counter() - began


class ReferenceClock:
    """Times calls in wall seconds and in reference seconds: wall seconds
    times REFERENCE_S over the loop time of the calibration run just before
    and just after the call (the mean of the two; each the median of its
    loops)."""

    def __init__(self):
        self.loop_s = calibration_loop()

    def time(self, func, *args, **kwargs):
        """func(*args, **kwargs) and its (wall, reference) seconds."""
        began = time.perf_counter()
        result = func(*args, **kwargs)
        wall = time.perf_counter() - began
        loops = [calibration_loop()]
        while sum(loops) < CALIBRATION_SHARE * wall:
            loops.append(calibration_loop())
        after = median(loops)
        reference = wall * 2.0 * REFERENCE_S / (self.loop_s + after)
        self.loop_s = after
        return result, (wall, reference)


def median(values):
    return float(np.median(values))


def percentile(values, q):
    return float(np.percentile(values, q))


def record_times(outcome, passes, analyses):
    """pass_ref_s and latency_ref_ms.p50/.p90, and their wall-time twins.

    analyses holds, for each analysis of a pass, the (wall, reference)
    seconds of every time it ran, and passes is how many passes ran.  An
    analysis's latency is the median over its runs, and a pass's time is
    the sum of its analyses' latencies.
    """
    for infix, k in (("ref_", 1), ("", 0)):
        per_analysis = [median([times[k] for times in runs]) for runs in analyses]
        outcome.metric(f"pass_{infix}s", sum(per_analysis), "s", passes)
        for q in (50, 90):
            outcome.metric(f"latency_{infix}ms.p{q}",
                           percentile(per_analysis, q) * 1e3, "ms", len(per_analysis))


def warm_up(workload):
    """One untimed analysis of the workload's kind."""
    if workload == "belief_curve":
        run_case(affine_case(WARM_UP_ROW), RunSettings(alpha_levels=BELIEF_LEVELS))
    else:
        run_case(get_case("linear"), RunSettings())


def report_values(report):
    """Every numeric output of a RunReport that a rerun must reproduce."""
    return (report.beta, report.d, report.D, report.F_lo, report.F_hi,
            report.R_lo, report.R_hi, report.curve, report.converged,
            report.trace)


def check_interval(report):
    """Problems with a report's failure interval, or with the report itself."""
    if isinstance(report, Exception):
        return [f"raised {type(report).__name__}: {report}"]
    problems = []
    if not report.converged:
        problems.append("design point did not converge")
    if not 0.0 <= report.F_lo <= report.F_hi <= 1.0:
        problems.append(f"need 0 <= F_lo <= F_hi <= 1, got "
                        f"{report.F_lo!r}, {report.F_hi!r}")
    if report.F_lo != 1.0 - report.R_hi or report.F_hi != 1.0 - report.R_lo:
        problems.append("F is not exactly 1 - R")
    return problems


def check_repeat(report, first):
    """A rerun of the same input must reproduce the first pass bit for bit."""
    if isinstance(report, Exception) or isinstance(first, Exception):
        return []
    if report_values(report) != report_values(first):
        return ["result differs from the first pass"]
    return []


# ---------------------------------------------------------------------------
# paper_cases
# ---------------------------------------------------------------------------

def load_reference():
    """beta, F_lo and F_hi of each paper row, recorded with RunSettings()."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)["rows"]


def paper_cases():
    return [(name, get_case(key, **params)) for name, key, params in PAPER_ROWS]


def mcs_seeds(seed, count):
    """One Monte Carlo seed per row, derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def check_paper(name, report, reference):
    problems = check_interval(report)
    if isinstance(report, Exception):
        return problems
    if name.startswith("linear_"):
        exact = math.sqrt(report.m + report.n)
        if abs(report.beta - exact) > 1e-9:
            problems.append(f"beta {report.beta!r} is not sqrt(m+n) = {exact!r}")
    for key, expected in reference[name].items():
        got = getattr(report, key)
        if abs(got - expected) > 1e-6 * abs(expected):
            problems.append(f"{key} {got!r} moved from the recorded {expected!r}")
    return problems


def check_mcs(estimate, samples):
    if isinstance(estimate, Exception):
        return [f"raised {type(estimate).__name__}: {estimate}"]
    problems = []
    if estimate.samples != samples or estimate.p_hat != estimate.failures / samples:
        problems.append("failure count, sample count and p_hat disagree")
    if not 0.0 <= estimate.ci_lo <= estimate.p_hat <= estimate.ci_hi <= 1.0:
        problems.append("confidence interval does not bracket p_hat in [0, 1]")
    return problems


def run_paper_cases(seed, seconds, outcome):
    reference = load_reference()
    settings = RunSettings()
    cases = paper_cases()
    seeds = mcs_seeds(seed, len(cases))
    rates, first, estimates_seen = [], {}, {}
    row_s = [[] for _ in cases]

    def one_pass(index):
        clock, reports = ReferenceClock(), []
        for (_, case), times in zip(cases, row_s):
            report, spent = clock.time(attempt, run_case, case, settings)
            reports.append(report)
            times.append(spent)
        estimates, spent = [], 0.0
        for (_, case), mcs_seed in zip(cases, seeds):
            began = time.perf_counter()
            estimates.append(attempt(estimate_failure, case.problem,
                                     samples=MCS_SAMPLES, seed=mcs_seed))
            spent += time.perf_counter() - began
        rates.append(len(cases) * MCS_SAMPLES / spent / 1e6)
        for (name, _), report, estimate in zip(cases, reports, estimates):
            first.setdefault(name, report)
            outcome.analysis(name, check_paper(name, report, reference)
                             + check_repeat(report, first[name]))
            p_hat = getattr(estimate, "p_hat", None)
            problems = check_mcs(estimate, MCS_SAMPLES)
            if estimates_seen.setdefault(name, p_hat) != p_hat:
                problems.append("seeded estimate differs from the first pass")
            outcome.analysis(f"{name} mcs", problems)

    passes = timed_passes(seconds, PAPER_MIN_PASSES, one_pass)
    # with 11 rows the latency percentiles fall on single rows (p50 the 6th
    # fastest, p90 the 10th)
    record_times(outcome, passes, row_s)
    outcome.metric("table_s", outcome.metrics["pass_s"]["value"], "s", passes)
    outcome.metric("mcs_msamples_per_s", median(rates), "Msamples/s", passes)
    outcome.report["rows"] = [
        {"row": name, "mcs_seed": mcs_seed, "mcs_samples": MCS_SAMPLES,
         "mcs_p": estimates_seen[name],
         **({} if isinstance(first[name], Exception) else
            {"beta": first[name].beta, "F_lo": first[name].F_lo,
             "F_hi": first[name].F_hi})}
        for (name, _), mcs_seed in zip(cases, seeds)
    ]
    outcome.report["row_wall_and_ref_s"] = row_s
    outcome.report["mcs_msamples_per_s"] = rates


# ---------------------------------------------------------------------------
# belief_curve
# ---------------------------------------------------------------------------

def belief_rows(seed):
    """Affine rows g = beta*|a| - a.omega, one per (m, n) pair.

    beta is stratified: the pairs take the equal strata of [2, 8] in a fixed
    interleaved order and the seed draws the point inside each stratum, so
    every seed has the same mix of slow rows and of deep tails.  The
    positive weights a are drawn from the seed as well.
    """
    rng = np.random.default_rng(seed)
    pairs = [(m, n) for n in BELIEF_N for m in BELIEF_M]
    lo, hi = BELIEF_BETA
    rows = []
    for k, (m, n) in enumerate(pairs):
        stratum = (41 * k) % len(pairs)  # 41 is coprime with 96
        beta = lo + (hi - lo) * (stratum + rng.random()) / len(pairs)
        weights = rng.uniform(0.5, 1.5, size=m + n)
        rows.append({"m": m, "n": n, "beta": beta, "weights": weights.tolist()})
    return rows


def affine_case(row):
    """BenchmarkCase for g = beta*|a| - a.(x, y) with x ~ N(0, 1), y in [-1, 1]."""
    m, n = row["m"], row["n"]
    weights = np.asarray(row["weights"], dtype=float)
    w_x, w_y = weights[:m], weights[m:]
    level = row["beta"] * float(np.linalg.norm(weights))

    def lsf(x, y):
        return level - np.asarray(x, dtype=float) @ w_x - np.asarray(y, dtype=float) @ w_y

    problem = HybridProblem(
        lsf=lsf,
        randoms=tuple(RandomVariable(f"u{i + 1}", 0.0, 1.0) for i in range(m)),
        uncertains=tuple(UncertainVariable(f"d{j + 1}", -1.0, 1.0) for j in range(n)),
        lsf_batch=lsf,
        name=f"affine(m={m},n={n},beta={row['beta']!r})",
    )
    return BenchmarkCase(key="affine", problem=problem,
                         description="seeded affine limit state")


def check_belief(row, report):
    problems = check_interval(report)
    if not isinstance(report, Exception) \
            and abs(report.d - row["beta"]) > 1e-8 * row["beta"]:
        problems.append(f"offset d {report.d!r} is not beta {row['beta']!r}")
    return problems


def tail_error(value, exact):
    """|log10(value / exact)| in decades, with value floored at TAIL_FLOOR."""
    return abs(math.log10(max(value, TAIL_FLOOR) / exact))


def run_belief_curve(seed, seconds, outcome):
    import oracle

    rows = belief_rows(seed)
    cases = [affine_case(row) for row in rows]
    settings = RunSettings(alpha_levels=BELIEF_LEVELS)
    latencies = [[] for _ in rows]
    first = []

    def one_pass(index):
        clock, reports = ReferenceClock(), []
        for case, row_latencies in zip(cases, latencies):
            report, spent = clock.time(attempt, run_case, case, settings)
            reports.append(report)
            row_latencies.append(spent)
        if index == 0:
            first.extend(reports)
        for k, (row, report) in enumerate(zip(rows, reports)):
            outcome.analysis(f"belief row {k}", check_belief(row, report)
                             + check_repeat(report, first[k]))

    passes = timed_passes(seconds, BELIEF_MIN_PASSES, one_pass)
    outcome.check("oracle self-test", oracle.self_test())

    errors, records = [], []
    for row, report in zip(rows, first):
        record = dict(row)
        if not isinstance(report, Exception):
            exact_lo, exact_hi = oracle.failure_envelope(row["beta"], row["m"], row["n"])
            err = max(tail_error(report.F_lo, exact_lo),
                      tail_error(report.F_hi, exact_hi))
            errors.append(err)
            record.update(F_lo=report.F_lo, F_hi=report.F_hi,
                          exact_lo=exact_lo, exact_hi=exact_hi, err_decades=err)
        records.append(record)
    for record, row_latencies in zip(records, latencies):
        record["latency_wall_and_ref_ms"] = [(w * 1e3, r * 1e3) for w, r in row_latencies]

    record_times(outcome, passes, latencies)
    for q in (50, 90):
        outcome.metric(f"curve_ms.p{q}", outcome.metrics[f"latency_ms.p{q}"]["value"],
                       "ms", len(latencies))
    if errors:
        outcome.metric("tail_err_decades", max(errors), "decades", len(errors))
    outcome.report["passes"] = passes
    outcome.report["rows"] = records


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def cli_command(args, seed):
    return [sys.executable, "-m", "hybrel.cli", "run", *args, "--seed", str(seed)]


def run_process(command):
    """Wall time of one child process run to completion, and its result."""
    began = time.perf_counter()
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        proc = exc
    return time.perf_counter() - began, proc


def cli_references(seed):
    """In-process run_case results the CLI rows must reproduce bit for bit."""
    settings = RunSettings(seed=seed)
    return {name: run_case(get_case(key, **params), settings)
            for name, _, key, params in CLI_CALLS}


def check_cli(proc, reference):
    if isinstance(proc, subprocess.TimeoutExpired):
        return [f"no exit within {CLI_TIMEOUT_S} s"]
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"]
    lines = proc.stdout.splitlines()
    if len(lines) != 2 or lines[0] != CSV_COLUMNS:
        return [f"unexpected CSV output {proc.stdout[:200]!r}"]
    row = dict(zip(CSV_COLUMNS.split(","), lines[1].split(",")))
    problems = []
    if (row["case"], row["m"], row["n"], row["seed"]) != (
            reference.case, str(reference.m), str(reference.n), str(reference.seed)):
        problems.append(f"identity columns differ: {lines[1]!r}")
    for key in CSV_FLOATS:
        try:
            equal = float(row[key]) == getattr(reference, key)
        except ValueError:
            equal = False
        if not equal:
            problems.append(f"{key} {row[key]!r} is not run_case's "
                            f"{getattr(reference, key)!r}")
    if any(row[key] for key in ("mcs_p", "mcs_ci_lo", "mcs_ci_hi", "runtime_ms")):
        problems.append("optional columns are filled")
    return problems


def run_cli_cold(seed, seconds, outcome):
    """Whole cycles of CLI_CALLS; each entry of CLI_CALLS is an analysis,
    repeated once per cycle."""
    references = cli_references(seed)
    calls = [[] for _ in CLI_CALLS]

    def one_cycle(index):
        clock = ReferenceClock()
        for (name, args, _, _), call_times in zip(CLI_CALLS, calls):
            (_, proc), spent = clock.time(run_process, cli_command(args, seed))
            call_times.append(spent)
            outcome.analysis(f"cli {name}", check_cli(proc, references[name]))

    cycles = timed_passes(seconds, CLI_MIN_CYCLES, one_cycle)
    record_times(outcome, cycles, calls)
    outcome.metric("cli_run_s.p50", outcome.metrics["latency_ms.p50"]["value"] / 1e3,
                   "s", cycles * len(CLI_CALLS))
    outcome.report["cli_run_wall_and_ref_s"] = calls
