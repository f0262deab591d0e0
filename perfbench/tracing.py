"""Traced replay of the workloads, measured from outside the package.

The traced run calls standardize, find_design_point, reduce_to_polar and
reliability_interval exactly as run_case does, with a span around each call
and counting wrappers around the limit-state callables, then checks that
the staged result is bit-equal to run_case on the same case.  Spans (name,
start, end, parent, analysis id) stay in memory and go into the report at
the end.  Limit-state calls are counters on the innermost open span rather
than spans of their own, because a single analysis makes up to ~19k of them.

Per-layer figures are totals over one pass of the workload's inputs (the
median over passes for times); counts must repeat exactly between passes.
Every workload reports the same per-layer metrics: each traced pass also
runs a seeded Monte Carlo estimate on the workload's own limit states, and
each traced run times fresh processes for the import and CLI split.
"""

import dataclasses
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from hybrel import (
    RunSettings,
    ShiftSchedule,
    SolverSettings,
    estimate_failure,
    find_design_point,
    get_case,
    reduce_to_polar,
    reliability_interval,
    run_case,
    standardize,
)
from hybrel.config import thread_cap

import workloads as wl

# scalar limit-state calls of the tube's design-point stage, counted by hand
TUBE_SOLVER_LSF_CALLS = 12_960
# process-split cycles (bare interpreter, import hybrel, hybrel run) timed
# by the workloads that do not run cold processes themselves
SPLIT_CYCLES = 4
CLI_MIN_CYCLES = 6
# Monte Carlo samples per belief row; 96 rows make about 2M per pass
BELIEF_MCS_SAMPLES = 20_000

COUNTS = ("lsf_calls", "lsf_batch_rows", "outer_iterations", "shifts",
          "converged_frac")
UNITS = (("msamples_per_s", "Msamples/s"), ("us_per_shift", "us"),
         ("_ms", "ms"), ("_s", "s"), ("_frac", "fraction"),
         ("_share", "fraction"))


def unit_of(name):
    for suffix, unit in UNITS:
        if name.split(".")[1].endswith(suffix):
            return unit
    return "count"


class Tracer:
    """In-memory spans with limit-state counters on the innermost span."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.analysis = None
        self._open = []

    @contextmanager
    def span(self, name, **fields):
        record = {
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "analysis": self.analysis,
            "lsf_calls": 0, "lsf_s": 0.0, "batch_rows": 0, "batch_s": 0.0,
            **fields,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    def counted(self, func, batch):
        """func with each call counted and timed on the open span."""
        def wrapper(x, y):
            began = time.perf_counter()
            value = func(x, y)
            elapsed = time.perf_counter() - began
            record = self.spans[self._open[-1]]
            if batch:
                record["batch_rows"] += len(x)
                record["batch_s"] += elapsed
            else:
                record["lsf_calls"] += 1
                record["lsf_s"] += elapsed
            return value
        return wrapper

    def counted_case(self, case):
        problem = case.problem
        batch = problem.lsf_batch
        return dataclasses.replace(case, problem=dataclasses.replace(
            problem,
            lsf=self.counted(problem.lsf, batch=False),
            lsf_batch=None if batch is None else self.counted(batch, batch=True),
        ))


def staged_run(tracer, case, settings):
    """run_case's stages, one span each; returns the values run_case reports."""
    case = tracer.counted_case(case)
    with tracer.span("analysis") as root:
        with tracer.span("model.standardize"):
            std = standardize(case.problem)
        solver_settings = SolverSettings(
            epsilon=settings.epsilon, fd_rel_step=settings.fd_step
        )
        with tracer.span("solver.find_design_point") as record:
            design = find_design_point(std, solver_settings)
            record.update(outer_iterations=design.iterations,
                          converged=design.converged)
        with tracer.span("polar.reduce_to_polar"):
            reduced = reduce_to_polar(std, design)
        with tracer.span("integrator.reliability_interval") as record:
            schedule = ShiftSchedule.uniform(case.n, levels=settings.alpha_levels)
            interval = reliability_interval(
                reduced, schedule, quad_nodes=settings.quad_nodes,
                thread_cap=thread_cap(),
            )
            record["shifts"] = len(schedule.shifts)
    return root, (design.beta, reduced.offset, reduced.grad_norm,
                  interval.f_lo, interval.f_hi, interval.r_lo, interval.r_hi,
                  interval.curve, design.converged, design.trace)


def traced_analysis(tracer, case, settings):
    """Staged run plus an untraced run_case of the same case.

    Returns (traced seconds, untraced seconds, run_case report, problems).
    """
    staged = wl.attempt(staged_run, tracer, case, settings)
    began = time.perf_counter()
    report = wl.attempt(run_case, case, settings)
    untraced = time.perf_counter() - began
    if isinstance(staged, Exception):
        return 0.0, untraced, report, [f"staged run raised {staged!r}"]
    root, values = staged
    problems = []
    if not isinstance(report, Exception) and values != wl.report_values(report):
        problems.append("staged result is not bit-equal to run_case")
    return root["end"] - root["start"], untraced, report, problems


def pass_metrics(spans, first_index):
    """Per-layer totals of the spans recorded in one pass."""
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    out = defaultdict(float)
    rows = defaultdict(lambda: defaultdict(float))
    analyses = 0
    for index, span in enumerate(spans, start=first_index):
        layer = span["name"].split(".")[0]
        duration = span["end"] - span["start"]
        inner_lsf_s = span["lsf_s"] + span["batch_s"]
        self_ms = (duration - covered[index] - inner_lsf_s) * 1e3
        row = rows[span["analysis"]]
        if layer == "mcs":
            out["mcs.self_ms"] += self_ms
            out["mcs.batch_s"] += span["batch_s"]
            out["mcs.span_s"] += duration
            out["mcs.samples"] += span["samples"]
            row["mcs.msamples_per_s"] = span["samples"] / duration / 1e6
            continue
        if layer == "analysis":
            analyses += 1
        else:
            out[f"{layer}.self_ms"] += self_ms
        out["model.self_ms"] += inner_lsf_s * 1e3
        for key, total in (("model.lsf_calls", span["lsf_calls"]),
                           ("model.lsf_s", inner_lsf_s),
                           ("model.lsf_batch_rows", span["batch_rows"])):
            out[key] += total
            row[key] += total
        if layer == "solver":
            out["solver.lsf_calls"] += span["lsf_calls"]
            row["solver.lsf_calls"] += span["lsf_calls"]
            out["solver.outer_iterations"] += span["outer_iterations"]
            out["solver.converged_frac"] += span["converged"]
        elif layer == "polar":
            out["polar.reduce_ms"] += duration * 1e3
            out["polar.lsf_calls"] += span["lsf_calls"]
        elif layer == "integrator":
            out["integrator.sweep_ms"] += duration * 1e3
            out["integrator.shifts"] += span["shifts"]
    if analyses:
        out["solver.converged_frac"] /= analyses
    if out["integrator.shifts"]:
        out["integrator.us_per_shift"] = out["integrator.sweep_ms"] * 1e3 / out["integrator.shifts"]
    mcs_s = out.pop("mcs.span_s", 0.0)
    mcs_batch_s = out.pop("mcs.batch_s", 0.0)
    mcs_samples = out.pop("mcs.samples", 0)
    if mcs_s:
        out["mcs.msamples_per_s"] = mcs_samples / mcs_s / 1e6
        out["mcs.lsf_batch_share"] = mcs_batch_s / mcs_s
    return dict(out), {key: dict(value) for key, value in rows.items()}


def record_median(outcome, name, values, passes):
    """Record the median over passes; counts must repeat exactly."""
    if name.split(".")[1] in COUNTS and len(set(values)) > 1:
        outcome.check("trace", [f"{name} differs between passes: {values}"])
    outcome.metric(name, wl.median(values), unit_of(name), passes)


def run_traced_passes(seconds, min_passes, outcome, tracer, one_pass):
    """Whole traced passes; per-layer metrics are medians over passes."""
    per_pass, per_row, overheads = [], [], []

    def traced_pass(index):
        first = len(tracer.spans)
        overheads.append(one_pass(index))
        totals, rows = pass_metrics(tracer.spans[first:], first)
        per_pass.append(totals)
        per_row.append(rows)

    passes = wl.timed_passes(seconds, min_passes, traced_pass)
    for name in per_pass[0]:
        record_median(outcome, name, [totals[name] for totals in per_pass], passes)
    outcome.metric("trace.overhead_ms", wl.median(overheads) * 1e3, "ms", passes)
    return per_row, passes


def traced_mcs(tracer, outcome, named_cases, seeds, samples):
    """A seeded estimate_failure per case, each in an mcs span."""
    for (name, case), mcs_seed in zip(named_cases, seeds):
        tracer.analysis = name
        counted = tracer.counted_case(case)
        with tracer.span("mcs.estimate_failure", samples=samples):
            estimate = wl.attempt(estimate_failure, counted.problem,
                                  samples=samples, seed=mcs_seed)
        outcome.analysis(f"{name} mcs", wl.check_mcs(estimate, samples))


def process_split(seed, outcome, enough):
    """Cycles of a bare interpreter, a fresh `import hybrel` and a `hybrel
    run` call, until enough(cycles done, seconds of the last cycle).

    import.hybrel_s is a fresh `import hybrel` minus a bare interpreter, and
    cli.work_s is a `hybrel run` call minus a fresh `import hybrel`, each
    the median of the differences within a cycle, so that a slow stretch of
    the machine moves both sides of a difference alike.
    """
    references = wl.cli_references(seed)
    bare, imports, calls = [], [], []
    while True:
        for command, walls in ((["-c", "pass"], bare), (["-c", "import hybrel"], imports)):
            wall, proc = wl.run_process([sys.executable, *command])
            walls.append(wall)
            if getattr(proc, "returncode", None) != 0:
                outcome.check("trace", [f"{' '.join(command)} did not exit cleanly"])
        name, args, _, _ = wl.CLI_CALLS[len(calls) % len(wl.CLI_CALLS)]
        wall, proc = wl.run_process(wl.cli_command(args, seed))
        calls.append(wall)
        outcome.analysis(f"cli {name}", wl.check_cli(proc, references[name]))
        if enough(len(calls), bare[-1] + imports[-1] + wall):
            break
    outcome.metric("cli.interpreter_s", wl.median(bare), "s", len(bare))
    outcome.metric("import.hybrel_s",
                   wl.median([i - b for i, b in zip(imports, bare)]), "s", len(imports))
    outcome.metric("cli.work_s",
                   wl.median([c - i for c, i in zip(calls, imports)]), "s", len(calls))
    outcome.report["processes"] = {"interpreter_s": bare, "import_s": imports,
                                   "cli_run_s": calls}


def split_then_passes(seed, seconds, outcome, tracer, one_pass):
    """SPLIT_CYCLES process-split cycles, then traced passes for the rest
    of the run's seconds; returns run_traced_passes' result."""
    start = time.perf_counter()
    process_split(seed, outcome, lambda cycles, _: cycles >= SPLIT_CYCLES)
    left = seconds - (time.perf_counter() - start)
    return run_traced_passes(left, 1, outcome, tracer, one_pass)


def traced_paper_cases(seed, seconds, outcome):
    reference = wl.load_reference()
    settings = RunSettings()
    seeds = wl.mcs_seeds(seed, len(wl.PAPER_ROWS))
    tracer = Tracer()

    def one_pass(index):
        traced_total = untraced_total = 0.0
        cases = []
        for name, key, params in wl.PAPER_ROWS:
            tracer.analysis = name
            with tracer.span("benchmarks.get_case"):
                case = get_case(key, **params)
            cases.append((name, case))
            traced, untraced, report, problems = traced_analysis(tracer, case, settings)
            traced_total += traced
            untraced_total += untraced
            outcome.analysis(name, problems + wl.check_paper(name, report, reference))
        traced_mcs(tracer, outcome, cases, seeds, wl.MCS_SAMPLES)
        return traced_total - untraced_total

    per_row, passes = split_then_passes(seed, seconds, outcome, tracer, one_pass)
    for name, _, _ in wl.PAPER_ROWS:
        for key in per_row[0][name]:
            if key == "solver.lsf_calls" and name != "cantilever_tube":
                continue
            record_median(outcome, f"{key}.{name}",
                          [rows[name][key] for rows in per_row], passes)
    tube_calls = per_row[0]["cantilever_tube"]["solver.lsf_calls"]
    if tube_calls != TUBE_SOLVER_LSF_CALLS:
        outcome.check("trace", [f"tube design point made {tube_calls:g} limit-state "
                                f"calls, not {TUBE_SOLVER_LSF_CALLS}"])
    outcome.report["spans"] = tracer.spans


def traced_belief_curve(seed, seconds, outcome):
    rows = wl.belief_rows(seed)
    settings = RunSettings(alpha_levels=wl.BELIEF_LEVELS)
    seeds = wl.mcs_seeds(seed, len(rows))
    tracer = Tracer()

    def one_pass(index):
        overhead = 0.0
        cases = []
        for k, row in enumerate(rows):
            tracer.analysis = f"belief_{k}"
            case = wl.affine_case(row)
            cases.append((tracer.analysis, case))
            traced, untraced, report, problems = traced_analysis(tracer, case, settings)
            overhead += traced - untraced
            outcome.analysis(f"belief row {k}", problems + wl.check_belief(row, report))
        traced_mcs(tracer, outcome, cases, seeds, BELIEF_MCS_SAMPLES)
        return overhead

    split_then_passes(seed, seconds, outcome, tracer, one_pass)
    outcome.report["rows"] = rows
    outcome.report["spans"] = tracer.spans


def traced_cli_cold(seed, seconds, outcome):
    """In-process stages and Monte Carlo of the CLI's cases (what `hybrel
    run` and `hybrel mcs` call), then process-split cycles for the rest of
    the run's seconds."""
    start = time.perf_counter()
    settings = RunSettings(seed=seed)
    cli_cases = {name: (key, params) for name, _, key, params in wl.CLI_CALLS}
    seeds = wl.mcs_seeds(seed, len(cli_cases))
    tracer = Tracer()

    def one_pass(index):
        overhead = 0.0
        cases = []
        for name, (key, params) in cli_cases.items():
            tracer.analysis = name
            with tracer.span("benchmarks.get_case"):
                case = get_case(key, **params)
            cases.append((name, case))
            traced, untraced, report, problems = traced_analysis(tracer, case, settings)
            overhead += traced - untraced
            outcome.analysis(name, problems + wl.check_interval(report))
        traced_mcs(tracer, outcome, cases, seeds, wl.MCS_SAMPLES)
        return overhead

    run_traced_passes(0.0, 1, outcome, tracer, one_pass)
    process_split(seed, outcome, lambda cycles, last: (
        cycles >= CLI_MIN_CYCLES and time.perf_counter() - start + last > seconds))
    outcome.report["spans"] = tracer.spans
