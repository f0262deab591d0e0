"""hybrel benchmark: the paper's cases, belief curves and cold CLI calls.

Run from the repository root, which must hold the package under src/:

    python3 perfbench/run.py --workload paper_cases --seed 1 --seconds 30 --trace 0

Workloads, each in one process, single-threaded and closed-loop (one
analysis at a time), with HRA_THREADS removed from the environment, the
BLAS thread pools pinned to one thread, and the process and its children
kept on one CPU:

  paper_cases   the 11 rows of the paper's table through run_case with
                default settings, then a fixed-size Monte Carlo estimate per
                row seeded from the workload seed (design-point heavy)
  belief_curve  96 seeded affine limit states through run_case with 201
                belief levels, scored against an exact tail oracle
                (shift-sweep heavy)
  cli_cold      fresh `python -m hybrel.cli run` processes, one at a time
                (import and CLI heavy)

--trace 0 reports the end-to-end metrics; --trace 1 is a separate run that
replays each analysis stage by stage with a span around every layer call
and reports per-layer metrics (see tracing.py).  Every workload measures
every metric that BENCHMARK.json lists for its mode:

  setup_s         time from before `import hybrel` to the end of one untimed
                  warm-up analysis, the median over this process and
                  SETUP_PROBES fresh ones
  pass_ref_s          one pass over the workload's inputs: the table's 11
                      run_case calls, the 96 belief curves, or one cycle of
                      three cold CLI calls, each at the median of its
                      repeats in the run
  latency_ref_ms.p50  one analysis of a pass (a paper row, a belief row or a
  latency_ref_ms.p90  cold CLI call), each at the median of its repeats

Those three are in reference seconds: each analysis's wall time scaled by
how fast a fixed calibration loop ran just before and after it
(workloads.ReferenceClock), so that a slow stretch of a shared host does not
read as a slower program.
Their wall-time twins (pass_s, latency_ms.p50, latency_ms.p90) and the
workload-specific figures (table_s and mcs_msamples_per_s on paper_cases,
curve_ms.p50/.p90 and tail_err_decades on belief_curve, cli_run_s.p50 on
cli_cold, per-row layer figures on paper_cases) are printed and written to
the report, but left out of the JSON line.

Standard output ends with one JSON line {"correct", "attempted", "failed",
"metrics"}, whose metrics are exactly those BENCHMARK.json lists.  The full
report (environment stamp, per-metric sample counts, the generated rows so
that a run can be replayed, failed checks and, when traced, the spans) is
written to perfbench/out/.  Exit status: 0 when every output check passed,
1 when one failed, 2 when the package cannot be imported from ./src or
BENCHMARK.json is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper_cases", "belief_curve", "cli_cold")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; whole passes are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="print this process's set-up time and exit")
    return parser.parse_args(argv)


def isolate_environment(src):
    """Clear HRA_THREADS, pin BLAS to one thread, point children at src, and
    keep this process and its children on one CPU, so that the calibration
    loop of workloads.ReferenceClock runs on the CPU whose speed it scales.

    Returns the HRA_THREADS value that was cleared (or None) and the CPUs
    the process was allowed before."""
    cleared = os.environ.pop("HRA_THREADS", None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = src
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return cleared, allowed


def setup_probes(args):
    """Set-up time of SETUP_PROBES fresh processes, one at a time."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_digest(src):
    """sha256 over the package's file names and contents."""
    digest = hashlib.sha256()
    package = os.path.join(src, "hybrel")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def stamp(root, src, load_at_start, cleared, allowed):
    import numpy
    import scipy

    return {
        "nproc": len(allowed),
        "pinned_cpu": allowed[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
        "loadavg_at_start": load_at_start,
        "HRA_THREADS": "cleared" + ("" if cleared is None else f" (was {cleared!r})"),
        "blas_threads": 1,
    }


def manifest_units(root, trace):
    """{metric name: unit} that BENCHMARK.json lists for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in manifest["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    load_at_start = list(os.getloadavg())
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hybrel", "__init__.py")):
        sys.stderr.write(f"no hybrel package under {src}; run from the repository root\n")
        return 2
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        sys.stderr.write(f"no BENCHMARK.json in {root}; run from the repository root\n")
        return 2
    listed = manifest_units(root, args.trace)
    cleared, allowed = isolate_environment(src)
    sys.path.insert(0, src)

    began = time.perf_counter()
    import hybrel
    import workloads

    workloads.warm_up(args.workload)
    setup_s = time.perf_counter() - began
    if os.path.dirname(os.path.abspath(hybrel.__file__)) != os.path.join(src, "hybrel"):
        sys.stderr.write(f"imported hybrel from {hybrel.__file__}, not {src}\n")
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outcome = workloads.Outcome()
    if args.trace:
        import tracing

        traced = {"paper_cases": tracing.traced_paper_cases,
                  "belief_curve": tracing.traced_belief_curve,
                  "cli_cold": tracing.traced_cli_cold}
        traced[args.workload](args.seed, args.seconds, outcome)
    else:
        setups = [setup_s] + setup_probes(args)
        outcome.metric("setup_s", statistics.median(setups), "s", len(setups))
        outcome.report["setup_s"] = setups
        untraced = {"paper_cases": workloads.run_paper_cases,
                    "belief_curve": workloads.run_belief_curve,
                    "cli_cold": workloads.run_cli_cold}
        untraced[args.workload](args.seed, args.seconds, outcome)
    for name, unit in listed.items():
        measured = outcome.metrics.get(name)
        if measured is None or measured["unit"] != unit:
            outcome.check("BENCHMARK.json", [f"{name} in {unit} was not measured"])

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp(root, src, load_at_start, cleared, allowed),
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "problems": outcome.problems, "metrics": outcome.metrics,
        **outcome.report,
    }
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("stamp " + json.dumps(report["stamp"]))
    for name, metric in outcome.metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']:<11}"
              f" n={metric['samples']}" + ("" if name in listed else "  (report only)"))
    print(f"  {'failed_frac':<40} {report['failed_frac']:>14.6g} fraction"
          f"    {outcome.failed} of {outcome.attempted} analyses")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"report {os.path.relpath(out_path, root)}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in outcome.metrics.items() if name in listed},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
