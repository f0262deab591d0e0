"""Command-line runner for the benchmark registry.

Subcommands:

  run           full pipeline on a case, one report row (csv or json)
  mcs           Monte Carlo failure estimate for a case
  design-point  design-point search details
  curve         per-shift reliability curve, plot-ready

Every subcommand takes either --case KEY (the built-in registry) or
--problem PATH, a flat key=value problem-definition file.  --m/--n belong
to the linear case and --t to the crank-slider; any other use of them,
with another case or with --problem, is a usage error.  A problem file
reads:

    name = tweaked_tube          # report label
    lsf = cantilever_tube        # built-in limit-state key
    param.t = 10                 # optional limit-state parameter
    random = d1 10.0 0.5         # name mean stddev  (one line per input)
    uncertain = a 94 106         # name lower upper  (one line per input)

Variable lines are positional: the limit state receives the declared
randoms and uncertains in file order, so a definition file reruns a
built-in response surface on shifted means or bounds.

Every subcommand takes --seed and --config; only run and curve, which
sweep the belief levels, take --alpha-levels and --quad-nodes.  Settings
files passed via --config are read by the same key=value reader as
problem files, with the keys alpha_levels, quad_nodes, epsilon, fd_step,
seed.  Every key is parsed and type-checked, but a subcommand ignores the
keys it does not read (mcs reads seed, design-point epsilon and fd_step),
so only those are range-checked.  The HRA_THREADS environment variable
caps worker parallelism.

Exit codes: 0 success, 2 usage error, 3 numerical error.  Floats serialize
with 17 significant digits so that parsing an emitted file recovers every
value bit-exactly.
"""

import argparse
import json
import sys
from dataclasses import fields

from .benchmarks import CASE_KEYS, design_point, get_case, load_problem, run_case
from .config import RunSettings, load_config
from .errors import HybrelError, InvalidParameterError
from .mcs import estimate_failure

__all__ = ["main", "run_cli", "CSV_HEADER", "format_float"]

_ALL_SETTINGS = {field.name for field in fields(RunSettings)}

# the report fields of a CSV row, and the leading keys of the JSON object
_REPORT_FIELDS = ("case", "m", "n", "beta", "d", "D", "F_lo", "F_hi", "R_lo",
                  "R_hi", "mcs_p", "mcs_ci_lo", "mcs_ci_hi", "runtime_ms", "seed")
CSV_HEADER = ",".join(_REPORT_FIELDS)


def format_float(value):
    """17-significant-digit decimal, empty string for missing values."""
    if value is None:
        return ""
    return format(float(value), ".17g")


def report_to_csv(report):
    values = [getattr(report, name) for name in _REPORT_FIELDS]
    # the case name and the integer fields print as they are
    cells = [str(value) if isinstance(value, (str, int)) else format_float(value)
             for value in values]
    return CSV_HEADER + "\n" + ",".join(cells) + "\n"


def report_to_json(report):
    payload = {name: getattr(report, name) for name in _REPORT_FIELDS}
    payload.update(converged=report.converged, settings=report.settings)
    return json.dumps(payload, indent=2) + "\n"


def _select_case(args):
    """Case from --case (registry) or --problem (definition file).

    Only the case flags given are passed on, so the case's own defaults
    apply and a flag the case does not take is a usage error.
    """
    params = {name: getattr(args, name) for name in ("m", "n", "t")
              if getattr(args, name) is not None}
    if getattr(args, "problem", None):
        if args.case is not None:
            raise InvalidParameterError("--case and --problem are exclusive")
        if params:
            raise InvalidParameterError(
                f"--problem takes no {', '.join('--' + name for name in params)}"
            )
        return load_problem(args.problem)
    if args.case is None:
        raise InvalidParameterError("one of --case or --problem is required")
    return get_case(args.case, **params)


def _settings_from(args):
    """RunSettings from --config and the flags; the settings the subcommand
    does not read keep their defaults."""
    given = load_config(args.config) if args.config else {}
    given.update({name: getattr(args, name)
                  for name in ("alpha_levels", "quad_nodes", "seed")
                  if getattr(args, name, None) is not None})
    return RunSettings(**{k: v for k, v in given.items() if k in args.reads})


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _add_case_arguments(parser):
    parser.add_argument("--case", choices=CASE_KEYS)
    parser.add_argument("--problem", help="problem-definition file (key=value)")
    parser.add_argument("--m", type=int, help="random inputs (linear case, default 5)")
    parser.add_argument("--n", type=int, help="uncertain inputs (linear case, default 5)")
    parser.add_argument("--t", type=float, help="time (crank_slider case, default 0)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--config", help="flat key=value settings file")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="write output to this path instead of stdout")


def _print_trace(trace):
    for rec in trace:
        sys.stderr.write(
            f"iter={rec.index} beta={rec.beta:.9g} "
            f"step={rec.step_norm:.3e} g={rec.lsf_value:.6e}\n"
        )


def _cmd_run(args):
    settings = _settings_from(args)
    case = _select_case(args)
    report = run_case(case, settings, include_timing=args.timing)
    if args.trace:
        _print_trace(report.trace)
    text = report_to_csv(report) if args.format == "csv" else report_to_json(report)
    _emit(text, args.out)
    return 0


def _cmd_mcs(args):
    settings = _settings_from(args)
    case = _select_case(args)
    estimate = estimate_failure(
        case.problem, samples=args.samples, confidence=args.confidence,
        seed=settings.seed,
    )
    if args.format == "json":
        payload = {
            "case": case.key,
            "p_hat": estimate.p_hat,
            "ci_lo": estimate.ci_lo,
            "ci_hi": estimate.ci_hi,
            "samples": estimate.samples,
            "confidence": estimate.confidence,
            "seed": estimate.seed,
            "failures": estimate.failures,
            "zero_failures": estimate.zero_failures,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = ("case,p_hat,ci_lo,ci_hi,samples,confidence,seed,failures\n"
                f"{case.key},{format_float(estimate.p_hat)},"
                f"{format_float(estimate.ci_lo)},{format_float(estimate.ci_hi)},"
                f"{estimate.samples},{format_float(estimate.confidence)},"
                f"{estimate.seed},{estimate.failures}\n")
    _emit(text, args.out)
    return 0


def _cmd_design_point(args):
    settings = _settings_from(args)
    case = _select_case(args)
    _, design = design_point(case, settings)
    if args.trace:
        _print_trace(design.trace)
    if args.format == "json":
        payload = {
            "case": case.key,
            "beta": design.beta,
            "u_star": list(design.u_star),
            "delta_star": list(design.delta_star),
            "iterations": design.iterations,
            "converged": design.converged,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"case={case.key}", f"beta={format_float(design.beta)}"]
        lines += [f"u{i+1}={format_float(v)}" for i, v in enumerate(design.u_star)]
        lines += [f"delta{j+1}={format_float(v)}"
                  for j, v in enumerate(design.delta_star)]
        lines += [f"iterations={design.iterations}", f"converged={design.converged}"]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_curve(args):
    settings = _settings_from(args)
    case = _select_case(args)
    report = run_case(case, settings)
    if args.format == "json":
        payload = {
            "case": case.key,
            "curve": [[s, r] for s, r in report.curve],
            "R_lo": report.R_lo,
            "R_hi": report.R_hi,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = [f"{format_float(s)},{format_float(r)}" for s, r in report.curve]
        text = "shift,reliability\n" + "\n".join(rows) + "\n"
    _emit(text, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hybrel",
        description="hybrid aleatory/epistemic reliability benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline on one case")
    _add_case_arguments(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="print the solver iteration trace to stderr")
    p_run.add_argument("--timing", action="store_true",
                       help="fill the runtime_ms column (breaks bit-exact reruns)")
    p_run.set_defaults(func=_cmd_run, reads=_ALL_SETTINGS)

    p_mcs = sub.add_parser("mcs", help="Monte Carlo failure estimate")
    _add_case_arguments(p_mcs)
    p_mcs.add_argument("--samples", type=int, default=1_000_000)
    p_mcs.add_argument("--confidence", type=float, default=0.95)
    p_mcs.set_defaults(func=_cmd_mcs, reads={"seed"})

    p_dp = sub.add_parser("design-point", help="design-point search details")
    _add_case_arguments(p_dp)
    p_dp.add_argument("--trace", action="store_true")
    p_dp.set_defaults(func=_cmd_design_point, reads={"epsilon", "fd_step"})

    p_curve = sub.add_parser("curve", help="per-shift reliability curve")
    _add_case_arguments(p_curve)
    p_curve.set_defaults(func=_cmd_curve, reads=_ALL_SETTINGS)

    for sweep in (p_run, p_curve):  # mcs and design-point do not read these
        sweep.add_argument("--alpha-levels", type=int, dest="alpha_levels")
        sweep.add_argument("--quad-nodes", type=int, dest="quad_nodes")

    return parser


def run_cli(argv=None):
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except HybrelError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
