"""Compare hybrel's outputs at a git revision with this tree's, field by field.

    python scripts/compare_outputs.py --against REV [--limit N]

REV is extracted with `git archive REV | tar -x` into a temporary
directory.  One fixed manifest then runs in a fresh interpreter per side,
with that side's `src` first on the path:

  paper rows    report_values of the paper table's 11 rows (run_case with
                RunSettings()), with the limit-state calls and lsf_batch
                rows each run makes
  belief rows   the same for the 192 seeded affine rows of the
                belief_curve benchmark (seeds 1 and 1001, 201 belief levels)
  cli           stdout, stderr and exit code of `hybrel run` (csv and
                json), `curve` and `design-point` on linear, crank_slider
                t=40 and cantilever_tube, and of `hybrel mcs` on the tube
  oracle        reliability_reference on three purely random problems,
                one per route of degenerate_random: the affine closed form
                (m = 2), the sign grid with batched crossing bisection
                (nonlinear, m = 1) and the 200-node quadrature
                (nonlinear, m = 2), then on two mixed
                problems whose uncertain input's sign changes across the
                random support: 0.5 + x0 y0 (m = n = 1) and 0.5 + x0 (y0 +
                0.3 y0^3) + 0.1 x1 (m = 2, n = 1), with the calls and rows
                each makes
  box           hybrel.solver._solve_box_qp on a fixed seeded set of
                gradients and targets, per kind of solve the count and one
                sha256 of the delta bytes: targets inside the reach, top
                and bottom clamps, targets 0 and +-1e-300, magnitudes from
                1e-8 to 1e8 (where the window of floats around the
                breakpoint inverse can miss), and squares that under- or
                overflow
  laws          the public chi-square, chi and shifted-chi cumulative
                functions and densities and both cosine-angle functions
                at dof or total_dim 1, 2, 3, 5 and 12 (the cosine-angle
                ones from 2), on fixed grids with negative, zero, tiny and
                near-+-1 arguments, one entry per dimension and one field
                per law; then the two input laws' methods, one entry per
                parameter set: Normal(mean, stddev) pdf, cdf and inv_cdf
                at standard scores out to +-40 and at levels down to the
                smallest subnormal and up to 1 - 2^-53, and
                LinearUncertain(lower, upper) cdf below, at, inside and
                above its bounds and inv at levels from 0 to 1

Both sides take the manifest's inputs from this tree's
perfbench/workloads.py.  --limit N keeps the manifest's first N entries,
in the order above.  The script prints "identical" per group, or per
field the largest relative change and the largest absolute change in ulps
of the old value (math.ulp), each with the entry where it occurs, and exits
1 when any entry differs.  A value that moves by one rounding reads as one
ulp however small it is.  A field that is an integer on both sides, such
as a call count, reads as its largest move, old -> new, and how many
entries moved.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BELIEF_SEEDS = (1, 1001)
CLI_CASES = (("linear", ("--case", "linear")),
             ("crank_slider_t40", ("--case", "crank_slider", "--t", "40")),
             ("cantilever_tube", ("--case", "cantilever_tube")))
CLI_COMMANDS = (("run",), ("run", "--format", "json"), ("curve",),
                ("design-point",))
# (name, limit state over points and batches alike, (mean, stddev) per random
# input, (lower, upper) per uncertain input)
ORACLE_PROBLEMS = (
    ("affine m=2", lambda x, y: 3.0 - x.T[0] - 2.0 * x.T[1],
     ((1.0, 0.5), (-0.2, 1.5)), ()),
    ("nonlinear m=1", lambda x, y: 1.2 - (x.T[0] - 0.5) * (x.T[0] - 0.5),
     ((0.4, 0.8),), ()),
    ("nonlinear m=2", lambda x, y: 3.0 - 0.5 * x.T[0] * x.T[0] - x.T[1],
     ((0.0, 1.0), (0.5, 1.2)), ()),
    ("mixed m=1 n=1", lambda x, y: 0.5 + x.T[0] * y.T[0],
     ((0.0, 1.0),), ((-1.0, 1.0),)),
    ("mixed m=2 n=1",
     lambda x, y: 0.5 + x.T[0] * (y.T[0] + 0.3 * y.T[0] ** 3) + 0.1 * x.T[1],
     ((0.0, 1.0), (0.0, 1.0)), ((-1.0, 1.0),)),
)

BOX_SOLVES = 200  # seeded box solves per kind

LAW_DIMS = (1, 2, 3, 5, 12)
LAW_POINTS = (-2.0, -0.5, 0.0, 1e-170, 1e-8, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0,
              9.0, 25.0, 60.0)
LAW_SHIFTS = (0.0, 0.5, 1.0, 2.25, 7.0)
COSINES = (-1.5, -1.0, -1.0 + 1e-15, -1.0 + 1e-9, -0.999, -0.5, 0.0, 0.3, 0.9,
           1.0 - 1e-12, 1.0 - 1e-15, 1.0, 2.0)
NORMAL_LAWS = ((0.0, 1.0), (0.3, 1.7), (-50.0, 1e-3), (1e6, 250.0))
Z_SCORES = (-40.0, -38.5, -9.0, -1.0, 0.0, 1e-300, 0.5, 1.96, 8.0, 9.0, 38.5, 40.0)
NORMAL_LEVELS = (5e-324, 1e-300, 1e-16, 1e-8, 0.025, 0.5, 0.975, 1.0 - 1e-8,
                 1.0 - 2.0 ** -53)
LINEAR_LAWS = ((-1.0, 1.0), (2.0, 4.0), (94.0, 106.0), (-1e-9, 3e-9))
LINEAR_SHARES = (-1.0, 0.0, 1e-12, 0.3, 0.5, 1.0 - 1e-12, 1.0, 2.0)
LINEAR_LEVELS = (0.0, 5e-324, 1e-16, 0.25, 0.5, 0.7, 1.0 - 2.0 ** -53, 1.0)


def _box_inputs():
    """{kind: [(grad, target), ...]} of the box group, from default_rng(0)."""
    rng = np.random.default_rng(0)

    def grad(size=6, decades=3.0):
        return rng.normal(size=size) * 10.0 ** rng.uniform(-decades, decades, size)

    def share_of(g, share):
        return g, share * float(np.abs(g).sum())

    def extreme(g):
        # one entry whose square overflows or underflows
        g[rng.integers(g.size)] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.choice(
            [rng.uniform(155.0, 160.0), rng.uniform(-170.0, -160.0)])
        return g

    def sparse(g):
        g[rng.random(g.size) < 0.2] = 0.0
        return g

    kinds = {
        "inside": lambda: share_of(sparse(grad()), rng.uniform(-0.99, 0.99)),
        "top clamp": lambda: share_of(grad(), rng.choice([1.0, rng.uniform(1.0, 1.5)])),
        "bottom clamp": lambda: share_of(grad(),
                                         rng.choice([-1.0, rng.uniform(-1.5, -1.0)])),
        "targets 0 and +-1e-300": lambda: (grad(), rng.choice([0.0, 1e-300, -1e-300])),
        "magnitudes 1e-8 to 1e8": lambda: share_of(grad(decades=8.0),
                                                   rng.uniform(-1.2, 1.2)),
        "squares under or overflow": lambda: share_of(extreme(grad(size=4, decades=1.0)),
                                                      rng.uniform(-1.2, 1.2)),
    }
    return {kind: [draw() for _ in range(BOX_SOLVES)] for kind, draw in kinds.items()}


def _manifest():
    """(group, name, thunk) per entry, each thunk giving a JSON-able dict."""
    from hybrel import (HybridProblem, LinearUncertain, Normal, RandomVariable,
                        RunSettings, UncertainVariable, chi_cdf, chi_pdf,
                        chi_square_cdf, chi_square_pdf, cos_angle_cdf,
                        cos_angle_pdf, get_case, reliability_reference, run_case,
                        shifted_chi_cdf, shifted_chi_pdf)
    from hybrel.solver import _solve_box_qp

    import workloads as wl

    def counted(problem):
        """problem whose callables count scalar calls, batch calls and
        batch rows, and the counts."""
        counts = {"lsf_calls": 0, "lsf_batch_calls": 0, "lsf_batch_rows": 0}

        def lsf(x, y):
            counts["lsf_calls"] += 1
            return problem.lsf(x, y)

        def lsf_batch(x, y):
            counts["lsf_batch_calls"] += 1
            counts["lsf_batch_rows"] += len(x)
            return problem.lsf_batch(x, y)

        return dataclasses.replace(problem, lsf=lsf, lsf_batch=(
            None if problem.lsf_batch is None else lsf_batch)), counts

    def report(case, settings):
        problem, counts = counted(case.problem)
        values = wl.report_values(run_case(
            dataclasses.replace(case, problem=problem), settings))
        names = ("beta", "d", "D", "F_lo", "F_hi", "R_lo", "R_hi", "curve",
                 "converged", "trace")
        out = dict(zip(names, values))
        out["trace"] = [dataclasses.astuple(record) for record in out["trace"]]
        return {**out, **counts}

    def oracle(lsf, moments, bounds=()):
        problem, counts = counted(HybridProblem(
            lsf=lsf, lsf_batch=lsf,
            randoms=[RandomVariable(f"x{i}", *mv) for i, mv in enumerate(moments)],
            uncertains=[UncertainVariable(f"y{i}", *lu) for i, lu in enumerate(bounds)]))
        return {"reliability": reliability_reference(problem), **counts}

    def box(solves):
        digest = hashlib.sha256()
        with np.errstate(over="ignore"):  # grad . grad may be inf
            for grad, target in solves:
                digest.update(_solve_box_qp(grad, target).tobytes())
        return {"solves": len(solves), "sha256": digest.hexdigest()}

    def laws(dim):
        x = np.array(LAW_POINTS)
        out = {"chi_square_cdf": chi_square_cdf(x, dim), "chi_cdf": chi_cdf(x, dim),
               "shifted_chi_cdf": [shifted_chi_cdf(x, dim, s) for s in LAW_SHIFTS],
               "chi_square_pdf": chi_square_pdf(x, dim), "chi_pdf": chi_pdf(x, dim),
               "shifted_chi_pdf": [shifted_chi_pdf(x, dim, s) for s in LAW_SHIFTS]}
        if dim >= 2:
            cosines = np.array(COSINES)
            out["cos_angle_cdf"] = cos_angle_cdf(cosines, dim)
            out["cos_angle_pdf"] = cos_angle_pdf(cosines, dim)
        return {law: np.asarray(values).tolist() for law, values in out.items()}

    def normal(mean, stddev):
        dist = Normal(mean, stddev)
        x = mean + stddev * np.array(Z_SCORES)
        return {"Normal.pdf": dist.pdf(x).tolist(), "Normal.cdf": dist.cdf(x).tolist(),
                "Normal.inv_cdf": dist.inv_cdf(np.array(NORMAL_LEVELS)).tolist()}

    def linear(lower, upper):
        dist = LinearUncertain(lower, upper)
        x = lower + (upper - lower) * np.array(LINEAR_SHARES)
        return {"LinearUncertain.cdf": dist.cdf(x).tolist(),
                "LinearUncertain.inv": dist.inv(np.array(LINEAR_LEVELS)).tolist()}

    def cli(args):
        proc = subprocess.run([sys.executable, "-m", "hybrel.cli", *args],
                              capture_output=True, text=True)
        return {"stdout": proc.stdout, "stderr": proc.stderr,
                "exit_code": proc.returncode}

    entries = [("paper rows", name,
                lambda key=key, params=params: report(get_case(key, **params),
                                                      RunSettings()))
               for name, key, params in wl.PAPER_ROWS]
    belief = RunSettings(alpha_levels=wl.BELIEF_LEVELS)
    for seed in BELIEF_SEEDS:
        entries += [("belief rows", f"seed {seed} row {i}",
                     lambda row=row: report(wl.affine_case(row), belief))
                    for i, row in enumerate(wl.belief_rows(seed))]
    entries += [("cli", f"{' '.join(command)} {name}",
                 lambda args=(*command, *case_args): cli(args))
                for name, case_args in CLI_CASES for command in CLI_COMMANDS]
    entries.append(("cli", "mcs cantilever_tube",
                    lambda: cli(("mcs", "--case", "cantilever_tube"))))
    entries += [("oracle", name, lambda args=args: oracle(*args))
                for name, *args in ORACLE_PROBLEMS]
    entries += [("box", kind, lambda solves=solves: box(solves))
                for kind, solves in _box_inputs().items()]
    entries += [("laws", f"dim {dim}", lambda dim=dim: laws(dim)) for dim in LAW_DIMS]
    entries += [("laws", f"Normal{law}", lambda law=law: normal(*law))
                for law in NORMAL_LAWS]
    entries += [("laws", f"LinearUncertain{law}", lambda law=law: linear(*law))
                for law in LINEAR_LAWS]
    return entries


def emit(limit):
    """Print the manifest's outputs, as JSON, for the hybrel on sys.path."""
    outputs = [[group, name, thunk()] for group, name, thunk in _manifest()[:limit]]
    json.dump(outputs, sys.stdout)


def side_outputs(src, limit):
    """The manifest's outputs with `src` first on the path, from a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(ROOT / "perfbench")]))
    limit_args = () if limit is None else ("--limit", str(limit))
    proc = subprocess.run([sys.executable, __file__, "--emit", *limit_args],
                          stdout=subprocess.PIPE, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def _flat(value):
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _flat(item)]
    return [value]


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _count(value):
    return isinstance(value, int) and not isinstance(value, bool)


def relative_change(old, new):
    """|new - old| / max(|old|, |new|) of two numbers, 0.0 when they are
    the same number (-0.0 is not 0.0), inf when they differ otherwise or
    are not both numbers and differ."""
    if not (_number(old) and _number(new)):
        return 0.0 if old == new and type(old) is type(new) else math.inf
    old, new = float(old), float(new)
    if math.copysign(1.0, old) == math.copysign(1.0, new) and (
            old == new or (math.isnan(old) and math.isnan(new))):
        return 0.0
    if math.isfinite(old) and math.isfinite(new) and old != new:
        return abs(new - old) / max(abs(old), abs(new))
    return math.inf


def ulp_change(old, new):
    """|new - old| in ulps of old (math.ulp) where relative_change is
    finite and nonzero, else relative_change itself."""
    change = relative_change(old, new)
    if change == 0.0 or change == math.inf:
        return change
    return abs(float(new) - float(old)) / math.ulp(float(old))


def compare(before, after):
    """Lines saying, per group, "identical" or each differing field's
    largest relative change and largest change in ulps of the old value,
    each with the entry where it occurs; an integer field's largest move
    as old -> new instead, with how many entries moved."""
    worst = {}  # (group, field) -> [(change, entry name), (ulps, entry name)]
    moves = {}  # (group, field) -> [entries moved, (|new - old|, old, new, entry name)]
    groups = []
    for (group, name, old), (_, _, new) in zip(before, after):
        if group not in groups:
            groups.append(group)
        for field in old:
            if _count(old[field]) and _count(new[field]):
                record = moves.setdefault((group, field), [0, (0, None, None, None)])
                step = abs(new[field] - old[field])
                record[0] += step > 0
                if step > record[1][0]:
                    record[1] = step, old[field], new[field], name
                continue
            olds, news = _flat(old[field]), _flat(new[field])
            if len(olds) != len(news):
                changes = (math.inf, math.inf)
            else:
                changes = (max(map(relative_change, olds, news), default=0.0),
                           max(map(ulp_change, olds, news), default=0.0))
            record = worst.setdefault((group, field), [(0.0, None), (0.0, None)])
            for i, change in enumerate(changes):
                if change > record[i][0]:
                    record[i] = change, name
    lines = []
    for group in groups:
        fields = [(field, record) for (g, field), record in worst.items()
                  if g == group and record[0][0] > 0.0]
        counts = [(field, record) for (g, field), record in moves.items()
                  if g == group and record[0] > 0]
        if not fields and not counts:
            lines.append(f"{group}: identical")
        for field, ((change, name), (ulps, ulp_name)) in fields:
            if change == math.inf:
                lines.append(f"{group}: {field}: differs ({name})")
            else:
                lines.append(f"{group}: {field}: largest relative change "
                             f"{change:.3g} ({name}), largest change "
                             f"{ulps:.4g} ulps ({ulp_name})")
        for field, (moved, (_, old, new, name)) in counts:
            lines.append(f"{group}: {field}: largest move {old} -> {new} "
                         f"({name}), entries moved: {moved}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--limit", type=int, default=None,
                        help="keep the manifest's first N entries")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit(args.limit)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        before = side_outputs(Path(tmp) / "src", args.limit)
    after = side_outputs(ROOT / "src", args.limit)
    print(f"against {args.against}: {len(after)} manifest entries")
    lines = compare(before, after)
    print("\n".join(lines))
    return 0 if all(line.endswith(": identical") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
