"""Time one limit-state call of each built-in case, in microseconds.

For each case, three figures at the nominal point (random means, uncertain
box centres) and one over seeded points:

  point   problem.lsf(x, y) on the physical point, the call the
          design-point search makes through StandardizedProblem.lsf_omega
  row     one row of a central-difference stencil through
          StandardizedProblem.lsf_omega_rows (the 2(m+n) rows of one
          gradient, the per-row mapping and response check included)
  stencil one finite-difference pass of model._central_differences at
          the case's dimension, with the point as row 0 as a refinement
          pass of the design-point search takes it, on an evaluator that
          returns zeros: the pass's own set-up and arithmetic, no
          limit-state call
  batch   one row of a 10,000-row problem.lsf_batch call, the call Monte
          Carlo makes, at points drawn as it draws them (randoms from their
          normals, uncertains uniformly from their intervals; seed 0), timed
          in a fresh interpreter per case so that the heap the point and
          stencil loops leave behind does not move it

A second table replays the box solves (the continuous quadratic knapsack
of each refinement pass) that the design-point searches of the tube and of
crank_slider t=40 make, and times those searches:

  solve_us    one box solve, on the recorded gradients and targets
  reach_calls float-reach evaluations per solve, one float or a window of
              consecutive floats each
  reach_rows  floats at which the reach is evaluated per solve, every float
              of a window included
  blocks      StandardizedProblem.lsf_omega_rows calls the search makes:
              its blocks of limit-state rows, each refinement pass of the
              box seeds, each HLRF gradient and each corner evaluation one
  search_ms   one find_design_point call, the best of --repeat

Each figure is the best of --repeat timeit runs of --number calls, or of
whole stencils, batches or solve replays totalling about --number rows or
solves, per call, row or solve.  The runs share one process and are not
scaled by the host's speed, so the figures cannot resolve a before/after
change of 5-20% on a shared host: on a 2-vCPU sandbox whose speed swung by
about 1.8x within a round, 5 alternated runs per side of the same code read
the tube's box solve at 15.6-27.9 us and a tube stencil row at 1.98-3.34
us.  Compare two trees with perfbench's alternated runs instead.

    python scripts/lsf_call_us.py [--number 20000] [--repeat 5]
"""

import argparse
import subprocess
import sys
import timeit
from unittest import mock

import numpy as np

from hybrel import CASE_KEYS, find_design_point, get_case, solver, standardize
from hybrel.model import StandardizedProblem, _central_differences

BATCH_ROWS = 10_000
# (case key, parameters) of the searches whose box solves are replayed
SEARCHES = (("cantilever_tube", {}), ("crank_slider", {"t": 40.0}))


def best_us(call, calls, repeat):
    """Best of `repeat` runs of `calls` calls of `call`, in us per call."""
    return min(timeit.repeat(call, number=calls, repeat=repeat)) / calls * 1e6


def batch_row_us(key, number, repeat):
    """us per row of a BATCH_ROWS-row lsf_batch call of case `key`."""
    problem = get_case(key).problem
    std = standardize(problem)
    rng = np.random.default_rng(0)
    u_rows = rng.standard_normal((BATCH_ROWS, problem.m))
    delta_rows = rng.uniform(-1.0, 1.0, (BATCH_ROWS, problem.n))
    # contiguous, as Monte Carlo's draws are
    x_rows, y_rows = map(np.ascontiguousarray,
                         std.physical(np.hstack([u_rows, delta_rows])))
    return best_us(lambda: problem.lsf_batch(x_rows, y_rows),
                   max(1, number // BATCH_ROWS), repeat) / BATCH_ROWS


def search(key, params, repeat):
    """(problem name, [(grad, target)] of every box solve its search makes,
    its lsf_omega_rows calls, its best-of-`repeat` time in ms)."""
    problem = get_case(key, **params).problem
    std = standardize(problem)
    with mock.patch.object(solver, "_solve_box_qp",
                           wraps=solver._solve_box_qp) as solve, \
            mock.patch.object(StandardizedProblem, "lsf_omega_rows", autospec=True,
                              side_effect=StandardizedProblem.lsf_omega_rows) as rows:
        find_design_point(std)
    search_ms = min(timeit.repeat(lambda: find_design_point(std), number=1,
                                  repeat=repeat)) * 1e3
    return (problem.name, [call.args for call in solve.call_args_list],
            rows.call_count, search_ms)


def reach_counts(solves):
    """(float-reach evaluations, floats evaluated) over one replay of solves."""
    with mock.patch.object(solver, "_reach", wraps=solver._reach) as one, \
            mock.patch.object(solver, "_reaches", wraps=solver._reaches) as window:
        for args in solves:
            solver._solve_box_qp(*args)
    rows = sum(len(call.args[1]) for call in window.call_args_list)
    return one.call_count + window.call_count, one.call_count + rows


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--number", type=int, default=20_000)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--batch-case", choices=CASE_KEYS,
                        help="print only the batch figure of this case")
    args = parser.parse_args()
    if args.batch_case is not None:
        print(batch_row_us(args.batch_case, args.number, args.repeat))
        return

    print(f"{'case':<18} {'point_us':>9} {'row_us':>9} {'stencil_us':>10} "
          f"{'batch_us':>9}")
    for key in CASE_KEYS:
        problem = get_case(key).problem
        std = standardize(problem)
        k = problem.m + problem.n
        x, y = std.physical(np.zeros(k))
        # rows 2i and 2i + 1 step coordinate i of the origin by +h and -h
        stencil = np.repeat(np.eye(k), 2, axis=0) * np.tile([1e-6, -1e-6], k)[:, None]
        point = best_us(lambda: problem.lsf(x, y), args.number, args.repeat)
        stencils = max(1, args.number // (2 * k))
        row = best_us(lambda: std.lsf_omega_rows(stencil),
                      stencils, args.repeat) / (2 * k)
        zeros = np.zeros(2 * k + 1)
        omega = np.zeros(k)
        fd_pass = best_us(lambda: _central_differences(lambda rows: zeros, omega,
                                                       1e-6, with_point=True),
                          stencils, args.repeat)
        batch = float(subprocess.run(
            [sys.executable, __file__, "--batch-case", key,
             "--number", str(args.number), "--repeat", str(args.repeat)],
            capture_output=True, text=True, check=True).stdout)
        print(f"{problem.name:<18} {point:9.2f} {row:9.2f} {fd_pass:10.2f} "
              f"{batch:9.3f}")

    print(f"\n{'search':<18} {'solves':>9} {'solve_us':>9} {'reach_calls':>11} "
          f"{'reach_rows':>10} {'blocks':>7} {'search_ms':>9}")
    for key, params in SEARCHES:
        name, solves, blocks, search_ms = search(key, params, args.repeat)
        replays = max(1, args.number // len(solves))
        solve_us = best_us(lambda: [solver._solve_box_qp(*a) for a in solves],
                           replays, args.repeat) / len(solves)
        calls, rows = reach_counts(solves)
        print(f"{name:<18} {len(solves):9d} {solve_us:9.2f} "
              f"{calls / len(solves):11.2f} {rows / len(solves):10.2f} "
              f"{blocks:7d} {search_ms:9.2f}")


if __name__ == "__main__":
    main()
