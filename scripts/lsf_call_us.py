"""Time one limit-state call of each built-in case, in microseconds.

For each case, two figures at the nominal point (random means, uncertain
box centres) and one over seeded points:

  point   problem.lsf(x, y) on the physical point, the call the
          design-point search makes through lsf_std
  row     one row of a central-difference stencil through
          StandardizedProblem.lsf_std_rows (the 2(m+n) rows of one
          gradient, the per-row mapping and response check included)
  batch   one row of a 10,000-row problem.lsf_batch call, the call Monte
          Carlo makes, at points drawn as it draws them (randoms from their
          normals, uncertains uniformly from their intervals; seed 0), timed
          in a fresh interpreter per case so that the heap the point and
          stencil loops leave behind does not move it

Each figure is the best of --repeat timeit runs of --number calls, or of
whole stencils or batches totalling about --number rows, per call or row.

    python scripts/lsf_call_us.py [--number 20000] [--repeat 5]
"""

import argparse
import subprocess
import sys
import timeit

import numpy as np

from hybrel import CASE_KEYS, get_case, standardize

BATCH_ROWS = 10_000


def best_us(call, calls, repeat):
    """Best of `repeat` runs of `calls` calls of `call`, in us per call."""
    return min(timeit.repeat(call, number=calls, repeat=repeat)) / calls * 1e6


def batch_row_us(key, number, repeat):
    """us per row of a BATCH_ROWS-row lsf_batch call of case `key`."""
    problem = get_case(key).problem
    std = standardize(problem)
    rng = np.random.default_rng(0)
    x_rows = std.means + std.stddevs * rng.standard_normal((BATCH_ROWS, problem.m))
    y_rows = rng.uniform(std.centers - std.half_widths,
                         std.centers + std.half_widths, (BATCH_ROWS, problem.n))
    return best_us(lambda: problem.lsf_batch(x_rows, y_rows),
                   max(1, number // BATCH_ROWS), repeat) / BATCH_ROWS


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

    print(f"{'case':<18} {'point_us':>9} {'row_us':>9} {'batch_us':>9}")
    for key in CASE_KEYS:
        problem = get_case(key).problem
        std = standardize(problem)
        x, y = std.means, std.centers
        k = problem.m + problem.n
        # rows 2i and 2i + 1 step coordinate i of the origin by +h and -h
        stencil = np.repeat(np.eye(k), 2, axis=0) * np.tile([1e-6, -1e-6], k)[:, None]
        u_rows, delta_rows = stencil[:, :problem.m], stencil[:, problem.m:]
        point = best_us(lambda: problem.lsf(x, y), args.number, args.repeat)
        stencils = max(1, args.number // (2 * k))
        row = best_us(lambda: std.lsf_std_rows(u_rows, delta_rows),
                      stencils, args.repeat) / (2 * k)
        batch = float(subprocess.run(
            [sys.executable, __file__, "--batch-case", key,
             "--number", str(args.number), "--repeat", str(args.repeat)],
            capture_output=True, text=True, check=True).stdout)
        print(f"{problem.name:<18} {point:9.2f} {row:9.2f} {batch:9.3f}")


if __name__ == "__main__":
    main()
