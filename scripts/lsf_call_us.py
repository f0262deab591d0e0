"""Time one limit-state call of each built-in case, in microseconds.

For each case, two figures at the nominal point (random means, uncertain
box centres):

  point   problem.lsf(x, y) on the physical point, the call the
          design-point search makes through lsf_std
  row     one row of a central-difference stencil through
          StandardizedProblem.lsf_std_rows (the 2(m+n) rows of one
          gradient, the per-row mapping and response check included)

Each figure is the best of --repeat timeit runs of --number calls, or of
whole stencils totalling about --number rows, per call or row.

    python scripts/lsf_call_us.py [--number 20000] [--repeat 5]
"""

import argparse
import timeit

import numpy as np

from hybrel import CASE_KEYS, get_case, standardize


def best_us(call, calls, repeat):
    """Best of `repeat` runs of `calls` calls of `call`, in us per call."""
    return min(timeit.repeat(call, number=calls, repeat=repeat)) / calls * 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--number", type=int, default=20_000)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"{'case':<18} {'point_us':>9} {'row_us':>9}")
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
        print(f"{problem.name:<18} {point:9.2f} {row:9.2f}")


if __name__ == "__main__":
    main()
