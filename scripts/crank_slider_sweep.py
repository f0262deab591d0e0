"""Failure-rate trend of the crank-slider over operating time.

Sweeps t over [0, 40] and prints the failure interval from the polar
pipeline next to the reference failure chance in the paper's own measure
(`Ch ref`, one minus `reliability_reference` at 32 quadrature nodes) and
the Monte Carlo estimate; the friction coefficient grows with t, so every
column should rise monotonically.

    python scripts/crank_slider_sweep.py [--step 5] [--samples 1000000]
"""

import argparse

import numpy as np

from hybrel import (case_crank_slider, estimate_failure, reliability_reference,
                    run_case)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--step", type=float, default=5.0)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-mcs", action="store_true")
    args = parser.parse_args()

    print(f"{'t':>5} {'F_lo':>10} {'F_hi':>10} {'Ch ref':>10} {'MCS p':>10}")
    for t in np.arange(0.0, 40.0 + 1e-9, args.step):
        case = case_crank_slider(float(t))
        report = run_case(case)
        ch_ref = 1.0 - reliability_reference(case.problem, quad_nodes=32)
        if args.skip_mcs:
            mcs = "-"
        else:
            est = estimate_failure(case.problem, samples=args.samples, seed=args.seed)
            mcs = f"{est.p_hat:10.5f}"
        print(f"{t:5.1f} {report.F_lo:10.5f} {report.F_hi:10.5f} {ch_ref:10.5f} "
              f"{mcs:>10}")


if __name__ == "__main__":
    main()
