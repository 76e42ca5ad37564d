#!/usr/bin/env python3
"""Single-shot detection: histograms, decomposition, threshold, fidelity sweep.

Simulates the gated/reference histogram pair with fly-away dynamics, sweeps
the no-gate mean over a plausible range, and reports where the single-shot
fidelity lands.

Usage:
    python scripts/reproduce_detection.py [--runs 3000] [--seed 1] [--out DIR]
"""

import argparse
import os

from rydberg_transistor.cli import (decomposition_table, fidelity_sweep_row, histogram_table,
                                    write_csv)
from rydberg_transistor.experiments import fidelity_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="out/detection")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    mu0_grid = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    reports = fidelity_sweep(mu0_grid, n_runs=args.runs, seed=args.seed)

    rows = [fidelity_sweep_row(r) for r in reports]
    write_csv(os.path.join(args.out, "fidelity_sweep.csv"), list(rows[0]),
              [list(row.values()) for row in rows])

    print(f"{args.runs} runs/point, n_stored = 0.61, od_st 2.2 instantaneous "
          "(0.94 effective over 90 us)")
    print(f"{'mu0':>5} {'tau':>4} {'fidelity':>9} {'balanced':>9} {'model':>7}")
    for r in reports:
        print(f"{r.mu0:5.0f} {r.tau:4d} {r.fidelity:9.3f} "
              f"{r.fidelity_balanced:9.3f} {r.threshold.fidelity:7.3f}")
    best = max(reports, key=lambda r: r.fidelity)
    write_csv(os.path.join(args.out, "gated_histogram.csv"), *histogram_table(best.gated_hist))
    write_csv(os.path.join(args.out, "reference_histogram.csv"),
              *histogram_table(best.reference_hist))
    write_csv(os.path.join(args.out, "decomposition.csv"),
              *decomposition_table(best.decomposition))
    in_band = [r.mu0 for r in reports if abs(r.fidelity - 0.72) <= 0.05]
    print(f"fidelity within 0.72(5) at mu0 = {in_band}")
    print(f"wrote sweep + histograms for mu0 = {best.mu0:.0f} to {args.out}/")


if __name__ == "__main__":
    main()
