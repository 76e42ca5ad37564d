#!/usr/bin/env python3
"""Contrast vs gate photon number: analytic curves next to a simulated scan.

Writes contrast_curves.csv (closed forms) and contrast_sim.csv (Monte Carlo)
and prints a side-by-side table.

Usage:
    python scripts/reproduce_contrast.py [--runs 4000] [--seed 1] [--out DIR]
"""

import argparse
import os

import numpy as np

from rydberg_transistor import models
from rydberg_transistor.cli import write_csv
from rydberg_transistor.experiments import incoming_scan_config
from rydberg_transistor.montecarlo import SimConfig, contrast_scan, scan_configs

OD_SP = 0.75
CAP = 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="out/contrast")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    grid = np.linspace(0.05, 3.5, 70).tolist()
    write_csv(os.path.join(args.out, "contrast_curves.csv"),
              ["n_gate_in", "model_contrast", "coherent_limit"],
              [[n, models.expected_contrast_incoming(n, OD_SP, CAP), models.coherent_limit(n)]
               for n in grid])

    gate_values = [0.25 * k for k in range(1, 15)]
    base = incoming_scan_config(SimConfig(
        params=models.TransistorParams(od_sp=OD_SP, cap=CAP),
        source_rate=0.69, t_int=30.0, retention_tau=float("inf"), seed=args.seed,
    ))
    ds = contrast_scan(scan_configs(base, gate_values), args.runs)
    write_csv(os.path.join(args.out, "contrast_sim.csv"), ["x", "y", "sigma"], ds.points)

    print(f"simulated contrast scan, {args.runs} runs/point, od_sp={OD_SP}, cap={CAP}")
    print(f"{'n_gate':>7} {'model':>8} {'sim':>8} {'sigma':>8} {'limit':>8}")
    for x, y, s in ds.points:
        model = models.expected_contrast_incoming(x, OD_SP, CAP)
        limit = models.coherent_limit(x)
        print(f"{x:7.2f} {model:8.4f} {y:8.4f} {s:8.4f} {limit:8.4f}")
    for k in (1, 2, 3):
        print(f"Fock k={k}: contrast {models.fock_contrast(k, OD_SP, CAP):.4f}")
    print(f"wrote {args.out}/contrast_curves.csv and contrast_sim.csv")


if __name__ == "__main__":
    main()
