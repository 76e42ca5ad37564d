#!/usr/bin/env python3
"""Gain and source transfer function over the source input range.

Closed-form curves (coherent gate, single-photon Fock gate, single stored
excitation) plus a simulated with/without-gate transfer measurement at the
long-window operating point.

Usage:
    python scripts/reproduce_gain.py [--runs 3000] [--seed 1] [--out DIR]
"""

import argparse
import math
import os

import numpy as np

from rydberg_transistor import models
from rydberg_transistor.cli import write_csv
from rydberg_transistor.experiments import gain_scan_rows, transfer_dataset, transfer_scan
from rydberg_transistor.fitting import fit_saturation
from rydberg_transistor.montecarlo import SimConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="out/gain")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    params = models.TransistorParams(od_sp=0.45, od_st=0.94, cap=3)
    sat = models.SaturationParams(46.0, 70.0)

    rows = gain_scan_rows(params, sat, 0.75, np.linspace(10, 250, 25).tolist())
    header = list(rows[0].keys())
    write_csv(os.path.join(args.out, "gain_curves.csv"), header,
              [[row[k] for k in header] for row in rows])

    base = SimConfig(
        n_gate_in=0.61, p_store=1.0,
        params=models.TransistorParams(od_st=0.94, cap=3, a_ge=0.0, eta_det=0.31),
        sat=sat, t_int=90.0, retention_tau=math.inf, seed=args.seed,
    )
    points = transfer_scan(base, np.linspace(25, 250, 10), args.runs)
    write_csv(os.path.join(args.out, "transfer_sim.csv"),
              ["n_source_in", "no_gate_out", "no_gate_sigma", "with_gate_out", "with_gate_sigma"],
              [[p.n_source_in, p.no_gate_out, p.no_gate_sigma, p.with_gate_out, p.with_gate_sigma]
               for p in points])

    fit = fit_saturation(transfer_dataset(points), n_boot=100)
    c_coh = models.expected_contrast_incoming(0.75, 0.45, 3)
    print(f"transfer fit: a = {fit.params['a']:.2f}, b = {fit.params['b']:.2f} "
          f"(truth 46, 70)")
    print(f"coherent contrast at 0.75 photons: {c_coh:.3f}")
    print(f"asymptotic gains: coherent {c_coh * 46:.2f}, "
          f"single photon {models.fock_contrast(1, 0.45, 3) * 46:.2f}, "
          f"single stored excitation {models.fock_contrast(1, 0.94, 3) * 46:.2f}")
    print(f"wrote {args.out}/gain_curves.csv and transfer_sim.csv")


if __name__ == "__main__":
    main()
