#!/usr/bin/env python3
"""Gain and source transfer function over the source input range.

Usage: python scripts/reproduce_gain.py [--runs 3000] [--seed 1] [--out DIR]
"""

import argparse
import os

from rydberg_transistor import cli, models

CFG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gain_transfer.cfg")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, default in (("--runs", 3000), ("--seed", 1), ("--out", "out/gain")):
        parser.add_argument(flag, type=type(default), default=default)
    args = parser.parse_args()
    common = ["--runs", str(args.runs), "--seed", str(args.seed), "--output", args.out, "--force"]
    for argv in (["gain-scan", "--config", "paper90us"], ["transfer-scan", "--config", CFG],
                 ["fit-saturation", "--config", CFG, "--input", f"{args.out}/transfer_scan.csv"]):
        if code := cli.main([*argv, *common]):
            return code
    fit = cli.read_record(f"{args.out}/fit_saturation.csv")
    config = cli.load_config("paper90us")[1]
    p, a = models.TransistorParams(**config["transistor"]), config["saturation"]["a"]
    c_coh = models.expected_contrast_incoming(config["simulation"]["n_gate_in"], p.od_sp, p.cap)
    print(f"transfer fit: a = {float(fit['a']):.2f}, b = {float(fit['b']):.2f} (truth 46, 70)")
    print(f"coherent contrast at {config['simulation']['n_gate_in']} photons: {c_coh:.3f}")
    print(f"asymptotic gains: coherent {c_coh * a:.2f}, "
          f"single photon {models.fock_contrast(1, p.od_sp, p.cap) * a:.2f}, "
          f"single stored excitation {models.fock_contrast(1, p.od_st, p.cap) * a:.2f}")
    print(f"wrote {args.out}/gain_scan.csv, transfer_scan.csv and fit_saturation.csv")


if __name__ == "__main__":
    raise SystemExit(main())
