#!/usr/bin/env python3
"""Contrast vs gate photon number: a simulated scan beside the closed forms.

Usage: python scripts/reproduce_contrast.py [--runs 4000] [--seed 1] [--out DIR]
"""

import argparse

from rydberg_transistor import cli, models


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, default in (("--runs", 4000), ("--seed", 1), ("--out", "out/contrast")):
        parser.add_argument(flag, type=type(default), default=default)
    args = parser.parse_args()
    if code := cli.main(["contrast-scan", "--config", "paper30us", "--runs", str(args.runs),
                         "--seed", str(args.seed), "--output", args.out, "--force"]):
        return code
    od_sp, cap = (cli.load_config("paper30us")[1]["transistor"][k] for k in ("od_sp", "cap"))
    print(f"simulated contrast scan, {args.runs} runs/point, od_sp={od_sp}, cap={cap}")
    print(f"{'n_gate':>7} {'model':>8} {'sim':>8} {'sigma':>8} {'limit':>8}")
    for x, y, s in cli.read_table(f"{args.out}/contrast_scan.csv")[1]:
        model = models.expected_contrast_incoming(x, od_sp, cap)
        print(f"{x:7.2f} {model:8.4f} {y:8.4f} {s:8.4f} {models.coherent_limit(x):8.4f}")
    for k in (1, 2, 3):
        print(f"Fock k={k}: contrast {models.fock_contrast(k, od_sp, cap):.4f}")
    print(f"wrote {args.out}/contrast_scan.csv")


if __name__ == "__main__":
    raise SystemExit(main())
