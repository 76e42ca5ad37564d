#!/usr/bin/env python3
"""Single-shot detection: fidelity sweep, histograms and decomposition.

Usage: python scripts/reproduce_detection.py [--runs 3000] [--seed 1] [--out DIR]
"""

import argparse

from rydberg_transistor import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, default in (("--runs", 3000), ("--seed", 1), ("--out", "out/detection")):
        parser.add_argument(flag, type=type(default), default=default)
    args = parser.parse_args()
    if code := cli.main(["detect", "--config", "paper90us", "--runs", str(args.runs),
                         "--seed", str(args.seed), "--output", args.out, "--force"]):
        return code
    _, rows = cli.read_table(f"{args.out}/fidelity_sweep.csv")
    print(f"{args.runs} runs/point, n_stored = 0.61, od_st 2.2 instantaneous "
          "(0.94 effective over 90 us)")
    print(f"{'mu0':>5} {'tau':>4} {'fidelity':>9} {'balanced':>9} {'model':>7}")
    for mu0, tau, fidelity, balanced, model, *_ in rows:
        print(f"{mu0:5.0f} {int(tau):4d} {fidelity:9.3f} {balanced:9.3f} {model:7.3f}")
    print(f"fidelity within 0.72(5) at mu0 = {[r[0] for r in rows if abs(r[2] - 0.72) <= 0.05]}")
    best = float(cli.read_record(f"{args.out}/detect_report.csv")["mu0"])
    print(f"wrote sweep + histograms for mu0 = {best:.0f} to {args.out}/")


if __name__ == "__main__":
    raise SystemExit(main())
