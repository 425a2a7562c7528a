#!/usr/bin/env python3
"""Ablation over the uniformity weight in the pretraining objective.

Pretrains the desk-scale recipe for each requested weight over several
seeds and reports per-seed and median held-out EER, isolating what the
uniformity term contributes on top of the similarity term alone.
"""

from __future__ import annotations

import argparse
import statistics
import time
from pathlib import Path

from cel.config import load_config
from cel.experiments import pretrain_arm

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs/ablation"), help="artifact root")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2], help="run seeds")
    ap.add_argument(
        "--weights", type=float, nargs="+", default=[0.0, 1.0],
        help="uniformity weights to compare",
    )
    args = ap.parse_args()

    run = load_config(DESK_CONFIG)
    t_start = time.perf_counter()

    print(f"{'weight':>7s}  {'per-seed EER':<24s}  {'median':>7s}")
    for weight in args.weights:
        eers = []
        for seed in args.seeds:
            out_dir = args.out / f"unif{weight:g}-seed{seed}"
            value, _ = pretrain_arm(run, seed, uniformity_weight=weight, out_dir=out_dir)
            eers.append(value)
        cells = " ".join(f"{v:.1%}" for v in eers)
        print(f"{weight:>7g}  {cells:<24s}  {statistics.median(eers):>7.1%}")

    print(f"\ntotal wall time: {time.perf_counter() - t_start:.0f}s")


if __name__ == "__main__":
    main()
