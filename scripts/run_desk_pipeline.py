#!/usr/bin/env python3
"""Full desk-scale pipeline: pretrain, baselines, and fine-tuning arms.

Runs the self-supervised pretraining recipe over several seeds on the
synthetic corpus, measures held-out verification EER against a random
untrained encoder, then fine-tunes with supervised objectives from both
the pretrained and a random initialization at an equal epoch budget.
Everything is seeded, so a rerun reproduces the table byte for byte.
"""

from __future__ import annotations

import argparse
import statistics
import time
from pathlib import Path

from cel.config import desk_profile
from cel.experiments import finetune_arm, held_out_set, pretrain_arm, random_encoder_eer


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs/desk"), help="artifact root")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2], help="run seeds")
    ap.add_argument(
        "--objectives", nargs="+", default=["aprot", "cosface", "ge2e"],
        help="fine-tuning objectives to compare",
    )
    ap.add_argument(
        "--skip-finetune", action="store_true", help="stop after the pretraining arms"
    )
    args = ap.parse_args()

    run = desk_profile()
    t_start = time.perf_counter()

    eval_src, trials, bank = held_out_set(run)
    print(f"held-out trials: {len(trials)} over {eval_src.speaker_count} speakers")

    random_eers = [
        random_encoder_eer(
            eval_src, trials, run.encoder, run.features, seed,
            bank=bank, aug_seed=run.corpus.seed,
        )
        for seed in args.seeds
    ]
    print(f"random encoder EER per seed: {[f'{v:.1%}' for v in random_eers]}  "
          f"median {statistics.median(random_eers):.1%}")

    checkpoints: dict[int, Path] = {}
    pretrain_eers = []
    for seed in args.seeds:
        out_dir = args.out / f"pretrain-seed{seed}"
        value, result = pretrain_arm(run, seed, out_dir=out_dir)
        checkpoints[seed] = Path(result.checkpoint_path)
        pretrain_eers.append(value)
        print(f"pretrain seed {seed}: held-out EER {value:.1%}  -> {out_dir}")
    print(f"pretrain median EER: {statistics.median(pretrain_eers):.1%}")

    if not args.skip_finetune:
        print(f"\nfine-tuning at equal budget ({run.finetune.epochs} epochs):")
        print(f"{'objective':>10s}  {'pretrained':>10s}  {'random':>10s}")
        for objective in args.objectives:
            pre, rand = [], []
            for seed in args.seeds:
                v_pre, _ = finetune_arm(
                    run, seed, objective, checkpoints[seed],
                    out_dir=args.out / f"ft-{objective}-pre-seed{seed}",
                )
                v_rand, _ = finetune_arm(
                    run, seed, objective, None,
                    out_dir=args.out / f"ft-{objective}-rand-seed{seed}",
                )
                pre.append(v_pre)
                rand.append(v_rand)
            print(
                f"{objective:>10s}  {statistics.median(pre):>10.1%}  "
                f"{statistics.median(rand):>10.1%}"
            )

    print(f"\ntotal wall time: {time.perf_counter() - t_start:.0f}s")


if __name__ == "__main__":
    main()
