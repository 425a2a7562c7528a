"""Command-line entry point for the full pipeline.

One binary with subcommands (gen-data, pretrain, finetune, evaluate,
gradcheck) sharing a single config schema. Precedence for every setting is
flag > config file > built-in default, and the effective config is echoed
into the output directory so a run can be reproduced from its artifacts
alone. Verbosity comes from the CEL_LOG env var (quiet, info, debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, config_from_dict, load_config, save_config
from .corpus import build_manifest, load_manifest, write_corpus
from .encoder import load_encoder
from .errors import CelError, CheckpointMismatchError
from .evaluation import (
    det_points,
    eer,
    min_dcf,
    read_trial_list,
    score_trials,
    write_det_csv,
    write_trial_list,
)
from .gradcheck import ALL_SCOPES, run_suite
from .trainer import (
    FINETUNE_OBJECTIVES,
    SIMILARITY_KINDS,
    CorpusSource,
    embed_utterances,
    finetune as run_finetune,
    pretrain as run_pretrain,
)

log = logging.getLogger("cel")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("CEL_LOG", "info").lower()
    if name not in _LOG_LEVELS:
        raise CelError(
            f"CEL_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}"
        )
    logging.basicConfig(level=_LOG_LEVELS[name], format="%(levelname)s %(message)s")


def _base_config(args: argparse.Namespace) -> RunConfig:
    """The config file over the defaults, then the given flags over both.

    A training flag's dest is its dotted config key, so its value is checked
    exactly as the same value in the file would be. --seed goes through
    `RunConfig.with_seed`.
    """
    run = load_config(args.config) if args.config else RunConfig()
    flags: dict[str, dict] = {}
    for key, value in vars(args).items():
        section, dot, name = key.partition(".")
        if dot:
            flags.setdefault(section, {})[name] = value
    run = config_from_dict(flags, base=run)
    seed = getattr(args, "seed", None)
    return run if seed is None else run.with_seed(seed)


def _echo(run: RunConfig, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(run, out / "config.json")


def cmd_gen_data(args: argparse.Namespace) -> int:
    run = _base_config(args)
    c = run.corpus
    manifest = build_manifest(
        c.n_speakers, c.utterances_per_speaker, c.duration_s, c.seed
    )
    _echo(run, args.out)
    path = write_corpus(manifest, args.out)
    total_s = c.n_speakers * c.utterances_per_speaker * c.duration_s
    print(
        f"wrote {c.n_speakers} speakers x {c.utterances_per_speaker} utterances "
        f"({total_s:.0f} s total) to {path.parent}"
    )
    return 0


def _source_from_dir(run: RunConfig, corpus_dir: str | Path) -> tuple[RunConfig, CorpusSource]:
    """`run` with the corpus settings of the manifest in `corpus_dir`, and its source."""
    manifest = load_manifest(Path(corpus_dir) / "manifest.tsv")
    return replace(run, corpus=manifest.config), CorpusSource(manifest, root=corpus_dir)


# Per training subcommand: its trainer, the config field naming its
# objective, and the verb of its summary line.
_TRAINERS = {
    "pretrain": (run_pretrain, "similarity_kind", "pretrained"),
    "finetune": (run_finetune, "objective", "finetuned"),
}


def cmd_train(args: argparse.Namespace) -> int:
    train, objective_field, done = _TRAINERS[args.command]
    run = _base_config(args)
    cfg = getattr(run, args.command)
    objective = getattr(cfg, objective_field)
    run, source = _source_from_dir(run, args.corpus)
    log.info(
        "%s (%s): %d speakers, %d epochs",
        args.command, objective, source.speaker_count, cfg.epochs,
    )
    result = train(
        source, cfg, run.encoder, run.features, out_dir=args.out,
        resume_from=args.resume,
    )
    _echo(run, args.out)
    last = result.records[-1]
    print(
        f"{done} {cfg.epochs} epochs ({objective}): loss {last.loss_total:.4f} "
        f"(unif {last.loss_unif:.4f}, sim {last.loss_sim:.4f}); "
        f"checkpoint {result.checkpoint_path}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    run = _base_config(args)
    trials = read_trial_list(args.trials)

    encoder_cfg, params = load_encoder(args.checkpoint)
    if encoder_cfg.input_dim != run.features.n_mels:
        raise CheckpointMismatchError(
            f"{args.checkpoint}: the encoder takes {encoder_cfg.input_dim} input rows, "
            f"but features.n_mels is {run.features.n_mels}"
        )
    run = replace(run, encoder=encoder_cfg)
    run, source = _source_from_dir(run, args.corpus)
    ids = {key for t in trials for key in (t.enroll_id, t.test_id)}
    embeddings = embed_utterances(source, params, encoder_cfg, run.features, ids=ids)
    scored = score_trials(embeddings, trials)

    e = run.evaluation
    eer_value, threshold = eer(scored)
    dcf_value, dcf_threshold = min_dcf(scored, e)
    out = Path(args.out)
    _echo(run, out)
    write_trial_list(out / "trials_scored.txt", scored)
    write_det_csv(out / "det.csv", det_points(scored))
    print(f"EER: {100.0 * eer_value:.2f}% (threshold {threshold:.4f})")
    print(f"MinDCF({e.c_miss:g},{e.c_fa:g},{e.p_target:g}): {dcf_value:.4f} "
          f"(threshold {dcf_threshold:.4f})")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    scopes = tuple(args.scope) if args.scope else ALL_SCOPES
    results = run_suite(scopes, seed=args.seed)
    print(f"{'loss':<10s} {'n':>4s} {'max_rel_err':>12s}  worst  status")
    for r in results:
        print(r.row())
    if all(r.passed for r in results):
        print("all gradient checks passed")
        return 0
    failing = [r for r in results if not r.passed]
    for r in failing:
        print(
            f"FAIL {r.name}: max relative error {r.max_rel_err:.3e} "
            f"at {r.worst_param}[{r.worst_coord}]",
            file=sys.stderr,
        )
    return 1


def _init_checkpoint(text: str) -> str | None:
    """--init's value: a checkpoint path, or None for 'random'."""
    return None if text == "random" else text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cel",
        description="Self-supervised speaker embeddings: uniformity-regularized "
        "contrastive pretraining, supervised fine-tuning, and verification scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file (flags override it)")

    def setting(p: argparse.ArgumentParser, flag: str, key: str, **kwargs) -> None:
        """A flag that sets the config key `key`; absent, it sets nothing."""
        p.add_argument(flag, dest=key, default=argparse.SUPPRESS, **kwargs)

    def training(name: str, summary: str) -> argparse.ArgumentParser:
        """A training subcommand with the options both training stages take."""
        p = sub.add_parser(name, help=summary)
        config(p)
        p.add_argument("--seed", type=int,
                       help="training seed: sets pretrain.seed and finetune.seed")
        p.add_argument("--corpus", required=True, help="directory from gen-data")
        p.add_argument("--out", required=True, help="run output directory")
        p.add_argument("--resume", help="checkpoint to continue from")
        p.set_defaults(func=cmd_train)
        return p

    p = sub.add_parser("gen-data", help="synthesize a labeled corpus")
    config(p)
    p.add_argument("--out", required=True, help="corpus output directory")
    p.set_defaults(func=cmd_gen_data)

    p = training("pretrain", "self-supervised pretraining")
    setting(p, "--k", "pretrain.k", type=int, help="speakers (utterances) per batch")
    setting(p, "--lambda", "pretrain.uniformity_weight", type=float,
            help="uniformity loss weight (0 disables the term)")
    setting(p, "--epochs", "pretrain.epochs", type=int)
    setting(p, "--similarity", "pretrain.similarity_kind", choices=SIMILARITY_KINDS,
            help="similarity loss flavor")

    p = training("finetune", "supervised fine-tuning")
    setting(p, "--objective", "finetune.objective", choices=FINETUNE_OBJECTIVES)
    setting(p, "--margin", "finetune.margin", type=float, help="additive margin m")
    setting(p, "--scale", "finetune.margin_scale", type=float, help="logit scale s")
    setting(p, "--init", "finetune.init_checkpoint", type=_init_checkpoint,
            help="'random' or a pretraining checkpoint path")
    setting(p, "--epochs", "finetune.epochs", type=int)

    p = sub.add_parser("evaluate", help="score a trial list with a checkpoint")
    config(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True, help="directory holding trial audio")
    p.add_argument("--trials", required=True, help="trial list file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=7,
                   help="seed of the random check instances (default: 7)")
    p.add_argument("--scope", action="append", choices=ALL_SCOPES,
                   help="restrict to one loss (repeatable); default: all")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stage = args.command
    try:
        _setup_logging()
        return args.func(args)
    except (CelError, OSError) as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
