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
from .encoder import Encoder, EncoderConfig, load_checkpoint
from .errors import CelError, CorpusTooSmallError, DegenerateTrialsError
from .evaluation import (
    DcfParams,
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
    """Config file merged over defaults; flags are applied by the caller."""
    if getattr(args, "config", None):
        run = load_config(args.config)
    else:
        run = config_from_dict({})
    if getattr(args, "seed", None) is not None:
        run = run.with_seed(args.seed)
    return run


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


def _source_from_dir(corpus_dir: str | Path) -> CorpusSource:
    manifest = load_manifest(Path(corpus_dir) / "manifest.tsv")
    return CorpusSource(manifest, root=corpus_dir)


def cmd_pretrain(args: argparse.Namespace) -> int:
    run = _base_config(args)
    cfg = run.pretrain
    if args.k is not None:
        cfg = replace(cfg, k=args.k)
    if args.lam is not None:
        cfg = replace(cfg, uniformity_weight=args.lam)
    if args.epochs is not None:
        cfg = replace(cfg, epochs=args.epochs)
    if args.similarity is not None:
        cfg = replace(cfg, similarity_kind=args.similarity)
    run = replace(run, pretrain=cfg)

    source = _source_from_dir(args.corpus)
    _echo(run, args.out)
    log.info(
        "pretrain: %d speakers, k=%d, lambda=%g, t=%g, %d epochs",
        source.speaker_count, cfg.k, cfg.uniformity_weight, cfg.kernel_t, cfg.epochs,
    )
    result = run_pretrain(
        source, cfg, run.encoder, run.features, out_dir=args.out,
        resume_from=args.resume,
    )
    last = result.records[-1]
    print(
        f"pretrained {cfg.epochs} epochs: loss {last.loss_total:.4f} "
        f"(unif {last.loss_unif:.4f}, sim {last.loss_sim:.4f}); "
        f"checkpoint {result.checkpoint_path}"
    )
    return 0


def cmd_finetune(args: argparse.Namespace) -> int:
    run = _base_config(args)
    cfg = run.finetune
    if args.objective is not None:
        cfg = replace(cfg, objective=args.objective)
    if args.margin is not None:
        cfg = replace(cfg, margin=args.margin)
    if args.scale is not None:
        cfg = replace(cfg, margin_scale=args.scale)
    if args.epochs is not None:
        cfg = replace(cfg, epochs=args.epochs)
    if args.init is not None:
        cfg = replace(cfg, init_checkpoint=None if args.init == "random" else args.init)
    run = replace(run, finetune=cfg)

    source = _source_from_dir(args.corpus)
    if source.speaker_count < 2:
        raise CorpusTooSmallError(
            "fine-tuning needs labeled utterances from at least 2 speakers"
        )
    _echo(run, args.out)
    log.info(
        "finetune: objective=%s init=%s, %d epochs",
        cfg.objective, cfg.init_checkpoint or "random", cfg.epochs,
    )
    result = run_finetune(
        source, cfg, run.encoder, run.features, out_dir=args.out,
        resume_from=args.resume,
    )
    last = result.records[-1]
    print(
        f"finetuned {cfg.epochs} epochs ({cfg.objective}): loss {last.loss_total:.4f}; "
        f"checkpoint {result.checkpoint_path}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    run = _base_config(args)
    trials = read_trial_list(args.trials)
    if not trials:
        raise DegenerateTrialsError(f"{args.trials}: no trials")

    config, blocks, _ = load_checkpoint(args.checkpoint)
    encoder_cfg = EncoderConfig.from_dict(config["encoder"])
    enc = Encoder(encoder_cfg)
    params = {k: blocks[k] for k in enc.param_shapes() if k in blocks}

    source = _source_from_dir(args.corpus)
    embeddings = embed_utterances(source, params, encoder_cfg, run.features)
    scored = score_trials(embeddings, trials)

    e = run.evaluation
    eer_value, threshold = eer(scored)
    dcf_value, dcf_threshold = min_dcf(
        scored, DcfParams(c_miss=e.c_miss, c_fa=e.c_fa, p_target=e.p_target)
    )
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
    results = run_suite(scopes, seed=args.seed if args.seed is not None else 7)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cel",
        description="Self-supervised speaker embeddings: uniformity-regularized "
        "contrastive pretraining, supervised fine-tuning, and verification scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int, help="master seed for all derived RNG")

    p = sub.add_parser("gen-data", help="synthesize a labeled corpus")
    common(p)
    p.add_argument("--out", required=True, help="corpus output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="self-supervised pretraining")
    common(p)
    p.add_argument("--corpus", required=True, help="directory from gen-data")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--k", type=int, help="speakers (utterances) per batch")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="uniformity loss weight (0 disables the term)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--similarity", choices=("aprot", "acont"),
                   help="similarity loss flavor")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="supervised fine-tuning")
    common(p)
    p.add_argument("--corpus", required=True, help="directory from gen-data")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--objective",
                   choices=("aprot", "acont", "ge2e", "cosface", "arcface", "adacos"))
    p.add_argument("--margin", type=float, help="additive margin m")
    p.add_argument("--scale", type=float, help="logit scale s")
    p.add_argument("--init", help="'random' or a pretraining checkpoint path")
    p.add_argument("--epochs", type=int)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="score a trial list with a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True, help="directory holding trial audio")
    p.add_argument("--trials", required=True, help="trial list file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(p)
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
    except CelError as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
