"""The benchmark's workloads: set-up, the operations of one timed pass, quality.

Each workload is chosen so that some layer does most of its work there and
little elsewhere:

- pretrain-desk: `configs/desk.json` pretraining, the run users, the tests
  and the lambda ablation make. Augmentation and log-mel dominate.
- pretrain-k200: the full-scale shape (k=200, 64-64-64 encoder, 200
  speakers). Same layers with a batch 25x larger, so a batched pipeline that
  thrashes cache or memory at k=200 shows; the only 200x200 loss matrices.
- finetune-desk: all six fine-tuning objectives on unaugmented segments.
  Augmentation is never called, so an augmentation change must leave it
  unchanged.
- evaluate-desk: load fixed checkpoints and score every desk utterance pair
  under the evaluation-bank corruption. Forward only; the corrupted features
  do not depend on the checkpoint.

The timed calls go through module attributes (`trainer.pretrain`,
`encoder.load_checkpoint`, `evaluation.eer`, ...) so the traced run's
wrappers see them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cel import encoder, evaluation, experiments, trainer
from cel.augment import synth_bank
from cel.config import RunConfig, load_config
from cel.corpus import build_manifest
from cel.rng import derive_rng

ROOT = Path(__file__).resolve().parent.parent

# The k=200 corpus is synthesized from its own seed range, so the desk
# speakers its quality check uses are held out.
K200_CORPUS_SEED_OFFSET = 1_000_000

# One pass trains this many epochs per training run.
EPOCHS = 1
# Checkpoints evaluate-desk scores per pass; two, so a cache of their
# shared corrupted features would show.
CHECKPOINTS = 2


@dataclass(frozen=True)
class Shape:
    """Size of a workload. FULL is what the benchmark measures."""

    n_speakers: int = 32
    utterances_per_speaker: int = 6
    eval_speakers: int = 8
    k: int = 8


FULL = {
    "pretrain-desk": Shape(),
    "pretrain-k200": Shape(n_speakers=200, utterances_per_speaker=1, k=200),
    "finetune-desk": Shape(),
    "evaluate-desk": Shape(),
}

# Smallest shapes that still run every code path; used by the tests.
TINY = {
    "pretrain-desk": Shape(n_speakers=12, utterances_per_speaker=2, eval_speakers=4),
    "pretrain-k200": Shape(n_speakers=4, utterances_per_speaker=1, eval_speakers=4, k=4),
    "finetune-desk": Shape(n_speakers=12, utterances_per_speaker=2, eval_speakers=4),
    "evaluate-desk": Shape(n_speakers=12, utterances_per_speaker=2, eval_speakers=4),
}


@dataclass
class Output:
    """Checked result of one operation, taken after the pass is timed."""

    fingerprint: str
    values: np.ndarray  # every loss or score; all must be finite
    steps: int  # optimizer steps; 0 for evaluation
    final_loss: float | None = None
    eer: float | None = None
    params: dict | None = None


@dataclass
class Operation:
    """One training run or one checkpoint evaluation."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Output]
    expected_steps: int = 0


@dataclass
class State:
    """What set-up builds and the timed passes use."""

    operations: list[Operation]
    crops_per_pass: int  # encoder inputs per pass
    utts_per_pass: int  # source utterances per pass
    warmed: list[trainer.CorpusSource]
    quality: Callable[[dict[str, Output]], dict[str, float]]


def desk_run(seed: int, shape: Shape) -> RunConfig:
    """`configs/desk.json` with the workload seed threaded through run and corpus."""
    run = load_config(ROOT / "configs" / "desk.json").with_seed(seed)
    return replace(
        run,
        corpus=replace(
            run.corpus,
            seed=run.corpus.seed + seed,
            n_speakers=shape.n_speakers,
            utterances_per_speaker=shape.utterances_per_speaker,
        ),
        evaluation=replace(run.evaluation, eval_speakers=shape.eval_speakers),
    )


def warm(source: trainer.CorpusSource) -> trainer.CorpusSource:
    for s in range(source.speaker_count):
        for u in range(source.utterances_per_speaker):
            source.waveform(s, u)
    return source


def warmed_keys(sources: list[trainer.CorpusSource]) -> set:
    """Keys as the traced run's waveform wrapper names them."""
    return {
        (id(src), src.speakers[s], u)
        for src in sources
        for s in range(src.speaker_count)
        for u in range(src.utterances_per_speaker)
    }


def items_per_round(n_speakers: int, per_batch: int) -> int:
    """Speakers the epoch plan uses per round: a trailing group of one is dropped."""
    return n_speakers - 1 if n_speakers % per_batch == 1 else n_speakers


def batches_per_round(n_speakers: int, per_batch: int) -> int:
    full, rest = divmod(n_speakers, per_batch)
    return full + (1 if rest >= 2 else 0)


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _training_output(out_dir: Path) -> Callable[[trainer.TrainResult], Output]:
    """Fingerprint = hash of the run's metrics.tsv and checkpoint bytes."""

    def check(result: trainer.TrainResult) -> Output:
        tsv = (out_dir / "metrics.tsv").read_bytes()
        ckpt = (out_dir / "checkpoint.ckpt").read_bytes()
        values = np.array(
            [v for r in result.records for v in (r.loss_total, r.loss_unif, r.loss_sim)]
        )
        return Output(
            fingerprint=_digest(tsv, ckpt),
            values=values,
            steps=result.opt_state.step,
            final_loss=result.records[-1].loss_total,
            params=result.params,
        )

    return check


class _HeldOut:
    """Held-out desk speakers, trials and evaluation bank for the quality check."""

    def __init__(self, run: RunConfig) -> None:
        manifest, self.train_idx, eval_idx = experiments.desk_split(run)
        self.manifest = manifest
        self.run = run
        self.source = trainer.CorpusSource(manifest, speakers=eval_idx)
        self.trials = experiments.build_trials(
            self.source, run.evaluation.nontarget_per_target, run.corpus.seed
        )
        self.bank = experiments.eval_bank(run)

    def eer(self, params: dict, encoder_cfg: encoder.EncoderConfig) -> float:
        return experiments.eer_of_params(
            self.source, params, self.trials, encoder_cfg, self.run.features,
            bank=self.bank, aug_seed=self.run.corpus.seed,
        )


def _pretrain_state(
    source: trainer.CorpusSource,
    cfg: trainer.PretrainConfig,
    run: RunConfig,
    held: _HeldOut,
    workdir: Path,
) -> State:
    bank = synth_bank(cfg.seed)
    out_dir = workdir / "pretrain"

    def train():
        return trainer.pretrain(
            source, cfg, run.encoder, run.features, bank=bank, out_dir=out_dir
        )

    def quality(outputs: dict[str, Output]) -> dict[str, float]:
        out = outputs["pretrain"]
        return {"eer": held.eer(out.params, run.encoder), "final_loss": out.final_loss}

    rounds = cfg.epochs * source.utterances_per_speaker
    steps = rounds * batches_per_round(source.speaker_count, cfg.k)
    crops = rounds * items_per_round(source.speaker_count, cfg.k) * 2
    return State(
        operations=[Operation("pretrain", train, _training_output(out_dir), steps)],
        crops_per_pass=crops,
        utts_per_pass=crops // 2,
        warmed=[source],
        quality=quality,
    )


def setup_pretrain_desk(seed: int, shape: Shape, workdir: Path) -> State:
    run = desk_run(seed, shape)
    held = _HeldOut(run)
    source = warm(trainer.CorpusSource(held.manifest, speakers=held.train_idx))
    cfg = replace(run.pretrain, epochs=EPOCHS)
    return _pretrain_state(source, cfg, run, held, workdir)


def setup_pretrain_k200(seed: int, shape: Shape, workdir: Path) -> State:
    run = load_config(ROOT / "configs" / "fullscale.json").with_seed(seed)
    manifest = build_manifest(
        shape.n_speakers,
        shape.utterances_per_speaker,
        run.corpus.duration_s,
        run.corpus.seed + seed + K200_CORPUS_SEED_OFFSET,
    )
    source = warm(trainer.CorpusSource(manifest))
    cfg = replace(run.pretrain, k=shape.k, epochs=EPOCHS)
    held = _HeldOut(desk_run(seed, Shape(eval_speakers=shape.eval_speakers)))
    return _pretrain_state(source, cfg, run, held, workdir)


def setup_finetune_desk(seed: int, shape: Shape, workdir: Path) -> State:
    run = desk_run(seed, shape)
    held = _HeldOut(run)
    source = warm(trainer.CorpusSource(held.manifest, speakers=held.train_idx))
    # A stand-in pretrained checkpoint, so every run takes the init path the
    # desk pipeline's fine-tuning arms take.
    init = workdir / "init.ckpt"
    params = encoder.Encoder(run.encoder).init_params(derive_rng(seed, "bench-init"))
    encoder.save_checkpoint(
        init, {"kind": "pretrain", "encoder": run.encoder.to_dict()}, params,
        {"epochs_done": 0},
    )
    base = replace(run.finetune, epochs=EPOCHS, init_checkpoint=str(init))
    per_round = items_per_round(source.speaker_count, base.speakers_per_batch)
    rounds = source.utterances_per_speaker // base.utterances_per_speaker
    steps = base.epochs * rounds * batches_per_round(
        source.speaker_count, base.speakers_per_batch
    )
    crops = base.epochs * rounds * per_round * base.utterances_per_speaker

    operations = []
    for objective in trainer.FINETUNE_OBJECTIVES:
        cfg = replace(base, objective=objective)
        out_dir = workdir / objective

        def train(cfg=cfg, out_dir=out_dir):
            return trainer.finetune(source, cfg, run.encoder, run.features, out_dir=out_dir)

        operations.append(Operation(objective, train, _training_output(out_dir), steps))

    def quality(outputs: dict[str, Output]) -> dict[str, float]:
        outs = [outputs[o] for o in trainer.FINETUNE_OBJECTIVES]
        return {
            "eer": float(np.mean([held.eer(o.params, run.encoder) for o in outs])),
            "final_loss": float(np.mean([o.final_loss for o in outs])),
        }

    n_ops = len(operations)
    return State(
        operations=operations,
        crops_per_pass=crops * n_ops,
        utts_per_pass=crops * n_ops,
        warmed=[source],
        quality=quality,
    )


def all_pairs(source: trainer.CorpusSource) -> list[evaluation.Trial]:
    """Every unordered utterance pair; same speaker marks a target."""
    keys = [
        (s, source.utterance_key(s, u))
        for s in range(source.speaker_count)
        for u in range(source.utterances_per_speaker)
    ]
    return [
        evaluation.Trial(a, b, sa == sb)
        for i, (sa, a) in enumerate(keys)
        for sb, b in keys[i + 1 :]
    ]


def setup_evaluate_desk(seed: int, shape: Shape, workdir: Path) -> State:
    run = desk_run(seed, shape)
    manifest, _, _ = experiments.desk_split(run)
    source = warm(trainer.CorpusSource(manifest))
    bank = experiments.eval_bank(run)
    trials = all_pairs(source)
    dcf = evaluation.DcfParams(
        run.evaluation.c_miss, run.evaluation.c_fa, run.evaluation.p_target
    )
    paths = []
    for i in range(CHECKPOINTS):
        params = encoder.Encoder(run.encoder).init_params(
            derive_rng(seed, "bench-checkpoint", i)
        )
        path = workdir / f"checkpoint{i}.ckpt"
        encoder.save_checkpoint(
            path, {"kind": "pretrain", "encoder": run.encoder.to_dict()}, params,
            {"epochs_done": 0},
        )
        paths.append(path)

    def score(path: Path):
        config, params, _ = encoder.load_checkpoint(path)
        enc_cfg = encoder.EncoderConfig.from_dict(config["encoder"])
        embeddings = trainer.embed_utterances(
            source, params, enc_cfg, run.features, bank=bank, aug_seed=run.corpus.seed
        )
        scored = evaluation.score_trials(embeddings, trials)
        return (
            scored,
            evaluation.eer(scored),
            evaluation.min_dcf(scored, dcf),
            evaluation.det_points(scored),
        )

    def check(result) -> Output:
        scored, eer, min_dcf, det = result
        scores = np.array([t.score for t in scored], dtype=np.float64)
        summary = np.array([*eer, *min_dcf, *np.ravel(det)], dtype=np.float64)
        return Output(
            fingerprint=_digest(scores.tobytes(), summary.tobytes()),
            values=np.concatenate([scores, summary]),
            steps=0,
            eer=eer[0],
        )

    operations = [
        Operation(f"checkpoint{i}", lambda p=p: score(p), check)
        for i, p in enumerate(paths)
    ]

    def quality(outputs: dict[str, Output]) -> dict[str, float]:
        return {"eer": float(np.mean([o.eer for o in outputs.values()]))}

    utts = len(paths) * source.speaker_count * source.utterances_per_speaker
    return State(
        operations=operations,
        crops_per_pass=utts,
        utts_per_pass=utts,
        warmed=[source],
        quality=quality,
    )


SETUPS = {
    "pretrain-desk": setup_pretrain_desk,
    "pretrain-k200": setup_pretrain_k200,
    "finetune-desk": setup_finetune_desk,
    "evaluate-desk": setup_evaluate_desk,
}
