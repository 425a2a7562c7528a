"""Desk-scale experiment harness: speaker splits, trial sets, and run arms.

These helpers wire the pipeline into the directional experiments: pretrain
on a train-speaker subset, evaluate verification error on held-out speakers,
compare against an untrained encoder, ablate the uniformity weight, and
fine-tune from pretrained versus random initialization.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .augment import NoiseBank, synth_bank
from .config import EvalConfig, RunConfig
from .corpus import CorpusConfig, CorpusManifest, build_manifest
from .embedding import normalize
from .encoder import Encoder, EncoderConfig
from .errors import CorpusTooSmallError
from .evaluation import Trial, eer, score_trials
from .features import FeatureConfig
from .losses import KernelParam, pairwise_uniformity
from .rng import derive_rng
from .trainer import (
    CorpusSource,
    TrainResult,
    embed_utterances,
    finetune,
    pretrain,
)


def split_speakers(
    n_speakers: int, n_eval: int, seed: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic disjoint train/eval speaker index split."""
    if not 0 < n_eval < n_speakers:
        raise CorpusTooSmallError(
            f"cannot hold out {n_eval} of {n_speakers} speakers"
        )
    order = derive_rng(seed, "speaker-split").permutation(n_speakers)
    eval_idx = tuple(sorted(int(i) for i in order[:n_eval]))
    train_idx = tuple(sorted(int(i) for i in order[n_eval:]))
    return train_idx, eval_idx


def build_trials(
    source: CorpusSource, nontarget_per_target: int = 3, seed: int = 0
) -> list[Trial]:
    """All same-speaker pairs as targets plus sampled cross-speaker pairs."""
    n_spk, n_utt = source.speaker_count, source.utterances_per_speaker
    keys = [[source.utterance_key(s, u) for u in range(n_utt)] for s in range(n_spk)]
    trials: list[Trial] = []
    for per in keys:
        for a in range(len(per)):
            for b in range(a + 1, len(per)):
                trials.append(Trial(per[a], per[b], True))
    n_targets = len(trials)
    wanted = nontarget_per_target * n_targets
    available = n_spk * (n_spk - 1) * n_utt**2  # distinct ordered cross-speaker pairs
    if wanted > available:
        raise CorpusTooSmallError(
            f"{wanted} non-target trials requested, but {n_spk} speakers x {n_utt} "
            f"utterances give only {available} distinct cross-speaker pairs"
        )
    rng = derive_rng(seed, "trials")
    seen = set()
    while len(trials) - n_targets < wanted:
        s1, s2 = rng.choice(n_spk, size=2, replace=False)
        u1 = int(rng.integers(0, n_utt))
        u2 = int(rng.integers(0, n_utt))
        pair = (keys[s1][u1], keys[s2][u2])
        if pair in seen:
            continue
        seen.add(pair)
        trials.append(Trial(pair[0], pair[1], False))
    return trials


def eval_bank(run: RunConfig) -> NoiseBank:
    """Noise/reverb bank for trial-side conditions, disjoint from training."""
    return synth_bank(derive_rng(run.corpus.seed, "eval-bank").integers(0, 2**31 - 1))


def eer_of_params(
    source: CorpusSource,
    params,
    trials: Sequence[Trial],
    encoder_cfg: EncoderConfig,
    feature_cfg: FeatureConfig,
    bank: NoiseBank | None = None,
    aug_seed: int = 0,
) -> float:
    embeddings = embed_utterances(
        source, params, encoder_cfg, feature_cfg, bank=bank, aug_seed=aug_seed
    )
    return eer(score_trials(embeddings, trials))[0]


def random_encoder_eer(
    source: CorpusSource,
    trials: Sequence[Trial],
    encoder_cfg: EncoderConfig,
    feature_cfg: FeatureConfig,
    seed: int,
    bank: NoiseBank | None = None,
    aug_seed: int = 0,
) -> float:
    """Verification error of an untrained (freshly initialized) encoder."""
    params = Encoder(encoder_cfg).init_params(derive_rng(seed, "init"))
    return eer_of_params(
        source, params, trials, encoder_cfg, feature_cfg, bank=bank, aug_seed=aug_seed
    )


def desk_split(run: RunConfig) -> tuple[CorpusManifest, tuple[int, ...], tuple[int, ...]]:
    manifest = build_manifest(
        run.corpus.n_speakers,
        run.corpus.utterances_per_speaker,
        run.corpus.duration_s,
        run.corpus.seed,
    )
    train_idx, eval_idx = split_speakers(
        run.corpus.n_speakers, run.evaluation.eval_speakers, run.corpus.seed
    )
    return manifest, train_idx, eval_idx


def held_out_set(run: RunConfig) -> tuple[CorpusSource, tuple[Trial, ...], NoiseBank]:
    """The desk split's held-out speakers, their trials and the bank that corrupts them."""
    return _split_sources(run.corpus, run.evaluation)[1:]


@lru_cache(maxsize=4)
def _split_sources(
    corpus: CorpusConfig, evaluation: EvalConfig
) -> tuple[CorpusSource, CorpusSource, tuple[Trial, ...], NoiseBank]:
    """The desk split as (training source, held-out source, trials, bank).

    Memoized on the two sections it reads, `run.corpus` and `run.evaluation`,
    so every arm of a run in one process trains on one source and scores
    one: each waveform is synthesized and each log-mel computed once.
    Callers share the returned objects, so the trials are a tuple.
    """
    run = RunConfig(corpus=corpus, evaluation=evaluation)
    manifest, train_idx, eval_idx = desk_split(run)
    eval_src = CorpusSource(manifest, speakers=eval_idx)
    trials = build_trials(eval_src, evaluation.nontarget_per_target, corpus.seed)
    train_src = CorpusSource(manifest, speakers=train_idx)
    return train_src, eval_src, tuple(trials), eval_bank(run)


def _held_out_arm(
    run: RunConfig, train: Callable[[CorpusSource], TrainResult]
) -> tuple[float, TrainResult]:
    """Train on the desk split's train speakers; EER on its held-out speakers.

    The held-out set is built first, so a split too small for its trials
    fails before any training.
    """
    train_src, eval_src, trials, bank = _split_sources(run.corpus, run.evaluation)
    result = train(train_src)
    value = eer_of_params(
        eval_src, result.params, trials, run.encoder, run.features,
        bank=bank, aug_seed=run.corpus.seed,
    )
    return value, result


def pretrain_arm(
    run: RunConfig,
    seed: int,
    uniformity_weight: float | None = None,
    out_dir: str | Path | None = None,
) -> tuple[float, TrainResult]:
    """Pretrain on train speakers with one seed; EER on held-out speakers."""
    cfg = replace(run.pretrain, seed=seed)
    if uniformity_weight is not None:
        cfg = replace(cfg, uniformity_weight=uniformity_weight)
    return _held_out_arm(
        run, lambda source: pretrain(source, cfg, run.encoder, run.features, out_dir=out_dir)
    )


def finetune_arm(
    run: RunConfig,
    seed: int,
    objective: str,
    init_checkpoint: str | Path | None,
    out_dir: str | Path | None = None,
) -> tuple[float, TrainResult]:
    """Fine-tune on labeled train speakers; EER on held-out speakers."""
    cfg = replace(
        run.finetune,
        seed=seed,
        objective=objective,
        init_checkpoint=str(init_checkpoint) if init_checkpoint else None,
    )
    return _held_out_arm(
        run, lambda source: finetune(source, cfg, run.encoder, run.features, out_dir=out_dir)
    )


def uniform_sphere_uniformity(
    n_points: int, dim: int, kernel: KernelParam, seed: int, draws: int = 20
) -> float:
    """Average uniformity value of points drawn uniformly on the sphere."""
    values = []
    for d in range(draws):
        rng = derive_rng(seed, "uniform-oracle", d)
        x = rng.standard_normal((n_points, dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        values.append(pairwise_uniformity(x, kernel)[0])
    return float(np.mean(values))


def equilibrium_descent(
    n_points: int = 512,
    dim: int = 3,
    steps: int = 2000,
    lr: float = 1.0,
    kernel: KernelParam = KernelParam(t=2.0),
    seed: int = 0,
    record_every: int = 100,
) -> tuple[float, list[tuple[int, float]]]:
    """Minimize the pairwise uniformity of free points on the sphere.

    Starts from a tightly clustered configuration and runs projected
    gradient descent (tangent step, then renormalize). Returns the final
    value and a sampled trajectory.
    """
    rng = derive_rng(seed, "equilibrium-init")
    x = np.tile(np.eye(dim)[:1] * 0.0, (n_points, 1))
    x[:, -1] = 1.0
    x += 0.05 * rng.standard_normal((n_points, dim))
    x = np.stack([normalize(row) for row in x])

    trajectory: list[tuple[int, float]] = []
    value = 0.0
    for step in range(steps):
        value, grad = pairwise_uniformity(x, kernel)
        if step % record_every == 0:
            trajectory.append((step, value))
        tangent = grad - (np.sum(grad * x, axis=1, keepdims=True)) * x
        x = x - lr * tangent
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    value, _ = pairwise_uniformity(x, kernel)
    trajectory.append((steps, value))
    return value, trajectory
