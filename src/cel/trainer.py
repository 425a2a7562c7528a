"""Training orchestration: unsupervised pre-training and supervised fine-tuning.

Pre-training assembles batches of dual augmented crops (one utterance per
speaker per batch), optimizes the combined uniformity-plus-similarity
objective, and logs per-epoch metrics. Fine-tuning reuses the encoder with
any of six supervised objectives on unaugmented fixed-length segments.

Every random draw comes from a stream derived from (run seed, purpose,
epoch, item), so runs are bit-reproducible and resumable mid-run. Each
item's data pipeline (waveform fetch, crop, augmentation, log-mel) runs on
the shared thread pool of `cel.pool`, sized by the process's CPU affinity,
and NumPy's FFTs release the interpreter lock, so items overlap on separate
cores. The calling thread encodes the features in item order as they
arrive, then runs the losses, the backward passes (summed in item order)
and Adam, so outputs do not depend on the pool size. The pool leaves room
for BLAS's own threads: with BLAS on every CPU (its default) it has one
thread, so set OPENBLAS_NUM_THREADS=1 to get one item thread per CPU.
Metric logs carry only deterministic quantities, so two runs with the same
seed write byte-identical logs and checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from . import finetune as ft
from . import pool
from .augment import (
    NoiseBank,
    apply_spec,
    crop_samples,
    crop_two,
    sample_pair_specs,
    sample_spec,
    synth_bank,
)
from .corpus import CorpusManifest, load_utterance, utterance_waveform
from .embedding import SCALE_FLOOR, EmbeddingBatch, SimilarityParams
from .encoder import (
    FINETUNE_SCHEDULE,
    PRETRAIN_SCHEDULE,
    Encoder,
    EncoderConfig,
    ForwardResult,
    LrSchedule,
    OptimizerState,
    adam_step,
    init_optimizer,
    load_checkpoint,
    load_encoder,
    lr_at,
    save_checkpoint,
)
from .errors import CheckpointMismatchError, CorpusTooSmallError, InvalidParamError
from .features import FeatureConfig, Waveform, logmel
from .losses import CelWeights, KernelParam, combine_losses, similarity_loss, uniformity_loss
from .rng import derive_rng

SIMILARITY_KINDS = ("aprot", "acont")
FINETUNE_OBJECTIVES = ("aprot", "acont", "ge2e", "cosface", "arcface", "adacos")
MARGIN_OBJECTIVES = ("cosface", "arcface", "adacos")

LOG_HEADER = "epoch\tlr\tloss_total\tloss_unif\tloss_sim\tw\tb"


@dataclass
class CorpusSource:
    """Waveform access over a manifest, optionally restricted to a speaker subset.

    With a root directory the WAV files are read; otherwise utterances are
    regenerated from the manifest seed. Waveforms are cached in memory.
    """

    manifest: CorpusManifest
    root: str | Path | None = None
    speakers: tuple[int, ...] | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.speakers is None:
            self.speakers = tuple(range(self.manifest.n_speakers))
        bad = [s for s in self.speakers if not 0 <= s < self.manifest.n_speakers]
        if bad:
            raise CorpusTooSmallError(
                f"speaker indices {bad} out of range for "
                f"{self.manifest.n_speakers}-speaker manifest"
            )

    @property
    def speaker_count(self) -> int:
        return len(self.speakers)

    @property
    def utterances_per_speaker(self) -> int:
        return self.manifest.utterances_per_speaker

    def utterance_key(self, local_speaker: int, utt: int) -> str:
        i = self.speakers[local_speaker]
        per = self.manifest.utterances_per_speaker
        return self.manifest.entries[i * per + utt].relative_path

    def waveform(self, local_speaker: int, utt: int) -> Waveform:
        # Called from the item pool: two threads that miss on one key build
        # equal waveforms and one store wins, so the cache needs no lock.
        i = self.speakers[local_speaker]
        key = (i, utt)
        if key not in self._cache:
            if self.root is not None:
                per = self.manifest.utterances_per_speaker
                entry = self.manifest.entries[i * per + utt]
                self._cache[key] = load_utterance(self.root, entry)
            else:
                self._cache[key] = utterance_waveform(self.manifest, i, utt)
        return self._cache[key]


@dataclass(frozen=True)
class PretrainConfig:
    """Unsupervised pre-training hyperparameters."""

    k: int = 200
    uniformity_weight: float = 1.0
    kernel_t: float = 2.0
    similarity_kind: str = "aprot"
    epochs: int = 500
    seed: int = 0
    frames: int = 180
    snr_range: tuple[float, float] = (0.0, 15.0)
    schedule: LrSchedule = PRETRAIN_SCHEDULE
    init_scale: float = 10.0
    init_bias: float = -5.0
    save_every: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise InvalidParamError(f"batch size k must be at least 2, got {self.k}")
        if self.similarity_kind not in SIMILARITY_KINDS:
            raise InvalidParamError(
                f"similarity_kind must be one of {SIMILARITY_KINDS}, "
                f"got {self.similarity_kind!r}"
            )
        if self.epochs < 1:
            raise InvalidParamError(f"epochs must be at least 1, got {self.epochs}")
        if self.frames < 1:
            raise InvalidParamError(f"frames must be at least 1, got {self.frames}")


@dataclass(frozen=True)
class FinetuneConfig:
    """Supervised fine-tuning hyperparameters."""

    objective: str = "aprot"
    margin: float = 0.2
    margin_scale: float = 30.0
    speakers_per_batch: int = 8
    utterances_per_speaker: int = 2
    frames: int = 300
    epochs: int = 250
    seed: int = 0
    schedule: LrSchedule = FINETUNE_SCHEDULE
    init_checkpoint: str | None = None
    init_scale: float = 10.0
    init_bias: float = -5.0
    save_every: int = 0

    def __post_init__(self) -> None:
        if self.objective not in FINETUNE_OBJECTIVES:
            raise InvalidParamError(
                f"objective must be one of {FINETUNE_OBJECTIVES}, got {self.objective!r}"
            )
        if self.speakers_per_batch < 2:
            raise InvalidParamError(
                f"need at least 2 speakers per batch, got {self.speakers_per_batch}"
            )
        if self.utterances_per_speaker < 1:
            raise InvalidParamError(
                f"need at least 1 utterance per speaker, got {self.utterances_per_speaker}"
            )
        if self.objective in ("aprot", "acont") and self.utterances_per_speaker != 2:
            raise InvalidParamError(
                f"{self.objective} fine-tuning pairs two utterances per speaker, "
                f"got {self.utterances_per_speaker}"
            )
        if self.objective == "ge2e" and self.utterances_per_speaker < 2:
            raise InvalidParamError(
                "ge2e needs at least 2 utterances per speaker for centroid exclusion"
            )
        if self.epochs < 1:
            raise InvalidParamError(f"epochs must be at least 1, got {self.epochs}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    loss_total: float
    loss_unif: float
    loss_sim: float
    w: float
    b: float

    def to_line(self) -> str:
        cells = [
            str(self.epoch),
            repr(float(self.lr)),
            repr(float(self.loss_total)),
            repr(float(self.loss_unif)),
            repr(float(self.loss_sim)),
            repr(float(self.w)),
            repr(float(self.b)),
        ]
        return "\t".join(cells)


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    opt_state: OptimizerState
    records: list[EpochRecord]
    log_text: str
    checkpoint_path: Path | None = None
    encoder_config: EncoderConfig | None = None
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BatchItem:
    """One augmented dual-crop pair, featurized and encoder-ready."""

    source_id: str
    features1: np.ndarray
    features2: np.ndarray


def _pretrain_item(
    source: CorpusSource,
    bank: NoiseBank,
    cfg: PretrainConfig,
    feature_cfg: FeatureConfig,
    epoch: int,
    local_speaker: int,
    utt: int,
) -> BatchItem:
    """Two independently corrupted crops of one utterance, as log-mel features.

    Draws only from the item's own crop and augmentation streams, so items
    may run in any order and on any thread.
    """
    wave = source.waveform(local_speaker, utt)
    key = source.utterance_key(local_speaker, utt)
    crop_rng = derive_rng(cfg.seed, "crop", epoch, local_speaker, utt)
    aug_rng = derive_rng(cfg.seed, "aug", epoch, local_speaker, utt)
    pair = crop_two(wave, cfg.frames, crop_rng, source_id=key)
    spec1, spec2 = sample_pair_specs(aug_rng, bank, len(pair.crop1), cfg.snr_range)
    a1 = apply_spec(pair.crop1, spec1, bank)
    a2 = apply_spec(pair.crop2, spec2, bank)
    return BatchItem(
        source_id=key,
        features1=logmel(a1, feature_cfg).values,
        features2=logmel(a2, feature_cfg).values,
    )


def _summed_grads(
    enc: Encoder,
    params: Mapping[str, np.ndarray],
    forwards: Sequence[ForwardResult],
    upstream: Sequence[np.ndarray],
) -> dict[str, np.ndarray]:
    """Encoder parameter gradients of a batch, summed in item order.

    The encoder passes stay on the calling thread: they are small matrix
    products whose Python overhead holds the interpreter lock, and on the
    pool they measured slower.
    """
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    for fw, up in zip(forwards, upstream):
        for name, g in enc.backward(params, fw.cache, up).param_grads.items():
            grads[name] += g
    return grads


def _epoch_plan(
    n_speakers: int,
    utterances_per_speaker: int,
    speakers_per_batch: int,
    utts_per_item: int,
    rng: np.random.Generator,
    min_speakers: int = 2,
) -> list[list[tuple[int, tuple[int, ...]]]]:
    """One pass over the corpus as batches of disjoint speakers.

    Each epoch shuffles a per-speaker utterance order, then runs rounds in
    which shuffled speakers are grouped into batches; speaker s contributes
    its next utts_per_item utterances in round order. Trailing groups smaller
    than min_speakers are dropped for that round (the shuffle rotates who
    sits in the remainder).
    """
    utt_orders = [rng.permutation(utterances_per_speaker) for _ in range(n_speakers)]
    rounds = utterances_per_speaker // utts_per_item
    batches = []
    for r in range(rounds):
        order = rng.permutation(n_speakers)
        for start in range(0, n_speakers, speakers_per_batch):
            group = order[start : start + speakers_per_batch]
            if len(group) < min_speakers:
                continue
            batch = []
            for s in group:
                utts = tuple(
                    int(utt_orders[s][r * utts_per_item + j]) for j in range(utts_per_item)
                )
                batch.append((int(s), utts))
            batches.append(batch)
    return batches


def _write_outputs(
    out_dir: str | Path | None,
    log_text: str,
    config_echo: Mapping,
    params: Mapping[str, np.ndarray],
    meta: Mapping,
) -> Path | None:
    if out_dir is None:
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.tsv").write_text(log_text)
    path = out / "checkpoint.ckpt"
    save_checkpoint(path, config_echo, params, meta)
    return path


def _pack_optimizer(opt: OptimizerState) -> dict[str, np.ndarray]:
    packed = {}
    for name, arr in opt.m.items():
        packed[f"opt_m.{name}"] = arr
    for name, arr in opt.v.items():
        packed[f"opt_v.{name}"] = arr
    return packed


def _unpack_checkpoint(
    blocks: Mapping[str, np.ndarray],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], dict[str, np.ndarray]]:
    params, m, v = {}, {}, {}
    for name, arr in blocks.items():
        if name.startswith("opt_m."):
            m[name[len("opt_m.") :]] = arr
        elif name.startswith("opt_v."):
            v[name[len("opt_v.") :]] = arr
        else:
            params[name] = arr
    return params, m, v


def _meta_value(meta: Mapping, key: str, path: str | Path):
    """`meta[key]`, or a CheckpointMismatchError naming the path and the key."""
    if key not in meta:
        raise CheckpointMismatchError(f"{path}: checkpoint meta has no {key!r}")
    return meta[key]


def _resume_state(
    resume_from: str | Path,
    config_echo: Mapping,
    lr: float,
) -> tuple[dict[str, np.ndarray], OptimizerState, int, dict]:
    config, blocks, meta = load_checkpoint(resume_from, expected_config=config_echo)
    params, m, v = _unpack_checkpoint(blocks)
    step = int(_meta_value(meta, "adam_step", resume_from))
    opt = OptimizerState(m=m, v=v, step=step, lr=lr)
    return params, opt, int(_meta_value(meta, "epochs_done", resume_from)), meta


def pretrain(
    source: CorpusSource,
    cfg: PretrainConfig,
    encoder_cfg: EncoderConfig = EncoderConfig(),
    feature_cfg: FeatureConfig = FeatureConfig(),
    bank: NoiseBank | None = None,
    out_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> TrainResult:
    """Unsupervised pre-training; returns final parameters and the metric log."""
    if source.speaker_count < cfg.k:
        raise CorpusTooSmallError(
            f"pre-training with k={cfg.k} needs that many speakers, "
            f"corpus has {source.speaker_count}"
        )
    bank = bank or synth_bank(cfg.seed)
    enc = Encoder(encoder_cfg)
    config_echo = {"kind": "pretrain", "encoder": encoder_cfg.to_dict()}

    if resume_from is not None:
        params, opt, start_epoch, _ = _resume_state(
            resume_from, config_echo, lr_at(cfg.schedule, 0)
        )
    else:
        params = enc.init_params(derive_rng(cfg.seed, "init"))
        params["sim_scale"] = np.float64(cfg.init_scale)
        params["sim_bias"] = np.float64(cfg.init_bias)
        opt = init_optimizer(params, lr_at(cfg.schedule, 0))
        start_epoch = 0

    kernel = KernelParam(t=cfg.kernel_t)
    weights = CelWeights(uniformity_weight=cfg.uniformity_weight)
    records: list[EpochRecord] = []

    for epoch in range(start_epoch, cfg.epochs):
        lr = lr_at(cfg.schedule, epoch)
        plan = _epoch_plan(
            source.speaker_count,
            source.utterances_per_speaker,
            cfg.k,
            1,
            derive_rng(cfg.seed, "plan", epoch),
        )
        totals = np.zeros(3)
        n_batches = 0
        for batch_plan in plan:
            items = pool.map_items(
                partial(_pretrain_item, source, bank, cfg, feature_cfg, epoch),
                [s for s, _ in batch_plan],
                [u for _, (u,) in batch_plan],
            )
            fw1, fw2 = [], []
            for item in items:
                fw1.append(enc.forward(params, item.features1))
                fw2.append(enc.forward(params, item.features2))
            batch = EmbeddingBatch(
                np.stack([f.embedding for f in fw1]),
                np.stack([f.embedding for f in fw2]),
            )
            sim_params = SimilarityParams(
                float(params["sim_scale"]), float(params["sim_bias"])
            )
            unif = uniformity_loss(batch, kernel)
            sim = similarity_loss(batch, sim_params, cfg.similarity_kind)
            out = combine_losses(unif, sim, weights)

            grads = _summed_grads(
                enc, params, fw1 + fw2, [*out.grad_view1, *out.grad_view2]
            )
            grads["sim_scale"] = np.float64(out.grad_scale)
            grads["sim_bias"] = np.float64(out.grad_bias)

            params, opt = adam_step(opt, params, grads, lr=lr)
            params["sim_scale"] = np.maximum(params["sim_scale"], SCALE_FLOOR)
            totals += (out.value, unif.value, sim.value)
            n_batches += 1

        mean = totals / max(n_batches, 1)
        records.append(
            EpochRecord(
                epoch=epoch,
                lr=lr,
                loss_total=float(mean[0]),
                loss_unif=float(mean[1]),
                loss_sim=float(mean[2]),
                w=float(params["sim_scale"]),
                b=float(params["sim_bias"]),
            )
        )

    log_text = "\n".join([LOG_HEADER] + [r.to_line() for r in records]) + "\n"
    meta = {"epochs_done": cfg.epochs, "adam_step": opt.step}
    ckpt = _write_outputs(
        out_dir, log_text, config_echo, {**params, **_pack_optimizer(opt)}, meta
    )
    return TrainResult(
        params=params,
        opt_state=opt,
        records=records,
        log_text=log_text,
        checkpoint_path=ckpt,
        encoder_config=encoder_cfg,
    )


def _load_encoder_init(
    path: str | Path, encoder_cfg: EncoderConfig
) -> dict[str, np.ndarray]:
    """Encoder weights from any checkpoint with a matching architecture."""
    stored, params = load_encoder(path)
    if stored != encoder_cfg:
        raise CheckpointMismatchError(
            f"{path}: checkpoint encoder {stored.to_dict()} does not match configured "
            f"{encoder_cfg.to_dict()}"
        )
    return params


def _finetune_item(
    source: CorpusSource,
    cfg: FinetuneConfig,
    feature_cfg: FeatureConfig,
    epoch: int,
    local_speaker: int,
    utt: int,
) -> np.ndarray:
    """Log-mel features of one clean fixed-length segment, from the item's own stream."""
    rng = derive_rng(cfg.seed, "crop", epoch, local_speaker, utt)
    wave = source.waveform(local_speaker, utt)
    need = crop_samples(cfg.frames, feature_cfg.win_length, feature_cfg.hop_length)
    x = wave.samples
    if x.size < need:
        x = np.resize(x, need)
    offset = int(rng.integers(0, x.size - need + 1))
    return logmel(Waveform(x[offset : offset + need].copy()), feature_cfg).values


def finetune(
    source: CorpusSource,
    cfg: FinetuneConfig,
    encoder_cfg: EncoderConfig = EncoderConfig(),
    feature_cfg: FeatureConfig = FeatureConfig(),
    out_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> TrainResult:
    """Supervised fine-tuning on unaugmented fixed-length segments."""
    s_per = cfg.speakers_per_batch
    u_per = cfg.utterances_per_speaker
    if source.speaker_count < s_per:
        raise CorpusTooSmallError(
            f"batches need {s_per} speakers, corpus has {source.speaker_count}"
        )
    if source.utterances_per_speaker < u_per:
        raise CorpusTooSmallError(
            f"batches need {u_per} utterances per speaker, corpus has "
            f"{source.utterances_per_speaker}"
        )
    enc = Encoder(encoder_cfg)
    n_classes = source.speaker_count
    uses_sim = cfg.objective in ("aprot", "acont", "ge2e")
    config_echo = {"kind": "finetune", "encoder": encoder_cfg.to_dict()}

    adacos_state = None
    if resume_from is not None:
        params, opt, start_epoch, meta = _resume_state(
            resume_from, config_echo, lr_at(cfg.schedule, 0)
        )
        if meta.get("objective") != cfg.objective:
            raise CheckpointMismatchError(
                f"{resume_from}: checkpoint was fine-tuned with objective "
                f"{meta.get('objective')!r}; cannot resume it with {cfg.objective!r}"
            )
        if cfg.objective == "adacos":
            adacos_state = ft.AdaCosState(
                scale=float(_meta_value(meta, "adacos_scale", resume_from)),
                steps=int(_meta_value(meta, "adacos_steps", resume_from)),
            )
    else:
        if cfg.init_checkpoint is not None:
            params = _load_encoder_init(cfg.init_checkpoint, encoder_cfg)
        else:
            params = enc.init_params(derive_rng(cfg.seed, "init"))
        if uses_sim:
            params["sim_scale"] = np.float64(cfg.init_scale)
            params["sim_bias"] = np.float64(cfg.init_bias)
        if cfg.objective in MARGIN_OBJECTIVES:
            from .encoder import xavier_uniform

            params["cls_w"] = xavier_uniform(
                derive_rng(cfg.seed, "classifier"),
                n_classes,
                encoder_cfg.embedding_dim,
            )
        opt = init_optimizer(params, lr_at(cfg.schedule, 0))
        start_epoch = 0
        if cfg.objective == "adacos":
            adacos_state = ft.AdaCosState.for_classes(n_classes)

    margin_cfg = ft.MarginConfig(margin=cfg.margin, scale=cfg.margin_scale)
    records: list[EpochRecord] = []

    for epoch in range(start_epoch, cfg.epochs):
        lr = lr_at(cfg.schedule, epoch)
        plan = _epoch_plan(
            source.speaker_count,
            source.utterances_per_speaker,
            s_per,
            u_per,
            derive_rng(cfg.seed, "plan", epoch),
        )
        total = 0.0
        n_batches = 0
        for batch_plan in plan:
            labels = [s for s, utts in batch_plan for _ in utts]
            feats = pool.map_items(
                partial(_finetune_item, source, cfg, feature_cfg, epoch),
                labels,
                [u for _, utts in batch_plan for u in utts],
            )
            fw = [enc.forward(params, f) for f in feats]
            emb = np.stack([f.embedding for f in fw])
            n_spk = len(batch_plan)

            if uses_sim:
                sim_params = SimilarityParams(
                    float(params["sim_scale"]), float(params["sim_bias"])
                )
            if cfg.objective == "ge2e":
                lb = ft.LabeledBatch.grouped(emb, n_spk, u_per)
                out = ft.ge2e_loss(lb, sim_params)
                upstream = out.grad_embeddings
            elif cfg.objective in ("aprot", "acont"):
                batch = EmbeddingBatch(emb[0::2], emb[1::2])
                out = similarity_loss(batch, sim_params, cfg.objective)
                upstream = np.zeros_like(emb)
                upstream[0::2] = out.grad_view1
                upstream[1::2] = out.grad_view2
            else:
                lb = ft.LabeledBatch(emb, np.asarray(labels), n_classes)
                if cfg.objective == "cosface":
                    out = ft.cosface_loss(lb, params["cls_w"], margin_cfg)
                elif cfg.objective == "arcface":
                    out = ft.arcface_loss(lb, params["cls_w"], margin_cfg)
                else:
                    out = ft.adacos_loss(lb, params["cls_w"], adacos_state)
                upstream = out.grad_embeddings

            grads = _summed_grads(enc, params, fw, upstream)
            if uses_sim:
                grads["sim_scale"] = np.float64(out.grad_scale)
                grads["sim_bias"] = np.float64(out.grad_bias)
            if cfg.objective in MARGIN_OBJECTIVES:
                grads["cls_w"] = out.grad_weights

            params, opt = adam_step(opt, params, grads, lr=lr)
            if uses_sim:
                params["sim_scale"] = np.maximum(params["sim_scale"], SCALE_FLOOR)
            total += out.value
            n_batches += 1

        mean_loss = total / max(n_batches, 1)
        if uses_sim:
            w, b = float(params["sim_scale"]), float(params["sim_bias"])
        elif cfg.objective == "adacos":
            w, b = adacos_state.scale, 0.0
        else:
            w, b = cfg.margin_scale, 0.0
        records.append(
            EpochRecord(
                epoch=epoch,
                lr=lr,
                loss_total=mean_loss,
                loss_unif=0.0,
                loss_sim=mean_loss,
                w=w,
                b=b,
            )
        )

    log_text = "\n".join([LOG_HEADER] + [r.to_line() for r in records]) + "\n"
    meta: dict = {"epochs_done": cfg.epochs, "adam_step": opt.step,
                  "objective": cfg.objective}
    if adacos_state is not None:
        meta["adacos_scale"] = adacos_state.scale
        meta["adacos_steps"] = adacos_state.steps
    ckpt = _write_outputs(
        out_dir, log_text, config_echo, {**params, **_pack_optimizer(opt)}, meta
    )
    return TrainResult(
        params=params,
        opt_state=opt,
        records=records,
        log_text=log_text,
        checkpoint_path=ckpt,
        encoder_config=encoder_cfg,
        extras={"adacos_scale": adacos_state.scale if adacos_state else None},
    )


def embed_utterances(
    source: CorpusSource,
    params: Mapping[str, np.ndarray],
    encoder_cfg: EncoderConfig = EncoderConfig(),
    feature_cfg: FeatureConfig = FeatureConfig(),
    bank: NoiseBank | None = None,
    snr_range: tuple[float, float] = (5.0, 15.0),
    aug_seed: int = 0,
    ids: Collection[str] | None = None,
) -> dict[str, np.ndarray]:
    """Full-utterance embeddings keyed by manifest relative path.

    With a bank, each utterance is embedded under one fixed random
    noise/reverb condition (deterministic per key), which evaluates
    robustness rather than clean-audio separability. With `ids`, only the
    utterances whose keys it holds are read and embedded, each exactly as a
    whole-corpus call embeds it; ids outside the corpus are ignored.
    """
    enc = Encoder(encoder_cfg)

    def features(s: int, u: int, key: str) -> tuple[str, np.ndarray]:
        wave = source.waveform(s, u)
        if bank is not None:
            rng = derive_rng(aug_seed, "eval-aug", key)
            spec = sample_spec(rng, bank, len(wave), snr_range)
            wave = apply_spec(wave, spec, bank)
        return key, logmel(wave, feature_cfg).values

    utterances = [
        (s, u, source.utterance_key(s, u))
        for s in range(source.speaker_count)
        for u in range(source.utterances_per_speaker)
    ]
    if ids is not None:
        ids = set(ids)
        utterances = [item for item in utterances if item[2] in ids]
    items = pool.map_items(features, *zip(*utterances))
    return {key: enc.forward(params, feats).embedding for key, feats in items}
