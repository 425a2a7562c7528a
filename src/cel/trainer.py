"""Training: one epoch loop for unsupervised pre-training and supervised fine-tuning.

Both phases train the same encoder with the same Adam loop (`_train`); the
items and the objective differ. Pre-training items are two independently
augmented crops of one utterance (one utterance per speaker per batch),
cut at sample offsets and corrupted before their log-mel, scored by
uniformity plus angular similarity; fine-tuning items are one clean
fixed-length segment each, cut at a hop offset from the utterance's
log-mel (computed once per source) and mean-normalized per crop, scored
by any of six supervised objectives. `OBJECTIVES` maps each phase's
objective names to a class that says which parameters the objective adds
to the encoder's, how a batch's embeddings become its loss and gradients,
which scale w the metric log shows, and what it adds to the checkpoint
meta; config validation and the CLI's choices read their names from it.

Every random draw comes from a stream derived from (run seed, purpose,
epoch, item or batch), so runs are bit-reproducible and resumable mid-run:
pre-training items draw their crops and augmentations from their own
streams, and a fine-tuning batch draws its items' crop positions from one
stream on the calling thread. Pre-training items are built four to a task
(`PRETRAIN_ITEMS_PER_TASK`; waveform fetch, crop, augmentation, log-mel)
on the shared thread pool of `cel.pool`, sized by the process's CPU
affinity; a task reverberates its crops in shared FFT stacks
(`cel.augment.apply_specs`), and SciPy's FFTs release the interpreter
lock, so tasks overlap on separate cores. A
fine-tuning item is a cut of its utterance's cached log-mel: only the
utterances missing from the cache go to the pool, and cached ones are read
on the calling thread, so a warm epoch submits nothing. The calling thread
encodes the features in item order as they arrive, then runs the losses,
the backward passes (summed view by view, each in item order) and Adam, so
outputs do not depend on the pool size. The encoder passes compute their
frame layers in float32 on a per-step copy of the weights; parameters,
losses, summed gradients, Adam and checkpoints are float64.
The pool leaves room for BLAS's own threads: with BLAS on every CPU (its
default) it has one thread, so set OPENBLAS_NUM_THREADS=1 to get one item
thread per CPU. Metric logs carry only deterministic quantities, so two
runs with the same seed write byte-identical logs and checkpoints. A step
whose loss or gradient is not finite raises NonFiniteError before Adam
applies it.

Every run starts the same way: a fresh state of the encoder (from the init
checkpoint, or at random), the objective's parameters and zeroed Adam
moments. A resume then checks the checkpoint's config echo, its objective
and its meta counts, and reads the parameters and both Adam moments
(`STATE_PREFIXES`) through `checked_blocks` against the fresh state's
shapes, so a block that is missing or mis-shaped, such as a classifier
with another speaker count, is refused naming the file and the block.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import finetune as ft
from . import pool
from .augment import (
    AugmentSpec,
    NoiseBank,
    apply_spec,
    apply_specs,
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
    ForwardCache,
    LrSchedule,
    OptimizerState,
    adam_step,
    checked_blocks,
    init_optimizer,
    load_checkpoint,
    load_encoder,
    lr_at,
    save_checkpoint,
    xavier_uniform,
)
from .errors import (
    CheckpointMismatchError,
    CorpusTooSmallError,
    InvalidParamError,
    NonFiniteError,
    SchemaError,
)
from .features import FeatureConfig, Waveform, crop_samples, logmel
from .losses import CelWeights, KernelParam, LossOutput, combine_losses, similarity_loss, uniformity_loss
from .rng import derive_rng
from .schema import at_least, check

# SNR range (dB) of the noise condition `embed_utterances` draws for each
# utterance when it is given a bank.
EVAL_SNR_RANGE = (5.0, 15.0)


@dataclass
class CorpusSource:
    """Waveform access over a manifest, optionally restricted to a speaker subset.

    With a root directory the WAV files are read; otherwise utterances are
    regenerated from the manifest seed. A source holds two stores: its
    waveforms, and the read-only whole-utterance log-mels of `features`.
    `embed_utterances` fills the second with evaluation features, whose
    corruption depends only on the key, never on the checkpoint, so every
    checkpoint scored on a source after the first reuses them (12 MB for the
    192 desk utterances at 40 mels, a quarter of their waveforms); a source
    that embeds its utterances once pays that for nothing. Fine-tuning
    (`_finetune_items`) fills it with clean unnormalized features in its
    first epoch (9 MB for the 144 desk training utterances). Both read it
    through `features_of`: cache hits on the calling thread, misses on the
    item pool.
    """

    manifest: CorpusManifest
    root: str | Path | None = None
    speakers: tuple[int, ...] | None = None
    _cache: dict = field(default_factory=dict, repr=False)
    _features: dict = field(default_factory=dict, repr=False)

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
                entry = self.manifest.entries[i * self.utterances_per_speaker + utt]
                self._cache[key] = load_utterance(self.root, entry)
            else:
                self._cache[key] = utterance_waveform(self.manifest, i, utt)
        return self._cache[key]

    def _feature_key(
        self, local_speaker: int, utt: int, feature_cfg: FeatureConfig,
        bank: NoiseBank | None, aug_seed: int, min_samples: int,
    ) -> tuple:
        return (
            self.speakers[local_speaker], utt, feature_cfg, bank,
            None if bank is None else aug_seed, min_samples,
        )

    def features(
        self,
        local_speaker: int,
        utt: int,
        feature_cfg: FeatureConfig,
        bank: NoiseBank | None = None,
        aug_seed: int = 0,
        min_samples: int = 0,
    ) -> np.ndarray:
        """Read-only log-mel features of one whole utterance, computed once.

        An utterance shorter than `min_samples` is first wrap-padded to
        exactly that length. With a bank, the utterance is first corrupted by
        the one noise/reverb condition drawn for it from (aug_seed,
        "eval-aug", its key). No caller passes both. A miss may be filled on
        a pool thread (`features_of` sends it there) and follows the
        waveform cache's rule: equal values, and one store wins.
        """
        key = self._feature_key(local_speaker, utt, feature_cfg, bank, aug_seed, min_samples)
        feats = self._features.get(key)
        if feats is None:
            wave = self.waveform(local_speaker, utt)
            if len(wave) < min_samples:
                wave = Waveform(np.resize(wave.samples, min_samples))
            if bank is not None:
                rng = derive_rng(aug_seed, "eval-aug", self.utterance_key(local_speaker, utt))
                spec = sample_spec(rng, bank, len(wave), EVAL_SNR_RANGE)
                wave = apply_spec(wave, spec, bank)
            feats = logmel(wave, feature_cfg).values
            feats.setflags(write=False)
            self._features[key] = feats
        return feats

    def features_of(
        self,
        pairs: Iterable[tuple[int, int]],
        feature_cfg: FeatureConfig,
        bank: NoiseBank | None = None,
        aug_seed: int = 0,
        min_samples: int = 0,
    ) -> Iterator[np.ndarray]:
        """`features` of each (local speaker, utt) pair, yielded in pair order.

        Only the pairs missing from the store go to the item pool, each
        once, and they start at the call; every other pair is read on the
        calling thread, so a call whose pairs are all cached submits
        nothing. A missing pair is yielded as soon as its features arrive.
        """
        pairs = list(pairs)
        args = (feature_cfg, bank, aug_seed, min_samples)
        keys = [self._feature_key(s, u, *args) for s, u in pairs]
        missing = {key: pair for key, pair in zip(keys, pairs) if key not in self._features}
        if missing:
            filled = pool.map_items(
                lambda s, u: self.features(s, u, *args), *zip(*missing.values())
            )
        return (next(filled) if missing.pop(key, None) else self._features[key] for key in keys)


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

    def __post_init__(self) -> None:
        at_least(self, 2, "k")
        if self.similarity_kind not in SIMILARITY_KINDS:
            raise InvalidParamError(
                f"similarity_kind must be one of {SIMILARITY_KINDS}, "
                f"got {self.similarity_kind!r}"
            )
        at_least(self, 1, "epochs", "frames")
        if self.snr_range[0] > self.snr_range[1]:
            raise InvalidParamError(f"empty SNR range {self.snr_range}")
        OBJECTIVES["pretrain"][self.similarity_kind].validate(self)


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

    def __post_init__(self) -> None:
        if self.objective not in FINETUNE_OBJECTIVES:
            raise InvalidParamError(
                f"objective must be one of {FINETUNE_OBJECTIVES}, got {self.objective!r}"
            )
        at_least(self, 2, "speakers_per_batch")
        at_least(self, 1, "utterances_per_speaker", "epochs", "frames")
        OBJECTIVES["finetune"][self.objective].validate(self)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    loss_total: float
    loss_unif: float
    loss_sim: float
    w: float

    def to_line(self) -> str:
        """The record's `metrics.tsv` row: the epoch, then each value's float repr."""
        epoch, *values = astuple(self)
        return "\t".join([str(epoch), *(repr(float(v)) for v in values)])


# The header row of `metrics.tsv`: the column names of EpochRecord.
LOG_HEADER = "\t".join(f.name for f in fields(EpochRecord))


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    opt_state: OptimizerState
    records: list[EpochRecord]
    log_text: str
    checkpoint_path: Path | None = None


# Pre-training items per pool task. A task reverberates its items' crops in
# stacks of up to `augment.STACK_ROWS` rows, so four items (eight crops) fill
# about one and a half stacks, and a desk batch of eight is one task per core.
PRETRAIN_ITEMS_PER_TASK = 4


def _pretrain_items(
    source: CorpusSource,
    bank: NoiseBank,
    cfg: PretrainConfig,
    feature_cfg: FeatureConfig,
    epoch: int,
    keys: Sequence[tuple[int, int]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Two independently corrupted crops (views) of each (local speaker, utt)
    key's utterance, as log-mel features, in key order.

    Each item draws only from its own crop and augmentation streams, and its
    crops are drawn as `apply_specs` takes them. Their reverberation shares
    FFT stacks with the other items' crops, which leaves every row's bytes
    as they are alone, so items may be grouped in any way, run in any order
    and on any thread.
    """

    def drawn() -> Iterator[tuple[Waveform, AugmentSpec]]:
        for s, u in keys:
            wave = source.waveform(s, u)
            crop_rng = derive_rng(cfg.seed, "crop", epoch, s, u)
            aug_rng = derive_rng(cfg.seed, "aug", epoch, s, u)
            crops = crop_two(wave, cfg.frames, crop_rng, feature_cfg=feature_cfg)
            yield from zip(crops, sample_pair_specs(aug_rng, bank, len(crops[0]), cfg.snr_range))

    feats: list = [None] * (2 * len(keys))
    for i, wave in apply_specs(drawn(), bank):
        feats[i] = logmel(wave, feature_cfg).values
    return list(zip(feats[0::2], feats[1::2]))


def _pretrain_batch(
    source: CorpusSource, bank: NoiseBank, cfg: PretrainConfig, feature_cfg: FeatureConfig,
    epoch: int, batch_index: int, speakers: Sequence[int], utts: Sequence[int],
) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    """A pre-training batch's items, built `PRETRAIN_ITEMS_PER_TASK` to a pool task, in item order."""
    keys = list(zip(speakers, utts))
    per = PRETRAIN_ITEMS_PER_TASK
    task = partial(_pretrain_items, source, bank, cfg, feature_cfg, epoch)
    tasks = pool.map_items(task, [keys[i : i + per] for i in range(0, len(keys), per)])
    return (item for items in tasks for item in items)


def _finetune_items(
    source: CorpusSource, cfg: FinetuneConfig, feature_cfg: FeatureConfig,
    speakers: Sequence[int], utts: Sequence[int], positions: Sequence[float],
) -> Iterator[tuple[np.ndarray]]:
    """Log-mel features of clean fixed-length segments, one view each, in item order.

    Each segment is `cfg.frames` columns of its utterance's cached
    unnormalized log-mel (`CorpusSource.features_of`, wrap-padded to at
    least one crop) from the hop offset `int(position * (offsets
    available))`, for a `position` in [0, 1), then mean-normalized if the
    config says so: the log-mel of the waveform crop at that offset, to the
    bit. Segments are cut on the calling thread.
    """
    raw_cfg = feature_cfg.without_normalization()
    need = crop_samples(cfg.frames, raw_cfg.win_length, raw_cfg.hop_length)
    all_feats = source.features_of(zip(speakers, utts), raw_cfg, min_samples=need)
    for feats, position in zip(all_feats, positions):
        offset = int(position * (feats.shape[1] - cfg.frames + 1))
        crop = feats[:, offset : offset + cfg.frames]
        if feature_cfg.mean_normalize:
            crop = crop - crop.mean(axis=1, keepdims=True)
        yield (crop,)


def _finetune_batch(
    source: CorpusSource, cfg: FinetuneConfig, feature_cfg: FeatureConfig,
    epoch: int, batch_index: int, speakers: Sequence[int], utts: Sequence[int],
) -> Iterable[tuple[np.ndarray]]:
    """A fine-tuning batch's items, in item order.

    The crop positions come from the batch's one crop stream, drawn on the
    calling thread in item order, so they do not depend on the pool size.
    """
    positions = derive_rng(cfg.seed, "crop", epoch, batch_index).random(len(speakers))
    return _finetune_items(source, cfg, feature_cfg, speakers, utts, positions)


class _Objective:
    """A training objective: the parameters it adds and how it scores a batch.

    Its own parameters (`init_params`) follow the encoder's in the parameter
    dict. `step(params, views, labels)` takes one (items, dim) embedding
    array per view, rows in item order, and returns the upstream gradients
    per view, the gradients of its own parameters and (loss_total,
    loss_unif, loss_sim), the first being the loss. `logged(params)` gives
    the log's w. `meta()` is what it adds to the checkpoint meta and
    `resume` restores it from there: by default the objective's name, so a
    fine-tuning run cannot resume under another objective.
    """

    def __init__(self, name: str, cfg, n_classes: int, embedding_dim: int) -> None:
        self.name, self.cfg = name, cfg
        self.n_classes, self.embedding_dim = n_classes, embedding_dim

    @staticmethod
    def validate(cfg: PretrainConfig | FinetuneConfig) -> None:
        """Raise InvalidParamError when the phase's config cannot feed the objective."""

    def meta(self) -> dict:
        return {"objective": self.name}

    def resume(self, meta: Mapping, path: str | Path) -> None:
        if meta.get("objective") != self.name:
            raise CheckpointMismatchError(
                f"{path}: checkpoint was fine-tuned with objective "
                f"{meta.get('objective')!r}; cannot resume it with {self.name!r}"
            )


class _Similarity(_Objective):
    """Scores through the learned scaled cosine w*cos (sim_scale)."""

    def init_params(self) -> dict[str, np.ndarray]:
        return {"sim_scale": np.float64(SimilarityParams().scale)}

    def logged(self, params: Mapping[str, np.ndarray]) -> float:
        return float(params["sim_scale"])

    def similarity(self, params: Mapping[str, np.ndarray]) -> SimilarityParams:
        return SimilarityParams(self.logged(params))

    @staticmethod
    def grads(out: LossOutput) -> dict[str, np.ndarray]:
        return {"sim_scale": out.grads["scale"]}


class _Cel(_Similarity):
    """Pre-training: uniformity plus similarity between each utterance's two views."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.kernel = KernelParam(t=self.cfg.kernel_t)
        self.weights = CelWeights(uniformity_weight=self.cfg.uniformity_weight)

    @staticmethod
    def validate(cfg: PretrainConfig) -> None:
        KernelParam(t=cfg.kernel_t)
        CelWeights(uniformity_weight=cfg.uniformity_weight)

    def step(self, params, views, labels):
        batch = EmbeddingBatch(*views)
        unif = uniformity_loss(batch, self.kernel)
        sim = similarity_loss(batch, self.similarity(params), self.name)
        out = combine_losses(unif, sim, self.weights)
        terms = (out.value, unif.value, sim.value)
        return [out.grads["view1"], out.grads["view2"]], self.grads(out), terms

    def meta(self) -> dict:
        return {}

    def resume(self, meta, path) -> None:
        pass


class _Pair(_Similarity):
    """Fine-tuning: similarity between the two utterances of each speaker."""

    @staticmethod
    def validate(cfg: FinetuneConfig) -> None:
        if cfg.utterances_per_speaker != 2:
            raise InvalidParamError(
                f"{cfg.objective} fine-tuning pairs two utterances per speaker, "
                f"got {cfg.utterances_per_speaker}"
            )

    def step(self, params, views, labels):
        (emb,) = views
        batch = EmbeddingBatch(emb[0::2], emb[1::2])
        out = similarity_loss(batch, self.similarity(params), self.name)
        upstream = np.stack([out.grads["view1"], out.grads["view2"]], axis=1).reshape(emb.shape)
        return [upstream], self.grads(out), (out.value, 0.0, out.value)


class _Ge2e(_Similarity):
    """Fine-tuning: generalized end-to-end loss against speaker centroids."""

    @staticmethod
    def validate(cfg: FinetuneConfig) -> None:
        if cfg.utterances_per_speaker < 2:
            raise InvalidParamError(
                "ge2e needs at least 2 utterances per speaker for centroid exclusion"
            )

    def step(self, params, views, labels):
        (emb,) = views
        # Rows come speaker by speaker, so they reshape to (speakers, utterances, dim).
        out = ft.ge2e_loss(emb.reshape(-1, self.cfg.utterances_per_speaker, emb.shape[1]),
                           self.similarity(params))
        upstream = out.grads["embeddings"].reshape(emb.shape)
        return [upstream], self.grads(out), (out.value, 0.0, out.value)


class _Margin(_Objective):
    """Fine-tuning: margin softmax over a classifier (cls_w) of every training speaker."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.margin = ft.MarginConfig(margin=self.cfg.margin, scale=self.cfg.margin_scale)

    @staticmethod
    def validate(cfg: FinetuneConfig) -> None:
        ft.MarginConfig(margin=cfg.margin, scale=cfg.margin_scale)

    def init_params(self) -> dict[str, np.ndarray]:
        rng = derive_rng(self.cfg.seed, "classifier")
        return {"cls_w": xavier_uniform(rng, self.n_classes, self.embedding_dim)}

    def loss(self, batch: ft.LabeledBatch, weights: np.ndarray) -> LossOutput:
        # `ft.cosface_loss` or `ft.arcface_loss`, looked up when called.
        return getattr(ft, f"{self.name}_loss")(batch, weights, self.margin)

    def step(self, params, views, labels):
        (emb,) = views
        out = self.loss(ft.LabeledBatch(emb, np.asarray(labels), self.n_classes), params["cls_w"])
        terms = (out.value, 0.0, out.value)
        return [out.grads["embeddings"]], {"cls_w": out.grads["weights"]}, terms

    def logged(self, params) -> float:
        return self.cfg.margin_scale


class _AdaCos(_Margin):
    """Fine-tuning: cosine softmax whose scale, state rather than a parameter,
    adapts to each batch; the log's w and the checkpoint meta carry it."""

    def init_params(self) -> dict[str, np.ndarray]:
        params = super().init_params()
        self.state = ft.AdaCosState.for_classes(self.n_classes)
        return params

    def loss(self, batch, weights):
        return ft.adacos_loss(batch, weights, self.state)

    def logged(self, params) -> float:
        return self.state.scale

    def meta(self) -> dict:
        state = {"adacos_scale": self.state.scale, "adacos_steps": self.state.steps}
        return {**super().meta(), **state}

    def resume(self, meta, path) -> None:
        super().resume(meta, path)
        self.state = ft.AdaCosState(
            scale=_meta_value(meta, "adacos_scale", path, float),
            steps=_meta_value(meta, "adacos_steps", path),
        )


# The objectives of each phase, by the name configs and the CLI give them.
OBJECTIVES: dict[str, dict[str, type[_Objective]]] = {
    "pretrain": {"aprot": _Cel, "acont": _Cel},
    "finetune": {
        "aprot": _Pair, "acont": _Pair, "ge2e": _Ge2e,
        "cosface": _Margin, "arcface": _Margin, "adacos": _AdaCos,
    },
}
SIMILARITY_KINDS = tuple(OBJECTIVES["pretrain"])
FINETUNE_OBJECTIVES = tuple(OBJECTIVES["finetune"])


def _summed_grads(
    enc: Encoder,
    params: Mapping[str, np.ndarray],
    forwards: Sequence[ForwardCache],
    upstream: Sequence[np.ndarray],
) -> dict[str, np.ndarray]:
    """Encoder parameter gradients of a batch, summed in float64 in the order given.

    The encoder passes stay on the calling thread: they are small matrix
    products whose Python overhead holds the interpreter lock, and on the
    pool they measured slower. Non-finite upstream gradients raise no numpy
    warning here; the caller's finiteness check reports them.
    """
    grads = {name: np.zeros(np.shape(p)) for name, p in params.items()}
    with np.errstate(invalid="ignore", over="ignore"):
        for fw, up in zip(forwards, upstream):
            for name, g in enc.backward(params, fw, up).items():
                grads[name] += g
    return grads


def _epoch_plan(
    n_speakers: int,
    utterances_per_speaker: int,
    speakers_per_batch: int,
    utts_per_item: int,
    rng: np.random.Generator,
) -> list[list[tuple[int, tuple[int, ...]]]]:
    """One pass over the corpus as batches of disjoint speakers.

    Each epoch shuffles a per-speaker utterance order, then runs rounds in
    which shuffled speakers are grouped into batches; speaker s contributes
    its next utts_per_item utterances in round order. A trailing group of one
    speaker is dropped for that round (the shuffle rotates who sits in the
    remainder).
    """
    utt_orders = [rng.permutation(utterances_per_speaker) for _ in range(n_speakers)]
    rounds = utterances_per_speaker // utts_per_item
    batches = []
    for r in range(rounds):
        order = rng.permutation(n_speakers)
        for start in range(0, n_speakers, speakers_per_batch):
            group = order[start : start + speakers_per_batch]
            if len(group) < 2:
                continue
            batch = []
            for s in group:
                utts = tuple(
                    int(utt_orders[s][r * utts_per_item + j]) for j in range(utts_per_item)
                )
                batch.append((int(s), utts))
            batches.append(batch)
    return batches


# The checkpoint block name prefixes of the parameters, Adam's first moments
# and its second moments, the three parts of the training state.
STATE_PREFIXES = ("", "opt_m.", "opt_v.")


def _meta_value(meta: Mapping, key: str, path: str | Path, kind: type = int):
    """`meta[key]` as a `kind` (an int must be at least 0), or a
    CheckpointMismatchError naming the path and the key."""
    if key not in meta:
        raise CheckpointMismatchError(f"{path}: checkpoint meta has no {key!r}")
    try:
        value = check(meta[key], kind, key)
    except SchemaError as exc:
        raise CheckpointMismatchError(f"{path}: checkpoint meta: {exc}") from exc
    if kind is int and value < 0:
        raise CheckpointMismatchError(f"{path}: checkpoint meta {key!r} is negative: {value}")
    return value


def _train(
    phase: str,
    objective_name: str,
    source: CorpusSource,
    cfg: PretrainConfig | FinetuneConfig,
    encoder_cfg: EncoderConfig,
    batch_items: Callable[..., Iterable[tuple[np.ndarray, ...]]],
    batch_shape: tuple[int, int],
    init_checkpoint: str | Path | None,
    out_dir: str | Path | None,
    resume_from: str | Path | None,
) -> TrainResult:
    """The epoch loop of both phases.

    `batch_items(epoch, batch_index, speakers, utts)` yields each item's
    encoder inputs in item order, one feature matrix per view; batches hold
    `batch_shape` = (speakers, utterances per speaker); the objective
    `OBJECTIVES[phase][objective_name]` scores them. A corpus smaller than
    one batch is refused before any item is built, and `out_dir` is made
    after the corpus and resume checks but before the first epoch. Each
    step's encoder passes run on one float32 copy of the encoder's weights;
    the parameters, their summed gradients and Adam stay float64.
    """
    sizes = zip(batch_shape, (source.speaker_count, source.utterances_per_speaker),
                ("speakers", "utterances per speaker"))
    for need, have, what in sizes:
        if have < need:
            raise CorpusTooSmallError(f"batches need {need} {what}, corpus has {have}")
    enc = Encoder(encoder_cfg)
    objective = OBJECTIVES[phase][objective_name](
        objective_name, cfg, source.speaker_count, encoder_cfg.embedding_dim
    )
    config_echo = {"kind": phase, "encoder": encoder_cfg.to_dict()}

    if init_checkpoint is not None and resume_from is None:
        stored, params = load_encoder(init_checkpoint)
        if stored != encoder_cfg:
            raise CheckpointMismatchError(
                f"{init_checkpoint}: checkpoint encoder {stored.to_dict()} does not match "
                f"configured {encoder_cfg.to_dict()}"
            )
    else:
        params = enc.init_params(derive_rng(cfg.seed, "init"))
    params.update(objective.init_params())
    opt = init_optimizer(params)
    start_epoch = 0
    if resume_from is not None:
        _, blocks, meta = load_checkpoint(resume_from, expected_config=config_echo)
        objective.resume(meta, resume_from)
        start_epoch = _meta_value(meta, "epochs_done", resume_from)
        if cfg.epochs <= start_epoch:
            raise CheckpointMismatchError(
                f"{resume_from}: checkpoint has {start_epoch} epochs done; a run of "
                f"{cfg.epochs} epochs has none left to train"
            )
        step = _meta_value(meta, "adam_step", resume_from)
        shapes = {name: np.shape(a) for name, a in params.items()}
        params, m, v = (checked_blocks(resume_from, blocks, shapes, p) for p in STATE_PREFIXES)
        opt = OptimizerState(m=m, v=v, step=step)
    # Made before any epoch, so an out_dir that cannot be a directory fails first.
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    records: list[EpochRecord] = []
    for epoch in range(start_epoch, cfg.epochs):
        lr = lr_at(cfg.schedule, epoch)
        plan = _epoch_plan(
            source.speaker_count,
            source.utterances_per_speaker,
            *batch_shape,
            derive_rng(cfg.seed, "plan", epoch),
        )
        totals = np.zeros(3)
        for batch_index, batch_plan in enumerate(plan):
            labels = [s for s, utts in batch_plan for _ in utts]
            items = batch_items(
                epoch, batch_index, labels, [u for _, utts in batch_plan for u in utts]
            )
            weights = enc.float32_weights(params)
            # Encoded as each item arrives, then grouped by view: backward
            # passes are summed view by view, each in item order.
            forwards = [[enc.forward(weights, v) for v in views] for views in items]
            by_view = list(zip(*forwards))
            upstream, own_grads, terms = objective.step(
                params, [np.stack([f.embedding for f in fw]) for fw in by_view], labels
            )
            grads = _summed_grads(
                enc, weights, [f for fw in by_view for f in fw],
                [g for up in upstream for g in up],
            )
            grads.update(own_grads)
            finite = np.isfinite(terms).all() and all(np.isfinite(g).all() for g in grads.values())
            if not finite:
                raise NonFiniteError(
                    f"{phase} ({objective_name}): non-finite loss or gradient at epoch "
                    f"{epoch}, batch {batch_index}; no update was applied"
                )
            params, opt = adam_step(opt, params, grads, lr)
            if "sim_scale" in params:
                params["sim_scale"] = np.maximum(params["sim_scale"], SCALE_FLOOR)
            totals += terms

        mean = totals / max(len(plan), 1)
        records.append(EpochRecord(epoch, lr, *map(float, mean), objective.logged(params)))

    log_text = "\n".join([LOG_HEADER] + [r.to_line() for r in records]) + "\n"
    ckpt = None
    if out is not None:
        (out / "metrics.tsv").write_text(log_text)
        ckpt = out / "checkpoint.ckpt"
        meta = {"epochs_done": cfg.epochs, "adam_step": opt.step, **objective.meta()}
        state = {p + name: a for p, part in zip(STATE_PREFIXES, (params, opt.m, opt.v))
                 for name, a in part.items()}
        save_checkpoint(ckpt, config_echo, state, meta)
    return TrainResult(params, opt, records, log_text, ckpt)


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
    bank = bank or synth_bank(cfg.seed)
    return _train(
        "pretrain", cfg.similarity_kind, source, cfg, encoder_cfg,
        batch_items=partial(_pretrain_batch, source, bank, cfg, feature_cfg),
        batch_shape=(cfg.k, 1),
        init_checkpoint=None,
        out_dir=out_dir,
        resume_from=resume_from,
    )


def finetune(
    source: CorpusSource,
    cfg: FinetuneConfig,
    encoder_cfg: EncoderConfig = EncoderConfig(),
    feature_cfg: FeatureConfig = FeatureConfig(),
    out_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> TrainResult:
    """Supervised fine-tuning on unaugmented fixed-length segments."""
    return _train(
        "finetune", cfg.objective, source, cfg, encoder_cfg,
        batch_items=partial(_finetune_batch, source, cfg, feature_cfg),
        batch_shape=(cfg.speakers_per_batch, cfg.utterances_per_speaker),
        init_checkpoint=cfg.init_checkpoint,
        out_dir=out_dir,
        resume_from=resume_from,
    )


def embed_utterances(
    source: CorpusSource,
    params: Mapping[str, np.ndarray],
    encoder_cfg: EncoderConfig = EncoderConfig(),
    feature_cfg: FeatureConfig = FeatureConfig(),
    bank: NoiseBank | None = None,
    aug_seed: int = 0,
    ids: Collection[str] | None = None,
) -> dict[str, np.ndarray]:
    """Full-utterance embeddings keyed by manifest relative path.

    With a bank, each utterance is embedded under one fixed random
    noise/reverb condition (deterministic per key), which evaluates
    robustness rather than clean-audio separability. With `ids`, only the
    utterances whose keys it holds are read and embedded, each exactly as a
    whole-corpus call embeds it; ids outside the corpus are ignored. The
    features come from, and stay in, the source's feature cache
    (`CorpusSource.features_of`), so only a source's first call per
    condition sends work to the item pool.
    """
    enc = Encoder(encoder_cfg)
    pairs = {
        source.utterance_key(s, u): (s, u)
        for s in range(source.speaker_count)
        for u in range(source.utterances_per_speaker)
    }
    if ids is not None:
        ids = set(ids)
        pairs = {key: pair for key, pair in pairs.items() if key in ids}
    all_feats = source.features_of(pairs.values(), feature_cfg, bank, aug_seed)
    weights = enc.float32_weights(params)
    return {key: enc.forward(weights, feats).embedding for key, feats in zip(pairs, all_feats)}
