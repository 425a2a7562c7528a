"""Supervised fine-tuning objectives over labeled embedding batches.

Four cross-entropy-shaped losses: a softmax-variant generalized end-to-end
loss scored against speaker centroids, additive cosine margin, additive
angular margin, and an adaptively scaled cosine loss whose scale parameter
is non-differentiable state updated from batch statistics.

The three classifier losses share one margin-softmax core,
`_margin_softmax`: each states only its own-class logit as a function of
the own-class cosine, and the core does the rest (weight check, cosine
matrix, cross-entropy, backpropagation).

All gradients are analytic, taken with respect to the raw (pre-normalization)
embedding and weight matrices; cosines normalize their arguments internally,
so the losses stay well defined off the unit sphere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embedding import SCALE_FLOOR, SimilarityParams
from .errors import (
    BatchShapeInvalidError,
    BatchTooSmallError,
    InvalidParamError,
    LabelOutOfRangeError,
    SingleClassError,
)
from .losses import LossOutput, _CosineMatrix, _cross_entropy_rows

# Keeps arccos differentiable at the clamp edge for the angular margin loss.
COS_CLAMP = 1.0 - 1e-7


@dataclass(frozen=True)
class LabeledBatch:
    """Embeddings with integer class labels in [0, num_classes)."""

    embeddings: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        emb = np.asarray(self.embeddings, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if emb.ndim != 2:
            raise BatchShapeInvalidError(
                f"embeddings must be 2-d, got shape {emb.shape}"
            )
        if emb.shape[0] < 2:
            raise BatchTooSmallError(
                f"need at least 2 embeddings, got {emb.shape[0]}"
            )
        if labels.shape != (emb.shape[0],):
            raise BatchShapeInvalidError(
                f"labels shape {labels.shape} does not match {emb.shape[0]} embeddings"
            )
        if self.num_classes < 1:
            raise SingleClassError(f"num_classes must be >= 1, got {self.num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise LabelOutOfRangeError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


@dataclass(frozen=True)
class MarginConfig:
    """Margin and scale for the additive margin losses."""

    margin: float = 0.2
    scale: float = 30.0

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise InvalidParamError(f"margin must be >= 0, got {self.margin}")
        if self.scale <= 0:
            raise InvalidParamError(f"scale must be positive, got {self.scale}")


@dataclass
class AdaCosState:
    """Dynamic scale for the adaptively scaled cosine loss.

    Single-writer: one training run owns and serializes updates.
    """

    scale: float
    steps: int = 0

    @classmethod
    def for_classes(cls, num_classes: int) -> "AdaCosState":
        if num_classes < 2:
            raise SingleClassError(
                f"adaptive scale needs at least 2 classes, got {num_classes}"
            )
        s = math.sqrt(2.0) * math.log(num_classes - 1)
        if s < SCALE_FLOOR:
            warnings.warn(
                f"initial adaptive scale {s:.6g} for {num_classes} classes is "
                f"degenerate; flooring at {SCALE_FLOOR}",
                stacklevel=2,
            )
            s = SCALE_FLOOR
        return cls(scale=s)


def ge2e_loss(embeddings: np.ndarray, params: SimilarityParams) -> LossOutput:
    """Softmax-variant generalized end-to-end loss of a (speakers, utterances, dim) array.

    Every utterance is scored against every speaker centroid through the
    scaled cosine similarity; the own-speaker centroid excludes the scored
    utterance itself. Value is the mean negative log-softmax of the
    own-speaker score. The "embeddings" gradient has the input's shape.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 3 or emb.shape[0] < 2 or emb.shape[1] < 2:
        raise BatchShapeInvalidError(
            f"need a (speakers, utterances, dim) array with >= 2 speakers and "
            f">= 2 utterances per speaker, got shape {emb.shape}"
        )
    speakers, utterances, dim = emb.shape
    rows = emb.reshape(-1, dim)
    sums = emb.sum(axis=1)
    cent_excl = (sums[:, None, :] - emb) / (utterances - 1)
    # Utterances against every inclusive centroid, and against their own
    # exclusive centroid on the diagonal of the second matrix.
    incl = _CosineMatrix(rows, sums / utterances)
    excl = _CosineMatrix(rows, cent_excl.reshape(-1, dim))
    idx = np.arange(rows.shape[0])
    labels = np.repeat(np.arange(speakers), utterances)
    cos = incl.cos.copy()
    cos[idx, labels] = np.diag(excl.cos)
    value, g_logits = _cross_entropy_rows(params.scale * cos, labels)
    g_logits /= rows.shape[0]

    g_other = params.scale * g_logits
    g_own = g_other[idx, labels]
    g_other[idx, labels] = 0.0
    g_rows, g_incl = incl.backward(g_other)
    g_rows_own, g_excl = excl.backward(np.diag(g_own))
    # Chain rule through the centroids: an inclusive centroid is the mean of
    # its speaker's U utterances; the exclusive one of utterance u, the mean
    # of the other U - 1.
    g_excl = g_excl.reshape(emb.shape)
    g_emb = (g_rows + g_rows_own).reshape(emb.shape)
    g_emb += g_incl[:, None, :] / utterances
    g_emb += (g_excl.sum(axis=1, keepdims=True) - g_excl) / (utterances - 1)
    return LossOutput(
        value=value,
        grads={"embeddings": g_emb, "scale": np.float64(np.sum(g_logits * cos))},
    )


def _margin_softmax(
    batch: LabeledBatch,
    weights: np.ndarray,
    scale: float,
    target: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | float]],
) -> tuple[LossOutput, np.ndarray]:
    """Cross-entropy over classifier logits scale*cos, own class replaced.

    `target` maps each row's own-class cosine to its own-class logit and
    that logit's derivative. Returns the loss and the (batch, classes)
    cosine matrix.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != batch.embeddings.shape[1]:
        raise BatchShapeInvalidError(
            f"classifier weights must be (num_classes, {batch.embeddings.shape[1]}), "
            f"got {w.shape}"
        )
    cm = _CosineMatrix(batch.embeddings, w)
    own = (np.arange(batch.size), batch.labels)
    own_logit, d_own = target(cm.cos[own])
    logits = scale * cm.cos
    logits[own] = own_logit
    value, g_logits = _cross_entropy_rows(logits, batch.labels)
    g_logits /= batch.size

    g_cos = scale * g_logits
    g_cos[own] = g_logits[own] * d_own
    g_emb, g_w = cm.backward(g_cos)
    return LossOutput(value=value, grads={"embeddings": g_emb, "weights": g_w}), cm.cos


def _cosine_margin(scale: float, margin: float):
    """Own-class logit s*(cos - m) and its derivative s."""
    return lambda cos: (scale * (cos - margin), scale)


def cosface_loss(
    batch: LabeledBatch, weights: np.ndarray, cfg: MarginConfig
) -> LossOutput:
    """Additive cosine margin: target logit s*(cos - m), others s*cos."""
    return _margin_softmax(batch, weights, cfg.scale, _cosine_margin(cfg.scale, cfg.margin))[0]


def arcface_loss(
    batch: LabeledBatch, weights: np.ndarray, cfg: MarginConfig
) -> LossOutput:
    """Additive angular margin: target logit s*cos(theta + m), others s*cos."""

    def target(cos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        clamped = np.clip(cos, -COS_CLAMP, COS_CLAMP)
        theta = np.arccos(clamped)
        # d/dcos s*cos(acos(c)+m) = s*sin(theta+m)/sqrt(1-c^2); zero when clamped.
        d_logit = np.where(
            np.abs(cos) < COS_CLAMP,
            cfg.scale * np.sin(theta + cfg.margin) / np.sqrt(1.0 - clamped**2),
            0.0,
        )
        return cfg.scale * np.cos(theta + cfg.margin), d_logit

    return _margin_softmax(batch, weights, cfg.scale, target)[0]


def adacos_loss(
    batch: LabeledBatch,
    weights: np.ndarray,
    state: AdaCosState,
    update_scale: bool = True,
) -> LossOutput:
    """Adaptively scaled cosine loss; scale lives in non-differentiable state.

    The forward pass uses state.scale as a fixed multiplier. Afterwards (when
    update_scale is set) the scale is recomputed from the batch: the average
    non-target exponential mass and the median target angle, capped at pi/4.
    """
    if batch.num_classes < 2:
        raise SingleClassError(
            f"adaptive scale needs at least 2 classes, got {batch.num_classes}"
        )
    s = state.scale
    # Fixed-scale AdaCos is the CosFace logit at m = 0.
    out, cos = _margin_softmax(batch, weights, s, _cosine_margin(s, 0.0))

    if update_scale:
        own = (np.arange(batch.size), batch.labels)
        mass = np.exp(s * cos)
        mass[own] = 0.0
        b_avg = float(mass.sum() / batch.size)
        theta_med = float(np.median(np.arccos(np.clip(cos[own], -1.0, 1.0))))
        new_scale = math.log(b_avg) / math.cos(min(math.pi / 4.0, theta_med))
        state.scale = max(new_scale, SCALE_FLOOR)
        state.steps += 1
    return out
