"""Supervised fine-tuning objectives over labeled embedding batches.

Four cross-entropy-shaped losses: a softmax-variant generalized end-to-end
loss scored against speaker centroids, additive cosine margin, additive
angular margin, and an adaptively scaled cosine loss whose scale parameter
is non-differentiable state updated from batch statistics.

All gradients are analytic, taken with respect to the raw (pre-normalization)
embedding and weight matrices; cosines normalize their arguments internally,
so the losses stay well defined off the unit sphere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .embedding import SCALE_FLOOR, SimilarityParams
from .errors import (
    BatchShapeInvalidError,
    BatchTooSmallError,
    InvalidParamError,
    LabelOutOfRangeError,
    SingleClassError,
)
from .losses import LossOutput, _CosineMatrix, _log_softmax_rows

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


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE over rows and its gradient (softmax minus one-hot, / N)."""
    n = logits.shape[0]
    lse, probs = _log_softmax_rows(logits)
    value = float(np.mean(lse - logits[np.arange(n), labels]))
    g = probs.copy()
    g[np.arange(n), labels] -= 1.0
    g /= n
    return value, g


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / norms, norms


def ge2e_loss(embeddings: np.ndarray, params: SimilarityParams) -> LossOutput:
    """Softmax-variant generalized end-to-end loss of a (speakers, utterances, dim) array.

    Every utterance is scored against every speaker centroid through the
    affine cosine similarity; the own-speaker centroid excludes the scored
    utterance itself. Value is the mean negative log-softmax of the
    own-speaker score. The "embeddings" gradient has the input's shape.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 3 or emb.shape[0] < 2 or emb.shape[1] < 2:
        raise BatchShapeInvalidError(
            f"need a (speakers, utterances, dim) array with >= 2 speakers and "
            f">= 2 utterances per speaker, got shape {emb.shape}"
        )
    speakers, utterances = emb.shape[:2]
    w, b = params.scale, params.bias

    sums = emb.sum(axis=1)  # (S, m)
    cent_incl = sums / utterances  # (S, m)
    cent_excl = (sums[:, None, :] - emb) / (utterances - 1)  # (S, U, m)

    # Cosines of every utterance against every centroid; the diagonal
    # (own speaker) uses the exclusive centroid.
    eu, e_norms = _unit_rows(emb.reshape(-1, emb.shape[-1]))
    eu = eu.reshape(speakers, utterances, -1)
    e_norms = e_norms.reshape(speakers, utterances, 1)
    cu_incl, ci_norms = _unit_rows(cent_incl)
    cu_excl, ce_norms = _unit_rows(cent_excl.reshape(-1, emb.shape[-1]))
    cu_excl = cu_excl.reshape(speakers, utterances, -1)
    ce_norms = ce_norms.reshape(speakers, utterances, 1)

    cos = np.einsum("sum,km->suk", eu, cu_incl)
    own = np.einsum("sum,sum->su", eu, cu_excl)
    rows = np.arange(speakers)[:, None]
    cols = np.arange(utterances)[None, :]
    cos[rows, cols, rows] = own

    logits = (w * cos + b).reshape(speakers * utterances, speakers)
    labels = np.repeat(np.arange(speakers), utterances)
    value, g_logits = _cross_entropy_rows(logits, labels)

    g_cos = (w * g_logits).reshape(speakers, utterances, speakers)
    grad_scale = float(np.sum(g_logits.reshape(cos.shape) * cos))
    grad_bias = float(np.sum(g_logits))

    g_own = g_cos[rows, cols, rows].copy()
    g_other = g_cos.copy()
    g_other[rows, cols, rows] = 0.0

    # d cos(a, b)/da = (b_hat - cos a_hat)/|a|, and symmetrically for b.
    g_emb = np.zeros_like(emb)

    # Utterance side, inclusive-centroid terms.
    g_emb += (np.einsum("suk,km->sum", g_other, cu_incl)
              - np.einsum("suk,suk->su", g_other, cos)[:, :, None] * eu) / e_norms
    # Utterance side, own exclusive-centroid term.
    g_emb += g_own[:, :, None] * (cu_excl - own[:, :, None] * eu) / e_norms

    # Centroid side, inclusive: every utterance of speaker k gets 1/U.
    g_ci = (np.einsum("suk,sum->km", g_other, eu)
            - np.einsum("suk,suk->k", g_other, cos)[:, None] * cu_incl) / ci_norms
    g_emb += g_ci[:, None, :] / utterances

    # Centroid side, exclusive: speaker s's utterances u' != u get 1/(U-1).
    g_ce = g_own[:, :, None] * (eu - own[:, :, None] * cu_excl) / ce_norms
    g_emb += (g_ce.sum(axis=1, keepdims=True) - g_ce) / (utterances - 1)

    return LossOutput(
        value=value,
        grads={
            "embeddings": g_emb,
            "scale": np.float64(grad_scale),
            "bias": np.float64(grad_bias),
        },
    )


def _checked_weights(weights: np.ndarray, dim: int) -> np.ndarray:
    """Classifier weights as float64, after checking their (classes, dim) shape."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != dim:
        raise BatchShapeInvalidError(
            f"classifier weights must be (num_classes, {dim}), got {w.shape}"
        )
    return w


def _margin_core(
    batch: LabeledBatch,
    target_logit: np.ndarray,
    other_scale: float,
    d_target_d_cos: np.ndarray,
    cm: _CosineMatrix,
) -> LossOutput:
    """Shared CE-and-backprop tail for the margin-softmax family."""
    n = batch.size
    idx = np.arange(n)
    logits = other_scale * cm.cos
    logits[idx, batch.labels] = target_logit
    value, g_logits = _cross_entropy_rows(logits, batch.labels)

    g_cos = other_scale * g_logits
    g_cos[idx, batch.labels] = g_logits[idx, batch.labels] * d_target_d_cos
    g_emb, g_w = cm.backward(g_cos)
    return LossOutput(
        value=value, grads={"embeddings": g_emb, "weights": g_w}
    )


def cosface_loss(
    batch: LabeledBatch, weights: np.ndarray, cfg: MarginConfig
) -> LossOutput:
    """Additive cosine margin: target logit s*(cos - m), others s*cos."""
    w = _checked_weights(weights, batch.embeddings.shape[1])
    cm = _CosineMatrix(batch.embeddings, w)
    idx = np.arange(batch.size)
    target_cos = cm.cos[idx, batch.labels]
    target_logit = cfg.scale * (target_cos - cfg.margin)
    d_target = np.full(batch.size, cfg.scale)
    return _margin_core(batch, target_logit, cfg.scale, d_target, cm)


def arcface_loss(
    batch: LabeledBatch, weights: np.ndarray, cfg: MarginConfig
) -> LossOutput:
    """Additive angular margin: target logit s*cos(theta + m), others s*cos."""
    w = _checked_weights(weights, batch.embeddings.shape[1])
    cm = _CosineMatrix(batch.embeddings, w)
    idx = np.arange(batch.size)
    target_cos = np.clip(cm.cos[idx, batch.labels], -COS_CLAMP, COS_CLAMP)
    inside = np.abs(cm.cos[idx, batch.labels]) < COS_CLAMP
    theta = np.arccos(target_cos)
    target_logit = cfg.scale * np.cos(theta + cfg.margin)
    # d/dcos s*cos(acos(c)+m) = s*sin(theta+m)/sqrt(1-c^2); zero when clamped.
    d_target = np.where(
        inside,
        cfg.scale * np.sin(theta + cfg.margin) / np.sqrt(1.0 - target_cos**2),
        0.0,
    )
    return _margin_core(batch, target_logit, cfg.scale, d_target, cm)


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
    w = _checked_weights(weights, batch.embeddings.shape[1])
    cm = _CosineMatrix(batch.embeddings, w)
    s = state.scale
    idx = np.arange(batch.size)
    target_cos = cm.cos[idx, batch.labels]
    target_logit = s * target_cos
    d_target = np.full(batch.size, s)
    out = _margin_core(batch, target_logit, s, d_target, cm)

    if update_scale:
        mass = np.exp(s * cm.cos)
        mass[idx, batch.labels] = 0.0
        b_avg = float(mass.sum() / batch.size)
        theta_med = float(np.median(np.arccos(np.clip(target_cos, -1.0, 1.0))))
        new_scale = math.log(b_avg) / math.cos(min(math.pi / 4.0, theta_med))
        state.scale = max(new_scale, SCALE_FLOOR)
        state.steps += 1
    return out
