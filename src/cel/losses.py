"""Self-supervised objectives over two-view embedding batches.

All losses return a ``LossOutput`` carrying the scalar value and analytic
gradients with respect to every input, in ambient coordinates. Every
similarity loss, here and in `cel.finetune`, is a softmax cross-entropy
over scaled cosines and goes through `_cross_entropy_rows`. The
gradients are exact derivatives of the implemented forward expressions,
including the defensive norm divisions, so central finite differences on
the raw inputs must agree with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .embedding import EmbeddingBatch, SimilarityParams
from .errors import BatchTooSmallError, DimensionMismatchError, InvalidParamError

SimilarityKind = Literal["aprot", "acont"]


@dataclass(frozen=True)
class KernelParam:
    """Sharpness of the pairwise Gaussian potential exp(-t * d^2)."""

    t: float = 2.0

    def __post_init__(self) -> None:
        if not self.t > 0:
            raise InvalidParamError(f"kernel sharpness must be positive, got {self.t}")


@dataclass(frozen=True)
class CelWeights:
    """Weight of the uniformity term in the combined objective."""

    uniformity_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.uniformity_weight < 0:
            raise InvalidParamError(
                f"uniformity weight must be nonnegative, got {self.uniformity_weight}"
            )


@dataclass
class LossOutput:
    """Scalar loss plus named gradients.

    The keys are exactly the arrays the loss depends on: "view1"/"view2"
    for uniformity, plus "scale" for the two-view similarity losses and
    their combination, "embeddings"/"scale" for GE2E and
    "embeddings"/"weights" for the classifier losses. "scale" is the
    gradient of the cosine scale w in the logits w * cos.
    """

    value: float
    grads: dict[str, np.ndarray] = field(default_factory=dict)


def gaussian_potential(a: np.ndarray, b: np.ndarray, kernel: KernelParam) -> float:
    """Pairwise Gaussian (RBF) potential exp(-t * ||a - b||^2)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.exp(-kernel.t * np.dot(d, d)))


def pairwise_uniformity(points: np.ndarray, kernel: KernelParam) -> tuple[float, np.ndarray]:
    """Log of the mean pairwise Gaussian potential over one point set.

    Points are taken as given and are expected on the unit sphere (the
    encoder emits normalized embeddings); the [-4t, 0] value range holds
    only there. The mean runs over the C(N, 2) unordered pairs, each
    counted once. Returns (value, gradient) with the gradient taken in
    ambient coordinates; restricted to the sphere it is the constrained
    gradient once the caller projects out the radial component.
    Minimizing this drives the points toward the uniform distribution.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError("points must be a 2-d (N, m) array")
    n = x.shape[0]
    if n < 2:
        raise BatchTooSmallError("need at least 2 points")
    t = kernel.t

    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    logits = -t * d2
    np.fill_diagonal(logits, -np.inf)

    # logsumexp over the strict upper triangle = log of the single-count sum.
    iu = np.triu_indices(n, k=1)
    upper = logits[iu]
    peak = float(np.max(upper))
    log_sum = peak + float(np.log(np.sum(np.exp(upper - peak))))
    n_pairs = n * (n - 1) // 2
    value = log_sum - float(np.log(n_pairs))

    # p[i, j] = potential(i, j) / single-count sum, symmetric, zero diagonal
    p = np.exp(logits - log_sum)
    row = p.sum(axis=1)
    grad = -2.0 * t * (row[:, None] * x - p @ x)
    return value, grad


def uniformity_loss(batch: EmbeddingBatch, kernel: KernelParam) -> LossOutput:
    """Batch uniformity loss, half per view.

    Each view contributes half the log of its mean within-view pair
    potential; cross-view pairs do not enter.
    """
    v1, g1 = pairwise_uniformity(batch.view1, kernel)
    v2, g2 = pairwise_uniformity(batch.view2, kernel)
    return LossOutput(
        value=0.5 * v1 + 0.5 * v2,
        grads={"view1": 0.5 * g1, "view2": 0.5 * g2},
    )


class _CosineMatrix:
    """Cross-view cosine matrix with the machinery to push gradients back.

    cos[i, j] = <a_i, b_j> / (||a_i|| ||b_j||), clamped to [-1, 1]. The
    clamp mask zeroes gradients where it binds (only at exactly parallel
    pairs under floating point).
    """

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        self.na = np.linalg.norm(a, axis=1)
        self.nb = np.linalg.norm(b, axis=1)
        self.ua = a / self.na[:, None]
        self.ub = b / self.nb[:, None]
        raw = self.ua @ self.ub.T
        self.mask = np.abs(raw) < 1.0
        self.cos = np.clip(raw, -1.0, 1.0)

    def backward(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of sum(g * cos) with respect to the raw inputs."""
        g = g * self.mask
        g_cos = g * self.cos
        ga = (g @ self.ub - g_cos.sum(axis=1)[:, None] * self.ua)
        ga /= self.na[:, None]
        gb = (g.T @ self.ua - g_cos.sum(axis=0)[:, None] * self.ub)
        gb /= self.nb[:, None]
        return ga, gb


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE over rows, and softmax minus one-hot: the caller divides it by its row count."""
    peak = logits.max(axis=1, keepdims=True)
    z = np.exp(logits - peak)
    denom = z.sum(axis=1, keepdims=True)
    lse = (peak + np.log(denom)).ravel()
    rows = np.arange(logits.shape[0])
    value = float(np.mean(lse - logits[rows, labels]))
    g = z / denom
    g[rows, labels] -= 1.0
    return value, g


def aprot_loss(batch: EmbeddingBatch, params: SimilarityParams) -> LossOutput:
    """Angular prototypical loss.

    Each view-1 embedding is classified against all K view-2 embeddings
    through the scaled cosine similarity; the correct class is its own
    positive pair. Mean cross-entropy over the K anchors.
    """
    cm = _CosineMatrix(batch.view1, batch.view2)
    value, g_s = _cross_entropy_rows(params.scale * cm.cos, np.arange(batch.size))
    g_s /= batch.size
    g1, g2 = cm.backward(params.scale * g_s)
    return LossOutput(
        value=value,
        grads={"view1": g1, "view2": g2, "scale": np.float64(np.sum(g_s * cm.cos))},
    )


def acont_loss(batch: EmbeddingBatch, params: SimilarityParams) -> LossOutput:
    """Angular contrastive loss.

    Symmetric two-direction cross-entropy over the cross-view similarity
    matrix: anchors in view 1 normalize over view-2 candidates (rows) and
    anchors in view 2 normalize over view-1 candidates (columns), each
    direction weighted one half.
    """
    k = batch.size
    cm = _CosineMatrix(batch.view1, batch.view2)
    s = params.scale * cm.cos
    value_r, g_r = _cross_entropy_rows(s, np.arange(k))
    value_c, g_c = _cross_entropy_rows(s.T, np.arange(k))
    value = 0.5 * value_r + 0.5 * value_c
    g_s = (g_r + g_c.T) / (2.0 * k)
    g1, g2 = cm.backward(params.scale * g_s)
    return LossOutput(
        value=value,
        grads={"view1": g1, "view2": g2, "scale": np.float64(np.sum(g_s * cm.cos))},
    )


def similarity_loss(
    batch: EmbeddingBatch, params: SimilarityParams, kind: SimilarityKind
) -> LossOutput:
    if kind == "aprot":
        return aprot_loss(batch, params)
    if kind == "acont":
        return acont_loss(batch, params)
    raise InvalidParamError(f"unknown similarity kind: {kind!r}")


def combine_losses(unif: LossOutput, sim: LossOutput, weights: CelWeights) -> LossOutput:
    """weight * uniformity + similarity, gradients combined the same way.

    A zero weight drops the uniformity gradients entirely instead of
    multiplying them by zero, so a weight-0 run is bit-identical to a
    similarity-only run.
    """
    w = weights.uniformity_weight
    grads = dict(sim.grads)
    if w == 0.0:
        return LossOutput(value=sim.value, grads=grads)
    for name, g in unif.grads.items():
        grads[name] = w * g + grads[name]
    return LossOutput(value=w * unif.value + sim.value, grads=grads)


def total_loss(
    batch: EmbeddingBatch,
    kernel: KernelParam,
    params: SimilarityParams,
    weights: CelWeights,
    similarity_kind: SimilarityKind = "aprot",
) -> LossOutput:
    """Combined objective: uniformity weighted in with the similarity loss."""
    unif = uniformity_loss(batch, kernel)
    sim = similarity_loss(batch, params, similarity_kind)
    return combine_losses(unif, sim, weights)
