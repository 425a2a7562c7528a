"""Unit-hypersphere embedding primitives.

Embeddings are plain float64 numpy vectors. Everything downstream assumes
they live on the unit sphere; ``normalize`` is the single place that puts
them there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BatchTooSmallError,
    DimensionMismatchError,
    InvalidParamError,
    ZeroVectorError,
)

NORM_FLOOR = 1e-12

# Trained scale stays positive: the trainer clamps it after every optimizer step.
SCALE_FLOOR = 1e-3


@dataclass(frozen=True)
class SimilarityParams:
    """Learnable scale of the cosine-similarity logits, scale * cos.

    The paper's affine form scale * cos + bias adds one constant to every
    logit of a softmax, which no cross-entropy here can see, so there is no
    bias.
    """

    scale: float = 10.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise InvalidParamError(
                f"similarity scale must be positive, got {self.scale}"
            )


@dataclass(frozen=True)
class EmbeddingBatch:
    """Two views of K embeddings; row i of each view comes from the same utterance."""

    view1: np.ndarray  # (K, m)
    view2: np.ndarray  # (K, m)

    def __post_init__(self) -> None:
        v1 = np.asarray(self.view1, dtype=np.float64)
        v2 = np.asarray(self.view2, dtype=np.float64)
        object.__setattr__(self, "view1", v1)
        object.__setattr__(self, "view2", v2)
        if v1.ndim != 2 or v2.ndim != 2:
            raise DimensionMismatchError("views must be 2-d (K, m) arrays")
        if v1.shape != v2.shape:
            raise DimensionMismatchError(
                f"view shapes differ: {v1.shape} vs {v2.shape}"
            )
        if v1.shape[0] < 2:
            raise BatchTooSmallError("batch needs at least 2 utterances")
        if v1.shape[1] < 2:
            raise DimensionMismatchError("embedding dimension must be >= 2")

    @property
    def size(self) -> int:
        return self.view1.shape[0]


def normalize(v: np.ndarray) -> np.ndarray:
    """Project a vector onto the unit sphere.

    Raises ZeroVectorError when the norm is at or below 1e-12, rather than
    returning garbage.
    """
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n <= NORM_FLOOR:
        raise ZeroVectorError(f"cannot normalize vector with norm {n}")
    return v / n


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two unit vectors, clamped to [-1, 1].

    The norm division is applied even though inputs are nominally unit
    vectors, so slightly denormalized inputs still give the right answer.
    The clamp guards downstream arccos against floating-point drift.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    c = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return min(1.0, max(-1.0, c))
