"""Trainable front-end encoder with hand-written backpropagation.

A per-frame affine+ReLU stack, temporal mean pooling, a final affine
projection, and L2 normalization onto the unit hypersphere. Gradients are
exact reverse-mode, including the normalization Jacobian. Optimization is
bias-corrected Adam with a stepwise multiplicative learning-rate decay, all
in plain numpy for verifiability.

The frame layers and the pooling compute in the dtype of the weights they
are given; the projection, the normalization and the embedding are always
float64. Training and embedding pass a float32 copy of the float64 master
weights (`Encoder.float32_weights`), following "Mixed Precision Training"
(Micikevicius et al., ICLR 2018): the optimizer, its moments and the
checkpoints stay float64. Given float64 weights, every output is float64.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .embedding import NORM_FLOOR
from .errors import (
    CelError,
    CheckpointMismatchError,
    InvalidParamError,
    NormalizationDegenerateError,
    ShapeMismatchError,
    StaleCacheError,
)
from .schema import at_least, plain, read_record


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of the desk-scale encoder."""

    input_dim: int = 40
    hidden_dims: tuple[int, ...] = (64, 64)
    embedding_dim: int = 64

    def __post_init__(self) -> None:
        at_least(self, 1, "input_dim")
        if len(self.hidden_dims) < 1 or any(h < 1 for h in self.hidden_dims):
            raise InvalidParamError(
                f"need at least one positive hidden width, got {self.hidden_dims}"
            )
        at_least(self, 2, "embedding_dim")

    @property
    def pooled_dim(self) -> int:
        return self.hidden_dims[-1]

    def to_dict(self) -> dict:
        return plain(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "EncoderConfig":
        return read_record(d, cls, "encoder")


def xavier_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


@dataclass
class ForwardCache:
    """One forward pass: its unit embedding and what `Encoder.backward` reads.

    `layer_inputs[i]` is frame layer i's (T, width) input: the transposed
    features for i = 0, else layer i - 1's output after its ReLU.
    `last_hidden` is the last frame layer's output after its ReLU. No ReLU
    mask is kept: `backward` takes each one as `activation > 0` from these
    arrays, which is true exactly where the pre-activation was > 0. So a
    crop holds only its activations, T x (input_dim + sum of hidden widths)
    values, plus the pooled (time-mean) and embedding vectors.
    """

    params: Mapping[str, np.ndarray]
    layer_inputs: list[np.ndarray]
    pooled: np.ndarray
    last_hidden: np.ndarray
    norm: float
    embedding: np.ndarray


class Encoder:
    """Maps a bands-by-frames feature matrix to a unit embedding."""

    def __init__(self, config: EncoderConfig) -> None:
        self.config = config

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        dims = (self.config.input_dim, *self.config.hidden_dims)
        shapes: dict[str, tuple[int, ...]] = {}
        for i in range(len(self.config.hidden_dims)):
            shapes[f"w{i}"] = (dims[i + 1], dims[i])
            shapes[f"b{i}"] = (dims[i + 1],)
        shapes["w_out"] = (self.config.embedding_dim, self.config.pooled_dim)
        shapes["b_out"] = (self.config.embedding_dim,)
        return shapes

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for name, shape in self.param_shapes().items():
            if name.startswith("w"):
                params[name] = xavier_uniform(rng, shape[0], shape[1])
            else:
                params[name] = np.zeros(shape)
        return params

    def float32_weights(self, params: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """A float32 copy of the encoder's blocks of `params`: the weights its
        frame layers compute in during training and embedding."""
        return {name: params[name].astype(np.float32) for name in self.param_shapes()}

    def forward(
        self, params: Mapping[str, np.ndarray], features: np.ndarray
    ) -> ForwardCache:
        """The unit embedding of (input_dim, T) features, in a cache for `backward`.

        The frame layers and the pooling compute in the dtype of `params["w0"]`;
        the projection and the normalization in float64. Each ReLU is applied
        in place on its layer's product, and no mask is stored (see
        `ForwardCache`). Zero frames, and an output whose norm is not finite
        and above `NORM_FLOOR`, are refused.
        """
        feats = np.asarray(features, dtype=params["w0"].dtype)
        if feats.ndim != 2 or feats.shape[0] != self.config.input_dim or not feats.shape[1]:
            raise ShapeMismatchError(
                f"features must be ({self.config.input_dim}, T) with T >= 1, got {feats.shape}"
            )
        h = feats.T  # (T, input_dim)
        layer_inputs = []
        for i in range(len(self.config.hidden_dims)):
            layer_inputs.append(h)
            h = h @ params[f"w{i}"].T
            h += params[f"b{i}"]
            np.maximum(h, 0.0, out=h)

        pooled = h.mean(axis=0)
        v = np.asarray(params["w_out"], dtype=np.float64) @ pooled + params["b_out"]
        norm = float(np.linalg.norm(v))
        if not NORM_FLOOR < norm < math.inf:  # a NaN norm fails both
            raise NormalizationDegenerateError(
                f"pre-normalization output has norm {norm:.3e}; "
                f"cannot project onto the unit sphere"
            )
        return ForwardCache(
            params=params,
            layer_inputs=layer_inputs,
            pooled=pooled,
            last_hidden=h,
            norm=norm,
            embedding=v / norm,
        )

    def backward(
        self,
        params: Mapping[str, np.ndarray],
        cache: ForwardCache,
        upstream: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """Parameter gradients of `upstream . embedding` at the cached forward pass.

        The output-layer gradients are float64; the frame layers' are in the
        dtype their forward pass computed in. Layer i's ReLU mask is
        `activation > 0` of its output: `cache.layer_inputs[i + 1]`, or
        `cache.last_hidden` for the last layer.
        """
        if cache.params is not params:
            raise StaleCacheError(
                "cache was produced by a different parameter set; "
                "rerun forward before backward"
            )
        g = np.asarray(upstream, dtype=np.float64)
        if g.shape != cache.embedding.shape:
            raise ShapeMismatchError(
                f"upstream gradient shape {g.shape} does not match "
                f"embedding shape {cache.embedding.shape}"
            )
        e = cache.embedding
        # Normalization Jacobian: (I - e e^T) / |v| applied to the upstream.
        g_v = (g - np.dot(g, e) * e) / cache.norm

        grads: dict[str, np.ndarray] = {}
        grads["w_out"] = np.outer(g_v, cache.pooled)
        grads["b_out"] = g_v
        h = cache.last_hidden
        g_pooled = (params["w_out"].T @ g_v).astype(h.dtype, copy=False)

        g_z = (g_pooled / h.shape[0]) * (h > 0)

        for i in reversed(range(len(self.config.hidden_dims))):
            grads[f"w{i}"] = g_z.T @ cache.layer_inputs[i]
            grads[f"b{i}"] = g_z.sum(axis=0)
            if i > 0:
                g_z = g_z @ params[f"w{i}"]
                g_z *= cache.layer_inputs[i] > 0

        return grads


@dataclass(frozen=True)
class LrSchedule:
    """Stepwise multiplicative decay: a fixed fraction every fixed period."""

    initial_lr: float = 0.001
    decay_fraction: float = 0.05
    period_epochs: int = 10

    def __post_init__(self) -> None:
        if self.initial_lr <= 0:
            raise InvalidParamError(f"initial lr must be positive, got {self.initial_lr}")
        if not 0 < self.decay_fraction < 1:
            raise InvalidParamError(
                f"decay fraction must be in (0, 1), got {self.decay_fraction}"
            )
        at_least(self, 1, "period_epochs")


PRETRAIN_SCHEDULE = LrSchedule(initial_lr=0.001, decay_fraction=0.05, period_epochs=10)
FINETUNE_SCHEDULE = LrSchedule(initial_lr=0.001, decay_fraction=0.10, period_epochs=10)


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    if epoch < 0:
        raise InvalidParamError(f"epoch must be nonnegative, got {epoch}")
    return schedule.initial_lr * (1.0 - schedule.decay_fraction) ** (
        epoch // schedule.period_epochs
    )


# Adam's moment decay rates and denominator floor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerState:
    """Adam accumulators; updates return a new state, nothing mutates."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int


def init_optimizer(params: Mapping[str, np.ndarray]) -> OptimizerState:
    return OptimizerState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
        step=0,
    )


def adam_step(
    state: OptimizerState,
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    lr: float,
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One bias-corrected Adam update at learning rate `lr` over every named parameter."""
    for name, p in params.items():
        if name not in state.m or state.m[name].shape != np.shape(p):
            raise ShapeMismatchError(
                f"optimizer state does not match parameter {name!r}"
            )
        if name not in grads or np.shape(grads[name]) != np.shape(p):
            raise ShapeMismatchError(
                f"gradient missing or mis-shaped for parameter {name!r}"
            )
    step = state.step + 1
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    c1 = 1.0 - ADAM_BETA1**step
    c2 = 1.0 - ADAM_BETA2**step
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        m = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        new_params[name] = np.asarray(p) - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        new_m[name] = m
        new_v[name] = v
    return new_params, OptimizerState(m=new_m, v=new_v, step=step)


MAGIC = b"CELCKPT1"


def save_checkpoint(
    path: str | Path,
    config: Mapping,
    params: Mapping[str, np.ndarray],
    meta: Mapping | None = None,
) -> None:
    """Versioned binary container: magic, JSON header, float64 LE blocks.

    The bytes go to a temporary file in the same directory, which then
    replaces `path` in one rename, so a crash mid-write leaves the previous
    file (or none) at `path`, never a truncated one.
    """
    names = sorted(params)
    header = {
        "config": json.loads(json.dumps(dict(config))),
        "params": [
            {"name": n, "shape": list(np.shape(params[n]))} for n in names
        ],
        "meta": dict(meta or {}),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(head)))
            f.write(head)
            for n in names:
                f.write(np.ascontiguousarray(params[n], dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _parse_header(
    blob: bytes,
) -> tuple[dict, list[tuple[str, tuple[int, ...]]], dict, int]:
    """(config, [(name, shape)], meta, offset of the first block) of a checkpoint.

    Raises struct.error, ValueError (which covers JSON and UTF-8 decoding),
    KeyError, TypeError or RecursionError (JSON nested too deep) when the
    header is truncated or malformed.
    """
    (head_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + head_len].decode("utf-8"))
    config, meta = header["config"], header["meta"]
    if not isinstance(config, dict) or not isinstance(meta, dict):
        raise TypeError("config and meta must be JSON objects")
    entries = []
    for entry in header["params"]:
        name, shape = entry["name"], entry["shape"]
        if not isinstance(name, str) or not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape
        ):
            raise ValueError(f"bad parameter entry {entry!r}")
        entries.append((name, tuple(shape)))
    return config, entries, meta, 12 + head_len


def load_checkpoint(
    path: str | Path, expected_config: Mapping | None = None
) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (config, params, meta).

    Raises CheckpointMismatchError, naming the path, when the file is not a
    well-formed checkpoint (wrong magic, truncated, corrupt header, missing
    or trailing bytes) or its config differs from `expected_config`.
    """
    blob = Path(path).read_bytes()
    if blob[:8] != MAGIC:
        raise CheckpointMismatchError(
            f"{path}: not a checkpoint file (bad magic {blob[:8]!r})"
        )
    try:
        config, entries, meta, offset = _parse_header(blob)
    except (struct.error, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CheckpointMismatchError(
            f"{path}: corrupt checkpoint header ({type(exc).__name__}: {exc})"
        ) from exc
    if expected_config is not None:
        want = json.loads(json.dumps(dict(expected_config)))
        if want != config:
            raise CheckpointMismatchError(
                f"{path}: checkpoint config {config} does not match expected {want}"
            )
    params: dict[str, np.ndarray] = {}
    for name, shape in entries:
        count = math.prod(shape)
        block = blob[offset : offset + 8 * count]
        if len(block) != 8 * count:
            raise CheckpointMismatchError(f"{path}: truncated parameter block")
        params[name] = np.frombuffer(block, dtype="<f8").reshape(shape).copy()
        offset += 8 * count
    if offset != len(blob):
        raise CheckpointMismatchError(f"{path}: trailing bytes after parameter blocks")
    return config, params, meta


def checked_blocks(
    path: str | Path, blocks: Mapping[str, np.ndarray], shapes: Mapping[str, tuple], prefix: str = ""
) -> dict[str, np.ndarray]:
    """`{name: blocks[prefix + name]}` for every name in `shapes`.

    The one check of checkpoint blocks against the state they are read
    into: raises one CheckpointMismatchError naming the path and every block
    that is missing or whose shape is not `shapes[name]`; other blocks are
    not read.
    """
    found = {n: np.shape(blocks[prefix + n]) if prefix + n in blocks else "missing" for n in shapes}
    bad = [f"{prefix + n!r} is {found[n]}, want {s}" for n, s in shapes.items() if found[n] != s]
    if bad:
        raise CheckpointMismatchError(f"{path}: checkpoint blocks do not fit: {'; '.join(bad)}")
    return {n: blocks[prefix + n] for n in shapes}


def load_encoder(path: str | Path) -> tuple[EncoderConfig, dict[str, np.ndarray]]:
    """The encoder architecture a checkpoint records, and its encoder weights.

    Raises CheckpointMismatchError, naming the path, when the checkpoint is
    corrupt, its encoder config is missing or invalid, or a weight the
    architecture needs is missing or mis-shaped.
    """
    config, blocks, _ = load_checkpoint(path)
    try:
        encoder_cfg = EncoderConfig.from_dict(config.get("encoder"))
    except CelError as exc:
        raise CheckpointMismatchError(
            f"{path}: no valid encoder config ({type(exc).__name__}: {exc})"
        ) from exc
    return encoder_cfg, checked_blocks(path, blocks, Encoder(encoder_cfg).param_shapes())
