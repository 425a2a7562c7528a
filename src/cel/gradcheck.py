"""Finite-difference verification of every analytic gradient.

The harness treats a loss as a black-box scalar function of named arrays,
perturbs one coordinate at a time with central differences, and compares
against the gradients the loss reports. The same machinery backs both the
test suite and the ``gradcheck`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import losses
from .embedding import EmbeddingBatch, SimilarityParams
from .encoder import Encoder, EncoderConfig
from .finetune import (
    AdaCosState,
    LabeledBatch,
    MarginConfig,
    adacos_loss,
    arcface_loss,
    cosface_loss,
    ge2e_loss,
)
from .rng import derive_rng

DEFAULT_STEP = 1e-5

# Relative-error denominator floor: keeps coordinates whose true gradient
# is ~0 from amplifying central-difference noise into spurious failures,
# while still catching any real formula error (those show up at O(1)).
REL_FLOOR = 1e-4


def finite_difference(
    f: Callable[[Mapping[str, np.ndarray]], float],
    arrays: Mapping[str, np.ndarray],
    step: float = DEFAULT_STEP,
) -> dict[str, np.ndarray]:
    """Central-difference gradient of f with respect to every array entry."""
    work = {k: np.array(v, dtype=np.float64) for k, v in arrays.items()}
    out: dict[str, np.ndarray] = {}
    for name, arr in work.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f(work)
            flat[i] = orig - step
            f_minus = f(work)
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
        out[name] = g
    return out


def relative_errors(
    analytic: Mapping[str, np.ndarray], numeric: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    errs = {}
    for name, a in analytic.items():
        n = numeric[name]
        a = np.asarray(a, dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_FLOOR)
        errs[name] = np.abs(a - n) / denom
    return errs


@dataclass
class CheckResult:
    name: str
    instances: int
    max_rel_err: float
    worst_param: str
    worst_coord: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < 1e-5

    def row(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.name:<10s} {self.instances:>4d} "
            f"{self.max_rel_err:>12.3e}  {self.worst_param}[{self.worst_coord}]  {status}"
        )


def compare(
    f: Callable[[Mapping[str, np.ndarray]], float],
    arrays: Mapping[str, np.ndarray],
    analytic: Mapping[str, np.ndarray],
    step: float = DEFAULT_STEP,
) -> tuple[float, str, int]:
    """Max relative error over all checked coordinates, with its location."""
    numeric = finite_difference(f, arrays, step)
    errs = relative_errors(analytic, numeric)
    worst = (0.0, "", -1)
    for name, e in errs.items():
        if e.size == 0:
            continue
        i = int(np.argmax(e.reshape(-1)))
        m = float(e.reshape(-1)[i])
        if m >= worst[0]:
            worst = (m, name, i)
    return worst


def _random_unit_rows(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    x = rng.standard_normal((n, m))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _sim_params(arrays: Mapping[str, np.ndarray]) -> SimilarityParams:
    return SimilarityParams(float(arrays["scale"]), float(arrays["bias"]))


_KERNEL = losses.KernelParam(t=2.0)
_MARGIN = MarginConfig(margin=0.2, scale=8.0)

# Two-view losses of a batch and the checked arrays, which hold "scale" and
# "bias" for every loss but "unif".
_PAIR_LOSSES: dict[str, Callable[[EmbeddingBatch, Mapping], losses.LossOutput]] = {
    "unif": lambda batch, a: losses.uniformity_loss(batch, _KERNEL),
    "aprot": lambda batch, a: losses.aprot_loss(batch, _sim_params(a)),
    "acont": lambda batch, a: losses.acont_loss(batch, _sim_params(a)),
    "total": lambda batch, a: losses.total_loss(
        batch, _KERNEL, _sim_params(a), losses.CelWeights(uniformity_weight=1.0)
    ),
}

# Classifier losses of a labeled batch and the class weights. AdaCos holds
# its scale, so its value is a function of the checked arrays alone.
_CLASSIFIER_LOSSES: dict[str, Callable[[LabeledBatch, np.ndarray], losses.LossOutput]] = {
    "cosface": lambda batch, w: cosface_loss(batch, w, _MARGIN),
    "arcface": lambda batch, w: arcface_loss(batch, w, _MARGIN),
    "adacos": lambda batch, w: adacos_loss(
        batch, w, AdaCosState(scale=float(_MARGIN.scale)), update_scale=False
    ),
}


def _compare_loss(
    make_output: Callable[[Mapping[str, np.ndarray]], losses.LossOutput],
    arrays: Mapping[str, np.ndarray],
) -> tuple[float, str, int]:
    """`compare` of a loss's value against the gradients it reports for `arrays`."""
    out = make_output(arrays)
    analytic = {name: out.grads[name] for name in arrays}
    return compare(lambda a: make_output(a).value, arrays, analytic)


def _check(
    instances: Callable[[str, int], Iterator[tuple[float, str, int]]], name: str, seed: int
) -> CheckResult:
    """One row for every instance's comparison: the largest error, the last of ties."""
    worst = (0.0, "", -1)
    count = 0
    for res in instances(name, seed):
        count += 1
        if res[0] >= worst[0]:
            worst = res
    return CheckResult(name, count, *worst)


def _pair_loss_instances(name: str, seed: int) -> Iterator[tuple[float, str, int]]:
    loss = _PAIR_LOSSES[name]
    rng = derive_rng(seed, "gradcheck", name)
    for k in (2, 3, 5, 8):
        for m in (3, 8, 16):
            for _ in range(2):
                arrays = {
                    "view1": _random_unit_rows(rng, k, m),
                    "view2": _random_unit_rows(rng, k, m),
                }
                if name != "unif":
                    arrays["scale"] = np.array(float(rng.uniform(0.5, 10.0)))
                    arrays["bias"] = np.array(float(rng.uniform(-5.0, 1.0)))
                yield _compare_loss(
                    lambda a: loss(EmbeddingBatch(view1=a["view1"], view2=a["view2"]), a),
                    arrays,
                )


def _finetune_loss_instances(name: str, seed: int) -> Iterator[tuple[float, str, int]]:
    rng = derive_rng(seed, "gradcheck", name)
    shapes = [(2, 2, 3), (4, 3, 8), (6, 4, 16), (12, 6, 8), (8, 5, 3)]
    for n, c, m in shapes:
        for _ in range(4):
            if name == "ge2e":
                spk, utt = c, max(2, n // c)
                arrays = {
                    "embeddings": _random_unit_rows(rng, spk * utt, m).reshape(spk, utt, m),
                    "scale": np.array(float(rng.uniform(0.5, 10.0))),
                    "bias": np.array(float(rng.uniform(-5.0, 1.0))),
                }

                def make_output(a):
                    return ge2e_loss(a["embeddings"], _sim_params(a))

            else:
                labels = rng.integers(0, c, size=n)
                arrays = {
                    "embeddings": _random_unit_rows(rng, n, m),
                    "weights": _random_unit_rows(rng, c, m),
                }

                def make_output(a, labels=labels, c=c, loss=_CLASSIFIER_LOSSES[name]):
                    return loss(LabeledBatch(a["embeddings"], labels, c), a["weights"])

            yield _compare_loss(make_output, arrays)


def _encoder_instances(name: str, seed: int) -> Iterator[tuple[float, str, int]]:
    for rep in range(3):
        rng = derive_rng(seed, "gradcheck", name, rep)
        cfg = EncoderConfig(input_dim=6, hidden_dims=(5, 4), embedding_dim=4,
                            pooling="mean" if rep % 2 == 0 else "mean_std")
        enc = Encoder(cfg)
        # Jitter off the zero-bias init: frames that die in layer 0 would
        # otherwise sit exactly on the next layer's ReLU kink, where central
        # differences and any one-sided subgradient legitimately disagree.
        params = {
            k: v + 0.05 * rng.standard_normal(v.shape)
            for k, v in enc.init_params(rng).items()
        }
        feats = rng.standard_normal((6, 7))
        upstream = rng.standard_normal(cfg.embedding_dim)

        def run(arrays: Mapping[str, np.ndarray]) -> float:
            return float(np.dot(upstream, enc.forward(dict(arrays), feats).embedding))

        grads = enc.backward(params, enc.forward(params, feats), upstream)
        yield compare(run, params, grads)


_CHECKS: dict[str, Callable[[int], CheckResult]] = {
    **{name: partial(_check, _pair_loss_instances, name) for name in _PAIR_LOSSES},
    **{name: partial(_check, _finetune_loss_instances, name)
       for name in ("ge2e", *_CLASSIFIER_LOSSES)},
    "encoder": partial(_check, _encoder_instances, "encoder"),
}
ALL_SCOPES: Sequence[str] = tuple(_CHECKS)


def run_suite(scopes: Sequence[str] | None = None, seed: int = 7) -> list[CheckResult]:
    """Run the finite-difference suite; one result row per loss."""
    unknown = [scope for scope in scopes or () if scope not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown gradcheck scope: {unknown[0]!r}")
    return [_CHECKS[scope](seed) for scope in scopes or ALL_SCOPES]
