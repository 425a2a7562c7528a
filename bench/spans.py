"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each layer at the name its
caller looks up, so `src/` stays untouched: the trainer imports `logmel`,
`apply_spec`, `adam_step` and the losses by name, so those are wrapped in
`cel.trainer`; `apply_spec` and `sample_pair_specs` look up `apply_rir` and
`sample_spec` in `cel.augment`, so those are wrapped there. Every original
is restored when the `installed` context exits.

A span holds its name, start, end, parent span and run id (the index of
the timed pass it belongs to). Spans stay in memory until the run ends.
A layer's busy time is self time: a span's duration minus the time its
child spans cover. There is one thread and no queue, so a caller waits on
a layer for exactly that layer's busy time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

# Span fields, stored as lists to keep the recording cost low.
NAME, START, END, PARENT, RUN, INFO = range(6)

Info = Callable[[tuple, object], object]


class Recorder:
    """In-memory spans plus the state the wrappers share."""

    def __init__(self, prefetched: set | frozenset = frozenset()) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        # (source id, corpus speaker, utterance) keys whose waveform was
        # already fetched, starting with those set-up warmed.
        self.fetched = set(prefetched)

    def wrap(self, name: str, fn: Callable, info: Info | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def write(self, path: str | Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "run": s[RUN], "info": s[INFO],
                }) + "\n")


def encoder_flops(config, frames: int) -> tuple[int, int]:
    """Matmul FLOPs (a multiply-add counts 2) of one forward and one backward pass.

    Forward: every hidden layer is a (T, d_in) x (d_in, d_out) product, and
    the output projection a (P,) x (P, E) product. Backward: each hidden
    layer computes a weight gradient and an input gradient of that size;
    the output layer an outer product (P*E) and a matvec (2*P*E).
    """
    dims = (config.input_dim, *config.hidden_dims)
    hidden = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    out = config.pooled_dim * config.embedding_dim
    return 2 * frames * hidden + 2 * out, 4 * frames * hidden + 3 * out


def _forward_flops(args, result):
    enc, features = args[0], args[2]
    return encoder_flops(enc.config, features.shape[1])[0]


def _backward_flops(args, result):
    enc, cache = args[0], args[2]
    return encoder_flops(enc.config, cache.last_hidden.shape[0])[1]


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _frames(args, result):
    return result.n_frames


def _samples(args, result):
    return len(args[0])


def _trials(args, result):
    return len(args[1])


def _targets():
    """(owner, attribute, span name, info) for every wrapped function."""
    # `cel` re-exports functions named like its modules (`cel.finetune` is
    # the training entry point), so modules are looked up by full name.
    augment, corpus, encoder, evaluation, finetune, t = (
        importlib.import_module(f"cel.{m}")
        for m in ("augment", "corpus", "encoder", "evaluation", "finetune", "trainer")
    )
    targets = [
        (t, "pretrain", "trainer", None),
        (t, "finetune", "trainer", None),
        (t, "embed_utterances", "trainer", None),
        (t.CorpusSource, "waveform", "corpus.waveform", None),
        (t, "derive_rng", "rng.derive", None),
        (corpus, "derive_rng", "rng.derive", None),
        (t, "crop_two", "augment.crop", None),
        (t, "sample_pair_specs", "augment.sample.pair", None),
        (t, "sample_spec", "augment.sample.single", None),
        (augment, "sample_spec", "augment.sample.draw", None),
        (t, "apply_spec", "augment.noise", None),
        (augment, "apply_rir", "augment.reverb", _samples),
        (t, "logmel", "features.logmel", _frames),
        (encoder.Encoder, "forward", "encoder.forward", _forward_flops),
        (encoder.Encoder, "backward", "encoder.backward", _backward_flops),
        (t, "adam_step", "encoder.adam", None),
        (t, "save_checkpoint", "encoder.checkpoint", _file_bytes),
        (t, "load_checkpoint", "encoder.checkpoint", _file_bytes),
        (encoder, "load_checkpoint", "encoder.checkpoint", _file_bytes),
        (t, "uniformity_loss", "losses", None),
        (t, "similarity_loss", "losses", None),
        (t, "combine_losses", "losses", None),
        (evaluation, "score_trials", "evaluation.score", _trials),
        (evaluation, "eer", "evaluation.metrics", None),
        (evaluation, "min_dcf", "evaluation.metrics", None),
        (evaluation, "det_points", "evaluation.metrics", None),
    ]
    for name in ("ge2e_loss", "cosface_loss", "arcface_loss", "adacos_loss"):
        targets.append((finetune, name, "finetune", None))
    return targets


def originals() -> dict[tuple[int, str], object]:
    """The objects currently bound at every wrapped name."""
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _, _ in _targets()}


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, info in _targets():
            fn = vars(owner)[attr]
            if name == "corpus.waveform":
                wrapper = recorder.wrap(name, fn, _waveform_info(recorder))
            else:
                wrapper = recorder.wrap(name, fn, info)
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _waveform_info(recorder: Recorder) -> Info:
    def hit(args, result) -> bool:
        source, local_speaker, utt = args[0], args[1], args[2]
        key = (id(source), source.speakers[local_speaker], utt)
        seen = key in recorder.fetched
        recorder.fetched.add(key)
        return seen

    return hit


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], passes: int, pass_seconds: float) -> dict[str, float]:
    """Per-pass layer metrics, named after the modules under `src/cel`.

    `pass_seconds` is the summed wall time of the traced passes; the part
    of it no top-level span covers is the benchmark's own overhead.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    info: dict[str, float] = {}
    top = 0.0
    for s, t in zip(spans, own):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + t
        if s[INFO] is not None:
            info[name] = info.get(name, 0) + s[INFO]
        if s[PARENT] < 0:
            top += s[END] - s[START]

    def per_pass(value: float) -> float:
        return value / passes

    def c(name: str) -> int:
        return calls.get(name, 0)

    def b(*names: str) -> float:
        return per_pass(sum(busy.get(n, 0.0) for n in names))

    def n(name: str) -> float:
        return per_pass(info.get(name, 0))

    sample_names = ("augment.sample.pair", "augment.sample.single", "augment.sample.draw")
    waveform_calls = c("corpus.waveform")
    return {
        "corpus.waveform.calls": per_pass(waveform_calls),
        "corpus.waveform.busy_s": b("corpus.waveform"),
        "corpus.cache_hit_ratio": (
            info.get("corpus.waveform", 0) / waveform_calls if waveform_calls else 0.0
        ),
        "rng.derive.calls": per_pass(c("rng.derive")),
        "rng.derive.busy_s": b("rng.derive"),
        "augment.crop.calls": per_pass(c("augment.crop")),
        "augment.crop.busy_s": b("augment.crop"),
        "augment.sample.calls": per_pass(c("augment.sample.pair") + c("augment.sample.single")),
        "augment.sample.busy_s": b(*sample_names),
        "augment.sample.draws_per_pair": (
            c("augment.sample.draw") / c("augment.sample.pair")
            if c("augment.sample.pair") else 0.0
        ),
        "augment.reverb.calls": per_pass(c("augment.reverb")),
        "augment.reverb.busy_s": b("augment.reverb"),
        "augment.reverb.samples": n("augment.reverb"),
        "augment.noise.busy_s": b("augment.noise"),
        "features.logmel.calls": per_pass(c("features.logmel")),
        "features.logmel.busy_s": b("features.logmel"),
        "features.logmel.frames": n("features.logmel"),
        "encoder.forward.calls": per_pass(c("encoder.forward")),
        "encoder.forward.busy_s": b("encoder.forward"),
        "encoder.forward.flops": n("encoder.forward"),
        "encoder.backward.calls": per_pass(c("encoder.backward")),
        "encoder.backward.busy_s": b("encoder.backward"),
        "encoder.backward.flops": n("encoder.backward"),
        "encoder.adam.calls": per_pass(c("encoder.adam")),
        "encoder.adam.busy_s": b("encoder.adam"),
        "encoder.checkpoint.busy_s": b("encoder.checkpoint"),
        "encoder.checkpoint.bytes": n("encoder.checkpoint"),
        "losses.calls": per_pass(c("losses")),
        "losses.busy_s": b("losses"),
        "finetune.calls": per_pass(c("finetune")),
        "finetune.busy_s": b("finetune"),
        "evaluation.score.trials": n("evaluation.score"),
        "evaluation.score.busy_s": b("evaluation.score"),
        "evaluation.metrics.busy_s": b("evaluation.metrics"),
        "trainer.steps": per_pass(c("encoder.adam")),
        "trainer.self_s": b("trainer"),
        "bench.self_s": per_pass(pass_seconds - top),
    }
