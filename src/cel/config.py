"""Run configuration: one schema-validated document covering every module.

The document is a nested mapping whose sections mirror the config
dataclasses: keys and value types are read from the dataclass fields, every
field has a default, and unknown keys and wrong-typed values are rejected by
dotted path. The effective configuration is echoed to JSON alongside run
outputs so any result can be reproduced from its echo plus the seed.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from .encoder import EncoderConfig, LrSchedule
from .errors import SchemaError
from .features import FeatureConfig
from .trainer import FinetuneConfig, PretrainConfig


@dataclass(frozen=True)
class CorpusConfig:
    n_speakers: int = 32
    utterances_per_speaker: int = 6
    duration_s: float = 4.0
    seed: int = 100


@dataclass(frozen=True)
class EvalConfig:
    eval_speakers: int = 8
    nontarget_per_target: int = 3
    c_miss: float = 1.0
    c_fa: float = 1.0
    p_target: float = 0.05


@dataclass(frozen=True)
class RunConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)

    def with_seed(self, seed: int) -> "RunConfig":
        """Thread one seed through both training stages.

        The corpus keeps its own `corpus.seed`, and evaluation draws no
        random numbers of its own.
        """
        return replace(
            self,
            pretrain=replace(self.pretrain, seed=seed),
            finetune=replace(self.finetune, seed=seed),
        )

    def to_dict(self) -> dict:
        return _plain(self)


def _plain(value: Any) -> Any:
    """A config value as JSON data: dataclasses as dicts, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _section(doc: Any, defaults: Any, path: str) -> Any:
    """`defaults`, a config dataclass, with the fields the mapping `doc` sets.

    Each value is checked against its field's type, and nested config
    dataclasses are read the same way; an unknown key or a wrong-typed value
    raises SchemaError naming its dotted path.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError(f"config key '{path}' must be a mapping, got {type(doc).__name__}")
    prefix = f"{path}." if path else ""
    names = {f.name for f in dataclasses.fields(defaults)}
    unknown = sorted(set(doc) - names)
    if unknown:
        raise SchemaError(f"unknown config key '{prefix}{unknown[0]}'")
    hints = typing.get_type_hints(type(defaults))
    return replace(defaults, **{
        name: _value(value, hints[name], getattr(defaults, name), prefix + name)
        for name, value in doc.items()
    })


def _value(value: Any, hint: Any, default: Any, key: str) -> Any:
    """`value` as the type `hint`; JSON lists become tuples and ints floats."""
    if dataclasses.is_dataclass(hint):
        return _section(value, default, key)
    want = hint
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(hint):
            return None
        (hint,) = (t for t in typing.get_args(hint) if t is not type(None))
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if isinstance(value, (list, tuple)):
            kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(kinds) == len(value):
                return tuple(_value(v, t, None, key) for v, t in zip(value, kinds))
    elif hint is float and type(value) in (int, float):
        return float(value)
    elif type(value) is hint:
        return value
    name = want.__name__ if typing.get_origin(want) is None else str(want)
    raise SchemaError(f"config key '{key}' must be {name}, got {value!r}")


def config_from_dict(doc: Mapping) -> RunConfig:
    """Validate and build a RunConfig; bad keys and values fail with a dotted path."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"config document must be a mapping, got {type(doc).__name__}")
    return _section(doc, RunConfig(), "")


def load_config(path: str | Path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def desk_profile(seed: int = 0) -> RunConfig:
    """Small, fast configuration for single-core desk experiments."""
    base = RunConfig(
        corpus=CorpusConfig(n_speakers=32, utterances_per_speaker=6, duration_s=4.0),
        encoder=EncoderConfig(input_dim=40, hidden_dims=(48, 48), embedding_dim=32),
        pretrain=PretrainConfig(
            k=8,
            epochs=40,
            frames=180,
            schedule=LrSchedule(initial_lr=0.002, decay_fraction=0.05, period_epochs=10),
        ),
        finetune=FinetuneConfig(epochs=8, speakers_per_batch=8, frames=300),
    )
    return base.with_seed(seed)


def fullscale_profile(seed: int = 0) -> RunConfig:
    """Full-scale hyperparameters; data and encoder stay desk-scale stand-ins."""
    base = RunConfig(
        pretrain=PretrainConfig(k=200, uniformity_weight=1.0, kernel_t=2.0, epochs=500),
        finetune=FinetuneConfig(epochs=250, margin=0.2, margin_scale=30.0),
    )
    return base.with_seed(seed)
