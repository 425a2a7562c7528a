"""Run configuration: one schema-validated document covering every module.

The document is a nested mapping whose sections mirror the config
dataclasses, and every field has a default. It is read by the rules of
`cel.schema`, the same ones that read checkpoints and manifest headers. The
effective configuration is echoed to JSON alongside run outputs so any
result can be reproduced from its echo plus the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from .corpus import CorpusConfig
from .encoder import EncoderConfig
from .errors import InvalidParamError, SchemaError
from .evaluation import DcfParams
from .features import FeatureConfig, _analysis_arrays
from .schema import at_least, plain, read
from .trainer import FinetuneConfig, PretrainConfig


@dataclass(frozen=True)
class EvalConfig(DcfParams):
    """The detection cost settings, plus the held-out trial set's shape."""

    eval_speakers: int = 8
    nontarget_per_target: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        at_least(self, 1, "eval_speakers", "nontarget_per_target")


@dataclass(frozen=True)
class RunConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self) -> None:
        if self.encoder.input_dim != self.features.n_mels:
            raise InvalidParamError(
                f"encoder.input_dim ({self.encoder.input_dim}) must equal "
                f"features.n_mels ({self.features.n_mels}), the encoder's input rows"
            )
        try:  # builds the filterbank that the run's log-mels share, once per process
            _analysis_arrays(self.features)
        except InvalidParamError as exc:
            raise InvalidParamError(f"features.n_mels ({self.features.n_mels}): {exc}") from exc

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
        return plain(self)


def config_from_dict(doc: Mapping, base: RunConfig | None = None) -> RunConfig:
    """`base` (default: the built-in defaults) with the settings of `doc`."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"config document must be a mapping, got {type(doc).__name__}")
    return read(doc, RunConfig() if base is None else base, "")


def load_config(path: str | Path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise SchemaError(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    return config_from_dict(doc)


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")

