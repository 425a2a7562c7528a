"""Run configuration: schema validation, round trips, the configs/ profiles."""

import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import pytest

from cel.config import RunConfig, config_from_dict, load_config, save_config
from cel.errors import CelError, InvalidParamError, SchemaError

ROOT = Path(__file__).resolve().parent.parent
FULLSCALE = ROOT / "configs" / "fullscale.json"

# Valid values other than the default for the string-valued config fields.
# Values that halving or incrementing would not give; a corpus of half the
# default duration is shorter than the minimum utterance.
OTHER_CHOICE = {"similarity_kind": "acont", "objective": "ge2e", "duration_s": 5.0}

# encoder.input_dim must equal features.n_mels: section -> (its field, the
# other section, that section's field).
PAIRED = {"encoder": ("input_dim", "features", "n_mels"),
          "features": ("n_mels", "encoder", "input_dim")}


# Settable config values. A change that adds or removes one edits this pin.
SETTABLE_VALUES = 43


def _settable(value):
    """Settable values under `value`: a nested dataclass contributes its
    fields, any other field counts once."""
    if dataclasses.is_dataclass(value):
        return sum(_settable(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 1


def _float_keys(cls, prefix=""):
    """(dotted key, is a tuple) of every field under `cls` that holds floats."""
    for name, hint in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            yield from _float_keys(hint, f"{prefix}{name}.")
        elif hint is float or float in typing.get_args(hint):
            yield f"{prefix}{name}", hint is not float


def _changed(name, value):
    """A valid value other than `value` for the config field `name`."""
    if name in OTHER_CHOICE:
        return OTHER_CHOICE[name]
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            f.name: _changed(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)
        })
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    if isinstance(value, tuple):
        return tuple(_changed(name, v) for v in value)
    if value is None:
        return "init.ckpt"
    raise AssertionError(f"no other value known for config field {name!r} = {value!r}")


class TestSchema:
    def test_settable_value_count_is_pinned(self):
        assert _settable(RunConfig()) == SETTABLE_VALUES

    def test_empty_document_gives_defaults(self):
        cfg = config_from_dict({})
        assert cfg == RunConfig()

    def test_unknown_top_level_key_named(self):
        with pytest.raises(SchemaError, match="'optimizer'"):
            config_from_dict({"optimizer": {}})

    def test_unknown_nested_key_has_dotted_path(self):
        with pytest.raises(SchemaError, match="pretrain.momentum"):
            config_from_dict({"pretrain": {"momentum": 0.9}})
        with pytest.raises(SchemaError, match="corpus.speakers"):
            config_from_dict({"corpus": {"speakers": 4}})
        with pytest.raises(SchemaError, match="pretrain.schedule.warmup"):
            config_from_dict({"pretrain": {"schedule": {"warmup": 5}}})

    def test_bool_seed_rejected(self):
        with pytest.raises(SchemaError, match="pretrain.seed"):
            config_from_dict({"pretrain": {"seed": True}})

    def test_top_level_seed_is_an_unknown_key(self):
        # The training seeds live in pretrain.seed and finetune.seed; a
        # top-level seed would be read by nothing.
        with pytest.raises(SchemaError, match="unknown config key 'seed'"):
            config_from_dict({"seed": 5})

    def test_non_mapping_rejected(self):
        with pytest.raises(SchemaError):
            config_from_dict([1, 2, 3])

    def test_partial_override_keeps_other_defaults(self):
        cfg = config_from_dict({"pretrain": {"k": 16}})
        assert cfg.pretrain.k == 16
        assert cfg.pretrain.uniformity_weight == RunConfig().pretrain.uniformity_weight
        assert cfg.corpus == RunConfig().corpus

    def test_schedule_nesting(self):
        cfg = config_from_dict(
            {"finetune": {"schedule": {"initial_lr": 0.5}}}
        )
        assert cfg.finetune.schedule.initial_lr == 0.5
        assert (
            cfg.finetune.schedule.period_epochs
            == RunConfig().finetune.schedule.period_epochs
        )

    def test_snr_range_coerced_to_tuple(self):
        cfg = config_from_dict({"pretrain": {"snr_range": [3, 12]}})
        assert cfg.pretrain.snr_range == (3.0, 12.0)

    @pytest.mark.parametrize(
        "doc,key",
        [
            ({"pretrain": {"k": "eight"}}, "pretrain.k"),
            ({"pretrain": {"snr_range": 5}}, "pretrain.snr_range"),
            ({"finetune": {"epochs": None}}, "finetune.epochs"),
            ({"corpus": {"n_speakers": "x"}}, "corpus.n_speakers"),
            ({"pretrain": 5}, "pretrain"),
            ({"encoder": {"hidden_dims": 7}}, "encoder.hidden_dims"),
            ({"pretrain": {"schedule": {"initial_lr": "a"}}}, "pretrain.schedule.initial_lr"),
            ({"pretrain": []}, "pretrain"),
        ],
    )
    def test_wrong_typed_value_names_its_key(self, doc, key):
        with pytest.raises(SchemaError, match=f"'{re.escape(key)}'"):
            config_from_dict(doc)

    @pytest.mark.parametrize("section", ["pretrain", "finetune"])
    def test_save_every_is_gone(self, section):
        with pytest.raises(SchemaError, match=f"unknown config key '{section}.save_every'"):
            config_from_dict({section: {"save_every": 0}})

    @pytest.mark.parametrize("doc, key", [
        ({"bank": {"n_each": 2, "noise_duration_s": 5.0, "rir_count": 4}}, "bank"),
        ({"evaluation": {"augment_trials": False}}, "evaluation.augment_trials"),
        ({"pretrain": {"init_scale": 5.0}}, "pretrain.init_scale"),
        ({"finetune": {"init_bias": 0.0}}, "finetune.init_bias"),
    ])
    def test_settings_that_had_one_value_are_unknown_keys(self, doc, key):
        # Banks are synth_bank's defaults, experiment trials are always
        # corrupted, and the similarity head starts at SimilarityParams().
        with pytest.raises(SchemaError, match=f"unknown config key '{re.escape(key)}'"):
            config_from_dict(doc)

    @pytest.mark.parametrize("finetune, message", [
        ({"objective": "cosface", "margin": -0.1}, "margin must be >= 0, got -0.1"),
        ({"objective": "cosface", "margin_scale": -3.0}, "scale must be positive, got -3.0"),
        ({"objective": "arcface", "margin_scale": -3.0}, "scale must be positive, got -3.0"),
        ({"objective": "adacos", "margin_scale": -3.0}, "scale must be positive, got -3.0"),
    ])
    def test_margin_objective_checks_its_margin_at_load(self, finetune, message):
        with pytest.raises(InvalidParamError, match=re.escape(message)):
            config_from_dict({"finetune": finetune})

    @pytest.mark.parametrize("doc, message", [
        ({"evaluation": {"nontarget_per_target": 0}},
         "evaluation: nontarget_per_target must be at least 1, got 0"),
        ({"evaluation": {"eval_speakers": 0}}, "evaluation: eval_speakers must be at least 1, got 0"),
        ({"evaluation": {"c_miss": 0.0}}, "evaluation: costs must be positive, got c_miss=0.0"),
        ({"evaluation": {"c_fa": -1.0}},
         "evaluation: costs must be positive, got c_miss=1.0, c_fa=-1.0"),
        ({"evaluation": {"p_target": 1.5}}, "evaluation: p_target must be in (0, 1), got 1.5"),
        ({"pretrain": {"kernel_t": 0.0}}, "pretrain: kernel sharpness must be positive, got 0.0"),
        ({"pretrain": {"uniformity_weight": -1.0}},
         "pretrain: uniformity weight must be nonnegative, got -1.0"),
        ({"pretrain": {"snr_range": [15, 0]}}, "pretrain: empty SNR range (15.0, 0.0)"),
        ({"finetune": {"frames": 0}}, "finetune: frames must be at least 1, got 0"),
        ({"pretrain": {"k": 1}}, "pretrain: k must be at least 2, got 1"),
        ({"finetune": {"speakers_per_batch": 1}},
         "finetune: speakers_per_batch must be at least 2, got 1"),
        ({"finetune": {"utterances_per_speaker": 0}},
         "finetune: utterances_per_speaker must be at least 1, got 0"),
        ({"encoder": {"input_dim": 0}}, "encoder: input_dim must be at least 1, got 0"),
        ({"encoder": {"embedding_dim": 1}}, "encoder: embedding_dim must be at least 2, got 1"),
        ({"features": {"hop_length": 0}}, "features: hop_length must be at least 1, got 0"),
        ({"features": {"n_fft": 256}}, "features: n_fft 256 must cover the window length 400"),
        ({"pretrain": {"schedule": {"period_epochs": 0}}},
         "pretrain.schedule: period_epochs must be at least 1, got 0"),
        ({"finetune": {"schedule": {"period_epochs": 0}}},
         "finetune.schedule: period_epochs must be at least 1, got 0"),
        ({"corpus": {"n_speakers": 0}}, "corpus: n_speakers must be at least 2, got 0"),
        ({"corpus": {"utterances_per_speaker": 0}},
         "corpus: utterances_per_speaker must be at least 1, got 0"),
        ({"corpus": {"duration_s": 0.5}}, "corpus: duration_s must be at least 3.63 s, got 0.5"),
        # Checked by RunConfig itself, at the top level: no prefix, and the
        # message names its key by hand. 128 bands on the 512-point grid
        # leave the lowest filter between two FFT bins.
        ({"features": {"n_mels": 128}, "encoder": {"input_dim": 128}},
         "features.n_mels (128): 1 filters have empty support"),
    ])
    def test_out_of_range_value_fails_at_load(self, doc, message):
        # Each would otherwise fail only once training or scoring reached it.
        # Anchored: the refusing record's dotted path leads the message.
        with pytest.raises(CelError, match="^" + re.escape(message)):
            config_from_dict(doc)

    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_range_error_names_the_record_that_refused_it(self, stage):
        # The two schedules share a record type, so only the path tells them apart.
        with pytest.raises(InvalidParamError) as info:
            config_from_dict({stage: {"schedule": {"period_epochs": 0}}})
        assert str(info.value) == f"{stage}.schedule: period_epochs must be at least 1, got 0"

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("name", ["n_mels", "win_length", "hop_length"])
    def test_feature_size_below_one_is_named_with_its_value(self, name, value):
        with pytest.raises(InvalidParamError,
                           match=re.escape(f"{name} must be at least 1, got {value}")):
            config_from_dict({"features": {name: value}})

    @pytest.mark.parametrize("key, is_tuple",
                             [pytest.param(*case, id=case[0]) for case in _float_keys(RunConfig)])
    def test_non_finite_float_fails_at_load(self, tmp_path, key, is_tuple):
        # json.dumps writes NaN and Infinity, and json.loads reads them back;
        # no float setting can use them.
        path = tmp_path / "run.json"
        for bad in (math.nan, math.inf, -math.inf):
            doc = [0.0, bad] if is_tuple else bad
            for part in reversed(key.split(".")):
                doc = {part: doc}
            path.write_text(json.dumps(doc))
            with pytest.raises(SchemaError, match=f"'{re.escape(key)}' must be a finite float"):
                load_config(path)

    def test_encoder_input_must_match_the_mel_bands(self):
        with pytest.raises(InvalidParamError,
                           match=re.escape("encoder.input_dim (64) must equal features.n_mels (40)")):
            config_from_dict({"encoder": {"input_dim": 64}})
        run = config_from_dict({"encoder": {"input_dim": 64}, "features": {"n_mels": 64}})
        assert run.encoder.input_dim == run.features.n_mels == 64

    @pytest.mark.parametrize("section", [f.name for f in dataclasses.fields(RunConfig)])
    def test_every_field_is_read_by_its_name(self, section):
        # Each field of the section set to a non-default value in a JSON
        # document keyed by the field names, so a new field needs no schema edit.
        default = getattr(RunConfig(), section)
        value = _changed(section, default)
        changes = {section: value}
        if section in PAIRED:
            own, other, theirs = PAIRED[section]
            changes[other] = dataclasses.replace(
                getattr(RunConfig(), other), **{theirs: getattr(value, own)}
            )
        run = dataclasses.replace(RunConfig(), **changes)
        doc = {name: json.loads(json.dumps(run.to_dict()))[name] for name in changes}
        if dataclasses.is_dataclass(default):
            assert set(doc[section]) == {f.name for f in dataclasses.fields(default)}
            for f in dataclasses.fields(default):
                assert getattr(value, f.name) != getattr(default, f.name), f.name
        assert config_from_dict(doc) == run


class TestRoundTrip:
    def test_dict_round_trip_identity(self, desk_run):
        cfg = desk_run.with_seed(7)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_file_round_trip_identity(self, tmp_path):
        cfg = RunConfig().with_seed(3)
        path = tmp_path / "run.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_saved_file_is_plain_sorted_json(self, tmp_path):
        path = tmp_path / "run.json"
        save_config(RunConfig(), path)
        doc = json.loads(path.read_text())
        assert list(doc) == sorted(doc)
        assert doc["pretrain"]["kernel_t"] == 2.0

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_config(path)


class TestProfiles:
    def test_with_seed_threads_through_stages(self):
        cfg = RunConfig().with_seed(99)
        assert cfg.pretrain.seed == 99
        assert cfg.finetune.seed == 99

    def test_desk_config_is_small(self, desk_run):
        assert desk_run.corpus.n_speakers == 32
        assert desk_run.pretrain.k <= desk_run.corpus.n_speakers - desk_run.evaluation.eval_speakers
        assert desk_run.encoder.embedding_dim == 32

    def test_fullscale_config_keeps_reference_hyperparameters(self):
        run = load_config(FULLSCALE)
        assert run.pretrain.k == 200
        assert run.pretrain.uniformity_weight == 1.0
        assert run.pretrain.kernel_t == 2.0
        assert run.pretrain.epochs == 500
        assert run.finetune.margin == 0.2
        assert run.finetune.margin_scale == 30.0
        assert run.finetune.epochs == 250

    def test_fullscale_config_is_the_defaults(self):
        # The full-scale recipe is RunConfig()'s defaults; the file spells it out.
        assert load_config(FULLSCALE) == RunConfig()
