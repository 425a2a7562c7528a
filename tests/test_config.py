"""Run configuration: schema validation, round trips, the configs/ profiles."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from cel.config import RunConfig, config_from_dict, load_config, save_config
from cel.errors import CelError, InvalidParamError, SchemaError

ROOT = Path(__file__).resolve().parent.parent
FULLSCALE = ROOT / "configs" / "fullscale.json"

# Valid values other than the default for the string-valued config fields.
OTHER_CHOICE = {"similarity_kind": "acont", "objective": "ge2e", "pooling": "mean_std"}


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
        ({"evaluation": {"nontarget_per_target": 0}}, "nontarget_per_target must be at least 1, got 0"),
        ({"evaluation": {"eval_speakers": 0}}, "eval_speakers must be at least 1, got 0"),
        ({"evaluation": {"c_miss": 0.0}}, "costs must be positive, got c_miss=0.0"),
        ({"evaluation": {"c_fa": -1.0}}, "costs must be positive, got c_miss=1.0, c_fa=-1.0"),
        ({"evaluation": {"p_target": 1.5}}, "p_target must be in (0, 1), got 1.5"),
        ({"pretrain": {"kernel_t": 0.0}}, "kernel sharpness must be positive, got 0.0"),
        ({"pretrain": {"uniformity_weight": -1.0}}, "uniformity weight must be nonnegative, got -1.0"),
        ({"pretrain": {"snr_range": [15, 0]}}, "empty SNR range (15.0, 0.0)"),
        ({"finetune": {"frames": 0}}, "frames must be at least 1, got 0"),
    ])
    def test_out_of_range_value_fails_at_load(self, doc, message):
        # Each would otherwise fail only once training or scoring reached it.
        with pytest.raises(CelError, match=re.escape(message)):
            config_from_dict(doc)

    @pytest.mark.parametrize("section", [f.name for f in dataclasses.fields(RunConfig)])
    def test_every_field_is_read_by_its_name(self, section):
        # Each field of the section set to a non-default value in a JSON
        # document keyed by the field names, so a new field needs no schema edit.
        default = getattr(RunConfig(), section)
        value = _changed(section, default)
        run = dataclasses.replace(RunConfig(), **{section: value})
        doc = {section: json.loads(json.dumps(run.to_dict()))[section]}
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
