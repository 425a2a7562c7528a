"""Training loops: batch assembly, epoch plans, determinism, resume, embedding."""

import itertools
import os
import re
import signal
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cel.corpus import build_manifest
from cel.embedding import SCALE_FLOOR, SimilarityParams
from cel.encoder import (
    Encoder,
    EncoderConfig,
    LrSchedule,
    load_checkpoint,
    load_encoder,
    save_checkpoint,
)
from cel.errors import (
    CheckpointMismatchError,
    CorpusTooSmallError,
    InvalidParamError,
    NonFiniteError,
    UtteranceTooShortError,
)
from cel.evaluation import Trial
from cel.experiments import build_trials, random_encoder_eer
from cel.features import FeatureConfig, Waveform, frame_count, logmel
from cel.pool import ItemPool, map_items
from cel.rng import derive_rng
from cel.trainer import (
    LOG_HEADER,
    STATE_PREFIXES,
    CorpusSource,
    EpochRecord,
    FinetuneConfig,
    PretrainConfig,
    _epoch_plan,
    _finetune_batch,
    _finetune_items,
    _pretrain_batch,
    _pretrain_items,
    embed_utterances,
    finetune,
    pretrain,
)
from cel import augment, pool, trainer
from cel.augment import apply_spec, crop_samples, sample_spec, synth_bank

TINY_ENC = EncoderConfig(input_dim=40, hidden_dims=(16,), embedding_dim=8)
FAST_SCHED = LrSchedule(initial_lr=0.01, decay_fraction=0.5, period_epochs=2)


@pytest.fixture(scope="module")
def source():
    return CorpusSource(build_manifest(5, 2, 4.0, seed=70))


@pytest.fixture(scope="module")
def bank():
    return synth_bank(seed=71, n_each=1, noise_duration_s=4.5, rir_count=1)


def tiny_pretrain_cfg(**kw):
    base = dict(
        k=3, epochs=2, frames=60, seed=5, schedule=FAST_SCHED, snr_range=(10.0, 20.0)
    )
    base.update(kw)
    return PretrainConfig(**base)


def tiny_finetune_cfg(**kw):
    base = dict(
        objective="aprot",
        speakers_per_batch=3,
        utterances_per_speaker=2,
        frames=60,
        epochs=2,
        seed=6,
        schedule=FAST_SCHED,
    )
    base.update(kw)
    return FinetuneConfig(**base)


def _drop_meta_key(path: Path, key: str) -> Path:
    """Re-save the checkpoint at path without meta[key]."""
    config, blocks, meta = load_checkpoint(path)
    del meta[key]
    save_checkpoint(path, config, blocks, meta)
    return path


def assert_resumed_exactly(full_dir: Path, resumed_dir: Path, epochs_before: int) -> None:
    """The resumed run wrote the uninterrupted run's checkpoint bytes, so
    Adam's moments and step and any objective state match too, and its
    metric rows are the uninterrupted run's rows of the resumed epochs."""
    assert (resumed_dir / "checkpoint.ckpt").read_bytes() == (
        full_dir / "checkpoint.ckpt"
    ).read_bytes()
    header, *rows = (full_dir / "metrics.tsv").read_text().splitlines()
    resumed = (resumed_dir / "metrics.tsv").read_text().splitlines()
    assert resumed == [header, *rows[epochs_before:]]


class TestConfigValidation:
    def test_pretrain_rejects_bad_values(self):
        with pytest.raises(InvalidParamError):
            PretrainConfig(k=1)
        with pytest.raises(InvalidParamError):
            PretrainConfig(similarity_kind="cosface")
        with pytest.raises(InvalidParamError):
            PretrainConfig(epochs=0)

    def test_finetune_rejects_bad_values(self):
        with pytest.raises(InvalidParamError):
            FinetuneConfig(objective="uniformity")
        with pytest.raises(InvalidParamError):
            FinetuneConfig(objective="aprot", utterances_per_speaker=3)
        with pytest.raises(InvalidParamError):
            FinetuneConfig(objective="ge2e", utterances_per_speaker=1)
        with pytest.raises(InvalidParamError):
            FinetuneConfig(speakers_per_batch=1)

    def test_source_rejects_bad_speaker_subset(self, source):
        with pytest.raises(CorpusTooSmallError):
            CorpusSource(source.manifest, speakers=(0, 9))


class TestEpochPlan:
    def test_each_round_covers_each_speaker_at_most_once(self):
        rng = derive_rng("plan", 0)
        plan = _epoch_plan(10, 4, 3, 1, rng)
        # 4 rounds of 10 speakers in batches of 3 -> 3 batches kept per round
        # (the trailing single-speaker group is dropped).
        assert len(plan) == 12
        for r in range(4):
            speakers = [s for batch in plan[3 * r : 3 * r + 3] for s, _ in batch]
            assert len(speakers) == len(set(speakers))

    def test_every_utterance_used_once_per_epoch(self):
        rng = derive_rng("plan", 1)
        plan = _epoch_plan(4, 4, 2, 2, rng)
        used = {}
        for batch in plan:
            for s, utts in batch:
                used.setdefault(s, []).extend(utts)
        for s, utts in used.items():
            assert sorted(utts) == [0, 1, 2, 3]

    def test_small_trailing_group_dropped(self):
        rng = derive_rng("plan", 2)
        plan = _epoch_plan(5, 1, 4, 1, rng)
        assert len(plan) == 1
        assert len(plan[0]) == 4


class TestBatchAssembly:
    def test_pretrain_batch_speakers_distinct(self, source, bank):
        cfg = tiny_pretrain_cfg()
        plan = _epoch_plan(
            source.speaker_count, source.utterances_per_speaker, cfg.k, 1,
            derive_rng(cfg.seed, "plan", 0),
        )
        batch = plan[0]
        items = [item for items in map_items(
            lambda s, u: _pretrain_items(source, bank, cfg, FeatureConfig(), 0, [(s, u)]),
            [s for s, _ in batch],
            [u for _, (u,) in batch],
        ) for item in items]
        assert len(items) == cfg.k
        assert len({(s, u) for s, (u,) in batch}) == cfg.k
        for views in items:
            assert len(views) == 2
            assert views[0].shape == (40, cfg.frames)
            assert views[1].shape == (40, cfg.frames)
            assert not np.array_equal(views[0], views[1])

    def test_crops_follow_the_feature_config(self, source, bank):
        # A 5 ms hop: crops sized for the default 10 ms hop would give
        # 2 * frames - 1 frames.
        features = FeatureConfig(hop_length=80)
        pre_cfg, fine_cfg = tiny_pretrain_cfg(), tiny_finetune_cfg()
        (pre,) = _pretrain_items(source, bank, pre_cfg, features, 0, [(0, 0)])
        (fine,) = _finetune_items(source, fine_cfg, features, [0], [0], [0.5])
        assert [v.shape for v in pre] == [(40, pre_cfg.frames)] * 2
        assert [v.shape for v in fine] == [(40, fine_cfg.frames)]

    def test_batch_larger_than_corpus_rejected(self, source, bank, monkeypatch):
        def unreachable(*args):
            raise AssertionError("items were built for an impossible batch")

        monkeypatch.setattr(trainer, "_pretrain_items", unreachable)
        with pytest.raises(CorpusTooSmallError):
            pretrain(source, tiny_pretrain_cfg(k=9), TINY_ENC, bank=bank)


class TestPretrainTasks:
    def test_features_do_not_depend_on_items_per_task_or_pool(self, monkeypatch, on_pools):
        # Nine one-utterance speakers and four responses: tasks of 7 items
        # hold 14 crops, enough for a full 4-row reverb stack and a remainder.
        source = CorpusSource(build_manifest(9, 1, 4.0, seed=72))
        bank = synth_bank(seed=73, n_each=1, noise_duration_s=4.5, rir_count=4)
        cfg = tiny_pretrain_cfg(k=9)
        stack_rows = []
        fft_convolve = augment._fft_convolve

        def recorded(signals, *args):
            stack_rows.append(len(signals))
            return fft_convolve(signals, *args)

        monkeypatch.setattr(augment, "_fft_convolve", recorded)

        def batch() -> list[bytes]:
            items = _pretrain_batch(source, bank, cfg, FeatureConfig(), 0, 0, range(9), [0] * 9)
            return [v.tobytes() for views in items for v in views]

        def each_task_size(n) -> dict[int, tuple[list[bytes], list[int]]]:
            runs = {}
            for per in (1, 3, 4, 7):
                monkeypatch.setattr(trainer, "PRETRAIN_ITEMS_PER_TASK", per)
                stack_rows.clear()
                runs[per] = batch(), list(stack_rows)
            return runs

        with monkeypatch.context() as m:
            m.setattr(pool, "map_items", map)
            m.setattr(trainer, "PRETRAIN_ITEMS_PER_TASK", 1)
            want = batch()
        assert len(want) == 18
        for n, runs in on_pools(each_task_size).items():
            for per, (got, rows) in runs.items():
                assert got == want, (per, n)
                assert max(rows) <= min(2 * per, augment.STACK_ROWS)
            assert augment.STACK_ROWS in runs[7][1] and min(runs[7][1]) < augment.STACK_ROWS


class TestFinetuneCrops:
    def test_crop_is_the_logmel_of_the_hop_aligned_waveform_crop(self, source):
        # One source serves every config in turn, so a cache key that drops
        # a part of the config would hand one config another's features.
        configs = [
            FeatureConfig(), FeatureConfig(hop_length=80), FeatureConfig(mean_normalize=False)
        ]
        fresh, frames = CorpusSource(source.manifest), 60
        for features, (s, u) in itertools.product(configs, [(0, 0), (2, 1), (4, 1)]):
            hop = features.hop_length
            need = crop_samples(frames, features.win_length, hop)
            samples = source.waveform(s, u).samples
            feats = fresh.features(s, u, features.without_normalization(), min_samples=need)
            last = feats.shape[1] - frames
            assert last == frame_count(len(samples), features.win_length, hop) - frames
            for o in (0, 1, 7, last // 2, last):
                crop = feats[:, o : o + frames]
                if features.mean_normalize:
                    crop = crop - crop.mean(axis=1, keepdims=True)
                want = logmel(Waveform(samples[o * hop : o * hop + need]), features).values
                assert crop.tobytes() == want.tobytes()
            # The second item of batch 4 in epoch 1 cuts at the hop offset of
            # the second position that batch's crop stream draws.
            cfg = tiny_finetune_cfg(frames=frames)
            position = derive_rng(cfg.seed, "crop", 1, 4).random(2)[1]
            o = int(position * (last + 1))
            _, (item,) = _finetune_batch(fresh, cfg, features, 1, 4, [0, s], [0, u])
            want = logmel(Waveform(samples[o * hop : o * hop + need]), features).values
            assert item.tobytes() == want.tobytes()

    def test_utterance_shorter_than_a_crop_yields_a_full_item(self, source):
        # 500 and 600 frames need 80,240 and 96,240 samples; the 4 s
        # utterances have 64,000. One source serves both crop lengths.
        fresh, features = CorpusSource(source.manifest), FeatureConfig()
        for frames in (500, 600):
            ((item,),) = _finetune_items(
                fresh, tiny_finetune_cfg(frames=frames), features, [1], [0], [0.5]
            )
            assert item.shape == (features.n_mels, frames)
            wrapped = np.resize(source.waveform(1, 0).samples, crop_samples(frames))
            assert item.tobytes() == logmel(Waveform(wrapped), features).values.tobytes()


class TestPretrain:
    def test_log_columns_are_the_record_fields(self):
        assert LOG_HEADER == "epoch\tlr\tloss_total\tloss_unif\tloss_sim\tw"
        record = EpochRecord(3, 0.001, 1.5, -2.0, 3.5, np.float64(10.0))
        assert record.to_line() == "3\t0.001\t1.5\t-2.0\t3.5\t10.0"

    def test_smoke_and_log_shape(self, source, bank, tmp_path):
        cfg = tiny_pretrain_cfg()
        result = pretrain(
            source, cfg, TINY_ENC, bank=bank, out_dir=tmp_path
        )
        assert len(result.records) == cfg.epochs
        lines = result.log_text.splitlines()
        assert lines[0] == LOG_HEADER
        assert len(lines) == 1 + cfg.epochs
        assert (tmp_path / "metrics.tsv").read_text() == result.log_text
        assert result.checkpoint_path is not None
        for r in result.records:
            assert np.isfinite(r.loss_total)
            assert -8.0 <= r.loss_unif <= 0.0

    def test_loss_depends_on_uniformity_weight(self, source, bank):
        a = pretrain(source, tiny_pretrain_cfg(), TINY_ENC, bank=bank)
        b = pretrain(
            source,
            tiny_pretrain_cfg(uniformity_weight=0.0),
            TINY_ENC,
            bank=bank,
                   )
        assert a.records[0].loss_total != b.records[0].loss_total
        # Zero-weight training reports the uniformity term that it skips.
        assert b.records[0].loss_total == pytest.approx(b.records[0].loss_sim)

    def test_byte_identical_reruns(self, source, bank, tmp_path):
        cfg = tiny_pretrain_cfg()
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        pretrain(source, cfg, TINY_ENC, bank=bank, out_dir=out_a)
        pretrain(source, cfg, TINY_ENC, bank=bank, out_dir=out_b)
        assert (out_a / "metrics.tsv").read_bytes() == (out_b / "metrics.tsv").read_bytes()
        assert (out_a / "checkpoint.ckpt").read_bytes() == (
            out_b / "checkpoint.ckpt"
        ).read_bytes()

    def test_resume_matches_uninterrupted_run(self, source, bank, tmp_path):
        full_cfg = tiny_pretrain_cfg(epochs=4)
        full = pretrain(source, full_cfg, TINY_ENC, bank=bank, out_dir=tmp_path / "full")
        half_dir = tmp_path / "half"
        pretrain(source, tiny_pretrain_cfg(epochs=2), TINY_ENC, bank=bank, out_dir=half_dir)
        resumed = pretrain(
            source, full_cfg, TINY_ENC, bank=bank, out_dir=tmp_path / "resumed",
            resume_from=half_dir / "checkpoint.ckpt",
        )
        for name in full.params:
            np.testing.assert_array_equal(resumed.params[name], full.params[name])
        assert [r.epoch for r in resumed.records] == [2, 3]
        assert_resumed_exactly(tmp_path / "full", tmp_path / "resumed", epochs_before=2)

    @pytest.mark.parametrize("key", ["adam_step", "epochs_done"])
    def test_resume_without_meta_key_rejected(self, source, bank, tmp_path, key):
        pretrain(source, tiny_pretrain_cfg(epochs=1), TINY_ENC, bank=bank, out_dir=tmp_path)
        path = _drop_meta_key(tmp_path / "checkpoint.ckpt", key)
        with pytest.raises(CheckpointMismatchError, match=f"{re.escape(str(path))}.*'{key}'"):
            pretrain(source, tiny_pretrain_cfg(), TINY_ENC, bank=bank, resume_from=path)

    def test_similarity_bias_blocks_of_older_checkpoints_are_ignored(
        self, source, bank, tmp_path
    ):
        # Checkpoints written while the similarity had a bias hold sim_bias and
        # its two Adam moments. A resume, a fine-tuning init and an evaluation
        # read past them to the same bytes as without them.
        new = tmp_path / "new.ckpt"
        pretrain(source, tiny_pretrain_cfg(epochs=1), TINY_ENC, bank=bank, out_dir=tmp_path)
        (tmp_path / "checkpoint.ckpt").rename(new)
        config, blocks, meta = load_checkpoint(new)
        old = tmp_path / "old.ckpt"
        bias = {f"{p}sim_bias": np.float64(v) for p, v in zip(STATE_PREFIXES, (-5.0, 1e-9, 1e-20))}
        save_checkpoint(old, config, {**blocks, **bias}, meta)
        for name, ckpt in (("new", new), ("old", old)):
            pretrain(source, tiny_pretrain_cfg(), TINY_ENC, bank=bank,
                     out_dir=tmp_path / f"resumed-{name}", resume_from=ckpt)
            finetune(source, tiny_finetune_cfg(epochs=1, init_checkpoint=str(ckpt)), TINY_ENC,
                     out_dir=tmp_path / f"init-{name}")
        for run, file in itertools.product(("resumed", "init"), ("metrics.tsv", "checkpoint.ckpt")):
            got = (tmp_path / f"{run}-old" / file).read_bytes()
            assert got == (tmp_path / f"{run}-new" / file).read_bytes(), (run, file)
        (old_cfg, old_params), (new_cfg, new_params) = load_encoder(old), load_encoder(new)
        assert old_cfg == new_cfg and list(old_params) == list(new_params)
        for name, weights in new_params.items():
            assert old_params[name].tobytes() == weights.tobytes()

    def test_backward_passes_summed_view_by_view(self, source, bank, monkeypatch):
        # Every item's first view, then every item's second: the order the
        # pre-training gradients have always been summed in.
        made, summed = [], []
        forward, summed_grads = Encoder.forward, trainer._summed_grads

        def recorded_forward(self, params, features):
            made.append(forward(self, params, features))
            return made[-1]

        def recorded_sum(enc, params, forwards, upstream):
            summed.append(([id(f) for f in forwards], [id(f) for f in made]))
            made.clear()
            return summed_grads(enc, params, forwards, upstream)

        monkeypatch.setattr(Encoder, "forward", recorded_forward)
        monkeypatch.setattr(trainer, "_summed_grads", recorded_sum)
        pretrain(source, tiny_pretrain_cfg(epochs=1), TINY_ENC, bank=bank)
        assert summed
        for order, encoded in summed:
            assert order == encoded[0::2] + encoded[1::2]

    def test_scale_clamped_to_floor_after_every_step(self, source, bank, monkeypatch):
        seen = []
        adam_step = trainer.adam_step

        def overshooting_step(opt, params, grads, lr=None):
            seen.append(float(params["sim_scale"]))
            params, opt = adam_step(opt, params, grads, lr=lr)
            return {**params, "sim_scale": np.float64(SCALE_FLOOR / 1000)}, opt

        monkeypatch.setattr(trainer, "adam_step", overshooting_step)
        result = pretrain(source, tiny_pretrain_cfg(), TINY_ENC, bank=bank)
        assert len(seen) > 1
        assert seen[1:] == [SCALE_FLOOR] * (len(seen) - 1)
        assert result.params["sim_scale"] == SCALE_FLOOR
        assert result.records[-1].w == SCALE_FLOOR

    def test_parameters_and_meta(self, source, bank, tmp_path):
        cfg = tiny_pretrain_cfg(epochs=1)
        result = pretrain(source, cfg, TINY_ENC, bank=bank, out_dir=tmp_path)
        params = list(Encoder(TINY_ENC).param_shapes()) + ["sim_scale"]
        assert list(result.params) == params
        _, blocks, meta = load_checkpoint(tmp_path / "checkpoint.ckpt")
        assert set(blocks) == {f"{p}{n}" for p in ("", "opt_m.", "opt_v.") for n in params}
        assert set(meta) == {"epochs_done", "adam_step"}

    def test_k_larger_than_corpus_rejected(self, source, bank):
        with pytest.raises(CorpusTooSmallError):
            pretrain(source, tiny_pretrain_cfg(k=6), TINY_ENC, bank=bank)


class TestFinetune:
    @pytest.mark.parametrize(
        "objective,extra",
        [
            ("aprot", {}),
            ("acont", {}),
            ("ge2e", {"utterances_per_speaker": 2}),
            ("cosface", {"utterances_per_speaker": 1}),
            ("arcface", {"utterances_per_speaker": 1}),
            ("adacos", {"utterances_per_speaker": 1}),
        ],
    )
    def test_every_objective_trains(self, source, objective, extra):
        cfg = tiny_finetune_cfg(objective=objective, epochs=1, **extra)
        result = finetune(source, cfg, TINY_ENC)
        assert len(result.records) == 1
        assert np.isfinite(result.records[0].loss_total)
        if objective == "adacos":
            assert result.records[0].w > 0.0

    def test_init_from_pretrain_checkpoint(self, source, bank, tmp_path):
        pre_dir = tmp_path / "pre"
        pre = pretrain(
            source, tiny_pretrain_cfg(epochs=1), TINY_ENC, bank=bank,
            out_dir=pre_dir,
        )
        cfg = tiny_finetune_cfg(
            epochs=1, init_checkpoint=str(pre_dir / "checkpoint.ckpt")
        )
        result = finetune(source, cfg, TINY_ENC)
        assert np.isfinite(result.records[0].loss_total)
        # Fresh similarity head: the pretrained sim params are not inherited.
        assert pre.params["sim_scale"] != pytest.approx(SimilarityParams().scale)

    def test_byte_identical_reruns(self, source, tmp_path):
        cfg = tiny_finetune_cfg(objective="cosface", utterances_per_speaker=1)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        finetune(source, cfg, TINY_ENC, out_dir=out_a)
        finetune(source, cfg, TINY_ENC, out_dir=out_b)
        assert (out_a / "checkpoint.ckpt").read_bytes() == (
            out_b / "checkpoint.ckpt"
        ).read_bytes()

    @pytest.mark.parametrize("objective", ["aprot", "adacos"])
    def test_resume_matches_uninterrupted_run(self, source, tmp_path, objective):
        # AdaCos carries its scale and step count across the resume in the meta.
        full_cfg = tiny_finetune_cfg(objective=objective, epochs=4)
        full = finetune(source, full_cfg, TINY_ENC, out_dir=tmp_path / "full")
        half_dir = tmp_path / "half"
        finetune(source, replace(full_cfg, epochs=2), TINY_ENC, out_dir=half_dir)
        resumed = finetune(
            source, full_cfg, TINY_ENC, out_dir=tmp_path / "resumed",
            resume_from=half_dir / "checkpoint.ckpt",
        )
        for name in full.params:
            np.testing.assert_array_equal(resumed.params[name], full.params[name])
        assert_resumed_exactly(tmp_path / "full", tmp_path / "resumed", epochs_before=2)

    @pytest.mark.parametrize("objective", ["cosface", "adacos"])
    def test_resume_with_another_objective_rejected(self, source, tmp_path, objective):
        finetune(source, tiny_finetune_cfg(epochs=1), TINY_ENC, out_dir=tmp_path)
        cfg = tiny_finetune_cfg(objective=objective, utterances_per_speaker=1)
        with pytest.raises(CheckpointMismatchError, match=f"'aprot'.*'{objective}'"):
            finetune(source, cfg, TINY_ENC, resume_from=tmp_path / "checkpoint.ckpt")

    @pytest.mark.parametrize("key", ["adacos_scale", "adacos_steps"])
    def test_adacos_resume_without_meta_key_rejected(self, source, tmp_path, key):
        cfg = tiny_finetune_cfg(objective="adacos", utterances_per_speaker=1)
        finetune(source, replace(cfg, epochs=1), TINY_ENC, out_dir=tmp_path)
        path = _drop_meta_key(tmp_path / "checkpoint.ckpt", key)
        with pytest.raises(CheckpointMismatchError, match=f"{re.escape(str(path))}.*'{key}'"):
            finetune(source, cfg, TINY_ENC, resume_from=path)

    @pytest.mark.parametrize(
        "objective,extra,head,meta",
        [
            ("aprot", {}, ["sim_scale"], []),
            ("ge2e", {}, ["sim_scale"], []),
            ("cosface", {"utterances_per_speaker": 1}, ["cls_w"], []),
            ("adacos", {"utterances_per_speaker": 1}, ["cls_w"],
             ["adacos_scale", "adacos_steps"]),
        ],
    )
    def test_objective_parameters_and_meta(
        self, source, tmp_path, objective, extra, head, meta
    ):
        # Encoder weights, then the objective's own parameters; the meta
        # adds the objective and its state.
        cfg = tiny_finetune_cfg(objective=objective, epochs=1, **extra)
        result = finetune(source, cfg, TINY_ENC, out_dir=tmp_path)
        params = list(Encoder(TINY_ENC).param_shapes()) + head
        assert list(result.params) == params
        _, blocks, got = load_checkpoint(tmp_path / "checkpoint.ckpt")
        assert set(blocks) == {f"{p}{n}" for p in ("", "opt_m.", "opt_v.") for n in params}
        assert set(got) == {"epochs_done", "adam_step", "objective", *meta}
        assert got["objective"] == objective

    def test_checkpoint_contains_optimizer_state(self, source, tmp_path):
        cfg = tiny_finetune_cfg(epochs=1)
        finetune(source, cfg, TINY_ENC, out_dir=tmp_path)
        _, blocks, meta = load_checkpoint(tmp_path / "checkpoint.ckpt")
        assert any(k.startswith("opt_m.") for k in blocks)
        assert any(k.startswith("opt_v.") for k in blocks)
        assert meta["epochs_done"] == 1


class TestNonFiniteStep:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("what", ["loss", "gradient"])
    @pytest.mark.parametrize("phase", ["pretrain", "finetune"])
    def test_stops_before_the_update_naming_epoch_and_batch(
        self, source, bank, tmp_path, monkeypatch, phase, what
    ):
        # Pretraining steps 4 batches an epoch (2 rounds of 2), fine-tuning 2;
        # the step of epoch 1, batch 1 goes bad.
        objective = trainer._Cel if phase == "pretrain" else trainer._Pair
        per_epoch = 4 if phase == "pretrain" else 2
        step, calls = objective.step, []

        def poisoned(self, params, views, labels):
            upstream, own, terms = step(self, params, views, labels)
            calls.append(None)
            if len(calls) == per_epoch + 2:
                if what == "loss":
                    terms = (np.nan, *terms[1:])
                else:
                    upstream = [np.full_like(u, np.inf) for u in upstream]
            return upstream, own, terms

        monkeypatch.setattr(objective, "step", poisoned)
        adam_step, updates = trainer.adam_step, []
        monkeypatch.setattr(
            trainer, "adam_step", lambda *a: updates.append(None) or adam_step(*a)
        )
        with pytest.raises(NonFiniteError, match=f"^{phase} .*epoch 1, batch 1"):
            if phase == "pretrain":
                pretrain(source, tiny_pretrain_cfg(), TINY_ENC, bank=bank, out_dir=tmp_path)
            else:
                finetune(source, tiny_finetune_cfg(), TINY_ENC, out_dir=tmp_path)
        assert len(updates) == per_epoch + 1
        assert not (tmp_path / "checkpoint.ckpt").exists()


class TestEmbedUtterances:
    def test_keys_cover_all_utterances(self, source):
        enc_rng = derive_rng("emb-init")
        from cel.encoder import Encoder

        params = Encoder(TINY_ENC).init_params(enc_rng)
        emb = embed_utterances(source, params, TINY_ENC)
        assert len(emb) == source.speaker_count * source.utterances_per_speaker
        assert set(emb) == {e.relative_path for e in source.manifest.entries}
        for v in emb.values():
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_augmented_embeddings_differ_but_are_stable(self, source, bank):
        from cel.encoder import Encoder

        params = Encoder(TINY_ENC).init_params(derive_rng("emb-init"))
        clean = embed_utterances(source, params, TINY_ENC)
        noisy_a = embed_utterances(source, params, TINY_ENC, bank=bank, aug_seed=1)
        noisy_b = embed_utterances(source, params, TINY_ENC, bank=bank, aug_seed=1)
        key = next(iter(clean))
        assert not np.allclose(clean[key], noisy_a[key])
        for k in clean:
            np.testing.assert_array_equal(noisy_a[k], noisy_b[k])

    def test_ids_restrict_the_utterances_read(self, source, bank, monkeypatch):
        from cel.encoder import Encoder

        params = Encoder(TINY_ENC).init_params(derive_rng("emb-init"))
        full = embed_utterances(source, params, TINY_ENC, bank=bank, aug_seed=2)
        keys = list(full)
        trials = [Trial(keys[1], keys[6], False), Trial(keys[6], keys[7], True)]
        ids = {key for t in trials for key in (t.enroll_id, t.test_id)}
        fetched = []
        waveform = CorpusSource.waveform

        def counted(self, s, u):
            fetched.append(self.utterance_key(s, u))
            return waveform(self, s, u)

        monkeypatch.setattr(CorpusSource, "waveform", counted)
        # A fresh source: `full` filled the feature cache of `source`.
        emb = embed_utterances(
            CorpusSource(source.manifest), params, TINY_ENC, bank=bank, aug_seed=2,
            ids=ids | {"nowhere.wav"},
        )
        assert sorted(fetched) == sorted(ids)
        assert list(emb) == [k for k in keys if k in ids]
        for key in ids:
            assert emb[key].tobytes() == full[key].tobytes()

    def test_speaker_subset_restricts_keys(self, source):
        from cel.encoder import Encoder

        params = Encoder(TINY_ENC).init_params(derive_rng("emb-init"))
        sub = CorpusSource(source.manifest, speakers=(0, 2))
        emb = embed_utterances(sub, params, TINY_ENC)
        assert len(emb) == 2 * source.utterances_per_speaker
        assert all(k.startswith(("spk000", "spk002")) for k in emb)

    def test_random_encoder_eer_embeds_with_the_run_features(self, source, monkeypatch):
        from cel.encoder import Encoder

        # A 5 ms hop: features of the default 10 ms hop would have half the frames.
        features = FeatureConfig(hop_length=80)
        frames = []
        forward = Encoder.forward

        def recorded(self, params, feats):
            frames.append(feats.shape[1])
            return forward(self, params, feats)

        monkeypatch.setattr(Encoder, "forward", recorded)
        random_encoder_eer(source, build_trials(source), TINY_ENC, features, seed=0)
        n = len(source.waveform(0, 0))
        want = frame_count(n, features.win_length, features.hop_length)
        assert len(frames) == source.speaker_count * source.utterances_per_speaker
        assert set(frames) == {want}


class TestFeatureCache:
    @pytest.fixture()
    def logmel_calls(self, monkeypatch):
        """The number of `cel.trainer.logmel` calls so far, as a one-item list."""
        calls = [0]
        logmel = trainer.logmel

        def counted(*args, **kwargs):
            calls[0] += 1
            return logmel(*args, **kwargs)

        monkeypatch.setattr(trainer, "logmel", counted)
        return calls

    @staticmethod
    def _params():
        return Encoder(TINY_ENC).init_params(derive_rng("emb-init"))

    @pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "clean"])
    def test_cold_and_warm_embeddings_equal_the_uncached_pipeline(self, source, bank, noisy):
        bank = bank if noisy else None
        fresh = CorpusSource(source.manifest)
        params = self._params()
        cold = embed_utterances(fresh, params, TINY_ENC, bank=bank, aug_seed=4)
        warm = embed_utterances(fresh, params, TINY_ENC, bank=bank, aug_seed=4)
        enc = Encoder(TINY_ENC)
        for s in range(source.speaker_count):
            for u in range(source.utterances_per_speaker):
                key = source.utterance_key(s, u)
                wave = source.waveform(s, u)
                if bank is not None:
                    rng = derive_rng(4, "eval-aug", key)
                    spec = sample_spec(rng, bank, len(wave), trainer.EVAL_SNR_RANGE)
                    wave = apply_spec(wave, spec, bank)
                feats = logmel(wave, FeatureConfig()).values
                want = enc.forward(enc.float32_weights(params), feats).embedding
                assert cold[key].tobytes() == want.tobytes()
                assert warm[key].tobytes() == want.tobytes()

    @pytest.mark.parametrize("finetuning", [False, True], ids=["evaluation", "finetuning"])
    def test_cached_features_are_read_only(self, source, bank, finetuning):
        fresh = CorpusSource(source.manifest)
        if finetuning:
            feats = fresh.features(0, 1, FeatureConfig(mean_normalize=False),
                                   min_samples=crop_samples(60))
        else:
            feats = fresh.features(0, 1, FeatureConfig(), bank, 4)
        assert not feats.flags.writeable
        with pytest.raises(ValueError):
            feats[0, 0] = 0.0

    def test_each_key_part_separates_entries(self, source, bank, logmel_calls):
        fresh = CorpusSource(source.manifest)
        params = self._params()
        n = source.speaker_count * source.utterances_per_speaker
        twin = synth_bank(seed=71, n_each=1, noise_duration_s=4.5, rir_count=1)

        def misses(**kwargs) -> int:
            before = logmel_calls[0]
            embed_utterances(fresh, params, TINY_ENC, **kwargs)
            return logmel_calls[0] - before

        assert misses(bank=bank, aug_seed=1) == n
        assert misses(bank=bank, aug_seed=1) == 0
        # Equal samples from the same seed, but another bank.
        assert misses(bank=twin, aug_seed=1) == n
        assert misses(bank=bank, aug_seed=2) == n
        assert misses(feature_cfg=FeatureConfig(hop_length=80), bank=bank, aug_seed=1) == n
        assert misses(feature_cfg=FeatureConfig(hop_length=80), bank=bank, aug_seed=1) == 0

    def test_clean_lookup_hits_whatever_the_aug_seed(self, source, logmel_calls):
        fresh = CorpusSource(source.manifest)
        params = self._params()
        first = embed_utterances(fresh, params, TINY_ENC, aug_seed=1)
        calls = logmel_calls[0]
        again = embed_utterances(fresh, params, TINY_ENC, aug_seed=9)
        assert logmel_calls[0] == calls == source.speaker_count * source.utterances_per_speaker
        _assert_same_embeddings(again, first)

    def test_finetuning_computes_each_utterance_log_mel_once(self, source, logmel_calls):
        fresh = CorpusSource(source.manifest)
        cfg = tiny_finetune_cfg(epochs=2)
        first = finetune(fresh, cfg, TINY_ENC)
        assert logmel_calls[0] == source.speaker_count * source.utterances_per_speaker
        again = finetune(fresh, cfg, TINY_ENC)
        assert logmel_calls[0] == source.speaker_count * source.utterances_per_speaker
        assert again.log_text == first.log_text

    def test_only_finetuning_fills_the_store_and_only_unnormalized(self, source, bank):
        fresh = CorpusSource(source.manifest)
        pretrain(fresh, tiny_pretrain_cfg(epochs=1), TINY_ENC, bank=bank)
        assert fresh._cache and not fresh._features
        finetune(fresh, tiny_finetune_cfg(epochs=1), TINY_ENC)
        assert fresh._features
        assert {key[2] for key in fresh._features} == {FeatureConfig(mean_normalize=False)}

    @pytest.mark.parametrize("kind", ["clean", "noisy", "padded"])
    def test_features_of_yields_each_pair_in_order(self, source, bank, on_pools, kind):
        # A repeated pair, pairs out of corpus order, and 500 frames' worth
        # of padding beyond the 4 s utterances.
        pairs = [(3, 1), (0, 0), (3, 1), (4, 0), (1, 1)]
        args = {
            "clean": (FeatureConfig(),),
            "noisy": (FeatureConfig(), bank, 4),
            "padded": (FeatureConfig(mean_normalize=False), None, 0, crop_samples(500)),
        }[kind]
        reference = CorpusSource(source.manifest)
        want = [reference.features(s, u, *args).tobytes() for s, u in pairs]

        def run(n):
            fresh = CorpusSource(source.manifest)
            cold = [f.tobytes() for f in fresh.features_of(pairs, *args)]
            warm = [f.tobytes() for f in fresh.features_of(pairs, *args)]
            return cold, warm

        for cold, warm in on_pools(run).values():
            assert cold == want
            assert warm == want


class TestPoolTraffic:
    @staticmethod
    def _refuse(*args):
        raise AssertionError("items were sent to the pool")

    def test_warm_finetuning_and_embedding_submit_nothing(self, source, bank, monkeypatch):
        fresh = CorpusSource(source.manifest)
        cfg = tiny_finetune_cfg(epochs=2)
        params = Encoder(TINY_ENC).init_params(derive_rng("emb-init"))
        first = finetune(fresh, cfg, TINY_ENC)
        clean = embed_utterances(fresh, params, TINY_ENC)
        noisy = embed_utterances(fresh, params, TINY_ENC, bank=bank, aug_seed=4)
        monkeypatch.setattr(pool, "map_items", self._refuse)
        assert finetune(fresh, cfg, TINY_ENC).log_text == first.log_text
        _assert_same_embeddings(embed_utterances(fresh, params, TINY_ENC), clean)
        _assert_same_embeddings(
            embed_utterances(fresh, params, TINY_ENC, bank=bank, aug_seed=4), noisy
        )

    def test_a_cold_batch_sends_only_its_missing_pairs_once(self, source, monkeypatch):
        fresh, features, cfg = CorpusSource(source.manifest), FeatureConfig(), tiny_finetune_cfg()
        for s in range(source.speaker_count):
            for u in range(source.utterances_per_speaker):
                fresh.waveform(s, u)
        need = crop_samples(cfg.frames)
        for s, u in [(0, 0), (2, 1)]:
            fresh.features(s, u, features.without_normalization(), min_samples=need)
        sent = []
        map_items = pool.map_items

        def recorded(fn, *items):
            items = [list(i) for i in items]
            sent.append(list(zip(*items)))
            return map_items(fn, *items)

        monkeypatch.setattr(pool, "map_items", recorded)
        speakers, utts = [0, 0, 2, 2, 3, 3], [0, 1, 0, 1, 0, 1]
        cold = list(_finetune_batch(fresh, cfg, features, 0, 0, speakers, utts))
        assert sent == [[(0, 1), (2, 0), (3, 0), (3, 1)]]
        monkeypatch.setattr(pool, "map_items", self._refuse)
        warm = list(_finetune_batch(fresh, cfg, features, 0, 0, speakers, utts))
        assert [v.tobytes() for v, in warm] == [v.tobytes() for v, in cold]


def _run_all(source, bank, out: Path) -> dict[str, np.ndarray]:
    """A pretraining run, a fine-tuning run and noisy embeddings, written under out."""
    pretrain(source, tiny_pretrain_cfg(), TINY_ENC, bank=bank, out_dir=out / "pre")
    ft_cfg = tiny_finetune_cfg(objective="arcface", utterances_per_speaker=1)
    result = finetune(source, ft_cfg, TINY_ENC, out_dir=out / "ft")
    return embed_utterances(source, result.params, TINY_ENC, bank=bank, aug_seed=3)


def _assert_same_embeddings(got, want):
    assert list(got) == list(want)
    for key in want:
        assert got[key].tobytes() == want[key].tobytes()


def _wait_for_child(pid: int, what: str) -> None:
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"the forked child hung {what}")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


class TestItemPool:
    @staticmethod
    def _check_pool_sizes(source, bank, tmp_path, monkeypatch, on_pools, cold: bool):
        def pipeline(out: Path, clear: bool) -> dict[str, np.ndarray]:
            if clear:
                source._features.clear()
            return _run_all(source, bank, out)

        # The reference maps the items in order on the calling thread, from
        # empty feature caches; warm runs use the features it cached.
        with monkeypatch.context() as m:
            m.setattr(pool, "map_items", map)
            want = pipeline(tmp_path / "serial", clear=True)
        files = [f"{run}/{name}" for run in ("pre", "ft")
                 for name in ("metrics.tsv", "checkpoint.ckpt")]
        # The default pool, one worker, and more workers than cores.
        got = on_pools(lambda n: pipeline(tmp_path / f"workers{n}", clear=cold))
        for n, emb in got.items():
            for name in files:
                out = tmp_path / f"workers{n}"
                assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
            _assert_same_embeddings(emb, want)

    def test_outputs_do_not_depend_on_pool_size(
        self, source, bank, tmp_path, monkeypatch, on_pools
    ):
        self._check_pool_sizes(source, bank, tmp_path, monkeypatch, on_pools, cold=True)

    def test_warm_feature_cache_outputs_do_not_depend_on_pool_size(
        self, source, bank, tmp_path, monkeypatch, on_pools
    ):
        self._check_pool_sizes(source, bank, tmp_path, monkeypatch, on_pools, cold=False)

    def test_cold_source_outputs_do_not_depend_on_pool_size(
        self, source, bank, tmp_path, monkeypatch, on_pools
    ):
        # Unwarmed sources synthesize their utterances inside the pool's
        # item tasks.
        def run(out: Path) -> dict[str, np.ndarray]:
            result = pretrain(
                CorpusSource(source.manifest), tiny_pretrain_cfg(), TINY_ENC, bank=bank,
                out_dir=out,
            )
            return embed_utterances(
                CorpusSource(source.manifest), result.params, TINY_ENC, bank=bank,
                aug_seed=3,
            )

        with monkeypatch.context() as m:
            m.setattr(pool, "map_items", map)
            want = run(tmp_path / "serial")
        got = on_pools(lambda n: run(tmp_path / f"workers{n}"))
        for n, emb in got.items():
            for name in ("metrics.tsv", "checkpoint.ckpt"):
                out = tmp_path / f"workers{n}"
                assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
            _assert_same_embeddings(emb, want)

    @pytest.mark.parametrize(
        "environ,cpus,want",
        [
            ({}, 2, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
            ({"OMP_NUM_THREADS": "2"}, 8, 4),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "8"}, 4, 4),
            ({"MKL_NUM_THREADS": "16"}, 4, 1),
            ({"OPENBLAS_NUM_THREADS": "junk"}, 4, 1),
        ],
    )
    def test_pool_leaves_room_for_blas_threads(self, environ, cpus, want):
        assert pool._pool_size(cpus, environ) == want

    def test_pool_works_in_a_forked_child(self):
        # Busy every pool thread, so the child inherits a full, threadless pool.
        list(map_items(time.sleep, [0.01] * 2 * len(os.sched_getaffinity(0))))
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if list(map_items(abs, [-1, -2])) == [1, 2] else 1
            finally:
                os._exit(code)
        _wait_for_child(pid, "on the item pool")

    def test_map_on_a_pool_thread_runs_inline(self):
        # On a 1-worker pool, a nested map submitted to the pool would wait
        # forever for the worker that is waiting on it; a child process
        # holds the attempt so a hang can be killed.
        def task(x: int) -> tuple[list[int], list[str]]:
            inner = list(map_items(lambda y: (abs(y), threading.current_thread().name),
                                   [-x, -x - 1]))
            outer = threading.current_thread().name
            return [v for v, _ in inner], [name for _, name in inner] + [outer]

        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                pool._pool = ItemPool(1)
                got = list(map_items(task, [1, 2, 3]))
                values = [v for v, _ in got]
                names = {name for _, names in got for name in names}
                inline = len(names) == 1 and names.pop().startswith("cel-item")
                code = 0 if values == [[1, 2], [2, 3], [3, 4]] and inline else 1
            finally:
                os._exit(code)
        _wait_for_child(pid, "on a map nested in a pool task")

    def test_worker_error_reaches_caller_with_its_type(self, source, bank):
        # 500 frames need 80,240 samples; the 4 s utterances have 64,000.
        with pytest.raises(UtteranceTooShortError):
            pretrain(source, tiny_pretrain_cfg(frames=500), TINY_ENC, bank=bank)


class TestDeskProfile:
    def test_profile_is_self_consistent(self, desk_run):
        assert desk_run.pretrain.k <= desk_run.corpus.n_speakers - desk_run.evaluation.eval_speakers
        assert desk_run.pretrain.uniformity_weight == 1.0
        assert desk_run.pretrain.kernel_t == 2.0
