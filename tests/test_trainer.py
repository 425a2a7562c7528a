"""Training loops: batch assembly, epoch plans, determinism, resume, embedding."""

import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from cel.config import desk_profile
from cel.corpus import build_manifest
from cel.encoder import EncoderConfig, LrSchedule, load_checkpoint
from cel.errors import CorpusTooSmallError, InvalidParamError, UtteranceTooShortError
from cel.features import FeatureConfig
from cel.rng import derive_rng
from cel.trainer import (
    LOG_HEADER,
    CorpusSource,
    FinetuneConfig,
    PretrainConfig,
    _epoch_plan,
    _map_items,
    _pretrain_item,
    embed_utterances,
    finetune,
    pretrain,
)
from cel import trainer
from cel.augment import synth_bank

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
        items = list(_map_items(
            lambda s, u: _pretrain_item(source, bank, cfg, FeatureConfig(), 0, s, u),
            [s for s, _ in batch],
            [u for _, (u,) in batch],
        ))
        assert len(items) == cfg.k
        assert len({it.source_id for it in items}) == cfg.k
        for it in items:
            assert it.features1.shape == (40, cfg.frames)
            assert it.features2.shape == (40, cfg.frames)
            assert not np.array_equal(it.features1, it.features2)

    def test_batch_larger_than_corpus_rejected(self, source, bank, monkeypatch):
        def unreachable(*args):
            raise AssertionError("items were built for an impossible batch")

        monkeypatch.setattr(trainer, "_pretrain_item", unreachable)
        with pytest.raises(CorpusTooSmallError):
            pretrain(source, tiny_pretrain_cfg(k=9), TINY_ENC, bank=bank)


class TestPretrain:
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
        half_cfg = tiny_pretrain_cfg(epochs=2)
        full = pretrain(source, full_cfg, TINY_ENC, bank=bank)
        half_dir = tmp_path / "half"
        pretrain(source, half_cfg, TINY_ENC, bank=bank, out_dir=half_dir)
        resumed = pretrain(
            source,
            full_cfg,
            TINY_ENC,
            bank=bank,
                       resume_from=half_dir / "checkpoint.ckpt",
        )
        for name in full.params:
            np.testing.assert_array_equal(resumed.params[name], full.params[name])
        assert [r.epoch for r in resumed.records] == [2, 3]

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
            assert result.extras["adacos_scale"] > 0.0

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
        assert pre.params["sim_scale"] != pytest.approx(float(cfg.init_scale))

    def test_byte_identical_reruns(self, source, tmp_path):
        cfg = tiny_finetune_cfg(objective="cosface", utterances_per_speaker=1)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        finetune(source, cfg, TINY_ENC, out_dir=out_a)
        finetune(source, cfg, TINY_ENC, out_dir=out_b)
        assert (out_a / "checkpoint.ckpt").read_bytes() == (
            out_b / "checkpoint.ckpt"
        ).read_bytes()

    def test_resume_matches_uninterrupted_run(self, source, tmp_path):
        full = finetune(source, tiny_finetune_cfg(epochs=4), TINY_ENC)
        half_dir = tmp_path / "half"
        finetune(
            source, tiny_finetune_cfg(epochs=2), TINY_ENC,
            out_dir=half_dir,
        )
        resumed = finetune(
            source,
            tiny_finetune_cfg(epochs=4),
            TINY_ENC,
                       resume_from=half_dir / "checkpoint.ckpt",
        )
        for name in full.params:
            np.testing.assert_array_equal(resumed.params[name], full.params[name])

    def test_checkpoint_contains_optimizer_state(self, source, tmp_path):
        cfg = tiny_finetune_cfg(epochs=1)
        finetune(source, cfg, TINY_ENC, out_dir=tmp_path)
        _, blocks, meta = load_checkpoint(tmp_path / "checkpoint.ckpt")
        assert any(k.startswith("opt_m.") for k in blocks)
        assert any(k.startswith("opt_v.") for k in blocks)
        assert meta["epochs_done"] == 1


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

    def test_speaker_subset_restricts_keys(self, source):
        from cel.encoder import Encoder

        params = Encoder(TINY_ENC).init_params(derive_rng("emb-init"))
        sub = CorpusSource(source.manifest, speakers=(0, 2))
        emb = embed_utterances(sub, params, TINY_ENC)
        assert len(emb) == 2 * source.utterances_per_speaker
        assert all(k.startswith(("spk000", "spk002")) for k in emb)


def _run_all(source, bank, out: Path) -> dict[str, np.ndarray]:
    """A pretraining run, a fine-tuning run and noisy embeddings, written under out."""
    pretrain(source, tiny_pretrain_cfg(), TINY_ENC, bank=bank, out_dir=out / "pre")
    ft_cfg = tiny_finetune_cfg(objective="arcface", utterances_per_speaker=1)
    result = finetune(source, ft_cfg, TINY_ENC, out_dir=out / "ft")
    return embed_utterances(source, result.params, TINY_ENC, bank=bank, aug_seed=3)


class TestItemPool:
    def test_outputs_do_not_depend_on_pool_size(self, source, bank, tmp_path, monkeypatch):
        # The reference maps the items in order on the calling thread.
        with monkeypatch.context() as m:
            m.setattr(trainer, "_map_items", map)
            want = _run_all(source, bank, tmp_path / "serial")
        files = [f"{run}/{name}" for run in ("pre", "ft")
                 for name in ("metrics.tsv", "checkpoint.ckpt")]
        interval = sys.getswitchinterval()
        # The default pool, one worker, and more workers than cores with
        # frequent thread switches, so any order dependence would show.
        for workers in (None, 1, 8):
            out = tmp_path / f"workers{workers}"
            with ThreadPoolExecutor(workers) if workers else nullcontext() as pool:
                if pool is not None:
                    monkeypatch.setattr(trainer, "_pool", pool)
                sys.setswitchinterval(1e-5)
                try:
                    got = _run_all(source, bank, out)
                finally:
                    sys.setswitchinterval(interval)
            for name in files:
                assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
            assert list(got) == list(want)
            for key in want:
                assert got[key].tobytes() == want[key].tobytes()

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
        assert trainer._pool_size(cpus, environ) == want

    def test_pool_works_in_a_forked_child(self):
        # Busy every pool thread, so the child inherits a full, threadless pool.
        list(_map_items(time.sleep, [0.01] * 2 * len(os.sched_getaffinity(0))))
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if list(_map_items(abs, [-1, -2])) == [1, 2] else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on the item pool")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_worker_error_reaches_caller_with_its_type(self, source, bank):
        # 500 frames need 80,240 samples; the 4 s utterances have 64,000.
        with pytest.raises(UtteranceTooShortError):
            pretrain(source, tiny_pretrain_cfg(frames=500), TINY_ENC, bank=bank)


class TestDeskProfile:
    def test_profile_is_self_consistent(self):
        run = desk_profile()
        assert run.pretrain.k <= run.corpus.n_speakers - run.evaluation.eval_speakers
        assert run.pretrain.uniformity_weight == 1.0
        assert run.pretrain.kernel_t == 2.0
