"""Training loops: batch assembly, epoch plans, determinism, resume, embedding."""

import os
import re
import signal
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cel.config import desk_profile
from cel.corpus import build_manifest
from cel.encoder import EncoderConfig, LrSchedule, load_checkpoint, save_checkpoint
from cel.errors import (
    CheckpointMismatchError,
    CorpusTooSmallError,
    InvalidParamError,
    UtteranceTooShortError,
)
from cel.evaluation import Trial
from cel.features import FeatureConfig
from cel.pool import ItemPool, map_items
from cel.rng import derive_rng
from cel.trainer import (
    LOG_HEADER,
    CorpusSource,
    FinetuneConfig,
    PretrainConfig,
    _epoch_plan,
    _pretrain_item,
    embed_utterances,
    finetune,
    pretrain,
)
from cel import pool, trainer
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


def _drop_meta_key(path: Path, key: str) -> Path:
    """Re-save the checkpoint at path without meta[key]."""
    config, blocks, meta = load_checkpoint(path)
    del meta[key]
    save_checkpoint(path, config, blocks, meta)
    return path


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
        items = list(map_items(
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

    @pytest.mark.parametrize("key", ["adam_step", "epochs_done"])
    def test_resume_without_meta_key_rejected(self, source, bank, tmp_path, key):
        pretrain(source, tiny_pretrain_cfg(epochs=1), TINY_ENC, bank=bank, out_dir=tmp_path)
        path = _drop_meta_key(tmp_path / "checkpoint.ckpt", key)
        with pytest.raises(CheckpointMismatchError, match=f"{re.escape(str(path))}.*'{key}'"):
            pretrain(source, tiny_pretrain_cfg(), TINY_ENC, bank=bank, resume_from=path)

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
        emb = embed_utterances(
            source, params, TINY_ENC, bank=bank, aug_seed=2, ids=ids | {"nowhere.wav"}
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
    def test_outputs_do_not_depend_on_pool_size(
        self, source, bank, tmp_path, monkeypatch, on_pools
    ):
        # The reference maps the items in order on the calling thread.
        with monkeypatch.context() as m:
            m.setattr(pool, "map_items", map)
            want = _run_all(source, bank, tmp_path / "serial")
        files = [f"{run}/{name}" for run in ("pre", "ft")
                 for name in ("metrics.tsv", "checkpoint.ckpt")]
        # The default pool, one worker, and more workers than cores.
        got = on_pools(lambda n: _run_all(source, bank, tmp_path / f"workers{n}"))
        for n, emb in got.items():
            for name in files:
                out = tmp_path / f"workers{n}"
                assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
            _assert_same_embeddings(emb, want)

    def test_cold_source_outputs_do_not_depend_on_pool_size(
        self, source, bank, tmp_path, monkeypatch, on_pools
    ):
        # Unwarmed sources synthesize their utterances on pool threads,
        # whose own maps over sample ranges must run inline.
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
    def test_profile_is_self_consistent(self):
        run = desk_profile()
        assert run.pretrain.k <= run.corpus.n_speakers - run.evaluation.eval_speakers
        assert run.pretrain.uniformity_weight == 1.0
        assert run.pretrain.kernel_t == 2.0
