"""End-to-end command-line pipeline on a miniature corpus."""

import argparse
import dataclasses
import json
import math
import shutil
import typing

import numpy as np
import pytest

from cel.cli import build_parser, main
from cel import cli, gradcheck, trainer
from cel.gradcheck import ALL_SCOPES
from cel.trainer import FINETUNE_OBJECTIVES, SIMILARITY_KINDS
from cel.config import RunConfig, load_config
from cel.corpus import CorpusConfig, build_manifest, load_manifest, save_manifest
from cel.encoder import Encoder, load_checkpoint, load_encoder, save_checkpoint
from cel.schema import check
from cel.evaluation import Trial, read_trial_list, write_trial_list

SMALL_DOC = {
    "corpus": {"n_speakers": 4, "utterances_per_speaker": 2, "seed": 9},
    "encoder": {"hidden_dims": [16], "embedding_dim": 8},
    "pretrain": {"k": 2, "epochs": 1, "frames": 60},
    "finetune": {
        "objective": "cosface",
        "speakers_per_batch": 2,
        "utterances_per_speaker": 1,
        "epochs": 1,
        "frames": 60,
    },
}

# The type of every config field, by section and name.
FIELD_HINTS = {
    f.name: typing.get_type_hints(type(getattr(RunConfig(), f.name)))
    for f in dataclasses.fields(RunConfig)
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "small.json"
    config_path.write_text(json.dumps(SMALL_DOC))
    corpus_dir = root / "corpus"
    rc = main(["gen-data", "--config", str(config_path), "--out", str(corpus_dir)])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def pretrained(workspace):
    out = workspace / "pretrain"
    rc = main(
        [
            "pretrain",
            "--config", str(workspace / "small.json"),
            "--corpus", str(workspace / "corpus"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out / "checkpoint.ckpt"


@pytest.fixture(scope="module")
def six_speaker_corpus(workspace):
    """A corpus like the workspace's, with 6 speakers rather than 4."""
    config = workspace / "six.json"
    config.write_text(json.dumps({**SMALL_DOC, "corpus": {**SMALL_DOC["corpus"], "n_speakers": 6}}))
    assert main(["gen-data", "--config", str(config), "--out", str(workspace / "six")]) == 0
    return workspace / "six"


def trial_file(workspace, path_name="trials.txt"):
    manifest = load_manifest(workspace / "corpus" / "manifest.tsv")
    paths = [e.relative_path for e in manifest.entries]
    trials = [
        Trial(paths[0], paths[1], True),       # spk000 vs spk000
        Trial(paths[0], paths[2], False),      # spk000 vs spk001
        Trial(paths[2], paths[3], True),
        Trial(paths[1], paths[4], False),
    ]
    path = workspace / path_name
    write_trial_list(path, trials)
    return path


class TestGenData:
    def test_artifacts_exist(self, workspace, capsys):
        assert (workspace / "corpus" / "manifest.tsv").is_file()
        assert (workspace / "corpus" / "config.json").is_file()
        assert (workspace / "corpus" / "spk000" / "utt000.wav").is_file()

    def test_config_echo_loads_back(self, workspace):
        run = load_config(workspace / "corpus" / "config.json")
        assert run.corpus.n_speakers == 4
        assert run.encoder.embedding_dim == 8

    def test_manifest_loads_back(self, workspace):
        run = load_config(workspace / "corpus" / "config.json")
        assert load_manifest(workspace / "corpus" / "manifest.tsv") == build_manifest(
            **dataclasses.asdict(run.corpus)
        )


class TestPretrain:
    def test_outputs(self, workspace, pretrained):
        out = pretrained.parent
        assert pretrained.is_file()
        assert (out / "metrics.tsv").is_file()
        lines = (out / "metrics.tsv").read_text().splitlines()
        assert lines[0].startswith("epoch\t")
        assert len(lines) == 2  # header + 1 epoch

    def test_flag_overrides_echoed(self, workspace, capsys):
        out = workspace / "pretrain-lam"
        rc = main(
            [
                "pretrain",
                "--config", str(workspace / "small.json"),
                "--corpus", str(workspace / "corpus"),
                "--out", str(out),
                "--lambda", "0.5",
                "--k", "3",
            ]
        )
        assert rc == 0
        run = load_config(out / "config.json")
        assert run.pretrain.uniformity_weight == 0.5
        assert run.pretrain.k == 3
        assert "pretrained 1 epochs" in capsys.readouterr().out

    def test_lambda_zero_trains_similarity_only(self, workspace, capsys):
        out = workspace / "pretrain-lam0"
        rc = main(
            [
                "pretrain",
                "--config", str(workspace / "small.json"),
                "--corpus", str(workspace / "corpus"),
                "--out", str(out),
                "--lambda", "0",
            ]
        )
        assert rc == 0
        row = (out / "metrics.tsv").read_text().splitlines()[1].split("\t")
        loss_total, loss_sim = float(row[2]), float(row[4])
        assert loss_total == pytest.approx(loss_sim)

    def test_mel_bands_with_an_empty_filter_fail_before_the_corpus_is_read(
        self, tmp_path, capsys
    ):
        config = tmp_path / "128-mels.json"
        config.write_text(json.dumps({"features": {"n_mels": 128}, "encoder": {"input_dim": 128}}))
        out = tmp_path / "out"
        rc = main(["pretrain", "--config", str(config), "--corpus", str(tmp_path / "no-corpus"),
                   "--out", str(out)])
        assert rc == 1
        # The corpus directory does not exist: reading it would fail with another message.
        assert capsys.readouterr().err.startswith(
            "error [pretrain]: features.n_mels (128): 1 filters have empty support"
        )
        assert not out.exists()

    def test_missing_corpus_fails_cleanly(self, workspace, capsys):
        rc = main(
            [
                "pretrain",
                "--corpus", str(workspace / "nope"),
                "--out", str(workspace / "unused"),
            ]
        )
        assert rc == 1
        assert "error [pretrain]:" in capsys.readouterr().err

    def test_manifest_shorter_than_its_header_fails_cleanly(self, workspace, tmp_path, capsys):
        manifest = load_manifest(workspace / "corpus" / "manifest.tsv")
        save_manifest(
            dataclasses.replace(manifest, entries=manifest.entries[:6]),
            tmp_path / "manifest.tsv",
        )
        rc = main(
            [
                "pretrain",
                "--config", str(workspace / "small.json"),
                "--corpus", str(tmp_path),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error [pretrain]: {tmp_path / 'manifest.tsv'}: header says 4 speakers x " \
            "2 utterances (8 entries), but the manifest lists 6" in err

    def test_manifest_with_lines_swapped_fails_cleanly(self, workspace, tmp_path, capsys):
        lines = (workspace / "corpus" / "manifest.tsv").read_text().splitlines()
        lines[2], lines[4] = lines[4], lines[2]
        (tmp_path / "manifest.tsv").write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "pretrain",
                "--config", str(workspace / "small.json"),
                "--corpus", str(tmp_path),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error [pretrain]: {tmp_path / 'manifest.tsv'}: line 3 lists spk001/utt001, "
            "but entry 1 must be spk000/utt001\n"
        )
        assert not (tmp_path / "out").exists()

    def test_out_that_is_a_file_fails_before_any_epoch(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "taken"
        out.write_text("")
        monkeypatch.setattr(Encoder, "forward", lambda *a, **k: pytest.fail("an epoch ran"))
        rc = main(
            [
                "pretrain",
                "--config", str(workspace / "small.json"),
                "--corpus", str(workspace / "corpus"),
                "--out", str(out),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error [pretrain]: ") and str(out) in err
        assert out.read_text() == ""


class TestFinetune:
    def test_one_speaker_corpus_fails_cleanly(self, workspace, tmp_path, capsys):
        # gen-data writes at least 2 speakers; keep only the first one's entries.
        # The manifest header is a CorpusConfig, so it is refused as it is read.
        lines = (workspace / "corpus" / "manifest.tsv").read_text().splitlines()
        header = {**json.loads(lines[0][2:]), "n_speakers": 1}
        kept = lines[1 : 1 + header["utterances_per_speaker"]]
        text = "\n".join([f"# {json.dumps(header)}", *kept]) + "\n"
        (tmp_path / "manifest.tsv").write_text(text)
        rc = main(
            [
                "finetune",
                "--config", str(workspace / "small.json"),
                "--corpus", str(tmp_path),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "malformed manifest: corpus: n_speakers must be at least 2, got 1" in err

    def test_negative_margin_fails_cleanly(self, workspace, tmp_path, capsys):
        rc = main(
            [
                "finetune",
                "--config", str(workspace / "small.json"),
                "--corpus", str(workspace / "corpus"),
                "--out", str(tmp_path / "out"),
                "--objective", "cosface",
                "--margin", "-0.1",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error [finetune]: finetune: margin must be >= 0, got -0.1" in err
        assert not (tmp_path / "out" / "config.json").exists()

    def test_bad_margin_in_config_fails_before_the_corpus_is_read(self, tmp_path, capsys):
        doc = {**SMALL_DOC, "finetune": {**SMALL_DOC["finetune"], "margin": -0.1}}
        config_path = tmp_path / "bad-margin.json"
        config_path.write_text(json.dumps(doc))
        rc = main(
            [
                "finetune",
                "--config", str(config_path),
                "--corpus", str(tmp_path / "no-corpus"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        # The corpus directory does not exist: reading it would fail with another message.
        err = capsys.readouterr().err
        assert "error [finetune]: finetune: margin must be >= 0, got -0.1" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_loss_fails_cleanly(self, workspace, tmp_path, monkeypatch, capsys):
        step = trainer._Margin.step

        def poisoned(self, params, views, labels):
            upstream, own, terms = step(self, params, views, labels)
            return upstream, own, (np.nan, *terms[1:])

        monkeypatch.setattr(trainer._Margin, "step", poisoned)
        out = tmp_path / "out"
        rc = main(
            [
                "finetune",
                "--config", str(workspace / "small.json"),
                "--corpus", str(workspace / "corpus"),
                "--out", str(out),
                "--init", "random",
            ]
        )
        assert rc == 1
        assert "error [finetune]: finetune (cosface): non-finite loss or gradient at " \
            "epoch 0, batch 0" in capsys.readouterr().err
        assert not (out / "checkpoint.ckpt").exists()

    def test_random_init(self, workspace, capsys):
        out = workspace / "ft-random"
        rc = main(
            [
                "finetune",
                "--config", str(workspace / "small.json"),
                "--corpus", str(workspace / "corpus"),
                "--out", str(out),
                "--init", "random",
            ]
        )
        assert rc == 0
        assert (out / "checkpoint.ckpt").is_file()
        assert "finetuned 1 epochs (cosface)" in capsys.readouterr().out

    def test_init_from_pretrained_checkpoint(self, workspace, pretrained, capsys):
        out = workspace / "ft-warm"
        rc = main(
            [
                "finetune",
                "--config", str(workspace / "small.json"),
                "--corpus", str(workspace / "corpus"),
                "--out", str(out),
                "--init", str(pretrained),
            ]
        )
        assert rc == 0
        run = load_config(out / "config.json")
        assert run.finetune.init_checkpoint == str(pretrained)


class TestResume:
    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_nothing_left_to_train_is_refused_and_writes_nothing(
        self, workspace, tmp_path, capsys, command
    ):
        out = tmp_path / "run"
        argv = [command, "--config", str(workspace / "small.json"),
                "--corpus", str(workspace / "corpus"), "--out", str(out)]
        assert main([*argv, "--epochs", "2"]) == 0
        ckpt = out / "checkpoint.ckpt"
        files = ("checkpoint.ckpt", "metrics.tsv", "config.json")
        before = {name: (out / name).read_bytes() for name in files}
        for epochs in (2, 1):
            capsys.readouterr()
            assert main([*argv, "--resume", str(ckpt), "--epochs", str(epochs)]) == 1
            assert (f"error [{command}]: {ckpt}: checkpoint has 2 epochs done; a run of "
                    f"{epochs} epochs has none left to train") in capsys.readouterr().err
            assert {name: (out / name).read_bytes() for name in files} == before

    @pytest.mark.parametrize("case, block", [
        ("cosface", "cls_w"), ("adacos", "cls_w"), ("mis-shaped", "w0"), ("missing", "opt_v.b0"),
    ])
    def test_checkpoint_blocks_that_do_not_fit_the_run_are_refused(
        self, workspace, pretrained, six_speaker_corpus, tmp_path, capsys, case, block
    ):
        out = tmp_path / "run"
        ckpt = out / "checkpoint.ckpt"
        config, corpus = str(workspace / "small.json"), str(workspace / "corpus")
        if block == "cls_w":
            # The classifier has a row per speaker of the corpus it was trained on.
            command = "finetune"
            assert main([command, "--config", config, "--corpus", str(six_speaker_corpus),
                         "--out", str(out), "--objective", case]) == 0
        else:
            command = "pretrain"
            shutil.copytree(pretrained.parent, out)
            header, blocks, meta = load_checkpoint(ckpt)
            if case == "missing":
                del blocks[block]
            else:
                blocks[block] = blocks[block][:, 1:]
            save_checkpoint(ckpt, header, blocks, meta)
        files = ("checkpoint.ckpt", "metrics.tsv", "config.json")
        before = {name: (out / name).read_bytes() for name in files}
        capsys.readouterr()
        argv = [command, "--config", config, "--corpus", corpus, "--out", str(out),
                "--resume", str(ckpt), "--epochs", "2"]
        if command == "finetune":
            argv += ["--objective", case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]: {ckpt}: checkpoint blocks do not fit: ")
        assert f"'{block}' is " in err and len(err.splitlines()) == 1
        assert {name: (out / name).read_bytes() for name in files} == before

    @pytest.mark.parametrize("key", ["epochs_done", "adam_step"])
    def test_negative_meta_count_is_refused(
        self, workspace, pretrained, tmp_path, capsys, recwarn, key
    ):
        out = tmp_path / "run"
        shutil.copytree(pretrained.parent, out)
        ckpt = out / "checkpoint.ckpt"
        header, blocks, meta = load_checkpoint(ckpt)
        save_checkpoint(ckpt, header, blocks, {**meta, key: -1})
        before = _files(tmp_path)
        argv = ["pretrain", "--config", str(workspace / "small.json"),
                "--corpus", str(workspace / "corpus"), "--out", str(out),
                "--resume", str(ckpt), "--epochs", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error [pretrain]: {ckpt}: checkpoint meta '{key}' is negative: -1\n"
        )
        assert not recwarn.list
        assert _files(tmp_path) == before


class TestOldCheckpoint:
    """Checkpoints written while `encoder.pooling` was a setting echo it; each
    command that reads one refuses it, naming the file."""

    @pytest.mark.parametrize("command", ["evaluate", "finetune", "pretrain"])
    def test_is_refused_naming_the_file(self, workspace, pretrained, tmp_path, capsys, command):
        old = tmp_path / "old.ckpt"
        header, blocks, meta = load_checkpoint(pretrained)
        header["encoder"]["pooling"] = "mean"
        save_checkpoint(old, header, blocks, meta)
        argv = [command, "--config", str(workspace / "small.json"),
                "--corpus", str(workspace / "corpus"), "--out", str(tmp_path / "out")]
        if command == "evaluate":
            argv += ["--checkpoint", str(old), "--trials", str(trial_file(workspace))]
        elif command == "finetune":
            argv += ["--init", str(old)]
        else:
            argv += ["--resume", str(old), "--epochs", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]: {old}: ") and len(err.splitlines()) == 1
        assert "pooling" in err
        assert not (tmp_path / "out").exists()


class TestTrainingSummary:
    @pytest.mark.parametrize("command, verb, objective", [
        ("pretrain", "pretrained", "aprot"),
        ("finetune", "finetuned", "cosface"),
    ])
    def test_one_summary_line(self, workspace, tmp_path, capsys, command, verb, objective):
        out = tmp_path / "out"
        assert main([command, "--config", str(workspace / "small.json"),
                     "--corpus", str(workspace / "corpus"), "--out", str(out)]) == 0
        row = (out / "metrics.tsv").read_text().splitlines()[-1].split("\t")
        total, unif, sim = map(float, row[2:5])
        assert capsys.readouterr().out == (
            f"{verb} 1 epochs ({objective}): loss {total:.4f} (unif {unif:.4f}, "
            f"sim {sim:.4f}); checkpoint {out / 'checkpoint.ckpt'}\n"
        )


class TestCorpusEcho:
    @pytest.mark.parametrize("command", ["pretrain", "finetune", "evaluate"])
    def test_config_echo_holds_the_corpus_that_was_read(
        self, workspace, pretrained, tmp_path, command
    ):
        # The config leaves the corpus section at its defaults (32 speakers,
        # seed 100); the corpus read has 4 speakers and seed 9.
        config = tmp_path / "no-corpus.json"
        config.write_text(json.dumps({k: v for k, v in SMALL_DOC.items() if k != "corpus"}))
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--corpus", str(workspace / "corpus"),
                "--out", str(out)]
        if command == "evaluate":
            argv += ["--checkpoint", str(pretrained), "--trials", str(trial_file(workspace))]
        assert main(argv) == 0
        read = CorpusConfig(**SMALL_DOC["corpus"])
        assert read != RunConfig().corpus
        assert load_config(out / "config.json").corpus == read


class TestEvaluate:
    def test_scores_and_reports(self, workspace, pretrained, capsys):
        trials = trial_file(workspace)
        out = workspace / "eval"
        rc = main(
            [
                "evaluate",
                "--config", str(workspace / "small.json"),
                "--checkpoint", str(pretrained),
                "--corpus", str(workspace / "corpus"),
                "--trials", str(trials),
                "--out", str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "EER:" in printed and "%" in printed
        assert "MinDCF(" in printed
        scored = read_trial_list(out / "trials_scored.txt")
        assert len(scored) == len(read_trial_list(trials))
        assert all(t.score is not None for t in scored)
        assert all(-1.0 - 1e-9 <= t.score <= 1.0 + 1e-9 for t in scored)
        det = (out / "det.csv").read_text().splitlines()
        assert det[0] == "p_fa,p_miss"
        assert len(det) >= 3

    def test_config_echo_holds_the_checkpoint_encoder(self, workspace, pretrained, tmp_path):
        # Without --config the defaults give a 64-64 encoder; the checkpoint's has one
        # hidden layer of 16.
        out = tmp_path / "out"
        assert main(["evaluate", "--checkpoint", str(pretrained),
                     "--corpus", str(workspace / "corpus"),
                     "--trials", str(trial_file(workspace)), "--out", str(out)]) == 0
        assert load_config(out / "config.json").encoder == load_encoder(pretrained)[0]

    def test_empty_trial_file_fails_cleanly(self, workspace, pretrained, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        rc = main(
            [
                "evaluate",
                "--checkpoint", str(pretrained),
                "--corpus", str(workspace / "corpus"),
                "--trials", str(empty),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        assert "error [evaluate]:" in capsys.readouterr().err

    def test_bad_config_value_fails_before_any_input_is_read(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"evaluation": {"p_target": 1.5}}))
        missing = str(tmp_path / "missing")
        rc = main(["evaluate", "--config", str(config), "--checkpoint", missing,
                   "--corpus", "/nonexistent", "--trials", missing, "--out", missing])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error [evaluate]:" in err and "p_target" in err and "nonexistent" not in err

    def test_checkpoint_that_does_not_fit_the_features_fails_before_any_audio(
        self, workspace, pretrained, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "embed_utterances", lambda *a, **k: pytest.fail("audio read"))
        config = tmp_path / "20-mels.json"
        config.write_text(json.dumps({"features": {"n_mels": 20}, "encoder": {"input_dim": 20}}))
        out = tmp_path / "out"
        rc = main(["evaluate", "--config", str(config), "--checkpoint", str(pretrained),
                   "--corpus", str(workspace / "corpus"),
                   "--trials", str(trial_file(workspace)), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error [evaluate]: {pretrained}: the encoder takes 40 input rows, "
            f"but features.n_mels is 20\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_corrupt_checkpoint_fails_cleanly(
        self, workspace, pretrained, tmp_path, capsys, damage
    ):
        blob = bytearray(pretrained.read_bytes())
        if damage == "truncate":
            blob = blob[:10]
        else:
            blob[12] ^= 0x80  # the header's first byte is no longer UTF-8
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(bytes(blob))
        rc = main(
            [
                "evaluate",
                "--checkpoint", str(corrupt),
                "--corpus", str(workspace / "corpus"),
                "--trials", str(trial_file(workspace)),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error [evaluate]:" in err and str(corrupt) in err


# One wrong value of each kind for an int field; MISSING removes the field.
MISSING = object()
WRONG_VALUES = {"float": 1.5, "string": "1", "bool": True, "infinity": math.inf,
                "missing": MISSING}


def _set(doc: dict, key: str, value) -> None:
    if value is MISSING:
        del doc[key]
    else:
        doc[key] = value


def _files(root) -> dict:
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestTypedRecords:
    """Checkpoints and manifests are read with the config schema: a wrong-typed
    or missing field stops the command, naming the file and the key."""

    @pytest.mark.parametrize("value", list(WRONG_VALUES.values()), ids=list(WRONG_VALUES))
    @pytest.mark.parametrize("record", ["encoder", "manifest", "meta"])
    def test_wrong_or_missing_field_fails_naming_the_file_and_the_key(
        self, workspace, pretrained, tmp_path, capsys, record, value
    ):
        config, corpus = str(workspace / "small.json"), workspace / "corpus"
        if record == "encoder":
            bad = tmp_path / "checkpoint.ckpt"
            header, blocks, meta = load_checkpoint(pretrained)
            _set(header["encoder"], "input_dim", value)
            save_checkpoint(bad, header, blocks, meta)
            argv = ["evaluate", "--checkpoint", str(bad), "--corpus", str(corpus),
                    "--trials", str(trial_file(workspace)), "--out", str(tmp_path / "out")]
            key = "encoder.input_dim"
        elif record == "manifest":
            corpus = tmp_path / "corpus"
            corpus.mkdir()
            bad = corpus / "manifest.tsv"
            first, *body = (workspace / "corpus" / "manifest.tsv").read_text().splitlines(True)
            header = json.loads(first[2:])
            _set(header, "n_speakers", value)
            bad.write_text(f"# {json.dumps(header)}\n" + "".join(body))
            argv = ["pretrain", "--config", config, "--corpus", str(corpus),
                    "--out", str(tmp_path / "out")]
            key = "corpus.n_speakers"
        else:
            out = tmp_path / "run"
            shutil.copytree(pretrained.parent, out)
            bad = out / "checkpoint.ckpt"
            header, blocks, meta = load_checkpoint(bad)
            _set(meta, "epochs_done", value)
            save_checkpoint(bad, header, blocks, meta)
            argv = ["pretrain", "--config", config, "--corpus", str(corpus), "--out", str(out),
                    "--resume", str(bad), "--epochs", "2"]
            key = "epochs_done"
        before = _files(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{argv[0]}]: {bad}: ") and f"'{key}'" in err
        assert len(err.splitlines()) == 1
        assert _files(tmp_path) == before


class TestCorruptFiles:
    """A damaged input file of each kind stops the command with one error line."""

    @staticmethod
    def _damaged_corpus(workspace, tmp_path, name: str, damage) -> tuple:
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        path = corpus / name
        path.write_bytes(damage(path.read_bytes()))
        return corpus, path

    @pytest.mark.parametrize("kind", ["config", "manifest", "trials", "wav"])
    def test_fails_with_an_error_naming_the_file(
        self, workspace, pretrained, tmp_path, capsys, kind
    ):
        config, corpus = workspace / "small.json", workspace / "corpus"
        trials = trial_file(workspace)
        if kind == "config":
            config = tmp_path / "bad.json"
            config.write_bytes(b'{"pretrain": {"k": 2}}\xff')
            bad = config
        elif kind == "manifest":
            # A byte that is not UTF-8 in the header line.
            corpus, bad = self._damaged_corpus(
                workspace, tmp_path, "manifest.tsv", lambda b: b[:3] + b"\xff" + b[4:]
            )
        elif kind == "trials":
            trials = tmp_path / "bad-trials.txt"
            trials.write_bytes(b"1 spk000/utt000.wav spk000/utt001.wav\n\xfe\n")
            bad = trials
        else:
            # One byte short: the data no longer holds whole 16-bit samples.
            corpus, bad = self._damaged_corpus(
                workspace, tmp_path, "spk000/utt000.wav", lambda b: b[:-1]
            )
        command = "evaluate" if kind == "trials" else "pretrain"
        argv = [command, "--config", str(config), "--corpus", str(corpus),
                "--out", str(tmp_path / "out")]
        if command == "evaluate":
            argv += ["--checkpoint", str(pretrained), "--trials", str(trials)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]: {bad}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestGradcheck:
    def test_unknown_scope_rejected_before_any_check(self, monkeypatch):
        monkeypatch.setattr(gradcheck, "_CHECKS", {
            **gradcheck._CHECKS, "unif": lambda seed: pytest.fail("a check ran")
        })
        with pytest.raises(ValueError, match="'bogus'"):
            gradcheck.run_suite(["unif", "bogus"])

    def test_single_scope_passes(self, capsys):
        rc = main(["gradcheck", "--scope", "unif"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "all gradient checks passed" in printed
        assert "unif" in printed


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, by name."""
    return next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


class TestHarness:
    def test_choices_come_from_the_registries(self):
        def choices(command, dest):
            actions = subcommands()[command]._actions
            return tuple(next(a for a in actions if a.dest == dest).choices)

        assert SIMILARITY_KINDS == ("aprot", "acont")
        assert FINETUNE_OBJECTIVES == ("aprot", "acont", "ge2e", "cosface", "arcface", "adacos")
        assert choices("pretrain", "pretrain.similarity_kind") == SIMILARITY_KINDS
        assert choices("finetune", "finetune.objective") == FINETUNE_OBJECTIVES
        assert choices("gradcheck", "scope") == tuple(ALL_SCOPES)

    def test_every_setting_flag_is_a_config_field_of_its_type(self):
        seen = []
        for command, parser in subcommands().items():
            for action in parser._actions:
                section, dot, name = action.dest.partition(".")
                if not dot:
                    continue
                seen.append((command, action.option_strings[0]))
                assert section in FIELD_HINTS and name in FIELD_HINTS[section], action.dest
                hint = FIELD_HINTS[section][name]
                assert action.default is argparse.SUPPRESS
                if action.choices is not None:
                    for choice in action.choices:
                        check(choice, hint, action.dest)
                elif isinstance(action.type, type):
                    assert action.type is hint, action.dest
                else:
                    assert typing.get_type_hints(action.type)["return"] == hint, action.dest
        assert sorted(seen) == [
            ("finetune", "--epochs"), ("finetune", "--init"), ("finetune", "--margin"),
            ("finetune", "--objective"), ("finetune", "--scale"),
            ("pretrain", "--epochs"), ("pretrain", "--k"), ("pretrain", "--lambda"),
            ("pretrain", "--similarity"),
        ]

    @pytest.mark.parametrize("command, flag, value, key", [
        ("finetune", "--scale", "nan", "finetune.margin_scale"),
        ("pretrain", "--lambda", "inf", "pretrain.uniformity_weight"),
    ])
    def test_flag_is_checked_like_the_same_value_in_a_file(
        self, workspace, tmp_path, capsys, command, flag, value, key
    ):
        out = tmp_path / "out"
        argv = [command, "--config", str(workspace / "small.json"),
                "--corpus", str(workspace / "corpus"), "--out", str(out), flag, value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error [{command}]: config key '{key}' must be a finite float, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "pretrain"])
    def test_wrong_typed_config_fails_cleanly(self, workspace, tmp_path, capsys, command):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"pretrain": {"k": "eight"}}))
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command == "pretrain":
            argv += ["--corpus", str(workspace / "corpus")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error [{command}]: config key 'pretrain.k' must be int, got 'eight'" in err

    @pytest.mark.parametrize("command, flags, message", [
        ("pretrain", ["--k", "5"], "batches need 5 speakers, corpus has 4"),
        ("finetune", [], "batches need 5 speakers, corpus has 4"),
    ])
    def test_refused_run_leaves_no_config_echo(
        self, workspace, tmp_path, capsys, command, flags, message
    ):
        config = tmp_path / "big-batches.json"
        doc = {**SMALL_DOC, "finetune": {**SMALL_DOC["finetune"], "speakers_per_batch": 5}}
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--corpus", str(workspace / "corpus"),
                "--out", str(out), *flags]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--seed", "5", "--out", "unused"],
        ["evaluate", "--seed", "5", "--checkpoint", "c", "--corpus", "c", "--trials", "t",
         "--out", "unused"],
        ["gradcheck", "--config", "unused.json"],
    ])
    def test_flags_that_nothing_reads_are_rejected(self, argv):
        # gen-data and evaluate draw no training randomness; gradcheck reads no config.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["mystery"])

    def test_bad_log_level_fails_cleanly(self, monkeypatch, capsys):
        monkeypatch.setenv("CEL_LOG", "verbose")
        rc = main(["gradcheck", "--scope", "unif"])
        assert rc == 1
        assert "CEL_LOG" in capsys.readouterr().err
