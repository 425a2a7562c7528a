"""End-to-end command-line pipeline on a miniature corpus."""

import argparse
import dataclasses
import json
import shutil

import numpy as np
import pytest

from cel.cli import build_parser, main
from cel import gradcheck, trainer
from cel.gradcheck import ALL_SCOPES
from cel.trainer import FINETUNE_OBJECTIVES, SIMILARITY_KINDS
from cel.config import load_config
from cel.corpus import load_manifest, save_manifest, write_corpus
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


class TestFinetune:
    def test_one_speaker_corpus_fails_cleanly(self, workspace, tmp_path, capsys):
        # gen-data writes at least 2 speakers; keep only the first one's entries.
        manifest = load_manifest(workspace / "corpus" / "manifest.tsv")
        one = dataclasses.replace(
            manifest,
            n_speakers=1,
            entries=manifest.entries[: manifest.utterances_per_speaker],
        )
        write_corpus(one, tmp_path)
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
        assert "error [finetune]: batches need 2 speakers, corpus has 1" in err

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
        assert "error [finetune]: margin must be >= 0, got -0.1" in capsys.readouterr().err
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
        assert "error [finetune]: margin must be >= 0, got -0.1" in capsys.readouterr().err
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


class TestHarness:
    def test_choices_come_from_the_registries(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )

        def choices(command, dest):
            actions = sub.choices[command]._actions
            return tuple(next(a for a in actions if a.dest == dest).choices)

        assert SIMILARITY_KINDS == ("aprot", "acont")
        assert FINETUNE_OBJECTIVES == ("aprot", "acont", "ge2e", "cosface", "arcface", "adacos")
        assert choices("pretrain", "similarity") == SIMILARITY_KINDS
        assert choices("finetune", "objective") == FINETUNE_OBJECTIVES
        assert choices("gradcheck", "scope") == tuple(ALL_SCOPES)

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
        ("pretrain", ["--k", "5"], "k=5 needs that many speakers, corpus has 4"),
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
