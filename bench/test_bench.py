"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import clock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def reports() -> dict[str, dict]:
    """One tiny traced run per workload, noting whether it restored every wrapped name."""
    out = {}
    for name in NAMES:
        before = spans.originals()
        out[name] = run.measure(name, 3, 0.01, True, shape=workloads.TINY[name])
        out[name]["restored"] = spans.originals() == before
    return out


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_every_metric_with_its_unit(reports, name):
    report = reports[name]
    assert report["correct"], report["problems"]
    assert report["attempted"] > 0 and report["failed"] == 0
    for trace, listed in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        line = run.result_line(report, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: m["unit"] for k, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed
        }
    for m in SPEC["end_to_end"]:
        assert report["metrics"][m["name"]] > 0
    assert "eer" in report["quality"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_gives_the_untraced_fingerprints_and_restores_every_name(reports, name):
    report = reports[name]
    assert report["fingerprints"]
    assert report["traced_fingerprints"] == report["fingerprints"]
    assert report["restored"]


@pytest.mark.parametrize("name", NAMES)
def test_top_level_spans_cover_the_traced_passes(reports, name):
    layers = reports[name]["layers"]
    busy = sum(v for k, v in layers.items() if k.endswith(("busy_s", "self_s")))
    traced = reports[name]["traced_pass_raw_seconds"]
    assert busy == pytest.approx(sum(traced) / len(traced), rel=1e-6)


def test_finetune_never_augments(reports):
    layers = reports["finetune-desk"]["layers"]
    assert layers["augment.reverb.calls"] == 0
    assert layers["augment.noise.busy_s"] == 0
    assert layers["finetune.calls"] > 0


def test_exact_counts_follow_the_shapes(reports):
    layers = reports["pretrain-desk"]["layers"]
    shape = workloads.TINY["pretrain-desk"]
    train_speakers = shape.n_speakers - shape.eval_speakers
    crops = 2 * train_speakers * shape.utterances_per_speaker * workloads.EPOCHS
    assert reports["pretrain-desk"]["crops_per_pass"] == crops
    assert layers["encoder.forward.calls"] == crops
    assert layers["features.logmel.calls"] == crops
    assert layers["features.logmel.frames"] == crops * 180
    forward, backward = spans.encoder_flops(workloads.desk_run(0, shape).encoder, 180)
    assert layers["encoder.forward.flops"] == crops * forward
    assert layers["encoder.backward.flops"] == crops * backward
    assert layers["corpus.cache_hit_ratio"] == 1.0
    shape = workloads.TINY["evaluate-desk"]
    n = shape.n_speakers * shape.utterances_per_speaker
    assert reports["evaluate-desk"]["layers"]["evaluation.score.trials"] == (
        workloads.CHECKPOINTS * n * (n - 1) // 2
    )


class _Op:
    label = "a"
    expected_steps = 0

    def check(self, raw):
        return workloads.Output(fingerprint=raw, values=np.zeros(1), steps=0)


def test_tally_fails_changed_fingerprints_and_raised_operations():
    tally = run.Tally()
    op = _Op()
    tally.record("p", op, "x", None)
    tally.record("p", op, "x", None)
    tally.record("p", op, "y", None)
    tally.record("p", op, None, RuntimeError("boom"))
    assert (tally.attempted, tally.failed) == (4, 2)


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_clock_scales_by_the_kernel_times_around_a_call(monkeypatch):
    kernel_times = iter([0.006, 0.003])
    monkeypatch.setattr(clock.Clock, "_kernel", lambda self: next(kernel_times))
    c = clock.Clock()
    _, raw, scaled = c.measure(lambda: None)
    assert scaled == pytest.approx(raw * clock.REFERENCE_S / 0.0045)
