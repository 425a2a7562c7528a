"""Pinned bytes: the sha256 of what fixed-seed runs write, against `golden.json`.

Each case is deterministic for its seed, so any change to the bytes a run
writes fails here, intended or not:

- `pretrain`: `metrics.tsv` plus checkpoint of a 2-epoch desk pretraining run
  on the desk split's training speakers;
- `finetune-<objective>`: the same for a 2-epoch desk fine-tuning run from
  that checkpoint, one per objective;
- `scores`: the float64 held-out scores of that checkpoint, the trials
  criterion 6 scores;
- `metrics`: `eer`, `min_dcf` (the desk `DcfParams`) and `det_points` of
  those scores, as float64;
- `gradcheck`: every relative-error array of every instance that `cel
  gradcheck` checks at its default seed, scope by scope, each instance's
  arrays in parameter name order, so an instance that is not a scope's
  worst moves the hash too;
- `corpus`: the float32 samples of a few desk utterances and of every noise
  of `synth_bank(0)`, babble included, so synthesis is pinned directly and
  not only through what training makes of it.

The file records the NumPy, SciPy and BLAS versions it was made with. Other
versions may round differently, so a mismatch fails naming both sets rather
than comparing hashes. A change that moves the bytes by design records the
file again, which prints each hash that moved as old -> new, and says which
hashes moved and why:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from cel.augment import synth_bank
from cel.config import load_config
from cel.corpus import build_manifest, utterance_waveform
from cel.encoder import load_encoder
from cel.evaluation import DcfParams, det_points, eer, min_dcf, score_trials
from cel.experiments import _split_sources
from cel.gradcheck import ALL_SCOPES, instance_errors
from cel.trainer import FINETUNE_OBJECTIVES, embed_utterances, finetune, pretrain

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
CASES = ("pretrain", *(f"finetune-{o}" for o in FINETUNE_OBJECTIVES), "scores", "metrics",
         "gradcheck", "corpus")
EPOCHS = 2
# The seed `cel gradcheck` checks at by default.
GRADCHECK_SEED = 7
# The (speaker, take) indices of the desk utterances the `corpus` case hashes.
CORPUS_UTTERANCES = ((0, 0), (1, 3), (31, 5))


def library_versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _run_digest(out_dir: Path) -> str:
    return _digest(*((out_dir / n).read_bytes() for n in ("metrics.tsv", "checkpoint.ckpt")))


def _desk():
    run = load_config(ROOT / "configs" / "desk.json")
    return (run, *_split_sources(run.corpus, run.evaluation))


def _pretrained(workdir: Path) -> Path:
    """The 2-epoch desk pretraining run's directory, trained on first use."""
    out = workdir / "pretrain"
    if not (out / "checkpoint.ckpt").is_file():
        run, train_src, *_ = _desk()
        pretrain(train_src, replace(run.pretrain, epochs=EPOCHS), run.encoder, run.features,
                 out_dir=out)
    return out


def case_digest(case: str, workdir: Path) -> str:
    """The sha256 of one case's bytes; runs write under `workdir`."""
    if case == "gradcheck":
        return _digest(*(
            f"{scope} {name} {errs[name].shape}".encode() + errs[name].tobytes()
            for scope in ALL_SCOPES
            for errs in instance_errors(scope, GRADCHECK_SEED)
            for name in sorted(errs)
        ))
    if case == "corpus":
        c = load_config(ROOT / "configs" / "desk.json").corpus
        manifest = build_manifest(c.n_speakers, c.utterances_per_speaker, c.duration_s, c.seed)
        waves = [utterance_waveform(manifest, i, j) for i, j in CORPUS_UTTERANCES]
        return _digest(*(w.samples.tobytes() for w in (*waves, *synth_bank(0).noises)))
    ckpt = _pretrained(workdir) / "checkpoint.ckpt"
    if case == "pretrain":
        return _run_digest(ckpt.parent)
    run, train_src, eval_src, trials, bank = _desk()
    if case in ("scores", "metrics"):
        encoder_cfg, params = load_encoder(ckpt)
        embeddings = embed_utterances(eval_src, params, encoder_cfg, run.features,
                                      bank=bank, aug_seed=run.corpus.seed)
        scored = score_trials(embeddings, trials)
        if case == "scores":
            return _digest(np.array([t.score for t in scored], dtype=np.float64).tobytes())
        e = run.evaluation
        dcf = DcfParams(c_miss=e.c_miss, c_fa=e.c_fa, p_target=e.p_target)
        summary = [*eer(scored), *min_dcf(scored, dcf), *np.ravel(det_points(scored))]
        return _digest(np.array(summary, dtype=np.float64).tobytes())
    objective = case.removeprefix("finetune-")
    cfg = replace(run.finetune, objective=objective, epochs=EPOCHS, init_checkpoint=str(ckpt))
    out = workdir / case
    finetune(train_src, cfg, run.encoder, run.features, out_dir=out)
    return _run_digest(out)


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _require_recorded_versions() -> None:
    recorded, here = _golden()["versions"], library_versions()
    if recorded != here:
        pytest.fail(
            f"{GOLDEN_PATH.name} was recorded under {recorded}, this run has {here}; "
            f"record it again under these versions (see the module docstring)"
        )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("golden")


def test_recorded_for_every_case():
    assert list(_golden()["sha256"]) == list(CASES)


@pytest.mark.parametrize("case", CASES)
def test_bytes_match_the_golden_file(case, workdir):
    _require_recorded_versions()
    assert case_digest(case, workdir) == _golden()["sha256"][case], case


# The cases run under 1 and 2 BLAS threads: float32 and float64 products
# take different BLAS kernels, and these cover both through pretraining,
# fine-tuning and embedding.
THREAD_CASES = ("pretrain", "finetune-cosface", "scores")


def test_bytes_do_not_depend_on_blas_threads():
    # Two processes, so each BLAS reads its thread count at load; the item
    # pool is sized from it as well (two item threads at 1, one at 2). Each
    # process runs every case on one pretraining run.
    _require_recorded_versions()
    procs = {}
    for n in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n}
        procs[n] = subprocess.Popen(
            [sys.executable, __file__, "--case", *THREAD_CASES],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    digests = {}
    for n, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        digests[n] = dict(zip(THREAD_CASES, out.split()))
    want = {case: _golden()["sha256"][case] for case in THREAD_CASES}
    assert digests["1"] == digests["2"] == want


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--record", action="store_true", help=f"rewrite {GOLDEN_PATH.name}")
    what.add_argument("--case", choices=CASES, nargs="+",
                      help="print these cases' sha256, one a line")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        if args.case:
            for case in args.case:
                print(case_digest(case, Path(tmp)))
        else:
            old = _golden()["sha256"] if GOLDEN_PATH.is_file() else {}
            golden = {"versions": library_versions(),
                      "sha256": {case: case_digest(case, Path(tmp)) for case in CASES}}
            GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
            print(json.dumps(golden, indent=2))
            for case, new in golden["sha256"].items():
                if old.get(case) != new:
                    print(f"moved {case}: {old.get(case)} -> {new}")
