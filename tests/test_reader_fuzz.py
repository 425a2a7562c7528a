"""Damaged input files: every reader either reads one or raises a CelError.

Each case starts from a valid file of one kind, then truncates it, flips
one byte or inserts a few bytes. No traceback other than a CelError may
escape, whatever the damage. Where the checkpoint or manifest reader
accepts a damaged file, what it returns is the record the file holds, with
no value coerced to another type. A training resume from a damaged
checkpoint either resumes or raises a CelError naming the file.
"""

import json
import re
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cel import trainer
from cel.augment import synth_bank
from cel.config import RunConfig, load_config, save_config
from cel.corpus import build_manifest, load_manifest, save_manifest
from cel.encoder import Encoder, EncoderConfig, load_checkpoint, load_encoder, save_checkpoint
from cel.errors import CelError
from cel.evaluation import Trial, read_trial_list, write_trial_list
from cel.features import Waveform, read_wav, write_wav
from cel.rng import derive_rng
from cel.schema import plain
from cel.trainer import CorpusSource, PretrainConfig, pretrain

READERS = {
    "config": load_config,
    "manifest": load_manifest,
    "trials": read_trial_list,
    "wav": read_wav,
    "checkpoint": load_encoder,
}


# What a reader returned as JSON data, and the JSON object it was read from.
RECORDS = {
    "manifest": lambda got, path: (
        {k: v for k, v in plain(got).items() if k != "entries"},
        json.loads(path.read_text().splitlines()[0][2:]),
    ),
    "checkpoint": lambda got, path: (plain(got[0]), load_checkpoint(path)[0]["encoder"]),
}


def same(read, written) -> bool:
    """`read` equals `written` and has its JSON types, except that an int may
    have been read as a float."""
    if isinstance(written, dict):
        return isinstance(read, dict) and read.keys() == written.keys() and all(
            same(read[k], written[k]) for k in written
        )
    if isinstance(written, list):
        return isinstance(read, list) and len(read) == len(written) and all(
            map(same, read, written)
        )
    kinds = (type(read), type(written))
    return read == written and (kinds[0] is kinds[1] or kinds == (float, int))


def read_or_refuse(kind: str, path) -> None:
    """Read `path`; a refusal must be a CelError, and a record read as is."""
    try:
        got = READERS[kind](path)
    except CelError:
        return
    if kind in RECORDS:
        read, written = RECORDS[kind](got, path)
        assert same(read, written), f"read {read!r} from {written!r}"


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict[str, bytes]:
    """The bytes of one small valid file of each kind."""
    root = tmp_path_factory.mktemp("valid")
    manifest = build_manifest(2, 2, 4.0, seed=5)
    keys = [e.relative_path for e in manifest.entries]
    enc = EncoderConfig(input_dim=4, hidden_dims=(3,), embedding_dim=2)
    writers = {
        "config": lambda p: save_config(RunConfig(), p),
        "manifest": lambda p: save_manifest(manifest, p),
        "trials": lambda p: write_trial_list(
            p, [Trial(keys[0], keys[1], True), Trial(keys[0], keys[2], False, 0.25)]
        ),
        "wav": lambda p: write_wav(p, Waveform(np.linspace(-0.5, 0.5, 64, dtype=np.float32))),
        "checkpoint": lambda p: save_checkpoint(
            p, {"kind": "pretrain", "encoder": enc.to_dict()},
            Encoder(enc).init_params(derive_rng(0, "init")), {"epochs_done": 1},
        ),
    }
    blobs = {}
    for kind, write in writers.items():
        path = root / kind
        write(path)
        READERS[kind](path)
        blobs[kind] = path.read_bytes()
    return blobs


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """`blob` truncated, with one byte flipped, or with 1-8 bytes inserted."""
    how = draw(st.sampled_from(["truncate", "flip", "insert"]))
    at = draw(st.integers(0, len(blob) - 1))
    if how == "truncate":
        return blob[:at]
    if how == "flip":
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]
    return blob[:at] + draw(st.binary(min_size=1, max_size=8)) + blob[at:]


@pytest.mark.parametrize("kind", list(READERS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_damaged_file_reads_or_raises_a_cel_error(valid, tmp_path_factory, kind, data):
    path = tmp_path_factory.getbasetemp() / f"damaged-{kind}"
    path.write_bytes(data.draw(damaged(valid[kind]), label="file"))
    read_or_refuse(kind, path)


def _deep_checkpoint(blob: bytes) -> bytes:
    head = b"[" * 100_000
    return blob[:8] + struct.pack("<I", len(head)) + head


@pytest.mark.parametrize("kind, damage", [
    # JSON reads 2e999 as inf, which int() cannot take.
    ("manifest", lambda b: b.replace(b'"n_speakers": 2', b'"n_speakers": 2e999')),
    ("manifest", lambda b: b"# " + b"[" * 100_000 + b"\n"),
    ("config", lambda b: b"[" * 100_000),
    ("checkpoint", _deep_checkpoint),
], ids=["manifest-overflow", "manifest-nesting", "config-nesting", "checkpoint-nesting"])
def test_damage_beyond_the_fuzz_is_a_cel_error(valid, tmp_path, kind, damage):
    path = tmp_path / kind
    path.write_bytes(damage(valid[kind]))
    with pytest.raises(CelError, match=re.escape(str(path))):
        READERS[kind](path)


def _checkpoint_header(old: bytes, new: bytes):
    """A damage that replaces `old` by `new` in a checkpoint's JSON header."""
    def edit(blob: bytes) -> bytes:
        (size,) = struct.unpack("<I", blob[8:12])
        head = blob[12 : 12 + size].replace(old, new)
        return blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + size :]
    return edit


@pytest.mark.parametrize("kind, damage", [
    ("manifest", lambda b: b.replace(b'"seed": 5', b'"seed": 5.0')),
    ("manifest", lambda b: b.replace(b'"seed": 5', b'"seed": true')),
    ("checkpoint", _checkpoint_header(b'"input_dim":4', b'"input_dim":4.0')),
    ("checkpoint", _checkpoint_header(b'"hidden_dims":[3]', b'"hidden_dims":["3"]')),
], ids=["manifest-float", "manifest-bool", "checkpoint-float", "checkpoint-string"])
def test_what_a_reader_accepts_it_does_not_coerce(valid, tmp_path, kind, damage):
    path = tmp_path / kind
    damaged_blob = damage(valid[kind])
    assert damaged_blob != valid[kind]
    path.write_bytes(damaged_blob)
    read_or_refuse(kind, path)


@pytest.fixture(scope="module")
def resumable(tmp_path_factory):
    """The bytes of a one-epoch pretraining checkpoint, and a function that
    resumes a two-epoch run from a checkpoint path."""
    source = CorpusSource(build_manifest(2, 1, 4.0, seed=5))
    bank = synth_bank(seed=6, n_each=1, noise_duration_s=4.5, rir_count=1)
    enc = EncoderConfig(hidden_dims=(3,), embedding_dim=2)
    cfg = PretrainConfig(k=2, epochs=1, frames=20, seed=7)
    out = tmp_path_factory.mktemp("resumable")
    blob = pretrain(source, cfg, enc, bank=bank, out_dir=out).checkpoint_path.read_bytes()

    def resume(path):
        # An epoch of no batches: what is under test is the reading and
        # checking of the checkpoint, not the training it resumes.
        with mock.patch.object(trainer, "_epoch_plan", lambda *args: []):
            return pretrain(source, replace(cfg, epochs=2), enc, bank=bank, resume_from=path)

    assert [r.epoch for r in resume(out / "checkpoint.ckpt").records] == [1]
    return blob, resume


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_resume_from_a_damaged_checkpoint_raises_a_cel_error_naming_it(
    resumable, tmp_path_factory, data
):
    blob, resume = resumable
    path = tmp_path_factory.getbasetemp() / "damaged-resume"
    path.write_bytes(data.draw(damaged(blob), label="file"))
    try:
        resume(path)
    except CelError as exc:
        assert str(path) in str(exc)
