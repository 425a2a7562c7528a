"""Damaged input files: every reader either reads one or raises a CelError.

Each case starts from a valid file of one kind, then truncates it, flips
one byte or inserts a few bytes. No traceback other than a CelError may
escape, whatever the damage.
"""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cel.config import RunConfig, load_config, save_config
from cel.corpus import build_manifest, load_manifest, save_manifest
from cel.encoder import Encoder, EncoderConfig, load_encoder, save_checkpoint
from cel.errors import CelError
from cel.evaluation import Trial, read_trial_list, write_trial_list
from cel.features import Waveform, read_wav, write_wav
from cel.rng import derive_rng

READERS = {
    "config": load_config,
    "manifest": load_manifest,
    "trials": read_trial_list,
    "wav": read_wav,
    "checkpoint": load_encoder,
}


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
    try:
        READERS[kind](path)
    except CelError:
        pass


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
