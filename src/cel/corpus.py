"""Deterministic synthetic speech corpus for desk-scale experiments.

Each speaker is a source-filter caricature: a harmonic source at a
speaker-specific fundamental, shaped by two resonators standing in for
formants, with per-utterance pitch-contour jitter and a little aspiration
noise. The generator exists to exercise training dynamics with separable
classes, not to model speech.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from . import pool
from .errors import CorpusTooSmallError, SchemaError, TooShortError
from .features import SAMPLE_RATE, FeatureConfig, Waveform, logmel, read_wav, write_wav
from .rng import derive_rng

# Long enough that two default 180-frame crops fit without wrap padding.
MIN_UTTERANCE_SAMPLES = 2 * ((180 - 1) * 160 + 400)

N_HARMONICS = 16


@dataclass(frozen=True)
class SpeakerProfile:
    """Sampled per-speaker voice parameters."""

    f0_hz: float
    harmonic_amps: np.ndarray
    formant_hz: tuple[float, float]
    formant_bw_hz: tuple[float, float]
    jitter_depth: float
    jitter_rate_hz: float
    noise_level: float


def gen_speaker(rng: np.random.Generator) -> SpeakerProfile:
    """Sample a speaker within the documented parameter ranges."""
    f0 = float(rng.uniform(80.0, 300.0))
    slope = rng.uniform(0.25, 0.7)
    amps = np.exp(-slope * np.arange(N_HARMONICS)) * rng.uniform(0.4, 1.0, N_HARMONICS)
    f1 = float(rng.uniform(350.0, 1400.0))
    f2 = float(rng.uniform(max(f1 + 300.0, 1600.0), 3400.0))
    bw = (float(rng.uniform(60.0, 200.0)), float(rng.uniform(80.0, 260.0)))
    return SpeakerProfile(
        f0_hz=f0,
        harmonic_amps=amps,
        formant_hz=(f1, f2),
        formant_bw_hz=bw,
        jitter_depth=float(rng.uniform(0.01, 0.05)),
        jitter_rate_hz=float(rng.uniform(1.0, 5.0)),
        noise_level=float(rng.uniform(0.01, 0.03)),
    )


def _resonator_coeffs(freq_hz: float, bw_hz: float) -> tuple[np.ndarray, np.ndarray]:
    r = np.exp(-np.pi * bw_hz / SAMPLE_RATE)
    theta = 2.0 * np.pi * freq_hz / SAMPLE_RATE
    a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
    # Unit gain at the resonance peak keeps output scale tame before the
    # final peak normalization.
    b = np.array([1.0 - r])
    return b, a


def _harmonics(phase: np.ndarray, gains: list[float], lo: int, hi: int) -> np.ndarray:
    """The harmonic source over samples [lo, hi), summed in harmonic order.

    Each sample goes through the same float operations whatever the range,
    so ranges computed on separate threads concatenate to the serial sum.
    """
    p = phase[lo:hi]
    out = np.zeros(hi - lo)
    for k, g in enumerate(gains, start=1):
        out += g * np.sin(k * p)
    return out


def gen_utterance(
    profile: SpeakerProfile,
    duration_s: float,
    rng: np.random.Generator,
    min_samples: int = MIN_UTTERANCE_SAMPLES,
) -> Waveform:
    """Synthesize one utterance, peak-normalized to exactly 0.5."""
    n = int(round(duration_s * SAMPLE_RATE))
    if n < min_samples:
        raise TooShortError(
            f"utterance of {n} samples is shorter than the {min_samples}-sample "
            f"minimum (two analysis crops must fit)"
        )
    t = np.arange(n) / SAMPLE_RATE

    # Per-utterance delivery: pitch shift, formant wobble, spectral tilt and
    # breathiness all vary between takes so that single-take spectral
    # averages are not a trivial speaker fingerprint.
    shift = 1.0 + rng.uniform(-0.04, 0.04)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    formant_scale = rng.uniform(0.92, 1.08, size=len(profile.formant_hz))
    tilt = rng.uniform(-0.35, 0.35)
    noise_scale = rng.uniform(0.5, 2.0)

    contour = profile.f0_hz * shift * (
        1.0 + profile.jitter_depth * np.sin(2.0 * np.pi * profile.jitter_rate_hz * t + phase0)
    )
    # One serial prefix sum: a chunked one rounds differently.
    phase = 2.0 * np.pi * np.cumsum(contour) / SAMPLE_RATE

    max_f0 = float(contour.max())
    gains = []
    for k, amp in enumerate(profile.harmonic_amps, start=1):
        if k * max_f0 >= SAMPLE_RATE / 2:
            break
        gains.append(amp * float(k) ** tilt)
    workers = pool.item_pool().workers
    bounds = [n * i // workers for i in range(workers + 1)]
    source = np.concatenate(
        list(pool.map_items(partial(_harmonics, phase, gains), bounds[:-1], bounds[1:]))
    )
    source += profile.noise_level * noise_scale * rng.standard_normal(n)

    x = source
    for freq, bw, fs in zip(profile.formant_hz, profile.formant_bw_hz, formant_scale):
        b, a = _resonator_coeffs(freq * fs, bw)
        x = lfilter(b, a, x)

    x = x / np.max(np.abs(x)) * 0.5
    return Waveform(x)


@dataclass(frozen=True)
class ManifestEntry:
    speaker_id: str
    utterance_id: str
    relative_path: str


@dataclass(frozen=True)
class CorpusManifest:
    """Everything needed to reproduce the corpus bytes."""

    n_speakers: int
    utterances_per_speaker: int
    duration_s: float
    seed: int
    entries: tuple[ManifestEntry, ...]


def speaker_id(index: int) -> str:
    return f"spk{index:03d}"


def utterance_id(index: int) -> str:
    return f"utt{index:03d}"


def build_manifest(
    n_speakers: int, utterances_per_speaker: int, duration_s: float, seed: int
) -> CorpusManifest:
    if n_speakers < 2 or utterances_per_speaker < 1:
        raise CorpusTooSmallError(
            f"need >= 2 speakers and >= 1 utterance each, "
            f"got {n_speakers} x {utterances_per_speaker}"
        )
    entries = tuple(
        ManifestEntry(
            speaker_id(i),
            utterance_id(j),
            f"{speaker_id(i)}/{utterance_id(j)}.wav",
        )
        for i in range(n_speakers)
        for j in range(utterances_per_speaker)
    )
    return CorpusManifest(n_speakers, utterances_per_speaker, duration_s, seed, entries)


def speaker_profile(manifest: CorpusManifest, speaker_index: int) -> SpeakerProfile:
    return gen_speaker(derive_rng(manifest.seed, "speaker", speaker_index))


def utterance_waveform(
    manifest: CorpusManifest, speaker_index: int, utt_index: int
) -> Waveform:
    """Regenerate one utterance directly from the manifest parameters."""
    profile = speaker_profile(manifest, speaker_index)
    rng = derive_rng(manifest.seed, "utterance", speaker_index, utt_index)
    return gen_utterance(profile, manifest.duration_s, rng)


def write_corpus(manifest: CorpusManifest, root: str | Path) -> Path:
    """Write all WAVs plus the manifest file; returns the manifest path."""
    root = Path(root)
    for i in range(manifest.n_speakers):
        for j in range(manifest.utterances_per_speaker):
            path = root / speaker_id(i) / f"{utterance_id(j)}.wav"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_wav(path, utterance_waveform(manifest, i, j))
    manifest_path = root / "manifest.tsv"
    save_manifest(manifest, manifest_path)
    return manifest_path


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    header = {
        "n_speakers": manifest.n_speakers,
        "utterances_per_speaker": manifest.utterances_per_speaker,
        "duration_s": manifest.duration_s,
        "seed": manifest.seed,
    }
    lines = [f"# {json.dumps(header, sort_keys=True)}"]
    lines += [
        f"{e.speaker_id}\t{e.utterance_id}\t{e.relative_path}" for e in manifest.entries
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_manifest(path: str | Path) -> CorpusManifest:
    try:
        text = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: manifest is not UTF-8 text: {exc}") from exc
    if not text or not text[0].startswith("# "):
        raise SchemaError(f"{path}: missing manifest header line")
    try:
        header = json.loads(text[0][2:])
        entries = []
        for line in text[1:]:
            if not line.strip():
                continue
            sid, uid, rel = line.split("\t")
            entries.append(ManifestEntry(sid, uid, rel))
        manifest = CorpusManifest(
            n_speakers=int(header["n_speakers"]),
            utterances_per_speaker=int(header["utterances_per_speaker"]),
            duration_s=float(header["duration_s"]),
            seed=int(header["seed"]),
            entries=tuple(entries),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed manifest: {exc}") from exc
    want = manifest.n_speakers * manifest.utterances_per_speaker
    if len(entries) != want:
        raise SchemaError(
            f"{path}: header says {manifest.n_speakers} speakers x "
            f"{manifest.utterances_per_speaker} utterances ({want} entries), "
            f"but the manifest lists {len(entries)}"
        )
    return manifest


def load_utterance(root: str | Path, entry: ManifestEntry) -> Waveform:
    return read_wav(Path(root) / entry.relative_path)


def separability(
    manifest: CorpusManifest, cfg: FeatureConfig = FeatureConfig()
) -> tuple[float, float, float]:
    """Mean same-speaker and cross-speaker distance between utterance spectra.

    Each utterance is summarized by its time-averaged log-mel vector; returns
    (same_mean, cross_mean, relative_margin) where the margin is
    (cross - same) / cross. The corpus is considered informative when the
    margin is at least 0.10. Mean normalization is forced off here: it zeroes
    time-averaged features by construction.
    """
    cfg = cfg.without_normalization()
    vecs: list[np.ndarray] = []
    labels: list[int] = []
    for i in range(manifest.n_speakers):
        for j in range(manifest.utterances_per_speaker):
            w = utterance_waveform(manifest, i, j)
            vecs.append(logmel(w, cfg).values.mean(axis=1))
            labels.append(i)
    mat = np.stack(vecs)
    lab = np.asarray(labels)
    d = np.linalg.norm(mat[:, None, :] - mat[None, :, :], axis=2)
    same_mask = (lab[:, None] == lab[None, :]) & ~np.eye(lab.size, dtype=bool)
    cross_mask = lab[:, None] != lab[None, :]
    same = float(d[same_mask].mean())
    cross = float(d[cross_mask].mean())
    return same, cross, (cross - same) / cross
