"""Deterministic synthetic speech corpus for desk-scale experiments.

Each speaker is a source-filter caricature: a harmonic source at a
speaker-specific fundamental, shaped by two resonators standing in for
formants, with per-utterance pitch-contour jitter and a little aspiration
noise. The generator exists to exercise training dynamics with separable
classes, not to model speech.

The harmonic source is summed with Clenshaw's recurrence (C. W. Clenshaw,
"A note on the summation of Chebyshev series", MTAC 1955): one `sin` and one
`cos` per sample instead of one `sin` per harmonic. Against the direct sine
sum, the float32 samples of three desk corpora differed by at most 2**-25,
half a float32 ulp at the 0.5 peak. The recurrence runs in cache-sized
blocks, and the rest of an utterance is computed in place on two arrays of
its length, with both resonators in one `sosfilt` call; the bytes equal the
unblocked, one-array-per-step formulation's (see `gen_utterance`).
Synthesis runs on the calling thread; a cold corpus source still
synthesizes in parallel because its waveforms are made inside the item
pool's tasks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.signal import sosfilt

from .errors import CelError, CorpusTooSmallError, InvalidParamError, SchemaError, TooShortError
from .features import SAMPLE_RATE, Waveform, crop_samples, peak_normalized, read_wav, write_wav
from .rng import derive_rng
from .schema import at_least, plain, read_record

# Room for two non-overlapping default 180-frame crops (10 ms hop, 25 ms
# window); pretraining refuses an utterance shorter than one crop.
MIN_UTTERANCE_SAMPLES = 2 * crop_samples(180)

N_HARMONICS = 16

# Samples per block of Clenshaw's recurrence: its four float64 block buffers
# (256 KiB) stay in one core's L2 cache across the harmonics.
SYNTH_BLOCK = 8192


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


def _resonator_section(freq_hz: float, bw_hz: float) -> list[float]:
    """One two-pole resonator as a `sosfilt` section `[b0, b1, b2, 1, a1, a2]`."""
    r = np.exp(-np.pi * bw_hz / SAMPLE_RATE)
    theta = 2.0 * np.pi * freq_hz / SAMPLE_RATE
    # Unit gain at the resonance peak keeps output scale tame before the
    # final peak normalization.
    return [1.0 - r, 0.0, 0.0, 1.0, -2.0 * r * np.cos(theta), r * r]


def _harmonic_source(phase: np.ndarray, gains: list[float]) -> None:
    """Overwrite `phase` with the sum over k of gains[k-1] * sin(k * phase).

    Clenshaw's recurrence from the top harmonic down (see `gen_utterance`),
    one `SYNTH_BLOCK` of samples at a time.
    """
    alpha, b1, b2, bk = np.empty((4, min(phase.size, SYNTH_BLOCK)))
    for start in range(0, phase.size, SYNTH_BLOCK):
        block = phase[start : start + SYNTH_BLOCK]
        m = block.size
        a, c1, c2, ck = alpha[:m], b1[:m], b2[:m], bk[:m]
        np.cos(block, out=a)
        a *= 2.0
        c1.fill(0.0)
        c2.fill(0.0)
        for g in reversed(gains):
            np.multiply(a, c1, out=ck)
            ck -= c2
            ck += g
            c2, c1, ck = c1, ck, c2
        np.sin(block, out=block)
        block *= c1


def gen_utterance(
    profile: SpeakerProfile,
    duration_s: float,
    rng: np.random.Generator,
    min_samples: int = MIN_UTTERANCE_SAMPLES,
) -> Waveform:
    """Synthesize one utterance, peak-normalized to exactly 0.5.

    The harmonic source, the sum over k of g_k * sin(k * phase), is
    b_1 * sin(phase) by Clenshaw's recurrence: with alpha = 2 cos(phase) and
    b_{K+1} = b_{K+2} = 0, b_k = g_k + alpha * b_{k+1} - b_{k+2} from the top
    harmonic down. Each step runs the fixed order `alpha * b1`, then `- b2`,
    then `+ g`, so the bytes depend on nothing but the inputs. Its samples
    lie within 2**-25 of the direct sine sum's after normalization (three
    desk corpora, 36,864,000 samples).

    The recurrence runs in blocks of `SYNTH_BLOCK` samples, whose four
    buffers (alpha, b_k, b_{k+1}, b_{k+2}) stay in cache across the
    harmonics. The time axis, pitch contour, phase and source are computed in
    place on one float64 array, and the aspiration noise on a second. Both
    resonators run in one `sosfilt` call, which copies its input once. The
    bytes equal those of the unblocked formulas with a fresh array per step:
    every sample goes through the same elementwise operations in the same
    order. Each resonator's numerator has a single tap, so the zero terms
    `sosfilt` adds to each state update leave it equal to `lfilter`'s.
    """
    n = int(round(duration_s * SAMPLE_RATE))
    if n < min_samples:
        raise TooShortError(
            f"utterance of {n} samples is shorter than the {min_samples}-sample "
            f"minimum (two analysis crops must fit)"
        )

    # Per-utterance delivery: pitch shift, formant wobble, spectral tilt and
    # breathiness all vary between takes so that single-take spectral
    # averages are not a trivial speaker fingerprint.
    shift = 1.0 + rng.uniform(-0.04, 0.04)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    formant_scale = rng.uniform(0.92, 1.08, size=len(profile.formant_hz))
    tilt = rng.uniform(-0.35, 0.35)
    noise_scale = rng.uniform(0.5, 2.0)

    # x holds, in turn, the time axis, the pitch contour, the phase and the
    # harmonic source.
    x = np.arange(n, dtype=np.float64)
    x /= SAMPLE_RATE
    x *= 2.0 * np.pi * profile.jitter_rate_hz
    x += phase0
    np.sin(x, out=x)
    x *= profile.jitter_depth
    x += 1.0
    x *= profile.f0_hz * shift
    # The harmonics below Nyquist at the contour's peak: a prefix of the speaker's.
    below = np.arange(1, len(profile.harmonic_amps) + 1) * x.max() < SAMPLE_RATE / 2
    gains = [amp * float(k) ** tilt for k, amp in enumerate(profile.harmonic_amps[below], 1)]
    # One serial prefix sum: a chunked one rounds differently.
    np.cumsum(x, out=x)
    x *= 2.0 * np.pi
    x /= SAMPLE_RATE

    _harmonic_source(x, gains)

    noise = rng.standard_normal(out=np.empty(n))
    noise *= profile.noise_level * noise_scale
    x += noise
    del noise

    sos = [
        _resonator_section(freq * fs, bw)
        for freq, bw, fs in zip(profile.formant_hz, profile.formant_bw_hz, formant_scale)
    ]
    x = sosfilt(sos, x)  # rebinding frees the filter's input before normalizing
    return peak_normalized(x, 0.5)


@dataclass(frozen=True)
class CorpusConfig:
    """The corpus a run generates, and the header of its manifest."""

    n_speakers: int = 32
    utterances_per_speaker: int = 6
    duration_s: float = 4.0
    seed: int = 100

    def __post_init__(self) -> None:
        at_least(self, 2, "n_speakers")
        at_least(self, 1, "utterances_per_speaker")
        if round(self.duration_s * SAMPLE_RATE) < MIN_UTTERANCE_SAMPLES:
            raise InvalidParamError(
                f"duration_s must be at least {MIN_UTTERANCE_SAMPLES / SAMPLE_RATE} s, "
                f"got {self.duration_s}"
            )


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

    @property
    def config(self) -> CorpusConfig:
        """The corpus settings the manifest header records."""
        return CorpusConfig(**{f.name: getattr(self, f.name) for f in fields(CorpusConfig)})


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
    for k, entry in enumerate(manifest.entries):
        path = root / entry.relative_path
        path.parent.mkdir(parents=True, exist_ok=True)
        i, j = divmod(k, manifest.utterances_per_speaker)
        write_wav(path, utterance_waveform(manifest, i, j))
    manifest_path = root / "manifest.tsv"
    save_manifest(manifest, manifest_path)
    return manifest_path


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    lines = [f"# {json.dumps(plain(manifest.config), sort_keys=True)}"]
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
        header = read_record(json.loads(text[0][2:]), CorpusConfig, "corpus")
        entries, line_numbers = [], []
        for number, line in enumerate(text[1:], start=2):
            if not line.strip():
                continue
            sid, uid, rel = line.split("\t")
            entries.append(ManifestEntry(sid, uid, rel))
            line_numbers.append(number)
        manifest = CorpusManifest(**plain(header), entries=tuple(entries))
    except (CelError, ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: malformed manifest: {exc}") from exc
    per = manifest.utterances_per_speaker
    want = manifest.n_speakers * per
    if len(entries) != want:
        raise SchemaError(
            f"{path}: header says {manifest.n_speakers} speakers x "
            f"{per} utterances ({want} entries), "
            f"but the manifest lists {len(entries)}"
        )
    # Entry k is labelled speaker k // per, so each must sit in that order.
    for k, (entry, number) in enumerate(zip(entries, line_numbers)):
        i, j = divmod(k, per)
        if (entry.speaker_id, entry.utterance_id) != (speaker_id(i), utterance_id(j)):
            raise SchemaError(
                f"{path}: line {number} lists {entry.speaker_id}/{entry.utterance_id}, "
                f"but entry {k} must be {speaker_id(i)}/{utterance_id(j)}"
            )
    return manifest


def load_utterance(root: str | Path, entry: ManifestEntry) -> Waveform:
    return read_wav(Path(root) / entry.relative_path)
