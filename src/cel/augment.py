"""Dual-crop construction and waveform augmentation.

Training pairs are two random crops of one utterance, each independently
corrupted: additive noise at a target SNR drawn from a bank of synthetic
noises (white, pink, babble), synthetic-room reverberation, or both. The
sampler guarantees the two crops never receive the identical corruption.
"""

from __future__ import annotations

import enum
import math
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import fft as sp_fft

from .corpus import gen_speaker, gen_utterance
from .errors import (
    EmptyImpulseError,
    InvalidParamError,
    TooShortError,
    UtteranceTooShortError,
)
from .features import SAMPLE_RATE, Waveform, read_wav, write_wav
from .rng import derive_rng

# 60 dB of decay at t = rt60 means an amplitude factor of exactly 1e-3.
DECAY_RATE = 3.0 * math.log(10.0)

# Below this tap count direct convolution is both fast and exact for the
# identity/delay cases; longer impulse responses go through the FFT.
_DIRECT_CONV_MAX = 64

# FFT spectra of read-only impulse responses (a NoiseBank's), per FFT length,
# keyed by array identity. A read-only array cannot change under its cached
# spectra, and its entry is dropped when the array is freed.
_rir_spectra: dict[int, dict[int, np.ndarray]] = {}
_rir_spectra_lock = threading.Lock()
# Crops share one length, but utterances of varying length each need their
# own FFT length; the oldest spectra go first beyond this many per response.
_RIR_SPECTRA_PER_RESPONSE = 8


def crop_samples(frames: int, win_length: int = 400, hop_length: int = 160) -> int:
    """Samples consumed by exactly `frames` analysis frames."""
    if frames < 1:
        raise InvalidParamError(f"need at least one frame, got {frames}")
    return (frames - 1) * hop_length + win_length


@dataclass(frozen=True)
class CropPair:
    """Two equal-length crops taken from one source utterance."""

    crop1: Waveform
    crop2: Waveform
    source_id: str

    def __post_init__(self) -> None:
        if len(self.crop1) != len(self.crop2):
            raise InvalidParamError(
                f"crops must have equal length, got {len(self.crop1)} and {len(self.crop2)}"
            )


def crop_two(
    u: Waveform,
    frames: int,
    rng: np.random.Generator,
    pad_wrap: bool = False,
    source_id: str = "",
) -> CropPair:
    """Cut two independently positioned crops; they may overlap."""
    need = crop_samples(frames)
    x = u.samples
    if x.size < need:
        if not pad_wrap:
            raise UtteranceTooShortError(
                f"utterance has {x.size} samples, crops need {need} "
                f"(enable wrap padding to allow short utterances)"
            )
        x = np.resize(x, need)
    hi = x.size - need + 1
    o1 = int(rng.integers(0, hi))
    o2 = int(rng.integers(0, hi))
    return CropPair(
        crop1=Waveform(x[o1 : o1 + need].copy()),
        crop2=Waveform(x[o2 : o2 + need].copy()),
        source_id=source_id,
    )


class AugmentKind(enum.Enum):
    NONE = "none"
    NOISE = "noise"
    REVERB = "reverb"
    NOISE_REVERB = "noise+reverb"


TRAIN_KINDS = (AugmentKind.NOISE, AugmentKind.REVERB, AugmentKind.NOISE_REVERB)


@dataclass(frozen=True)
class AugmentSpec:
    """Fully realized corruption choice for one crop.

    Noise and impulse-response identities are bank indices plus, for noise,
    the aligned slice offset, so a spec replays bit-identically.
    """

    kind: AugmentKind
    snr_db: float = math.inf
    noise_index: int = -1
    noise_offset: int = -1
    rir_index: int = -1

    def identity(self) -> tuple:
        return (self.kind, self.noise_index, self.noise_offset, self.rir_index)


@dataclass(frozen=True)
class NoiseResult:
    """Mixture output with clipping and degenerate-input diagnostics."""

    waveform: Waveform
    clip_fraction: float = 0.0
    silent_signal: bool = False
    silent_noise: bool = False


def _mix_at_snr(signal: np.ndarray, noise_slice: np.ndarray, snr_db: float) -> NoiseResult:
    p_signal = float(np.mean(signal**2))
    if p_signal == 0.0:
        return NoiseResult(Waveform(signal.copy()), silent_signal=True)
    p_noise = float(np.mean(noise_slice**2))
    if p_noise == 0.0:
        return NoiseResult(Waveform(signal.copy()), silent_noise=True)
    scale = math.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    mixed = signal + scale * noise_slice
    clipped = np.clip(mixed, -1.0, 1.0)
    clip_fraction = float(np.mean(np.abs(mixed) > 1.0))
    return NoiseResult(Waveform(clipped), clip_fraction=clip_fraction)


def add_noise(
    s: Waveform, noise: Waveform, snr_db: float, rng: np.random.Generator
) -> NoiseResult:
    """Mix a random aligned noise slice into the signal at the target SNR."""
    if math.isinf(snr_db) and snr_db > 0:
        return NoiseResult(Waveform(s.samples.copy()))
    if len(noise) < len(s):
        raise TooShortError(
            f"noise has {len(noise)} samples, signal needs {len(s)}"
        )
    offset = int(rng.integers(0, len(noise) - len(s) + 1))
    return _mix_at_snr(s.samples, noise.samples[offset : offset + len(s)], snr_db)


def _rir_spectrum(h: np.ndarray, n: int) -> np.ndarray:
    """rfft(h, n), computed once per read-only array and length."""
    if h.flags.writeable:
        return sp_fft.rfft(h, n)
    with _rir_spectra_lock:
        per_length = _rir_spectra.get(id(h))
        if per_length is None:
            per_length = _rir_spectra[id(h)] = {}
            weakref.finalize(h, _rir_spectra.pop, id(h), None)
        if n not in per_length:
            if len(per_length) >= _RIR_SPECTRA_PER_RESPONSE:
                del per_length[next(iter(per_length))]
            per_length[n] = sp_fft.rfft(h, n)
            per_length[n].setflags(write=False)
        return per_length[n]


def apply_rir(s: Waveform, rir: np.ndarray) -> Waveform:
    """Convolve with an impulse response, truncated to the input length.

    If convolution raises the peak above the input's, the output is scaled
    back down to the input peak so the [-1, 1] range survives. Long responses
    are convolved by FFT, in the same steps and so to the same bits as
    `scipy.signal.fftconvolve`; the spectrum of a read-only response (every
    NoiseBank's) is cached per FFT length.
    """
    h = np.asarray(rir, dtype=np.float64)
    if h.size == 0:
        raise EmptyImpulseError("impulse response must be nonempty")
    if not np.isfinite(h).all():
        raise InvalidParamError("impulse response must be finite")
    x = s.samples
    if h.size <= _DIRECT_CONV_MAX:
        out = np.convolve(x, h)[: x.size]
    else:
        n = sp_fft.next_fast_len(x.size + h.size - 1, True)
        out = sp_fft.irfft(sp_fft.rfft(x, n) * _rir_spectrum(h, n), n)[: x.size]
    peak_in = float(np.max(np.abs(x)))
    peak_out = float(np.max(np.abs(out)))
    if peak_out > peak_in > 0.0:
        out *= peak_in / peak_out
    return Waveform(out)


def decay_envelope(t_s: np.ndarray | float, rt60_s: float) -> np.ndarray | float:
    return np.exp(-DECAY_RATE * np.asarray(t_s, dtype=np.float64) / rt60_s)


def synth_rir(
    rt60_ms: float,
    length_ms: float,
    rng: np.random.Generator,
    sample_rate: int = SAMPLE_RATE,
) -> np.ndarray:
    """Exponentially decaying white-noise impulse response, first tap 1."""
    if rt60_ms <= 0:
        raise InvalidParamError(f"rt60 must be positive, got {rt60_ms}")
    if length_ms <= 0:
        raise InvalidParamError(f"length must be positive, got {length_ms}")
    n = int(round(length_ms / 1000.0 * sample_rate))
    t = np.arange(n) / sample_rate
    h = rng.standard_normal(n) * decay_envelope(t, rt60_ms / 1000.0)
    h[0] = 1.0
    return h


def white_noise(n: int, rng: np.random.Generator) -> Waveform:
    x = rng.standard_normal(n)
    return Waveform(x / np.max(np.abs(x)) * 0.9)


def pink_noise(n: int, rng: np.random.Generator) -> Waveform:
    spectrum = np.fft.rfft(rng.standard_normal(n))
    f = np.arange(spectrum.size, dtype=np.float64)
    f[0] = 1.0
    x = np.fft.irfft(spectrum / np.sqrt(f), n=n)
    return Waveform(x / np.max(np.abs(x)) * 0.9)


def babble_noise(n: int, rng: np.random.Generator, n_voices: int = 6) -> Waveform:
    duration_s = n / SAMPLE_RATE
    mix = np.zeros(n)
    for _ in range(n_voices):
        profile = gen_speaker(rng)
        w = gen_utterance(profile, duration_s, rng, min_samples=1)
        mix += w.samples[:n]
    return Waveform(mix / np.max(np.abs(mix)) * 0.9)


@dataclass(frozen=True)
class NoiseBank:
    """Noise waveforms and impulse responses, both in fixed order.

    The impulse responses are stored as read-only float64 copies, so
    `apply_rir` may cache their spectra.
    """

    noises: tuple[Waveform, ...]
    noise_names: tuple[str, ...]
    rirs: tuple[np.ndarray, ...]
    rir_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.noises or not self.rirs:
            raise InvalidParamError(
                f"bank needs at least one noise and one impulse response, "
                f"got {len(self.noises)} and {len(self.rirs)}"
            )
        rirs = tuple(np.array(h, dtype=np.float64) for h in self.rirs)
        for h in rirs:
            h.setflags(write=False)
        object.__setattr__(self, "rirs", rirs)


def synth_bank(
    seed: int,
    n_each: int = 2,
    noise_duration_s: float = 5.0,
    rir_count: int = 4,
) -> NoiseBank:
    """Build an in-memory bank of white/pink/babble noises and room responses."""
    n = int(round(noise_duration_s * SAMPLE_RATE))
    noises: list[Waveform] = []
    names: list[str] = []
    for kind, gen in (("white", white_noise), ("pink", pink_noise), ("babble", babble_noise)):
        for i in range(n_each):
            noises.append(gen(n, derive_rng(seed, "noise", kind, i)))
            names.append(f"{kind}{i:02d}.wav")
    rirs: list[np.ndarray] = []
    rir_names: list[str] = []
    for i in range(rir_count):
        rng = derive_rng(seed, "rir", i)
        rt60 = float(rng.uniform(150.0, 500.0))
        rirs.append(synth_rir(rt60, rt60 * 1.5, rng))
        rir_names.append(f"room{i:02d}.wav")
    return NoiseBank(tuple(noises), tuple(names), tuple(rirs), tuple(rir_names))


def write_bank(bank: NoiseBank, root: str | Path) -> None:
    """Write the bank as WAV files under noise/ and rir/ subdirectories."""
    root = Path(root)
    (root / "noise").mkdir(parents=True, exist_ok=True)
    (root / "rir").mkdir(parents=True, exist_ok=True)
    for w, name in zip(bank.noises, bank.noise_names):
        write_wav(root / "noise" / name, w)
    for h, name in zip(bank.rirs, bank.rir_names):
        peak = float(np.max(np.abs(h)))
        write_wav(root / "rir" / name, Waveform(h / peak))


def load_bank(root: str | Path) -> NoiseBank:
    """Load a bank directory; files enumerate in lexicographic name order.

    Impulse responses are renormalized to peak 1 so the 16-bit quantization
    scale does not leak into the convolution gain.
    """
    root = Path(root)
    noise_paths = sorted((root / "noise").glob("*.wav"), key=lambda p: p.name)
    rir_paths = sorted((root / "rir").glob("*.wav"), key=lambda p: p.name)
    noises = tuple(read_wav(p) for p in noise_paths)
    rirs = []
    for p in rir_paths:
        h = read_wav(p).samples
        rirs.append(h / np.max(np.abs(h)))
    return NoiseBank(
        noises,
        tuple(p.name for p in noise_paths),
        tuple(rirs),
        tuple(p.name for p in rir_paths),
    )


def sample_spec(
    rng: np.random.Generator,
    bank: NoiseBank,
    crop_len: int,
    snr_range: tuple[float, float] = (0.0, 15.0),
) -> AugmentSpec:
    """Draw one corruption uniformly over the training kinds."""
    if snr_range[0] > snr_range[1]:
        raise InvalidParamError(f"empty SNR range {snr_range}")
    kind = TRAIN_KINDS[int(rng.integers(0, len(TRAIN_KINDS)))]
    snr_db = math.inf
    noise_index = noise_offset = rir_index = -1
    if kind in (AugmentKind.NOISE, AugmentKind.NOISE_REVERB):
        noise_index = int(rng.integers(0, len(bank.noises)))
        noise = bank.noises[noise_index]
        if len(noise) < crop_len:
            raise TooShortError(
                f"bank noise {bank.noise_names[noise_index]} has {len(noise)} "
                f"samples, crops need {crop_len}"
            )
        noise_offset = int(rng.integers(0, len(noise) - crop_len + 1))
        snr_db = float(rng.uniform(*snr_range))
    if kind in (AugmentKind.REVERB, AugmentKind.NOISE_REVERB):
        rir_index = int(rng.integers(0, len(bank.rirs)))
    return AugmentSpec(kind, snr_db, noise_index, noise_offset, rir_index)


def sample_pair_specs(
    rng: np.random.Generator,
    bank: NoiseBank,
    crop_len: int,
    snr_range: tuple[float, float] = (0.0, 15.0),
    max_tries: int = 1000,
) -> tuple[AugmentSpec, AugmentSpec]:
    """Two corruption draws guaranteed to differ in kind, slice, or response."""
    first = sample_spec(rng, bank, crop_len, snr_range)
    for _ in range(max_tries):
        second = sample_spec(rng, bank, crop_len, snr_range)
        if second.identity() != first.identity():
            return first, second
    raise InvalidParamError(
        "could not draw two distinct corruptions; the bank is too small"
    )


def apply_spec(crop: Waveform, spec: AugmentSpec, bank: NoiseBank) -> Waveform:
    """Replay a corruption: reverberation first, then additive noise."""
    out = crop
    if spec.kind in (AugmentKind.REVERB, AugmentKind.NOISE_REVERB):
        out = apply_rir(out, bank.rirs[spec.rir_index])
    if spec.kind in (AugmentKind.NOISE, AugmentKind.NOISE_REVERB):
        noise = bank.noises[spec.noise_index]
        slice_ = noise.samples[spec.noise_offset : spec.noise_offset + len(out)]
        out = _mix_at_snr(out.samples, slice_, spec.snr_db).waveform
    return out
