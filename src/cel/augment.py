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

import numpy as np
from scipy import fft as sp_fft

from .corpus import gen_speaker, gen_utterance
from .errors import (
    EmptyImpulseError,
    InvalidParamError,
    TooShortError,
    UtteranceTooShortError,
)
from .features import SAMPLE_RATE, FeatureConfig, Waveform
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

# Speakers summed into one babble noise.
BABBLE_VOICES = 6
# Redraws of the second corruption before a pair is refused as undrawable.
PAIR_DRAW_TRIES = 1000


def crop_samples(frames: int, win_length: int = 400, hop_length: int = 160) -> int:
    """Samples consumed by exactly `frames` analysis frames."""
    if frames < 1:
        raise InvalidParamError(f"need at least one frame, got {frames}")
    return (frames - 1) * hop_length + win_length


def random_crop(u: Waveform, need: int, rng: np.random.Generator) -> Waveform:
    """`need` samples from one uniformly drawn offset; shorter input is refused."""
    x = u.samples
    if x.size < need:
        raise UtteranceTooShortError(f"utterance has {x.size} samples, crops need {need}")
    offset = int(rng.integers(0, x.size - need + 1))
    return Waveform(x[offset : offset + need].copy())


def crop_two(
    u: Waveform,
    frames: int,
    rng: np.random.Generator,
    feature_cfg: FeatureConfig = FeatureConfig(),
) -> tuple[Waveform, Waveform]:
    """Cut two independently positioned crops of `frames` analysis frames; they may overlap.

    An utterance shorter than one crop is refused.
    """
    need = crop_samples(frames, feature_cfg.win_length, feature_cfg.hop_length)
    return random_crop(u, need, rng), random_crop(u, need, rng)


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

    The response is cast to float32 and convolved in float32. If convolution
    raises the peak above the input's, the output is scaled back down to the
    input peak so the [-1, 1] range survives. Long responses are convolved by
    FFT, in the same steps and so to the same bits as
    `scipy.signal.fftconvolve` on float32 input; the complex64 spectrum of a
    read-only float32 response (every NoiseBank's) is cached per FFT length.
    """
    h = np.asarray(rir, dtype=np.float32)
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
) -> np.ndarray:
    """Exponentially decaying white-noise impulse response, first tap 1."""
    if rt60_ms <= 0:
        raise InvalidParamError(f"rt60 must be positive, got {rt60_ms}")
    if length_ms <= 0:
        raise InvalidParamError(f"length must be positive, got {length_ms}")
    n = int(round(length_ms / 1000.0 * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
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


def babble_noise(n: int, rng: np.random.Generator) -> Waveform:
    duration_s = n / SAMPLE_RATE
    mix = np.zeros(n)
    for _ in range(BABBLE_VOICES):
        profile = gen_speaker(rng)
        w = gen_utterance(profile, duration_s, rng, min_samples=1)
        mix += w.samples[:n]
    return Waveform(mix / np.max(np.abs(mix)) * 0.9)


@dataclass(frozen=True, eq=False)
class NoiseBank:
    """Noise waveforms and impulse responses, both in fixed order.

    The impulse responses are stored as read-only float32 copies, so
    `apply_rir` may cache their spectra. A bank hashes and compares by
    identity, so it can key the evaluation feature cache of `CorpusSource`.
    """

    noises: tuple[Waveform, ...]
    rirs: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.noises or not self.rirs:
            raise InvalidParamError(
                f"bank needs at least one noise and one impulse response, "
                f"got {len(self.noises)} and {len(self.rirs)}"
            )
        rirs = tuple(np.array(h, dtype=np.float32) for h in self.rirs)
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
    for kind, gen in (("white", white_noise), ("pink", pink_noise), ("babble", babble_noise)):
        for i in range(n_each):
            noises.append(gen(n, derive_rng(seed, "noise", kind, i)))
    rirs: list[np.ndarray] = []
    for i in range(rir_count):
        rng = derive_rng(seed, "rir", i)
        rt60 = float(rng.uniform(150.0, 500.0))
        rirs.append(synth_rir(rt60, rt60 * 1.5, rng))
    return NoiseBank(tuple(noises), tuple(rirs))


def sample_spec(
    rng: np.random.Generator,
    bank: NoiseBank,
    crop_len: int,
    snr_range: tuple[float, float] = (0.0, 15.0),
) -> AugmentSpec:
    """Draw one corruption uniformly over the training kinds; SNRs from (low, high) dB."""
    kind = TRAIN_KINDS[int(rng.integers(0, len(TRAIN_KINDS)))]
    snr_db = math.inf
    noise_index = noise_offset = rir_index = -1
    if kind in (AugmentKind.NOISE, AugmentKind.NOISE_REVERB):
        noise_index = int(rng.integers(0, len(bank.noises)))
        noise = bank.noises[noise_index]
        if len(noise) < crop_len:
            raise TooShortError(
                f"bank noise {noise_index} has {len(noise)} "
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
) -> tuple[AugmentSpec, AugmentSpec]:
    """Two corruption draws guaranteed to differ in kind, slice, or response."""
    first = sample_spec(rng, bank, crop_len, snr_range)
    for _ in range(PAIR_DRAW_TRIES):
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
