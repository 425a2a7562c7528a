"""Waveform containers, log-mel feature extraction, and PCM WAV file I/O.

The feature recipe: 25 ms Hamming-windowed frames with a 10 ms hop, 512-point
real FFT power spectrum, 40 triangular mel filters on the HTK scale between
20 Hz and 7600 Hz, natural log with an additive floor, and optional
per-utterance mean normalization. Output orientation is bands x frames.

Samples and features are float32 from the WAV reader to the log-mel output:
16-bit PCM carries no information that float32 loses.
"""

from __future__ import annotations

import functools
import math
import wave
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import fft as sp_fft

from .errors import InvalidParamError, TooShortError, UnsupportedWavError
from .schema import at_least

SAMPLE_RATE = 16000

# int16 <-> float conventions: divide by 32768 on read (range [-1, 1)),
# scale by 32767 on write so +1.0 cannot overflow. The write scale is applied
# in float64: in float32, x * 32767 rounds to another int16 for some samples.
_READ_SCALE = 1.0 / 32768.0
_WRITE_SCALE = 32767.0


@dataclass(frozen=True)
class Waveform:
    """Mono audio at 16 kHz with float32 samples in [-1, 1].

    Construction checks the samples in one `max(|x|)` pass, which is NaN or
    inf exactly when some sample is, and keeps the result: `peak` is
    `max(|samples|)` of the stored float32 samples, so they are not written
    in place afterwards. Input of another dtype is checked in float64,
    because the float32 cast turns values beyond its range into inf;
    rounding to float32 is monotone, so the float32 peak is the cast of the
    float64 one.
    """

    samples: np.ndarray
    peak: float = field(init=False)

    def __post_init__(self) -> None:
        x = np.asarray(self.samples)
        if x.dtype != np.float32:
            x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size == 0:
            raise InvalidParamError(f"samples must be a nonempty 1-d array, got shape {x.shape}")
        peak = float(np.max(np.abs(x)))
        if not math.isfinite(peak):
            raise InvalidParamError("samples must be finite")
        if peak > 1.0 + 1e-9:
            raise InvalidParamError(f"samples must lie in [-1, 1], peak is {peak:.6g}")
        object.__setattr__(self, "samples", x.astype(np.float32, copy=False))
        object.__setattr__(self, "peak", float(np.float32(peak)))

    def __len__(self) -> int:
        return self.samples.size


def peak_normalized(x: np.ndarray, peak: float) -> Waveform:
    """The float64 array `x`, scaled in place so that max|x| is `peak`, as a Waveform.

    `max(x.max(), -x.min())` is max|x| without an |x| array, since abs is
    exact. Rounding to float32 is monotone, so casting before `Waveform`
    gives the samples and peak that the float64 array would.
    """
    x /= max(x.max(), -x.min())
    x *= peak
    return Waveform(x.astype(np.float32))


@dataclass(frozen=True)
class FeatureConfig:
    """Log-mel extraction parameters; defaults give 40 bands at 10 ms hop."""

    n_mels: int = 40
    win_length: int = 400
    hop_length: int = 160
    n_fft: int = 512
    f_min: float = 20.0
    f_max: float = 7600.0
    log_floor: float = 1e-6
    mean_normalize: bool = True

    def __post_init__(self) -> None:
        at_least(self, 1, "n_mels", "win_length", "hop_length")
        if self.n_fft < self.win_length:
            raise InvalidParamError(
                f"n_fft {self.n_fft} must cover the window length {self.win_length}"
            )
        if not (0 <= self.f_min < self.f_max <= SAMPLE_RATE / 2):
            raise InvalidParamError(
                f"need 0 <= f_min < f_max <= {SAMPLE_RATE // 2}, "
                f"got [{self.f_min}, {self.f_max}]"
            )
        if self.log_floor <= 0:
            raise InvalidParamError(f"log floor must be positive, got {self.log_floor}")

    def without_normalization(self) -> "FeatureConfig":
        return replace(self, mean_normalize=False)


@dataclass(frozen=True)
class FeatureMatrix:
    """n_mels x T log-mel energies."""

    values: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def frame_count(n_samples: int, win_length: int, hop_length: int) -> int:
    """Number of full analysis frames in a signal of n_samples."""
    if n_samples < win_length:
        return 0
    return (n_samples - win_length) // hop_length + 1


def crop_samples(frames: int, win_length: int = 400, hop_length: int = 160) -> int:
    """Samples consumed by exactly `frames` analysis frames: `frame_count`'s inverse."""
    if frames < 1:
        raise InvalidParamError(f"need at least one frame, got {frames}")
    return (frames - 1) * hop_length + win_length


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_filters: int,
    n_fft: int,
    f_min: float = 20.0,
    f_max: float = 7600.0,
) -> np.ndarray:
    """Triangular filters at SAMPLE_RATE with centers equally spaced on the mel scale.

    Returns an (n_filters, n_fft // 2 + 1) nonnegative matrix. Raises if any
    filter would have empty support on the FFT grid.
    """
    if n_filters < 1:
        raise InvalidParamError(f"need at least one filter, got {n_filters}")
    if not (0 <= f_min < f_max <= SAMPLE_RATE / 2):
        raise InvalidParamError(
            f"need 0 <= f_min < f_max <= {SAMPLE_RATE / 2}, got [{f_min}, {f_max}]"
        )
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_filters + 2))
    bin_hz = np.arange(n_fft // 2 + 1) * (SAMPLE_RATE / n_fft)

    left = edges_hz[:-2, None]
    center = edges_hz[1:-1, None]
    right = edges_hz[2:, None]
    rising = (bin_hz - left) / (center - left)
    falling = (right - bin_hz) / (right - center)
    bank = np.maximum(0.0, np.minimum(rising, falling))

    empty = ~(bank > 0).any(axis=1)
    if empty.any():
        raise InvalidParamError(
            f"{int(empty.sum())} filters have empty support on the "
            f"{n_fft}-point FFT grid; use fewer filters or a longer FFT"
        )
    return bank


def frame_signal(x: np.ndarray, win_length: int, hop_length: int) -> np.ndarray:
    """(T, win_length) view of all full frames."""
    t = frame_count(x.size, win_length, hop_length)
    windows = np.lib.stride_tricks.sliding_window_view(x, win_length)
    return windows[: (t - 1) * hop_length + 1 : hop_length]


@functools.lru_cache(maxsize=8)
def _analysis_arrays(cfg: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """The float32 Hamming window and mel filterbank of a config, built once and read-only.

    Every log-mel call with the same config shares these two arrays, so they
    are frozen against writes.
    """
    window = np.hamming(cfg.win_length).astype(np.float32)
    bank = mel_filterbank(cfg.n_mels, cfg.n_fft, cfg.f_min, cfg.f_max).astype(np.float32)
    window.setflags(write=False)
    bank.setflags(write=False)
    return window, bank


def logmel(w: Waveform, cfg: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """40 x T float32 log-mel spectrogram of a waveform."""
    x = w.samples
    if x.size < cfg.win_length:
        raise TooShortError(
            f"waveform has {x.size} samples, need at least {cfg.win_length} for one frame"
        )
    frames = frame_signal(x, cfg.win_length, cfg.hop_length)
    window, bank = _analysis_arrays(cfg)
    spectrum = sp_fft.rfft(frames * window, n=cfg.n_fft, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    energies = bank @ power.T
    values = np.log(energies + cfg.log_floor)
    if cfg.mean_normalize:
        values = values - values.mean(axis=1, keepdims=True)
    return FeatureMatrix(values)


def read_wav(path: str | Path) -> Waveform:
    """Read a mono 16-bit 16 kHz PCM WAV file; a corrupt one raises UnsupportedWavError."""
    try:
        with wave.open(str(path), "rb") as f:
            if f.getcomptype() != "NONE":
                raise UnsupportedWavError(
                    f"{path}: compressed WAV ({f.getcomptype()}) is not supported"
                )
            if f.getnchannels() != 1:
                raise UnsupportedWavError(
                    f"{path}: expected mono audio, got {f.getnchannels()} channels"
                )
            if f.getsampwidth() != 2:
                raise UnsupportedWavError(
                    f"{path}: expected 16-bit samples, got {8 * f.getsampwidth()}-bit"
                )
            if f.getframerate() != SAMPLE_RATE:
                raise UnsupportedWavError(
                    f"{path}: expected {SAMPLE_RATE} Hz, got {f.getframerate()} Hz"
                )
            raw = f.readframes(f.getnframes())
    # The wave module reports a malformed chunk layout with these three; a
    # chunk that claims more bytes than the file holds raises RuntimeError.
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise UnsupportedWavError(f"{path}: corrupt WAV file ({exc!r})") from exc
    if len(raw) % 2:
        raise UnsupportedWavError(
            f"{path}: corrupt WAV file: its data holds {len(raw)} bytes, "
            "not a whole number of 16-bit samples"
        )
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float32) * _READ_SCALE
    return Waveform(samples)


def write_wav(path: str | Path, w: Waveform) -> None:
    """Write a waveform as a mono 16-bit 16 kHz PCM WAV file."""
    scaled = w.samples.astype(np.float64) * _WRITE_SCALE
    quantized = np.clip(np.round(scaled), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(quantized.tobytes())
