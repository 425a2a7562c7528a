"""Dual-crop construction and waveform augmentation.

Training pairs are two random crops of one utterance, each independently
corrupted: additive noise at a target SNR drawn from a bank of synthetic
noises (white, pink, babble), synthetic-room reverberation, or both. The
sampler guarantees the two crops never receive the identical corruption.

A bank's responses reverberate an L-sample signal at one FFT length,
`NoiseBank.fft_length(L)`: the fast length that holds the full convolution
with the bank's longest response (40,000 for a 180-frame crop and
`synth_bank(0)`, whose longest response has 10,347 taps). So any crops of
one length can share an FFT: `apply_specs` zero-pads up to `STACK_ROWS` of
them into one float32 stack per `rfft`/`irfft` call and multiplies each row
by its own response's spectrum, which the bank keeps for the last FFT length
asked for. pocketfft (`scipy.fft`) transforms four float32 rows at once in
SIMD lanes, and each row's bytes equal its one-row transform's. At
n = 40,000 on a 2-core x86 host, a 4-row stack took 0.174 ms per row for
`rfft` and 0.182 ms for `irfft`, against 0.254 and 0.202 ms for one row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import fft as sp_fft

from .corpus import gen_speaker, gen_utterance
from .errors import (
    EmptyImpulseError,
    InvalidParamError,
    TooShortError,
    UtteranceTooShortError,
)
from .features import SAMPLE_RATE, FeatureConfig, Waveform, crop_samples, peak_normalized
from .rng import derive_rng

# 60 dB of decay at t = rt60 means an amplitude factor of exactly 1e-3.
DECAY_RATE = 3.0 * math.log(10.0)

# Below this tap count `apply_rir` convolves directly, which is both fast and
# exact for the identity/delay cases; longer impulse responses and every
# bank response go through the FFT.
_DIRECT_CONV_MAX = 64

# Rows per FFT call of `apply_specs`: one group of pocketfft's four float32
# SIMD lanes. A stack of 5-7 rows runs its remainder one row at a time.
STACK_ROWS = 4

# Speakers summed into one babble noise.
BABBLE_VOICES = 6
# Redraws of the second corruption before a pair is refused as undrawable.
PAIR_DRAW_TRIES = 1000


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
_NOISE_KINDS = (AugmentKind.NOISE, AugmentKind.NOISE_REVERB)
_REVERB_KINDS = (AugmentKind.REVERB, AugmentKind.NOISE_REVERB)


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
    out = Waveform(np.clip(mixed, -1.0, 1.0))
    # Some |mixed| > 1 only if the clipped peak reached 1.0.
    clip_fraction = float(np.mean(np.abs(mixed) > 1.0)) if out.peak >= 1.0 else 0.0
    return NoiseResult(out, clip_fraction=clip_fraction)


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


def _fft_convolve(
    signals: list[np.ndarray], spectra: Sequence[np.ndarray], n: int
) -> np.ndarray:
    """The float32 signals, all of one length, each convolved with its
    response's length-`n` spectrum and truncated to that length, as rows.

    The signals are zero-padded into one (rows, n) stack for one `rfft` and
    one `irfft` call. `signals` is emptied as the stack is filled, and the
    stack is freed before the inverse transform, so a signal the caller no
    longer holds is freed once it is stacked.
    """
    length = signals[0].size
    stack = np.zeros((len(signals), n), dtype=np.float32)
    for row in stack:
        row[:length] = signals.pop(0)
    rows = sp_fft.rfft(stack, axis=-1)
    del stack
    for row, spectrum in zip(rows, spectra):
        row *= spectrum
    return sp_fft.irfft(rows, n, axis=-1)[:, :length]


def _rescaled(out: np.ndarray, peak: float) -> Waveform:
    """The convolution output, scaled back down to the input peak if it rose above it."""
    peak_out = float(np.max(np.abs(out)))
    # Not a repeat of `Waveform`'s scan, which finds the rescaled peak: all 390
    # reverberated crops of the golden 2-epoch desk pretraining were rescaled.
    if peak_out > peak > 0.0:
        out *= peak / peak_out
    return Waveform(out)


def _check_response(h: np.ndarray, name: str) -> None:
    """Refuse the float32 response `h` unless it is nonempty, finite and 1-d."""
    if h.size == 0:
        raise EmptyImpulseError(f"{name} must be nonempty")
    if h.ndim != 1:
        raise InvalidParamError(f"{name} must be 1-d, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise InvalidParamError(f"{name} must be finite")


def apply_rir(s: Waveform, rir: np.ndarray) -> Waveform:
    """Convolve with an impulse response, truncated to the input length.

    The response is cast to float32, checked to be nonempty, finite and 1-d,
    and convolved in float32. If convolution raises the peak above the
    input's, the output is scaled back down to the input peak so the [-1, 1]
    range survives. Long responses are convolved by FFT at their own length,
    `next_fast_len(len(s) + len(rir) - 1)`, in the same steps and so to the
    same bits as `scipy.signal.fftconvolve` on float32 input; the response's
    spectrum is computed on each call. A bank's responses go through
    `apply_specs` instead, at the bank's one FFT length.
    """
    h = np.asarray(rir, dtype=np.float32)
    _check_response(h, "impulse response")
    x = s.samples
    if h.size <= _DIRECT_CONV_MAX:
        return _rescaled(np.convolve(x, h)[: x.size], s.peak)
    n = sp_fft.next_fast_len(x.size + h.size - 1, True)
    return _rescaled(_fft_convolve([x], [sp_fft.rfft(h, n)], n)[0], s.peak)


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
    return peak_normalized(rng.standard_normal(n), 0.9)


def pink_noise(n: int, rng: np.random.Generator) -> Waveform:
    spectrum = np.fft.rfft(rng.standard_normal(n))
    f = np.arange(spectrum.size, dtype=np.float64)
    f[0] = 1.0
    return peak_normalized(np.fft.irfft(spectrum / np.sqrt(f), n=n), 0.9)


def babble_noise(n: int, rng: np.random.Generator) -> Waveform:
    duration_s = n / SAMPLE_RATE
    mix = np.zeros(n)
    for _ in range(BABBLE_VOICES):
        profile = gen_speaker(rng)
        w = gen_utterance(profile, duration_s, rng, min_samples=1)
        mix += w.samples[:n]
    return peak_normalized(mix, 0.9)


@dataclass(frozen=True, eq=False)
class NoiseBank:
    """Noise waveforms and impulse responses, both in fixed order.

    The impulse responses are stored as read-only float32 copies, each
    checked to be nonempty, finite and 1-d. Every response reverberates a
    signal of a given length at one FFT length (`fft_length`), and the bank
    keeps its responses' spectra at the last FFT length asked for
    (`spectra`). A bank hashes and compares by identity, so it can key the
    evaluation feature cache of `CorpusSource`.
    """

    noises: tuple[Waveform, ...]
    rirs: tuple[np.ndarray, ...]
    # (FFT length, the responses' read-only spectra at it) of the last `spectra` call.
    _spectra: tuple[int, tuple[np.ndarray, ...]] = field(init=False, repr=False, default=(0, ()))

    def __post_init__(self) -> None:
        if not self.noises or not self.rirs:
            raise InvalidParamError(
                f"bank needs at least one noise and one impulse response, "
                f"got {len(self.noises)} and {len(self.rirs)}"
            )
        rirs = tuple(np.array(h, dtype=np.float32) for h in self.rirs)
        for i, h in enumerate(rirs):
            _check_response(h, f"impulse response {i}")
            h.setflags(write=False)
        object.__setattr__(self, "rirs", rirs)

    def fft_length(self, length: int) -> int:
        """The FFT length at which each response reverberates `length` samples:
        the fast length that holds the full convolution with the longest one."""
        return sp_fft.next_fast_len(length + max(h.size for h in self.rirs) - 1, True)

    def spectra(self, n: int) -> tuple[np.ndarray, ...]:
        """The read-only complex64 `rfft(h, n)` of each response.

        The spectra of the last length asked for are kept, so they are
        computed again only when `n` changes. The kept pair is read once and
        replaced whole: a thread that asks for another length meanwhile
        cannot hand this call spectra of the wrong length.
        """
        length, spectra = self._spectra
        if length != n:
            spectra = tuple(sp_fft.rfft(h, n) for h in self.rirs)
            for spectrum in spectra:
                spectrum.setflags(write=False)
            object.__setattr__(self, "_spectra", (n, spectra))
        return spectra


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
    if kind in _NOISE_KINDS:
        noise_index = int(rng.integers(0, len(bank.noises)))
        noise = bank.noises[noise_index]
        if len(noise) < crop_len:
            raise TooShortError(
                f"bank noise {noise_index} has {len(noise)} "
                f"samples, crops need {crop_len}"
            )
        noise_offset = int(rng.integers(0, len(noise) - crop_len + 1))
        snr_db = float(rng.uniform(*snr_range))
    if kind in _REVERB_KINDS:
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


def _check_spec(spec: AugmentSpec, bank: NoiseBank, length: int) -> None:
    """Refuse a spec whose indices miss the bank, or whose noise slice does
    not fit in its noise for a `length`-sample crop."""
    used = []
    if spec.kind in _REVERB_KINDS:
        used.append(("rir_index", spec.rir_index, len(bank.rirs), "impulse responses"))
    if spec.kind in _NOISE_KINDS:
        used.append(("noise_index", spec.noise_index, len(bank.noises), "noises"))
    for name, index, count, what in used:
        if not 0 <= index < count:
            raise InvalidParamError(f"{name} {index} is outside the bank's {count} {what}")
    if spec.kind in _NOISE_KINDS:
        have = len(bank.noises[spec.noise_index])
        if spec.noise_offset < 0:
            raise InvalidParamError(f"noise_offset {spec.noise_offset} is negative")
        if spec.noise_offset + length > have:
            raise TooShortError(
                f"noise_offset {spec.noise_offset} plus a {length}-sample crop runs "
                f"past the end of bank noise {spec.noise_index} ({have} samples)"
            )


def _noised(out: Waveform, spec: AugmentSpec, bank: NoiseBank) -> Waveform:
    if spec.kind not in _NOISE_KINDS:
        return out
    noise = bank.noises[spec.noise_index].samples
    slice_ = noise[spec.noise_offset : spec.noise_offset + len(out)]
    return _mix_at_snr(out.samples, slice_, spec.snr_db).waveform


def _reverb_stack(
    rows: list[tuple[int, Waveform, AugmentSpec]], bank: NoiseBank
) -> Iterator[tuple[int, Waveform]]:
    """Reverberate the (position, crop, spec) rows in one stack at the bank's
    FFT length, then add their noise. `rows` is emptied."""
    n = bank.fft_length(len(rows[0][1]))
    by_index = bank.spectra(n)
    spectra = [by_index[spec.rir_index] for _, _, spec in rows]
    signals = [crop.samples for _, crop, _ in rows]
    done = [(i, crop.peak, spec) for i, crop, spec in rows]
    rows.clear()
    for (i, peak, spec), out in zip(done, _fft_convolve(signals, spectra, n)):
        yield i, _noised(_rescaled(out, peak), spec, bank)


def apply_specs(
    corrupted: Iterable[tuple[Waveform, AugmentSpec]], bank: NoiseBank
) -> Iterator[tuple[int, Waveform]]:
    """Replay each (crop, spec) corruption: reverberation first, then additive noise.

    Yields (position in `corrupted`, output) as each output is ready. A crop
    without reverberation is done at once. Reverberated crops wait for a
    stack, which is convolved at the bank's FFT length once it holds
    `STACK_ROWS` crops, when a crop of another length arrives, or at the
    end; each crop is freed once it is stacked. Each row's bytes equal its
    own one-row call (`apply_spec`), whichever rows share its stack. Each
    spec is checked against the bank and its crop's length before use.
    """
    rows: list[tuple[int, Waveform, AugmentSpec]] = []
    for i, (crop, spec) in enumerate(corrupted):
        _check_spec(spec, bank, len(crop))
        if spec.kind not in _REVERB_KINDS:
            yield i, _noised(crop, spec, bank)
            continue
        if rows and len(crop) != len(rows[0][1]):
            yield from _reverb_stack(rows, bank)
        rows.append((i, crop, spec))
        del crop  # `rows` holds the only reference, so stacking frees it
        if len(rows) == STACK_ROWS:
            yield from _reverb_stack(rows, bank)
    if rows:
        yield from _reverb_stack(rows, bank)


def apply_spec(crop: Waveform, spec: AugmentSpec, bank: NoiseBank) -> Waveform:
    """Replay one corruption: the one-row case of `apply_specs`."""
    ((_, out),) = apply_specs([(crop, spec)], bank)
    return out
