import math

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import fftconvolve

import oracles
from cel import augment
from cel.augment import (
    AugmentKind,
    AugmentSpec,
    NoiseBank,
    TRAIN_KINDS,
    add_noise,
    apply_rir,
    apply_spec,
    babble_noise,
    crop_samples,
    crop_two,
    decay_envelope,
    pink_noise,
    sample_pair_specs,
    sample_spec,
    synth_bank,
    synth_rir,
    white_noise,
)
from cel.errors import (
    EmptyImpulseError,
    InvalidParamError,
    TooShortError,
    UtteranceTooShortError,
)
from cel.features import Waveform
from cel.rng import derive_rng


class TestCrop:
    def test_crop_samples_formula(self):
        assert crop_samples(1) == 400
        assert crop_samples(2) == 560
        assert crop_samples(180) == 29040

    def test_crop_two_lengths_and_content(self, rng):
        u = Waveform(0.1 * rng.standard_normal(40000))
        crop1, crop2 = crop_two(u, 180, rng)
        n = crop_samples(180)
        assert len(crop1) == n and len(crop2) == n
        # Both crops are contiguous slices of the source.
        as_str = u.samples.tobytes()
        assert crop1.samples.tobytes() in as_str
        assert crop2.samples.tobytes() in as_str

    def test_crop_too_short_raises(self, rng):
        u = Waveform(np.ones(100) * 0.1)
        with pytest.raises(UtteranceTooShortError):
            crop_two(u, 180, rng)

    def test_offsets_cover_range_uniformly(self):
        # Chi-square over 8 bins of the crop offset distribution.
        n, frames = 40000, 60
        crop = crop_samples(frames)
        max_offset = n - crop
        bins = np.zeros(8)
        u = Waveform(np.full(n, 0.1))
        marked = np.arange(n, dtype=np.float64) / n
        u = Waveform(marked * 0.5)
        draws = 2000
        for i in range(draws):
            crop1, _ = crop_two(u, frames, derive_rng("offsets", i))
            offset = int(round(float(crop1.samples[0]) * 2 * n))
            bins[min(7, offset * 8 // (max_offset + 1))] += 1
        expected = draws / 8
        chi2 = float(np.sum((bins - expected) ** 2 / expected))
        # 7 dof, upper 99.9% point is 24.32.
        assert chi2 < 24.32, bins


class TestNoise:
    def test_snr_exact(self, rng):
        s = Waveform(0.1 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000))
        noise = Waveform(np.clip(0.2 * rng.standard_normal(32000), -0.9, 0.9))
        for snr in (-5.0, 0.0, 5.0, 15.0, 30.0):
            out = add_noise(s, noise, snr, derive_rng("snr", str(snr)))
            added = out.waveform.samples - s.samples
            measured = oracles.oracle_snr_db(s.samples, added)
            assert abs(measured - snr) < 0.01, snr

    def test_infinite_snr_is_exact_copy(self, rng):
        s = Waveform(0.1 * rng.standard_normal(8000))
        noise = Waveform(0.1 * rng.standard_normal(8000))
        out = add_noise(s, noise, math.inf, rng)
        np.testing.assert_array_equal(out.waveform.samples, s.samples)

    def test_noise_shorter_than_signal_rejected(self, rng):
        s = Waveform(0.1 * rng.standard_normal(8000))
        noise = Waveform(0.1 * rng.standard_normal(4000))
        with pytest.raises(TooShortError):
            add_noise(s, noise, 10.0, rng)

    def test_silent_noise_flagged(self, rng):
        s = Waveform(0.1 * rng.standard_normal(800))
        out = add_noise(s, Waveform(np.zeros(1600)), 10.0, rng)
        assert out.silent_noise
        np.testing.assert_array_equal(out.waveform.samples, s.samples)

    def test_clipping_reported(self, rng):
        s = Waveform(np.full(800, 0.9))
        noise = Waveform(np.clip(0.5 * rng.standard_normal(1600), -0.99, 0.99))
        out = add_noise(s, noise, -10.0, rng)
        assert np.max(np.abs(out.waveform.samples)) <= 1.0
        assert out.clip_fraction > 0


# Float32 rounding allowed against the float64 direct-convolution oracle, in
# units in the last place of the float32 output peak. Measured worst case over
# 40 seeds of both oracle tests below: 4.4 ulps.
CONV_ULPS = 16


def float32_reference(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """apply_rir's steps on float32 input: np.convolve up to _DIRECT_CONV_MAX
    taps, scipy's fftconvolve beyond, then the peak rescale."""
    x, h = x.astype(np.float32), h.astype(np.float32)
    full = np.convolve(x, h) if h.size <= augment._DIRECT_CONV_MAX else fftconvolve(x, h)
    want = full[: x.size]
    peak_in, peak_out = float(np.max(np.abs(x))), float(np.max(np.abs(want)))
    if peak_out > peak_in > 0.0:
        want *= peak_in / peak_out
    return want


def assert_close_in_ulps(got: np.ndarray, want: np.ndarray) -> None:
    ulp = np.spacing(np.float32(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=0, atol=CONV_ULPS * ulp)


class TestRir:
    def test_unit_impulse_identity(self, rng):
        s = Waveform(np.clip(0.3 * rng.standard_normal(4000), -0.9, 0.9))
        impulse = np.zeros(64)
        impulse[0] = 1.0
        out = apply_rir(s, impulse)
        np.testing.assert_array_equal(out.samples, s.samples)

    def test_matches_direct_convolution(self, rng):
        s = Waveform(0.1 * rng.standard_normal(500))
        impulse = rng.standard_normal(32) * np.exp(-np.arange(32) / 8.0)
        impulse[0] = 1.0
        out = apply_rir(s, impulse)
        want = oracles.oracle_convolve(s.samples, impulse)
        peak_in = np.max(np.abs(s.samples))
        peak_out = np.max(np.abs(want))
        if peak_out > peak_in > 0.0:
            want = want * (peak_in / peak_out)
        assert_close_in_ulps(out.samples, want)

    def test_long_impulse_fft_path_matches_direct(self, rng):
        s = Waveform(0.1 * rng.standard_normal(700))
        impulse = rng.standard_normal(200) * np.exp(-np.arange(200) / 40.0)
        impulse[0] = 1.0
        out = apply_rir(s, impulse)
        want = oracles.oracle_convolve(s.samples, impulse)
        peak_in = np.max(np.abs(s.samples))
        peak_out = np.max(np.abs(want))
        if peak_out > peak_in > 0.0:
            want = want * (peak_in / peak_out)
        assert_close_in_ulps(out.samples, want)

    @pytest.mark.parametrize("crop_len", [29040, 7919, 1001])
    @pytest.mark.parametrize("rir_len", [augment._DIRECT_CONV_MAX, augment._DIRECT_CONV_MAX + 1, 4801])
    def test_bit_equal_to_seed_convolution(self, rng, crop_len, rir_len):
        x = np.clip(0.3 * rng.standard_normal(crop_len), -1.0, 1.0)
        h = rng.standard_normal(rir_len) * np.exp(-np.arange(rir_len) / 400.0)
        h[0] = 1.0
        want = float32_reference(x, h)
        h = h.astype(np.float32)
        h.setflags(write=False)  # read-only float32, so the second call hits the spectrum cache
        for _ in range(2):
            assert apply_rir(Waveform(x), h).samples.tobytes() == want.tobytes()

    def test_spectrum_cache_follows_the_bank(self, rng):
        bank = synth_bank(seed=5, n_each=1, noise_duration_s=1.0, rir_count=2)
        h = bank.rirs[0]
        assert not h.flags.writeable
        s = Waveform(0.1 * rng.standard_normal(3000))
        first = apply_rir(s, h).samples.tobytes()
        assert len(augment._rir_spectra[id(h)]) == 1
        assert apply_rir(s, h).samples.tobytes() == first
        cap = augment._RIR_SPECTRA_PER_RESPONSE
        for n in range(1000, 1000 * (2 * cap + 1), 1000):  # 2 * cap distinct FFT lengths
            apply_rir(Waveform(np.zeros(n)), h)
        assert len(augment._rir_spectra[id(h)]) == cap
        key = id(h)
        del bank, h
        gc.collect()
        assert key not in augment._rir_spectra

    def test_writable_response_is_not_cached(self, rng):
        s = Waveform(0.1 * rng.standard_normal(3000))
        h = np.zeros(200, dtype=np.float32)  # float32, so apply_rir uses h itself, not a copy
        for tap in (1.0, 0.5):
            h[0] = tap
            want = float32_reference(s.samples, h)
            assert apply_rir(s, h).samples.tobytes() == want.tobytes()
        assert id(h) not in augment._rir_spectra

    def test_output_length_truncated(self, rng):
        s = Waveform(0.1 * rng.standard_normal(1000))
        out = apply_rir(s, np.array([1.0, 0.5, 0.25]))
        assert len(out) == 1000

    def test_empty_impulse_rejected(self, rng):
        s = Waveform(0.1 * rng.standard_normal(100))
        with pytest.raises(EmptyImpulseError):
            apply_rir(s, np.zeros(0))

    def test_decay_envelope_minus_60db_at_rt60(self):
        rt60 = 0.3
        assert decay_envelope(np.array([rt60]), rt60)[0] == pytest.approx(1e-3, rel=1e-12)
        assert decay_envelope(np.array([0.0]), rt60)[0] == 1.0

    def test_synth_rir_first_tap_unity(self):
        rir = synth_rir(300.0, 450.0, derive_rng("rir-test"))
        assert rir[0] == 1.0
        assert len(rir) == int(round(0.45 * 16000))


class TestGenerators:
    def test_white_pink_peaks(self):
        for gen in (white_noise, pink_noise):
            w = gen(32000, derive_rng("gen", gen.__name__))
            assert np.max(np.abs(w.samples)) == pytest.approx(0.9, abs=1e-12)
            assert len(w) == 32000

    def test_pink_spectrum_slopes_down(self):
        w = pink_noise(64000, derive_rng("pink"))
        spec = np.abs(np.fft.rfft(w.samples)) ** 2
        freqs = np.fft.rfftfreq(len(w), 1 / 16000)
        low = spec[(freqs > 50) & (freqs < 500)].mean()
        high = spec[(freqs > 4000) & (freqs < 7000)].mean()
        assert low > 5 * high

    def test_babble_is_reproducible(self):
        a = babble_noise(16000, derive_rng("babble", 0))
        b = babble_noise(16000, derive_rng("babble", 0))
        np.testing.assert_array_equal(a.samples, b.samples)


class TestBank:
    def test_synth_bank_contents(self, tiny_bank):
        assert len(tiny_bank.noises) == 3  # one each: white, pink, babble
        assert len(tiny_bank.rirs) == 2
        for r in tiny_bank.rirs:
            assert r[0] == pytest.approx(1.0)

    def test_empty_bank_rejected(self):
        with pytest.raises(InvalidParamError):
            NoiseBank(noises=(), rirs=(np.ones(4),))

class TestSpecs:
    def test_sample_spec_fields(self, tiny_bank):
        rng = derive_rng("spec", 1)
        for _ in range(50):
            spec = sample_spec(rng, tiny_bank, crop_len=8000)
            assert spec.kind in TRAIN_KINDS
            if spec.kind in (AugmentKind.NOISE, AugmentKind.NOISE_REVERB):
                assert 0 <= spec.noise_index < len(tiny_bank.noises)
                assert 0.0 <= spec.snr_db <= 15.0
            if spec.kind in (AugmentKind.REVERB, AugmentKind.NOISE_REVERB):
                assert 0 <= spec.rir_index < len(tiny_bank.rirs)

    def test_pair_specs_never_identical(self, tiny_bank):
        for i in range(200):
            rng = derive_rng("pair", i)
            s1, s2 = sample_pair_specs(rng, tiny_bank, crop_len=8000)
            assert s1.identity() != s2.identity()

    def test_apply_spec_none_is_identity(self, tiny_bank, rng):
        wave = Waveform(0.1 * rng.standard_normal(8000))
        spec = AugmentSpec(kind=AugmentKind.NONE)
        out = apply_spec(wave, spec, tiny_bank)
        np.testing.assert_array_equal(out.samples, wave.samples)

    def test_apply_spec_deterministic(self, tiny_bank):
        wave = Waveform(0.1 * derive_rng("wave").standard_normal(8000))
        spec = sample_spec(derive_rng("aspec"), tiny_bank, crop_len=8000)
        a = apply_spec(wave, spec, tiny_bank)
        b = apply_spec(wave, spec, tiny_bank)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_noise_reverb_order_reverb_first(self, tiny_bank):
        # NOISE_REVERB must add noise after reverberating the source, so the
        # noise itself is not smeared by the impulse response.
        wave = Waveform(0.1 * derive_rng("order-wave").standard_normal(8000))
        spec = None
        rng = derive_rng("order-spec")
        while spec is None or spec.kind != AugmentKind.NOISE_REVERB:
            spec = sample_spec(rng, tiny_bank, crop_len=8000)
        both = apply_spec(wave, spec, tiny_bank)
        reverb_only = apply_spec(
            wave,
            AugmentSpec(kind=AugmentKind.REVERB, rir_index=spec.rir_index),
            tiny_bank,
        )
        noise = tiny_bank.noises[spec.noise_index]
        seg = noise.samples[spec.noise_offset : spec.noise_offset + len(wave)]
        # The mix is the reverberated crop plus a float32-scaled copy of the
        # stored noise segment, scaled to the target SNR over the reverberated crop.
        r = reverb_only.samples
        p_signal, p_noise = float(np.mean(r**2)), float(np.mean(seg**2))
        scale = math.sqrt(p_signal / (p_noise * 10.0 ** (spec.snr_db / 10.0)))
        want = np.clip(r + np.float32(scale) * seg, -1.0, 1.0)
        assert both.samples.tobytes() == want.tobytes()
