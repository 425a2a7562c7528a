import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sp_fft

import oracles
from cel.errors import InvalidParamError, TooShortError, UnsupportedWavError
from cel.features import (
    FeatureConfig,
    Waveform,
    _analysis_arrays,
    frame_count,
    frame_signal,
    hz_to_mel,
    logmel,
    mel_filterbank,
    mel_to_hz,
    read_wav,
    write_wav,
)


class TestWaveform:
    def test_basic(self):
        w = Waveform(np.zeros(16000))
        assert len(w) == 16000

    def test_rejects_empty(self):
        with pytest.raises(InvalidParamError):
            Waveform(np.zeros(0))

    def test_rejects_clipping_beyond_tolerance(self):
        with pytest.raises(InvalidParamError):
            Waveform(np.array([0.0, 1.5]))

    def test_rejects_nan(self):
        with pytest.raises(InvalidParamError):
            Waveform(np.array([0.0, np.nan]))

    def test_rejects_float64_beyond_float32_range_by_its_peak(self):
        with pytest.raises(InvalidParamError, match="peak is 1e"):
            Waveform(np.array([0.0, 1e39]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_peak_is_the_max_magnitude_of_the_stored_samples(self, rng, dtype):
        noise = np.clip(0.4 * rng.standard_normal(4001), -1.0, 1.0)
        # 1 + 1e-10 is accepted and rounds to 1.0 in float32; -0.7 + 1e-9
        # has no float32 value, so the stored peak is its rounding.
        for x in (noise, -noise, np.zeros(5), [0.25, 1.0 + 1e-10], [0.1, -0.7 + 1e-9]):
            w = Waveform(np.asarray(x, dtype=dtype))
            assert w.samples.dtype == np.float32
            assert w.peak == float(np.max(np.abs(w.samples)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_samples_are_refused(self, dtype, bad):
        with pytest.raises(InvalidParamError, match="samples must be finite"):
            Waveform(np.array([0.0, bad, 0.5], dtype=dtype))


class TestFrameCount:
    @given(st.integers(1, 100_000))
    @settings(max_examples=300)
    def test_matches_stride_walk(self, n):
        win, hop = 400, 160
        want = 0
        start = 0
        while start + win <= n:
            want += 1
            start += hop
        assert frame_count(n, win, hop) == want

    def test_examples(self):
        assert frame_count(400, 400, 160) == 1
        assert frame_count(399, 400, 160) == 0
        assert frame_count(560, 400, 160) == 2
        assert frame_count(29040, 400, 160) == 180

    def test_frame_signal_agrees(self, rng):
        x = rng.standard_normal(5000)
        frames = frame_signal(x, 400, 160)
        assert frames.shape == (frame_count(5000, 400, 160), 400)
        np.testing.assert_array_equal(frames[1], x[160:560])


class TestMelScale:
    def test_htk_anchor(self):
        assert hz_to_mel(1000.0) == pytest.approx(2595.0 * math.log10(1 + 1000 / 700))

    @given(st.floats(1.0, 8000.0))
    def test_round_trip(self, f):
        assert mel_to_hz(hz_to_mel(f)) == pytest.approx(f, rel=1e-9)

    def test_monotone(self):
        f = np.linspace(20, 7600, 200)
        m = hz_to_mel(f)
        assert np.all(np.diff(m) > 0)


class TestFilterbank:
    def test_shape_and_nonneg(self):
        bank = mel_filterbank(40, 512)
        assert bank.shape == (40, 257)
        assert np.all(bank >= 0)

    def test_every_filter_has_support(self):
        bank = mel_filterbank(40, 512)
        assert np.all((bank > 0).sum(axis=1) >= 1)

    def test_empty_support_rejected(self):
        with pytest.raises(InvalidParamError):
            mel_filterbank(400, 64)

    def test_band_edges_rejected(self):
        with pytest.raises(InvalidParamError):
            mel_filterbank(40, 512, f_min=500.0, f_max=100.0)
        with pytest.raises(InvalidParamError):
            mel_filterbank(40, 512, f_max=9000.0)


class TestLogmel:
    def test_shape(self, rng):
        wave = Waveform(0.1 * rng.standard_normal(16000))
        feats = logmel(wave, FeatureConfig())
        assert feats.values.shape == (40, frame_count(16000, 400, 160))

    def test_too_short(self):
        with pytest.raises(TooShortError):
            logmel(Waveform(np.zeros(399)), FeatureConfig())

    def test_single_frame_matches_oracle(self, rng):
        samples = 0.3 * rng.standard_normal(400)
        feats = logmel(Waveform(samples), FeatureConfig(mean_normalize=False))
        want = oracles.oracle_logmel_frame(samples)
        np.testing.assert_allclose(feats.values[:, 0], want, atol=1e-8)

    def test_mean_normalization_zeroes_band_means(self, rng):
        # Each band loses its own float32 mean, bit for bit.
        wave = Waveform(0.1 * rng.standard_normal(16000))
        cfg = FeatureConfig(mean_normalize=True)
        raw = logmel(wave, cfg.without_normalization()).values
        feats = logmel(wave, cfg)
        assert feats.values.tobytes() == (raw - raw.mean(axis=1, keepdims=True)).tobytes()

    def test_normalization_toggle_is_exact_shift(self, rng):
        wave = Waveform(0.1 * rng.standard_normal(16000))
        cfg = FeatureConfig(mean_normalize=True)
        raw = logmel(wave, cfg.without_normalization()).values
        cmn = logmel(wave, cfg).values
        np.testing.assert_allclose(cmn, raw - raw.mean(axis=1, keepdims=True), atol=1e-12)

    @pytest.mark.parametrize(
        "cfg", [FeatureConfig(), FeatureConfig(n_mels=24, win_length=320, mean_normalize=False)]
    )
    def test_matches_uncached_computation_bit_for_bit(self, rng, cfg):
        samples = np.clip(0.3 * rng.standard_normal(29040), -1.0, 1.0).astype(np.float32)
        frames = frame_signal(samples, cfg.win_length, cfg.hop_length)
        window = np.hamming(cfg.win_length).astype(np.float32)
        spectrum = sp_fft.rfft(frames * window, n=cfg.n_fft, axis=1)
        power = spectrum.real**2 + spectrum.imag**2
        bank = mel_filterbank(cfg.n_mels, cfg.n_fft, cfg.f_min, cfg.f_max)
        want = np.log(bank.astype(np.float32) @ power.T + np.float32(cfg.log_floor))
        if cfg.mean_normalize:
            want = want - want.mean(axis=1, keepdims=True)
        for _ in range(2):  # the second call reuses the cached window and filterbank
            assert logmel(Waveform(samples), cfg).values.tobytes() == want.tobytes()

    def test_cached_window_and_filterbank_are_read_only(self):
        cfg = FeatureConfig()
        window, bank = _analysis_arrays(cfg)
        again = _analysis_arrays(FeatureConfig())
        assert again[0] is window and again[1] is bank
        for arr in (window, bank):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_log_floor_bounds_silence(self):
        wave = Waveform(np.zeros(16000))
        feats = logmel(wave, FeatureConfig(mean_normalize=False))
        np.testing.assert_allclose(feats.values, math.log(1e-6), atol=1e-12)

    def test_deterministic(self, rng):
        wave = Waveform(0.1 * rng.standard_normal(8000))
        a = logmel(wave, FeatureConfig()).values
        b = logmel(wave, FeatureConfig()).values
        np.testing.assert_array_equal(a, b)


class TestWavIo:
    def test_round_trip_quantization(self, tmp_path, rng):
        x = np.clip(0.5 * rng.standard_normal(4000), -0.999, 0.999)
        path = tmp_path / "a.wav"
        write_wav(path, Waveform(x))
        back = read_wav(path)
        assert len(back) == 4000
        # write scales by 32767 (round; at most 0.5 LSB), read divides by
        # 32768, so the bound picks up an extra |x|/32768 from the scale gap.
        bound = (0.5 + np.max(np.abs(x))) / 32768.0
        assert np.max(np.abs(back.samples - x)) <= bound + 1e-12

    def test_second_round_trip_within_one_lsb(self, tmp_path, rng):
        x = np.clip(0.5 * rng.standard_normal(4000), -0.999, 0.999)
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(p1, Waveform(x))
        first = read_wav(p1)
        write_wav(p2, first)
        second = read_wav(p2)
        assert np.max(np.abs(second.samples - first.samples)) <= 1.0 / 32768 + 1e-12

    def test_write_quantizes_every_read_value_in_float64(self, tmp_path):
        import wave

        # Every value read_wav can return, written back: x * 32767 rounds in
        # float64, as for float64 samples. In float32 the product rounds to
        # another int16 for 48 of these values.
        codes = np.arange(-32768, 32768)
        x = codes.astype(np.float32) / np.float32(32768.0)
        want = np.round(codes / 32768.0 * 32767.0).astype("<i2")
        assert np.count_nonzero(np.round(x * np.float32(32767.0)) != want) == 48
        path = tmp_path / "grid.wav"
        write_wav(path, Waveform(x))
        with wave.open(str(path), "rb") as f:
            written = np.frombuffer(f.readframes(f.getnframes()), dtype="<i2")
        np.testing.assert_array_equal(written, want)

    def test_rejects_stereo(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(b"\x00\x00" * 200)
        with pytest.raises(UnsupportedWavError):
            read_wav(path)

    def test_rejects_wrong_rate(self, tmp_path):
        import wave

        path = tmp_path / "slow.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(b"\x00\x00" * 100)
        with pytest.raises(UnsupportedWavError):
            read_wav(path)

    def test_rejects_8bit(self, tmp_path):
        import wave

        path = tmp_path / "bytes.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(1)
            f.setframerate(16000)
            f.writeframes(b"\x00" * 100)
        with pytest.raises(UnsupportedWavError):
            read_wav(path)

    def test_error_names_path(self, tmp_path):
        import wave

        path = tmp_path / "named.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(b"\x00\x00" * 8)
        with pytest.raises(UnsupportedWavError, match="named.wav"):
            read_wav(path)
