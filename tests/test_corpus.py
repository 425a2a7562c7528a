"""Synthetic speaker corpus: reproducibility, parameter ranges, separability."""

import numpy as np
import pytest
from scipy.signal import lfilter

from cel import augment
from cel.augment import synth_bank
from cel.corpus import (
    MIN_UTTERANCE_SAMPLES,
    _resonator_coeffs,
    build_manifest,
    gen_speaker,
    gen_utterance,
    load_manifest,
    load_utterance,
    save_manifest,
    separability,
    speaker_id,
    speaker_profile,
    utterance_id,
    utterance_waveform,
    write_corpus,
)
from cel.errors import CorpusTooSmallError, SchemaError, TooShortError
from cel.features import SAMPLE_RATE, Waveform, read_wav
from cel.rng import derive_rng


def serial_utterance(profile, duration_s, rng, min_samples=MIN_UTTERANCE_SAMPLES):
    """`gen_utterance` with its harmonic source summed over all samples at once."""
    n = int(round(duration_s * SAMPLE_RATE))
    if n < min_samples:
        raise TooShortError(f"{n} < {min_samples}")
    t = np.arange(n) / SAMPLE_RATE
    shift = 1.0 + rng.uniform(-0.04, 0.04)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    formant_scale = rng.uniform(0.92, 1.08, size=len(profile.formant_hz))
    tilt = rng.uniform(-0.35, 0.35)
    noise_scale = rng.uniform(0.5, 2.0)
    contour = profile.f0_hz * shift * (
        1.0 + profile.jitter_depth * np.sin(2.0 * np.pi * profile.jitter_rate_hz * t + phase0)
    )
    phase = 2.0 * np.pi * np.cumsum(contour) / SAMPLE_RATE
    max_f0 = float(contour.max())
    source = np.zeros(n)
    for k, amp in enumerate(profile.harmonic_amps, start=1):
        if k * max_f0 >= SAMPLE_RATE / 2:
            break
        source += amp * float(k) ** tilt * np.sin(k * phase)
    source += profile.noise_level * noise_scale * rng.standard_normal(n)
    x = source
    for freq, bw, fs in zip(profile.formant_hz, profile.formant_bw_hz, formant_scale):
        b, a = _resonator_coeffs(freq * fs, bw)
        x = lfilter(b, a, x)
    return Waveform(x / np.max(np.abs(x)) * 0.5)


class TestProfiles:
    def test_parameter_ranges_over_many_speakers(self):
        for i in range(1000):
            p = gen_speaker(derive_rng("profiles", i))
            assert 80.0 <= p.f0_hz <= 300.0
            f1, f2 = p.formant_hz
            assert 350.0 <= f1 <= 1400.0
            assert f2 <= 3400.0
            assert f2 >= f1 + 300.0
            assert 60.0 <= p.formant_bw_hz[0] <= 200.0
            assert 80.0 <= p.formant_bw_hz[1] <= 260.0
            assert 0.01 <= p.jitter_depth <= 0.05
            assert 1.0 <= p.jitter_rate_hz <= 5.0
            assert 0.01 <= p.noise_level <= 0.03
            assert np.all(p.harmonic_amps > 0.0)

    def test_distinct_seeds_distinct_voices(self):
        a = gen_speaker(derive_rng("v", 0))
        b = gen_speaker(derive_rng("v", 1))
        assert a.f0_hz != b.f0_hz


class TestUtterances:
    def test_peak_exactly_half(self):
        p = gen_speaker(derive_rng("peak"))
        w = gen_utterance(p, 4.0, derive_rng("peak-utt"))
        assert np.max(np.abs(w.samples)) == 0.5

    def test_expected_length(self):
        p = gen_speaker(derive_rng("len"))
        w = gen_utterance(p, 4.5, derive_rng("len-utt"))
        assert len(w) == int(round(4.5 * SAMPLE_RATE))

    def test_too_short_rejected(self):
        p = gen_speaker(derive_rng("short"))
        with pytest.raises(TooShortError):
            gen_utterance(p, 0.005, derive_rng("short-utt"))

    def test_takes_differ_within_speaker(self):
        m = build_manifest(2, 2, 4.0, seed=41)
        a = utterance_waveform(m, 0, 0)
        b = utterance_waveform(m, 0, 1)
        assert np.max(np.abs(a.samples - b.samples)) > 1e-3

    def test_regeneration_is_bitwise_stable(self):
        m = build_manifest(2, 1, 4.0, seed=42)
        a = utterance_waveform(m, 1, 0)
        b = utterance_waveform(m, 1, 0)
        assert np.array_equal(a.samples, b.samples)


POOL_SIZES = (None, 1, 2, 3, 8)


class TestPooledSynthesis:
    # 64,001 samples: no worker count above divides it. 5 samples: fewer
    # than 8 workers, so some sample ranges are empty.
    @pytest.mark.parametrize(
        "duration_s,min_samples",
        [
            (4.0, MIN_UTTERANCE_SAMPLES),
            (2.5, 1),
            (64_001 / SAMPLE_RATE, MIN_UTTERANCE_SAMPLES),
            (5 / SAMPLE_RATE, 1),
        ],
    )
    def test_bit_equal_to_serial_sum_on_every_pool(self, on_pools, duration_s, min_samples):
        profile = gen_speaker(derive_rng("pooled", round(duration_s * SAMPLE_RATE)))
        want = serial_utterance(profile, duration_s, derive_rng("pooled-utt"), min_samples)
        got = on_pools(
            lambda n: gen_utterance(profile, duration_s, derive_rng("pooled-utt"), min_samples),
            POOL_SIZES,
        )
        for w in got.values():
            assert w.samples.tobytes() == want.samples.tobytes()

    def test_babble_bit_equal_to_serial_sum_on_every_pool(self, monkeypatch, on_pools):
        def noises(n=None):
            bank = synth_bank(seed=8, n_each=1, noise_duration_s=16_001 / SAMPLE_RATE)
            return [w.samples.tobytes() for w in bank.noises]

        with monkeypatch.context() as m:
            m.setattr(augment, "gen_utterance", serial_utterance)
            want = noises()
        for got in on_pools(noises, POOL_SIZES).values():
            assert got == want


class TestManifest:
    def test_shape_and_ids(self, tiny_manifest):
        m = tiny_manifest
        assert m.n_speakers == 4
        assert m.utterances_per_speaker == 2
        assert len(m.entries) == 8
        assert m.entries[0].relative_path == f"{speaker_id(0)}/{utterance_id(0)}.wav"

    def test_too_small_rejected(self):
        with pytest.raises(CorpusTooSmallError):
            build_manifest(1, 4, 4.0, seed=0)
        with pytest.raises(CorpusTooSmallError):
            build_manifest(4, 0, 4.0, seed=0)

    def test_save_load_round_trip(self, tiny_manifest, tmp_path):
        path = tmp_path / "manifest.tsv"
        save_manifest(tiny_manifest, path)
        back = load_manifest(path)
        assert back == tiny_manifest

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("spk000\tutt000\tspk000/utt000.wav\n")
        with pytest.raises(SchemaError):
            load_manifest(path)

    def test_header_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("# [1, 2]\nspk000\tutt000\tspk000/utt000.wav\n")
        with pytest.raises(SchemaError, match="malformed manifest"):
            load_manifest(path)

    def test_garbled_body_rejected(self, tmp_path, tiny_manifest):
        path = tmp_path / "manifest.tsv"
        save_manifest(tiny_manifest, path)
        text = path.read_text().splitlines()
        text[1] = "only-one-field"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(SchemaError):
            load_manifest(path)

    def test_profile_depends_only_on_seed_and_index(self, tiny_manifest):
        other = build_manifest(9, 5, 2.0, seed=tiny_manifest.seed)
        a = speaker_profile(tiny_manifest, 2)
        b = speaker_profile(other, 2)
        assert a.f0_hz == b.f0_hz
        assert np.array_equal(a.harmonic_amps, b.harmonic_amps)


class TestWrittenCorpus:
    def test_write_read_and_rerun_identical(self, tmp_path):
        m = build_manifest(2, 2, 4.0, seed=55)
        root_a = tmp_path / "a"
        root_b = tmp_path / "b"
        path_a = write_corpus(m, root_a)
        write_corpus(m, root_b)
        back = load_manifest(path_a)
        assert back == m
        for entry in m.entries:
            bytes_a = (root_a / entry.relative_path).read_bytes()
            bytes_b = (root_b / entry.relative_path).read_bytes()
            assert bytes_a == bytes_b

    def test_load_utterance_matches_regeneration_to_quantization(self, tmp_path):
        m = build_manifest(2, 1, 4.0, seed=56)
        root = tmp_path / "c"
        write_corpus(m, root)
        disk = load_utterance(root, m.entries[0])
        fresh = utterance_waveform(m, 0, 0)
        assert np.max(np.abs(disk.samples - fresh.samples)) <= (0.5 + 0.5) / 32768

    def test_loaded_wav_peak_near_half(self, tmp_path):
        m = build_manifest(2, 1, 4.0, seed=57)
        root = tmp_path / "d"
        write_corpus(m, root)
        w = read_wav(root / m.entries[0].relative_path)
        assert abs(np.max(np.abs(w.samples)) - 0.5) < 1e-3


class TestSeparability:
    def test_margin_at_least_ten_percent(self, tiny_manifest):
        same, cross, margin = separability(tiny_manifest)
        assert cross > same
        assert margin >= 0.10

    def test_returns_positive_distances(self, tiny_manifest):
        same, cross, _ = separability(tiny_manifest)
        assert same > 0.0
        assert cross > 0.0
