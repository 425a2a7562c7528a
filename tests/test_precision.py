"""The precision contract: float32 from waveform to log-mel, float64 in the model.

Samples come from 16-bit PCM, so float32 loses none of their information. The
encoder casts its input to float64, and its embeddings and gradients, the
losses and Adam stay float64.
"""

import numpy as np
import pytest

from cel.augment import AugmentKind, AugmentSpec, apply_rir, apply_spec, crop_two
from cel.corpus import utterance_waveform
from cel.encoder import Encoder, EncoderConfig
from cel.features import (
    FeatureConfig,
    Waveform,
    frame_signal,
    logmel,
    mel_filterbank,
    read_wav,
    write_wav,
)
from cel.rng import derive_rng


def float64_logmel(samples: np.ndarray, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """logmel's steps in float64, on the same float32 samples."""
    frames = frame_signal(samples.astype(np.float64), cfg.win_length, cfg.hop_length)
    spectrum = np.fft.rfft(frames * np.hamming(cfg.win_length), n=cfg.n_fft, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    bank = mel_filterbank(cfg.n_mels, cfg.n_fft, cfg.f_min, cfg.f_max)
    values = np.log(bank @ power.T + cfg.log_floor)
    return values - values.mean(axis=1, keepdims=True)


class TestDataPathIsFloat32:
    def test_waveforms_from_every_source(self, tiny_manifest, tiny_bank, tmp_path):
        assert Waveform(np.zeros(8)).samples.dtype == np.float32
        utterance = utterance_waveform(tiny_manifest, 0, 0)
        assert utterance.samples.dtype == np.float32
        for noise in tiny_bank.noises:
            assert noise.samples.dtype == np.float32
        for rir in tiny_bank.rirs:
            assert rir.dtype == np.float32 and not rir.flags.writeable
        write_wav(tmp_path / "u.wav", utterance)
        assert read_wav(tmp_path / "u.wav").samples.dtype == np.float32

    def test_crops_augmentations_and_features(self, tiny_manifest, tiny_bank):
        crop, crop2 = crop_two(
            utterance_waveform(tiny_manifest, 0, 0), 60, derive_rng("precision")
        )
        assert crop.samples.dtype == crop2.samples.dtype == np.float32
        assert apply_rir(crop, np.ones(3)).samples.dtype == np.float32  # direct path
        assert apply_rir(crop, tiny_bank.rirs[0]).samples.dtype == np.float32  # FFT path
        for kind in AugmentKind:
            spec = AugmentSpec(kind, snr_db=5.0, noise_index=0, noise_offset=0, rir_index=0)
            out = apply_spec(crop, spec, tiny_bank)
            assert out.samples.dtype == np.float32, kind
            assert logmel(out).values.dtype == np.float32, kind


class TestModelIsFloat64:
    def test_embeddings_and_gradients(self, tiny_manifest):
        cfg = EncoderConfig(input_dim=40, hidden_dims=(16, 16), embedding_dim=8)
        enc = Encoder(cfg)
        params = enc.init_params(derive_rng("precision-init"))
        feats = logmel(utterance_waveform(tiny_manifest, 1, 0)).values
        assert feats.dtype == np.float32
        fwd = enc.forward(params, feats)
        assert fwd.embedding.dtype == np.float64
        upstream = derive_rng("precision-upstream").standard_normal(cfg.embedding_dim)
        grads = enc.backward(params, fwd, upstream)
        assert set(grads) == set(params)
        for name, g in grads.items():
            assert g.dtype == np.float64, name


class TestFloat32LogmelAccuracy:
    def test_broadband_input_within_1e5(self, rng):
        samples = np.clip(0.3 * rng.standard_normal(29040), -1.0, 1.0).astype(np.float32)
        got = logmel(Waveform(samples)).values
        assert np.max(np.abs(got - float64_logmel(samples))) <= 1e-5

    @pytest.mark.parametrize("speaker", range(4))
    def test_synthetic_speech_within_1e3(self, tiny_manifest, speaker):
        # The quietest mel bands of a clean synthetic utterance hold about a
        # millionth of the median band energy, near the 1e-6 log floor. There
        # the float32 FFT's rounding, small against the frame's loudest bins,
        # is a large share of the band energy, and the log turns it into up to
        # 4.1e-4 (worst over the 192 utterances of configs/desk.json's corpus).
        samples = utterance_waveform(tiny_manifest, speaker, 0).samples
        got = logmel(Waveform(samples)).values
        assert np.max(np.abs(got - float64_logmel(samples))) <= 1e-3
