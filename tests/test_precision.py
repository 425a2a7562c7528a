"""The precision contract: float32 from waveform to log-mel and in the encoder's
frame layers, float64 in the projection, the embeddings and the optimizer.

Samples come from 16-bit PCM, so float32 loses none of their information. The
encoder computes its frame layers and pooling in the dtype of the weights it
is given: training and embedding give it a float32 copy of the float64 master
weights. Its projection and embeddings, the losses, the summed gradients,
Adam and the checkpoints stay float64. Given float64 weights, as `cel
gradcheck` gives it, every output is float64.
"""

import numpy as np
import pytest

from cel.augment import AugmentKind, AugmentSpec, apply_rir, apply_spec, crop_two
from cel.corpus import utterance_waveform
from cel import trainer
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
from cel.trainer import CorpusSource, FinetuneConfig, PretrainConfig, finetune, pretrain


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


# (encoder, frames): the desk encoder at its fine-tuning crop length, and the
# full-scale encoder at its pre-training crop length.
SHAPES = {
    "desk": (EncoderConfig(hidden_dims=(48, 48), embedding_dim=32), 300),
    "fullscale": (EncoderConfig(hidden_dims=(64, 64), embedding_dim=64), 180),
}


class TestEncoderPrecision:
    @staticmethod
    def _case(tiny_manifest, shape: str):
        """(encoder, float64 weights, float32 features, upstream gradient)."""
        config, frames = SHAPES[shape]
        enc = Encoder(config)
        rng = derive_rng("precision", shape)
        params = enc.init_params(rng)
        for name, p in params.items():
            if name.startswith("b"):
                params[name] = 0.1 * rng.standard_normal(p.shape)
        feats = logmel(utterance_waveform(tiny_manifest, 1, 0)).values[:, :frames]
        assert feats.dtype == np.float32 and feats.shape[1] == frames
        return enc, params, feats, rng.standard_normal(config.embedding_dim)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_float64_weights_give_float64_outputs(self, tiny_manifest, shape):
        enc, params, feats, upstream = self._case(tiny_manifest, shape)
        fwd = enc.forward(params, feats)
        for a in (*fwd.layer_inputs, fwd.pooled, fwd.last_hidden, fwd.embedding):
            assert a.dtype == np.float64
        grads = enc.backward(params, fwd, upstream)
        assert set(grads) == set(params)
        for name, g in grads.items():
            assert g.dtype == np.float64, name

    @pytest.mark.parametrize("shape", SHAPES)
    def test_float32_weights_stay_close_to_float64(self, tiny_manifest, shape):
        enc, params, feats, upstream = self._case(tiny_manifest, shape)
        weights = enc.float32_weights(params)
        assert set(weights) == set(params)
        assert all(w.dtype == np.float32 for w in weights.values())
        fwd = enc.forward(weights, feats)
        for a in (*fwd.layer_inputs, fwd.last_hidden, fwd.pooled):
            assert a.dtype == np.float32
        assert fwd.embedding.dtype == np.float64
        assert abs(np.linalg.norm(fwd.embedding) - 1.0) <= 1e-12
        exact = enc.forward(params, feats)
        assert np.max(np.abs(fwd.embedding - exact.embedding)) <= 1e-5
        grads = enc.backward(weights, fwd, upstream)
        want = enc.backward(params, exact, upstream)
        assert set(grads) == set(want)
        for name, g in grads.items():
            err = np.max(np.abs(g - want[name])) / np.max(np.abs(want[name]))
            assert err <= 1e-5, (name, err)


class TestTrainingPrecision:
    @pytest.mark.parametrize("phase", ["pretrain", "finetune"])
    def test_encoder_gets_float32_weights_and_adam_float64(
        self, tiny_manifest, tiny_bank, monkeypatch, phase
    ):
        source = CorpusSource(tiny_manifest)
        enc_cfg = EncoderConfig(hidden_dims=(16,), embedding_dim=8)
        handed, updated = [], []
        forward, backward, adam_step = Encoder.forward, Encoder.backward, trainer.adam_step

        def recorded_forward(self, params, features):
            handed.append(params)
            return forward(self, params, features)

        def recorded_backward(self, params, cache, upstream):
            handed.append(params)
            return backward(self, params, cache, upstream)

        def recorded_adam(state, params, grads, lr):
            new, state = adam_step(state, params, grads, lr)
            updated.extend([params, grads, new, state.m, state.v])
            return new, state

        monkeypatch.setattr(Encoder, "forward", recorded_forward)
        monkeypatch.setattr(Encoder, "backward", recorded_backward)
        monkeypatch.setattr(trainer, "adam_step", recorded_adam)
        if phase == "pretrain":
            cfg = PretrainConfig(k=3, epochs=1, frames=60)
            pretrain(source, cfg, enc_cfg, bank=tiny_bank)
            own = "sim_scale"
        else:
            cfg = FinetuneConfig(objective="cosface", speakers_per_batch=3, frames=60, epochs=1)
            finetune(source, cfg, enc_cfg)
            own = "cls_w"
        # One copy per step, handed to every forward and backward pass of it.
        assert handed and len({id(w) for w in handed}) == len(updated) // 5
        encoder_blocks = set(Encoder(enc_cfg).param_shapes())
        for weights in handed:
            assert set(weights) == encoder_blocks
            assert all(w.dtype == np.float32 for w in weights.values())
        for blocks in updated:
            assert set(blocks) == encoder_blocks | {own}
            for name, a in blocks.items():
                assert np.asarray(a).dtype == np.float64, name


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
