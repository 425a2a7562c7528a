"""Encoder architecture, exact backprop, Adam, schedule, and checkpoints."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cel.encoder import (
    Encoder,
    EncoderConfig,
    LrSchedule,
    adam_step,
    init_optimizer,
    load_checkpoint,
    load_encoder,
    lr_at,
    save_checkpoint,
    xavier_uniform,
)
from cel.errors import (
    CelError,
    CheckpointMismatchError,
    InvalidParamError,
    NormalizationDegenerateError,
    ShapeMismatchError,
    StaleCacheError,
)
from cel.rng import derive_rng


def small_config():
    return EncoderConfig(input_dim=6, hidden_dims=(8, 7), embedding_dim=5)


def random_setup(frames=9, seed=0):
    """A small encoder with nonzero biases so no ReLU input sits at its kink."""
    cfg = small_config()
    enc = Encoder(cfg)
    rng = derive_rng("enc-setup", seed)
    params = enc.init_params(rng)
    for name in params:
        if name.startswith("b"):
            params[name] = 0.05 * rng.standard_normal(params[name].shape)
    feats = rng.standard_normal((cfg.input_dim, frames))
    return enc, params, feats


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(InvalidParamError):
            EncoderConfig(input_dim=0)
        with pytest.raises(InvalidParamError):
            EncoderConfig(hidden_dims=())
        with pytest.raises(InvalidParamError):
            EncoderConfig(hidden_dims=(16, 0))
        with pytest.raises(InvalidParamError):
            EncoderConfig(embedding_dim=1)

    def test_pooled_dim(self):
        assert small_config().pooled_dim == 7

    def test_dict_round_trip(self):
        cfg = EncoderConfig(input_dim=12, hidden_dims=(5,), embedding_dim=4)
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


class TestInit:
    @given(
        fan_out=st.integers(min_value=1, max_value=64),
        fan_in=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_xavier_bound_and_shape(self, fan_out, fan_in, seed):
        w = xavier_uniform(derive_rng("xavier", seed), fan_out, fan_in)
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (fan_out, fan_in)
        assert np.all(np.abs(w) <= bound)

    def test_param_shapes(self):
        enc = Encoder(small_config())
        assert enc.param_shapes() == {
            "w0": (8, 6),
            "b0": (8,),
            "w1": (7, 8),
            "b1": (7,),
            "w_out": (5, 7),
            "b_out": (5,),
        }

    def test_init_params_zero_bias_bounded_weights(self):
        enc = Encoder(small_config())
        params = enc.init_params(derive_rng("init", 3))
        assert np.all(params["b0"] == 0.0)
        assert np.all(params["b_out"] == 0.0)
        for i, (fan_out, fan_in) in enumerate([(8, 6), (7, 8)]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(params[f"w{i}"]) <= bound)

    def test_init_deterministic(self):
        enc = Encoder(small_config())
        a = enc.init_params(derive_rng("det", 5))
        b = enc.init_params(derive_rng("det", 5))
        for name in a:
            assert np.array_equal(a[name], b[name])


class TestForward:
    def test_unit_norm_output(self):
        enc, params, feats = random_setup()
        out = enc.forward(params, feats)
        assert out.embedding.shape == (5,)
        assert np.linalg.norm(out.embedding) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_feature_shape(self):
        enc, params, _ = random_setup()
        with pytest.raises(ShapeMismatchError):
            enc.forward(params, np.zeros((7, 9)))
        with pytest.raises(ShapeMismatchError):
            enc.forward(params, np.zeros(6))
        with pytest.raises(ShapeMismatchError, match=re.escape("got (6, 0)")):
            enc.forward(params, np.zeros((6, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_a_non_finite_output(self, bad):
        enc, params, feats = random_setup()
        feats[2, 3] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
            NormalizationDegenerateError, match="norm nan"
        ):
            enc.forward(params, feats)

    def test_mean_pooling_collapses_time_order(self):
        enc, params, feats = random_setup(frames=12)
        shuffled = feats[:, ::-1].copy()
        a = enc.forward(params, feats).embedding
        b = enc.forward(params, shuffled).embedding
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_deterministic(self):
        enc, params, feats = random_setup()
        a = enc.forward(params, feats).embedding
        b = enc.forward(params, feats).embedding
        assert np.array_equal(a, b)


class TestBackward:
    def test_stale_cache_rejected(self):
        enc, params, feats = random_setup()
        out = enc.forward(params, feats)
        other = {k: v.copy() for k, v in params.items()}
        with pytest.raises(StaleCacheError):
            enc.backward(other, out, np.ones(5))

    def test_upstream_shape_checked(self):
        enc, params, feats = random_setup()
        out = enc.forward(params, feats)
        with pytest.raises(ShapeMismatchError):
            enc.backward(params, out, np.ones(6))

    def test_param_gradients_match_finite_differences(self):
        enc, params, feats = random_setup(frames=9, seed=11)
        w = derive_rng("probe").standard_normal(5)

        def loss(p):
            return float(np.dot(w, enc.forward(p, feats).embedding))

        out = enc.forward(params, feats)
        back = enc.backward(params, out, w)
        h = 1e-6
        worst = 0.0
        for name, p in params.items():
            num = np.zeros_like(p)
            flat = num.reshape(-1)
            pf = p.reshape(-1)
            for j in range(pf.size):
                orig = pf[j]
                pf[j] = orig + h
                up = loss(params)
                pf[j] = orig - h
                dn = loss(params)
                pf[j] = orig
                flat[j] = (up - dn) / (2 * h)
            got = back[name]
            denom = np.maximum(np.abs(num), 1e-4)
            worst = max(worst, float(np.max(np.abs(got - num) / denom)))
        assert worst < 1e-5


def cached_arrays(cache):
    """Every ndarray a ForwardCache holds, apart from the shared parameters."""
    arrays = []
    for f in dataclasses.fields(cache):
        value = getattr(cache, f.name)
        if f.name != "params":
            arrays += [v for v in (value if isinstance(value, list) else [value])
                       if isinstance(v, np.ndarray)]
    return arrays


def masked_backward(enc, params, cache, upstream):
    """`Encoder.backward`'s arithmetic, with each ReLU mask taken as `z > 0` of
    the pre-activation z, recomputed from the layer's cached input."""
    n = len(enc.config.hidden_dims)
    masks = []
    for i in range(n):
        z = cache.layer_inputs[i] @ params[f"w{i}"].T
        z += params[f"b{i}"]
        masks.append(z > 0)
    e = cache.embedding
    g = np.asarray(upstream, dtype=np.float64)
    g_v = (g - np.dot(g, e) * e) / cache.norm
    grads = {"w_out": np.outer(g_v, cache.pooled), "b_out": g_v}
    h = cache.last_hidden
    g_pooled = (params["w_out"].T @ g_v).astype(h.dtype, copy=False)
    g_z = (g_pooled / h.shape[0]) * masks[-1]
    for i in reversed(range(n)):
        grads[f"w{i}"] = g_z.T @ cache.layer_inputs[i]
        grads[f"b{i}"] = g_z.sum(axis=0)
        if i > 0:
            g_z = g_z @ params[f"w{i}"]
            g_z *= masks[i - 1]
    return grads, masks


class TestForwardCache:
    def test_k200_crop_holds_its_activations_and_no_mask(self):
        # The pretrain-k200 shape: 180 frames through a 40-64-64 encoder.
        cfg = EncoderConfig(input_dim=40, hidden_dims=(64, 64), embedding_dim=64)
        enc = Encoder(cfg)
        rng = derive_rng("cache-bytes")
        params = enc.float32_weights(enc.init_params(rng))
        feats = rng.standard_normal((40, 180)).astype(np.float32)
        arrays = cached_arrays(enc.forward(params, feats))
        assert not [a for a in arrays if a.dtype == np.bool_]
        vectors = sum(a.nbytes for a in arrays if a.ndim == 1)
        assert sum(a.nbytes for a in arrays) <= 180 * (40 + 64 + 64) * 4 + vectors

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_is_bit_equal_to_masks_of_the_pre_activations(self, dtype):
        enc, params, feats = random_setup(frames=9, seed=5)
        # Frame 3 is silent and four layer-0 biases are 0, so those units'
        # pre-activations are exactly 0 there; layer-1 unit 2 has no weights
        # and no bias, so its pre-activation is exactly 0 in every frame.
        feats[:, 3] = 0.0
        params["b0"][:4] = 0.0
        params["w1"][2] = 0.0
        params["b1"][2] = 0.0
        if dtype == np.float32:
            params = enc.float32_weights(params)
        cache = enc.forward(params, feats)
        upstream = derive_rng("probe").standard_normal(5)
        want, masks = masked_backward(enc, params, cache, upstream)
        for i, z_positive in enumerate(masks):
            z = cache.layer_inputs[i] @ params[f"w{i}"].T + params[f"b{i}"]
            assert (z == 0).any() and z_positive.any() and not z_positive.all()
            after = cache.layer_inputs[i + 1] if i + 1 < len(masks) else cache.last_hidden
            assert np.array_equal(after, z * z_positive)
        got = enc.backward(params, cache, upstream)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].tobytes() == want[name].tobytes(), name


class TestSchedule:
    def test_validation(self):
        with pytest.raises(InvalidParamError):
            LrSchedule(initial_lr=0.0)
        with pytest.raises(InvalidParamError):
            LrSchedule(decay_fraction=1.0)
        with pytest.raises(InvalidParamError):
            LrSchedule(period_epochs=0)
        with pytest.raises(InvalidParamError):
            lr_at(LrSchedule(), -1)

    def test_stepwise_decay_values(self):
        s = LrSchedule(initial_lr=0.002, decay_fraction=0.05, period_epochs=10)
        for epoch in range(10):
            assert lr_at(s, epoch) == 0.002
        assert lr_at(s, 10) == 0.002 * 0.95
        assert lr_at(s, 19) == 0.002 * 0.95
        assert lr_at(s, 20) == 0.002 * 0.95**2


class TestAdam:
    def test_matches_reference_trajectory(self):
        rng = derive_rng("adam", 1)
        params = {"w": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
        grad_seq = {
            name: [rng.standard_normal(p.shape) for _ in range(6)]
            for name, p in params.items()
        }
        state = init_optimizer(params)
        current = params
        for step in range(6):
            grads = {name: grad_seq[name][step] for name in params}
            current, state = adam_step(state, current, grads, 0.01)
        for name, p in params.items():
            want = oracles.oracle_adam_steps(p, grad_seq[name], lr=0.01)
            np.testing.assert_allclose(current[name], want, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros((2, 2))}
        state = init_optimizer(params)
        with pytest.raises(ShapeMismatchError):
            adam_step(state, params, {"w": np.zeros(3)}, 0.1)
        with pytest.raises(ShapeMismatchError):
            adam_step(state, params, {}, 0.1)
        with pytest.raises(ShapeMismatchError):
            adam_step(state, {"v": np.zeros(2)}, {"v": np.zeros(2)}, 0.1)

    def test_lr_override(self):
        params = {"w": np.ones(3)}
        grads = {"w": np.ones(3)}
        state = init_optimizer(params)
        small, _ = adam_step(state, params, grads, lr=0.001)
        big, _ = adam_step(state, params, grads, lr=0.1)
        assert np.all(np.abs(1.0 - small["w"]) < np.abs(1.0 - big["w"]))

    def test_state_not_mutated(self):
        params = {"w": np.ones(3)}
        state = init_optimizer(params)
        adam_step(state, params, {"w": np.ones(3)}, 0.1)
        assert state.step == 0
        assert np.all(state.m["w"] == 0.0)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        enc, params, _ = random_setup()
        cfg = enc.config.to_dict()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, cfg, params, meta={"epoch": 3})
        config, loaded, meta = load_checkpoint(path, expected_config=cfg)
        assert config == cfg
        assert meta == {"epoch": 3}
        assert sorted(loaded) == sorted(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name])

    def test_config_mismatch_rejected(self, tmp_path):
        enc, params, _ = random_setup()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, enc.config.to_dict(), params)
        other = dataclasses.replace(small_config(), embedding_dim=4).to_dict()
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path, expected_config=other)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAFILE" + b"\x00" * 16)
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        enc, params, _ = random_setup()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, enc.config.to_dict(), params)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)

    def test_failed_save_leaves_previous_file(self, tmp_path):
        enc, params, _ = random_setup()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, enc.config.to_dict(), params)
        before = path.read_bytes()
        # The header is written before this block fails to convert.
        with pytest.raises(ValueError):
            save_checkpoint(path, enc.config.to_dict(), {**params, "zz": "junk"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["enc.ckpt"]

    def test_load_encoder_checks_config_and_weights(self, tmp_path):
        enc, params, _ = random_setup()
        path = tmp_path / "enc.ckpt"
        good = {"encoder": enc.config.to_dict()}
        save_checkpoint(path, good, {**params, "sim_scale": np.float64(2.0)})
        cfg, loaded = load_encoder(path)
        assert cfg == enc.config
        assert sorted(loaded) == sorted(params)
        for config, weights in [
            (good, {k: v for k, v in params.items() if k != "w1"}),
            (good, {**params, "b0": np.zeros(3)}),
            # What every checkpoint written while pooling was a setting echoes.
            ({"encoder": {**good["encoder"], "pooling": "mean"}}, params),
            ({"encoder": {**good["encoder"], "hidden_dims": "x"}}, params),
            ({}, params),
        ]:
            save_checkpoint(path, config, weights)
            with pytest.raises(CheckpointMismatchError, match=re.escape(str(path))):
                load_encoder(path)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_corrupt_files_raise_only_cel_errors(self, tmp_path_factory, data):
        enc, params, _ = random_setup()
        path = tmp_path_factory.mktemp("fuzz") / "enc.ckpt"
        config = {"encoder": enc.config.to_dict()}
        save_checkpoint(path, config, params, {"epochs_done": 1})
        blob = bytearray(path.read_bytes())
        head_end = 12 + int.from_bytes(blob[8:12], "little")
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            # Mostly flips in the magic, length field and JSON header, where
            # a flip changes structure rather than one weight's value.
            for _ in range(data.draw(st.integers(1, 4), label="flips")):
                at = data.draw(
                    st.integers(0, head_end - 1) | st.integers(0, len(blob) - 1),
                    label="byte",
                )
                blob[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        path.write_bytes(bytes(blob))
        for load in (load_checkpoint, load_encoder):
            try:
                load(path)
            except CelError as exc:
                assert str(path) in str(exc)

    def test_save_is_deterministic(self, tmp_path):
        enc, params, _ = random_setup()
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(a, enc.config.to_dict(), params, meta={"k": 1})
        save_checkpoint(b, enc.config.to_dict(), params, meta={"k": 1})
        assert a.read_bytes() == b.read_bytes()
