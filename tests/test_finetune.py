import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cel.embedding import SimilarityParams
from cel.errors import (
    BatchShapeInvalidError,
    BatchTooSmallError,
    InvalidParamError,
    LabelOutOfRangeError,
    SingleClassError,
)
from cel.finetune import (
    AdaCosState,
    LabeledBatch,
    MarginConfig,
    adacos_loss,
    arcface_loss,
    cosface_loss,
    ge2e_loss,
)
from cel.gradcheck import finite_difference, relative_errors


def unit_rows(rng, n, m):
    x = rng.standard_normal((n, m))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def grouped_rows(rng, speakers, utterances, dim):
    return unit_rows(rng, speakers * utterances, dim).reshape(speakers, utterances, dim)


class TestLabeledBatch:
    def test_label_range_enforced(self, rng):
        emb = unit_rows(rng, 4, 3)
        with pytest.raises(LabelOutOfRangeError):
            LabeledBatch(emb, np.array([0, 1, 2, 3]), num_classes=3)

    def test_labels_shape_enforced(self, rng):
        emb = unit_rows(rng, 4, 3)
        with pytest.raises(BatchShapeInvalidError):
            LabeledBatch(emb, np.array([0, 1]), num_classes=2)

    def test_too_small(self, rng):
        with pytest.raises(BatchTooSmallError):
            LabeledBatch(unit_rows(rng, 1, 3), np.array([0]), num_classes=1)


class TestGe2e:
    def test_two_speaker_worked_example(self):
        # 2 speakers x 2 utterances in 2-d; identical embeddings per speaker,
        # orthogonal across speakers.
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        emb = np.stack([[e1, e1], [e2, e2]])
        out = ge2e_loss(emb, SimilarityParams(1.0, 0.0))
        # Own score 1, other score 0: each row CE = log(1 + e^-1).
        assert out.value == pytest.approx(math.log(1 + math.exp(-1.0)), abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=30)
    def test_matches_oracle(self, seed, speakers, utterances):
        rng = np.random.default_rng(seed)
        emb = grouped_rows(rng, speakers, utterances, 5)
        out = ge2e_loss(emb, SimilarityParams(10.0, -5.0))
        groups = [list(speaker) for speaker in emb]
        assert out.value == pytest.approx(oracles.oracle_ge2e(groups), abs=1e-10)

    def test_gradient_matches_finite_difference(self, rng):
        emb = grouped_rows(rng, 3, 3, 4)
        p = SimilarityParams(5.0, -1.0)
        out = ge2e_loss(emb, p)
        assert out.grads["embeddings"].shape == emb.shape
        arrays = {
            "embeddings": emb,
            "scale": np.array(p.scale),
            "bias": np.array(p.bias),
        }

        def f(a):
            return ge2e_loss(a["embeddings"], SimilarityParams(float(a["scale"]), float(a["bias"]))).value

        num = finite_difference(f, arrays)
        errs = relative_errors({k: out.grads[k] for k in arrays}, num)
        assert max(e.max() for e in errs.values()) < 1e-6

    @pytest.mark.parametrize("shape", [(4, 3), (1, 4, 3), (4, 1, 3)])
    def test_requires_speakers_by_utterances(self, rng, shape):
        emb = rng.standard_normal(shape)
        with pytest.raises(BatchShapeInvalidError):
            ge2e_loss(emb, SimilarityParams(10.0, -5.0))


def margin_case(rng, n=6, classes=3, dim=4):
    emb = unit_rows(rng, n, dim)
    labels = np.array([i % classes for i in range(n)])
    weights = unit_rows(rng, classes, dim)
    return LabeledBatch(emb, labels, num_classes=classes), weights


class TestMarginLosses:
    def test_cosface_worked_example(self):
        # Single class pair, embedding aligned with its class weight.
        emb = np.array([[1.0, 0.0], [1.0, 0.0]])
        weights = np.array([[1.0, 0.0], [0.0, 1.0]])
        batch = LabeledBatch(emb, np.array([0, 0]), num_classes=2)
        out = cosface_loss(batch, weights, MarginConfig(margin=0.2, scale=30.0))
        want = oracles.oracle_cosface(emb, [0, 0], weights, m=0.2, s=30.0)
        assert out.value == pytest.approx(want, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_cosface_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        batch, weights = margin_case(rng)
        out = cosface_loss(batch, weights, MarginConfig(0.2, 30.0))
        want = oracles.oracle_cosface(batch.embeddings, list(batch.labels), weights)
        assert out.value == pytest.approx(want, abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_arcface_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        batch, weights = margin_case(rng)
        out = arcface_loss(batch, weights, MarginConfig(0.2, 30.0))
        want = oracles.oracle_arcface(batch.embeddings, list(batch.labels), weights)
        assert out.value == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("kw, name", [
        ({"margin": -0.1}, "margin"), ({"scale": 0.0}, "scale"), ({"scale": -1.0}, "scale"),
    ])
    def test_bad_margin_or_scale_is_an_invalid_param(self, kw, name):
        with pytest.raises(InvalidParamError, match=f"^{name} must be"):
            MarginConfig(**kw)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_margin_zero_reductions_agree(self, seed):
        rng = np.random.default_rng(seed)
        batch, weights = margin_case(rng)
        cfg = MarginConfig(margin=0.0, scale=30.0)
        a = cosface_loss(batch, weights, cfg).value
        b = arcface_loss(batch, weights, cfg).value
        want = oracles.oracle_cosface(batch.embeddings, list(batch.labels), weights, m=0.0)
        assert a == pytest.approx(b, abs=1e-10)
        assert a == pytest.approx(want, abs=1e-10)

    def test_gradients_match_finite_difference(self, rng):
        batch, weights = margin_case(rng, n=8, classes=4, dim=5)
        cfg = MarginConfig(0.2, 8.0)
        for fn in (cosface_loss, arcface_loss):
            out = fn(batch, weights, cfg)
            arrays = {"embeddings": batch.embeddings, "weights": weights}

            def f(a):
                b = LabeledBatch(a["embeddings"], batch.labels, batch.num_classes)
                return fn(b, a["weights"], cfg).value

            num = finite_difference(f, arrays)
            errs = relative_errors({k: out.grads[k] for k in arrays}, num)
            assert max(e.max() for e in errs.values()) < 1e-6, fn.__name__

    def test_permutation_invariance(self, rng):
        batch, weights = margin_case(rng, n=9, classes=3)
        perm = rng.permutation(9)
        shuffled = LabeledBatch(
            batch.embeddings[perm], batch.labels[perm], batch.num_classes
        )
        cfg = MarginConfig(0.2, 30.0)
        for fn in (cosface_loss, arcface_loss):
            assert abs(fn(batch, weights, cfg).value - fn(shuffled, weights, cfg).value) < 1e-12


class TestAdaCos:
    def test_initial_scale(self):
        state = AdaCosState.for_classes(10)
        assert state.scale == pytest.approx(math.sqrt(2.0) * math.log(9.0), abs=1e-12)

    def test_two_class_floor_and_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = AdaCosState.for_classes(2)
        assert state.scale == pytest.approx(1e-3)
        assert any("scale" in str(w.message).lower() for w in caught)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            AdaCosState.for_classes(1)

    def test_value_is_scaled_ce_at_current_scale(self, rng):
        batch, weights = margin_case(rng)
        state = AdaCosState.for_classes(batch.num_classes)
        s0 = state.scale
        out = adacos_loss(batch, weights, state, update_scale=False)
        want = oracles.oracle_adacos_value(
            batch.embeddings, list(batch.labels), weights, s0
        )
        assert out.value == pytest.approx(want, abs=1e-10)
        assert state.scale == s0 and state.steps == 0

    def test_scale_update_matches_oracle(self, rng):
        batch, weights = margin_case(rng)
        state = AdaCosState.for_classes(batch.num_classes)
        s0 = state.scale
        adacos_loss(batch, weights, state, update_scale=True)
        want = oracles.oracle_adacos_next_scale(
            batch.embeddings, list(batch.labels), weights, s0
        )
        assert state.scale == pytest.approx(want, abs=1e-10)
        assert state.steps == 1

    def test_loss_value_uses_pre_update_scale(self, rng):
        batch, weights = margin_case(rng)
        frozen = AdaCosState.for_classes(batch.num_classes)
        live = AdaCosState.for_classes(batch.num_classes)
        a = adacos_loss(batch, weights, frozen, update_scale=False).value
        b = adacos_loss(batch, weights, live, update_scale=True).value
        assert a == b

    def test_gradient_with_frozen_scale(self, rng):
        batch, weights = margin_case(rng, n=8, classes=4, dim=5)
        state = AdaCosState.for_classes(4)
        out = adacos_loss(batch, weights, state, update_scale=False)
        arrays = {"embeddings": batch.embeddings, "weights": weights}

        def f(a):
            b = LabeledBatch(a["embeddings"], batch.labels, batch.num_classes)
            return adacos_loss(
                b, a["weights"], AdaCosState.for_classes(4), update_scale=False
            ).value

        num = finite_difference(f, arrays)
        errs = relative_errors({k: out.grads[k] for k in arrays}, num)
        assert max(e.max() for e in errs.values()) < 1e-6
