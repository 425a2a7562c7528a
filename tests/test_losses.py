import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cel.embedding import EmbeddingBatch, SimilarityParams
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
from cel.losses import (
    CelWeights,
    KernelParam,
    acont_loss,
    aprot_loss,
    combine_losses,
    gaussian_potential,
    pairwise_uniformity,
    similarity_loss,
    total_loss,
    uniformity_loss,
)


def random_batch(rng, k=4, m=5):
    """Unit-vector batch, as produced by the encoder's normalized output."""
    v1, v2 = rng.standard_normal((2, k, m))
    v1 /= np.linalg.norm(v1, axis=1, keepdims=True)
    v2 /= np.linalg.norm(v2, axis=1, keepdims=True)
    return EmbeddingBatch(v1, v2)


def batch_strategy(max_k=6, max_m=6):
    return st.builds(
        lambda seed, k, m: random_batch(np.random.default_rng(seed), k, m),
        st.integers(0, 2**32 - 1),
        st.integers(2, max_k),
        st.integers(2, max_m),
    )


class TestGaussianPotential:
    def test_identical_points(self):
        e = np.array([1.0, 0.0])
        assert gaussian_potential(e, e, KernelParam(2.0)) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_endpoint(self):
        a, b = np.eye(2)
        assert gaussian_potential(a, b, KernelParam(2.0)) == pytest.approx(
            math.exp(-4.0), abs=1e-12
        )

    def test_antipodal_endpoint(self):
        a = np.array([1.0, 0.0])
        assert gaussian_potential(a, -a, KernelParam(2.0)) == pytest.approx(
            math.exp(-8.0), abs=1e-12
        )

    @given(st.integers(0, 2**32 - 1), st.floats(0.5, 4.0))
    def test_range(self, seed, t):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((2, 4))
        a = raw[0] / np.linalg.norm(raw[0])
        b = raw[1] / np.linalg.norm(raw[1])
        g = gaussian_potential(a, b, KernelParam(t))
        assert math.exp(-4.0 * t) - 1e-12 <= g <= 1.0


class TestUniformity:
    def test_orthogonal_pair_value(self):
        x = np.eye(2)
        value, _ = pairwise_uniformity(x, KernelParam(2.0))
        assert value == pytest.approx(-4.0, abs=1e-10)

    def test_batch_orthogonal_value(self):
        batch = EmbeddingBatch(np.eye(2), np.eye(2))
        out = uniformity_loss(batch, KernelParam(2.0))
        assert out.value == pytest.approx(-4.0, abs=1e-10)

    def test_antipodal_floor(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        value, _ = pairwise_uniformity(x, KernelParam(2.0))
        assert value == pytest.approx(-8.0, abs=1e-10)

    @given(batch_strategy(), st.floats(0.5, 3.0))
    @settings(max_examples=60)
    def test_bounds(self, batch, t):
        out = uniformity_loss(batch, KernelParam(t))
        assert -4.0 * t - 1e-9 <= out.value <= 1e-9

    @given(batch_strategy())
    @settings(max_examples=40)
    def test_matches_oracle(self, batch):
        out = uniformity_loss(batch, KernelParam(2.0))
        want = oracles.oracle_uniformity(batch.view1, batch.view2, 2.0)
        assert out.value == pytest.approx(want, abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, 5, 4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = EmbeddingBatch(batch.view1 @ q, batch.view2 @ q)
        a = uniformity_loss(batch, KernelParam(2.0)).value
        b = uniformity_loss(rotated, KernelParam(2.0)).value
        assert abs(a - b) < 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, 6, 3)
        perm = rng.permutation(6)
        shuffled = EmbeddingBatch(batch.view1[perm], batch.view2[perm])
        a = uniformity_loss(batch, KernelParam(2.0)).value
        b = uniformity_loss(shuffled, KernelParam(2.0)).value
        assert abs(a - b) < 1e-12

    def test_gradient_matches_finite_difference(self, rng):
        batch = random_batch(rng, 4, 3)
        out = uniformity_loss(batch, KernelParam(2.0))
        arrays = {"view1": batch.view1, "view2": batch.view2}
        num = finite_difference(
            lambda a: uniformity_loss(EmbeddingBatch(a["view1"], a["view2"]), KernelParam(2.0)).value,
            arrays,
        )
        errs = relative_errors({k: out.grads[k] for k in arrays}, num)
        assert max(e.max() for e in errs.values()) < 1e-6


class TestSimilarityLosses:
    def test_aprot_orthogonal_worked_example(self):
        batch = EmbeddingBatch(np.eye(2), np.eye(2))
        out = aprot_loss(batch, SimilarityParams(1.0))
        assert out.value == pytest.approx(math.log(1 + math.exp(-1.0)), abs=1e-10)

    def test_acont_orthogonal_worked_example(self):
        batch = EmbeddingBatch(np.eye(2), np.eye(2))
        out = acont_loss(batch, SimilarityParams(1.0))
        assert out.value == pytest.approx(math.log(1 + math.exp(-1.0)), abs=1e-10)

    @given(batch_strategy())
    @settings(max_examples=40)
    def test_aprot_matches_oracle(self, batch):
        out = aprot_loss(batch, SimilarityParams(10.0))
        want = oracles.oracle_aprot(batch.view1, batch.view2)
        assert out.value == pytest.approx(want, abs=1e-10)

    @given(batch_strategy())
    @settings(max_examples=40)
    def test_acont_matches_oracle(self, batch):
        out = acont_loss(batch, SimilarityParams(10.0))
        want = oracles.oracle_acont(batch.view1, batch.view2)
        assert out.value == pytest.approx(want, abs=1e-10)

    @given(batch_strategy())
    @settings(max_examples=40)
    def test_acont_view_swap_symmetry(self, batch):
        p = SimilarityParams(7.0)
        a = acont_loss(batch, p).value
        swapped = EmbeddingBatch(batch.view2, batch.view1)
        b = acont_loss(swapped, p).value
        assert a == pytest.approx(b, abs=1e-12)

    @given(batch_strategy(), st.sampled_from(["aprot", "acont"]))
    @settings(max_examples=40)
    def test_permutation_invariance(self, batch, kind):
        rng = np.random.default_rng(0)
        perm = rng.permutation(batch.size)
        shuffled = EmbeddingBatch(batch.view1[perm], batch.view2[perm])
        p = SimilarityParams(10.0)
        a = similarity_loss(batch, p, kind).value
        b = similarity_loss(shuffled, p, kind).value
        assert abs(a - b) < 1e-12

    def test_aprot_positive_pairs_certain(self):
        # One tight cluster per index, far apart: loss approaches 0.
        v = np.eye(3) * 1.0
        batch = EmbeddingBatch(v, v)
        out = aprot_loss(batch, SimilarityParams(30.0))
        assert out.value < 1e-8

    def test_gradients_match_finite_difference(self, rng):
        batch = random_batch(rng, 3, 4)
        p = SimilarityParams(8.0)
        for kind, fn in (("aprot", aprot_loss), ("acont", acont_loss)):
            out = fn(batch, p)
            arrays = {
                "view1": batch.view1,
                "view2": batch.view2,
                "scale": np.array(p.scale),
            }

            def f(a):
                return fn(
                    EmbeddingBatch(a["view1"], a["view2"]),
                    SimilarityParams(float(a["scale"])),
                ).value

            num = finite_difference(f, arrays)
            errs = relative_errors({k: out.grads[k] for k in arrays}, num)
            assert max(e.max() for e in errs.values()) < 1e-6, kind


class TestTotalLoss:
    @given(batch_strategy(), st.floats(0.1, 2.0))
    @settings(max_examples=30)
    def test_matches_oracle(self, batch, lam):
        out = total_loss(
            batch,
            KernelParam(2.0),
            SimilarityParams(10.0),
            CelWeights(uniformity_weight=lam),
        )
        want = oracles.oracle_total(batch.view1, batch.view2, lam=lam)
        assert out.value == pytest.approx(want, abs=1e-9)

    def test_lambda_zero_drops_uniformity_exactly(self, rng):
        batch = random_batch(rng, 4, 3)
        p = SimilarityParams(10.0)
        total = total_loss(batch, KernelParam(2.0), p, CelWeights(uniformity_weight=0.0))
        sim = aprot_loss(batch, p)
        assert total.value == sim.value
        for name, g in sim.grads.items():
            np.testing.assert_array_equal(total.grads[name], g)

    def test_combine_is_weighted_sum(self, rng):
        batch = random_batch(rng, 5, 4)
        p = SimilarityParams(10.0)
        unif = uniformity_loss(batch, KernelParam(2.0))
        sim = aprot_loss(batch, p)
        out = combine_losses(unif, sim, CelWeights(uniformity_weight=0.7))
        assert out.value == pytest.approx(0.7 * unif.value + sim.value, abs=1e-12)
        np.testing.assert_allclose(
            out.grads["view1"], 0.7 * unif.grads["view1"] + sim.grads["view1"], atol=1e-12
        )


def _two_view(loss):
    return lambda rng: loss(random_batch(rng, 4, 3))


def _classifier(loss):
    def run(rng):
        batch = LabeledBatch(random_batch(rng, 6, 3).view1, np.array([0, 1, 2, 0, 1, 2]), 3)
        return loss(batch, rng.standard_normal((3, 3)))

    return run


SIM, KERNEL = SimilarityParams(10.0), KernelParam(2.0)
TWO_VIEW_SIM = {"view1", "view2", "scale"}
CLASSIFIER = {"embeddings", "weights"}

# Each loss and the arrays it depends on.
GRADIENT_KEYS = {
    "uniformity": (_two_view(lambda b: uniformity_loss(b, KERNEL)), {"view1", "view2"}),
    "aprot": (_two_view(lambda b: aprot_loss(b, SIM)), TWO_VIEW_SIM),
    "acont": (_two_view(lambda b: acont_loss(b, SIM)), TWO_VIEW_SIM),
    "total": (_two_view(lambda b: total_loss(b, KERNEL, SIM, CelWeights(1.0))), TWO_VIEW_SIM),
    "total-unweighted": (
        _two_view(lambda b: total_loss(b, KERNEL, SIM, CelWeights(0.0))), TWO_VIEW_SIM
    ),
    "ge2e": (lambda rng: ge2e_loss(rng.standard_normal((3, 2, 4)), SIM), {"embeddings", "scale"}),
    "cosface": (_classifier(lambda b, w: cosface_loss(b, w, MarginConfig())), CLASSIFIER),
    "arcface": (_classifier(lambda b, w: arcface_loss(b, w, MarginConfig())), CLASSIFIER),
    "adacos": (_classifier(lambda b, w: adacos_loss(b, w, AdaCosState(scale=8.0))), CLASSIFIER),
}


@pytest.mark.parametrize("name", GRADIENT_KEYS)
def test_gradient_keys_are_the_arrays_the_loss_depends_on(rng, name):
    run, keys = GRADIENT_KEYS[name]
    assert set(run(rng).grads) == keys
