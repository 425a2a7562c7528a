import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from cel.embedding import (
    EmbeddingBatch,
    SimilarityParams,
    cosine,
    normalize,
)
from cel.errors import (
    BatchTooSmallError,
    DimensionMismatchError,
    InvalidParamError,
    ZeroVectorError,
)

finite_vec = arrays(
    np.float64,
    st.integers(2, 8),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
).filter(lambda v: np.linalg.norm(v) > 1e-6)


@given(finite_vec)
def test_normalize_unit_norm(v):
    assert np.linalg.norm(normalize(v)) == pytest.approx(1.0, abs=1e-12)


@given(finite_vec, st.floats(1e-3, 1e3))
def test_normalize_scale_invariant(v, c):
    np.testing.assert_allclose(normalize(v * c), normalize(v), atol=1e-9)


def test_normalize_zero_vector_rejected():
    with pytest.raises(ZeroVectorError):
        normalize(np.zeros(4))


def test_normalize_near_zero_rejected():
    with pytest.raises(ZeroVectorError):
        normalize(np.full(3, 1e-13))


@given(finite_vec)
def test_cosine_self_is_one(v):
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


@given(st.data())
def test_cosine_bounded_and_symmetric(data):
    dim = data.draw(st.integers(2, 6))
    elems = st.floats(-1e3, 1e3, allow_nan=False)
    a = data.draw(arrays(np.float64, dim, elements=elems))
    b = data.draw(arrays(np.float64, dim, elements=elems))
    if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
        return
    c = cosine(a, b)
    assert -1.0 <= c <= 1.0
    assert c == pytest.approx(cosine(b, a), abs=1e-12)


def test_cosine_orthogonal_and_antipodal():
    e1, e2 = np.eye(2)
    assert cosine(e1, e2) == 0.0
    assert cosine(e1, -e1) == -1.0


def test_cosine_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        cosine(np.ones(3), np.ones(4))


def test_similarity_params_validation():
    with pytest.raises(InvalidParamError):
        SimilarityParams(scale=0.0)
    with pytest.raises(InvalidParamError):
        SimilarityParams(scale=-3.0)


def test_normalize_idempotent_bitwise():
    v = np.array([3.0, -4.0, 12.0])
    once = normalize(v)
    np.testing.assert_array_equal(normalize(once), once)


def test_embedding_batch_validation():
    good = np.random.default_rng(0).standard_normal((2, 3, 4))
    b = EmbeddingBatch(good[0], good[1])
    assert b.size == 3
    with pytest.raises(DimensionMismatchError):
        EmbeddingBatch(good[0], good[1][:2])
    with pytest.raises(BatchTooSmallError):
        EmbeddingBatch(good[0][:1], good[1][:1])
    with pytest.raises(DimensionMismatchError):
        EmbeddingBatch(good[0][:, :1], good[1][:, :1])
    with pytest.raises(DimensionMismatchError):
        EmbeddingBatch(good[0][0], good[1][0])
