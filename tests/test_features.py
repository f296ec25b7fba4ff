import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab.features import (POLYNOMIAL, FeatureMap, SiteFeatures,
                             featurize_batch, full_feature_tensor)


def apply_scalar(fmap, x):
    """Feature-map oracle: embed one scalar feature into a length-f
    vector, straight from the map's definition."""
    if not np.isfinite(x):
        raise ValueError(f"feature value must be finite, got {x}")
    if fmap.kind == POLYNOMIAL:
        return np.float64(x) ** np.arange(fmap.dim)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"trigonometric map needs x in [0, 1], got {x}")
    half_pi_x = 0.5 * np.pi * x
    return np.array([np.cos(half_pi_x), np.sin(half_pi_x)])


def featurize_one(fmap, x):
    """(N, f) local vectors of one sample, through the batch API."""
    return featurize_batch(fmap, np.asarray(x, dtype=np.float64)[None, :])[0]


def test_polynomial_basic():
    fmap = FeatureMap(dim=3)
    np.testing.assert_allclose(featurize_one(fmap, [2.0, 0.0]),
                               [[1.0, 2.0, 4.0], [1.0, 0.0, 0.0]])


def test_trigonometric_endpoint():
    fmap = FeatureMap(kind="trigonometric", dim=2)
    np.testing.assert_allclose(featurize_one(fmap, [1.0, 0.0]),
                               [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_trigonometric_domain_error():
    fmap = FeatureMap(kind="trigonometric", dim=2)
    with pytest.raises(ValueError):
        featurize_batch(fmap, np.array([[1.5]]))
    with pytest.raises(ValueError):
        featurize_batch(fmap, np.array([[0.5, -0.1]]))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        featurize_batch(FeatureMap(dim=3), np.array([[1.0, np.inf]]))


def test_invalid_map_parameters():
    with pytest.raises(ValueError):
        FeatureMap(kind="fourier", dim=3)
    with pytest.raises(ValueError):
        FeatureMap(dim=1)
    with pytest.raises(ValueError):
        FeatureMap(kind="trigonometric", dim=3)


def test_featurize_locals():
    fmap = FeatureMap(dim=3)
    locals_ = featurize_one(fmap, [1.0, 2.0])
    np.testing.assert_allclose(locals_, [[1, 1, 1], [1, 2, 4]])


def test_featurize_empty_raises():
    fmap = FeatureMap(dim=3)
    with pytest.raises(ValueError):
        featurize_batch(fmap, np.zeros((1, 0)))
    with pytest.raises(ValueError):
        featurize_batch(fmap, np.array([]))


def test_single_site_reduces_to_apply_scalar():
    fmap = FeatureMap(dim=4)
    np.testing.assert_allclose(featurize_one(fmap, [1.7])[0],
                               apply_scalar(fmap, 1.7))


def test_outer_product_matches_full_tensor():
    """Entrywise oracle for the implicit f^N feature tensor at N=6."""
    fmap = FeatureMap(dim=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6)
    locals_ = featurize_one(fmap, x)
    full = full_feature_tensor(locals_)
    assert full.shape == (3,) * 6
    for idx in itertools.product(range(3), repeat=6):
        want = np.prod([x[j] ** idx[j] for j in range(6)])
        assert full[idx] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_polynomial_recurrence():
    fmap = FeatureMap(dim=5)
    rng = np.random.default_rng(1)
    vecs = featurize_one(fmap, rng.standard_normal(10))
    for x, vec in zip(vecs[:, 1], vecs):
        np.testing.assert_allclose(vec[1:], x * vec[:-1], rtol=1e-12)


def test_batch_agrees_with_single():
    """Every entry of a batch is the scalar oracle's vector."""
    rng = np.random.default_rng(2)
    for fmap, x in ((FeatureMap(dim=3), rng.standard_normal((4, 5))),
                    (FeatureMap(kind="trigonometric", dim=2),
                     rng.uniform(0, 1, size=(4, 5)))):
        batch = featurize_batch(fmap, x)
        for i, j in itertools.product(range(4), range(5)):
            np.testing.assert_allclose(batch[i, j],
                                       apply_scalar(fmap, x[i, j]),
                                       rtol=1e-15, atol=1e-15)


# finite values whose powers up to x^5 stay normal: 0 (both signs), and
# magnitudes from 1e-30 to 1e30 of either sign
FEATURE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e30, -1e30]),
    st.floats(-1e30, 1e30, allow_nan=False).filter(
        lambda v: v == 0.0 or abs(v) >= 1e-30))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4),
       st.lists(FEATURE_VALUES, min_size=1, max_size=24))
def test_polynomial_columns_are_running_products(dim, t, values):
    """Column k is (...((1 * x) * x)...) * x, k multiplies, bit for bit,
    and within k ulp of pow(x, k)."""
    x = np.resize(np.array(values), t * len(values)).reshape(t, -1)
    phi = featurize_batch(FeatureMap(dim=dim), x)
    assert phi.shape == x.shape + (dim,)
    product = np.ones_like(x)
    for k in range(dim):
        assert np.array_equal(phi[:, :, k], product)
        power = x ** k
        assert np.all(np.abs(phi[:, :, k] - power)
                      <= k * np.spacing(np.abs(power)))
        product = product * x


TRIG = FeatureMap(kind="trigonometric", dim=2)


def bits(a):
    """The float64 entries of ``a`` as their bit patterns, so -0.0 and
    0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def feature_matrices(draw):
    """(map, x): a polynomial or trigonometric map and a (T, N) matrix of
    values it embeds, laid out C-contiguous, Fortran-ordered, or as a
    strided view.  T reaches past a SIMD tail, so a host whose vector
    cos/sin rounds a lone column differently from the matrix shows."""
    fmap = draw(st.sampled_from([FeatureMap(dim=2), FeatureMap(dim=4), TRIG]))
    t, n = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    values = (st.floats(0.0, 1.0) if fmap.kind != POLYNOMIAL
              else FEATURE_VALUES)
    x = np.array(draw(st.lists(values, min_size=t * n, max_size=t * n)),
                 dtype=np.float64).reshape(t, n)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        padded = np.zeros((2 * t, 3 * n))
        padded[::2, 1::3] = x
        x = padded[::2, 1::3]
    return fmap, x


@settings(max_examples=200, deadline=None)
@given(feature_matrices())
def test_site_features_columns_are_the_batch_columns(case):
    """sf[:, j] is featurize_batch(fmap, x)[:, j], bit for bit, for every
    site: per-site training then reproduces array training exactly."""
    fmap, x = case
    sf = SiteFeatures(fmap, x)
    batch = featurize_batch(fmap, x)
    assert sf.shape == batch.shape
    for j in range(x.shape[1]):
        assert np.array_equal(bits(sf[:, j]), bits(batch[:, j])), j


@settings(max_examples=100, deadline=None)
@given(feature_matrices(), st.data())
def test_site_features_reject_as_featurize_batch_does(case, data):
    """A NaN, or a trigonometric value outside [0, 1], raises when the
    features are made, with featurize_batch's message."""
    fmap, x = case
    bad = [np.nan] + ([-0.25, 1.5] if fmap.kind != POLYNOMIAL else [])
    x = np.array(x)
    x[data.draw(st.integers(0, x.shape[0] - 1)),
      data.draw(st.integers(0, x.shape[1] - 1))] = data.draw(
        st.sampled_from(bad))
    with pytest.raises(ValueError) as batch_error:
        featurize_batch(fmap, x)
    with pytest.raises(ValueError, match=re.escape(str(batch_error.value))):
        SiteFeatures(fmap, x)


def test_site_features_read_one_site():
    sf = SiteFeatures(TRIG, np.full((3, 4), 0.5))
    assert sf[:, -1].shape == (3, 2)
    for key in ((0, 1), (slice(None), slice(0, 2)), 1):
        with pytest.raises(TypeError):
            sf[key]
