import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab.datagen import Dataset, TargetSpec, generate_dataset
from mpslab.errors import CapacityError, DimensionMismatchError
from mpslab.dmrg import MSE, data_loss
from mpslab.exact import (build_design_system, design_matrix,
                          inversion_and_compression, solve_full_weight)
from mpslab.features import FeatureMap, featurize_batch, full_feature_tensor
from mpslab.mps import compress
from mpslab.tensor import solve_linear


def tiny_dataset(t, n, seed, labels=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((t, n))
    y = rng.standard_normal(t) if labels is None else np.asarray(labels, float)
    return Dataset(features=x, labels=y, label_mean=0.0, label_std=1.0,
                   seed=seed)


def design_system(d, fmap, ridge):
    return build_design_system(featurize_batch(fmap, d.features), d.labels,
                               ridge)


def brute_force_system(d, fmap, ridge):
    """Double-loop oracle for A and b over explicit feature tensors."""
    dim = fmap.dim ** d.n_features
    a = ridge * np.eye(dim)
    b = np.zeros(dim)
    for i in range(d.n_samples):
        phi = full_feature_tensor(
            featurize_batch(fmap, d.features[i:i + 1])[0]).ravel()
        a += np.outer(phi, phi) / d.n_samples
        b += d.labels[i] * phi / d.n_samples
    return a, b


class TestBuildDesignSystem:
    def test_single_sample_zero_label(self):
        fmap = FeatureMap(dim=2)
        d = tiny_dataset(1, 2, seed=0, labels=[0.0])
        sysm = design_system(d, fmap, ridge=0.5)
        v = design_matrix(featurize_batch(fmap, d.features))[0]
        np.testing.assert_allclose(sysm.a, 0.5 * np.eye(4) + np.outer(v, v),
                                   atol=1e-14)
        np.testing.assert_array_equal(sysm.b, np.zeros(4))

    def test_dimension_n6(self):
        sysm = design_system(
            generate_dataset(TargetSpec(seed=0), 10, seed=1),
            FeatureMap(dim=3), ridge=1e-6)
        assert sysm.a.shape == (729, 729)
        assert sysm.shape == (3,) * 6

    def test_matches_brute_force_oracle(self):
        fmap = FeatureMap(dim=2)
        d = tiny_dataset(7, 2, seed=3)
        sysm = design_system(d, fmap, ridge=0.01)
        a, b = brute_force_system(d, fmap, 0.01)
        np.testing.assert_allclose(sysm.a, a, atol=1e-12)
        np.testing.assert_allclose(sysm.b, b, atol=1e-12)

    def test_vec_ordering_is_row_major(self):
        # kron order must match to_full_tensor's C-order flattening
        fmap = FeatureMap(dim=3)
        d = tiny_dataset(1, 2, seed=4)
        z = design_matrix(featurize_batch(fmap, d.features))
        full = full_feature_tensor(featurize_batch(fmap, d.features)[0])
        np.testing.assert_allclose(z[0], full.ravel(order="C"), atol=1e-14)

    def test_symmetry_and_positive_definiteness(self):
        d = generate_dataset(TargetSpec(seed=1), 50, seed=2)
        sysm = design_system(d, FeatureMap(dim=3), ridge=1e-6)
        assert np.max(np.abs(sysm.a - sysm.a.T)) <= 1e-12
        np.linalg.cholesky(sysm.a)  # raises if not PD

    def test_capacity_guard(self):
        d = tiny_dataset(3, 9, seed=5)
        with pytest.raises(CapacityError):
            design_system(d, FeatureMap(dim=3), ridge=1e-6)

    def test_ridge_must_be_positive(self):
        d = tiny_dataset(3, 2, seed=6)
        with pytest.raises(ValueError):
            design_system(d, FeatureMap(dim=2), ridge=0.0)

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1)])
    def test_label_shape_must_match_samples(self, shape):
        phi = featurize_batch(FeatureMap(dim=2),
                              tiny_dataset(5, 2, seed=0).features)
        with pytest.raises(DimensionMismatchError,
                           match=re.escape(f"5 featurized samples but "
                                           f"labels of shape {shape}")):
            build_design_system(phi, np.zeros(shape), 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_labels_must_be_finite(self, bad):
        phi = featurize_batch(FeatureMap(dim=2),
                              tiny_dataset(5, 2, seed=0).features)
        y = np.zeros(5)
        y[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            build_design_system(phi, y, 1e-3)


class TestSolveFullWeight:
    def test_zero_labels_give_zero_weight(self):
        fmap = FeatureMap(dim=2)
        d = tiny_dataset(5, 3, seed=7, labels=np.zeros(5))
        w = solve_full_weight(design_system(d, fmap, 1e-4))
        np.testing.assert_array_equal(w, np.zeros((2, 2, 2)))

    def test_stationarity(self):
        d = generate_dataset(TargetSpec(seed=0), 100, seed=8)
        sysm = design_system(d, FeatureMap(dim=3), 1e-6)
        w = solve_full_weight(sysm)
        grad = sysm.a @ w.ravel() - sysm.b
        assert np.max(np.abs(grad)) <= 1e-8 * max(1.0, np.linalg.norm(sysm.b))

    def test_matches_normal_equations_oracle(self):
        fmap = FeatureMap(dim=2)
        d = tiny_dataset(3, 2, seed=9)
        w = solve_full_weight(design_system(d, fmap, 0.1))
        a, b = brute_force_system(d, fmap, 0.1)
        np.testing.assert_allclose(w.ravel(), np.linalg.solve(a, b),
                                   rtol=1e-10)

    def test_full_data_training_mse(self):
        # independent samples beyond f^N pin the weight tensor
        d = generate_dataset(TargetSpec(epsilon=0.3, seed=0), 900, seed=10)
        fmap = FeatureMap(dim=3)
        w, _ = compress(solve_full_weight(design_system(d, fmap, 1e-6)),
                        27)
        pred = w.evaluate_batch(featurize_batch(fmap, d.features))
        assert 2 * data_loss(pred, d.labels, MSE) <= 1e-6

    def test_ridge_shrinkage(self):
        d = generate_dataset(TargetSpec(seed=2), 80, seed=11)
        fmap = FeatureMap(dim=3)
        norms = [np.linalg.norm(
            solve_full_weight(design_system(d, fmap, lam)))
            for lam in (1e-8, 1e-4, 1e-1)]
        assert norms[1] <= norms[0] + 1e-10
        assert norms[2] <= norms[1] + 1e-10


def primal_weight(phi, y, ridge):
    """The primal normal-equations solve, written out: A = Z^T Z / T +
    ridge I, b = Z^T y / T, one LU solve."""
    z = design_matrix(phi)
    a = (z.T @ z) / len(y)
    a[np.diag_indices_from(a)] += ridge
    return solve_linear(a, z.T @ y / len(y))


# T relative to f^N: below it the dual solve runs, at and above it the primal
REGIMES = {"under": -1, "square": 0, "over": 1}
SVD_RTOL = 1e-8


class TestSolveFullWeightProperties:
    """Both solve paths against the SVD ridge reference
    V diag(s / (s^2 + T ridge)) U^T y of Z = U diag(s) V^T, to SVD_RTOL
    relative (the condition number of A stays below about 1e5 here, so an
    LU solve is good to about 1e-11); primal stationarity A w = b; and the
    primal path bitwise equal to ``primal_weight``."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), f=st.sampled_from([2, 3]),
           regime=st.sampled_from(sorted(REGIMES)), extra=st.integers(1, 6),
           ridge=st.sampled_from([1e-3, 1e-1, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_svd_reference(self, n, f, regime, extra, ridge, seed):
        dim = f**n
        t = max(1, dim + REGIMES[regime] * extra)
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal((t, n, f))
        y = rng.standard_normal(t)
        system = build_design_system(phi, y, ridge)
        w = solve_full_weight(system)
        assert w.shape == (f,) * n
        w = w.ravel()
        u, s, vt = np.linalg.svd(system.z, full_matrices=False)
        ref = vt.T @ (s / (s**2 + t * ridge) * (u.T @ y))
        scale = max(np.linalg.norm(ref), 1e-300)
        assert np.linalg.norm(w - ref) <= SVD_RTOL * scale
        residual = system.a @ w - system.b
        assert np.linalg.norm(residual) <= SVD_RTOL * max(
            np.linalg.norm(system.b), 1e-300)
        if t >= dim:
            assert np.array_equal(w, primal_weight(phi, y, ridge))


class TestInversionAndCompression:
    def test_full_rank_equals_full_solution(self):
        d = generate_dataset(TargetSpec(epsilon=0.3, seed=0), 200, seed=12)
        test = generate_dataset(TargetSpec(epsilon=0.3, seed=0), 256, seed=13)
        fmap = FeatureMap(dim=3)
        full = solve_full_weight(design_system(d, fmap, 1e-6))
        w27 = inversion_and_compression(d, fmap, 1e-6, 27)
        phi = featurize_batch(fmap, test.features)
        direct = np.tensordot(full.ravel(),
                              np.array([full_feature_tensor(p).ravel()
                                        for p in phi]).T, axes=1)
        np.testing.assert_allclose(w27.evaluate_batch(phi), direct,
                                   rtol=1e-10, atol=1e-12)

    def test_chi_one_matches_compress_route(self):
        d = generate_dataset(TargetSpec(epsilon=0.3, seed=0), 150, seed=14)
        fmap = FeatureMap(dim=3)
        full = solve_full_weight(design_system(d, fmap, 1e-6))
        via_op = inversion_and_compression(d, fmap, 1e-6, 1)
        via_compress, _ = compress(full, 1)
        phi = featurize_batch(fmap, d.features)
        np.testing.assert_allclose(via_op.evaluate_batch(phi),
                                   via_compress.evaluate_batch(phi),
                                   rtol=1e-8, atol=1e-10)

    def test_bond_cap_respected(self):
        d = generate_dataset(TargetSpec(seed=3), 60, seed=15)
        w = inversion_and_compression(d, FeatureMap(dim=3), 1e-6, 5)
        assert w.max_bond <= 5
