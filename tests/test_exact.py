import numpy as np
import pytest

from mpslab.datagen import Dataset, TargetSpec, generate_dataset
from mpslab.errors import CapacityError
from mpslab.dmrg import MSE, data_loss
from mpslab.exact import (build_design_system, design_matrix,
                          inversion_and_compression, solve_full_weight)
from mpslab.features import FeatureMap, featurize_batch, full_feature_tensor
from mpslab.mps import compress


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
