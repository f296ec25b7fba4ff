import csv

import numpy as np
import pytest

from mpslab.datagen import (Dataset, TargetSpec, _haar_orthogonal,
                            _target_mps, add_label_noise, build_nilpotent,
                            build_target_mps, generate_dataset,
                            normalize_labels, sample_features,
                            save_dataset_csv)
from mpslab.errors import DegenerateDataError
from mpslab.features import FeatureMap, featurize_batch
from mpslab.mps import compress


def monomial_coefficients(target, n_sites, f):
    """Fit the label polynomial's coefficients on a tensor-product grid."""
    fmap = FeatureMap(dim=f)
    pts = np.linspace(-1.3, 1.1, f)
    grids = np.meshgrid(*([pts] * n_sites), indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)
    y = target.evaluate_batch(featurize_batch(fmap, x))
    vander = np.vander(pts, f, increasing=True)
    a = vander
    for _ in range(n_sites - 1):
        a = np.kron(a, vander)
    return np.linalg.solve(a, y).reshape((f,) * n_sites)


class TestNilpotent:
    def test_order_three_structure(self):
        m = build_nilpotent(3, 0.7)
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 2] = 0.7
        np.testing.assert_array_equal(m, want)
        m2 = m @ m
        assert m2[0, 2] == pytest.approx(0.49)
        assert np.count_nonzero(m2) == 1
        np.testing.assert_array_equal(m @ m @ m, np.zeros((3, 3)))

    def test_size_one_is_zero(self):
        np.testing.assert_array_equal(build_nilpotent(1, 0.5), [[0.0]])

    def test_superdiagonal_powers(self):
        m = build_nilpotent(5, 0.5)
        m4 = np.linalg.matrix_power(m, 4)
        assert m4[0, 4] == pytest.approx(0.0625)
        assert np.count_nonzero(m4) == 1
        np.testing.assert_array_equal(np.linalg.matrix_power(m, 5),
                                      np.zeros((5, 5)))

    def test_nilpotency_exact(self):
        for size in (2, 4, 7):
            m = build_nilpotent(size, 0.9)
            np.testing.assert_array_equal(np.linalg.matrix_power(m, size),
                                          np.zeros((size, size)))


def haar_orthogonal(size, seed):
    return _haar_orthogonal(size, np.random.default_rng(seed))


class TestRandomOrthogonal:
    def test_orthogonality(self):
        for size in (1, 3, 27):
            u = haar_orthogonal(size, seed=size)
            assert np.max(np.abs(u.T @ u - np.eye(size))) <= 1e-12

    def test_size_one_sign(self):
        assert abs(haar_orthogonal(1, seed=4)[0, 0]) == pytest.approx(1.0)

    def test_deterministic(self):
        np.testing.assert_array_equal(haar_orthogonal(5, seed=9),
                                      haar_orthogonal(5, seed=9))

    def test_conjugated_powers(self):
        m = build_nilpotent(6, 0.4)
        u = haar_orthogonal(6, seed=11)
        conj = u @ m @ u.T
        for k in range(1, 7):
            lhs = np.linalg.matrix_power(conj, k)
            rhs = u @ np.linalg.matrix_power(m, k) @ u.T
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestTargetMps:
    def test_identity_like_boundaries_coefficient(self):
        # left slices e1^T M^k, right slices M^k e3: the polynomial collapses
        # to eps^2 * x1 * x2
        eps = 0.37
        spec = TargetSpec(n_sites=2, phys_dim=2, epsilon=eps, chi_target=3,
                          apply_unitary=False, seed=0)
        e1 = np.array([1.0, 0.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
        target = build_target_mps(spec, left_boundary=e1, right_boundary=e3)
        coeffs = monomial_coefficients(target, 2, 2)
        want = np.zeros((2, 2))
        want[1, 1] = eps**2
        np.testing.assert_allclose(coeffs, want, atol=1e-12)

    def test_epsilon_prefactor_ratio_law(self):
        # coefficients of total degree n scale as eps^n, all seeds fixed
        coeff = {}
        for eps in (0.2, 0.4):
            spec = TargetSpec(n_sites=3, phys_dim=3, epsilon=eps, chi_target=5,
                              seed=7)
            coeff[eps] = monomial_coefficients(build_target_mps(spec), 3, 3)
        degree = np.add.outer(np.add.outer(np.arange(3), np.arange(3)),
                              np.arange(3))
        mask = np.abs(coeff[0.2]) > 1e-10
        ratio = coeff[0.4][mask] / coeff[0.2][mask]
        expected = 2.0 ** degree[mask]
        assert np.max(np.abs(ratio - expected) / expected) <= 1e-8

    def test_small_epsilon_nearly_constant(self):
        eps = 1e-9
        spec = TargetSpec(n_sites=4, phys_dim=3, epsilon=eps, chi_target=6,
                          seed=3)
        target = build_target_mps(spec)
        fmap = FeatureMap(dim=3)
        x = np.random.default_rng(5).standard_normal((50, 4))
        y = target.evaluate_batch(featurize_batch(fmap, x))
        assert np.max(np.abs(y - y.mean())) <= 1e-6

    def test_center_bond_27(self):
        spec = TargetSpec(n_sites=6, phys_dim=3, epsilon=0.3, chi_target=27,
                          seed=0)
        full = build_target_mps(spec).to_full_tensor()
        w, _ = compress(full, max_bond=64)
        assert w.bond_dims == [3, 9, 27, 9, 3]
        # the stronger, intended claim: the center matricization has full
        # numerical rank, not just nonzero fp singular values
        s = np.linalg.svd(full.reshape(27, 27), compute_uv=False)
        assert np.count_nonzero(s > s[0] * 1e-12) == 27

    def test_per_variable_degree_capped(self):
        # order-f finite difference in any single variable annihilates the
        # label polynomial (per-variable degree <= f-1)
        spec = TargetSpec(n_sites=3, phys_dim=3, epsilon=0.5, chi_target=4,
                          seed=1)
        target = build_target_mps(spec)
        fmap = FeatureMap(dim=3)
        rng = np.random.default_rng(2)
        for var in range(3):
            base = rng.standard_normal(3)
            h = 0.37
            signs = np.array([1.0, -3.0, 3.0, -1.0])  # third difference
            total = 0.0
            for k, s in enumerate(signs):
                x = base.copy()
                x[var] += k * h
                total += s * target.evaluate_batch(
                    featurize_batch(fmap, x[None]))[0]
            assert abs(total) <= 1e-8

    def test_bond_extents(self):
        spec = TargetSpec(n_sites=5, phys_dim=3, epsilon=0.3, chi_target=9,
                          seed=0)
        target = build_target_mps(spec)
        assert target.bond_dims == [9, 9, 9, 9]

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            TargetSpec(epsilon=0.0)
        with pytest.raises(ValueError):
            TargetSpec(epsilon=1.5)
        with pytest.raises(ValueError):
            TargetSpec(chi_target=1)


class TestSampling:
    def test_deterministic(self):
        np.testing.assert_array_equal(sample_features(20, 4, seed=5),
                                      sample_features(20, 4, seed=5))

    def test_seeds_differ(self):
        a = sample_features(20, 4, seed=5)
        b = sample_features(20, 4, seed=6)
        assert np.any(a != b)

    def test_law_of_large_numbers(self):
        x = sample_features(100_000, 1, seed=0)
        assert abs(x.mean()) <= 0.02
        assert abs(x.std() - 1.0) <= 0.02


class TestGenerateDataset:
    def test_normalization_exact(self):
        d = generate_dataset(TargetSpec(seed=0), 200, seed=1)
        assert abs(d.labels.mean()) <= 1e-12
        assert abs(d.labels.std() - 1.0) <= 1e-12

    def test_replicates_share_target_bitwise(self):
        spec = TargetSpec(seed=3)
        a = build_target_mps(spec)
        b = build_target_mps(spec)
        for ca, cb in zip(a.cores, b.cores):
            np.testing.assert_array_equal(ca, cb)

    def test_cached_target_read_only_and_bitwise(self):
        """Datasets share one read-only target per spec and are labelled
        as by a freshly built one, bit for bit."""
        spec = TargetSpec(epsilon=0.4, seed=3)
        d = generate_dataset(spec, 50, seed=8)
        target = _target_mps(spec)
        assert _target_mps(TargetSpec(epsilon=0.4, seed=3)) is target
        assert not any(core.flags.writeable for core in target.cores)
        with pytest.raises(ValueError):
            target.cores[0][0, 0, 0] = 1.0
        raw = build_target_mps(spec).evaluate_batch(
            featurize_batch(FeatureMap(dim=spec.phys_dim), d.features))
        labels, mean, std = normalize_labels(raw)
        np.testing.assert_array_equal(d.labels, labels)
        assert (d.label_mean, d.label_std) == (mean, std)

    def test_unnormalized_std_grows_with_epsilon(self):
        lo = generate_dataset(TargetSpec(epsilon=0.3, seed=0), 500, seed=9)
        hi = generate_dataset(TargetSpec(epsilon=1.0, seed=0), 500, seed=9)
        assert hi.label_std > lo.label_std

    def test_normalized_labels_exactly_representable(self):
        # the affine normalization is absorbable at the target's bond profile
        spec = TargetSpec(epsilon=0.3, seed=0)
        d = generate_dataset(spec, 100, seed=4)
        full = build_target_mps(spec).to_full_tensor()
        shifted = full.copy()
        shifted[(0,) * spec.n_sites] -= d.label_mean
        shifted /= d.label_std
        model, _ = compress(shifted, max_bond=27)
        fmap = FeatureMap(dim=3)
        pred = model.evaluate_batch(featurize_batch(fmap, d.features))
        assert 0.5 * np.mean((pred - d.labels) ** 2) <= 1e-10

    def test_target_labels_reproduced_by_full_rank_compression(self):
        spec = TargetSpec(epsilon=0.3, seed=0)
        target = build_target_mps(spec)
        model, _ = compress(target.to_full_tensor(), max_bond=27)
        fmap = FeatureMap(dim=3)
        x = sample_features(50, 6, seed=12)
        phi = featurize_batch(fmap, x)
        raw = target.evaluate_batch(phi)
        np.testing.assert_allclose(model.evaluate_batch(phi), raw, rtol=1e-10)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateDataError):
            normalize_labels(np.full(10, 3.2))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            generate_dataset(TargetSpec(seed=0), 1, seed=0)


class TestLabelNoise:
    def test_zero_fraction_unchanged(self):
        labels = np.arange(10) % 3
        np.testing.assert_array_equal(
            add_label_noise(labels, 0.0, 3, seed=0), labels)

    def test_full_fraction_no_fixed_points(self):
        labels = np.random.default_rng(1).integers(0, 10, size=500)
        noisy = add_label_noise(labels, 1.0, 10, seed=2)
        assert np.all(noisy != labels)
        assert np.all((noisy >= 0) & (noisy < 10))

    def test_exact_count(self):
        labels = np.zeros(1024, dtype=int)
        noisy = add_label_noise(labels, 0.1, 10, seed=3)
        assert np.count_nonzero(noisy != labels) == 102

    def test_deterministic(self):
        labels = np.arange(64) % 10
        np.testing.assert_array_equal(add_label_noise(labels, 0.25, 10, 7),
                                      add_label_noise(labels, 0.25, 10, 7))

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            add_label_noise(np.zeros(8, dtype=int), 0.5, 1, seed=0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            add_label_noise(np.zeros(8, dtype=int), 1.5, 10, seed=0)


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by save_dataset_csv.

    The CSV carries samples only; the affine normalization record is reset
    to the identity and the seed to -1 (unknown provenance).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    data = np.asarray(rows)
    if data.shape[1] != len(header):
        raise ValueError("row width does not match header")
    return Dataset(features=data[:, :-1], labels=data[:, -1],
                   label_mean=0.0, label_std=1.0, seed=-1)


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        d = generate_dataset(TargetSpec(seed=0), 40, seed=2)
        path = tmp_path / "data.csv"
        save_dataset_csv(d, path)
        with open(path) as fh:
            assert fh.readline().strip() == "x1,x2,x3,x4,x5,x6,y"
        back = load_dataset_csv(path)
        np.testing.assert_array_equal(back.features, d.features)
        np.testing.assert_array_equal(back.labels, d.labels)
