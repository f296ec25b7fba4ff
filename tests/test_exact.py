import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab import exact
from mpslab.datagen import Dataset, TargetSpec, generate_dataset
from mpslab.errors import CapacityError, DimensionMismatchError
from mpslab.dmrg import MSE, data_loss, frame_labels
from mpslab.exact import (build_design_system, design_halves, design_matrix,
                          evaluate_halves, inversion_and_compression,
                          inversion_fits, solve_full_weight)
from mpslab.experiments import (TEST_SEED_OFFSET, ExperimentConfig,
                                emit_outputs, run_bond_scan)
from mpslab.features import FeatureMap, featurize_batch, full_feature_tensor
from mpslab.mps import compress
from mpslab.tensor import row_outer, solve_linear


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


def normal_equations(phi, y, ridge):
    """The primal normal equations, written out on ``design_matrix``:
    A = Z^T Z / T + ridge I and b = Z^T y / T."""
    z = design_matrix(phi)
    a = (z.T @ z) / len(y)
    a[np.diag_indices_from(a)] += ridge
    return a, z.T @ y / len(y)


def primal_weight(phi, y, ridge):
    """The primal normal-equations solve, written out: one LU solve of
    ``normal_equations``."""
    return solve_linear(*normal_equations(phi, y, ridge))


class TestBuildDesignSystem:
    def test_single_sample_zero_label(self):
        """One sample v: the system holds v, its label and the ridge, a
        zero label gives b = 0 and so w = 0, and a unit label gives
        w = (0.5 I + v v^T)^-1 v = v / (0.5 + v.v)."""
        fmap = FeatureMap(dim=2)
        d = tiny_dataset(1, 2, seed=0, labels=[0.0])
        sysm = design_system(d, fmap, ridge=0.5)
        v = design_matrix(featurize_batch(fmap, d.features))[0]
        assert np.array_equal(row_outer(sysm.left, sysm.right)[0], v)
        assert (sysm.y.tolist(), sysm.ridge) == ([0.0], 0.5)
        np.testing.assert_array_equal(solve_full_weight(sysm),
                                      np.zeros((2, 2)))
        unit = build_design_system(featurize_batch(fmap, d.features),
                                   np.ones(1), 0.5)
        np.testing.assert_allclose(solve_full_weight(unit).ravel(),
                                   v / (0.5 + v @ v), rtol=1e-14)

    def test_dimension_n6(self):
        sysm = design_system(
            generate_dataset(TargetSpec(seed=0), 10, seed=1),
            FeatureMap(dim=3), ridge=1e-6)
        assert sysm.left.shape == sysm.right.shape == (10, 27)
        assert sysm.shape == (3,) * 6
        assert solve_full_weight(sysm).shape == (3,) * 6

    def test_matches_brute_force_oracle(self):
        fmap = FeatureMap(dim=2)
        d = tiny_dataset(7, 2, seed=3)
        sysm = design_system(d, fmap, ridge=0.01)
        a, b = brute_force_system(d, fmap, 0.01)
        z = row_outer(sysm.left, sysm.right)
        np.testing.assert_allclose(z.T @ z / 7 + sysm.ridge * np.eye(4), a,
                                   atol=1e-12)
        np.testing.assert_allclose(z.T @ sysm.y / 7, b, atol=1e-12)
        # 7 samples of f^N = 4 features: the primal path
        np.testing.assert_allclose(solve_full_weight(sysm).ravel(),
                                   np.linalg.solve(a, b), rtol=1e-10)

    def test_vec_ordering_is_row_major(self):
        # kron order must match to_full_tensor's C-order flattening
        fmap = FeatureMap(dim=3)
        d = tiny_dataset(1, 2, seed=4)
        z = design_matrix(featurize_batch(fmap, d.features))
        full = full_feature_tensor(featurize_batch(fmap, d.features)[0])
        np.testing.assert_allclose(z[0], full.ravel(order="C"), atol=1e-14)

    def test_symmetry_and_positive_definiteness(self):
        """A is symmetric positive definite, so the fit's hat matrix
        H = Z A^-1 Z^T / T, column j the training outputs of the fit to
        the j-th unit label, is symmetric with eigenvalues in [0, 1)."""
        d = generate_dataset(TargetSpec(seed=1), 50, seed=2)
        phi = featurize_batch(FeatureMap(dim=3), d.features)
        a, _ = normal_equations(phi, d.labels, 1e-6)
        assert np.max(np.abs(a - a.T)) <= 1e-12
        np.linalg.cholesky(a)  # raises if not PD
        z = design_matrix(phi)
        hat = np.stack([z @ solve_full_weight(
            build_design_system(phi, e, 1e-6)).ravel() for e in np.eye(50)],
            axis=1)
        atol = 1e-10  # roundoff of O(1) entries: 2e-14 measured
        assert np.max(np.abs(hat - hat.T)) <= atol
        eig = np.linalg.eigvalsh((hat + hat.T) / 2)
        assert -atol <= eig.min() and eig.max() < 1.0

    def test_capacity_guard(self):
        d = tiny_dataset(3, 9, seed=5)
        with pytest.raises(CapacityError):
            design_system(d, FeatureMap(dim=3), ridge=1e-6)

    def test_ridge_must_be_positive(self):
        d = tiny_dataset(3, 2, seed=6)
        with pytest.raises(ValueError):
            design_system(d, FeatureMap(dim=2), ridge=0.0)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf])
    def test_non_finite_ridge_rejected_by_name(self, ridge):
        d = tiny_dataset(3, 2, seed=6)
        with pytest.raises(ValueError, match="^ridge must be finite"):
            design_system(d, FeatureMap(dim=2), ridge=ridge)

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


def sequential_design(phi):
    """Row-major flattened feature tensors, one site at a time."""
    z = np.ones((phi.shape[0], 1))
    for j in range(phi.shape[1]):
        z = row_outer(z, phi[:, j])
    return z


class TestDesignHalves:
    """The half-chain designs factor the design matrix at the middle bond:
    its rows bit for bit, and the Gram and the evaluation built on them
    to roundoff, 1e-12 relative to the same products on absolute values
    (they sum at most f^N = 729 products)."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), f=st.sampled_from([2, 3]),
           t=st.integers(1, 64), k=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_halves_factor_design(self, n, f, t, k, seed):
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal((t, n, f))
        left, right = design_halves(phi)
        assert np.array_equal(left, sequential_design(phi[:, :n // 2]))
        assert np.array_equal(right, sequential_design(phi[:, n // 2:]))
        z = design_matrix(phi)
        assert np.array_equal(z, row_outer(left, right))
        system = build_design_system(phi, rng.standard_normal(t), 1e-3)
        assert np.array_equal(row_outer(system.left, system.right), z)
        az = np.abs(z)
        gram = (system.left @ system.left.T) * (system.right @ system.right.T)
        assert np.all(np.abs(gram - z @ z.T) <= 1e-12 * (az @ az.T))
        weights = rng.standard_normal((k, f**n))
        pred = evaluate_halves(left, right, weights)
        assert pred.shape == (t, k)
        assert np.all(np.abs(pred - z @ weights.T)
                      <= 1e-12 * (az @ np.abs(weights).T))


class TestSolveFullWeight:
    def test_zero_labels_give_zero_weight(self):
        fmap = FeatureMap(dim=2)
        d = tiny_dataset(5, 3, seed=7, labels=np.zeros(5))
        w = solve_full_weight(design_system(d, fmap, 1e-4))
        np.testing.assert_array_equal(w, np.zeros((2, 2, 2)))

    def test_stationarity(self):
        d = generate_dataset(TargetSpec(seed=0), 100, seed=8)
        phi = featurize_batch(FeatureMap(dim=3), d.features)
        w = solve_full_weight(build_design_system(phi, d.labels, 1e-6))
        a, b = normal_equations(phi, d.labels, 1e-6)
        grad = a @ w.ravel() - b
        assert np.max(np.abs(grad)) <= 1e-8 * max(1.0, np.linalg.norm(b))

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
        u, s, vt = np.linalg.svd(design_matrix(phi), full_matrices=False)
        ref = vt.T @ (s / (s**2 + t * ridge) * (u.T @ y))
        scale = max(np.linalg.norm(ref), 1e-300)
        assert np.linalg.norm(w - ref) <= SVD_RTOL * scale
        a, b = normal_equations(phi, y, ridge)
        assert np.linalg.norm(a @ w - b) <= SVD_RTOL * max(
            np.linalg.norm(b), 1e-300)
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


class TestInversionFits:
    """``inversion_fits`` is the fit every bond scan, demo 04 and
    ``inversion_and_compression`` run: these hold it to each of them bit
    for bit."""

    def test_losses_reproduce_scan_raw_csv(self, tmp_path):
        cfg = ExperimentConfig(chi_list=(2, 5, 27), ntr_list=(80,),
                               replicates=2, base_seed=70, n_test=96,
                               out_dir=str(tmp_path))
        raw = emit_outputs(run_bond_scan(cfg), cfg, cfg.out_dir)["raw"]
        with open(raw) as fh:
            rows = [r for r in csv.DictReader(fh) if r["replicate"] == "1"]
        spec, fmap = cfg.target_spec(0.3), cfg.feature_map()
        train = generate_dataset(spec, 80, cfg.base_seed + 1)
        test = generate_dataset(spec, cfg.n_test,
                                cfg.base_seed + TEST_SEED_OFFSET)
        _, _, (pred_tr, pred_te) = inversion_fits(
            featurize_batch(fmap, train.features), train.labels, cfg.ridge,
            cfg.chi_list, design_halves(featurize_batch(fmap, test.features)))
        y_te = frame_labels(test, train)
        assert [int(r["axis"]) for r in rows] == list(cfg.chi_list)
        for k, row in enumerate(rows):
            assert float(row["inv_train_loss"]) == data_loss(
                pred_tr[:, k], train.labels, MSE)
            assert float(row["inv_test_loss"]) == data_loss(
                pred_te[:, k], y_te, MSE)

    def test_models_equal_memo_free_compressions(self, monkeypatch):
        d = generate_dataset(TargetSpec(epsilon=0.3, seed=0), 120, seed=16)
        phi = featurize_batch(FeatureMap(dim=3), d.features)
        chis = [9, 2, 27, 3, 8, 1, 4]
        calls = []

        def recording(t, max_bond, memo=None):
            calls.append((max_bond, compress(t, max_bond, memo)))
            return calls[-1][1]

        monkeypatch.setattr(exact, "compress", recording)
        full, models, _ = inversion_fits(phi, d.labels, 1e-6, chis)
        assert [chi for chi, _ in calls] == chis
        for (chi, (w, discarded)), model in zip(calls, models):
            want, want_discarded = compress(full, chi)
            assert w is model
            assert w.bond_dims == want.bond_dims
            for a, b in zip(w.cores, want.cores):
                assert np.array_equal(a, b)
            assert np.array_equal(discarded, want_discarded)

    def test_inversion_and_compression_is_its_one_model(self):
        d = generate_dataset(TargetSpec(epsilon=0.3, seed=0), 90, seed=17)
        fmap = FeatureMap(dim=3)
        for chi in (1, 6, 27):
            w = inversion_and_compression(d, fmap, 1e-6, chi)
            _, (want,), (pred,) = inversion_fits(
                featurize_batch(fmap, d.features), d.labels, 1e-6, [chi])
            assert pred.shape == (90, 1)
            assert w.bond_dims == want.bond_dims
            for a, b in zip(w.cores, want.cores):
                assert np.array_equal(a, b)
