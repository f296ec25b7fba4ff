import numpy as np
import pytest

from mpslab.errors import CapacityError, DimensionMismatchError
from mpslab.features import FeatureMap, featurize_batch, full_feature_tensor
from mpslab.mps import (MPS, canonicalize, compress, load_mps, random_init,
                        save_mps, truncate)

FMAP3 = FeatureMap(dim=3)


def full_contraction_oracle(w, locals_):
    """Contract the materialized weight tensor with one sample's full
    feature tensor; ``locals_`` is its (N, f) local vectors."""
    full = w.to_full_tensor()
    phi = full_feature_tensor(locals_)
    if w.label_site is None:
        return float(np.sum(full * phi))
    return np.tensordot(full, phi, axes=(range(w.n_sites), range(w.n_sites)))


def random_samples(n, count, seed):
    return np.random.default_rng(seed).standard_normal((count, n))


class TestEvaluate:
    def test_constant_mps(self):
        cores = [np.array([1.0, 0.0, 0.0]).reshape(1, 3, 1) for _ in range(5)]
        w = MPS(cores)
        phi = featurize_batch(FMAP3, random_samples(5, 10, 0))
        np.testing.assert_allclose(w.evaluate_batch(phi), np.ones(10))

    def test_matches_full_contraction_oracle(self):
        w = random_init(4, 3, 5, scale=0.7, seed=1)
        phi = featurize_batch(FMAP3, random_samples(4, 20, 2))
        got = w.evaluate_batch(phi)
        for i, locals_ in enumerate(phi):
            want = full_contraction_oracle(w, locals_)
            assert got[i] == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_labeled_one_hot_slices(self):
        base = random_init(4, 3, 4, scale=0.5, seed=3)
        slice0 = base.cores[1]
        slice1 = np.random.default_rng(4).standard_normal(slice0.shape)
        labeled_core = np.stack([slice0, slice1], axis=2)  # (l, f, C, r)
        cores = list(base.cores)
        cores[1] = labeled_core
        w = MPS(cores, label_site=1)
        alt = MPS([c if j != 1 else slice1 for j, c in enumerate(base.cores)])
        phi = featurize_batch(FMAP3, random_samples(4, 5, 5))
        out = w.evaluate_batch(phi)
        assert out.shape == (5, 2)
        np.testing.assert_allclose(out[:, 0], base.evaluate_batch(phi),
                                   rtol=1e-12)
        np.testing.assert_allclose(out[:, 1], alt.evaluate_batch(phi),
                                   rtol=1e-12)

    def test_labeled_matches_full_tensor_oracle(self):
        w = random_init(4, 3, 4, scale=0.5, seed=6, label_site=2, label_dim=3)
        phi = featurize_batch(FMAP3, random_samples(4, 5, 7))
        got = w.evaluate_batch(phi)
        for i, locals_ in enumerate(phi):
            want = full_contraction_oracle(w, locals_)
            np.testing.assert_allclose(got[i], want, rtol=1e-10, atol=1e-12)

    def test_zero_label_core(self):
        w = random_init(3, 3, 2, scale=0.5, seed=8, label_site=1, label_dim=4)
        w.cores[1][:] = 0.0
        out = w.evaluate_batch(featurize_batch(FMAP3,
                                               np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_length_mismatch_raises(self):
        w = random_init(3, 3, 2, scale=1.0, seed=9)
        with pytest.raises(DimensionMismatchError):
            w.evaluate_batch(featurize_batch(FMAP3, np.array([[1.0, 2.0]])))


class TestFullTensor:
    def test_single_site(self):
        core = np.array([2.0, -1.0, 0.5]).reshape(1, 3, 1)
        np.testing.assert_allclose(MPS([core]).to_full_tensor(), core[0, :, 0])

    def test_product_state_outer(self):
        v1 = np.array([1.0, 2.0, 3.0])
        v2 = np.array([-1.0, 0.5, 2.0])
        w = MPS([v1.reshape(1, 3, 1), v2.reshape(1, 3, 1)])
        np.testing.assert_allclose(w.to_full_tensor(), np.outer(v1, v2))

    @pytest.mark.parametrize("label_site", [None, 0, 2, 4])
    def test_matches_dense_einsum(self, label_site):
        """One einsum over all cores, the label axis last."""
        w = random_init(5, 3, 4, scale=0.5, seed=21, label_site=label_site,
                        label_dim=None if label_site is None else 2)
        terms = ["abcdef"[j] + "pqrst"[j] + ("z" * (j == label_site))
                 + "abcdef"[j + 1] for j in range(5)]
        out = "pqrst" + ("z" if label_site is not None else "")
        want = np.einsum(",".join(terms) + "->" + out, *w.cores)
        got = w.to_full_tensor()
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-15 * np.abs(want).max())

    def test_capacity_guard(self):
        w = random_init(8, 10, 1, scale=1.0, seed=0)
        with pytest.raises(CapacityError):
            w.to_full_tensor()

    def test_compress_round_trip(self):
        w = random_init(5, 3, 6, scale=0.6, seed=11)
        t = w.to_full_tensor()
        back, discarded = compress(t, max_bond=27)
        np.testing.assert_allclose(back.to_full_tensor(), t, rtol=0,
                                   atol=1e-10 * np.linalg.norm(t))
        assert np.all(discarded <= 1e-22)


class TestCompress:
    def test_rank_one_product(self):
        t = np.multiply.outer(np.multiply.outer([1.0, 2.0], [3.0, 4.0]),
                              [5.0, 6.0])
        w, discarded = compress(t, max_bond=8)
        assert w.bond_dims == [1, 1]
        assert np.all(discarded <= 1e-20)

    def test_full_rank_reconstruction_n6(self):
        rng = np.random.default_rng(12)
        t = rng.standard_normal((3,) * 6)
        w, _ = compress(t, max_bond=27)
        assert w.bond_dims == [3, 9, 27, 9, 3]
        np.testing.assert_allclose(w.to_full_tensor(), t, rtol=0,
                                   atol=1e-10 * np.linalg.norm(t))

    def test_sequential_truncation_bound(self):
        rng = np.random.default_rng(13)
        t = rng.standard_normal((3,) * 6)
        w, discarded = compress(t, max_bond=5)
        err = np.linalg.norm(w.to_full_tensor() - t)
        assert err <= np.sqrt(discarded.sum()) + 1e-12
        # and the bound is tight to within fp accumulation here
        assert err == pytest.approx(np.sqrt(discarded.sum()), rel=1e-8)

    def test_monotone_discarded_weight(self):
        rng = np.random.default_rng(14)
        t = rng.standard_normal((3,) * 6)
        totals = [compress(t, max_bond=chi)[1].sum() for chi in range(1, 28)]
        assert np.all(np.diff(totals) <= 1e-12)

    def test_non_uniform_extents_rejected(self):
        with pytest.raises(DimensionMismatchError):
            compress(np.zeros((2, 3)), max_bond=2)


class TestTruncate:
    def test_noop_when_within_cap(self):
        w = random_init(5, 3, 4, scale=0.6, seed=15)
        t = truncate(w, max_bond=10)
        phi = featurize_batch(FMAP3, random_samples(5, 20, 16))
        np.testing.assert_allclose(t.evaluate_batch(phi), w.evaluate_batch(phi),
                                   rtol=1e-12, atol=1e-14)

    def test_agrees_with_full_tensor_route(self):
        w = random_init(6, 3, 27, scale=0.3, seed=17)
        phi = featurize_batch(FMAP3, random_samples(6, 30, 18))
        for chi in (1, 3, 8):
            direct = truncate(w, max_bond=chi)
            via_full, _ = compress(w.to_full_tensor(), max_bond=chi)
            np.testing.assert_allclose(direct.evaluate_batch(phi),
                                       via_full.evaluate_batch(phi),
                                       rtol=1e-8, atol=1e-10)

    def test_idempotence_lossless_intermediate(self):
        w = random_init(6, 3, 20, scale=0.4, seed=19)
        phi = featurize_batch(FMAP3, random_samples(6, 20, 20))
        once = truncate(w, max_bond=4)
        twice = truncate(truncate(w, max_bond=27), max_bond=4)
        np.testing.assert_allclose(once.evaluate_batch(phi),
                                   twice.evaluate_batch(phi),
                                   rtol=1e-8, atol=1e-10)

    def test_idempotence_lossy_intermediate_scaled(self):
        # with a lossy intermediate cap the two routes agree to within the
        # scale of what that intermediate truncation itself removed
        w = random_init(6, 3, 20, scale=0.4, seed=19)
        phi = featurize_batch(FMAP3, random_samples(6, 200, 20))
        mid = truncate(w, max_bond=9)
        once = truncate(w, max_bond=4).evaluate_batch(phi)
        twice = truncate(mid, max_bond=4).evaluate_batch(phi)
        mid_error = np.sqrt(np.mean(
            (mid.evaluate_batch(phi) - w.evaluate_batch(phi)) ** 2))
        assert np.sqrt(np.mean((once - twice) ** 2)) <= 2 * mid_error + 1e-10

    def test_bonds_capped(self):
        w = random_init(6, 3, 27, scale=0.4, seed=21)
        assert truncate(w, max_bond=6).max_bond <= 6


class TestCanonicalize:
    def _assert_mixed_gauge(self, w, center):
        for j, core in enumerate(w.cores):
            mat = core.reshape(-1, core.shape[-1])
            if j < center:
                np.testing.assert_allclose(mat.T @ mat,
                                           np.eye(mat.shape[1]), atol=1e-12)
            mat = core.reshape(core.shape[0], -1)
            if j > center:
                np.testing.assert_allclose(mat @ mat.T,
                                           np.eye(mat.shape[0]), atol=1e-12)

    def test_preserves_evaluation(self):
        w = random_init(6, 3, 8, scale=0.5, seed=22)
        phi = featurize_batch(FMAP3, random_samples(6, 100, 23))
        base = w.evaluate_batch(phi)
        for center in (0, 2, 5):
            c = canonicalize(w, center)
            np.testing.assert_allclose(c.evaluate_batch(phi), base,
                                       rtol=1e-12, atol=1e-12)
            self._assert_mixed_gauge(c, center)

    def test_norm_concentrates_in_center(self):
        w = random_init(5, 3, 6, scale=0.8, seed=24)
        c = canonicalize(w, 2)
        assert np.sum(c.cores[2] ** 2) == pytest.approx(w.norm_squared(),
                                                        rel=1e-12)

    def test_already_canonical_unchanged(self):
        w = canonicalize(random_init(4, 3, 5, scale=0.5, seed=25), 1)
        again = canonicalize(w, 1)
        phi = featurize_batch(FMAP3, random_samples(4, 10, 26))
        np.testing.assert_allclose(again.evaluate_batch(phi),
                                   w.evaluate_batch(phi), rtol=1e-12)
        self._assert_mixed_gauge(again, 1)

    def test_labeled_gauge(self):
        w = random_init(5, 3, 6, scale=0.5, seed=27, label_site=2, label_dim=4)
        c = canonicalize(w, 3)
        phi = featurize_batch(FMAP3, random_samples(5, 10, 28))
        np.testing.assert_allclose(c.evaluate_batch(phi), w.evaluate_batch(phi),
                                   rtol=1e-12, atol=1e-12)


class TestRandomInit:
    def test_deterministic(self):
        a = random_init(5, 3, 7, scale=0.5, seed=42)
        b = random_init(5, 3, 7, scale=0.5, seed=42)
        for ca, cb in zip(a.cores, b.cores):
            np.testing.assert_array_equal(ca, cb)

    def test_zero_scale_evaluates_to_zero(self):
        w = random_init(4, 3, 5, scale=0.0, seed=1)
        phi = featurize_batch(FMAP3, random_samples(4, 5, 2))
        np.testing.assert_array_equal(w.evaluate_batch(phi), np.zeros(5))

    def test_chi_one_shapes(self):
        w = random_init(6, 3, 1, scale=1.0, seed=3)
        assert [c.shape for c in w.cores] == [(1, 3, 1)] * 6

    def test_bond_caps(self):
        w = random_init(6, 3, 50, scale=0.1, seed=4)
        assert w.bond_dims == [3, 9, 27, 9, 3]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        w = random_init(5, 3, 6, scale=0.5, seed=30)
        path = tmp_path / "model.npz"
        save_mps(w, path)
        back = load_mps(path)
        assert back.label_site is None
        for ca, cb in zip(w.cores, back.cores):
            np.testing.assert_array_equal(ca, cb)

    def test_round_trip_labeled(self, tmp_path):
        w = random_init(4, 2, 3, scale=0.5, seed=31, label_site=2,
                        label_dim=10)
        path = tmp_path / "labeled.npz"
        save_mps(w, path)
        back = load_mps(path)
        assert back.label_site == 2
        assert back.label_dim == 10
        for ca, cb in zip(w.cores, back.cores):
            np.testing.assert_array_equal(ca, cb)


    def test_round_trip_mixed_gauge(self, tmp_path):
        w = canonicalize(random_init(5, 3, 4, scale=0.5, seed=32), 2)
        path = tmp_path / "mixed.npz"
        save_mps(w, path)
        back = load_mps(path)
        assert (back.gauge, back.center) == ("mixed", 2)
        for ca, cb in zip(w.cores, back.cores):
            np.testing.assert_array_equal(ca, cb)

    def test_record_without_gauge_loads_ungauged(self, tmp_path):
        w = canonicalize(random_init(4, 2, 3, scale=0.5, seed=33), 1)
        path = tmp_path / "old.npz"
        save_mps(w, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data if k not in ("gauge",
                                                            "center")}
        np.savez(path, **payload)
        back = load_mps(path)
        assert (back.gauge, back.center) == ("none", None)

    def test_tampered_bond_dims_rejected(self, tmp_path):
        w = random_init(5, 3, 6, scale=0.5, seed=34)
        path = tmp_path / "tampered.npz"
        save_mps(w, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data}
        payload["bond_dims"] = payload["bond_dims"].copy()
        payload["bond_dims"][2] += 1
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="bond 2"):
            load_mps(path)


class TestValidation:
    def test_bond_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            MPS([np.ones((1, 3, 2)), np.ones((3, 3, 1))])

    def test_boundary_extent_rejected(self):
        with pytest.raises(DimensionMismatchError):
            MPS([np.ones((2, 3, 1))])
