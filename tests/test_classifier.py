import gzip
import struct

import numpy as np
import pytest

from mpslab import dmrg
from mpslab.classify import (ImageDataset, corrupt_labels,
                             export_predictions, featurize_images,
                             init_classifier_mps, load_idx, mnist_feature_map,
                             predict_proba, preprocess, subset,
                             train_classifier)
from mpslab.dmrg import CROSS_ENTROPY, TrainConfig, data_loss
from mpslab.errors import IdxFormatError
from mpslab.features import featurize_batch
from mpslab.mps import MPS, random_init


def idx_images_bytes(images):
    images = np.asarray(images, dtype=np.uint8)
    head = struct.pack(">IIII", 0x00000803, *images.shape)
    return head + images.tobytes()


def idx_labels_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()


def write_pair(tmp_path, images, labels, gz=False):
    raw_i, raw_l = idx_images_bytes(images), idx_labels_bytes(labels)
    suffix = ".gz" if gz else ""
    pi = tmp_path / f"images.idx{suffix}"
    pl = tmp_path / f"labels.idx{suffix}"
    if gz:
        pi.write_bytes(gzip.compress(raw_i))
        pl.write_bytes(gzip.compress(raw_l))
    else:
        pi.write_bytes(raw_i)
        pl.write_bytes(raw_l)
    return pi, pl


def single_site_classifier(weights):
    """N=1 labeled MPS: outputs v_c = sum_f weights[f, c] * phi_f."""
    w = np.asarray(weights, dtype=np.float64)
    return MPS([w.reshape(1, w.shape[0], w.shape[1], 1)], label_site=0)


def cross_entropy(w, d):
    """Mean clamped cross-entropy of a classifier on images, as the
    trainer records it."""
    return data_loss(w.evaluate_batch(featurize_images(d)), d.labels,
                     CROSS_ENTROPY)


def accuracy(w, d):
    """Classifier accuracy on images, as the trainer records it."""
    return dmrg._accuracy(w.evaluate_batch(featurize_images(d)), d.labels)


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(3, 4, 4))
        labels = [1, 0, 9]
        d = load_idx(*write_pair(tmp_path, images, labels))
        assert d.count == 3
        np.testing.assert_allclose(d.images, images / 255.0)
        np.testing.assert_array_equal(d.labels, labels)

    def test_gzip_round_trip(self, tmp_path):
        images = np.zeros((2, 3, 3), dtype=np.uint8)
        d = load_idx(*write_pair(tmp_path, images, [5, 7], gz=True))
        assert d.count == 2
        np.testing.assert_array_equal(d.labels, [5, 7])

    def test_bad_magic(self, tmp_path):
        pi, pl = write_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        pi.write_bytes(b"\x00\x00\x09\x03" + pi.read_bytes()[4:])
        with pytest.raises(IdxFormatError, match="offset 0"):
            load_idx(pi, pl)

    def test_truncated_payload(self, tmp_path):
        pi, pl = write_pair(tmp_path, np.zeros((2, 3, 3), np.uint8), [0, 1])
        pi.write_bytes(pi.read_bytes()[:-5])
        with pytest.raises(IdxFormatError, match="offset"):
            load_idx(pi, pl)

    def test_count_mismatch(self, tmp_path):
        pi, _ = write_pair(tmp_path, np.zeros((2, 3, 3), np.uint8), [0, 1])
        pl = tmp_path / "short.idx"
        pl.write_bytes(idx_labels_bytes([4]))
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_idx(pi, pl)


class TestPreprocess:
    def test_constant_image(self):
        d = ImageDataset(np.full((2, 4, 4), 0.7), np.array([0, 1]))
        np.testing.assert_allclose(preprocess(d, 2).images,
                                   np.full((2, 2, 2), 0.7))

    def test_factor_one_identity(self):
        d = ImageDataset(np.random.default_rng(1).uniform(size=(2, 4, 4)),
                         np.array([0, 1]))
        np.testing.assert_array_equal(preprocess(d, 1).images, d.images)

    def test_checkerboard(self):
        board = np.indices((4, 4)).sum(axis=0) % 2
        d = ImageDataset(board[None].astype(float), np.array([0]))
        np.testing.assert_allclose(preprocess(d, 2).images,
                                   np.full((1, 2, 2), 0.5))

    def test_non_divisible_factor(self):
        d = ImageDataset(np.zeros((1, 5, 4)), np.array([0]))
        with pytest.raises(ValueError):
            preprocess(d, 2)

    def test_mean_preserved(self):
        rng = np.random.default_rng(2)
        d = ImageDataset(rng.uniform(size=(3, 8, 8)), np.arange(3))
        pooled = preprocess(d, 2)
        for i in range(3):
            assert pooled.images[i].mean() == pytest.approx(
                d.images[i].mean(), abs=1e-12)


class TestPredictProba:
    def locals_for(self, *xs):
        """(T, 1, 2) featurized one-pixel samples."""
        return featurize_batch(mnist_feature_map, np.array(xs)[:, None])

    def test_uniform_outputs(self):
        w = single_site_classifier(np.stack([np.ones(10), np.zeros(10)]))
        p = predict_proba(w, self.locals_for(0.0))  # phi = (1, 0)
        np.testing.assert_allclose(p, np.full((1, 10), 0.1), atol=1e-15)

    def test_one_hot(self):
        weights = np.zeros((2, 10))
        weights[0, 0] = 2.0
        p = predict_proba(single_site_classifier(weights), self.locals_for(0.0))
        np.testing.assert_allclose(p, np.eye(10)[:1], atol=1e-15)

    def test_sign_invariance(self):
        weights = np.zeros((2, 10))
        weights[0, 0] = 1.0
        weights[0, 1] = -1.0
        p = predict_proba(single_site_classifier(weights), self.locals_for(0.0))
        assert p[0, 0] == pytest.approx(0.5)
        assert p[0, 1] == pytest.approx(0.5)

    def test_simplex(self):
        rng = np.random.default_rng(3)
        w = single_site_classifier(rng.standard_normal((2, 10)))
        p = predict_proba(w, self.locals_for(*rng.uniform(0, 1, size=5)))
        assert p.shape == (5, 10)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_degenerate_output(self):
        # an all-zero output row has no probabilities: it reads all zero,
        # where the training loss clamps it at PROB_FLOOR
        weights = np.zeros((2, 10))
        weights[1, 4] = 1.0  # v = sin(pi x / 2) on class 4, zero at x = 0
        p = predict_proba(single_site_classifier(weights),
                          self.locals_for(0.0, 1.0))
        np.testing.assert_array_equal(p[0], np.zeros(10))
        np.testing.assert_allclose(p[1], np.eye(10)[4], atol=1e-15)


class TestCrossEntropy:
    def test_uniform_model_ln10(self):
        w = single_site_classifier(np.stack([np.ones(10), np.ones(10)]))
        d = ImageDataset(np.random.default_rng(4).uniform(size=(16, 1, 1)),
                         np.random.default_rng(5).integers(0, 10, 16))
        assert cross_entropy(w, d) == pytest.approx(np.log(10.0), abs=1e-12)

    def test_perfect_model_zero_loss(self):
        weights = np.zeros((2, 10))
        weights[0, 3] = 5.0  # one-hot on class 3 for phi=(1,0)
        w = single_site_classifier(weights)
        d = ImageDataset(np.zeros((8, 1, 1)), np.full(8, 3))
        assert cross_entropy(w, d) == pytest.approx(0.0, abs=1e-12)

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(6)
        w = random_init(4, 2, 3, scale=0.7, seed=7, label_site=2,
                        label_dim=10)
        d = ImageDataset(rng.uniform(size=(8, 2, 2)), rng.integers(0, 10, 8))
        phi = featurize_images(d)
        direct = []
        for i in range(8):
            v = w.evaluate_batch(phi[i:i + 1])[0]
            p = v**2 / np.sum(v**2)
            direct.append(-np.log(p[d.labels[i]]))
        assert cross_entropy(w, d) == pytest.approx(np.mean(direct), abs=1e-12)

    def test_clamp_counter(self):
        w = single_site_classifier(np.stack([np.eye(10)[0], np.zeros(10)]))
        d = ImageDataset(np.zeros((4, 1, 1)), np.full(4, 9))  # p_true = 0
        # every sample's true-class probability is clamped at the floor
        assert cross_entropy(w, d) == -np.log(dmrg.PROB_FLOOR)


class TestAccuracy:
    def test_perfect(self):
        weights = np.zeros((2, 10))
        weights[0, 2] = 1.0
        w = single_site_classifier(weights)
        d = ImageDataset(np.zeros((6, 1, 1)), np.full(6, 2))
        assert accuracy(w, d) == 1.0

    def test_independent_model_near_chance(self):
        rng = np.random.default_rng(8)
        w = random_init(4, 2, 4, scale=0.6, seed=9, label_site=2,
                        label_dim=10)
        d = ImageDataset(rng.uniform(size=(4000, 2, 2)),
                         rng.integers(0, 10, 4000))
        assert abs(accuracy(w, d) - 0.1) <= 0.03

    def test_ties_break_to_lower_index(self):
        w = single_site_classifier(np.stack([np.ones(10), np.zeros(10)]))
        d = ImageDataset(np.zeros((3, 1, 1)), np.array([0, 1, 5]))
        # every class probability equal -> argmax picks class 0
        assert accuracy(w, d) == pytest.approx(1.0 / 3.0)


class TestTraining:
    def test_small_synthetic_problem_learns(self):
        # two trivially separable classes: dark vs bright 2x2 images
        rng = np.random.default_rng(10)
        dark = rng.uniform(0.0, 0.2, size=(40, 2, 2))
        bright = rng.uniform(0.8, 1.0, size=(40, 2, 2))
        images = np.concatenate([dark, bright])
        labels = np.array([0] * 40 + [1] * 40)
        d = ImageDataset(images, labels, num_classes=2)
        cfg = TrainConfig(sweeps=10, cg_steps=4, ridge=0.0,
                          loss_kind=CROSS_ENTROPY, checkpoint="last",
                          sweep_tol=0.0)
        model, trace = train_classifier(d, None, d, 3, cfg, seed=1)
        assert trace.train_accuracy[-1] >= 0.95
        assert trace.max_monotonicity_violation <= 0.0
        assert model.label_site == 2

    def test_subset_and_corrupt(self):
        rng = np.random.default_rng(11)
        d = ImageDataset(rng.uniform(size=(50, 2, 2)),
                         rng.integers(0, 10, 50))
        sub = subset(d, 20, seed=0)
        assert sub.count == 20
        noisy = corrupt_labels(sub, 0.5, seed=1)
        assert np.count_nonzero(noisy.labels != sub.labels) == 10

    def test_export_predictions(self, tmp_path):
        w = random_init(4, 2, 3, scale=0.5, seed=12, label_site=2,
                        label_dim=10)
        d = ImageDataset(np.random.default_rng(13).uniform(size=(5, 2, 2)),
                         np.arange(5))
        path = tmp_path / "pred.csv"
        export_predictions(w, d, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,true,predicted," + ",".join(
            f"p{c}" for c in range(10))
        assert len(lines) == 6

    def test_init_classifier_shape(self):
        w = init_classifier_mps(196, 6, seed=0)
        assert w.n_sites == 196
        assert w.label_site == 98
        assert w.label_dim == 10
        assert w.max_bond == 6


class EinsumCache(dmrg.EnvironmentCache):
    """The environment cache with every class-axis operation and every
    environment move one fused ``np.einsum(..., optimize=True)`` call, as
    before the planned contractions: their bit-for-bit reference."""

    def _absorb_left(self, env, core, j, memo):
        phi_j = self.phi[:, j]
        if core.ndim == 4:
            return np.einsum("tl,lfcr,tf->trc", env, core, phi_j, optimize=True)
        if env.ndim == 3:
            return np.einsum("tlc,lfr,tf->trc", env, core, phi_j, optimize=True)
        return np.einsum("tl,lfr,tf->tr", env, core, phi_j, optimize=True)

    def _absorb_right(self, env, core, j, memo):
        phi_j = self.phi[:, j]
        if core.ndim == 4:
            return np.einsum("tr,lfcr,tf->tlc", env, core, phi_j, optimize=True)
        if env.ndim == 3:
            return np.einsum("trc,lfr,tf->tlc", env, core, phi_j, optimize=True)
        return np.einsum("tr,lfr,tf->tl", env, core, phi_j, optimize=True)

    def apply(self, core):
        c = self.center
        lenv, renv, phi_c = self.left[c], self.right[c + 1], self.phi[:, c]
        if c == self.label_site:
            spec = "tl,lfcr,tf,tr->tc"
        elif lenv.ndim == 3:
            spec = "tlc,lfr,tf,tr->tc"
        else:
            spec = "tl,lfr,tf,trc->tc"
        return np.einsum(spec, lenv, core, phi_c, renv, optimize=True)

    def grad_from_output_coeffs(self, coeffs):
        c = self.center
        lenv, renv, phi_c = self.left[c], self.right[c + 1], self.phi[:, c]
        if c == self.label_site:
            spec = "tc,tl,tf,tr->lfcr"
        elif lenv.ndim == 3:
            spec = "tc,tlc,tf,tr->lfr"
        else:
            spec = "tc,tl,tf,trc->lfr"
        return np.einsum(spec, coeffs, lenv, phi_c, renv, optimize=True)


class TestBitwiseTraining:
    def test_planned_contractions_match_fused_einsum(self, monkeypatch):
        """A sweep from a random start is chaotic under roundoff, so equal
        traces and cores show the planned, memoized contractions run
        numpy's fused einsum steps exactly."""
        rng = np.random.default_rng(14)
        d = ImageDataset(rng.uniform(size=(64, 4, 4)),
                         rng.integers(0, 10, 64))
        test = ImageDataset(rng.uniform(size=(32, 4, 4)),
                            rng.integers(0, 10, 32))
        cfg = TrainConfig(sweeps=1, cg_steps=5, ridge=0.0,
                          loss_kind=CROSS_ENTROPY, checkpoint="last",
                          sweep_tol=0.0)
        model, trace = train_classifier(d, None, test, 3, cfg, seed=15)
        monkeypatch.setattr(dmrg, "EnvironmentCache", EinsumCache)
        ref_model, ref_trace = train_classifier(d, None, test, 3, cfg,
                                                seed=15)
        for name in ("train_loss", "val_loss", "test_loss", "objective",
                     "train_accuracy", "test_accuracy"):
            np.testing.assert_array_equal(getattr(trace, name),
                                          getattr(ref_trace, name))
        assert trace.stalls == ref_trace.stalls
        for core, ref in zip(model.cores, ref_model.cores):
            assert np.array_equal(core, ref)
