import dataclasses
import gzip
import re
import struct
import tracemalloc

import numpy as np
import pytest

from mpslab import dmrg
from mpslab.classify import (ImageDataset, corrupt_labels,
                             export_predictions, featurize_images,
                             init_classifier_mps, load_idx, mnist_feature_map,
                             predict_proba, preprocess, site_features, subset,
                             train_classifier)
from mpslab.dmrg import CROSS_ENTROPY, TrainConfig, data_loss, train_arrays
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
    return dmrg.accuracy(w.evaluate_batch(featurize_images(d)), d.labels)


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

    @pytest.mark.parametrize("data, message", [
        (b"\x00\x00\x08", "truncated magic at offset 0"),
        (b"\x00\x00\x08\x03\x00\x00\x00\x02\x00",
         "truncated header at offset 9"),
    ])
    def test_truncated_magic_or_header(self, tmp_path, data, message):
        """A file shorter than its magic number, or than the header its
        magic's dimension count asks for, names the file and the offset."""
        pi, pl = write_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        pi.write_bytes(data)
        with pytest.raises(IdxFormatError,
                           match=f"{re.escape(str(pi))}: {message}"):
            load_idx(pi, pl)

    def test_label_outside_classes(self, tmp_path):
        """A label byte of 10 or more names the file and its offset: the
        header is 8 bytes, so label 3 sits at offset 11."""
        pi, pl = write_pair(tmp_path, np.zeros((5, 2, 2), np.uint8),
                            [0, 9, 4, 12, 10])
        with pytest.raises(IdxFormatError,
                           match=f"{re.escape(str(pl))}: label 12 at offset 11"):
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

    @pytest.mark.parametrize("call, message", [
        (lambda d: preprocess(d, 0), "downsample factor must be >= 1, got 0"),
        (lambda d: subset(d, 4, seed=0), "asked for 4 of 3 images"),
    ])
    def test_invalid_argument_rejected(self, call, message):
        d = ImageDataset(np.zeros((3, 4, 4)), np.arange(3))
        with pytest.raises(ValueError, match=message):
            call(d)

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

    def test_trace_counts_clamped_rows(self):
        # v = cos(pi x / 2) weights[0] + sin(pi x / 2) weights[1]: the x = 0
        # rows start all zero.  Training lifts weights[0] on classes 2 and
        # 4 only, so the class-2 row leaves the clamp and the class-7 row,
        # its true-class output still zero, stays.
        weights = np.zeros((2, 10))
        weights[1, 4], weights[1, 2] = 1.0, 0.1
        d = ImageDataset(np.array([0.0, 0.0, 0.5, 0.5]).reshape(4, 1, 1),
                         np.array([2, 7, 2, 4]))
        cfg = TrainConfig(sweeps=2, cg_steps=3, loss_kind=CROSS_ENTROPY,
                          checkpoint="last", sweep_tol=0.0)
        model, trace = train_arrays(single_site_classifier(weights),
                                    featurize_images(d), d.labels,
                                    config=cfg)
        assert trace.clamped_rows == [2, 1, 1]
        p = predict_proba(model, featurize_images(d))
        assert p[0, 2] > 0.0 and p[1, 7] == 0.0


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

    def test_labels_outside_classes_rejected_before_training(self):
        """Every label set is checked against the chain's class axis, by
        name, before the first sweep."""
        rng = np.random.default_rng(20)
        d = ImageDataset(rng.uniform(size=(6, 2, 2)), np.arange(6) % 3,
                         num_classes=3)
        w0 = init_classifier_mps(4, 2, seed=0, num_classes=3)
        phi = featurize_images(d)
        cfg = TrainConfig(sweeps=1, cg_steps=1, loss_kind=CROSS_ENTROPY,
                          checkpoint="last")
        for bad in (3, -1):
            y = d.labels.copy()
            y[4] = bad
            with pytest.raises(ValueError, match=f"y_tr holds label {bad},"):
                train_arrays(w0, phi, y, config=cfg)
            with pytest.raises(ValueError, match=f"y_te holds label {bad},"):
                train_arrays(w0, phi, d.labels, phi_te=phi, y_te=y,
                             config=cfg)
        with pytest.raises(ValueError, match="y_tr holds label 12"):
            train_classifier(ImageDataset(d.images, np.full(6, 12)), None,
                             None, 2, cfg)

    def test_per_site_training_matches_arrays_bitwise(self):
        """train_classifier, on per-site features, is train_arrays on the
        featurize_images arrays bit for bit: every core and every trace
        entry but the timings, across two sweeps with a test set and the
        class axis at an interior site."""
        rng = np.random.default_rng(21)
        d = ImageDataset(rng.uniform(size=(48, 3, 3)), rng.integers(0, 4, 48),
                         num_classes=4)
        test = ImageDataset(rng.uniform(size=(20, 3, 3)),
                            rng.integers(0, 4, 20), num_classes=4)
        cfg = TrainConfig(sweeps=2, cg_steps=3, loss_kind=CROSS_ENTROPY,
                          checkpoint="last", sweep_tol=0.0)
        model, trace = train_classifier(d, None, test, 3, cfg, seed=22)
        w0 = init_classifier_mps(9, 3, seed=22, num_classes=4)
        assert 0 < w0.label_site < 8
        ref_model, ref_trace = train_arrays(
            w0, featurize_images(d), d.labels, phi_te=featurize_images(test),
            y_te=test.labels, config=cfg)
        assert len(trace.sweeps) == 3 and sum(trace.cg_accepted) > 0
        for core, ref in zip(model.cores, ref_model.cores, strict=True):
            assert np.array_equal(core.view(np.uint64), ref.view(np.uint64))
        for f in dataclasses.fields(trace):
            if not f.name.endswith("seconds"):
                assert getattr(trace, f.name) == getattr(ref_trace, f.name), \
                    f.name
        p = predict_proba(model, site_features(test))
        ref_p = predict_proba(model, featurize_images(test))
        assert np.array_equal(p.view(np.uint64), ref_p.view(np.uint64))

    def test_peak_below_one_featurized_copy(self):
        """Training from per-site features never holds a (T, N, f) feature
        array: at chi 1 with two classes the environments are small, and
        the whole run peaks below the size of one featurized set."""
        rng = np.random.default_rng(23)
        d = ImageDataset(rng.uniform(size=(1024, 8, 8)),
                         rng.integers(0, 2, 1024), num_classes=2)
        copy_bytes = featurize_images(d).nbytes
        cfg = TrainConfig(sweeps=1, cg_steps=2, loss_kind=CROSS_ENTROPY,
                          checkpoint="last", sweep_tol=0.0)
        tracemalloc.start()
        try:
            train_classifier(d, None, d, 1, cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < copy_bytes

    def test_one_sweep_memory_bound(self):
        """One training sweep of a 196-site labeled chain on 14 x 14 images
        holds O(sqrt N) environments of either kind: a peak of about 2.0
        MB here (2.4 MB with the featurized training set held), where
        keeping the class-free ones all took 3.1 MB."""
        rng = np.random.default_rng(15)
        d = ImageDataset(rng.uniform(size=(128, 14, 14)),
                         rng.integers(0, 10, 128))
        cfg = TrainConfig(sweeps=1, cg_steps=2, loss_kind=CROSS_ENTROPY,
                          checkpoint="last", sweep_tol=0.0)
        tracemalloc.start()
        try:
            train_classifier(d, None, None, 6, cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_750_000

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

    def test_training_plans_once_and_calls_no_einsum(self, monkeypatch):
        """The classifier's contractions run numpy's contraction lists
        without np.einsum, each list planned by one np.einsum_path call
        per (subscripts, shapes, varying operand)."""
        einsum_calls, path_calls = [], []
        einsum, einsum_path = np.einsum, np.einsum_path

        def counted_einsum(*args, **kwargs):
            einsum_calls.append(args[0])
            return einsum(*args, **kwargs)

        def counted_path(*args, **kwargs):
            path_calls.append(args[0])
            return einsum_path(*args, **kwargs)

        rng = np.random.default_rng(16)
        d = ImageDataset(rng.uniform(size=(48, 4, 4)),
                         rng.integers(0, 10, 48))
        cfg = TrainConfig(sweeps=1, cg_steps=5, ridge=0.0,
                          loss_kind=CROSS_ENTROPY, checkpoint="last",
                          sweep_tol=0.0)
        monkeypatch.setattr(np, "einsum", counted_einsum)
        monkeypatch.setattr(np, "einsum_path", counted_path)
        dmrg._einsum_plan.cache_clear()
        _, trace = train_classifier(d, None, d, 3, cfg, seed=17)
        assert sum(trace.cg_accepted) > 0
        assert einsum_calls == []
        assert len(path_calls) == dmrg._einsum_plan.cache_info().misses > 0
