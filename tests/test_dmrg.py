import numpy as np
import pytest

from mpslab.datagen import Dataset, TargetSpec, generate_dataset
from mpslab import dmrg
from mpslab.dmrg import (CROSS_ENTROPY, MSE, EnvironmentCache, TrainConfig,
                         TrainTrace, data_loss, frame_labels, optimize_site,
                         output_grad_coeffs, site_gradient, site_loss, train)
from mpslab.exact import inversion_and_compression
from mpslab.features import FeatureMap, featurize_batch
from mpslab.mps import canonicalize, compress, random_init

FMAP3 = FeatureMap(dim=3)


def finite_difference(cache, core, y, kind, ridge, step=1e-5):
    fd = np.zeros_like(core)
    it = np.nditer(core, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up = core.copy()
        up[idx] += step
        down = core.copy()
        down[idx] -= step
        fd[idx] = (site_loss(cache, up, y, kind, ridge)[0] -
                   site_loss(cache, down, y, kind, ridge)[0]) / (2 * step)
    return fd


def gradient_at(cache, core, y, kind, ridge):
    """site_gradient at ``core``, from site_loss's outputs there."""
    _, outputs = site_loss(cache, core, y, kind, ridge)
    return site_gradient(cache, core, outputs, y, kind, ridge)


def gradient_site(w, site, d, ridge):
    """MSE objective gradient w.r.t. the core at ``site`` of a regression
    MPS, in mixed gauge at that site."""
    phi = featurize_batch(FeatureMap(dim=w.phys_dim), d.features)
    cache = EnvironmentCache(w, phi, center=site)
    return gradient_at(cache, cache.cores[site], d.labels, MSE, ridge)


def loss(w, d, ridge):
    """Regularized half-MSE objective of a regression MPS on a dataset."""
    phi = featurize_batch(FeatureMap(dim=w.phys_dim), d.features)
    return (data_loss(w.evaluate_batch(phi), d.labels, MSE)
            + 0.5 * ridge * w.norm_squared())


class TestLoss:
    def test_zero_model_on_normalized_labels(self):
        d = generate_dataset(TargetSpec(seed=0), 128, seed=1)
        w = random_init(6, 3, 3, scale=0.0, seed=0)
        assert loss(w, d, ridge=0.0) == pytest.approx(0.5, abs=1e-12)

    def test_perfect_fit_zero_loss(self):
        spec = TargetSpec(epsilon=0.3, seed=0)
        d = generate_dataset(spec, 100, seed=2)
        from mpslab.datagen import build_target_mps
        full = build_target_mps(spec).to_full_tensor()
        full = full.copy()
        full[(0,) * 6] -= d.label_mean
        full /= d.label_std
        model, _ = compress(full, 27)
        assert loss(model, d, ridge=0.0) <= 1e-10

    def test_full_rank_solution_loss_bound(self):
        d = generate_dataset(TargetSpec(epsilon=0.3, seed=0), 300, seed=3)
        ridge = 1e-6
        w = inversion_and_compression(d, FMAP3, ridge, 27)
        assert loss(w, d, ridge) <= 0.5 * ridge * w.norm_squared() + 1e-6

    def test_ridge_term_uses_mps_norm(self):
        # in mixed gauge the center core's norm is the whole MPS's, so the
        # site objective is the global ridge objective at every center
        d = generate_dataset(TargetSpec(seed=1), 64, seed=4)
        w = random_init(6, 3, 4, scale=0.3, seed=5)
        phi = featurize_batch(FMAP3, d.features)
        for site in (0, 3, 5):
            cache = EnvironmentCache(w, phi, center=site)
            value, _ = site_loss(cache, cache.cores[site], d.labels, MSE, 0.1)
            assert value == pytest.approx(loss(w, d, 0.1), rel=1e-12)
            assert value > loss(w, d, 0.0)


class TestGradient:
    def test_matches_finite_differences_mse(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            w = random_init(5, 3, 4, scale=0.6, seed=10 + trial)
            phi = featurize_batch(FMAP3, rng.standard_normal((9, 5)))
            y = rng.standard_normal(9)
            site = trial % 5
            cache = EnvironmentCache(w, phi, center=site)
            core = cache.cores[site]
            g = gradient_at(cache, core, y, MSE, 1e-4)
            fd = finite_difference(cache, core, y, MSE, 1e-4)
            mask = np.abs(fd) > 1e-8
            assert np.max(np.abs((g[mask] - fd[mask]) / fd[mask])) <= 1e-6

    def test_matches_finite_differences_cross_entropy(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            w = random_init(6, 2, 3, scale=0.8, seed=20 + trial,
                            label_site=3, label_dim=4)
            x = rng.uniform(0, 1, size=(8, 6))
            phi = featurize_batch(FeatureMap(kind="trigonometric", dim=2), x)
            y = rng.integers(0, 4, size=8)
            site = [0, 2, 3, 4, 5][trial]
            cache = EnvironmentCache(w, phi, center=site)
            core = cache.cores[site]
            g = gradient_at(cache, core, y, CROSS_ENTROPY, 0.0)
            fd = finite_difference(cache, core, y, CROSS_ENTROPY, 0.0)
            mask = np.abs(fd) > 1e-8
            assert np.max(np.abs((g[mask] - fd[mask]) / fd[mask])) <= 1e-6

    def test_vanishes_at_exact_ridge_solution(self):
        d = generate_dataset(TargetSpec(epsilon=0.3, seed=0), 200, seed=8)
        ridge = 1e-6
        w = inversion_and_compression(d, FMAP3, ridge, 27)
        for site in (0, 3, 5):
            g = gradient_site(w, site, d, ridge)
            assert np.max(np.abs(g)) <= 1e-8

    def test_cross_entropy_clamped_rows_have_zero_gradient(self):
        outputs = np.array([[0.5, -1.0, 2.0],
                            [0.0, 1.0, 3.0],   # zero true-class output
                            [0.0, 0.0, 0.0],   # all-zero row
                            [1.5, 0.2, -0.7]])
        y = np.array([1, 0, 2, 0])
        g = output_grad_coeffs(outputs, y, CROSS_ENTROPY)
        assert np.all(np.isfinite(g))
        np.testing.assert_array_equal(g[1:3], 0.0)
        assert np.isfinite(data_loss(outputs, y, CROSS_ENTROPY))
        # the unclamped rows keep the closed form bitwise
        for i in (0, 3):
            row = 2.0 * outputs[i] / np.sum(outputs[i] ** 2)
            row[y[i]] -= 2.0 / outputs[i, y[i]]
            np.testing.assert_array_equal(g[i], row / len(y))

    def test_ridge_only_gradient(self):
        w = random_init(4, 3, 3, scale=0.5, seed=9)
        phi = np.zeros((6, 4, 3))
        y = np.zeros(6)
        cache = EnvironmentCache(w, phi, center=2)
        core = cache.cores[2]
        g = gradient_at(cache, core, y, MSE, 0.25)
        np.testing.assert_array_equal(g, 0.25 * core)


class TestOptimizeSite:
    def test_stationary_core_unchanged(self):
        d = generate_dataset(TargetSpec(epsilon=0.3, seed=0), 150, seed=10)
        ridge = 1e-6
        w = inversion_and_compression(d, FMAP3, ridge, 27)
        phi = featurize_batch(FMAP3, d.features)
        cache = EnvironmentCache(w, phi, center=2)
        core = cache.cores[2]
        cfg = TrainConfig(cg_steps=5, ridge=ridge)
        new_core = optimize_site(cache, core, d.labels, cfg).core
        assert np.max(np.abs(new_core - core)) <= 1e-10

    def test_single_site_solves_local_ridge(self):
        # N=1: the whole problem is the local quadratic; CG must match the
        # closed-form normal-equations solution
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20, 1))
        y = rng.standard_normal(20)
        phi = featurize_batch(FMAP3, x)
        ridge = 0.05
        w = random_init(1, 3, 1, scale=0.5, seed=12)
        cache = EnvironmentCache(w, phi, center=0)
        cfg = TrainConfig(cg_steps=20, ridge=ridge)
        new_core = optimize_site(cache, w.cores[0], y, cfg).core
        p = phi[:, 0, :]
        closed = np.linalg.solve(p.T @ p / 20 + ridge * np.eye(3),
                                 p.T @ y / 20)
        np.testing.assert_allclose(new_core.ravel(), closed, rtol=1e-6)

    def test_loss_decreases_over_steps(self):
        rng = np.random.default_rng(13)
        w = random_init(5, 3, 4, scale=0.8, seed=14)
        phi = featurize_batch(FMAP3, rng.standard_normal((30, 5)))
        y = rng.standard_normal(30)
        cache = EnvironmentCache(w, phi, center=2)
        core = cache.cores[2]
        cfg = TrainConfig(cg_steps=1, ridge=1e-6)
        losses = [site_loss(cache, core, y, MSE, 1e-6)[0]]
        for _ in range(5):
            update = optimize_site(cache, core, y, cfg)
            core = update.core
            losses.append(update.objective)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]


    @pytest.mark.parametrize("kind", [MSE, CROSS_ENTROPY])
    def test_one_apply_per_objective_evaluation(self, kind, monkeypatch):
        """site_gradient reuses the outputs of site_loss at the same core.
        Cross-entropy: every EnvironmentCache.apply call in optimize_site
        is a site_loss call.  MSE: one apply at the start, then one per
        exact step length, whose dv the line search carries."""
        counts = dict.fromkeys(("apply", "site_loss", "site_gradient",
                                "_initial_step"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(EnvironmentCache, "apply",
                            counting("apply", EnvironmentCache.apply))
        for name in ("site_loss", "site_gradient", "_initial_step"):
            monkeypatch.setattr(dmrg, name,
                                counting(name, getattr(dmrg, name)))
        rng = np.random.default_rng(30)
        if kind == MSE:
            w = random_init(5, 3, 3, scale=0.8, seed=31)
            phi = featurize_batch(FMAP3, rng.standard_normal((40, 5)))
            y = rng.standard_normal(40)
        else:
            w = random_init(5, 2, 3, scale=0.8, seed=31, label_site=2,
                            label_dim=4)
            phi = featurize_batch(FeatureMap(kind="trigonometric", dim=2),
                                  rng.uniform(0, 1, size=(40, 5)))
            y = rng.integers(0, 4, size=40)
        # class axis in the right environment, at the center, in the left
        for site in (0, 2, 4):
            cache = EnvironmentCache(w, phi, center=site)
            counts.update(dict.fromkeys(counts, 0))
            optimize_site(cache, cache.cores[site], y,
                          TrainConfig(cg_steps=5, loss_kind=kind))
            assert counts["site_gradient"] >= 2  # an accepted CG step
            if kind == MSE:
                assert counts["apply"] == 1 + counts["_initial_step"]
            else:
                assert counts["apply"] == counts["site_loss"]

    def test_carried_start_applies_nothing(self, monkeypatch):
        """Given the outputs at its start core (carried from the previous
        site), the MSE solver applies once per exact step length only, and
        ends where the solve from a fresh apply ends, to roundoff."""
        applies = []
        monkeypatch.setattr(
            EnvironmentCache, "apply",
            lambda cache, core, _fn=EnvironmentCache.apply: (
                applies.append(1) or _fn(cache, core)))
        steps = []

        def counting(*args, _fn=dmrg._initial_step):
            steps.append(1)
            return _fn(*args)

        monkeypatch.setattr(dmrg, "_initial_step", counting)
        rng = np.random.default_rng(30)
        w = random_init(5, 3, 3, scale=0.8, seed=31)
        phi = featurize_batch(FMAP3, rng.standard_normal((40, 5)))
        y = rng.standard_normal(40)
        cfg = TrainConfig(cg_steps=5, ridge=1e-4)
        for site in (0, 2, 4):
            cache = EnvironmentCache(w, phi, center=site)
            start = cache.apply(cache.cores[site])
            fresh = optimize_site(cache, cache.cores[site], y, cfg)
            applies.clear()
            steps.clear()
            carried = optimize_site(cache, cache.cores[site], y, cfg, start)
            assert carried.accepted >= 1
            assert len(applies) == len(steps) == carried.accepted
            scale = np.max(np.abs(fresh.core))
            assert np.max(np.abs(carried.core - fresh.core)) <= 1e-12 * scale
            assert carried.objective == pytest.approx(fresh.objective,
                                                      rel=1e-12)
            np.testing.assert_allclose(carried.outputs,
                                       cache.apply(carried.core),
                                       rtol=0, atol=1e-12 * np.max(
                                           np.abs(carried.outputs)))

    def test_carried_outputs_match_apply(self, monkeypatch):
        """The MSE line search's trial outputs out + alpha * dv, and their
        residuals against y, equal the outputs applied afresh at the trial
        core, also after Armijo halvings (forced by an 8x overshoot of the
        exact step)."""
        seen = []
        real_loss, real_step = dmrg.site_loss, dmrg._initial_step

        def recording(cache, core, y, kind, ridge, outputs=None):
            if outputs is not None:
                applied = cache.apply(core)
                seen.append((applied, outputs))
                seen.append((applied - y, outputs - y))
            return real_loss(cache, core, y, kind, ridge, outputs)

        def overshoot(*args):
            alpha, dv = real_step(*args)
            return 8.0 * alpha, dv

        monkeypatch.setattr(dmrg, "site_loss", recording)
        rng = np.random.default_rng(34)
        w = random_init(5, 3, 3, scale=0.8, seed=35)
        phi = featurize_batch(FMAP3, rng.standard_normal((40, 5)))
        y = rng.standard_normal(40)
        cfg = TrainConfig(cg_steps=5, ridge=1e-3)
        for step, halvings in ((real_step, 0), (overshoot, 3)):
            monkeypatch.setattr(dmrg, "_initial_step", step)
            for site in (0, 2, 4):
                seen.clear()
                cache = EnvironmentCache(w, phi, center=site)
                update = optimize_site(cache, cache.cores[site], y, cfg)
                assert update.accepted == 5
                assert 2 * update.trials == len(seen) == 10 * (1 + halvings)
                for applied, carried in seen:
                    scale = np.max(np.abs(applied))
                    assert np.max(np.abs(carried - applied)) <= 1e-12 * scale


class TestCarriedOutputs:
    def test_train_loss_matches_evaluate_batch(self, monkeypatch):
        """On the criterion-7 inputs at chi 6 (50 sweeps), the training
        loss that squared error takes from its carried outputs stays
        within 1e-10 of evaluate_batch on the trained cores at every
        sweep.  Each sweep's record evaluates validation and test, one
        evaluate_batch call each, and not the training set."""
        spec = TargetSpec(n_sites=6, phys_dim=3, epsilon=0.3, seed=0)
        d = generate_dataset(spec, 300, seed=1000)
        val = generate_dataset(spec, 1024, seed=1000 + 2_000_003)
        test = generate_dataset(spec, 1024, seed=1000 + 1_000_003)
        w0 = inversion_and_compression(d, FMAP3, 1e-6, 6)
        phi = featurize_batch(FMAP3, d.features)
        fresh = []
        evaluate = dmrg.MPS.evaluate_batch

        def evaluating(model, phi_eval):
            fresh.append(data_loss(evaluate(model, phi), d.labels, MSE))
            return evaluate(model, phi_eval)

        monkeypatch.setattr(dmrg.MPS, "evaluate_batch", evaluating)
        cfg = TrainConfig(sweeps=50, cg_steps=5, ridge=1e-6, sweep_tol=0.0)
        _, trace = train(w0, d, val, test, cfg)
        assert 2 * len(trace.train_loss) == len(fresh) == 102
        np.testing.assert_allclose(trace.train_loss, fresh[::2], rtol=1e-10,
                                   atol=0.0)

    def test_cross_entropy_train_loss_is_objective(self, monkeypatch):
        """A ridge-0 classifier's training loss comes from its solver's
        outputs, so it is the objective exactly, and it stays within 1e-12
        of evaluate_batch on each sweep's cores (evaluated here when the
        sweep's record evaluates the test set)."""
        rng = np.random.default_rng(42)
        w = random_init(5, 2, 3, scale=0.8, seed=43, label_site=2,
                        label_dim=4)
        fmap = FeatureMap(kind="trigonometric", dim=2)
        phi = featurize_batch(fmap, rng.uniform(0, 1, size=(40, 5)))
        y = rng.integers(0, 4, size=40)
        phi_te = featurize_batch(fmap, rng.uniform(0, 1, size=(30, 5)))
        y_te = rng.integers(0, 4, size=30)
        fresh = []
        evaluate = dmrg.MPS.evaluate_batch

        def evaluating(model, phi_eval):
            fresh.append(data_loss(evaluate(model, phi), y, CROSS_ENTROPY))
            return evaluate(model, phi_eval)

        monkeypatch.setattr(dmrg.MPS, "evaluate_batch", evaluating)
        cfg = TrainConfig(sweeps=4, cg_steps=5, ridge=0.0,
                          loss_kind=CROSS_ENTROPY, checkpoint="last",
                          sweep_tol=0.0)
        _, trace = dmrg.train_arrays(w, phi, y, phi_te=phi_te, y_te=y_te,
                                     config=cfg)
        assert trace.train_loss == trace.objective
        assert len(fresh) == len(trace.train_loss) == 5
        assert trace.train_loss[-1] < trace.train_loss[0]
        np.testing.assert_allclose(trace.train_loss, fresh, rtol=1e-12,
                                   atol=0.0)


class TestTraceCounters:
    """The per-sweep counters sum to the counts the benchmark derives from
    calls inside optimize_site: site_loss calls less one per optimize_site
    call are line-search trials, site_gradient calls less one are accepted
    CG steps."""

    @pytest.mark.parametrize("kind", [MSE, CROSS_ENTROPY])
    def test_sums_match_call_counts(self, kind, monkeypatch):
        counts = dict.fromkeys(("optimize_site", "site_loss",
                                "site_gradient"), 0)
        inside = []

        def optimize(*args, _fn=dmrg.optimize_site):
            counts["optimize_site"] += 1
            inside.append(True)
            try:
                return _fn(*args)
            finally:
                inside.pop()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += bool(inside)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(dmrg, "optimize_site", optimize)
        for name in ("site_loss", "site_gradient"):
            monkeypatch.setattr(dmrg, name,
                                counting(name, getattr(dmrg, name)))
        rng = np.random.default_rng(32)
        if kind == MSE:
            w = random_init(5, 3, 3, scale=0.8, seed=33)
            phi = featurize_batch(FMAP3, rng.standard_normal((40, 5)))
            y = rng.standard_normal(40)
        else:
            w = random_init(5, 2, 3, scale=0.8, seed=33, label_site=2,
                            label_dim=4)
            phi = featurize_batch(FeatureMap(kind="trigonometric", dim=2),
                                  rng.uniform(0, 1, size=(40, 5)))
            y = rng.integers(0, 4, size=40)
        config = TrainConfig(sweeps=3, cg_steps=5, loss_kind=kind,
                             checkpoint="last", sweep_tol=0.0)
        _, trace = dmrg.train_arrays(w, phi, y, config=config)
        assert counts["optimize_site"] == 3 * 9
        assert trace.cg_accepted[0] == trace.ls_trials[0] == 0
        assert len(trace.cg_accepted) == len(trace.ls_trials) == 4
        assert sum(trace.ls_trials) == (counts["site_loss"]
                                        - counts["optimize_site"])
        assert sum(trace.cg_accepted) == (counts["site_gradient"]
                                          - counts["optimize_site"])
        assert sum(trace.cg_accepted) > 0


class TestMeanStep:
    """``TrainTrace.mean_step`` is the mean length of a sweep's accepted CG
    steps, 0 when it accepts none."""

    def test_mse_mean_of_exact_steps(self, monkeypatch):
        # every MSE line search here accepts its first trial, the exact
        # quadratic step, so the accepted steps are those _initial_step made
        alphas = []

        def recording(*args, _fn=dmrg._initial_step):
            alpha, dv = _fn(*args)
            alphas.append(alpha)
            return alpha, dv

        monkeypatch.setattr(dmrg, "_initial_step", recording)
        d = generate_dataset(TargetSpec(seed=2), 60, seed=24)
        w0 = random_init(6, 3, 2, scale=0.1, seed=25)
        cfg = TrainConfig(sweeps=1, cg_steps=2, ridge=1e-3,
                          checkpoint="last", sweep_tol=0.0)
        _, trace = train(w0, d, None, None, cfg)
        assert trace.cg_accepted[1] == trace.ls_trials[1] == len(alphas)
        assert trace.mean_step == [0.0, pytest.approx(np.mean(alphas),
                                                      rel=1e-12)]

    def test_cross_entropy_steps_at_most_one(self):
        rng = np.random.default_rng(32)
        w = random_init(5, 2, 3, scale=0.8, seed=33, label_site=2,
                        label_dim=4)
        phi = featurize_batch(FeatureMap(kind="trigonometric", dim=2),
                              rng.uniform(0, 1, size=(40, 5)))
        y = rng.integers(0, 4, size=40)
        config = TrainConfig(sweeps=3, cg_steps=5, loss_kind=CROSS_ENTROPY,
                             checkpoint="last", sweep_tol=0.0)
        _, trace = dmrg.train_arrays(w, phi, y, config=config)
        assert len(trace.mean_step) == len(trace.sweeps) == 4
        for accepted, alpha in zip(trace.cg_accepted, trace.mean_step):
            assert (0.0 < alpha <= 1.0) if accepted else alpha == 0.0


class TestCache:
    def test_recombination_matches_evaluate(self):
        w = random_init(6, 3, 5, scale=0.5, seed=15)
        phi = featurize_batch(FMAP3,
                              np.random.default_rng(16).standard_normal((25, 6)))
        direct = w.evaluate_batch(phi)
        cache = EnvironmentCache(w, phi, center=0)
        np.testing.assert_allclose(cache.apply(cache.cores[0]), direct,
                                   rtol=1e-12, atol=1e-12)
        # walk right then back left, re-checking coherence at every stop
        for site in range(5):
            cache.move_right()
            np.testing.assert_allclose(cache.apply(cache.cores[site + 1]),
                                       direct, rtol=1e-12, atol=1e-12)
        for site in range(5, 0, -1):
            cache.move_left()
            np.testing.assert_allclose(cache.apply(cache.cores[site - 1]),
                                       direct, rtol=1e-12, atol=1e-12)

    def test_labeled_cache_coherence(self):
        """Walking right and then back left, the cache's own cores and
        environments recombine to the model's outputs at every center."""
        w = random_init(5, 2, 4, scale=0.6, seed=17, label_site=2,
                        label_dim=3)
        x = np.random.default_rng(18).uniform(0, 1, size=(12, 5))
        phi = featurize_batch(FeatureMap(kind="trigonometric", dim=2), x)
        direct = w.evaluate_batch(phi)
        cache = EnvironmentCache(w, phi, center=0)
        for site in range(4):
            cache.move_right()
            np.testing.assert_allclose(cache.apply(cache.cores[site + 1]),
                                       direct, rtol=1e-12, atol=1e-12)
        for site in range(4, 0, -1):
            cache.move_left()
            np.testing.assert_allclose(cache.apply(cache.cores[site - 1]),
                                       direct, rtol=1e-12, atol=1e-12)


class EinsumCache(EnvironmentCache):
    """The environment cache with every environment build and move one
    ``np.einsum(..., optimize=True)`` call: the reference of the GEMM
    moves."""

    def _absorb_left(self, env, core, j, memo):
        return np.einsum("tl,lfr,tf->tr", env, core, self.phi[:, j],
                         optimize=True)

    def _absorb_right(self, env, core, j, memo):
        return np.einsum("tr,lfr,tf->tl", env, core, self.phi[:, j],
                         optimize=True)


def mse_run():
    """Criterion-7 style training: inversion at chi 4 on 300 samples, then
    4 sweeps with a best-validation checkpoint."""
    spec = TargetSpec(epsilon=0.3, seed=0)
    d = generate_dataset(spec, 300, seed=36)
    val = generate_dataset(spec, 64, seed=37)
    w0 = inversion_and_compression(d, FMAP3, 1e-6, 4)
    phi = featurize_batch(FMAP3, d.features)
    phi_val = featurize_batch(FMAP3, val.features)
    cfg = TrainConfig(sweeps=4, cg_steps=5, ridge=1e-6, sweep_tol=0.0)
    return dmrg.train_arrays(w0, phi, d.labels, phi_val, frame_labels(val, d),
                             config=cfg)


class TestGemmEnvironments:
    def test_mse_training_matches_einsum_cache(self, monkeypatch):
        """GEMM moves change MSE training by roundoff only.  At chi 4 the
        two runs stay within 2e-13 of each other over 8 sweeps; at chi 5-6
        the same roundoff grows 10-50x per sweep (nonconvex training), so
        such a run is no test of the kernels."""
        model, trace = mse_run()
        monkeypatch.setattr(dmrg, "EnvironmentCache", EinsumCache)
        ref_model, ref_trace = mse_run()
        for name in ("train_loss", "val_loss", "objective"):
            np.testing.assert_allclose(getattr(trace, name),
                                       getattr(ref_trace, name), rtol=1e-9)
        assert trace.best_validation_sweep == ref_trace.best_validation_sweep
        for core, ref in zip(model.cores, ref_model.cores):
            np.testing.assert_allclose(core, ref, rtol=1e-9,
                                       atol=1e-9 * np.max(np.abs(ref)))

    def test_mse_training_calls_no_einsum(self, monkeypatch):
        calls = []
        einsum = np.einsum

        def counted(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        rng = np.random.default_rng(38)
        w0 = random_init(6, 3, 3, scale=0.8, seed=39)
        phi = featurize_batch(FMAP3, rng.standard_normal((50, 6)))
        y = rng.standard_normal(50)
        monkeypatch.setattr(np, "einsum", counted)
        _, trace = dmrg.train_arrays(
            w0, phi, y, phi, y, phi, y,
            TrainConfig(sweeps=2, ridge=1e-6, sweep_tol=0.0))
        assert sum(trace.cg_accepted) > 0
        assert calls == []


class TestTrain:
    def test_sweep_from_inversion_does_not_increase_loss(self):
        d = generate_dataset(TargetSpec(epsilon=0.3, seed=0), 200, seed=19)
        ridge = 1e-6
        w0 = inversion_and_compression(d, FMAP3, ridge, 27)
        start = loss(w0, d, ridge)
        cfg = TrainConfig(sweeps=1, cg_steps=3, ridge=ridge, checkpoint="last")
        model, trace = train(w0, d, None, None, cfg)
        assert trace.objective[-1] <= start + 1e-12
        assert loss(model, d, ridge) <= start + 1e-10

    def test_objective_monotone_across_sweeps(self):
        d = generate_dataset(TargetSpec(epsilon=0.3, seed=1), 120, seed=20)
        w0 = inversion_and_compression(d, FMAP3, 1e-6, 6)
        cfg = TrainConfig(sweeps=8, cg_steps=3, ridge=1e-6, checkpoint="last",
                          sweep_tol=0.0)
        _, trace = train(w0, d, None, None, cfg)
        diffs = np.diff(trace.objective)
        assert np.all(diffs <= 1e-12)
        assert trace.max_monotonicity_violation <= 0.0

    def test_checkpoint_attains_minimum_validation(self):
        spec = TargetSpec(epsilon=0.3, seed=0)
        d = generate_dataset(spec, 150, seed=21)
        val = generate_dataset(spec, 256, seed=22)
        test = generate_dataset(spec, 256, seed=23)
        w0 = inversion_and_compression(d, FMAP3, 1e-6, 8)
        cfg = TrainConfig(sweeps=6, cg_steps=3, ridge=1e-6)
        model, trace = train(w0, d, val, test, cfg)
        best = trace.best_validation_sweep
        assert trace.val_loss[best] == pytest.approx(min(trace.val_loss),
                                                     abs=1e-12)
        # the returned model reproduces the checkpointed validation loss
        phi_val = featurize_batch(FMAP3, val.features)
        y_val = frame_labels(val, d)
        got = 0.5 * np.mean((model.evaluate_batch(phi_val) - y_val) ** 2)
        assert got == pytest.approx(trace.val_loss[best], abs=1e-12)

    def test_trace_csv(self, tmp_path):
        d = generate_dataset(TargetSpec(seed=2), 60, seed=24)
        w0 = random_init(6, 3, 2, scale=0.1, seed=25)
        cfg = TrainConfig(sweeps=2, cg_steps=2, ridge=0.0, checkpoint="last")
        _, trace = train(w0, d, None, None, cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        # no validation or test set, so no val_* or test_* column
        assert lines[0] == ("sweep,train_loss,objective,"
                            "seconds,cg_accepted,mean_step,ls_trials,"
                            "optimize_seconds,move_seconds,evaluate_seconds")
        assert len(lines) == len(trace.sweeps) + 1
        for line, obj, sec, steps, alpha, trials, *phases in zip(
                lines[1:], trace.objective, trace.seconds, trace.cg_accepted,
                trace.mean_step, trace.ls_trials, trace.optimize_seconds,
                trace.move_seconds, trace.evaluate_seconds):
            cells = line.split(",")
            assert [float(v) for v in cells[2:4]] == [obj, sec]
            assert int(cells[4]) == steps and int(cells[6]) == trials
            assert float(cells[5]) == alpha
            assert [float(v) for v in cells[7:]] == phases

    def test_phase_seconds(self):
        d = generate_dataset(TargetSpec(seed=2), 60, seed=24)
        w0 = random_init(6, 3, 2, scale=0.1, seed=25)
        cfg = TrainConfig(sweeps=3, cg_steps=2, ridge=0.0, checkpoint="last",
                          sweep_tol=0.0)
        _, trace = train(w0, d, d, d, cfg)
        phases = (trace.optimize_seconds, trace.move_seconds,
                  trace.evaluate_seconds)
        for phase in phases:
            assert len(phase) == len(trace.sweeps) == 4
            assert phase[0] == 0.0
            assert all(s > 0.0 for s in phase[1:])
        # the evaluation runs after the sweep's clock stops
        for sweep in range(1, 4):
            assert (trace.optimize_seconds[sweep] + trace.move_seconds[sweep]
                    <= trace.seconds[sweep])

    def test_trace_csv_accuracies(self, tmp_path):
        trace = TrainTrace(sweeps=[0, 1], train_loss=[2.0, 1.5],
                           val_loss=[np.nan, np.nan], test_loss=[2.1, 1.7],
                           seconds=[0.0, 0.25], objective=[2.0, 1.5],
                           train_accuracy=[0.1, 0.6],
                           val_accuracy=[np.nan, np.nan],
                           test_accuracy=[0.125, 0.5])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_text().splitlines() == [
            "sweep,train_loss,val_loss,test_loss,objective,seconds,"
            "train_accuracy,val_accuracy,test_accuracy",
            "0,2.0,nan,2.1,2.0,0.0,0.1,nan,0.125",
            "1,1.5,nan,1.7,1.5,0.25,0.6,nan,0.5",
        ]

    def test_single_site_chain(self):
        rng = np.random.default_rng(26)
        d = Dataset(features=rng.standard_normal((30, 1)),
                    labels=rng.standard_normal(30), label_mean=0.0,
                    label_std=1.0, seed=0)
        w0 = random_init(1, 3, 1, scale=0.5, seed=27)
        cfg = TrainConfig(sweeps=10, cg_steps=5, ridge=1e-3, checkpoint="last")
        model, trace = train(w0, d, None, None, cfg)
        assert trace.objective[-1] <= trace.objective[0]
        assert model.n_sites == 1

    def test_frame_labels_identity_on_own_frame(self):
        d = generate_dataset(TargetSpec(seed=3), 50, seed=28)
        np.testing.assert_allclose(frame_labels(d, d), d.labels, atol=1e-12)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(sweeps=0)
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="huber")
        with pytest.raises(ValueError):
            TrainConfig(ridge=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(checkpoint="best_test")

    @pytest.mark.parametrize("ridge", [np.nan, np.inf])
    def test_non_finite_ridge_rejected(self, ridge):
        with pytest.raises(ValueError, match="^ridge must be finite"):
            TrainConfig(ridge=ridge)

    @pytest.mark.parametrize("kind, label_site, message", [
        (MSE, 2, "loss_kind 'mse' needs a chain with no label site, "
                 "got label_site=2"),
        (CROSS_ENTROPY, None, "loss_kind 'cross_entropy' needs a chain with "
                              "a label site, got label_site=None"),
    ])
    def test_loss_kind_must_match_chain(self, kind, label_site, message,
                                        monkeypatch):
        """A squared-error fit of a labeled chain, or a cross-entropy fit of
        an unlabeled one, fails before any work, naming both."""
        def no_work(*args, **kwargs):
            raise AssertionError("train_arrays started work")

        monkeypatch.setattr(dmrg, "canonicalize", no_work)
        monkeypatch.setattr(dmrg, "EnvironmentCache", no_work)
        rng = np.random.default_rng(40)
        w = random_init(5, 2, 3, scale=0.8, seed=41, label_site=label_site,
                        label_dim=4 if label_site is not None else None)
        phi = featurize_batch(FeatureMap(dim=2), rng.standard_normal((40, 5)))
        y = rng.integers(0, 4, size=40)
        with pytest.raises(ValueError, match=message):
            dmrg.train_arrays(w, phi, y, config=TrainConfig(loss_kind=kind))

    @pytest.mark.parametrize("kind", [MSE, CROSS_ENTROPY])
    def test_environment_cores_are_c_contiguous(self, kind, monkeypatch):
        """The cache train_arrays sweeps copies the canonicalized cores
        before building the environments: a left QR move leaves its
        isometry a transposed view, and strides pick the BLAS path of
        every later product.  Without the copy every test still passed,
        but the dmrg-reg benchmark's reference test_loss moved from
        0.031153660208052172 to 0.031153660220036114 and op 1's best
        validation sweep from 43 to 46; the copy is what keeps training
        bit for bit."""
        seen = []
        real = dmrg.EnvironmentCache

        def recording(*args, **kwargs):
            cache = real(*args, **kwargs)
            seen.append([core.flags.c_contiguous for core in cache.cores])
            return cache

        monkeypatch.setattr(dmrg, "EnvironmentCache", recording)
        rng = np.random.default_rng(44)
        if kind == MSE:
            w = random_init(5, 3, 3, scale=0.8, seed=45)
            phi = featurize_batch(FMAP3, rng.standard_normal((40, 5)))
            y = rng.standard_normal(40)
        else:
            w = random_init(5, 2, 3, scale=0.8, seed=45, label_site=2,
                            label_dim=4)
            phi = featurize_batch(FeatureMap(kind="trigonometric", dim=2),
                                  rng.uniform(0, 1, size=(40, 5)))
            y = rng.integers(0, 4, size=40)
        # the gauge alone leaves cores that are not C-contiguous
        assert not all(core.flags.c_contiguous
                       for core in canonicalize(w, 0).cores)
        cfg = TrainConfig(sweeps=1, loss_kind=kind, checkpoint="last")
        dmrg.train_arrays(w, phi, y, config=cfg)
        assert seen == [[True] * 5]
