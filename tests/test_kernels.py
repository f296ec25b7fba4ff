"""Property tests of the GEMM contraction kernels against brute force.

``tensor.row_outer`` is checked bitwise against one broadcast multiply,
``MPS.evaluate_batch`` against the full weight tensor
contracted with the full feature tensor, and every ``EnvironmentCache``
center against ``evaluate_batch`` and an unoptimized einsum gradient.
Roundoff is bounded relative to the same contraction of the absolute
values of cores and features, so outputs that cancel to near zero are
still held to 1e-12.  On unlabeled chains every environment the cache
builds or moves by GEMM is held to 1e-12 of ``np.einsum(...,
optimize=True)``; on labeled chains the cache's planned, memoized
contractions are held bit for bit to one fused
``np.einsum(..., optimize=True)`` call each.  The QR shifts are held bit
for bit to the ``np.tensordot`` form.  ``optimize_site``, the one CG
site solver, is held on squared error to its objective recomputed from
scratch and to the exact step length from a dense local design, and on
cross-entropy bit for bit to a test-local copy of the pairwise-sum CG
loop it has always run.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab import dmrg
from mpslab.dmrg import (CROSS_ENTROPY, MSE, EnvironmentCache, TrainConfig,
                         data_loss, output_grad_coeffs)
from mpslab.features import full_feature_tensor
from mpslab.mps import (MPS, _left_ortho_step, _right_ortho_step,
                        canonicalize, random_init)
from mpslab.tensor import row_outer

RTOL = 1e-12
LABEL_DIM = 3


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 64), st.integers(1, 30), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_row_outer_bitwise_equals_broadcast(t, m, n, seed):
    """Both operand orders: (carry, phi_j) as the left pass passes them and
    (phi_j, carry) as the right pass does, phi_j a strided column view."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((t, m))
    b = rng.standard_normal((t, 3, n))[:, 1]
    for x, y in ((a, b), (b, a)):
        ref = (x[:, :, None] * y[:, None, :]).reshape(len(x), -1)
        assert np.array_equal(row_outer(x, y), ref)


@st.composite
def chains(draw):
    """(MPS, phi): N in 1..5, f in {2, 3}, chi in 1..4, label at none,
    the first, a middle or the last site."""
    n = draw(st.integers(1, 5))
    f = draw(st.sampled_from([2, 3]))
    chi = draw(st.integers(1, 4))
    label_site = draw(st.sampled_from([None, 0, n // 2, n - 1]))
    seed = draw(st.integers(0, 2**32 - 1))
    t = draw(st.integers(1, 6))
    w = random_init(n, f, chi, scale=0.7, seed=seed, label_site=label_site,
                    label_dim=LABEL_DIM if label_site is not None else None)
    phi = np.random.default_rng(seed + 1).standard_normal((t, n, f))
    return w, phi


def absolute(w):
    return MPS([np.abs(c) for c in w.cores], label_site=w.label_site)


def assert_matches(got, ref, ref_abs):
    """|got - ref| <= RTOL * (ref evaluated on absolute values)."""
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= RTOL * ref_abs)


def full_contraction(w, phi):
    """Outputs sum_s W[s] Phi_t[s] of every sample, and the same for |w|
    and |phi|."""
    axes = list(range(w.n_sites))
    outs = [[np.tensordot(full_feature_tensor(p), full, axes=(axes, axes))
             for p in sample]
            for full, sample in ((w.to_full_tensor(), phi),
                                 (absolute(w).to_full_tensor(), np.abs(phi)))]
    return np.array(outs[0]), np.array(outs[1])


@settings(max_examples=80, deadline=None)
@given(chains())
def test_evaluate_batch_matches_full_tensor(case):
    w, phi = case
    ref, ref_abs = full_contraction(w, phi)
    assert_matches(w.evaluate_batch(phi), ref, ref_abs)


def einsum_gradient(coeffs, lenv, phi_c, renv, labeled_center):
    """Brute-force d(sum_t coeffs_t . out_t)/d(core), no path planning."""
    if labeled_center:
        spec = "tc,tl,tf,tr->lfcr"
    elif lenv.ndim == 3:
        spec = "tc,tlc,tf,tr->lfr"
    elif renv.ndim == 3:
        spec = "tc,tl,tf,trc->lfr"
    else:
        spec = "t,tl,tf,tr->lfr"
    return (np.einsum(spec, coeffs, lenv, phi_c, renv, optimize=False),
            np.einsum(spec, np.abs(coeffs), np.abs(lenv), np.abs(phi_c),
                      np.abs(renv), optimize=False))


@settings(max_examples=60, deadline=None)
@given(chains())
def test_cache_matches_evaluate_and_einsum_at_every_center(case):
    w, phi = case
    n = w.n_sites
    cores = [c.copy() for c in canonicalize(w, 0).cores]
    cache = EnvironmentCache(cores, phi, label_site=w.label_site, center=0)
    out_shape = (len(phi),) if w.label_site is None else (len(phi), LABEL_DIM)
    coeffs = np.random.default_rng(n).standard_normal(out_shape)
    # walk right to the last site, then back left to the first
    for c, step in [(0, None)] + [(c, "R") for c in range(1, n)] + [
            (c, "L") for c in range(n - 2, -1, -1)]:
        if step == "R":
            _left_ortho_step(cores, c - 1)
            cache.move_right(cores[c - 1])
        elif step == "L":
            _right_ortho_step(cores, c + 1)
            cache.move_left(cores[c + 1])
        chain = MPS(cores, label_site=w.label_site)
        ref_abs = absolute(chain).evaluate_batch(np.abs(phi))
        assert_matches(cache.apply(cores[c]), chain.evaluate_batch(phi),
                       ref_abs)
        grad, grad_abs = einsum_gradient(coeffs, cache.left[c], phi[:, c],
                                         cache.right[c + 1],
                                         c == w.label_site)
        assert_matches(cache.grad_from_output_coeffs(coeffs), grad,
                       grad_abs)


# np.einsum subscripts of every labeled-chain operation, by where the
# class axis is: at the center core, in L_c (center right of the label)
# or in R_{c+1} (center left of the label).
APPLY = {"center": "tl,lfcr,tf,tr->tc", "left": "tlc,lfr,tf,tr->tc",
         "right": "tl,lfr,tf,trc->tc"}
GRAD = {"center": "tc,tl,tf,tr->lfcr", "left": "tc,tlc,tf,tr->lfr",
        "right": "tc,tl,tf,trc->lfr"}
# by where the class axis is among the absorbed environment and core
ABSORB_LEFT = {"core": "tl,lfcr,tf->trc", "env": "tlc,lfr,tf->trc",
               None: "tl,lfr,tf->tr"}
ABSORB_RIGHT = {"core": "tr,lfcr,tf->tlc", "env": "trc,lfr,tf->tlc",
                None: "tr,lfr,tf->tl"}


def fused(spec, *operands):
    return np.einsum(spec, *operands, optimize=True)


def class_axis_at(env, core):
    return "core" if core.ndim == 4 else "env" if env.ndim == 3 else None


@st.composite
def labeled_chains(draw):
    """(MPS, phi, seed): N in 1..6, f in {2, 3}, chi in 1..6, 1..10
    classes, label at the first, a middle or the last site, T in 1..64."""
    n = draw(st.integers(1, 6))
    f = draw(st.sampled_from([2, 3]))
    chi = draw(st.integers(1, 6))
    classes = draw(st.integers(1, 10))
    label_site = draw(st.sampled_from([0, n // 2, n - 1]))
    t = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    w = random_init(n, f, chi, scale=0.7, seed=seed, label_site=label_site,
                    label_dim=classes)
    phi = np.random.default_rng(seed + 1).standard_normal((t, n, f))
    return w, phi, seed


@settings(max_examples=100, deadline=None)
@given(labeled_chains())
def test_labeled_cache_bitwise_equals_fused_einsum(case):
    """Planned, memoized contractions are np.einsum(optimize=True) bit for
    bit: several apply and gradient calls at every center, walking right
    then left, and every environment the cache builds or moves."""
    w, phi, seed = case
    n, label = w.n_sites, w.label_site
    rng = np.random.default_rng(seed + 2)
    cores = [c.copy() for c in canonicalize(w, 0).cores]
    cache = EnvironmentCache(cores, phi, label_site=label, center=0)
    for j in range(n - 1, 0, -1):
        spec = ABSORB_RIGHT[class_axis_at(cache.right[j + 1], cores[j])]
        assert np.array_equal(cache.right[j], fused(
            spec, cache.right[j + 1], cores[j], phi[:, j]))
    for c, step in [(0, None)] + [(c, "R") for c in range(1, n)] + [
            (c, "L") for c in range(n - 2, -1, -1)]:
        if step == "R":
            _left_ortho_step(cores, c - 1)
            spec = ABSORB_LEFT[class_axis_at(cache.left[c - 1], cores[c - 1])]
            ref = fused(spec, cache.left[c - 1], cores[c - 1], phi[:, c - 1])
            cache.move_right(cores[c - 1])
            assert np.array_equal(cache.left[c], ref)
        elif step == "L":
            _right_ortho_step(cores, c + 1)
            spec = ABSORB_RIGHT[class_axis_at(cache.right[c + 2],
                                              cores[c + 1])]
            ref = fused(spec, cache.right[c + 2], cores[c + 1], phi[:, c + 1])
            cache.move_left(cores[c + 1])
            assert np.array_equal(cache.right[c + 1], ref)
        lenv, renv = cache.left[c], cache.right[c + 1]
        where = ("center" if c == label else
                 "left" if lenv.ndim == 3 else "right")
        operands = (lenv, phi[:, c], renv)
        for core in (cores[c], rng.standard_normal(cores[c].shape),
                     rng.standard_normal(cores[c].shape)):
            assert np.array_equal(cache.apply(core),
                                  fused(APPLY[where], lenv, core,
                                        *operands[1:]))
            coeffs = rng.standard_normal((len(phi), w.label_dim))
            assert np.array_equal(cache.grad_from_output_coeffs(coeffs),
                                  fused(GRAD[where], coeffs, *operands))


@st.composite
def unlabeled_chains(draw):
    """(MPS, phi, seed): N in 1..6, f in {2, 3}, chi in 1..6, T in 1..64."""
    n = draw(st.integers(1, 6))
    f = draw(st.sampled_from([2, 3]))
    chi = draw(st.integers(1, 6))
    t = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    w = random_init(n, f, chi, scale=0.7, seed=seed)
    phi = np.random.default_rng(seed + 1).standard_normal((t, n, f))
    return w, phi, seed


def einsum_env(spec, env, core, phi_j):
    """``spec`` by np.einsum(optimize=True), and on absolute values."""
    return (fused(spec, env, core, phi_j),
            fused(spec, np.abs(env), np.abs(core), np.abs(phi_j)))


@settings(max_examples=100, deadline=None)
@given(unlabeled_chains())
def test_unlabeled_cache_environments_match_einsum(case):
    """GEMM environment builds and moves agree with the einsum they
    replace: the initial right environments, then every move walking
    right and back left, with the local block memoized by apply calls at
    some centers and not at others."""
    w, phi, seed = case
    n = w.n_sites
    rng = np.random.default_rng(seed + 2)
    cores = [c.copy() for c in canonicalize(w, 0).cores]
    cache = EnvironmentCache(cores, phi, center=0)
    for j in range(n - 1, 0, -1):
        assert_matches(cache.right[j], *einsum_env(
            ABSORB_RIGHT[None], cache.right[j + 1], cores[j], phi[:, j]))
    for c, step in [(0, None)] + [(c, "R") for c in range(1, n)] + [
            (c, "L") for c in range(n - 2, -1, -1)]:
        if step == "R":
            _left_ortho_step(cores, c - 1)
            ref = einsum_env(ABSORB_LEFT[None], cache.left[c - 1],
                             cores[c - 1], phi[:, c - 1])
            cache.move_right(cores[c - 1])
            assert_matches(cache.left[c], *ref)
        elif step == "L":
            _right_ortho_step(cores, c + 1)
            ref = einsum_env(ABSORB_RIGHT[None], cache.right[c + 2],
                             cores[c + 1], phi[:, c + 1])
            cache.move_left(cores[c + 1])
            assert_matches(cache.right[c + 1], *ref)
        if rng.random() < 0.5:
            cache.apply(rng.standard_normal(cores[c].shape))


def tensordot_left_ortho_step(cores, j):
    """``mps._left_ortho_step`` with R absorbed by ``np.tensordot``."""
    core = cores[j]
    q, r = np.linalg.qr(core.reshape(-1, core.shape[-1]))
    cores[j] = q.reshape(core.shape[:-1] + (q.shape[1],))
    cores[j + 1] = np.tensordot(r, cores[j + 1], axes=(1, 0))


def tensordot_right_ortho_step(cores, j):
    """``mps._right_ortho_step`` with R absorbed by ``np.tensordot``."""
    core = cores[j]
    q, r = np.linalg.qr(core.reshape(core.shape[0], -1).T)
    cores[j] = q.T.reshape((q.shape[1],) + core.shape[1:])
    prev = cores[j - 1]
    cores[j - 1] = np.tensordot(prev, r.T, axes=(prev.ndim - 1, 0))


@settings(max_examples=100, deadline=None)
@given(labeled_chains())
def test_qr_shifts_bitwise_equal_tensordot(case):
    """The QR shifts absorb R by reshape and one matmul, bit for bit the
    np.tensordot they replace: a right-canonicalizing pass, a sweep right
    and a sweep back, through 3-index cores and the 4-index label core."""
    w, _, _ = case
    n = w.n_sites
    ours = [c.copy() for c in w.cores]
    ref = [c.copy() for c in w.cores]
    plan = ([(j, "L") for j in range(n - 1, 0, -1)]
            + [(j, "R") for j in range(n - 1)]
            + [(j, "L") for j in range(n - 1, 0, -1)])
    for j, direction in plan:
        if direction == "R":
            _left_ortho_step(ours, j)
            tensordot_left_ortho_step(ref, j)
        else:
            _right_ortho_step(ours, j)
            tensordot_right_ortho_step(ref, j)
        assert all(a.shape == b.shape and np.array_equal(a, b)
                   for a, b in zip(ours, ref))


@st.composite
def regression_sites(draw):
    """(MPS, phi, y, ridge, center): N in 1..5, f in {2, 3}, chi in 1..4,
    T in 5..40, ridge 0 or 1e-3, any center."""
    n = draw(st.integers(1, 5))
    f = draw(st.sampled_from([2, 3]))
    chi = draw(st.integers(1, 4))
    t = draw(st.integers(5, 40))
    ridge = draw(st.sampled_from([0.0, 1e-3]))
    center = draw(st.integers(0, n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    w = random_init(n, f, chi, scale=0.7, seed=seed)
    rng = np.random.default_rng(seed + 1)
    return (w, rng.standard_normal((t, n, f)), rng.standard_normal(t),
            ridge, center)


def local_design(cores, phi, c):
    """Dense (T, chi_l*f*chi_r) design of the center core: row t is
    L_t (x) phi_t,c (x) R_t, with the environments contracted site by
    site by unoptimized einsum."""
    t = len(phi)
    left, right = np.ones((t, 1)), np.ones((t, 1))
    for j in range(c):
        left = np.einsum("tl,lfr,tf->tr", left, cores[j], phi[:, j])
    for j in range(len(cores) - 1, c, -1):
        right = np.einsum("tr,lfr,tf->tl", right, cores[j], phi[:, j])
    return np.einsum("tl,tf,tr->tlfr", left, phi[:, c], right).reshape(t, -1)


@settings(max_examples=100, deadline=None)
@given(regression_sites())
def test_quadratic_site_solver(case):
    """The MSE site solver's returned objective is the data loss of the
    trained chain, evaluated afresh, plus its ridge term; its first step
    length is the exact minimizer -g.d / (|B d|^2 / T + ridge |d|^2)
    along d = -g, from the dense local design B.  Both are held to 1e-12
    of the objective before the update and of that step length."""
    w, phi, y, ridge, c = case
    cores = [x.copy() for x in canonicalize(w, c).cores]
    cache = EnvironmentCache(cores, phi, center=c)
    steps = []

    def recording(cache, d, g_dot_d, ridge):
        alpha, dv = real_step(cache, d, g_dot_d, ridge)
        steps.append(alpha)
        return alpha, dv

    real_step = dmrg._initial_step
    with patch.object(dmrg, "_initial_step", recording):
        core, value, *_ = dmrg.optimize_site(
            cache, cores[c], y, TrainConfig(cg_steps=5, ridge=ridge))

    design = local_design(cores, phi, c)
    start = cores[c].ravel()
    residual = design @ start - y
    before = 0.5 * residual @ residual / len(y) + 0.5 * ridge * start @ start
    cores[c] = core
    fresh = (data_loss(MPS(cores).evaluate_batch(phi), y, MSE)
             + 0.5 * ridge * float(np.sum(core**2)))
    assert abs(value - fresh) <= 1e-12 * before

    g = design.T @ residual / len(y) + ridge * start
    if not steps:  # already stationary: no step taken
        assert g @ g <= 1e-28 * max(1.0, before)
        return
    bd = design @ g
    exact = (g @ g) / (bd @ bd / len(y) + ridge * (g @ g))
    assert abs(steps[0] - exact) <= 1e-12 * exact


@st.composite
def classifier_sites(draw):
    """(MPS, phi, y, ridge, center): a chain of ``labeled_chains``, random
    class labels, ridge 0 or 1e-3, any center."""
    w, phi, seed = draw(labeled_chains())
    ridge = draw(st.sampled_from([0.0, 1e-3]))
    center = draw(st.integers(0, w.n_sites - 1))
    y = np.random.default_rng(seed + 2).integers(0, w.label_dim, len(phi))
    return w, phi, y, ridge, center


def pairwise_cross_entropy_cg(cache, core, y, config):
    """The cross-entropy CG loop as written before MSE and cross-entropy
    shared one solver: pairwise-sum reductions, the first trial step
    min(1, 4 x the last accepted step), every trial core applied, and
    the PR+ beta g_new.(g_new - g) / |g|^2."""
    kind, ridge = config.loss_kind, config.ridge

    def loss(core):
        out = cache.apply(core)
        value = data_loss(out, y, kind)
        if ridge:
            value += 0.5 * ridge * float(np.sum(core**2))
        return value, out

    def gradient(core, out):
        grad = cache.grad_from_output_coeffs(output_grad_coeffs(out, y, kind))
        return grad + ridge * core if ridge else grad

    f0, out = loss(core)
    g = gradient(core, out)
    d = -g
    stalled = False
    accepted = trials = 0
    step_sum = 0.0
    alpha_prev = 1.0
    for _ in range(config.cg_steps):
        gnorm2 = float(np.sum(g * g))
        if gnorm2 <= 1e-28 * max(1.0, abs(f0)):
            break
        g_dot_d = float(np.sum(g * d))
        if g_dot_d >= 0.0:
            d = -g
            g_dot_d = -gnorm2
        alpha = min(1.0, 4.0 * alpha_prev)
        for _ in range(dmrg.MAX_HALVINGS + 1):
            trials += 1
            candidate = core + alpha * d
            f1, out1 = loss(candidate)
            if f1 <= f0 + dmrg.ARMIJO_C * alpha * g_dot_d:
                break
            alpha *= 0.5
        else:
            stalled = True
            break
        accepted += 1
        step_sum += alpha
        alpha_prev = alpha
        core, f0, out = candidate, f1, out1
        g_new = gradient(core, out)
        beta = max(0.0, float(np.sum(g_new * (g_new - g))) / gnorm2)
        d = -g_new + beta * d
        g = g_new
    return core, f0, stalled, step_sum, accepted, trials


@settings(max_examples=100, deadline=None)
@given(classifier_sites())
def test_cross_entropy_site_solver_bitwise(case):
    """``optimize_site`` on cross-entropy is the pairwise-sum CG loop bit
    for bit: the new core, objective, stalled flag, summed step length and
    both counters, label first, in the middle or last, at any center."""
    w, phi, y, ridge, c = case
    config = TrainConfig(cg_steps=5, ridge=ridge, loss_kind=CROSS_ENTROPY)
    results = []
    for solver in (dmrg.optimize_site, pairwise_cross_entropy_cg):
        cores = [x.copy() for x in canonicalize(w, c).cores]
        cache = EnvironmentCache(cores, phi, label_site=w.label_site,
                                 center=c)
        results.append(solver(cache, cores[c], y, config))
    (core, *rest), (ref_core, *ref_rest) = results
    assert np.array_equal(core, ref_core)
    assert rest == ref_rest
