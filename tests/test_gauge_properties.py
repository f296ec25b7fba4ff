"""Property tests of the gauge and compression invariants on random shapes.

``canonicalize``, ``truncate`` and ``compress`` are held to four
invariants: the represented tensor is preserved (exactly for gauge moves
and for truncations that discard nothing), the cores on each side of the
center are orthonormal, bonds stay within their cap, and the
``compress`` error is at most its summed discarded weight.  Shapes cover
N = 1, chi = 1 and a labeled core at the first and at the last site.
Tolerances are relative to the squared norm of the tensor.  ``compress``
with a shared SVD memo is held to the memo-free result bit for bit.
The chain a DMRG ``EnvironmentCache`` holds keeps the mixed gauge at its
center, and the model it was built from, through any walk of moves.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpslab.dmrg import EnvironmentCache
from mpslab.mps import (MPS, bond_cap, canonicalize, compress, random_init,
                        truncate)

TOL = 1e-10
LABEL_DIM = 3

shapes = dict(n=st.integers(1, 6), f=st.sampled_from([2, 3]),
              chi=st.integers(1, 6),
              label=st.sampled_from([None, "first", "last"]),
              seed=st.integers(0, 2**32 - 1))


def chain(n, f, chi, label, seed) -> MPS:
    label_site = {None: None, "first": 0, "last": n - 1}[label]
    return random_init(n, f, chi, scale=1.0 / np.sqrt(f * chi), seed=seed,
                       label_site=label_site,
                       label_dim=LABEL_DIM if label_site is not None else None)


def assert_same_tensor(got: MPS, want: MPS):
    a, b = got.to_full_tensor(), want.to_full_tensor()
    assert np.sum((a - b) ** 2) <= TOL * max(np.sum(b**2), 1e-300)


def assert_left_orthonormal(core):
    m = core.reshape(-1, core.shape[-1])
    np.testing.assert_allclose(m.T @ m, np.eye(m.shape[1]), atol=TOL)


def assert_right_orthonormal(core):
    m = core.reshape(core.shape[0], -1)
    np.testing.assert_allclose(m @ m.T, np.eye(m.shape[0]), atol=TOL)


def assert_bonds_capped(w: MPS, cap):
    for j, bond in enumerate(w.bond_dims):
        assert bond <= min(cap[j], bond_cap(w.n_sites, w.phys_dim, j,
                                            w.label_site, w.label_dim or 1))


def pad_bonds(w: MPS, extra: int, seed) -> MPS:
    """The same tensor with every internal bond ``extra`` wider: zero
    columns on the left core, random rows on the right one."""
    rng = np.random.default_rng(seed)
    cores = [c.copy() for c in w.cores]
    for j in range(w.n_sites - 1):
        left, right = cores[j], cores[j + 1]
        cores[j] = np.concatenate(
            [left, np.zeros(left.shape[:-1] + (extra,))], axis=-1)
        cores[j + 1] = np.concatenate(
            [right, rng.standard_normal((extra,) + right.shape[1:])], axis=0)
    return MPS(cores, label_site=w.label_site)


@settings(max_examples=60, deadline=None)
@given(center=st.integers(0, 5), **shapes)
@example(center=0, n=1, f=2, chi=1, label="first", seed=0)
@example(center=0, n=4, f=2, chi=1, label="last", seed=1)
@example(center=5, n=6, f=3, chi=6, label="first", seed=2)
@example(center=3, n=6, f=3, chi=6, label="last", seed=3)
def test_canonicalize(center, n, f, chi, label, seed):
    w = chain(n, f, chi, label, seed)
    center = min(center, n - 1)
    c = canonicalize(w, center)
    assert c.label_site == w.label_site
    assert_same_tensor(c, w)
    for j in range(center):
        assert_left_orthonormal(c.cores[j])
    for j in range(center + 1, n):
        assert_right_orthonormal(c.cores[j])
    assert_bonds_capped(c, w.bond_dims)
    # the norm concentrates in the center core
    np.testing.assert_allclose(np.sum(c.cores[center] ** 2),
                               w.norm_squared(), rtol=TOL)


@settings(max_examples=60, deadline=None)
@given(center=st.integers(0, 5), moves=st.lists(st.booleans(), max_size=12),
       t=st.integers(1, 5), **shapes)
@example(center=0, moves=[True] * 5 + [False] * 5, t=3, n=6, f=3, chi=6,
         label="first", seed=7)
@example(center=3, moves=[False, False, True], t=2, n=4, f=2, chi=3,
         label="last", seed=8)
@example(center=2, moves=[True, False] * 3, t=4, n=5, f=2, chi=4,
         label=None, seed=9)
def test_cache_keeps_mixed_gauge(center, moves, t, n, f, chi, label, seed):
    """After construction and after every move of a walk (right where
    ``moves`` says True and the center can go right, else left), the
    cores before the cache's center are left-orthonormal and those after
    it right-orthonormal within 1e-12, and the cores, and the
    environments with the center core, evaluate to the model the cache
    was built from, within 1e-12 of the Cauchy-Schwarz bound
    ||W|| prod_j ||phi_j|| on each output."""
    w = chain(n, f, chi, label, seed)
    phi = np.random.default_rng(seed + 1).standard_normal((t, n, f))
    want = w.evaluate_batch(phi)
    bound = np.sqrt(w.norm_squared()) * np.prod(
        np.linalg.norm(phi, axis=2), axis=1)
    if want.ndim == 2:
        bound = bound[:, None]
    center = min(center, n - 1)
    cache = EnvironmentCache(w, phi, center=center)
    for right in [None] + moves:
        if right is not None and n > 1:
            if right and center < n - 1 or center == 0:
                cache.move_right()
                center += 1
            else:
                cache.move_left()
                center -= 1
        assert cache.center == center
        for j in range(center):
            m = cache.cores[j].reshape(-1, cache.cores[j].shape[-1])
            np.testing.assert_allclose(m.T @ m, np.eye(m.shape[1]),
                                       rtol=0, atol=1e-12)
        for j in range(center + 1, n):
            m = cache.cores[j].reshape(cache.cores[j].shape[0], -1)
            np.testing.assert_allclose(m @ m.T, np.eye(m.shape[0]),
                                       rtol=0, atol=1e-12)
        got = MPS(cache.cores, label_site=w.label_site).evaluate_batch(phi)
        assert np.all(np.abs(got - want) <= 1e-12 * bound)
        assert np.all(np.abs(cache.apply(cache.cores[center]) - want)
                      <= 1e-12 * bound)


@settings(max_examples=60, deadline=None)
@given(cap=st.integers(1, 6), **shapes)
@example(cap=1, n=1, f=2, chi=1, label="first", seed=0)
@example(cap=1, n=5, f=3, chi=4, label="first", seed=4)
@example(cap=2, n=5, f=3, chi=4, label="last", seed=5)
def test_truncate(cap, n, f, chi, label, seed):
    w = chain(n, f, chi, label, seed)
    t = truncate(w, cap)
    assert t.label_site == w.label_site
    assert_bonds_capped(t, [cap] * (n - 1))
    if w.max_bond <= cap:
        assert_same_tensor(t, w)
        return
    for j in range(n - 1):
        assert_left_orthonormal(t.cores[j])
    # each truncation projects, so the norm cannot grow
    assert t.norm_squared() <= w.norm_squared() * (1.0 + TOL)
    if w.label_site is None:
        # from the right-canonical form each cut is the dense tensor's
        # optimal one: the error is within compress's discarded weight
        full = w.to_full_tensor()
        _, discarded = compress(full, cap)
        err = np.sum((t.to_full_tensor() - full) ** 2)
        assert err <= discarded.sum() + TOL * np.sum(full**2)


@settings(max_examples=60, deadline=None)
@given(extra=st.integers(1, 3), **shapes)
@example(extra=1, n=2, f=2, chi=1, label="first", seed=0)
@example(extra=2, n=5, f=2, chi=1, label="last", seed=6)
def test_truncate_preserves_padded_bonds(extra, n, f, chi, label, seed):
    """Widening every bond with zero weight and truncating back to the
    original bond dimension discards nothing."""
    w = chain(n, f, chi, label, seed)
    padded = pad_bonds(w, extra, seed)
    assert_same_tensor(padded, w)
    t = truncate(padded, w.max_bond)
    assert_bonds_capped(t, [w.max_bond] * (n - 1))
    assert_same_tensor(t, w)


@settings(max_examples=60, deadline=None)
@given(cap=st.integers(1, 30), n=st.integers(1, 6),
       f=st.sampled_from([2, 3]), chi=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@example(cap=1, n=1, f=2, chi=1, seed=0)
@example(cap=1, n=6, f=3, chi=6, seed=1)
@example(cap=27, n=6, f=3, chi=6, seed=2)
def test_compress(cap, n, f, chi, seed):
    """On a dense tensor with bond ranks at most chi: bonds capped,
    left-orthonormal cores, error within the discarded weight, and no
    loss once the cap reaches chi."""
    t = chain(n, f, chi, None, seed).to_full_tensor()
    w, discarded = compress(t, cap)
    assert discarded.shape == (n - 1,)
    assert np.all(discarded >= 0.0)
    assert_bonds_capped(w, [cap] * (n - 1))
    for j in range(n - 1):
        assert_left_orthonormal(w.cores[j])
    norm2 = np.sum(t**2)
    err = np.sum((w.to_full_tensor() - t) ** 2)
    assert err <= discarded.sum() + TOL * norm2
    if cap >= chi:
        assert err <= TOL * norm2


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), f=st.sampled_from([2, 3]),
       kind=st.sampled_from(["dense", "low_rank", "product"]),
       order=st.sampled_from(["ascending", "descending", "shuffled"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=6, f=3, kind="dense", order="ascending", seed=0)
@example(n=6, f=3, kind="low_rank", order="shuffled", seed=1)
@example(n=5, f=2, kind="product", order="descending", seed=2)
def test_compress_memo_bitwise(n, f, kind, order, seed):
    """Compressions of one tensor sharing a memo, in any order of caps,
    each equal the memo-free compression: cores and discarded weights."""
    if kind == "dense":
        t = np.random.default_rng(seed).standard_normal((f,) * n)
    else:
        t = chain(n, f, 2 if kind == "low_rank" else 1, None,
                  seed).to_full_tensor()
    chis = list(range(1, f ** (n // 2) + 2))
    if order == "descending":
        chis.reverse()
    elif order == "shuffled":
        np.random.default_rng(seed).shuffle(chis)
    memo = {}
    for chi in chis:
        got, got_discarded = compress(t, chi, memo)
        want, want_discarded = compress(t, chi)
        assert got.bond_dims == want.bond_dims
        for a, b in zip(got.cores, want.cores):
            assert np.array_equal(a, b)
        assert np.array_equal(got_discarded, want_discarded)


def test_compress_memo_bound_to_one_tensor():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3,) * 4)
    memo = {}
    compress(t, 2, memo)
    compress(t.copy(), 3, memo)  # equal values are the same tensor
    with pytest.raises(ValueError, match="another tensor"):
        compress(t + 1e-12, 2, memo)
    with pytest.raises(ValueError, match="another tensor"):
        compress(rng.standard_normal((3,) * 5), 2, memo)
