"""Matrix product state weights: storage, evaluation, gauges, compression.

An MPS is a chain of order-3 cores, core j of shape (chi_{j-1}, f, chi_j)
with chi_0 = chi_N = 1.  An optional label site carries one extra axis of
extent C, making that core order-4 with shape (chi_{j-1}, f, C, chi_j).
All operations return new MPS values; cores are treated as immutable.
An MPS carries no gauge label: ``shift_center`` moves a mixed-canonical
center one site, and ``canonicalize``, ``truncate`` and the moves of the
DMRG sweep's chain (``dmrg.EnvironmentCache``) are built on it.
"""

import numpy as np

from .errors import CapacityError, DimensionMismatchError
from .features import SiteFeatures
from .tensor import kept_rank, row_outer, svd_truncate

FULL_TENSOR_GUARD = 10**7

FORMAT_VERSION = 1


class MPS:
    """Chain of MPS cores with an optional label axis on core
    ``label_site``, which must be one of the chain's sites."""

    def __init__(self, cores, label_site=None):
        cores = [np.asarray(c, dtype=np.float64) for c in cores]
        if not cores:
            raise ValueError("an MPS needs at least one core")
        if label_site is not None and not 0 <= label_site < len(cores):
            raise ValueError(f"label site {label_site} out of range for "
                             f"{len(cores)} sites")
        for j, core in enumerate(cores):
            want = 4 if j == label_site else 3
            if core.ndim != want:
                raise DimensionMismatchError(
                    f"core {j} must have {want} axes, got shape {core.shape}"
                )
            if core.shape[1] != cores[0].shape[1]:
                raise DimensionMismatchError(
                    f"core {j} has physical extent {core.shape[1]}, "
                    f"core 0 has {cores[0].shape[1]}"
                )
        if cores[0].shape[0] != 1 or cores[-1].shape[-1] != 1:
            raise DimensionMismatchError("boundary bond extents must be 1")
        for j in range(len(cores) - 1):
            if cores[j].shape[-1] != cores[j + 1].shape[0]:
                raise DimensionMismatchError(
                    f"bond mismatch between cores {j} and {j + 1}: "
                    f"{cores[j].shape[-1]} != {cores[j + 1].shape[0]}"
                )
        self.cores = cores
        self.label_site = label_site

    @property
    def n_sites(self) -> int:
        return len(self.cores)

    @property
    def phys_dim(self) -> int:
        return self.cores[0].shape[1]

    @property
    def label_dim(self):
        if self.label_site is None:
            return None
        return self.cores[self.label_site].shape[2]

    @property
    def bond_dims(self):
        """Extents of the N-1 internal bonds."""
        return [core.shape[-1] for core in self.cores[:-1]]

    @property
    def max_bond(self) -> int:
        dims = self.bond_dims
        return max(dims) if dims else 1

    def copy(self) -> "MPS":
        return MPS([c.copy() for c in self.cores], label_site=self.label_site)

    def evaluate_batch(self, phi) -> np.ndarray:
        """Contract with (T, N, f) featurized samples: an array, or
        ``SiteFeatures`` whose sites are embedded as the pass reads them.

        Returns shape (T,) for a plain MPS, (T, C) for a labeled one.
        One pass carries a (T, chi) boundary block from the left up to the
        stop site (the label site, else the last site), and a mirror pass
        carries one from the right down to it, so the class axis never
        rides along the chain.  Each step is one GEMM (``left_step`` and
        ``right_step``, shared with the training environments), with no
        einsum path planning per call.  Cost O(T N f chi^2) +
        O(T C chi^2).
        """
        if not isinstance(phi, SiteFeatures):
            phi = np.asarray(phi, dtype=np.float64)
        if len(phi.shape) != 3 or phi.shape[1] != self.n_sites:
            raise DimensionMismatchError(
                f"expected samples of shape (T, {self.n_sites}, {self.phys_dim}), "
                f"got {phi.shape}"
            )
        if phi.shape[2] != self.phys_dim:
            raise DimensionMismatchError(
                f"local vectors have length {phi.shape[2]}, cores expect {self.phys_dim}"
            )
        t = phi.shape[0]
        stop = self.n_sites - 1 if self.label_site is None else self.label_site
        left = np.ones((t, 1))
        for j in range(stop):
            left = left_step(row_outer(left, phi[:, j]), self.cores[j])
        right = np.ones((t, 1))
        for j in range(self.n_sites - 1, stop, -1):
            right = right_step(row_outer(phi[:, j], right), self.cores[j])
        core = self.cores[stop]
        out = row_outer(left, phi[:, stop]) @ core.reshape(
            core.shape[0] * core.shape[1], -1)
        # (T, C, chi_r) with C = 1 without a label; close the right bond
        out = out.reshape(t, -1, right.shape[1])
        out = (out * right[:, None, :]).sum(axis=2)
        return out if self.label_site is not None else out[:, 0]

    def to_full_tensor(self) -> np.ndarray:
        """Materialize the full weight tensor, shape (f, ..., f) [+ (C,) last].

        Test oracle and exact-solver bridge; guarded against blowup.
        """
        size = self.phys_dim**self.n_sites
        if self.label_site is not None:
            size *= self.label_dim
        if size > FULL_TENSOR_GUARD:
            raise CapacityError(f"full tensor would have {size} entries")
        # one GEMM per core on the (phys..., right-bond) chain, flattened
        full = self.cores[0].reshape(-1, self.cores[0].shape[-1])
        for core in self.cores[1:]:
            full = np.dot(full.reshape(-1, core.shape[0]),
                          core.reshape(core.shape[0], -1))
        full = full.reshape(
            [d for core in self.cores for d in core.shape[1:-1]])
        if self.label_site is not None:
            # move the label axis to the end
            full = np.moveaxis(full, self.label_site + 1, -1)
        return full

    def norm_squared(self) -> float:
        """Frobenius norm squared of the represented tensor, computed locally."""
        env = np.ones((1, 1))
        for core in self.cores:
            mat = core.reshape(core.shape[0], -1)
            top = env @ mat
            top = top.reshape((core.shape[0],) + core.shape[1:])
            axes = list(range(core.ndim - 1))
            env = np.tensordot(top, core, axes=(axes, axes))
        return float(env[0, 0])

    def __repr__(self):
        label = f", label_site={self.label_site}" if self.label_site is not None else ""
        return (
            f"MPS(n={self.n_sites}, f={self.phys_dim}, "
            f"bonds={self.bond_dims}{label})"
        )


def left_step(block: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Carry a left boundary block past a 3-index core.

    ``block`` is row_outer(L_j, phi_j), shape (T, chi_l*f); returns
    L_{j+1} = block @ core.reshape(chi_l*f, chi_r), shape (T, chi_r).
    """
    return block @ core.reshape(-1, core.shape[-1])


def right_step(block: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Carry a right boundary block past a 3-index core.

    ``block`` is row_outer(phi_j, R_{j+1}), shape (T, f*chi_r); returns
    R_j = block @ core.reshape(chi_l, f*chi_r).T, shape (T, chi_l).
    """
    return block @ core.reshape(core.shape[0], -1).T


def bond_cap(n: int, f: int, j: int, label_site=None, label_dim=1) -> int:
    """Entanglement-maximal extent of bond j (between sites j and j+1)."""
    left, right = 1, 1
    for s in range(j + 1):
        d = f * (label_dim if s == label_site else 1)
        left = min(left * d, FULL_TENSOR_GUARD)
    for s in range(j + 1, n):
        d = f * (label_dim if s == label_site else 1)
        right = min(right * d, FULL_TENSOR_GUARD)
    return min(left, right)


def shift_center(cores, j, step, factor=np.linalg.qr):
    """Move the mixed-canonical center from core j to core j + step.

    ``step`` is +1 or -1.  ``factor`` splits a matrix into (isometry,
    remainder), QR by default.  Core j, with its bond toward j + step
    moved last, is factored and becomes the isometry; the remainder is
    absorbed into core j + step (Schollwoeck, arXiv:1008.3477, sec. 4.4).
    Works in place on the list ``cores``.  A left move stores the
    isometry's transpose, reshaped: a moveaxis view would differ in
    strides on a new bond of extent 1, and strides pick the BLAS path of
    later products.
    """
    core = cores[j]
    if step < 0:
        core = core.transpose(*range(1, core.ndim), 0)
    left, carry = factor(core.reshape(-1, core.shape[-1]))
    rank = left.shape[1]
    nxt = cores[j + step]
    if step > 0:
        cores[j] = left.reshape(core.shape[:-1] + (rank,))
        absorbed = carry @ nxt.reshape(nxt.shape[0], -1)
        cores[j + 1] = absorbed.reshape((rank,) + nxt.shape[1:])
    else:
        cores[j] = left.T.reshape((rank,) + core.shape[:-1])
        absorbed = nxt.reshape(-1, nxt.shape[-1]) @ carry.T
        cores[j - 1] = absorbed.reshape(nxt.shape[:-1] + (rank,))


def canonicalize(w: MPS, center: int) -> MPS:
    """Mixed gauge at ``center``: left-orthonormal cores before it,
    right-orthonormal after.  The represented tensor is unchanged and its
    norm concentrates in the center core."""
    if not 0 <= center < w.n_sites:
        raise ValueError(f"center {center} out of range for {w.n_sites} sites")
    cores = [c.copy() for c in w.cores]
    for j in range(w.n_sites - 1, center, -1):
        shift_center(cores, j, -1)
    for j in range(center):
        shift_center(cores, j, 1)
    return MPS(cores, label_site=w.label_site)


def compress(t: np.ndarray, max_bond: int, memo=None):
    """Sweep a dense (f, ..., f) tensor into an MPS by sequential SVDs.

    Returns (mps, discarded) where discarded[j] is the squared-weight lost
    at bond j; ||t - t~||_F^2 <= sum(discarded).  The cores before the
    last are left-orthonormal.

    ``memo`` (a dict the caller owns, bound to ``t`` by its first use)
    shares SVDs between compressions of one tensor at different
    ``max_bond``.  The matrix split at bond j is fixed by the ranks kept
    at bonds 0..j-1, so the memo maps that tuple of ranks to the bond's
    untruncated ``svd_truncate`` result and its uncapped ``kept_rank``,
    and (ranks, kept rank) to that step's core, discarded weight and
    next remainder, sliced from the untruncated factors; a call slices
    an SVD only at a kept rank the memo has not seen.  A call without
    one uses a fresh memo, and those slices are ``svd_truncate(m, k)``
    bit for bit, so every result is the same with or without a shared
    memo.
    Passing the memo with another tensor raises ValueError: the first
    use stores a copy of ``t`` under the key None, and every later use
    compares ``t`` with it.
    """
    t = np.asarray(t, dtype=np.float64)
    n = t.ndim
    if n == 0 or t.shape != (t.shape[0],) * n:
        raise DimensionMismatchError(f"expected uniform extents, got shape {t.shape}")
    f = t.shape[0]
    if max_bond < 1:
        raise ValueError(f"max_bond must be >= 1, got {max_bond}")
    if memo is None:
        memo = {None: t}
    elif None not in memo:
        memo[None] = t.copy()
    elif not np.array_equal(memo[None], t):
        raise ValueError("memo is bound to another tensor")
    cores = []
    discarded = np.zeros(max(n - 1, 0))
    remainder = t.reshape(1, -1)
    ranks = ()
    for j in range(n - 1):
        if ranks not in memo:
            m = remainder.reshape(len(remainder) * f, -1)
            res = svd_truncate(m)
            memo[ranks] = res, kept_rank(res.singular_values, m.shape)
        res, rank = memo[ranks]
        keep = min(rank, max_bond)
        if (ranks, keep) not in memo:
            s = res.singular_values
            memo[ranks, keep] = (
                res.left_factor[:, :keep].reshape(-1, f, keep),
                float((s[keep:]**2).sum()),
                s[:keep, None] * res.right_factor[:keep])
        core, discarded[j], remainder = memo[ranks, keep]
        cores.append(core)
        ranks += (keep,)
    cores.append(remainder.reshape(-1, f, 1))
    return MPS(cores), discarded


def truncate(w: MPS, max_bond: int) -> MPS:
    """Cap every bond at ``max_bond`` without materializing the full tensor.

    Right-canonicalizes first so each left-to-right SVD truncation is
    locally optimal in Frobenius norm; the result is mixed-canonical at
    the last site.
    """
    if max_bond < 1:
        raise ValueError(f"max_bond must be >= 1, got {max_bond}")
    if w.max_bond <= max_bond:
        return w.copy()

    def truncated_svd(mat):
        res = svd_truncate(mat, max_bond)
        return res.left_factor, res.singular_values[:, None] * res.right_factor

    cores = canonicalize(w, 0).cores
    for j in range(w.n_sites - 1):
        shift_center(cores, j, 1, factor=truncated_svd)
    return MPS(cores, label_site=w.label_site)


def random_init(
    n: int,
    f: int,
    chi: int,
    scale: float,
    seed: int,
    label_site=None,
    label_dim=None,
) -> MPS:
    """Gaussian cores with std ``scale``; bonds capped at min(f^j, f^(N-j), chi)."""
    if chi < 1:
        raise ValueError(f"bond dimension must be >= 1, got {chi}")
    if label_site is not None and not label_dim:
        raise ValueError("label_site needs a label_dim")
    rng = np.random.default_rng(seed)
    ldim = label_dim if label_site is not None else 1
    dims = [1]
    dims += [min(chi, bond_cap(n, f, j, label_site, ldim)) for j in range(n - 1)]
    dims += [1]
    cores = []
    for j in range(n):
        shape = (dims[j], f, label_dim, dims[j + 1]) if j == label_site else (
            dims[j], f, dims[j + 1])
        cores.append(scale * rng.standard_normal(shape))
    return MPS(cores, label_site=label_site)


def save_mps(w: MPS, path) -> None:
    """Persist to a versioned .npz record (sizes, bond profile, then
    cores)."""
    payload = {
        "format_version": np.int64(FORMAT_VERSION),
        "n_sites": np.int64(w.n_sites),
        "phys_dim": np.int64(w.phys_dim),
        "label_site": np.int64(-1 if w.label_site is None else w.label_site),
        "bond_dims": np.asarray(w.bond_dims, dtype=np.int64),
    }
    for j, core in enumerate(w.cores):
        payload[f"core_{j}"] = np.ascontiguousarray(core)
    np.savez(path, **payload)


def load_mps(path) -> MPS:
    """Read a ``save_mps`` record.

    Every entry must be present, the stored physical extent and bond
    profile must match the cores, a stored label site must lie on the
    chain (a negative one means no label), and no ``core_j`` may lie
    beyond ``n_sites``; a malformed record raises ValueError naming the
    path and the entry.  Records that also hold
    ``gauge`` and ``center`` entries load with those ignored.
    """
    with np.load(path) as data:
        def entry(name):
            if name not in data.files:
                raise ValueError(f"{path}: the record has no entry {name!r}")
            return data[name]

        version = int(entry("format_version"))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format_version {version}")
        n = int(entry("n_sites"))
        if n < 1:
            raise ValueError(f"{path}: n_sites is stored as {n}, an MPS "
                             "needs at least one core")
        beyond = [int(name[5:]) for name in data.files
                  if name.startswith("core_") and name[5:].isdigit()
                  and int(name[5:]) >= n]
        if beyond:
            raise ValueError(f"{path}: the record holds core_{min(beyond)} "
                             f"beyond n_sites {n}")
        phys_dim = int(entry("phys_dim"))
        label_site = int(entry("label_site"))
        if label_site >= n:
            raise ValueError(f"{path}: label_site is stored as {label_site}; "
                             f"label site {label_site} is out of range for "
                             f"{n} sites")
        bond_dims = [int(d) for d in entry("bond_dims")]
        cores = [entry(f"core_{j}") for j in range(n)]
    w = MPS(cores, label_site=None if label_site < 0 else label_site)
    if phys_dim != w.phys_dim:
        raise ValueError(f"{path}: phys_dim is stored as {phys_dim}, the "
                         f"cores have {w.phys_dim}")
    if len(bond_dims) != n - 1:
        raise ValueError(f"{path}: bond_dims lists {len(bond_dims)} bonds, "
                         f"{n} cores have {n - 1}")
    for j, (stored, actual) in enumerate(zip(bond_dims, w.bond_dims)):
        if stored != actual:
            raise ValueError(f"{path}: bond {j} (cores {j}-{j + 1}) is "
                             f"stored as {stored}, the cores have {actual}")
    return w
