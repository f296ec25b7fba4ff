"""Synthetic regression data generated by a nilpotent-matrix target MPS.

The target weight is a chain whose physical slice k at site j is the k-th
power of a strictly-superdiagonal matrix (optionally conjugated by a
per-site random orthogonal), sandwiched between Gaussian boundary vectors.
Every monomial of total degree n in the resulting label polynomial then
carries an epsilon^n prefactor, so one scalar tunes data complexity.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError
from .features import FeatureMap, featurize_batch
from .mps import MPS
from .tables import write_table


@dataclass(frozen=True)
class TargetSpec:
    """Parameters of the data-generating MPS."""

    n_sites: int = 6
    phys_dim: int = 3
    epsilon: float = 0.3
    chi_target: int = 27
    apply_unitary: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"need at least one site, got {self.n_sites}")
        if self.chi_target < 2:
            raise ValueError(f"chi_target must be >= 2, got {self.chi_target}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")


@dataclass
class Dataset:
    """Sampled features with normalized labels and the affine record."""

    features: np.ndarray  # (T, N)
    labels: np.ndarray  # (T,), mean 0 / std 1 after normalization
    label_mean: float
    label_std: float
    seed: int

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def build_nilpotent(size: int, epsilon: float) -> np.ndarray:
    """size x size matrix with epsilon on the first superdiagonal.

    M^k has epsilon^k on the k-th superdiagonal and M^size = 0 exactly.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    m = np.zeros((size, size))
    idx = np.arange(size - 1)
    m[idx, idx + 1] = epsilon
    return m


def _haar_orthogonal(size: int, rng) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR of a Gaussian, sign-fixed)."""
    g = rng.standard_normal((size, size))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def build_target_mps(spec: TargetSpec, left_boundary=None, right_boundary=None) -> MPS:
    """Construct the target MPS from a TargetSpec.

    Site j's physical slice k is (U_j M U_j^T)^k, with an independent
    orthogonal U_j per site when apply_unitary is on (plain M^k otherwise).
    The boundary slices are w^T (U M U^T)^k on the left and (U M U^T)^k v
    on the right, with w, v unit-variance Gaussian vectors from spec.seed.
    Override them via ``left_boundary`` / ``right_boundary`` for controlled
    polynomials.

    Shared-U conjugation telescopes the matrix powers and collapses the
    center bond far below chi_target; independent per-site conjugations
    keep the epsilon^n structure while reaching the full bond profile.
    """
    rng = np.random.default_rng(spec.seed)
    m = build_nilpotent(spec.chi_target, spec.epsilon)
    w = rng.standard_normal(spec.chi_target) if left_boundary is None else (
        np.asarray(left_boundary, dtype=np.float64))
    v = rng.standard_normal(spec.chi_target) if right_boundary is None else (
        np.asarray(right_boundary, dtype=np.float64))

    cores = []
    for j in range(spec.n_sites):
        if spec.apply_unitary:
            u = _haar_orthogonal(spec.chi_target, rng)
            mj = u @ m @ u.T
        else:
            mj = m
        slices = [np.eye(spec.chi_target)]
        for _ in range(1, spec.phys_dim):
            slices.append(slices[-1] @ mj)
        stack = np.stack(slices)  # (f, chi, chi)
        if spec.n_sites == 1:
            core = np.einsum("l,flr,r->f", w, stack, v)[None, :, None]
        elif j == 0:
            core = np.einsum("l,flr->fr", w, stack)[None, :, :]
        elif j == spec.n_sites - 1:
            core = np.einsum("flr,r->fl", stack, v).transpose(1, 0)[:, :, None]
        else:
            core = stack.transpose(1, 0, 2)
        cores.append(core)
    return MPS(cores)


@functools.lru_cache(maxsize=16)
def _target_mps(spec: TargetSpec) -> MPS:
    """``build_target_mps(spec)``, built once per spec and shared by every
    dataset drawn from it; its cores are read-only."""
    target = build_target_mps(spec)
    for core in target.cores:
        core.flags.writeable = False
    return target


def sample_features(n_samples: int, n_features: int, seed) -> np.ndarray:
    """(T, N) matrix of i.i.d. standard normal features."""
    if n_samples < 1 or n_features < 1:
        raise ValueError("sample count and feature count must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_samples, n_features))


def normalize_labels(raw: np.ndarray):
    """Center and scale to mean 0 / std 1; returns (labels, mean, std)."""
    mean = float(raw.mean())
    std = float(raw.std())
    if std == 0.0 or not np.isfinite(std):
        raise DegenerateDataError("labels have zero variance")
    return (raw - mean) / std, mean, std


def generate_dataset(spec: TargetSpec, n_samples: int, seed) -> Dataset:
    """Sample features, label them with the target MPS, normalize.

    The target is built from spec.seed (once per spec) and the samples
    from ``seed``, so replicate sets share one target bitwise while
    differing in samples.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples for the std to exist")
    target = _target_mps(spec)
    x = sample_features(n_samples, spec.n_sites, seed)
    fmap = FeatureMap(dim=spec.phys_dim)
    raw = target.evaluate_batch(featurize_batch(fmap, x))
    labels, mean, std = normalize_labels(raw)
    return Dataset(features=x, labels=labels, label_mean=mean, label_std=std,
                   seed=seed)


def add_label_noise(labels: np.ndarray, fraction: float, num_classes: int,
                    seed) -> np.ndarray:
    """Reassign round(fraction * T) distinct labels to a different class."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"noise fraction must be in [0, 1], got {fraction}")
    labels = np.asarray(labels)
    n_corrupt = int(round(fraction * len(labels)))
    if n_corrupt == 0:
        return labels.copy()
    if num_classes < 2:
        raise ValueError("need at least two classes to corrupt labels")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(labels), size=n_corrupt, replace=False)
    out = labels.copy()
    # uniform over the C-1 classes different from the current one
    shift = rng.integers(1, num_classes, size=n_corrupt)
    out[idx] = (out[idx] + shift) % num_classes
    return out


def save_dataset_csv(d: Dataset, path) -> None:
    """Write `x1,...,xN,y` rows of shortest round-trip floats (lossless)."""
    write_table(path, [f"x{j + 1}" for j in range(d.n_features)] + ["y"],
                ([*row, y] for row, y in zip(d.features, d.labels)))

