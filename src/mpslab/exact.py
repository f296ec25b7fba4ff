"""Closed-form ridge regression in the full f^N product-feature space.

Stationarity of the regularized squared loss gives the linear system
A w = b with A = lambda*I + (1/T) sum_i phi_i phi_i^T and
b = (1/T) sum_i y_i phi_i over row-major-flattened feature tensors.
Solving it by LU and compressing the reshaped solution by sequential SVDs
yields the "inversion and compression" training method.
"""

from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .errors import CapacityError
from .features import FeatureMap, featurize_batch
from .mps import MPS, compress
from .tensor import row_outer, solve_linear

DESIGN_GUARD = 10**4


@dataclass(frozen=True)
class DesignSystem:
    """Normal-equations system for the full weight tensor."""

    a: np.ndarray  # (f^N, f^N), symmetric positive definite
    b: np.ndarray  # (f^N,)
    shape: tuple  # (f, ..., f) of the weight tensor


def design_matrix(phi: np.ndarray) -> np.ndarray:
    """Rows are the row-major flattened feature tensors, shape (T, f^N)."""
    z = np.ones((phi.shape[0], 1))
    for j in range(phi.shape[1]):
        z = row_outer(z, phi[:, j])
    return z


def build_design_system(phi: np.ndarray, y: np.ndarray,
                        ridge: float) -> DesignSystem:
    """A and b from featurized samples phi (T, N, f) and labels y (T,);
    guarded to f^N <= 10^4."""
    if ridge <= 0.0:
        raise ValueError(f"ridge coefficient must be > 0, got {ridge}")
    t, n, f = phi.shape
    dim = f**n
    if dim > DESIGN_GUARD:
        raise CapacityError(f"design matrix would be {dim} x {dim}")
    z = design_matrix(phi)
    a = (z.T @ z) / t
    a[np.diag_indices_from(a)] += ridge
    b = z.T @ y / t
    return DesignSystem(a=a, b=b, shape=(f,) * n)


def solve_full_weight(system: DesignSystem) -> np.ndarray:
    """LU-solve A w = b and reshape w to the (f, ..., f) weight tensor."""
    w = solve_linear(system.a, system.b)
    return w.reshape(system.shape)


def inversion_and_compression(d: Dataset, fmap: FeatureMap, ridge: float,
                              max_bond: int) -> MPS:
    """Exact ridge solution compressed to the requested bond dimension."""
    phi = featurize_batch(fmap, d.features)
    full = solve_full_weight(build_design_system(phi, d.labels, ridge))
    w, _ = compress(full, max_bond)
    return w
