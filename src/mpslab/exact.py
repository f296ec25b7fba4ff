"""Closed-form ridge regression in the full f^N product-feature space.

Stationarity of the regularized squared loss gives the linear system
A w = b with A = lambda*I + (1/T) Z^T Z and b = (1/T) Z^T y, where the
rows of the design matrix Z (T x f^N) are the row-major-flattened feature
tensors.  With fewer samples than features the same solution comes from
the T x T dual system (Z Z^T / T + lambda*I) alpha = y / T as
w = Z^T alpha (Saunders, Gammerman & Vovk, "Ridge Regression Learning
Algorithm in Dual Variables", ICML 1998), which is smaller and far better
conditioned.  Solving by LU and compressing the reshaped solution by
sequential SVDs yields the "inversion and compression" training method.
"""

from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .errors import CapacityError, DimensionMismatchError
from .features import FeatureMap, featurize_batch
from .mps import MPS, compress
from .tensor import row_outer, solve_linear

DESIGN_GUARD = 10**4


@dataclass(frozen=True)
class DesignSystem:
    """Ridge system over the design matrix: Z, the labels and the ridge.

    The normal equations A w = b are properties built on each access;
    ``solve_full_weight`` forms only the smaller of A and the dual
    matrix.  ``z`` also serves to evaluate full weight tensors on the
    training samples, ``z @ w.ravel()``.
    """

    z: np.ndarray  # (T, f^N) design matrix
    y: np.ndarray  # (T,) labels
    ridge: float
    shape: tuple  # (f, ..., f) of the weight tensor

    @property
    def a(self) -> np.ndarray:
        """lambda*I + Z^T Z / T, (f^N, f^N), symmetric positive definite."""
        a = (self.z.T @ self.z) / self.z.shape[0]
        a[np.diag_indices_from(a)] += self.ridge
        return a

    @property
    def b(self) -> np.ndarray:
        """Z^T y / T, (f^N,)."""
        return self.z.T @ self.y / self.z.shape[0]


def design_matrix(phi: np.ndarray) -> np.ndarray:
    """Rows are the row-major flattened feature tensors, shape (T, f^N)."""
    z = np.ones((phi.shape[0], 1))
    for j in range(phi.shape[1]):
        z = row_outer(z, phi[:, j])
    return z


def build_design_system(phi: np.ndarray, y: np.ndarray,
                        ridge: float) -> DesignSystem:
    """The system for featurized samples phi (T, N, f) and finite labels
    y (T,); guarded to f^N <= 10^4."""
    if ridge <= 0.0:
        raise ValueError(f"ridge coefficient must be > 0, got {ridge}")
    t, n, f = phi.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (t,):
        raise DimensionMismatchError(
            f"{t} featurized samples but labels of shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("labels have non-finite entries")
    dim = f**n
    if dim > DESIGN_GUARD:
        raise CapacityError(f"design matrix would be {dim} x {dim}")
    return DesignSystem(z=design_matrix(phi), y=y, ridge=ridge,
                        shape=(f,) * n)


def solve_full_weight(system: DesignSystem) -> np.ndarray:
    """The ridge solution as the (f, ..., f) weight tensor, by one LU solve.

    With T < f^N this solves the T x T dual system and maps back,
    w = Z^T alpha; otherwise the primal A w = b.
    """
    z = system.z
    t, dim = z.shape
    if t < dim:
        k = (z @ z.T) / t
        k[np.diag_indices_from(k)] += system.ridge
        w = z.T @ solve_linear(k, system.y / t)
    else:
        w = solve_linear(system.a, system.b)
    return w.reshape(system.shape)


def inversion_and_compression(d: Dataset, fmap: FeatureMap, ridge: float,
                              max_bond: int) -> MPS:
    """Exact ridge solution compressed to the requested bond dimension."""
    phi = featurize_batch(fmap, d.features)
    full = solve_full_weight(build_design_system(phi, d.labels, ridge))
    w, _ = compress(full, max_bond)
    return w
