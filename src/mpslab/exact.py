"""Closed-form ridge regression in the full f^N product-feature space.

Stationarity of the regularized squared loss gives the linear system
A w = b with A = lambda*I + (1/T) Z^T Z and b = (1/T) Z^T y, where the
rows of the design matrix Z (T x f^N) are the row-major-flattened feature
tensors.  With fewer samples than features the same solution comes from
the T x T dual system (Z Z^T / T + lambda*I) alpha = y / T as
w = Z^T alpha (Saunders, Gammerman & Vovk, "Ridge Regression Learning
Algorithm in Dual Variables", ICML 1998), which is smaller and far better
conditioned.  Solving by LU and compressing the reshaped solution by
sequential SVDs yields the "inversion and compression" training method,
which ``inversion_fits`` runs at any list of bond dimensions.

The product feature map factors every row of Z at the middle bond: row t
is the outer product of a left half L[t] (the first h = N // 2 sites,
f^h entries) and a right half R[t] (the other N - h sites).  So
Z Z^T = (L L^T) * (R R^T) elementwise, Z^T alpha unfolded at that bond
is L^T diag(alpha) R, and Z w is the row-wise bilinear form
L[t] . W . R[t] with W unfolded alike.  The dual solve and every
evaluation run on the halves, O(T f^(N/2)) floats besides the T x T
Gram, and only the primal solve (T >= f^N) forms Z.
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
    """Ridge system over the design matrix, held as its two half-chain
    designs, with the labels and the ridge.

    Row t of Z is ``row_outer(left, right)[t]``.  ``solve_full_weight``
    forms the Gram matrix Z Z^T (T < f^N) or Z and the normal equations
    A w = b (otherwise), and ``evaluate_halves`` evaluates full weight
    tensors on the training samples without Z.
    """

    left: np.ndarray  # (T, f^h) design of the first h = N // 2 sites
    right: np.ndarray  # (T, f^(N - h)) design of the other sites
    y: np.ndarray  # (T,) labels
    ridge: float
    shape: tuple  # (f, ..., f) of the weight tensor


def _site_design(phi: np.ndarray) -> np.ndarray:
    """Row-major flattened feature tensors of phi's sites, (T, f^n)."""
    z = np.ones((phi.shape[0], 1))
    for j in range(phi.shape[1]):
        z = row_outer(z, phi[:, j])
    return z


def design_halves(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, R): the designs of the first h = N // 2 sites, (T, f^h), and of
    the other N - h, (T, f^(N - h)).  At N = 1, L is a column of ones."""
    h = phi.shape[1] // 2
    return _site_design(phi[:, :h]), _site_design(phi[:, h:])


def design_matrix(phi: np.ndarray) -> np.ndarray:
    """Rows are the row-major flattened feature tensors, shape (T, f^N)."""
    return row_outer(*design_halves(phi))


# Entries of the (rows, K, f^(N - h)) block ``evaluate_halves`` forms at once.
_EVAL_BLOCK = 2**15


def evaluate_halves(left: np.ndarray, right: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """Z @ weights.T for Z = row_outer(left, right), without forming Z.

    ``weights`` is (K, f^N), one row-major flattened full tensor per row;
    the result is (T, K).  Entry (t, k) is L[t] . W_k . R[t] with W_k
    unfolded to (f^h, f^(N - h)): one GEMM of a block of rows of L against
    every W_k side by side, then one batched matrix-vector product with
    the same rows of R.  Blocks of rows keep each transient at about
    ``_EVAL_BLOCK`` floats, whatever T is.
    """
    t, m = left.shape
    n = right.shape[1]
    k = weights.shape[0]
    side = weights.reshape(k, m, n).transpose(1, 0, 2).reshape(m, k * n)
    out = np.empty((t, k))
    rows = max(1, _EVAL_BLOCK // (k * n))
    for s in range(0, t, rows):
        block = (left[s:s + rows] @ side).reshape(-1, k, n)
        out[s:s + rows] = (block @ right[s:s + rows, :, None])[:, :, 0]
    return out


def build_design_system(phi: np.ndarray, y: np.ndarray,
                        ridge: float) -> DesignSystem:
    """The system for featurized samples phi (T, N, f) and finite labels
    y (T,); guarded to f^N <= 10^4."""
    if not 0.0 < ridge < np.inf:
        raise ValueError(f"ridge must be finite and > 0, got {ridge}")
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
    left, right = design_halves(phi)
    return DesignSystem(left=left, right=right, y=y, ridge=ridge,
                        shape=(f,) * n)


def solve_full_weight(system: DesignSystem) -> np.ndarray:
    """The ridge solution as the (f, ..., f) weight tensor, by one LU solve.

    With T < f^N this solves the T x T dual system on the halves' Gram,
    Z Z^T = (L L^T) * (R R^T) elementwise, and maps back,
    w = Z^T alpha = L^T diag(alpha) R; otherwise it forms Z and solves
    the primal A w = b, A = lambda*I + Z^T Z / T and b = Z^T y / T.
    """
    left, right, y = system.left, system.right, system.y
    t = len(y)
    if t < left.shape[1] * right.shape[1]:
        k = left @ left.T
        k *= right @ right.T
        k /= t
        k[np.diag_indices_from(k)] += system.ridge
        alpha = solve_linear(k, y / t)
        w = left.T @ (alpha[:, None] * right)
    else:
        z = row_outer(left, right)
        a = (z.T @ z) / t
        a[np.diag_indices_from(a)] += system.ridge
        w = solve_linear(a, z.T @ y / t)
    return w.reshape(system.shape)


def inversion_fits(phi, y, ridge, chi_values, *held_out):
    """The inversion fit of featurized samples phi (T, N, f) with labels
    y (T,), compressed to each bond dimension of ``chi_values``.

    Returns (full, models, predictions): the ridge solution of
    ``build_design_system(phi, y, ridge)`` as the (f, ..., f) weight
    tensor, its compressions in ``chi_values`` order, and one (T, K)
    array of the K models' outputs per dataset, the training samples
    first and then each held-out ``design_halves`` pair in ``held_out``.
    The compressions share one SVD memo, so each distinct SVD is computed
    once, and the outputs come from the models' stacked full tensors by
    ``evaluate_halves``, so no T x f^N design matrix is formed.
    """
    system = build_design_system(phi, y, ridge)
    full = solve_full_weight(system)
    memo = {}
    models = [compress(full, chi, memo)[0] for chi in chi_values]
    stack = np.stack([w.to_full_tensor().ravel() for w in models])
    return full, models, [evaluate_halves(left, right, stack) for left, right
                          in ((system.left, system.right), *held_out)]


def inversion_and_compression(d: Dataset, fmap: FeatureMap, ridge: float,
                              max_bond: int) -> MPS:
    """Exact ridge solution of dataset ``d`` compressed to the requested
    bond dimension: the one model of ``inversion_fits``."""
    phi = featurize_batch(fmap, d.features)
    return inversion_fits(phi, d.labels, ridge, [max_bond])[1][0]
