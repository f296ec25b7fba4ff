"""Dense multi-way array arithmetic: truncated SVD, linear solve, and the
row-wise outer product behind the GEMM contractions.

Tensors are plain float64 numpy arrays in C (row-major) order; every other
module builds on the three operations here.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError


@dataclass(frozen=True)
class SvdResult:
    """Truncated SVD m ~ left_factor @ diag(singular_values) @ right_factor.

    ``discarded_weight`` is the sum of squares of the dropped singular
    values, i.e. the squared Frobenius error of the reconstruction (0 for
    the untruncated SVD that ``svd_truncate(m)`` returns).
    """

    left_factor: np.ndarray
    singular_values: np.ndarray
    right_factor: np.ndarray
    discarded_weight: float

    @property
    def rank(self) -> int:
        return len(self.singular_values)

    @cached_property
    def _keep_rule(self) -> tuple[np.ndarray, int]:
        """(squared singular values, count of non-negligible triples),
        derived once per result however many caps truncate it."""
        s = self.singular_values
        weights = s**2
        rank_tol = (max(self.left_factor.shape[0], self.right_factor.shape[1])
                    * np.finfo(np.float64).eps * (s[0] if len(s) else 0.0))
        nonzero = min(int(np.count_nonzero(weights > 0.0)),
                      int(np.count_nonzero(s > rank_tol)))
        return weights, nonzero

    def truncate(self, max_rank: int) -> "SvdResult":
        """Keep at most ``max_rank`` leading triples.

        Triples with sigma_k <= max(m.shape) * eps * sigma_0 (numerical
        zeros) are dropped as well; at least one is always retained so
        downstream bond extents stay >= 1.  The dropped squared weight is
        added to ``discarded_weight``.
        """
        weights, nonzero = self._keep_rule
        keep = max(1, min(nonzero, max_rank))
        return SvdResult(
            left_factor=self.left_factor[:, :keep],
            singular_values=self.singular_values[:keep],
            right_factor=self.right_factor[:keep, :],
            discarded_weight=self.discarded_weight + float(weights[keep:].sum()),
        )


def row_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise outer product of (T, m) and (T, n) blocks as (T, m*n).

    Column i*n + k holds a[:, i] * b[:, k], the C-order flattening of an
    (m, n) pair, so the result multiplies a core reshaped to (m*n, ...) in
    one GEMM.

    A broadcast multiply runs its innermost loop over the n columns of b,
    which is slow when n is short (the f = 2 or 3 feature columns of
    ``row_outer(carry, phi_j)``).  When n < m, each column k instead fills
    the strided slice out[:, :, k] with one multiply over all of a.  Every
    entry is the same single product either way, so both forms are
    bitwise equal.
    """
    t, m = a.shape
    n = b.shape[1]
    if n >= m:
        return (a[:, :, None] * b[:, None, :]).reshape(t, m * n)
    out = np.empty((t, m, n), dtype=np.result_type(a, b))
    for k in range(n):
        np.multiply(a, b[:, k, None], out=out[:, :, k])
    return out.reshape(t, m * n)


def svd_truncate(m: np.ndarray, max_rank: int | None = None) -> SvdResult:
    """SVD of matrix ``m``, truncated to at most ``max_rank`` singular
    triples by ``SvdResult.truncate``.

    With ``max_rank=None`` the result is untruncated: every triple of the
    thin SVD, nothing discarded.  ``svd_truncate(m).truncate(k)`` then
    equals ``svd_truncate(m, k)`` bit for bit, so one SVD serves every
    cap.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {m.shape}")
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    if not np.all(np.isfinite(m)):
        raise FloatingPointError("matrix has non-finite entries")

    u, s, vt = np.linalg.svd(m, full_matrices=False)
    full = SvdResult(left_factor=u, singular_values=s, right_factor=vt,
                     discarded_weight=0.0)
    return full if max_rank is None else full.truncate(max_rank)


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ w = b for a square matrix ``a`` by LU factorization with
    partial pivoting (LAPACK gesv through ``np.linalg.solve``).

    Non-finite entries in ``a`` or ``b`` raise ValueError before the
    factorization; an exactly zero pivot raises SingularMatrixError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"matrix is {a.shape} but right-hand side has length {b.shape[0]}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "exactly singular matrix in LU factorization") from exc
