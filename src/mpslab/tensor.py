"""Dense multi-way array arithmetic: truncated SVD, linear solve, and the
row-wise outer product behind the GEMM contractions.

Tensors are plain float64 numpy arrays in C (row-major) order; every other
module builds on the three operations here.
"""

from dataclasses import dataclass

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


def kept_rank(s: np.ndarray, shape, max_rank: int | None = None) -> int:
    """How many leading triples a truncated SVD keeps: the rank rule.

    ``s`` holds the singular values of a matrix of ``shape``, in
    descending order.  Triples with sigma_k <= max(shape) * eps * sigma_0
    or sigma_k**2 == 0 (numerical zeros) are dropped, at most ``max_rank``
    are kept, and at least one is, so downstream bond extents stay >= 1.
    """
    tol = max(shape) * np.finfo(np.float64).eps * (s[0] if len(s) else 0.0)
    rank = min(int(np.count_nonzero(s**2 > 0.0)),
               int(np.count_nonzero(s > tol)))
    return max(1, rank if max_rank is None else min(rank, max_rank))


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
    """SVD of matrix ``m``, truncated to the ``kept_rank(s, m.shape,
    max_rank)`` leading singular triples.

    With ``max_rank=None`` the result is untruncated: every triple of the
    thin SVD, nothing discarded.  Its factors sliced to the leading
    ``k = kept_rank(s, m.shape, cap)`` triples, with discarded weight
    ``(s[k:]**2).sum()``, then equal ``svd_truncate(m, cap)`` bit for
    bit, so one SVD serves every cap.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {m.shape}")
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    if not np.all(np.isfinite(m)):
        raise FloatingPointError("matrix has non-finite entries")

    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if max_rank is None:
        return SvdResult(u, s, vt, 0.0)
    keep = kept_rank(s, m.shape, max_rank)
    return SvdResult(u[:, :keep], s[:keep], vt[:keep],
                     float((s[keep:]**2).sum()))


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
