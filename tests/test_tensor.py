
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab.errors import DimensionMismatchError, SingularMatrixError
from mpslab.tensor import solve_linear, svd_truncate


class TestSvdTruncate:
    def test_rank_one(self):
        m = np.outer([1.0, 2.0], [3.0, 4.0])
        res = svd_truncate(m, max_rank=5)
        assert res.rank == 1
        assert res.singular_values[0] == pytest.approx(np.sqrt(125.0))
        assert res.discarded_weight <= 1e-25

    def test_identity_truncation(self):
        res = svd_truncate(np.eye(3), max_rank=2)
        assert res.rank == 2
        assert res.discarded_weight == pytest.approx(1.0)

    def test_reconstruction_error_equals_discarded_weight(self):
        rng = np.random.default_rng(27)
        m = rng.standard_normal((27, 27))
        res = svd_truncate(m, max_rank=10)
        approx = res.left_factor @ np.diag(res.singular_values) @ res.right_factor
        err2 = np.sum((m - approx) ** 2)
        assert err2 == pytest.approx(res.discarded_weight, rel=1e-10)
        # full-SVD oracle: the discarded weight is the tail of the spectrum
        s = np.linalg.svd(m, compute_uv=False)
        assert res.discarded_weight == pytest.approx(np.sum(s[10:] ** 2),
                                                     rel=1e-12)

    def test_factors_orthonormal_and_sorted(self):
        rng = np.random.default_rng(5)
        res = svd_truncate(rng.standard_normal((8, 12)), max_rank=6)
        np.testing.assert_allclose(res.left_factor.T @ res.left_factor,
                                   np.eye(6), atol=1e-12)
        np.testing.assert_allclose(res.right_factor @ res.right_factor.T,
                                   np.eye(6), atol=1e-12)
        assert np.all(np.diff(res.singular_values) <= 0)

    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((9, 7))
        res = svd_truncate(m, max_rank=9)
        approx = res.left_factor @ np.diag(res.singular_values) @ res.right_factor
        np.testing.assert_allclose(approx, m, rtol=0,
                                   atol=1e-10 * np.linalg.norm(m))


    def test_numerical_zeros_dropped(self):
        res = svd_truncate(np.diag([10.0, 1.0, 1e-17]), max_rank=3)
        assert res.rank == 2
        assert res.discarded_weight == pytest.approx(1e-34)

    def test_untruncated_slices_bitwise(self):
        """One SVD serves every cap: truncating the untruncated result
        equals ``svd_truncate`` at that cap bit for bit."""
        rng = np.random.default_rng(7)
        m = rng.standard_normal((9, 27)) @ np.diag(
            np.r_[np.ones(6), np.zeros(21)]) @ rng.standard_normal((27, 27))
        full = svd_truncate(m)
        assert full.rank == 9 and full.discarded_weight == 0.0
        for cap in range(1, 11):
            got, want = full.truncate(cap), svd_truncate(m, cap)
            assert got.rank == want.rank == min(cap, 6)
            for a, b in ((got.left_factor, want.left_factor),
                         (got.singular_values, want.singular_values),
                         (got.right_factor, want.right_factor)):
                assert np.array_equal(a, b)
            assert got.discarded_weight == want.discarded_weight

    def test_nonfinite_raises(self):
        with pytest.raises(FloatingPointError):
            svd_truncate(np.array([[1.0, np.nan], [0.0, 1.0]]), max_rank=2)


class TestSolveLinear:
    def test_identity(self):
        np.testing.assert_allclose(
            solve_linear(np.eye(3), np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_diagonal(self):
        np.testing.assert_allclose(
            solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0])), [1, 1])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(100)
        g = rng.standard_normal((100, 100))
        a = g @ g.T + 100 * np.eye(100)
        b = rng.standard_normal(100)
        x = solve_linear(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)
        # iterative-refinement oracle: one refinement step barely moves x
        dx = solve_linear(a, b - a @ x)
        assert np.linalg.norm(dx) <= 1e-10 * np.linalg.norm(x)

    def test_exactly_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve_linear(a, np.array([1.0, 1.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            solve_linear(np.eye(3), np.ones(4))
        with pytest.raises(DimensionMismatchError):
            solve_linear(np.ones((2, 3)), np.ones(2))

    def test_solve_then_multiply_is_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = rng.standard_normal((20, 20))
            a = g @ g.T + 20 * np.eye(20)
            b = rng.standard_normal(20)
            np.testing.assert_allclose(a @ solve_linear(a, b), b, rtol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_matrix_raises(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_linear(a, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_raises(self, bad):
        b = np.ones(3)
        b[0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_linear(np.eye(3), b)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_well_conditioned_residual(n, seed):
    """a = Q1 diag(s) Q2 with s in [1, 10] (condition <= 10): the LU
    solution's residual is roundoff relative to b."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q1 * rng.uniform(1.0, 10.0, n)) @ q2
    b = rng.standard_normal(n)
    x = solve_linear(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
