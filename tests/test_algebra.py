import numpy as np
import pytest

from dualstab.algebra import (
    DimensionMismatch,
    NotSpd,
    cholesky,
    operator_norm,
    require_symmetric,
    spd_solve,
    sym_generalized_eig,
    sym_generalized_eigvals,
)


def random_spd(rng, n, lo=0.1, hi=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ev = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return q @ (ev[:, None] * q.T)


class TestCholesky:
    def test_two_by_two_factor(self):
        # [[4,2],[2,3]] = L L^T with L = [[2,0],[1,sqrt(2)]]
        fact = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]), "m")
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(fact.lower, expected, atol=1e-14)

    def test_factor_roundtrip(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 40):
            m = random_spd(rng, n)
            fact = cholesky(m, "m")
            np.testing.assert_allclose(fact.lower @ fact.lower.T, m, atol=1e-12 * n)

    def test_indefinite_rejected(self):
        with pytest.raises(NotSpd):
            cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]), "m")

    def test_semidefinite_rejected(self):
        # rank-1 matrix: LAPACK may or may not fail, the pivot check must
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(NotSpd):
            cholesky(np.outer(v, v), "m")

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[2.0, 1.0], [0.0, 2.0]]), "m")

    def test_error_message_names_matrix(self):
        with pytest.raises(NotSpd, match="pressure Gramian"):
            cholesky(-np.eye(2), "pressure Gramian")


class TestSpdSolve:
    def test_frozen_solution(self):
        # inv([[4,2],[2,3]]) @ (1,0) = (3/8, -1/4)
        fact = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]), "m")
        np.testing.assert_allclose(spd_solve(fact, np.array([1.0, 0.0])), [0.375, -0.25])

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(11)
        for n in (3, 20, 80):
            m = random_spd(rng, n)
            fact = cholesky(m, "m")
            b = rng.standard_normal(n)
            np.testing.assert_allclose(spd_solve(fact, b), np.linalg.solve(m, b), rtol=1e-9)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(12)
        m = random_spd(rng, 9)
        fact = cholesky(m, "m")
        b = rng.standard_normal((9, 4))
        np.testing.assert_allclose(m @ spd_solve(fact, b), b, atol=1e-10)

    def test_identity_inverse(self):
        rng = np.random.default_rng(13)
        m = random_spd(rng, 6)
        inv = spd_solve(cholesky(m, "m"), np.eye(6))
        np.testing.assert_allclose(inv, np.linalg.inv(m), rtol=1e-9, atol=1e-12)


class TestGeneralizedEig:
    def test_diagonal_pencil(self):
        a = np.diag([3.0, 1.0, 2.0])
        res = sym_generalized_eig(a, cholesky(np.eye(3), "b"))
        np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)

    def test_scaled_identity_pencil(self):
        # (A, 2A) has every eigenvalue exactly 1/2
        rng = np.random.default_rng(21)
        a = random_spd(rng, 8)
        res = sym_generalized_eig(a, cholesky(2.0 * a, "b"))
        np.testing.assert_allclose(res.eigenvalues, 0.5, rtol=1e-12)

    def test_frozen_two_by_two(self):
        a = np.array([[2.0, 0.0], [0.0, 8.0]])
        b = np.array([[2.0, 0.0], [0.0, 4.0]])
        res = sym_generalized_eig(a, cholesky(b, "b"))
        np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0], atol=1e-14)

    def test_b_orthonormal_and_residual(self):
        rng = np.random.default_rng(22)
        for n in (2, 10, 60):
            a = random_spd(rng, n)
            a = 0.5 * (a + a.T)
            b = random_spd(rng, n)
            res = sym_generalized_eig(a, cholesky(b, "b"))
            x, lam = res.eigenvectors, res.eigenvalues
            np.testing.assert_allclose(x.T @ b @ x, np.eye(n), atol=1e-10)
            np.testing.assert_allclose(a @ x, b @ x * lam, atol=1e-9 * np.abs(a).max())
            assert np.all(np.diff(lam) >= -1e-13)

    def test_rayleigh_bracketing(self):
        # every Rayleigh quotient lies between the extreme eigenvalues
        rng = np.random.default_rng(23)
        a = random_spd(rng, 25)
        b = random_spd(rng, 25)
        res = sym_generalized_eig(a, cholesky(b, "b"))
        for _ in range(200):
            v = rng.standard_normal(25)
            rq = (v @ a @ v) / (v @ b @ v)
            assert res.eigenvalues[0] - 1e-10 <= rq <= res.eigenvalues[-1] + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sym_generalized_eig(np.eye(3), cholesky(np.eye(2), "b"))


class TestGeneralizedEigvals:
    def test_matches_full_solve(self):
        rng = np.random.default_rng(24)
        for n in (1, 2, 10, 60):
            a = random_spd(rng, n)
            b = random_spd(rng, n)
            fact = cholesky(b, "b")
            full = sym_generalized_eig(a, fact).eigenvalues
            np.testing.assert_allclose(
                sym_generalized_eigvals(a, fact), full, rtol=1e-12, atol=0.0
            )

    def test_indefinite_pencil_matrix(self):
        rng = np.random.default_rng(25)
        q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        a = q @ (np.linspace(-5.0, 3.0, 30)[:, None] * q.T)
        fact = cholesky(random_spd(rng, 30), "b")
        values = sym_generalized_eigvals(a, fact)
        full = sym_generalized_eig(a, fact).eigenvalues
        assert values[0] < 0.0 < values[-1]
        np.testing.assert_allclose(values, full, rtol=1e-12, atol=1e-12 * np.abs(full).max())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sym_generalized_eigvals(np.eye(3), cholesky(np.eye(2), "b"))


class TestOperatorNorm:
    def test_diagonal(self):
        fact = cholesky(np.eye(2), "g")
        assert operator_norm(np.diag([3.0, 1.0]), fact, fact) == pytest.approx(3.0, abs=1e-13)

    def test_nilpotent(self):
        # ||[[0,2],[0,0]]|| = 2 in the Euclidean pair
        fact = cholesky(np.eye(2), "g")
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert operator_norm(a, fact, fact) == pytest.approx(2.0, abs=1e-13)

    def test_matches_svd_route(self):
        # independent route: largest singular value of L_test^-1 A L_trial^-T
        rng = np.random.default_rng(31)
        g_test = random_spd(rng, 12)
        g_trial = random_spd(rng, 12)
        a = rng.standard_normal((12, 12))
        tf, gf = cholesky(g_test, "t"), cholesky(g_trial, "g")
        norm = operator_norm(a, tf, gf)
        core = np.linalg.solve(tf.lower, a) @ np.linalg.inv(gf.lower).T
        assert norm == pytest.approx(np.linalg.svd(core, compute_uv=False)[0], rel=1e-11)

    def test_bounds_random_rayleigh(self):
        rng = np.random.default_rng(33)
        g_test = random_spd(rng, 12)
        g_trial = random_spd(rng, 12)
        a = rng.standard_normal((12, 12))
        norm = operator_norm(a, cholesky(g_test, "t"), cholesky(g_trial, "g"))
        for _ in range(300):
            v = rng.standard_normal(12)
            av = a @ v
            num = np.sqrt(av @ np.linalg.solve(g_test, av))
            assert num <= (norm + 1e-10) * np.sqrt(v @ g_trial @ v)

    def test_gramian_is_isometry(self):
        # A = G: sup <Gv, w>/(||v|| ||w||) = 1 in the matching pair
        rng = np.random.default_rng(32)
        g = random_spd(rng, 15)
        fact = cholesky(g, "g")
        assert operator_norm(g, fact, fact) == pytest.approx(1.0, rel=1e-11)


class TestRequireSymmetric:
    def test_symmetrizes_roundoff(self):
        m = np.array([[1.0, 1e-14], [0.0, 1.0]])
        out = require_symmetric(m, "m")
        np.testing.assert_allclose(out, out.T)

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValueError, match="m"):
            require_symmetric(np.array([[1.0, 1.0], [0.0, 1.0]]), "m")

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            require_symmetric(np.zeros((2, 3)), "m")
