import numpy as np
import pytest

from dualstab.algebra import DimensionMismatch, NotSpd, spd_solve
from dualstab.hilbert import (
    Functional,
    Subspace,
    TruthSpace,
    adjoint_project,
    dual_basis,
    dual_norm,
    orthogonal_project,
)


def random_truth(rng, n, lo=0.1, hi=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ev = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return TruthSpace(q @ (ev[:, None] * q.T))


def random_pair(rng, n=None, m=None):
    n = n or int(rng.integers(4, 40))
    m = m or int(rng.integers(1, n + 1))
    ts = random_truth(rng, n)
    return ts, Subspace(ts, rng.standard_normal((n, m)))


class TestSpaces:
    def test_norm_oracle(self):
        ts = TruthSpace(np.diag([4.0, 1.0]))
        assert ts.norm(np.array([1.0, 2.0])) == pytest.approx(np.sqrt(8.0))

    def test_indefinite_gramian_rejected(self):
        with pytest.raises(NotSpd):
            TruthSpace(np.diag([1.0, -1.0]))

    def test_subspace_gramian_is_restriction(self):
        rng = np.random.default_rng(1)
        ts, sub = random_pair(rng)
        e = sub.embedding
        np.testing.assert_allclose(sub.gram_sub, e.T @ ts.gramian @ e, atol=1e-12)

    def test_subspace_norm_matches_parent(self):
        rng = np.random.default_rng(2)
        ts, sub = random_pair(rng)
        c = rng.standard_normal(sub.dim)
        assert sub.norm(c) == pytest.approx(ts.norm(sub.embedding @ c), rel=1e-11)

    def test_rank_deficient_embedding_rejected(self):
        ts = TruthSpace(np.eye(3))
        e = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])  # duplicate direction
        with pytest.raises(NotSpd):
            Subspace(ts, e)

    def test_embedding_row_mismatch_rejected(self):
        ts = TruthSpace(np.eye(3))
        with pytest.raises(DimensionMismatch):
            Subspace(ts, np.ones((4, 2)))

    def test_functional_must_be_finite_vector(self):
        with pytest.raises(ValueError):
            Functional(np.array([1.0, np.nan]))
        with pytest.raises(DimensionMismatch):
            Functional(np.ones((2, 2)))


class TestProjection:
    def test_idempotent_and_orthogonal(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ts, sub = random_pair(rng)
            x = rng.standard_normal(ts.dim)
            c = orthogonal_project(sub, x)
            px = sub.embedding @ c
            # idempotent
            np.testing.assert_allclose(orthogonal_project(sub, px), c, atol=1e-9)
            # residual G-orthogonal to the subspace
            res = sub.embedding.T @ (ts.gramian @ (x - px))
            assert np.abs(res).max() < 1e-9

    def test_reproduces_members(self):
        rng = np.random.default_rng(8)
        ts, sub = random_pair(rng)
        c = rng.standard_normal(sub.dim)
        np.testing.assert_allclose(orthogonal_project(sub, sub.embedding @ c), c, atol=1e-10)

    def test_projection_norm_one(self):
        # ||P|| = 1: projections never expand, members are fixed
        rng = np.random.default_rng(9)
        for _ in range(20):
            ts, sub = random_pair(rng)
            x = rng.standard_normal(ts.dim)
            px = sub.embedding @ orthogonal_project(sub, x)
            assert ts.norm(px) <= ts.norm(x) * (1.0 + 1e-10)


class TestRieszAndDualNorm:
    def test_riesz_oracle(self):
        ts = TruthSpace(np.diag([4.0, 1.0]))
        r = spd_solve(ts.fact, Functional(np.array([2.0, 3.0])).action)
        np.testing.assert_allclose(r, [0.5, 3.0])

    def test_dual_norm_oracle(self):
        ts = TruthSpace(np.diag([4.0, 1.0]))
        # sqrt(f^T G^-1 f) = sqrt(1 + 9)
        assert dual_norm(ts, Functional(np.array([2.0, 3.0]))) == pytest.approx(np.sqrt(10.0))

    def test_dual_norm_is_riesz_norm(self):
        rng = np.random.default_rng(14)
        ts = random_truth(rng, 17)
        f = Functional(rng.standard_normal(17))
        assert dual_norm(ts, f) == pytest.approx(ts.norm(spd_solve(ts.fact, f.action)), rel=1e-11)

    def test_dual_norm_is_sup_of_pairing(self):
        rng = np.random.default_rng(15)
        ts = random_truth(rng, 10)
        f = Functional(rng.standard_normal(10))
        dn = dual_norm(ts, f)
        for _ in range(200):
            v = rng.standard_normal(10)
            assert abs(f.action @ v) <= (dn + 1e-12) * ts.norm(v)
        # attained at the Riesz representer
        r = spd_solve(ts.fact, f.action)
        assert abs(f.action @ r) / ts.norm(r) == pytest.approx(dn, rel=1e-10)


class TestDualBasis:
    def test_biorthogonality(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            ts, sub = random_pair(rng)
            basis = dual_basis(sub)
            np.testing.assert_allclose(
                basis.reps.T @ sub.embedding, np.eye(sub.dim), atol=1e-10
            )

    def test_dual_gramian_identity(self):
        # reps^T G^-1 reps = G_W^-1
        rng = np.random.default_rng(21)
        for _ in range(25):
            ts, sub = random_pair(rng)
            reps = dual_basis(sub).reps
            lhs = reps.T @ spd_solve(ts.fact, reps)
            rhs = spd_solve(sub.fact, np.eye(sub.dim))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9 * max(1.0, np.abs(rhs).max()))

    def test_coefficient_extraction(self):
        # applying the dual basis to a member recovers its coefficients
        rng = np.random.default_rng(22)
        ts, sub = random_pair(rng)
        c = rng.standard_normal(sub.dim)
        v = sub.embedding @ c
        np.testing.assert_allclose(dual_basis(sub).reps.T @ v, c, atol=1e-9)


class TestAdjointProjection:
    def test_pairing_identity(self):
        # <P* f, v> = <f, P v> for every functional and vector
        rng = np.random.default_rng(30)
        for _ in range(20):
            ts, sub = random_pair(rng)
            f = Functional(rng.standard_normal(ts.dim))
            pf = adjoint_project(sub, f)
            v = rng.standard_normal(ts.dim)
            pv = sub.embedding @ orthogonal_project(sub, v)
            assert pf.action @ v == pytest.approx(f.action @ pv, abs=1e-8 * ts.dim)

    def test_fixes_range_functionals(self):
        rng = np.random.default_rng(31)
        ts, sub = random_pair(rng)
        f = Functional(rng.standard_normal(ts.dim))
        once = adjoint_project(sub, f)
        twice = adjoint_project(sub, once)
        np.testing.assert_allclose(twice.action, once.action, atol=1e-9)

    def test_contracts_dual_norm(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            ts, sub = random_pair(rng)
            f = Functional(rng.standard_normal(ts.dim))
            pf = adjoint_project(sub, f)
            assert dual_norm(ts, pf) <= dual_norm(ts, f) * (1.0 + 1e-10)

    def test_reuses_precomputed_basis(self):
        rng = np.random.default_rng(33)
        ts, sub = random_pair(rng)
        f = Functional(rng.standard_normal(ts.dim))
        basis = dual_basis(sub)
        a = adjoint_project(sub, f, basis=basis)
        b = adjoint_project(sub, f)
        np.testing.assert_allclose(a.action, b.action)
