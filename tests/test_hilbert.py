import numpy as np
import pytest

from dualstab.algebra import DimensionMismatch, NotSpd, band_to_dense, spd_solve
from dualstab.hilbert import (
    BandedTruthSpace,
    Functional,
    Subspace,
    TruthSpace,
    adjoint_project,
    dual_basis,
    dual_norm,
    orthogonal_project,
)
from oracles import random_spd


def random_truth(rng, n):
    return TruthSpace(random_spd(rng, n))


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


    @pytest.mark.parametrize(
        "call",
        [
            lambda ts, sub: Subspace(ts, np.ones((3, 4))),
            lambda ts, sub: dual_norm(ts, Functional(np.ones(4))),
            lambda ts, sub: orthogonal_project(sub, np.ones(4)),
        ],
        ids=["wide-embedding", "functional-dim", "vector-dim"],
    )
    def test_input_checks(self, call):
        ts = TruthSpace(np.eye(3))
        with pytest.raises(DimensionMismatch):
            call(ts, Subspace(ts, np.eye(3)[:, :2]))


class TestBandedTruthSpace:
    # the banded operator against the dense TruthSpace of the same Gramian
    def pair(self, n=40):
        rng = np.random.default_rng(n)
        band = np.vstack([rng.uniform(-1.0, 1.0, n), np.full(n, 4.0)])
        band[0, 0] = 0.0
        return rng, BandedTruthSpace(band), TruthSpace(band_to_dense(band))

    def test_apply_solve_gram_norm_match_dense(self):
        rng, banded, dense = self.pair()
        assert banded.dim == dense.dim == 40
        x = rng.standard_normal(40)
        xs = rng.standard_normal((40, 6))
        for v in (x, xs):
            np.testing.assert_allclose(banded.apply(v), dense.apply(v), rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(banded.solve(v), dense.solve(v), rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(banded.gram(xs), dense.gram(xs), rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(banded.gram(xs), banded.gram(xs).T)
        assert banded.norm(x) == pytest.approx(dense.norm(x), rel=1e-14)
        np.testing.assert_array_equal(band_to_dense(banded.band), dense.gramian)

    def test_subspace_and_dual_quantities_match_dense(self):
        rng, banded, dense = self.pair()
        e = rng.standard_normal((40, 5))
        sb, sd = Subspace(banded, e), Subspace(dense, e)
        np.testing.assert_allclose(sb.gram_sub, sd.gram_sub, rtol=1e-13, atol=0.0)
        x = rng.standard_normal(40)
        np.testing.assert_allclose(
            orthogonal_project(sb, x), orthogonal_project(sd, x), rtol=1e-12, atol=0.0
        )
        np.testing.assert_allclose(dual_basis(sb).reps, dual_basis(sd).reps, rtol=1e-12, atol=1e-14)
        f = Functional(x)
        assert dual_norm(banded, f) == pytest.approx(dual_norm(dense, f), rel=1e-13)

    def test_factor_built_on_first_solve(self):
        _, banded, _ = self.pair()
        assert "fact" not in vars(banded)
        banded.solve(np.ones(40))
        assert vars(banded)["fact"] is banded.fact

    def test_singular_band_rejected(self):
        # P1 stiffness without its Dirichlet rows is the singular Neumann matrix
        band = np.array([[0.0, -1.0, -1.0], [1.0, 2.0, 1.0]])
        banded = BandedTruthSpace(band)
        with pytest.raises(NotSpd):
            banded.solve(np.ones(3))


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
