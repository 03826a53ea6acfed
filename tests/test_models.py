import numpy as np
import pytest
from dataclasses import replace

from dualstab import models, saddle
from dualstab.dualprod import DualProduct, equivalence_report, make_stiffness
from dualstab.models import (
    ManufacturedSolution,
    ModelConfig,
    NestingViolated,
    constraint_matrix,
    constraint_rhs,
    default_solution,
    exact_coefficients,
    load_vector,
    p1_interior_mass,
    p1_stiffness,
    pressure_mass,
    prolongation_p1,
)
from dualstab.saddle import SingularSystem, project_pressure, solve, assemble_stabilized


def gauss_rule(n, order=12):
    """Composite Gauss rule on n uniform elements of (0, 1)."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    elems = np.arange(n)[:, None]
    x = ((elems + 0.5 * (gx[None, :] + 1.0)) / n).ravel()
    w = np.broadcast_to(gw[None, :] / (2.0 * n), (n, order)).ravel()
    return x, w


def closed_form_extremes(n, reaction):
    """alpha and norm_A of A = G + r·M on n elements.

    μ_j = h²(4 + 2cos jπh) / (24 sin²(jπh/2)) are the eigenvalues of (M, G);
    j = n − 1 gives the smallest and j = 1 the largest.
    """
    h = 1.0 / n

    def mu(j):
        x = j * np.pi * h
        return h * h * (4.0 + 2.0 * np.cos(x)) / (24.0 * np.sin(x / 2.0) ** 2)

    return 1.0 + reaction * mu(n - 1), 1.0 + reaction * mu(1)


def hat_derivatives(x, n):
    """Derivative of every interior hat of an n-element mesh at points x."""
    xi = np.arange(1, n) / n
    out = np.zeros((x.size, n - 1))
    for j, xj in enumerate(xi):
        out[:, j] = np.where(
            (x > xj - 1.0 / n) & (x < xj), n, np.where((x > xj) & (x < xj + 1.0 / n), -n, 0.0)
        )
    return out


class TestMeshAndConfig:
    def test_mesh_requires_power_of_two(self):
        for bad in (0, 1, 3, 6, 100):
            with pytest.raises(NestingViolated):
                ModelConfig(truth_elems=bad, coarse_elems=2)
            with pytest.raises(NestingViolated):
                ModelConfig(truth_elems=128, coarse_elems=bad)

    def test_mesh_nodes(self):
        # interpolating the identity reads the nodes back, exactly
        ident = ManufacturedSolution(u=lambda x: x, du=np.ones_like, p=lambda x: x)
        x, y = exact_coefficients(ModelConfig(truth_elems=8, coarse_elems=4), ident)
        np.testing.assert_array_equal(x, [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875])
        np.testing.assert_array_equal(y, [0.0, 0.25, 0.5, 0.75, 1.0])
        cfg = ModelConfig(truth_elems=8, coarse_elems=4, pressure_kind="p0")
        _, mid = exact_coefficients(cfg, ident)
        np.testing.assert_array_equal(mid, [0.125, 0.375, 0.625, 0.875])

    def test_config_validation(self):
        with pytest.raises(NestingViolated):
            ModelConfig(truth_elems=8, coarse_elems=16)
        with pytest.raises(NestingViolated):
            ModelConfig(truth_elems=64, coarse_elems=16, w_kind="refined:8")
        with pytest.raises(ValueError):
            ModelConfig(pressure_kind="p2")
        with pytest.raises(ValueError):
            ModelConfig(w_kind="coarser:2")
        with pytest.raises(ValueError):
            ModelConfig(gamma=-0.5)

    def test_w_elems(self):
        assert ModelConfig(truth_elems=64, coarse_elems=8).w_elems() == 16
        assert ModelConfig(truth_elems=64, coarse_elems=8, w_kind="truth").w_elems() == 64
        assert ModelConfig(truth_elems=64, coarse_elems=8, w_kind="same").w_elems() == 8


class TestElementMatrices:
    def test_stiffness_stencil(self):
        # uniform width h: interior stencil (-1/h, 2/h, -1/h)
        n = 8
        m = p1_stiffness(n)
        assert m.shape == (7, 7)
        np.testing.assert_allclose(np.diag(m), 2.0 * n)
        np.testing.assert_allclose(np.diag(m, 1), -1.0 * n)

    def test_stiffness_is_quadrature_exact(self):
        # compare against dense Gauss assembly of int phi_i' phi_j'
        n = 8
        x, w = gauss_rule(n)
        hats_d = hat_derivatives(x, n)
        ref = hats_d.T @ (w[:, None] * hats_d)
        np.testing.assert_allclose(p1_stiffness(n), ref, atol=1e-11)

    def test_interior_mass_stencil(self):
        n = 4
        m = p1_interior_mass(n)
        h = 0.25
        np.testing.assert_allclose(np.diag(m), 2 * h / 3)
        np.testing.assert_allclose(np.diag(m, 1), h / 6)

    def test_pressure_mass_p0(self):
        np.testing.assert_allclose(pressure_mass(4, "p0"), 0.25 * np.eye(4))

    def test_pressure_mass_p1_row_sums(self):
        # row sums integrate each hat: h/2 at the ends, h inside; total = 1
        m = pressure_mass(8, "p1")
        sums = m.sum(axis=1)
        np.testing.assert_allclose(sums[0], 1.0 / 16)
        np.testing.assert_allclose(sums[1:-1], 1.0 / 8)
        assert m.sum() == pytest.approx(1.0)


class TestProlongation:
    def test_one_refinement_column(self):
        # coarse hat = fine hat at the same node + half the two neighbors
        e = prolongation_p1(4, 2)
        np.testing.assert_allclose(e[:, 0], [0.5, 1.0, 0.5])

    def test_identity_at_same_mesh(self):
        np.testing.assert_array_equal(prolongation_p1(16, 16), np.eye(15))

    def test_nesting_identity(self):
        # E^T G E equals the directly assembled coarse stiffness
        for nt, nc in ((64, 8), (128, 32), (256, 4)):
            e = prolongation_p1(nt, nc)
            gu = e.T @ p1_stiffness(nt) @ e
            np.testing.assert_allclose(gu, p1_stiffness(nc), atol=1e-12 * nc)

    def test_nesting_identity_mass(self):
        e = prolongation_p1(64, 8)
        mu = e.T @ p1_interior_mass(64) @ e
        np.testing.assert_allclose(mu, p1_interior_mass(8), atol=1e-14)

    def test_non_nested_rejected(self):
        with pytest.raises(NestingViolated):
            prolongation_p1(64, 48)


class TestConstraintMatrix:
    @staticmethod
    def quadrature_reference(nt, nc, kind):
        x, w = gauss_rule(nt)
        dphi = hat_derivatives(x, nt)
        if kind == "p1":
            xc = np.arange(nc + 1) / nc
            psi = np.maximum(0.0, 1.0 - np.abs(x[:, None] - xc[None, :]) * nc)
        else:
            idx = np.clip((x * nc).astype(int), 0, nc - 1)
            psi = np.zeros((x.size, nc))
            psi[np.arange(x.size), idx] = 1.0
        return dphi.T @ (w[:, None] * psi)

    def test_p1_matches_quadrature(self):
        for nt, nc in ((16, 4), (32, 8), (64, 8)):
            ref = self.quadrature_reference(nt, nc, "p1")
            np.testing.assert_allclose(constraint_matrix(nt, nc, "p1"), ref, atol=1e-12)

    def test_p0_matches_quadrature(self):
        for nt, nc in ((16, 4), (64, 16)):
            ref = self.quadrature_reference(nt, nc, "p0")
            np.testing.assert_allclose(constraint_matrix(nt, nc, "p0"), ref, atol=1e-12)

    def test_p0_same_mesh_pm_one(self):
        # b(indicator_e, phi_i) = +-1 on the two adjacent elements
        b = constraint_matrix(8, 8, "p0")
        for i in range(7):
            row = b[i]
            assert row[i] == 1.0 and row[i + 1] == -1.0
            assert np.count_nonzero(row) == 2

    def test_constant_pressure_in_kernel(self):
        for kind in ("p1", "p0"):
            b = constraint_matrix(64, 8, kind)
            np.testing.assert_allclose(b @ np.ones(b.shape[1]), 0.0, atol=1e-13)


class TestData:
    def test_load_vector_matches_weak_form(self):
        # F(phi_i) = int (u' - p) phi_i' (+ r int u phi_i); dense high-order
        # quadrature reference, independent of the assembly bookkeeping
        sol = default_solution()
        for r in (0.0, 2.5):
            n = 16
            x, w = gauss_rule(n)
            xi = np.arange(1, n) / n
            dphi = hat_derivatives(x, n)
            phi = np.maximum(0.0, 1.0 - np.abs(x[:, None] - xi[None, :]) * n)
            vals = w * (sol.du(x) - sol.p(x))
            ref = dphi.T @ vals + r * (phi.T @ (w * sol.u(x)))
            np.testing.assert_allclose(load_vector(n, sol, reaction=r), ref, atol=1e-12)

    def test_constraint_rhs_matches_quadrature(self):
        sol = default_solution()
        nt, nc = 32, 8
        x, w = gauss_rule(nt)
        vals = w * sol.du(x)
        xc = np.arange(nc + 1) / nc
        psi = np.maximum(0.0, 1.0 - np.abs(x[:, None] - xc[None, :]) * nc)
        np.testing.assert_allclose(
            constraint_rhs(nt, nc, "p1", sol), psi.T @ vals, atol=1e-13
        )
        idx = np.clip((x * nc).astype(int), 0, nc - 1)
        ref0 = np.zeros(nc)
        np.add.at(ref0, idx, vals)
        np.testing.assert_allclose(constraint_rhs(nt, nc, "p0", sol), ref0, atol=1e-13)

    def test_exact_coefficients_are_nodal_values(self):
        cfg = ModelConfig(truth_elems=32, coarse_elems=8)
        sol = default_solution()
        x, y = models.exact_coefficients(cfg, sol)
        assert x.shape == (31,)
        assert y.shape == (9,)
        assert x[15] == pytest.approx(np.sin(np.pi * 0.5))
        cfg0 = replace(cfg, pressure_kind="p0")
        _, y0 = models.exact_coefficients(cfg0, sol)
        assert y0.shape == (8,)
        assert y0[0] == pytest.approx(np.cos(np.pi / 16))

    def test_manufactured_solution_boundary_and_mean(self):
        sol = default_solution()
        assert sol.u(np.array([0.0, 1.0])) == pytest.approx([0.0, 0.0])
        # zero mean of p on (0,1)
        x, w = np.polynomial.legendre.leggauss(20)
        assert np.sum(0.5 * w * sol.p(0.5 * (x + 1.0))) == pytest.approx(0.0, abs=1e-15)


class TestBuilders:
    def test_truth_space_a_form_is_gramian(self):
        cfg = ModelConfig(truth_elems=32, coarse_elems=8)
        pb = models.build_truth(cfg)
        np.testing.assert_array_equal(pb.a_form, pb.truth.gramian)

    def test_level_on_truth_record_matches_build_truth(self):
        cfg = ModelConfig(truth_elems=32, coarse_elems=8, reaction=2.0)
        truth = models.truth_record(cfg)
        pb, ref = models.build_level(cfg, truth), models.build_truth(cfg)
        assert pb.truth is truth.space and pb.a_form is truth.a_form
        assert pb.label == ref.label
        for name in ("a_form", "b_form", "q_gram", "constraint_rhs"):
            np.testing.assert_array_equal(getattr(pb, name), getattr(ref, name))
        np.testing.assert_array_equal(pb.load.action, ref.load.action)
        oracle = saddle.measure_truth(ref.truth, ref.a_form)
        closed = closed_form_extremes(32, 2.0)
        assert (truth.alpha, truth.norm_A) == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert (truth.alpha, truth.norm_A) == pytest.approx(
            (oracle.alpha, oracle.norm_A), rel=1e-12, abs=0.0
        )

    def test_reaction_adds_mass(self):
        cfg = ModelConfig(truth_elems=32, coarse_elems=8, reaction=3.0)
        pb = models.build_truth(cfg)
        np.testing.assert_allclose(
            pb.a_form, p1_stiffness(32) + 3.0 * p1_interior_mass(32), atol=1e-14
        )

    def test_embedding_identity_at_truth(self):
        cfg = ModelConfig(truth_elems=16, coarse_elems=16, w_kind="truth")
        pb = models.build_truth(cfg)
        d = models.build_spaces(cfg, pb)
        np.testing.assert_array_equal(d.U.embedding, np.eye(15))

    def test_w_choices_change_dimension(self):
        cfg = ModelConfig(truth_elems=64, coarse_elems=8)
        pb = models.build_truth(cfg)
        dims = {}
        for kind in ("same", "refined:2", "truth"):
            d = models.build_spaces(replace(cfg, w_kind=kind), pb)
            dims[kind] = d.W.dim
        assert dims["same"] == 7 and dims["refined:2"] == 15 and dims["truth"] == 63


def no_dense_route(*args):
    raise AssertionError("the split record never solves the dense (A, G) pencils")


class TestTruthRecord:
    # alpha and norm_A of the split A = G + r·M come from the pencil (M, G)

    def test_extremes_match_closed_form_at_truth_2048(self):
        # the dense (A, G) route is 7.6e-11 off here in norm_A
        truth = models.truth_record(ModelConfig(truth_elems=2048, coarse_elems=2, reaction=2.5))
        closed = closed_form_extremes(2048, 2.5)
        assert truth.alpha == pytest.approx(closed[0], rel=1e-12, abs=0.0)
        assert truth.norm_A == pytest.approx(closed[1], rel=1e-12, abs=0.0)

    def test_reaction_zero_is_exactly_one_without_a_solve(self, monkeypatch):
        monkeypatch.setattr(saddle, "sym_generalized_eigvals", no_dense_route)
        monkeypatch.setattr(saddle, "operator_norm", no_dense_route)
        truth = models.truth_record(ModelConfig(truth_elems=64, coarse_elems=8))
        assert truth.mass is None
        assert truth.a_form is truth.space.gramian
        for value in (truth.alpha, truth.norm_A):
            assert type(value) is float and value == 1.0

    def test_one_solve_serves_both_and_is_cached(self, monkeypatch):
        calls = []
        original = saddle.sym_generalized_eigvals

        def counted(a, b_fact):
            calls.append((a, b_fact))
            return original(a, b_fact)

        monkeypatch.setattr(saddle, "sym_generalized_eigvals", counted)
        monkeypatch.setattr(saddle, "operator_norm", no_dense_route)
        truth = models.truth_record(ModelConfig(truth_elems=64, coarse_elems=8, reaction=2.5))
        assert calls == []
        values = (truth.alpha, truth.norm_A)
        assert len(calls) == 1
        assert calls[0][0] is truth.mass and calls[0][1] is truth.space.fact
        assert (truth.norm_A, truth.alpha) == values[::-1]
        assert len(calls) == 1
        assert all(type(v) is float for v in values)

    def test_split_truth_validates(self):
        space = models.truth_record(ModelConfig(truth_elems=8, coarse_elems=2)).space
        with pytest.raises(ValueError):
            saddle.split_truth(space, -1.0, p1_interior_mass(8))
        with pytest.raises(ValueError):
            saddle.split_truth(space, float("inf"), p1_interior_mass(8))
        with pytest.raises(saddle.DimensionMismatch):
            saddle.split_truth(space, 1.0, p1_interior_mass(16))


class TestModelInvariants:
    def test_beta_range_and_drift(self):
        # deflated truth inf-sup of the coarse pressure stays in [0.25, 1]
        # and moves by < 10% per truth refinement
        betas = []
        for nt in (64, 128, 256):
            cfg = ModelConfig(truth_elems=nt, coarse_elems=16, gamma=0.0)
            pb = models.build_truth(cfg)
            d = models.build_spaces(cfg, pb)
            betas.append(saddle.constants(pb, d).beta)
        assert all(0.25 <= b <= 1.0 + 1e-12 for b in betas)
        for prev, cur in zip(betas, betas[1:]):
            assert abs(cur - prev) / prev < 0.10

    def test_equal_order_pair_degenerates_at_gamma_zero(self):
        # the coarse checkerboard mode lies in the deflated kernel of B
        # restricted to U at every level: the pair inf-sup constant is zero
        # (complete LBB failure) and the Galerkin matrix is singular
        vals = []
        for nc in (8, 16, 32):
            cfg = ModelConfig(truth_elems=256, coarse_elems=nc, gamma=0.0)
            pb = models.build_truth(cfg)
            d = models.build_spaces(cfg, pb)
            dp_u = DualProduct(d.U, make_stiffness(d.U, "gramian"))
            vals.append(equivalence_report(dp_u, d.b_sel, d.q_sel).alpha_hat)
            with pytest.raises(SingularSystem):
                solve(assemble_stabilized(pb, d))
        assert all(v <= 1e-7 for v in vals)
        # non-strict decay within roundoff
        for prev, cur in zip(vals, vals[1:]):
            assert cur <= prev + 1e-7

    def test_stabilized_coercivity_level_stable(self):
        meas = []
        for nc in (8, 16, 32):
            cfg = ModelConfig(truth_elems=256, coarse_elems=nc, gamma=0.0)
            pb = models.build_truth(cfg)
            d = models.build_spaces(cfg, pb)
            rep = saddle.constants(pb, d)
            d2 = models.build_spaces(replace(cfg, gamma=rep.gamma0 / 2), pb)
            m, _ = saddle.verify_coercivity(pb, d2, report=rep)
            meas.append(m)
        assert max(meas) <= 2.0 * min(meas)

    def test_error_ratio_first_order(self):
        errs = []
        for nc in (8, 16, 32):
            cfg = ModelConfig(truth_elems=512, coarse_elems=nc, gamma=0.3)
            pb = models.build_truth(cfg)
            d = models.build_spaces(cfg, pb)
            x, y = solve(assemble_stabilized(pb, d))
            exact = models.exact_coefficients(cfg, default_solution())
            errs.append(models.error_norms(pb, d, (x, y), exact)[0])
        for coarse_err, fine_err in zip(errs, errs[1:]):
            assert 1.8 <= coarse_err / fine_err <= 2.3

    def test_truth_refinement_saturation(self):
        # fixed coarse mesh: refining the truth mesh moves errors by < 5%
        out = []
        for nt in (256, 512):
            cfg = ModelConfig(truth_elems=nt, coarse_elems=16, gamma=0.3)
            pb = models.build_truth(cfg)
            d = models.build_spaces(cfg, pb)
            x, y = solve(assemble_stabilized(pb, d))
            exact = models.exact_coefficients(cfg, default_solution())
            out.append(models.error_norms(pb, d, (x, y), exact))
        for a, b in zip(*out):
            assert abs(b - a) / a < 0.05

    def test_interpolant_fed_back_is_exact(self):
        cfg = ModelConfig(truth_elems=64, coarse_elems=8, gamma=0.1)
        pb = models.build_truth(cfg)
        d = models.build_spaces(cfg, pb)
        sol = default_solution()
        xc = sol.u(np.arange(1, 8) / 8)
        ye = exact_coefficients(cfg, sol)[1]
        numeric = (xc, project_pressure(pb, d, ye))
        exact = (d.U.embedding @ xc, ye)
        u_err, p_err = models.error_norms(pb, d, numeric, exact)
        assert u_err <= 1e-9 and p_err <= 1e-9
