import numpy as np
import pytest
from dataclasses import replace

from dualstab import models, saddle
from dualstab.algebra import DimensionMismatch, spd_solve
from dualstab.dualprod import BoundViolated, pressure_infsup
from dualstab.hilbert import Subspace
from dualstab.saddle import (
    ConstantsReport,
    DegenerateDenominator,
    Discretization,
    GammaZero,
    SaddleProblem,
    SingularSystem,
    assemble_stabilized,
    assemble_three_field,
    combined_subspace,
    constants,
    measure_truth,
    project_pressure,
    quasi_optimality,
    solve,
    static_condense,
    verify_coercivity,
    verify_relaxed_infsup,
)


def build(truth=64, coarse=8, gamma=0.1, **kw):
    cfg = models.ModelConfig(truth_elems=truth, coarse_elems=coarse, gamma=gamma, **kw)
    pb = models.build_truth(cfg)
    return cfg, pb, models.build_spaces(cfg, pb)


class TestAssembly:
    def test_stabilized_shape_and_galerkin_limit(self):
        cfg, pb, d = build(gamma=0.0)
        st = assemble_stabilized(pb, d)
        n = d.U.dim + d.p_dim
        assert st.matrix.shape == (n, n)
        # plain Galerkin: skew coupling, zero pressure block
        a = st.matrix[: d.U.dim, : d.U.dim]
        b = -st.matrix[: d.U.dim, d.U.dim :]
        np.testing.assert_allclose(st.matrix[d.U.dim :, : d.U.dim], b.T, atol=1e-14)
        np.testing.assert_allclose(st.matrix[d.U.dim :, d.U.dim :], 0.0, atol=1e-14)
        np.testing.assert_allclose(a, a.T, atol=1e-12)

    def test_three_field_requires_positive_gamma(self):
        cfg, pb, d = build(gamma=0.0)
        with pytest.raises(GammaZero):
            assemble_three_field(pb, d)

    def test_three_field_middle_block_scales(self):
        cfg, pb, d = build(gamma=0.5)
        tf = assemble_three_field(pb, d)
        iu = d.U.dim
        s_block = tf.matrix[iu : iu + d.W.dim, iu : iu + d.W.dim]
        np.testing.assert_allclose(s_block, d.dp.stiffness.matrix / 0.5, rtol=1e-14)

    def test_condensation_reproduces_stabilized(self):
        for gamma in (0.01, 0.1, 1.0):
            cfg, pb, d = build(gamma=gamma)
            st = assemble_stabilized(pb, d)
            cond = static_condense(assemble_three_field(pb, d))
            scale = np.abs(st.matrix).max()
            np.testing.assert_allclose(cond.matrix, st.matrix, atol=1e-13 * scale)
            np.testing.assert_allclose(cond.rhs, st.rhs, atol=1e-13 * max(1.0, np.abs(st.rhs).max()))

    def test_condensation_across_configs(self):
        for kw in (
            dict(pressure_kind="p0"),
            dict(w_kind="truth"),
            dict(w_kind="same"),
            dict(s_choice="scaled:2"),
            dict(reaction=1.0),
        ):
            cfg, pb, d = build(truth=32, coarse=4, gamma=0.3, **kw)
            st = assemble_stabilized(pb, d)
            cond = static_condense(assemble_three_field(pb, d))
            scale = max(np.abs(st.matrix).max(), 1.0)
            assert np.abs(cond.matrix - st.matrix).max() <= 1e-13 * scale


class TestSolve:
    def test_routes_agree(self):
        cfg, pb, d = build()
        x, y = solve(assemble_stabilized(pb, d))
        tf = assemble_three_field(pb, d)
        x3, z3, y3 = solve(tf)
        np.testing.assert_allclose(x3, x, atol=1e-11)
        np.testing.assert_allclose(y3, y, atol=1e-11)

    def test_aux_is_scaled_residual(self):
        # z = gamma S^-1 (F_W - A_WU x + B_WQ y)
        cfg, pb, d = build(gamma=0.25)
        tf = assemble_three_field(pb, d)
        x, z, y = solve(tf)
        e_w = d.W.embedding
        f_w = e_w.T @ pb.load.action
        a_wu = e_w.T @ pb.a_form @ d.U.embedding
        b_wq = e_w.T @ d.b_eff
        res = f_w - a_wu @ x + b_wq @ y
        np.testing.assert_allclose(z, 0.25 * spd_solve(d.dp.stiffness.fact, res), atol=1e-11)

    def test_singular_flagged(self):
        # equal-order P1-P1 at gamma = 0 is exactly singular
        cfg, pb, d = build(gamma=0.0)
        with pytest.raises(SingularSystem) as exc:
            solve(assemble_stabilized(pb, d))
        assert exc.value.smallest <= 1e-12 * exc.value.largest

    def test_stable_pair_at_gamma_zero_solves(self):
        # P1 velocity with P0 pressure on the same coarse mesh is LBB-stable
        cfg, pb, d = build(gamma=0.0, pressure_kind="p0")
        x, y = solve(assemble_stabilized(pb, d))
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))

    def test_exact_in_space_reproduction(self):
        # make the exact solution a member of U x Q and solve for it exactly
        cfg, pb, d = build(pressure_kind="p0", gamma=0.4)
        rng = np.random.default_rng(3)
        xe = d.U.embedding @ rng.standard_normal(d.U.dim)
        ye_def = rng.standard_normal(d.p_dim)
        # consistent data: F = A xe - B (Z ye), G = B^T xe
        f = pb.a_form @ xe - d.b_eff @ ye_def
        g_rhs_eff = d.b_eff.T @ xe
        pb2 = SaddleProblem(
            pb.truth, pb.a_form, d.b_eff, d.q_eff, f, g_rhs_eff, label="member"
        )
        d2 = Discretization(pb2, d.U, d.dp, d.gamma)
        x, y = solve(assemble_stabilized(pb2, d2))
        np.testing.assert_allclose(d2.U.embedding @ x, xe, atol=1e-9)
        np.testing.assert_allclose(d2.pressures.basis @ y, ye_def, atol=1e-9)


class TestConstants:
    def test_alpha_and_norm_one_when_a_is_gramian(self):
        cfg, pb, d = build()
        rep = constants(pb, d)
        assert rep.alpha == pytest.approx(1.0, abs=1e-10)
        assert rep.norm_A == pytest.approx(1.0, abs=1e-10)

    def test_gamma0_formula(self):
        cfg, pb, d = build()
        rep = constants(pb, d)
        expected = 2.0 * rep.alpha * rep.c_star / (rep.norm_A**2 * rep.C_star**2)
        assert rep.gamma0 == pytest.approx(expected, rel=1e-12)
        # alpha = norm_A = 1 collapses it to 2 c_star / C_star^2
        assert rep.gamma0 == pytest.approx(2.0 * rep.c_star / rep.C_star**2, rel=1e-9)

    def test_gamma_tilde0_formula(self):
        cfg, pb, d = build(s_choice="scaled:2")
        rep = constants(pb, d)
        assert rep.gamma_tilde0 == pytest.approx(
            2.0 * rep.kappa_star * rep.alpha / rep.norm_A**2, rel=1e-12
        )
        assert rep.kappa_star == pytest.approx(2.0, rel=1e-10)

    def test_reaction_separates_alpha_from_norm(self):
        cfg, pb, d = build(reaction=50.0)
        rep = constants(pb, d)
        assert rep.alpha > 1.0  # a(u,u) = |u|^2 + r||u||^2 > |u|^2
        assert rep.norm_A > rep.alpha * 1.01

    def test_shared_truth_record_gives_same_constants(self):
        cfg, pb, d = build(reaction=5.0)
        truth = measure_truth(pb.truth, pb.a_form)
        assert constants(pb, d, truth=truth) == constants(pb, d)

    def test_truth_record_measures_on_first_read(self, monkeypatch):
        calls = []
        original = saddle.operator_norm

        def counted(a, test_fact, trial_fact):
            calls.append(a.shape)
            return original(a, test_fact, trial_fact)

        monkeypatch.setattr(saddle, "operator_norm", counted)
        cfg, pb, d = build(reaction=5.0)
        truth = measure_truth(pb.truth, pb.a_form)
        other = measure_truth(pb.truth, pb.a_form)
        assert calls == []
        assert truth.norm_A == truth.norm_A == other.norm_A
        # once per record: a second read reuses it, another record measures again
        assert calls == [(63, 63)] * 2
        assert truth.alpha == constants(pb, d).alpha

    def test_truth_record_of_other_truth_space_rejected(self):
        cfg, pb, d = build()
        _, other, _ = build()
        with pytest.raises(DimensionMismatch):
            constants(pb, d, truth=measure_truth(other.truth, other.a_form))

    def test_c_hat_and_big_c_hat(self):
        cfg, pb, d = build()
        rep = constants(pb, d)
        assert rep.c_hat == pytest.approx(min(1.0, rep.beta**2), rel=1e-12)
        assert rep.C_hat == pytest.approx(max(1.0, rep.norm_B**2), rel=1e-12)

    def test_beta_gamma_piecewise_formula(self):
        rep = ConstantsReport(
            alpha=1.0, norm_A=1.0, norm_B=1.0, beta=1.0, c_hat=1.0, C_hat=1.0,
            kappa_star=1.0, K_star=1.0, c_star=0.5, C_star=1.0,
            alpha_hat=1.0, beta_hat=1.0, gamma0=1.0, gamma_tilde0=2.0,
        )
        assert rep.beta_gamma(0.0) == 0.0
        # min(0.25 gamma, 1 - gamma) at gamma = 0.5 -> 0.125
        assert rep.beta_gamma(0.5) == pytest.approx(0.125)
        degenerate = replace(rep, c_star=0.0)
        assert degenerate.beta_gamma(0.5) == -np.inf
        with pytest.raises(ValueError):
            rep.beta_gamma(-0.1)


class TestCoercivity:
    def test_measured_dominates_predicted(self):
        cfg, pb, d = build(gamma=0.0)
        rep = constants(pb, d)
        d2 = models.build_spaces(replace(cfg, gamma=rep.gamma0 / 2), pb)
        measured, predicted = verify_coercivity(pb, d2, report=rep)
        assert measured >= predicted - 1e-9
        assert predicted > 0.0

    def test_gamma_at_or_above_gamma0_rejected(self):
        cfg, pb, d = build(gamma=0.0)
        rep = constants(pb, d)
        d2 = models.build_spaces(replace(cfg, gamma=rep.gamma0 * 1.5), pb)
        with pytest.raises(ValueError, match="gamma"):
            verify_coercivity(pb, d2, report=rep)

    def test_gamma_zero_predicts_nothing(self):
        # at gamma = 0 the symmetric part has a zero pressure block: the
        # measured constant is 0 and so is the prediction
        cfg, pb, d = build(gamma=0.0)
        measured, predicted = verify_coercivity(pb, d)
        assert predicted == 0.0
        assert abs(measured) <= 1e-9


class TestSubspaceCombination:
    def test_nested_spaces_deduplicate(self):
        cfg, pb, d = build()
        joint = combined_subspace(pb.truth, d.U.embedding, d.U.embedding)
        assert joint.dim == d.U.dim

    def test_joint_dimension_of_nested_pair(self):
        # U (coarse) is contained in W (refined): U + W = W
        cfg, pb, d = build()
        joint = combined_subspace(pb.truth, d.U.embedding, d.W.embedding)
        assert joint.dim == d.W.dim

    def test_relaxed_infsup_dominates_w_only(self):
        cfg, pb, d = build()
        value = verify_relaxed_infsup(pb, d)
        from dualstab.dualprod import infsup_qw

        assert value >= infsup_qw(d.b_sel, d.q_sel, d.W) - 1e-9

    def test_relaxed_floor_is_beta_hat(self):
        # the W-only floor and beta_hat are one pencil on one deflation
        cfg, pb, d = build()
        assert pressure_infsup(d.pressures, d.W) == constants(pb, d).beta_hat


class TestPressureProjection:
    def test_roundtrip_on_deflated_members(self):
        cfg, pb, d = build()
        rng = np.random.default_rng(8)
        y = rng.standard_normal(d.p_dim)
        y_raw = d.pressures.basis @ y
        np.testing.assert_allclose(project_pressure(pb, d, y_raw), y, atol=1e-10)

    def test_kills_constants(self):
        # the constant pressure is deflated away: its projection is zero
        cfg, pb, d = build()
        ones = np.ones(pb.pressure_dim)
        np.testing.assert_allclose(project_pressure(pb, d, ones), 0.0, atol=1e-10)


class TestQuasiOptimality:
    def test_ratio_bounded_on_manufactured_solution(self):
        cfg, pb, d = build(truth=256, coarse=16, gamma=0.3)
        exact = models.exact_coefficients(cfg, models.default_solution())
        qo = quasi_optimality(pb, d, exact)
        assert qo.u_err >= qo.best_u - 1e-12
        assert 1.0 - 1e-9 <= qo.ratio < 3.0

    def test_degenerate_when_exact_in_spaces(self):
        cfg, pb, d = build(pressure_kind="p0")
        rng = np.random.default_rng(9)
        xe = d.U.embedding @ rng.standard_normal(d.U.dim)
        ye = d.pressures.basis @ rng.standard_normal(d.p_dim)
        with pytest.raises(DegenerateDenominator):
            quasi_optimality(pb, d, (xe, ye))


class TestValidation:
    def test_saddle_problem_shape_checks(self):
        cfg, pb, d = build(truth=16, coarse=4)
        with pytest.raises(DimensionMismatch):
            SaddleProblem(pb.truth, np.eye(3), pb.b_form, pb.q_gram, pb.load, pb.constraint_rhs)
        with pytest.raises(DimensionMismatch):
            SaddleProblem(pb.truth, pb.a_form, pb.b_form, np.eye(2), pb.load, pb.constraint_rhs)

    def test_gamma_validation(self):
        cfg, pb, d = build(truth=16, coarse=4)
        with pytest.raises(ValueError):
            Discretization(pb, d.U, d.dp, -1.0)

    def test_deflates_whole_pressure_space(self):
        # one pressure space per level: the problem's own B_T and G_Q
        cfg, pb, d = build(truth=16, coarse=4, pressure_kind="p0")
        assert d.b_sel is pb.b_form and d.q_sel is pb.q_gram
        assert d.pressures.basis.shape == (pb.pressure_dim, d.p_dim)
        assert d.p_dim == pb.pressure_dim - 1  # the constants are deflated away

    def test_with_gamma_shares_spaces(self):
        cfg, pb, d = build(gamma=0.0)
        d2 = d.with_gamma(0.3)
        assert d.gamma == 0.0 and d2.gamma == 0.3
        assert d2.U is d.U and d2.dp is d.dp and d2.pressures is d.pressures
        rebuilt = models.build_spaces(replace(cfg, gamma=0.3), pb)
        np.testing.assert_array_equal(
            assemble_stabilized(pb, d2).matrix, assemble_stabilized(pb, rebuilt).matrix
        )
        with pytest.raises(ValueError):
            d.with_gamma(np.nan)
