import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from types import SimpleNamespace
from hypothesis import HealthCheck, given, settings

from dualstab import algebra, dualprod, models, saddle
from dualstab.algebra import DimensionMismatch, NonFinite, spd_solve, sym_generalized_eigvals
from dualstab.cli import main
from dualstab.dualprod import (
    BoundViolated,
    DegeneratePencil,
    DualProduct,
    pressure_infsup,
    stiffness_from_matrix,
)
from dualstab.hilbert import BandedTruthSpace, Subspace, TruthSpace
from dualstab.models import p1_interior_mass
from dualstab.saddle import (
    SINGULAR_RTOL,
    BlockSystem,
    ConstantsReport,
    DegenerateDenominator,
    Discretization,
    GammaZero,
    SaddleProblem,
    SingularSystem,
    assemble_stabilized,
    assemble_three_field,
    constants,
    project_pressure,
    quasi_optimality,
    solve,
    static_condense,
    verify_coercivity,
    verify_relaxed_infsup,
)
from oracles import (
    a_form_apply,
    combined_subspace,
    dense_condense,
    dense_residual,
    dense_solve,
    dense_system,
    dense_truth_extremes,
    p1_stiffness,
)
from test_cli_fuzz import runs


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
        a_wu = e_w.T @ a_form_apply(pb.record, d.U.embedding)
        b_wq = e_w.T @ d.b_eff
        res = f_w - a_wu @ x + b_wq @ y
        np.testing.assert_allclose(z, 0.25 * spd_solve(d.dp.stiffness.fact, res), atol=1e-11)

    def test_singular_flagged(self):
        # equal-order P1-P1 at gamma = 0 is exactly singular
        cfg, pb, d = build(gamma=0.0)
        with pytest.raises(SingularSystem) as exc:
            solve(assemble_stabilized(pb, d))
        assert exc.value.rcond <= SINGULAR_RTOL

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.0, 2.0], [1.0, 2.0]],
            [[1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [1.0, 3.0, 4.0]],
        ],
        ids=["zero", "repeated-row", "dependent-row"],
    )
    def test_exactly_singular_has_rcond_zero(self, matrix):
        # an exactly zero pivot: no condition estimate, and no warning
        system = dense_system(matrix, np.ones(len(matrix)), (1, len(matrix) - 1))
        with pytest.raises(SingularSystem) as exc:
            solve(system)
        assert exc.value.rcond == 0.0

    @pytest.mark.parametrize(
        "matrix, rhs",
        [
            ([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            ([[2.0, 0.0], [0.0, 1.0]], [np.inf, 1.0]),
            ([[1e308, 1.0], [1e308, -1.0]], [1.0, 1.0]),
        ],
        ids=["inf-matrix", "nan-matrix", "inf-rhs", "norm-overflow"],
    )
    def test_non_finite_system_rejected(self, matrix, rhs):
        with pytest.raises(NonFinite):
            solve(dense_system(matrix, rhs, (1, 1)))

    @pytest.mark.parametrize("gamma", [1e-310, 5e-324])
    def test_overflowing_scaled_block_is_non_finite(self, gamma):
        # S / γ overflows as solve writes it: the written entries are checked,
        # not only the stored blocks, so it is not read as a 1-norm overflow
        _, pb, d = build(truth=32, coarse=4)
        with np.errstate(over="ignore"):
            system = assemble_three_field(pb, d.with_gamma(gamma))
            with pytest.raises(NonFinite, match="^system matrix contains non-finite entries$"):
                solve(system)

    @pytest.mark.parametrize("over", ["ignore", "raise"])
    @pytest.mark.parametrize(
        "matrix",
        [
            [[1e308, 1.0], [1e308, -1.0]],
            np.full((4, 4), 0.6e308) + np.diag([1.0, 2.0, 3.0, 4.0]),
            np.diag(np.full(5, 1.7e308)) + np.triu(np.full((5, 5), 1e308), 1),
        ],
        ids=["2x2", "full-4x4", "triangular-5x5"],
    )
    def test_norm_overflow_is_non_finite(self, matrix, over):
        # finite entries whose column sums overflow: one NonFinite, whatever
        # the caller's floating-point error state
        system = dense_system(matrix, np.ones(len(matrix)), (1, len(matrix) - 1))
        with np.errstate(over=over), pytest.raises(NonFinite, match="1-norm overflows"):
            solve(system)

    @pytest.mark.parametrize("layout", ["c", "strided"])
    def test_screen_reads_numpy_one_norm_bit_for_bit(self, monkeypatch, layout):
        # dgecon gets the 1-norm of the matrix as np.linalg.norm(m, 1) has it,
        # over sizes, magnitudes from 1e-200 to 1e200, C-ordered (as every
        # assembled system is) and non-contiguous; both sum each column in
        # row order (numpy sums a contiguous F-ordered column pairwise, so
        # there the two agree to roundoff only)
        class Screened(Exception):
            pass

        norms = []

        def recorded(lu, anorm, *args, **kwargs):
            norms.append(anorm)
            raise Screened

        monkeypatch.setattr(saddle.lapack, "dgecon", recorded)
        rng = np.random.default_rng(14)
        expected = []
        for _ in range(100):
            n = int(rng.integers(1, 60))
            a = rng.standard_normal((2 * n, 3 * n)) * 10.0 ** rng.uniform(-200.0, 200.0)
            a *= 10.0 ** rng.uniform(-3.0, 3.0, a.shape)
            m = np.ascontiguousarray(a[:n, :n]) if layout == "c" else a[::2, ::3]
            expected.append(np.linalg.norm(m, 1))
            with pytest.raises(Screened):
                solve(dense_system(m, np.ones(n), (1, n - 1)))
        assert len(norms) == 100
        assert [float(x) for x in norms] == [float(x) for x in expected]

    def test_nan_residual_is_not_a_solution(self, monkeypatch):
        # a residual that is not a number fails the guard, it does not pass it
        cfg, pb, d = build(gamma=0.25)
        monkeypatch.setattr(saddle, "relative_residual", lambda system, sol: float("nan"))
        with pytest.raises(SingularSystem) as exc:
            solve(assemble_stabilized(pb, d))
        assert exc.value.rcond > SINGULAR_RTOL

    def test_factors_each_system_once(self, monkeypatch):
        # one LU factorization screens and solves; no SVD, no second factorization
        calls = []
        original = saddle.lapack.dgetrf

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("solve must not refactor the system")

        cfg, pb, d = build(gamma=0.25)
        stab = assemble_stabilized(pb, d)
        tf = assemble_three_field(pb, d)
        monkeypatch.setattr(saddle.lapack, "dgetrf", counted)
        for name in ("svd", "solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        solve(stab)
        solve(tf)
        assert calls == [stab.matrix.shape, tf.matrix.shape]

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
        f = a_form_apply(pb.record, xe) - d.b_eff @ ye_def
        g_rhs_eff = d.b_eff.T @ xe
        pb2 = SaddleProblem(pb.record, d.b_eff, d.q_eff, f, g_rhs_eff)
        d2 = Discretization(pb2, d.U, d.dp, d.gamma)
        x, y = solve(assemble_stabilized(pb2, d2))
        np.testing.assert_allclose(d2.U.embedding @ x, xe, atol=1e-9)
        np.testing.assert_allclose(pb2.pressures.basis @ y, ye_def, atol=1e-9)


class TestGammaFreeBlocks:
    # a discretization owns the gamma-free blocks of its (problem, U, dual
    # product); restating gamma keeps them, and both assemblies read them

    @pytest.mark.parametrize(
        "coarse, w", [(8, "refined:2"), (8, "same"), (64, "same")], ids=["u-w", "u-is-w", "maximal"]
    )
    def test_shared_set_assembles_the_fresh_systems(self, coarse, w):
        # acceptance test 06's path builds fresh spaces per gamma; one shared
        # set gives the same bytes, also when U is W
        cfg = models.ModelConfig(truth_elems=64, coarse_elems=coarse, w_kind=w, gamma=0.0)
        pb = models.build_truth(cfg)
        base = models.build_spaces(cfg, pb)
        for gamma in (0.01, 0.1, 1.0):
            d = base.with_gamma(gamma)
            assert d.gamma == gamma and d.blocks is base.blocks
            fresh = models.build_spaces(replace(cfg, gamma=gamma), pb)
            for assemble in (assemble_stabilized, assemble_three_field):
                shared, own = assemble(pb, d), assemble(pb, fresh)
                assert np.array_equal(shared.matrix, own.matrix)
                assert np.array_equal(shared.rhs, own.rhs)
        blk = base.blocks
        assert (blk.a_wu is blk.a_uu) == (w == "same")

    @pytest.mark.parametrize("w", ["refined:2", "same"], ids=["u-w", "u-is-w"])
    def test_a_uu_is_u_own_gram_at_reaction_zero(self, w):
        # A is G, so A_UU is the Gram U already holds, not a second one; the
        # assemblies copy it and leave it as it was
        _, pb, d = build(w_kind=w)
        gram = d.U.gram_sub.copy()
        assert d.blocks.a_uu is d.U.gram_sub
        assert (d.blocks.a_wu is d.U.gram_sub) == (w == "same")
        static_condense(assemble_three_field(pb, d))
        assemble_stabilized(pb, d)
        assert np.array_equal(d.U.gram_sub, gram)

    def test_a_uu_at_reaction_adds_m_to_u_own_gram(self, monkeypatch):
        # no second G-Gram of U: the truth space forms only the cross Gram
        # A_WU, and A_UU is bit for bit the record's Gram of U, signs of zero too
        _, pb, d = build(reaction=2.5)
        calls, original = [], pb.truth.gram

        def recorded(e, f=None):
            calls.append((e, f))
            return original(e, f)

        monkeypatch.setattr(pb.truth, "gram", recorded)
        a_uu = d.blocks.a_uu
        assert calls == [(d.W.op, d.U.op)]
        expected = pb.record.gram(d.U.op)
        assert a_uu is not d.U.gram_sub
        assert np.array_equal(a_uu, expected)
        assert np.array_equal(np.signbit(a_uu), np.signbit(expected))

    def test_second_dual_product_gets_its_own_set(self):
        # acceptance test 10's rotated W basis on the same U
        cfg = models.ModelConfig(truth_elems=128, coarse_elems=8, s_choice="scaled:2", gamma=0.1)
        pb = models.build_truth(cfg)
        d = models.build_spaces(cfg, pb)
        rng = np.random.default_rng(1010)
        n = d.W.dim
        q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
        q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
        r = q1 @ (np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))[:, None] * q2)
        w2 = Subspace(pb.truth, d.W.embedding @ r)
        s2 = stiffness_from_matrix(w2, r.T @ (d.dp.stiffness.matrix @ r))
        d2 = Discretization(pb, d.U, DualProduct(aux=w2, stiffness=s2), cfg.gamma)
        assert d2.blocks is not d.blocks
        np.testing.assert_allclose(d2.blocks.a_wu, r.T @ d.blocks.a_wu, rtol=1e-10, atol=1e-10)
        assert d2.with_gamma(0.5).blocks is d2.blocks
        base = static_condense(assemble_three_field(pb, d))
        rotated = static_condense(assemble_three_field(pb, d2))
        np.testing.assert_allclose(rotated.matrix, base.matrix, rtol=1e-11, atol=1e-11)
        # the stabilized route reads each set's own S solves
        np.testing.assert_allclose(
            assemble_stabilized(pb, d2).matrix, assemble_stabilized(pb, d).matrix, atol=1e-10
        )

    def test_assembly_on_another_problem_is_refused(self):
        cfg, pb, d = build(truth=16, coarse=4)
        other = models.build_truth(cfg)
        for assemble in (assemble_stabilized, assemble_three_field):
            with pytest.raises(ValueError, match="another problem"):
                assemble(other, d)


class TestBlockSystem:
    @pytest.mark.parametrize("sizes", [(5,), (2, 3), (1, 2, 2)], ids=["one", "two", "three"])
    def test_solve_returns_one_block_per_size(self, sizes):
        # a regular random system: one block per entry of sizes, and their
        # concatenation solves the system
        rng = np.random.default_rng(31)
        n = sum(sizes)
        m = rng.standard_normal((n, n)) + n * np.eye(n)
        rhs = rng.standard_normal(n)
        blocks = solve(dense_system(m, rhs, sizes))
        assert tuple(len(b) for b in blocks) == sizes
        sol = np.concatenate(blocks)
        assert np.linalg.norm(m @ sol - rhs) <= 1e-12 * np.linalg.norm(rhs)


class TestBlockSolve:
    # solve() writes the blocks once into one Fortran buffer and factors it in
    # place; the copy-and-factor solve of the assembled matrix is its oracle

    # (config, whether its systems are singular): equal-order P1 with W = U
    # on a coarse mesh is, and there both screens read the same rcond
    CONFIGS = {
        "u-w-p1": (dict(), False),
        "u-w-p0": (dict(pressure_kind="p0"), False),
        "u-is-w-p1": (dict(w_kind="same"), True),
        "u-is-w-p0": (dict(w_kind="same", pressure_kind="p0"), False),
        # U = W = truth: the fine-coarse shape, P0 on half the truth mesh, and P1 on all of it
        "maximal-p0": (dict(coarse=32, pressure_kind="p0"), False),
        "maximal-p1": (dict(coarse=64, w_kind="same"), False),
    }

    @pytest.mark.parametrize("kw, singular_config", CONFIGS.values(), ids=CONFIGS.keys())
    def test_solutions_are_the_dense_solve_bits(self, kw, singular_config):
        # the same values in the same layout reach getrf, so every solution
        # block is the oracle's bit for bit, sign of zero included; only the
        # residual, summed block by block, moves in roundoff
        kw = dict(kw)
        cfg, pb, d = build(coarse=kw.pop("coarse", 8), gamma=0.0, **kw)
        if cfg.w_elems() == cfg.truth_elems:
            d = Discretization(pb, d.W, d.dp, 0.0)
        rng = np.random.default_rng(cfg.coarse_elems)
        singular = []
        for gamma in (0.01, 0.1):
            dg = d.with_gamma(gamma)
            for system in (assemble_stabilized(pb, dg), assemble_three_field(pb, dg)):
                try:
                    blocks = solve(system)
                except SingularSystem as exc:
                    # a singular system is screened on the same rcond bits
                    with pytest.raises(SingularSystem) as dense_exc:
                        dense_solve(system)
                    assert dense_exc.value.rcond == exc.rcond
                    singular.append(len(system.sizes))
                    continue
                expected, dense_resid = dense_solve(system)
                for got, want in zip(blocks, expected, strict=True):
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))
                sol = np.concatenate(blocks)
                resid = saddle.relative_residual(system, sol)
                assert abs(resid - dense_resid) <= 1e-12
                # away from the solution the two residuals are O(1) and
                # agree to 1e-12 relative
                trial = sol + rng.standard_normal(sol.shape) * (1.0 + np.abs(sol))
                block_r = saddle.relative_residual(system, trial)
                dense_r = dense_residual(system.matrix, system.rhs, trial)
                assert block_r > 1e-3
                assert abs(block_r - dense_r) <= 1e-12 * dense_r
        assert singular == ([2, 3, 2, 3] if singular_config else [])

    @pytest.mark.parametrize("gamma", [1e-3, 0.1, 1e3])
    def test_residual_of_a_scaled_block_read_in_slabs(self, monkeypatch, gamma):
        # (1/γ)S is divided two rows at a time, the last row alone; the
        # residual is the dense one of the assembled matrix to roundoff, at
        # and away from the solution
        _, pb, d = build(w_kind="truth")
        monkeypatch.setattr(saddle, "SLAB", 2 * d.W.dim + 1)
        tf = assemble_three_field(pb, d.with_gamma(gamma))
        sol = np.concatenate(solve(tf))
        trial = sol + np.random.default_rng(2).standard_normal(sol.shape)
        for x in (sol, trial):
            dense_r = dense_residual(tf.matrix, tf.rhs, x)
            assert abs(saddle.relative_residual(tf, x) - dense_r) <= 1e-12 * max(dense_r, 1e-4)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(),
            dict(pressure_kind="p0"),
            dict(w_kind="truth"),
            dict(w_kind="same"),
            dict(s_choice="scaled:2"),
            dict(reaction=1.0),
        ],
        ids=["default", "p0", "w-truth", "w-same", "scaled", "reaction"],
    )
    def test_condensation_from_blocks_is_the_sliced_formula(self, kw):
        # static_condense reads the three-field blocks; slicing them out of
        # the assembled matrix gives the same system to 1e-14 relative
        for gamma in (0.01, 0.3, 1.0):
            cfg, pb, d = build(truth=32, coarse=4, gamma=gamma, **kw)
            tf = assemble_three_field(pb, d)
            cond = static_condense(tf)
            matrix, rhs = dense_condense(tf)
            assert cond.sizes == (d.U.dim, d.p_dim)
            assert np.abs(cond.matrix - matrix).max() <= 1e-14 * np.abs(matrix).max()
            assert np.abs(cond.rhs - rhs).max() <= 1e-14 * max(np.abs(rhs).max(), 1.0)

    @pytest.mark.parametrize("kw", [dict(), dict(w_kind="same"), dict(s_choice="scaled:3")])
    def test_condensation_makes_one_solve(self, monkeypatch, kw):
        # B_WQᵀ (S/γ)⁻¹ is the transpose of one solve against B_WQ's columns;
        # the solve reads the system's own factor of its (1/γ)S block
        cfg, pb, d = build(truth=32, coarse=4, **kw)
        tf = assemble_three_field(pb, d)
        calls, original = [], saddle.spd_solve

        def counted(fact, rhs):
            calls.append(fact)
            return original(fact, rhs)

        monkeypatch.setattr(saddle, "spd_solve", counted)
        static_condense(tf)
        assert len(calls) == 1 and calls[0] is not d.dp.stiffness.fact

    def test_solve_holds_one_buffer(self):
        # condense-check's maximal system on the fine-coarse config, n = 1277:
        # assembly makes no block, inside solve() only the n × n buffer is
        # new, and assembly plus solve stays near 1.0 n²; a matrix assembled
        # and then copied for getrf took it to 2 n², and (1/γ)S, −B_UQ and
        # −B_WQ held as new arrays to 1.3 n²
        cfg = models.ModelConfig(
            truth_elems=512, coarse_elems=256, pressure_kind="p0", w_kind="refined:2", gamma=0.1
        )
        pb = models.build_truth(cfg)
        spaces = models.build_spaces(cfg, pb)
        d = Discretization(pb, spaces.W, spaces.dp, 0.1)
        d.blocks  # the gamma-free blocks outlive every system
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            system = assemble_three_field(pb, d)
            assembled = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        n = sum(system.sizes)
        assert n == 1277
        assert assembled - base <= 0.01 * n * n * 8
        assert peak - assembled <= 1.15 * n * n * 8
        assert peak - base <= 1.05 * n * n * 8


class TestBlockGrid:
    def test_matrix_is_assembled_from_the_blocks_on_each_read(self):
        cfg, pb, d = build(gamma=0.0)
        galerkin = assemble_stabilized(pb, d)
        k = d.U.dim
        # the Galerkin pressure block is a zero block, held as None
        assert galerkin.grid[1][1] is None
        first, second = galerkin.matrix, galerkin.matrix
        assert first is not second and np.array_equal(first, second)
        assert first.flags.c_contiguous
        assert not first[k:, k:].any() and not np.signbit(first[k:, k:]).any()
        dg = d.with_gamma(0.1)
        tf = assemble_three_field(pb, dg)
        m = tf.matrix
        written = np.zeros(m.shape, dtype=bool)
        for rows, cols, block, divisor in tf.entries():
            assert np.array_equal(m[rows, cols], block / divisor)
            written[rows, cols] = True
        # every other slot is an exact zero
        assert not m[~written].any() and not np.signbit(m[~written]).any()
        # the system holds the gamma-free blocks and S, not copies of them:
        # (1/γ)S is (S, γ) and −B is (B, −1.0)
        ((a_uu, _, neg_b_uq), (_, s_over_gamma, neg_b_wq), (b_uqt, b_wqt, _)) = tf.grid
        assert a_uu is d.blocks.a_uu
        assert s_over_gamma[0] is dg.dp.stiffness.matrix and s_over_gamma[1] == 0.1
        assert neg_b_uq[0] is d.blocks.b_uq and neg_b_uq[1] == -1.0
        assert neg_b_wq[0] is d.blocks.b_wq and neg_b_wq[1] == -1.0
        assert np.shares_memory(b_uqt, d.blocks.b_uq) and np.shares_memory(b_wqt, d.blocks.b_wq)
        # the stabilized system holds B_UQ itself too
        (_, neg_b_uq), _ = assemble_stabilized(pb, dg).grid
        assert neg_b_uq[0] is d.blocks.b_uq and neg_b_uq[1] == -1.0

    def test_shapes_are_checked(self):
        m, rhs = np.eye(3), np.ones(3)
        with pytest.raises(DimensionMismatch, match="grid"):
            BlockSystem(((m,),), rhs, (1, 2))
        with pytest.raises(DimensionMismatch, match="block"):
            BlockSystem(((m[:1, :1], m[:1, 1:]), (m[1:, :1], m[1:, :])), rhs, (1, 2))
        with pytest.raises(DimensionMismatch, match="rhs"):
            dense_system(m, np.ones(4), (1, 2))


def svd_singular(matrix):
    """The SVD screen: singular when σ_min ≤ SINGULAR_RTOL · σ_max."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    return bool(svals[-1] <= SINGULAR_RTOL * svals[0])


def lu_singular(system):
    """The screen of solve(): singular when its condition estimate fires."""
    try:
        solve(system)
    except SingularSystem as exc:
        return exc.rcond <= SINGULAR_RTOL
    return False


class TestScreenOracle:
    # the SVD screen is the oracle of solve()'s LU screen: 1/κ₁ lies within a
    # factor n of σ_min/σ_max, and on these systems both screens must give
    # the same verdict

    @pytest.mark.parametrize("coarse", [16, 32, 64, 128])
    def test_equal_order_levels(self, coarse):
        # acceptance test 08's singular systems, and the same levels at gamma0 / 2
        cfg = models.ModelConfig(truth_elems=1024, coarse_elems=coarse, gamma=0.0)
        truth = models.truth_record(cfg)
        pb = models.build_level(cfg, truth)
        d = models.build_spaces(cfg, pb)
        galerkin = assemble_stabilized(pb, d)
        assert svd_singular(galerkin.matrix) and lu_singular(galerkin)
        gamma = constants(pb, d).gamma0 / 2.0
        stabilized = assemble_stabilized(pb, Discretization(pb, d.U, d.dp, gamma))
        assert not svd_singular(stabilized.matrix) and not lu_singular(stabilized)

    def test_maximal_level_with_w_same_is_w_truth(self):
        # condense-check's maximal level: at coarse = truth, U is the whole
        # truth space and W = U assembles the system of W = truth bit for bit
        systems = []
        for w in ("same", "truth"):
            cfg = models.ModelConfig(
                truth_elems=64, coarse_elems=64, pressure_kind="p0", w_kind=w, gamma=0.0
            )
            pb = models.build_truth(cfg)
            d = models.build_spaces(cfg, pb)
            systems.append(assemble_three_field(pb, Discretization(pb, d.U, d.dp, 0.1)))
        same, truth = systems
        assert np.array_equal(same.matrix, truth.matrix)
        assert np.array_equal(same.rhs, truth.rhs)

    def test_condense_check_maximal_systems(self):
        # U = W = truth three-field systems at truth 512 with p0 pressures
        cases = [
            # the two-level design's, pressures on the truth mesh:
            # n = 511 + 511 + 511
            (512, "truth", 1533),
            # condense-check's on the fine-coarse benchmark config, pressures
            # on 256; the configured refined:2 W spans the truth mesh and is
            # the maximal U: n = 511 + 511 + 255
            (256, "refined:2", 1277),
        ]
        for coarse, w, n in cases:
            cfg = models.ModelConfig(
                truth_elems=512, coarse_elems=coarse, pressure_kind="p0", w_kind=w, gamma=0.0
            )
            pb = models.build_truth(cfg)
            d = models.build_spaces(cfg, pb)
            for gamma in (0.01, 0.1, 1.0):
                tf = assemble_three_field(pb, Discretization(pb, d.W, d.dp, gamma))
                assert tf.matrix.shape == (n, n)
                assert not svd_singular(tf.matrix) and not lu_singular(tf)

    def test_fuzz_grammar_solve_systems(self, monkeypatch, tmp_path):
        # every finite system that solve() meets in `solve` runs on configs
        # drawn from the fuzz test's grammar gets the SVD screen's verdict
        verdicts = []
        original = saddle.solve

        def screened(system):
            finite = np.all(np.isfinite(system.matrix)) and np.all(np.isfinite(system.rhs))
            oracle = svd_singular(system.matrix) if finite else None
            try:
                out = original(system)
            except SingularSystem as exc:
                verdicts.append((oracle, exc.rcond <= SINGULAR_RTOL))
                raise
            verdicts.append((oracle, False))
            return out

        monkeypatch.setattr(saddle, "solve", screened)

        @settings(
            max_examples=30,
            derandomize=True,
            deadline=None,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(runs().map(lambda run: ("solve", run[1])))
        def run_solve(run):
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in run[1].items()))
            main(["solve", "--config", str(cfg), "--out", str(tmp_path / "report.csv")])

        run_solve()
        assert [v for v in verdicts if v[0] is not None and v[0] != v[1]] == []
        # the draws reach singular systems and regular ones within a decade
        # of SINGULAR_RTOL (σ_min/σ_max 1.6e-11 at one BLAS thread)
        assert {v[0] for v in verdicts} >= {True, False}


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
        # so does a record with nothing but what saddle reads: the space, the
        # Grams of A, alpha and norm_A
        cfg, pb, d = build(reaction=5.0)
        record = models.truth_record(cfg)
        names = ("space", "gram", "sub_gram", "alpha", "norm_A")
        abstract = SimpleNamespace(**{name: getattr(record, name) for name in names})
        for truth in (record, abstract):
            level = models.build_level(cfg, truth)
            ld = models.build_spaces(cfg, level)
            assert constants(level, ld) == constants(pb, d)
            np.testing.assert_array_equal(ld.blocks.a_uu, d.blocks.a_uu)
            np.testing.assert_array_equal(ld.blocks.a_wu, d.blocks.a_wu)

    @pytest.mark.parametrize("reaction", [0.0, 2.5])
    def test_split_record_matches_dense_oracle(self, reaction):
        # the dense (sym A, G) and operator-norm route is the oracle of the
        # closed-form record's alpha and norm_A, and so of gamma0 and
        # gamma_tilde0; no other constant reads the a-form, so each equals
        # that of the reaction-0 record on the same truth space
        cfg = models.ModelConfig(truth_elems=1024, coarse_elems=16, gamma=0.0, reaction=reaction)
        split = models.truth_record(cfg)
        gram = p1_stiffness(1024)
        alpha, norm_a = dense_truth_extremes(gram, gram + reaction * p1_interior_mass(1024))
        reps = []
        for record in (split, models.TruthRecord(split.space, 0.0, None, 1.0, 1.0)):
            pb = models.build_level(cfg, record)
            reps.append(constants(pb, models.build_spaces(cfg, pb)))
        measured, base = (vars(r) for r in reps)
        oracle = {
            "alpha": alpha,
            "norm_A": norm_a,
            "gamma0": 2.0 * alpha * base["c_star"] / (norm_a**2 * base["C_star"] ** 2),
            "gamma_tilde0": 2.0 * base["kappa_star"] * alpha / norm_a**2,
        }
        for name, value in measured.items():
            if name in oracle:
                assert value == pytest.approx(oracle[name], rel=1e-10, abs=0.0), name
            else:
                assert value == base[name], name
        if reaction == 0.0:
            assert split.alpha == split.norm_A == 1.0

    @pytest.mark.parametrize("truth", [64, 256, 1024, 2048])
    def test_banded_truth_matches_dense_oracle(self, truth):
        # every constant on the banded P1 truth against a dense TruthSpace of
        # the same Gramian; banded and dense solves differ at about 1e-12
        cfg = models.ModelConfig(truth_elems=truth, coarse_elems=16, gamma=0.0)
        banded = models.build_truth(cfg)
        dense = models.build_level(
            cfg, models.TruthRecord(TruthSpace(p1_stiffness(truth)), 0.0, None, 1.0, 1.0)
        )
        assert isinstance(banded.truth, BandedTruthSpace)
        measured, oracle = (
            vars(constants(pb, models.build_spaces(cfg, pb))) for pb in (banded, dense)
        )
        for name, value in measured.items():
            assert value == pytest.approx(oracle[name], rel=1e-10, abs=0.0), name

    def test_c_hat_is_read_from_beta(self):
        cfg, pb, d = build()
        rep = constants(pb, d)
        assert rep.c_hat == min(1.0, rep.beta**2)
        assert replace(rep, beta=2.0).c_hat == 1.0

    def test_beta_gamma_piecewise_formula(self):
        rep = ConstantsReport(
            alpha=1.0, norm_A=1.0, norm_B=1.0, beta=1.0,
            kappa_star=1.0, K_star=1.0, c_star=0.5, C_star=1.0,
            alpha_hat=1.0, beta_hat=1.0, gamma0=1.0, gamma_tilde0=2.0,
        )
        assert rep.beta_gamma(0.0) == 0.0
        # min(0.25 gamma, 1 - gamma) at gamma = 0.5 -> 0.125
        assert rep.beta_gamma(0.5) == pytest.approx(0.125)
        degenerate = replace(rep, c_star=0.0)
        assert degenerate.beta_gamma(0.5) == -np.inf
        # a gamma0 that underflows to 0 with c_star > 0 predicts no coercivity either
        assert replace(rep, gamma0=0.0).beta_gamma(0.5) == -np.inf
        with pytest.raises(ValueError):
            rep.beta_gamma(-0.1)

    @pytest.mark.parametrize("j", [-300, -100, 100, 300])
    def test_constants_are_scale_covariant(self, j):
        # S = 4^j G_W: S's extremes and the thresholds scale by 4^j, c_star and
        # C_star by 4^-j, everything else stays, and beta_gamma reads gamma / gamma0
        base, scaled = (
            constants(pb, d)
            for _, pb, d in (build(gamma=0.0), build(gamma=0.0, s_choice=f"scaled:{4.0**j!r}"))
        )
        factors = dict.fromkeys(("kappa_star", "K_star", "gamma0", "gamma_tilde0"), 4.0**j)
        factors.update(c_star=4.0**-j, C_star=4.0**-j)
        for name, value in vars(scaled).items():
            expected = factors.get(name, 1.0) * vars(base)[name]
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0), name
        for gamma in (base.gamma0 / 4, base.gamma0 / 2, 0.9 * base.gamma0):
            assert scaled.beta_gamma(4.0**j * gamma) == pytest.approx(
                base.beta_gamma(gamma), rel=1e-12, abs=0.0
            )


class TestCoercivity:
    def test_measured_dominates_predicted(self):
        cfg, pb, d = build(gamma=0.0)
        rep = constants(pb, d)
        d2 = models.build_spaces(replace(cfg, gamma=rep.gamma0 / 2), pb)
        measured, predicted = verify_coercivity(pb, d2, report=rep)
        assert measured >= predicted - 1e-9
        assert predicted > 0.0

    @pytest.mark.parametrize("check", ["verify_coercivity", "quasi_optimality"])
    def test_gamma_at_or_above_gamma0_rejected(self, check):
        # both raise through one guard, with one message
        cfg, pb, d = build(gamma=0.0)
        rep = constants(pb, d)
        d2 = models.build_spaces(replace(cfg, gamma=rep.gamma0 * 1.5), pb)
        exact = models.exact_coefficients(cfg, models.default_solution())
        args = {"verify_coercivity": (pb, d2), "quasi_optimality": (pb, d2, exact)}[check]
        with pytest.raises(ValueError, match="gamma .* is not below gamma0 .*; no coercivity"):
            getattr(saddle, check)(*args, report=rep)

    def test_violation_raises_from_check_row(self):
        # a report whose prediction exceeds the measured constant fails the
        # coercivity row, in the check-table form
        cfg, pb, d = build(gamma=0.0)
        rep = constants(pb, d)
        d2 = models.build_spaces(replace(cfg, gamma=rep.gamma0 / 2), pb)
        measured, _ = verify_coercivity(pb, d2, report=rep)
        inflated = replace(rep, alpha=10.0 * rep.alpha, c_star=10.0 * rep.c_star)
        predicted = inflated.beta_gamma(d2.gamma)
        assert predicted > measured
        with pytest.raises(BoundViolated) as exc:
            verify_coercivity(pb, d2, report=inflated)
        assert str(exc.value) == f"coercivity {measured:.6e} outside [{predicted:.6e}, -]"

    @pytest.mark.parametrize("kw", [dict(), dict(pressure_kind="p0"), dict(w_kind="refined:4")])
    def test_norm_block_reuses_held_factors(self, monkeypatch, kw):
        # blockdiag(L_U, L_Q) factors blockdiag(G_U, Q_eff): no Cholesky runs,
        # and the measured constant is the factored block's to 1e-12
        cfg, pb, d = build(gamma=0.0, **kw)
        rep = constants(pb, d)
        d2 = models.build_spaces(replace(cfg, gamma=rep.gamma0 / 2), pb)
        k = assemble_stabilized(pb, d2).matrix
        off = np.zeros((d2.U.dim, d2.p_dim))
        norms = np.block([[d2.U.gram_sub, off], [off.T, pb.pressures.q_eff]])
        expected = sym_generalized_eigvals(0.5 * (k + k.T), algebra.cholesky(norms))[0]
        calls = []
        for module in (algebra, dualprod, saddle):

            def counted(m, name="matrix", original=module.cholesky):
                calls.append(name)
                return original(m, name)

            monkeypatch.setattr(module, "cholesky", counted)
        measured, _ = verify_coercivity(pb, d2, report=rep)
        assert calls == []
        assert measured == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_gamma_zero_predicts_nothing(self):
        # at gamma = 0 the symmetric part has a zero pressure block: the
        # measured constant is 0 and so is the prediction
        cfg, pb, d = build(gamma=0.0)
        measured, predicted = verify_coercivity(pb, d, report=saddle.constants(pb, d))
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
        assert pressure_infsup(pb.pressures, d.W) == constants(pb, d).beta_hat

    @pytest.mark.parametrize("w_kind", ["same", "refined:2", "refined:4", "truth"])
    def test_joint_space_is_w_for_every_w_kind(self, w_kind):
        # the dense joint space of the oracle has W's dimension and W's constant,
        # which the check row reads from W's pencil as beta_hat
        cfg, pb, d = build(w_kind=w_kind)
        joint = combined_subspace(pb.truth, d.U.embedding, d.W.embedding)
        assert joint.dim == d.W.dim
        row = saddle.relaxed_infsup_check(pb, d)
        beta_hat = constants(pb, d).beta_hat
        assert row.value == row.lower == beta_hat
        assert pressure_infsup(pb.pressures, joint) == pytest.approx(beta_hat, rel=1e-12, abs=1e-12)

    @staticmethod
    def hand_built(pb, u_op, w_op):
        u, w = Subspace(pb.truth, u_op), Subspace(pb.truth, w_op)
        dp = DualProduct(aux=w, stiffness=stiffness_from_matrix(w, w.gram_sub))
        return Discretization(pb, u, dp, 0.1)

    def test_u_outside_w_is_refused(self):
        # U on 16 elements does not lie in W on 8, nor in a random W
        cfg, pb, _ = build()
        rng = np.random.default_rng(11)
        for w_op in (models.P1Prolongation(64, 8), rng.standard_normal((63, 20))):
            d = self.hand_built(pb, models.P1Prolongation(64, 16), w_op)
            with pytest.raises(saddle.NotNested):
                saddle.relaxed_infsup_check(pb, d)
            with pytest.raises(saddle.NotNested):
                verify_relaxed_infsup(pb, d)

    def test_u_inside_a_dense_w_passes(self):
        # a dense W spanning U's hats and more directions contains U
        cfg, pb, _ = build()
        rng = np.random.default_rng(12)
        e_u = models.prolongation_p1(64, 8)
        w_mat = np.hstack([e_u @ rng.standard_normal((7, 7)), rng.standard_normal((63, 9))])
        d = self.hand_built(pb, models.P1Prolongation(64, 8), w_mat)
        row = saddle.relaxed_infsup_check(pb, d)
        assert row.value == row.lower == pressure_infsup(pb.pressures, d.W)


class TestPressureProjection:
    def test_roundtrip_on_deflated_members(self):
        cfg, pb, d = build()
        rng = np.random.default_rng(8)
        y = rng.standard_normal(d.p_dim)
        y_raw = pb.pressures.basis @ y
        np.testing.assert_allclose(project_pressure(pb, y_raw), y, atol=1e-10)

    def test_kills_constants(self):
        # the constant pressure is deflated away: its projection is zero
        cfg, pb, d = build()
        ones = np.ones(pb.pressure_dim)
        np.testing.assert_allclose(project_pressure(pb, ones), 0.0, atol=1e-10)


class TestQuasiOptimality:
    def test_ratio_bounded_on_manufactured_solution(self):
        cfg, pb, d = build(truth=256, coarse=16, gamma=0.3)
        exact = models.exact_coefficients(cfg, models.default_solution())
        qo = quasi_optimality(pb, d, exact, report=saddle.constants(pb, d))
        assert qo.u_err >= qo.best_u - 1e-12
        assert 1.0 - 1e-9 <= qo.ratio < 3.0

    def test_degenerate_when_exact_in_spaces(self):
        cfg, pb, d = build(pressure_kind="p0")
        rng = np.random.default_rng(9)
        xe = d.U.embedding @ rng.standard_normal(d.U.dim)
        ye = pb.pressures.basis @ rng.standard_normal(d.p_dim)
        with pytest.raises(DegenerateDenominator):
            quasi_optimality(pb, d, (xe, ye), report=saddle.constants(pb, d))


def rebuilt(pb, **changes):
    """The SaddleProblem of pb's record and data, with some of its arguments replaced."""
    args = dict(
        b_form=pb.constraint.to_dense(), q_gram=pb.q_gram, load=pb.load, constraint_rhs=pb.constraint_rhs
    )
    return SaddleProblem(pb.record, **{**args, **changes})


class TestValidation:
    def test_saddle_problem_shape_checks(self):
        cfg, pb, d = build(truth=16, coarse=4)
        # the a-form is validated once, by the record the problem is built on:
        # its truth space is a TruthSpace, not a bare Gramian
        with pytest.raises(TypeError):
            models.TruthRecord(p1_stiffness(16), 0.0, None, 1.0, 1.0)
        with pytest.raises(TypeError):
            SaddleProblem(pb.truth, pb.constraint.to_dense(), pb.q_gram, pb.load, pb.constraint_rhs)
        # any record is read, but its space must be a TruthSpace too
        record = SimpleNamespace(space=p1_stiffness(16))
        with pytest.raises(TypeError):
            SaddleProblem(record, pb.constraint.to_dense(), pb.q_gram, pb.load, pb.constraint_rhs)
        # the deflation checks G_Q against B_T's columns
        with pytest.raises(DimensionMismatch, match="does not match constraint matrix columns"):
            rebuilt(pb, q_gram=np.eye(2))

    def test_takes_no_label(self):
        # a level is told apart by its config and its pressure_dim
        cfg, pb, d = build(truth=16, coarse=4)
        with pytest.raises(TypeError, match="label"):
            rebuilt(pb, label="p1-4-on-16")

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda pb, d: rebuilt(pb, b_form=pb.constraint.to_dense()[1:]), DimensionMismatch),
            (lambda pb, d: rebuilt(pb, load=pb.load.action[1:]), DimensionMismatch),
            (lambda pb, d: rebuilt(pb, constraint_rhs=pb.constraint_rhs[1:]), DimensionMismatch),
            (lambda pb, d: Discretization(pb, d.U, d.dp.stiffness, 0.1), TypeError),
            (lambda pb, d: Discretization(pb, build(16, 4)[2].U, d.dp, 0.1), DimensionMismatch),
            (lambda pb, d: project_pressure(pb, np.ones(pb.pressure_dim + 1)), DimensionMismatch),
        ],
        ids=["b-rows", "load-dim", "rhs-dim", "not-a-dual-product", "other-truth", "raw-pressure-dim"],
    )
    def test_input_checks(self, call, error):
        cfg, pb, d = build(truth=16, coarse=4)
        with pytest.raises(error):
            call(pb, d)

    def test_gamma_validation(self):
        cfg, pb, d = build(truth=16, coarse=4)
        with pytest.raises(ValueError):
            Discretization(pb, d.U, d.dp, -1.0)
        # restating gamma validates it the same way
        with pytest.raises(ValueError):
            d.with_gamma(-1.0)

    def test_deflates_whole_pressure_space(self):
        # one pressure space per level: the problem's own B_T and G_Q
        cfg, pb, d = build(truth=16, coarse=4, pressure_kind="p0")
        assert d.b_sel is pb.constraint and d.q_sel is pb.q_gram
        assert pb.pressures.basis.shape == (pb.pressure_dim, d.p_dim)
        assert d.p_dim == pb.pressure_dim - 1  # the constants are deflated away

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    def test_b_sel_gives_the_constants_of_the_commands(self, monkeypatch, kind):
        # a model level hands out B_T as it holds it, so the functions that
        # take (b_t, q_gram) read the closed-form dual Gram, as the commands
        # do: no truth solve, and every constant bit for bit
        cfg, pb, d = build(truth=1024, coarse=32, pressure_kind=kind)
        assert d.b_sel is pb.constraint
        expected = constants(pb, d)

        def no_solve(rhs):
            raise AssertionError("a model level's constants solve no truth system")

        monkeypatch.setattr(pb.truth, "solve", no_solve)
        er = dualprod.equivalence_report(d.dp, d.b_sel, d.q_sel)
        assert vars(er) == {name: getattr(expected, name) for name in vars(er)}

    def test_discretizations_share_the_problem_deflation(self, monkeypatch):
        # the pressures are the problem's: deflated once, when it is built, however
        # many discretizations (at any gamma) are built on it
        from dualstab import dualprod

        calls = []
        original = dualprod.pressure_deflation

        def counted(b_t, q_gram):
            calls.append(b_t.shape)
            return original(b_t, q_gram)

        monkeypatch.setattr(dualprod, "pressure_deflation", counted)
        cfg = models.ModelConfig(truth_elems=64, coarse_elems=8, gamma=0.0)
        pb = models.build_truth(cfg)
        assert calls == [(63, 9)]
        d = models.build_spaces(cfg, pb)
        d2 = models.build_spaces(replace(cfg, gamma=0.3), pb)
        d3 = Discretization(pb, d.U, d.dp, 0.5)
        assert calls == [(63, 9)]
        assert (d.gamma, d2.gamma, d3.gamma) == (0.0, 0.3, 0.5)
        # U's and W's rows of the pressures are the problem's pressures' rows,
        # so every copy on d's spaces reads their bits
        rows = pb.pressures.restrict(d.U), pb.pressures.restrict(d.W)
        for other in (d, d3, d.with_gamma(0.7), d3.with_gamma(0.1)):
            assert np.array_equal(other.blocks.b_uq, rows[0])
            assert np.array_equal(other.blocks.b_wq, rows[1])
        np.testing.assert_array_equal(d2.blocks.b_wq, rows[1])
        np.testing.assert_array_equal(d.b_eff, d2.b_eff)
        np.testing.assert_array_equal(
            assemble_stabilized(pb, d3).matrix,
            assemble_stabilized(pb, models.build_spaces(replace(cfg, gamma=0.5), pb)).matrix,
        )
        assert calls == [(63, 9)]
        with pytest.raises(ValueError):
            Discretization(pb, d.U, d.dp, np.nan)

    def test_degenerate_constraint_fails_when_built(self):
        # the problem deflates its pressures when it is built, so a zero B fails there
        cfg, pb, d = build(truth=16, coarse=4)
        with pytest.raises(DegeneratePencil):
            rebuilt(pb, b_form=0.0 * pb.constraint.to_dense())
