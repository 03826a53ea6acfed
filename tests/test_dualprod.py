import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from dualstab import algebra, dualprod, models
from dualstab.algebra import DimensionMismatch, NotSpd, spd_solve, sym_generalized_eig
from dualstab.dualprod import (
    SWEEP_SAMPLES,
    BoundViolated,
    Check,
    DegeneratePencil,
    DualProduct,
    SweepSampler,
    c_apply,
    deflate_pressures,
    dual_equivalence_interval,
    equivalence_report,
    estimate_c_star,
    infsup_qw,
    make_stiffness,
    pressure_deflation,
    spectral_checks,
    stiffness_dual_norm,
    stiffness_from_matrix,
    verify_cstar_infsup_link,
    verify_dual_equivalence,
    verify_infsup_sandwich,
    verify_stiffness_bound,
)
from dualstab.hilbert import BandedTruthSpace, Functional, Subspace, TruthSpace, dual_norm
from dualstab.models import (
    ConstraintForm,
    P1Prolongation,
    p1_interior_mass,
    p1_stiffness_band,
    pressure_dim,
    pressure_mass,
    prolongation_p1,
)
from oracles import (
    hat_constraint_matrix,
    hat_prolongation,
    p1_stiffness,
    random_spd,
    svd_deflation,
)


def hat_rows(truth, sub_elems, coarse, kind):
    """E_Sᵀ B_T of the hats on sub_elems elements: the dense product of the hat
    tables up to truth 2048, and above it B_T of S's own mesh, which
    tests/test_models.py pins to that product bit for bit."""
    if truth > 2048:
        return ConstraintForm(sub_elems, coarse, kind).to_dense()
    return hat_prolongation(truth, sub_elems).T @ hat_constraint_matrix(truth, coarse, kind)


def random_truth(rng, n):
    return TruthSpace(random_spd(rng, n))


def mass_pair(truth_elems=64, coarse_elems=8):
    """Coarse P1 space inside a fine P1 mass space; lumping is SPD here."""
    ts = TruthSpace(p1_interior_mass(truth_elems))
    return ts, Subspace(ts, prolongation_p1(truth_elems, coarse_elems))


class TestStiffnessChoices:
    def test_gramian_spectrum_is_one(self):
        rng = np.random.default_rng(1)
        ts = random_truth(rng, 20)
        sub = Subspace(ts, rng.standard_normal((20, 7)))
        sf = make_stiffness(sub, "gramian")
        assert type(sf.kappa_star) is float and sf.kappa_star == sf.K_star == 1.0

    def test_gramian_shares_subspace_factor(self):
        # S = G_W is the subspace's own Gramian, factored once; scaled:1 is gramian
        rng = np.random.default_rng(4)
        sub = Subspace(random_truth(rng, 10), rng.standard_normal((10, 4)))
        for choice in ("gramian", "scaled:1"):
            sf = make_stiffness(sub, choice)
            assert sf.matrix is sub.gram_sub and sf.fact is sub.fact

    def test_scaled_spectrum(self):
        rng = np.random.default_rng(2)
        ts = random_truth(rng, 15)
        sub = Subspace(ts, rng.standard_normal((15, 6)))
        # S = σ·G_W carries its range (σ, σ) exactly
        for sigma in (2.0, 3.0, 0.1):
            sf = make_stiffness(sub, f"scaled:{sigma!r}")
            assert type(sf.kappa_star) is float and sf.kappa_star == sf.K_star == sigma
            assert np.array_equal(sf.matrix, sigma * sub.gram_sub)

    @pytest.mark.parametrize("sigma", [2.0, 3.0, 0.1, 1e-300, 1e300])
    def test_scaled_is_factored_by_w(self, monkeypatch, sigma):
        # √σ·L_W is the Cholesky factor of σ·G_W: nothing is factored or
        # symmetrized when the form is built
        rng = np.random.default_rng(5)
        sub = Subspace(random_truth(rng, 15), rng.standard_normal((15, 6)))
        calls = []

        def counting(name, original):
            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return counted

        for module in (algebra, dualprod):
            for name in ("cholesky", "require_symmetric"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        sf = make_stiffness(sub, f"scaled:{sigma!r}")
        assert calls == []
        assert np.array_equal(sf.fact.lower, np.sqrt(sigma) * sub.fact.lower)
        assert sf.fact.dim == sub.dim

    @pytest.mark.parametrize("choice, sigma", [("gramian", 1.0), ("scaled:3", 3.0)])
    def test_w_factored_when_s_is_first_solved(self, choice, sigma):
        # on a structured W, neither W nor S is factored until S is solved
        sub = Subspace(BandedTruthSpace(p1_stiffness_band(64)), P1Prolongation(64, 16))
        sf = make_stiffness(sub, choice)
        assert "fact" not in vars(sub) and "fact" not in vars(sf)
        f = Functional(np.linspace(-1.0, 1.0, 63))
        value = c_apply(DualProduct(aux=sub, stiffness=sf), f, f)
        assert "fact" in vars(sub) and "fact" in vars(sf)
        assert np.array_equal(sf.fact.lower, np.sqrt(sigma) * sub.fact.lower)
        assert (sf.fact is sub.fact) == (sigma == 1.0)
        w = sub.restrict(f.action)
        assert value == pytest.approx(w @ np.linalg.solve(sigma * sub.gram_sub, w), rel=1e-12)
        # a restated form derives its factor from the same σ
        restated = replace(sf, kappa_star=2.0 * sf.kappa_star)
        assert np.array_equal(restated.fact.lower, sf.fact.lower)

    def test_scaled_four_factor_is_the_cholesky_bits(self):
        # √4 = 2 is exact, so W's factor doubled is the factor of 4·G_W
        rng = np.random.default_rng(6)
        sub = Subspace(random_truth(rng, 30), rng.standard_normal((30, 12)))
        sf = make_stiffness(sub, "scaled:4")
        assert np.array_equal(sf.fact.lower, algebra.cholesky(4.0 * sub.gram_sub).lower)

    def test_lumped_mass_is_spd_with_spread(self):
        _, sub = mass_pair()
        sf = make_stiffness(sub, "lumped")
        assert sf.kappa_star == pytest.approx(1.0, rel=1e-10)
        assert sf.K_star > 1.5  # strictly separated spectrum

    def test_lumped_stiffness_rejected(self):
        # interior rows of a stiffness Gramian sum to ~0: not SPD by design
        ts = TruthSpace(p1_stiffness(32))
        sub = Subspace(ts, prolongation_p1(32, 8))
        with pytest.raises(NotSpd):
            make_stiffness(sub, "lumped")

    def test_bad_choices_rejected(self):
        _, sub = mass_pair(16, 4)
        with pytest.raises(ValueError):
            make_stiffness(sub, "scaled:0")
        with pytest.raises(ValueError):
            make_stiffness(sub, "scaled:x")
        for scale in ("nan", "inf"):
            with pytest.raises(ValueError, match="finite"):
                make_stiffness(sub, f"scaled:{scale}")
        with pytest.raises(ValueError):
            make_stiffness(sub, "diag")

    def test_custom_matrix_spectrum(self):
        rng = np.random.default_rng(3)
        ts = random_truth(rng, 12)
        sub = Subspace(ts, rng.standard_normal((12, 5)))
        sf = stiffness_from_matrix(sub, 3.0 * sub.gram_sub)
        assert sf.kappa_star == pytest.approx(3.0, rel=1e-12)
        assert sf.K_star == pytest.approx(3.0, rel=1e-12)

    def test_explicit_and_lumped_range_solved_when_built(self, monkeypatch):
        # an explicit S and lumped S solve (S, G_W) once, when the form is
        # built; reading kappa_star and K_star solves nothing more
        calls = []
        original = dualprod.sym_generalized_eigvals

        def counted(a, b_fact):
            calls.append(a.shape)
            return original(a, b_fact)

        monkeypatch.setattr(dualprod, "sym_generalized_eigvals", counted)
        rng = np.random.default_rng(5)
        sub = Subspace(random_truth(rng, 12), rng.standard_normal((12, 5)))
        root = rng.standard_normal((5, 5))
        forms = [
            stiffness_from_matrix(sub, root @ root.T + 5.0 * np.eye(5)),
            make_stiffness(mass_pair()[1], "lumped"),
        ]
        assert calls == [(5, 5), (7, 7)]
        for sf in forms:
            spectrum, _ = sym_generalized_eig(sf.matrix, sf.aux.fact)
            assert type(sf.kappa_star) is float and type(sf.K_star) is float
            assert sf.kappa_star == pytest.approx(spectrum[0], rel=1e-12, abs=0.0)
            assert sf.K_star == pytest.approx(spectrum[-1], rel=1e-12, abs=0.0)
        assert len(calls) == 2

    def test_stiffness_dim_must_match_subspace(self):
        rng = np.random.default_rng(4)
        ts = random_truth(rng, 10)
        sub = Subspace(ts, rng.standard_normal((10, 4)))
        other = Subspace(ts, rng.standard_normal((10, 3)))
        with pytest.raises(Exception):
            DualProduct(aux=sub, stiffness=make_stiffness(other, "gramian"))

    def test_stiffness_must_be_built_on_the_same_subspace(self):
        # a re-based copy of W has W's dimension, but S in its basis is not S in W's:
        # the product would read kappa_star = K_star = 1 and a wrong c(f, f)
        ts = TruthSpace(p1_stiffness(64))
        sub = Subspace(ts, prolongation_p1(64, 16))
        rebased = Subspace(ts, sub.embedding @ (np.eye(15) + np.triu(np.ones((15, 15)), 1)))
        with pytest.raises(DimensionMismatch, match="another subspace"):
            DualProduct(aux=sub, stiffness=make_stiffness(rebased, "gramian"))
        DualProduct(aux=sub, stiffness=make_stiffness(sub, "gramian"))


class TestCApply:
    def test_exact_on_full_space(self):
        # W = truth, S = G: c(f, g) is the exact dual scalar product
        rng = np.random.default_rng(11)
        ts = random_truth(rng, 25)
        sub = Subspace(ts, np.eye(25))
        dp = DualProduct(aux=sub, stiffness=make_stiffness(sub, "gramian"))
        for _ in range(20):
            f = Functional(rng.standard_normal(25))
            g = Functional(rng.standard_normal(25))
            exact = float(f.action @ spd_solve(ts.fact, g.action))
            assert c_apply(dp, f, g) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_symmetric_and_positive(self):
        rng = np.random.default_rng(12)
        ts = random_truth(rng, 18)
        sub = Subspace(ts, rng.standard_normal((18, 9)))
        dp = DualProduct(aux=sub, stiffness=make_stiffness(sub, "scaled:1.5"))
        f = Functional(rng.standard_normal(18))
        g = Functional(rng.standard_normal(18))
        assert c_apply(dp, f, g) == pytest.approx(c_apply(dp, g, f), rel=1e-12)
        assert c_apply(dp, f, f) >= 0.0

    def test_scaling_inverse_in_s(self):
        # c with S = 2 G_W is exactly half of c with S = G_W
        rng = np.random.default_rng(13)
        ts = random_truth(rng, 16)
        sub = Subspace(ts, rng.standard_normal((16, 6)))
        dp1 = DualProduct(aux=sub, stiffness=make_stiffness(sub, "gramian"))
        dp2 = DualProduct(aux=sub, stiffness=make_stiffness(sub, "scaled:2"))
        f = Functional(rng.standard_normal(16))
        assert c_apply(dp2, f, f) == pytest.approx(0.5 * c_apply(dp1, f, f), rel=1e-12)


class TestEquivalenceInterval:
    def test_gramian_interval_collapses_to_one(self):
        rng = np.random.default_rng(21)
        ts = random_truth(rng, 14)
        sub = Subspace(ts, rng.standard_normal((14, 6)))
        dp = DualProduct(aux=sub, stiffness=make_stiffness(sub, "gramian"))
        lo, hi = dual_equivalence_interval(dp)
        assert lo == pytest.approx(1.0, rel=1e-11)
        assert hi == pytest.approx(1.0, rel=1e-11)
        verify_dual_equivalence(dp)

    def test_scaled_interval_is_half(self):
        rng = np.random.default_rng(22)
        ts = random_truth(rng, 14)
        sub = Subspace(ts, rng.standard_normal((14, 5)))
        dp = DualProduct(aux=sub, stiffness=make_stiffness(sub, "scaled:2"))
        lo, hi = dual_equivalence_interval(dp)
        assert lo == pytest.approx(0.5, rel=1e-11)
        assert hi == pytest.approx(0.5, rel=1e-11)
        verify_dual_equivalence(dp)

    def test_lumped_interval_matches_bounds_exactly(self):
        # the interval ends ARE [1/K, 1/kappa] for any SPD S
        _, sub = mass_pair()
        dp = DualProduct(aux=sub, stiffness=make_stiffness(sub, "lumped"))
        lo, hi = dual_equivalence_interval(dp)
        assert lo == pytest.approx(1.0 / dp.stiffness.K_star, rel=1e-10)
        assert hi == pytest.approx(1.0 / dp.stiffness.kappa_star, rel=1e-10)
        verify_dual_equivalence(dp)

    def test_rayleigh_sweep_inside_interval(self):
        # c(f,f) / ||P*f||^2 stays within the verified interval
        rng = np.random.default_rng(23)
        ts, sub = mass_pair(32, 8)
        dp = DualProduct(aux=sub, stiffness=make_stiffness(sub, "lumped"))
        lo, hi = verify_dual_equivalence(dp)
        e = sub.embedding
        for _ in range(100):
            f = Functional(rng.standard_normal(ts.dim))
            w = e.T @ f.action
            if np.abs(w).max() < 1e-12:
                continue
            cval = c_apply(dp, f, f)
            # squared dual norm of the W-restriction: w^T G_W^-1 w
            pnorm = float(w @ spd_solve(sub.fact, w))
            assert lo - 1e-10 <= cval / pnorm <= hi + 1e-10

    def test_stiffness_dual_norm_equals_k_star(self):
        _, sub = mass_pair()
        for choice in ("gramian", "scaled:3", "lumped"):
            dp = DualProduct(aux=sub, stiffness=make_stiffness(sub, choice))
            assert stiffness_dual_norm(dp) == pytest.approx(dp.stiffness.K_star, rel=1e-9)
            verify_stiffness_bound(dp)

    def test_stiffness_dual_norm_at_extreme_scales(self):
        # S G_W⁻¹ S is ~1e∓600 here: it must be formed on a rescaled S
        _, sub = mass_pair()
        for scale in (1e-300, 1e300):
            dp = DualProduct(aux=sub, stiffness=make_stiffness(sub, f"scaled:{scale!r}"))
            assert stiffness_dual_norm(dp) == pytest.approx(dp.stiffness.K_star, rel=1e-9, abs=0.0)


class TestPressureDeflation:
    def test_full_rank_returns_identity(self):
        rng = np.random.default_rng(31)
        b = rng.standard_normal((10, 4))
        np.testing.assert_array_equal(pressure_deflation(b, np.eye(4)), np.eye(4))

    def test_removes_kernel_and_orthonormalizes(self):
        rng = np.random.default_rng(32)
        b0 = rng.standard_normal((12, 4))
        mix = np.hstack([b0, b0 @ rng.standard_normal((4, 2))])  # rank 4, 6 cols
        qg = np.eye(6) + 0.1 * np.ones((6, 6))
        z = pressure_deflation(mix, qg)
        assert z.shape == (6, 4)
        np.testing.assert_allclose(z.T @ qg @ z, np.eye(4), atol=1e-10)
        # deflated directions carry no kernel component: B z has full rank 4
        s = np.linalg.svd(mix @ z, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]

    def test_wide_constraint_keeps_every_kernel_vector(self):
        # fewer rows than columns: the kernel has at least cols - rows vectors,
        # which a thin SVD of B would not return
        rng = np.random.default_rng(33)
        b = rng.standard_normal((5, 8))
        qg = np.eye(8) + 0.1 * np.ones((8, 8))
        z = pressure_deflation(b, qg)
        kernel = scipy.linalg.null_space(b)
        assert z.shape == (8, 5) and kernel.shape == (8, 3)
        np.testing.assert_allclose(z.T @ qg @ z, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(z.T @ qg @ kernel, 0.0, atol=1e-10)

    def test_wide_model_constraint(self):
        # coarse = truth: 15 truth hats against 17 P1 pressures
        b = ConstraintForm(16, 16, "p1").to_dense()
        qg = pressure_mass(16, "p1")
        z = pressure_deflation(b, qg)
        kernel = scipy.linalg.null_space(b)
        assert z.shape[1] + kernel.shape[1] == 17
        np.testing.assert_allclose(z.T @ qg @ z, np.eye(z.shape[1]), atol=1e-10)
        np.testing.assert_allclose(z.T @ qg @ kernel, 0.0, atol=1e-10)

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegeneratePencil):
            pressure_deflation(np.zeros((5, 3)), np.eye(3))

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    @pytest.mark.parametrize(
        "truth, coarse",
        [(64, 8), (256, 2), (1024, 128), (16, 16), (8, 8)],
        ids=["tall", "tall-narrow", "tall-wide", "wide-16", "wide-8"],
    )
    def test_structured_constraint_deflates_as_its_matrix(self, kind, truth, coarse):
        # the structured B_T and its dense matrix, C- or F-ordered, give the
        # same bits; coarse = truth is wide, and takes the full SVD
        form = ConstraintForm(truth, coarse, kind)
        dense = form.to_dense()
        assert dense.shape == form.shape and dense.flags.f_contiguous
        wide = form.shape[0] < form.shape[1]
        assert wide == (coarse == truth)
        qg = pressure_mass(coarse, kind)
        ts = TruthSpace(p1_stiffness(truth))
        ref = deflate_pressures(form, qg, ts)
        for b in (np.ascontiguousarray(dense), dense):
            kept = b.copy()
            z = pressure_deflation(b, qg)
            np.testing.assert_array_equal(z, ref.basis)
            other = deflate_pressures(b, qg, ts)
            for name in ("basis", "b_eff", "q_eff"):
                np.testing.assert_array_equal(getattr(other, name), getattr(ref, name))
            # the caller's matrix is copied for the SVD, never written
            np.testing.assert_array_equal(b, kept)

    def test_structured_constraint_builds_a_new_matrix_per_read(self):
        form = ConstraintForm(32, 4, "p1")
        first, second = np.asarray(form), form.to_dense()
        assert first is not second and not np.shares_memory(first, second)
        assert first.flags.f_contiguous and first.dtype == float
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    @pytest.mark.parametrize(
        "truth, coarse",
        [(512, 256), (1024, 16), (1024, 32), (1024, 64), (1024, 128), (2048, 16), (65536, 128),
         (16, 16), (8, 8)],
        ids=lambda v: str(v),
    )
    def test_deflation_is_the_svd_oracle_bit_for_bit(self, kind, truth, coarse):
        # a tall B_T reaches s and Vᵀ through its R factor (Chan's R-SVD),
        # which dgesdd on all of B_T forms itself at these heights; a wide
        # one takes the full SVD
        # U's and W's rows are the oracle's rows of their hats times its Z
        form = ConstraintForm(truth, coarse, kind)
        qg = pressure_mass(coarse, kind)
        ts = BandedTruthSpace(p1_stiffness_band(truth))
        got = deflate_pressures(form, qg, ts)
        z, b_eff, q_eff = svd_deflation(form, qg)
        # ker B_T holds the constants, and a wide B_T has rank n
        rank = min(truth - 1, pressure_dim(coarse, kind) - 1)
        assert got.basis.shape[1] == z.shape[1] == rank
        for name, expected in (("basis", z), ("b_eff", b_eff), ("q_eff", q_eff)):
            assert np.array_equal(getattr(got, name), expected), name
        for elems in (coarse, min(2 * coarse, truth)):
            sub = Subspace(ts, P1Prolongation(truth, elems))
            assert np.array_equal(got.restrict(sub), hat_rows(truth, elems, coarse, kind) @ z), elems

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    @pytest.mark.parametrize(
        "truth, sub_elems", [(1024, 16), (1024, 256), (2048, 2048), (64, 2), (16, 16)], ids=str
    )
    def test_one_cell_slabs_give_the_default_bits(self, monkeypatch, kind, truth, sub_elems):
        # a subspace's rows, written in slabs of about algebra.SLAB entries
        # (one slab for the smallest meshes) or of one row each, are its
        # hats' rows of B_T times Z; a mesh coarser than the pressures'
        # (64, 2) applies Eᵀ to all of B_eff
        form = ConstraintForm(truth, 16, kind)
        ts = BandedTruthSpace(p1_stiffness_band(truth))
        sub = Subspace(ts, P1Prolongation(truth, sub_elems))
        pressures = deflate_pressures(form, pressure_mass(16, kind), ts)
        default = pressures.restrict(sub)
        assert (algebra.SLAB // form.shape[1] < sub_elems - 1) == (sub_elems > 256)
        monkeypatch.setattr(models, "SLAB", 1)
        one_row = pressures.restrict(sub)
        assert np.array_equal(one_row, default)
        z = pressures.basis
        if sub_elems >= 16:
            assert np.array_equal(one_row, hat_rows(truth, sub_elems, 16, kind) @ z)
        else:
            assert np.array_equal(one_row, sub.restrict(hat_constraint_matrix(truth, 16, kind) @ z))

    def test_rows_formed_once_per_subspace_while_it_lives(self):
        form, qg = ConstraintForm(256, 8, "p1"), pressure_mass(8, "p1")
        ts = BandedTruthSpace(p1_stiffness_band(256))
        pressures = deflate_pressures(form, qg, ts)
        sub = Subspace(ts, P1Prolongation(256, 16))
        rows = pressures.restrict(sub)
        assert np.array_equal(pressures.restrict(sub), rows)
        # another subspace of the same mesh gets its own rows, with equal bits
        twin = Subspace(ts, P1Prolongation(256, 16))
        assert pressures.restrict(twin) is not rows
        assert np.array_equal(pressures.restrict(twin), rows)
        # the record keeps neither subspace alive
        refs = weakref.ref(sub), weakref.ref(twin)
        del sub, twin
        assert [ref() for ref in refs] == [None, None]
        other = Subspace(BandedTruthSpace(p1_stiffness_band(128)), P1Prolongation(128, 16))
        with pytest.raises(DimensionMismatch):
            pressures.restrict(other)

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    def test_b_eff_peak_is_one_product(self, kind):
        # truth 16384, coarse 128: B_T Z is written from row slabs of B_T into
        # one array (1.04 units for P1, 1.02 for P0); B_T built whole beside
        # the product took 1.99
        form = ConstraintForm(16384, 128, kind)
        ts = BandedTruthSpace(p1_stiffness_band(16384))
        pressures = deflate_pressures(form, pressure_mass(128, kind), ts)
        unit = form.shape[0] * form.shape[1] * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            b_eff = pressures.b_eff
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(b_eff, form.to_dense() @ pressures.basis)
        assert peak <= 1.15 * unit, f"a read of b_eff peaked at {peak / unit:.2f} units"

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    def test_deflation_peak_is_one_constraint_matrix(self, kind):
        # truth 16384, coarse 128: B_T is one unit of about 16.9 MB.  The
        # deflation holds the copy it reduces in place (1.06 units); its
        # finiteness mask took it to 1.13, and dgesdd's U beside the copy to 2.05
        form = ConstraintForm(16384, 128, kind)
        qg = pressure_mass(128, kind)
        unit = form.shape[0] * form.shape[1] * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pressure_deflation(form, qg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * unit, f"the deflation peaked at {peak / unit:.2f} units"


class TestClosedFormDualGram:
    # a model level's B_Tᵀ G⁻¹ B_T is (1/n)(PᵀP − (Pᵀ1)(Pᵀ1)ᵀ/n) from the
    # pressure basis P at the truth-element midpoints, and G is not solved

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    @pytest.mark.parametrize("truth, coarse", [(8, 2), (64, 8), (256, 256), (1024, 128)])
    def test_matches_the_truth_solve(self, kind, truth, coarse):
        form = ConstraintForm(truth, coarse, kind)
        ts = BandedTruthSpace(p1_stiffness_band(truth))
        k = form.dual_gram(ts)
        b = form.to_dense()
        solved = b.T @ ts.solve(b)
        assert k.shape == (form.shape[1],) * 2
        np.testing.assert_allclose(k, solved, rtol=0.0, atol=1e-12 * np.abs(solved).max())
        assert np.array_equal(k, k.T)
        # the constant pressure is in ker B_T, exactly
        assert not (k @ np.ones(len(k))).any()

    def test_other_truth_spaces_get_none(self):
        form = ConstraintForm(32, 4, "p1")
        band = p1_stiffness_band(32)
        assert form.dual_gram(TruthSpace(p1_stiffness(32))) is None
        assert form.dual_gram(BandedTruthSpace(2.0 * band)) is None
        assert form.dual_gram(BandedTruthSpace(p1_stiffness_band(64)[:, :31])) is None
        assert form.dual_gram(BandedTruthSpace(band.copy())) is not None

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    def test_level_dual_gram_solves_no_truth(self, monkeypatch, kind):
        ts = BandedTruthSpace(p1_stiffness_band(256))
        form, qg = ConstraintForm(256, 16, kind), pressure_mass(16, kind)
        dense = deflate_pressures(form.to_dense(), qg, ts).dual_gram
        pressures = deflate_pressures(form, qg, ts)

        def no_solve(rhs):
            raise AssertionError("the closed-form dual Gram solves no truth system")

        monkeypatch.setattr(ts, "solve", no_solve)
        gram = pressures.dual_gram
        z = pressures.basis
        k = form.dual_gram(ts)
        product = z.T @ (k @ z)
        assert np.array_equal(gram, 0.5 * (product + product.T))
        np.testing.assert_allclose(gram, dense, rtol=0.0, atol=1e-13 * np.abs(dense).max())

    def test_dense_constraint_solves_the_truth(self, monkeypatch):
        ts = BandedTruthSpace(p1_stiffness_band(64))
        b, qg = ConstraintForm(64, 8, "p1").to_dense(), pressure_mass(8, "p1")
        pressures = deflate_pressures(b, qg, ts)
        solved = []
        original = ts.solve
        monkeypatch.setattr(ts, "solve", lambda rhs: solved.append(rhs) or original(rhs))
        pressures.dual_gram
        assert len(solved) == 1 and np.array_equal(solved[0], b @ pressures.basis)


def dual_norm_infsup(b, qg, sub):
    """alpha_hat at S = G_W: the inf-sup constant of (Q, sub) in the norm ‖B q‖₋₁."""
    return equivalence_report(DualProduct(sub, make_stiffness(sub, "gramian")), b, qg).alpha_hat


def model_setup(truth=64, coarse=8):
    """Well-posed (truth, W, B, G_Q) quadruple on nested mass spaces."""
    ts, w_sub = mass_pair(truth, coarse * 2)
    b = p1_interior_mass(truth) @ prolongation_p1(truth, coarse)  # full column rank
    b = b[:, : coarse - 1]
    qg = np.eye(coarse - 1) + 0.05 * np.ones((coarse - 1, coarse - 1))
    return ts, w_sub, b, qg


class TestConstants:
    def test_exactness_limit(self):
        # W = truth, S = G: c_star = alpha_hat = 1
        rng = np.random.default_rng(41)
        ts = random_truth(rng, 30)
        sub = Subspace(ts, np.eye(30))
        dp = DualProduct(aux=sub, stiffness=make_stiffness(sub, "gramian"))
        b = rng.standard_normal((30, 6))
        rep = equivalence_report(dp, b, np.eye(6))
        assert rep.c_star == pytest.approx(1.0, abs=1e-9)
        assert rep.alpha_hat == pytest.approx(1.0, abs=1e-9)
        assert rep.C_star == pytest.approx(1.0, abs=1e-12)

    def test_chain_link_and_equality_at_gramian(self):
        ts, w_sub, b, qg = model_setup()
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "gramian"))
        rep = verify_cstar_infsup_link(dp, b, qg)
        # with S = G_W the chain holds with equality: c_star = alpha_hat^2
        assert rep.c_star == pytest.approx(rep.alpha_hat**2, rel=1e-9)

    def test_chain_with_lumped_s(self):
        ts, w_sub, b, qg = model_setup()
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "lumped"))
        rep = verify_cstar_infsup_link(dp, b, qg)
        assert rep.alpha_hat >= np.sqrt(rep.c_star * rep.kappa_star) - 1e-8
        assert rep.c_star >= rep.alpha_hat**2 / rep.K_star - 1e-8

    def test_sandwich_holds(self):
        ts, w_sub, b, qg = model_setup()
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "gramian"))
        rep = verify_infsup_sandwich(dp, b, qg, rng=np.random.default_rng(0))
        assert rep.beta_hat / rep.norm_B <= rep.alpha_hat * (1 + 1e-9)
        assert rep.alpha_hat <= rep.beta_hat / rep.beta * (1 + 1e-9)

    def test_beta_normb_bracket_random_pressures(self):
        rng = np.random.default_rng(45)
        ts, w_sub, b, qg = model_setup()
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "gramian"))
        rep = equivalence_report(dp, b, qg)
        z = pressure_deflation(b, qg)
        for _ in range(100):
            y = rng.standard_normal(z.shape[1])
            q_norm = np.sqrt(y @ (z.T @ qg @ z) @ y)
            b_norm = dual_norm(ts, Functional(b @ (z @ y)))
            assert rep.beta * q_norm <= b_norm * (1 + 1e-9)
            assert b_norm <= rep.norm_B * q_norm * (1 + 1e-9)

    def test_truth_constants_are_the_report_beta_and_norm_b(self):
        # infsup prints the record's beta without building the report: one
        # pencil, the same numbers
        ts, w_sub, b, qg = model_setup()
        pressures = deflate_pressures(b, qg, ts)
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "lumped"))
        rep = equivalence_report(dp, b, qg)
        assert pressures.beta == rep.beta > 0.0 and pressures.norm_B == rep.norm_B

    def test_w_only_constants_never_exceed_truth(self):
        # restricting the sup space can only lower an inf-sup constant
        ts, w_sub, b, qg = model_setup()
        full = Subspace(ts, np.eye(ts.dim))
        assert infsup_qw(b, qg, w_sub) <= infsup_qw(b, qg, full) * (1 + 1e-10)
        assert dual_norm_infsup(b, qg, w_sub) <= dual_norm_infsup(b, qg, full) * (1 + 1e-10)
        # on the full space the dual-norm constant is exactly 1
        assert dual_norm_infsup(b, qg, full) == pytest.approx(1.0, rel=1e-10)

    def test_c_star_zero_when_w_misses_constraint_range(self):
        # B maps into the orthogonal complement of span(W): c_star must vanish
        ts = TruthSpace(np.eye(8))
        w_sub = Subspace(ts, np.eye(8)[:, :4])
        b = np.eye(8)[:, 4:6]  # functionals supported off W entirely
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "gramian"))
        assert estimate_c_star(dp, b, np.eye(2)) == pytest.approx(0.0, abs=1e-12)
        assert infsup_qw(b, np.eye(2), w_sub) == pytest.approx(0.0, abs=1e-12)

    def test_infsup_roundoff_is_zero(self):
        # the second pressure reaches W only through a 1e-9 perturbation: its
        # squared sup is 1e-18 of the first one's, which is zero, not roundoff
        eye = np.eye(8)
        ts = TruthSpace(eye)
        w_sub = Subspace(ts, eye[:, :4])
        b = np.column_stack([eye[:, 0], eye[:, 5] + 1e-9 * eye[:, 1]])
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "gramian"))
        rep = equivalence_report(dp, b, np.eye(2))
        assert rep.alpha_hat == rep.beta_hat == 0.0
        assert infsup_qw(b, np.eye(2), w_sub) == dual_norm_infsup(b, np.eye(2), w_sub) == 0.0
        assert rep.beta > 0.0

    def test_continuity_of_c_against_dual_norms(self):
        # |c(f, g)| <= C_star ||f|| ||g|| with C_star = 1/kappa_star
        rng = np.random.default_rng(47)
        ts, w_sub, b, qg = model_setup()
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "lumped"))
        cs = 1.0 / dp.stiffness.kappa_star
        for _ in range(60):
            f = Functional(rng.standard_normal(ts.dim))
            g = Functional(rng.standard_normal(ts.dim))
            bound = cs * dual_norm(ts, f) * dual_norm(ts, g)
            assert abs(c_apply(dp, f, g)) <= bound * (1 + 1e-9)


class TestVerifyFailurePaths:
    def test_mismatched_constraint_rows_rejected(self):
        ts, w_sub, _, _ = model_setup()
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "gramian"))
        with pytest.raises(Exception, match="constraint matrix"):
            verify_cstar_infsup_link(dp, np.ones((5, 2)), np.eye(2))

    @staticmethod
    def euclidean_product(n=4):
        ts = TruthSpace(np.eye(n))
        sub = Subspace(ts, np.eye(n))
        return DualProduct(aux=sub, stiffness=make_stiffness(sub, "gramian"))

    def test_singular_deflated_gramian(self):
        # ker B_T is e1, whose complement span(e2, e3) holds e3, on which
        # G_Q = diag(1, 1, 0) vanishes: the deflated pressure Gramian is singular
        b = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(DegeneratePencil, match="deflated pressure Gramian"):
            pressure_deflation(b, np.diag([1.0, 1.0, 0.0]))

    def test_singular_dual_gramian(self):
        # singular values 1 and 1e-9 keep full rank under KERNEL_RTOL, but the
        # dual Gram diag(1, 1e-18) fails the pivot screen
        b = np.zeros((4, 2))
        b[0, 0], b[1, 1] = 1.0, 1e-9
        with pytest.raises(DegeneratePencil, match="dual-norm Gramian"):
            equivalence_report(self.euclidean_product(), b, np.eye(2))

    def test_sandwich_of_a_vanishing_beta(self):
        # two nearly parallel columns: the dual Gram's eigenvalue ratio is
        # eps²/4 ≤ KERNEL_RTOL, so beta is floored to 0, while its squared
        # pivot ratio eps²/(1 + eps²) passes the Cholesky screen
        eps = 1.5e-6
        b = np.zeros((4, 2))
        b[0], b[1, 1] = 1.0, eps
        assert deflate_pressures(b, np.eye(2), TruthSpace(np.eye(4))).beta == 0.0
        rng = np.random.default_rng(0)
        with pytest.raises(DegeneratePencil, match="truth inf-sup constant vanishes"):
            verify_infsup_sandwich(self.euclidean_product(), b, np.eye(2), rng)

    @pytest.mark.parametrize(
        "call",
        [
            lambda dp: stiffness_from_matrix(dp.aux, np.eye(dp.aux.dim + 1)),
            lambda dp: c_apply(dp, Functional(np.ones(3)), Functional(np.ones(4))),
        ],
        ids=["stiffness-dim", "c-apply-functional"],
    )
    def test_input_checks(self, call):
        with pytest.raises(DimensionMismatch):
            call(self.euclidean_product())


_DRAWS_CHILD = """
import sys
from dualstab.dualprod import SweepSampler
seed, level = (int(a) for a in sys.argv[1:])
print(SweepSampler(seed, level).standard_normal((100, 17)).tobytes().hex())
"""


def ill_conditioned_instance(seed, n=37, m_u=15, m_w=29, m_q=20):
    """(truth, W, B_T) with W = [E_U R, Y]: R has singular values 1 to 10^-4.5,
    so W's basis is nearly dependent and cond(G_W) is about 1e10."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    truth = TruthSpace(x @ x.T + n * np.eye(n))
    e_u = rng.standard_normal((n, m_u))
    left, _ = np.linalg.qr(rng.standard_normal((m_u, m_u)))
    right, _ = np.linalg.qr(rng.standard_normal((m_u, m_u)))
    r = (left * np.logspace(0, -4.5, m_u)) @ right.T
    w = Subspace(truth, np.hstack([e_u @ r, rng.standard_normal((n, m_w - m_u))]))
    return truth, w, rng.standard_normal((n, m_q))


class TestIllConditionedW:
    # B_Wᵀ G_W⁻¹ B_W and B_Wᵀ S⁻¹ B_W are symmetric only to roundoff, which
    # grows with cond(G_W): unsymmetrized, seed 339's products failed the
    # pencils' symmetry check, a ValueError (the config-error class)
    @pytest.mark.parametrize("explicit_s", [False, True], ids=["gramian", "explicit"])
    def test_formed_products_reach_the_pencils_symmetric(self, monkeypatch, explicit_s):
        truth, w, b = ill_conditioned_instance(339)
        assert 5e9 < np.linalg.cond(w.gram_sub) < 5e10
        s = w.gram_sub + np.diag(np.diag(w.gram_sub))
        stiffness = stiffness_from_matrix(w, s) if explicit_s else make_stiffness(w, "gramian")
        dp = DualProduct(aux=w, stiffness=stiffness)
        pressures = deflate_pressures(b, np.eye(b.shape[1]), truth)
        symmetric = []
        original = dualprod.sym_generalized_eigvals

        def recorded(a, b_fact):
            symmetric.append(np.array_equal(a, a.T))
            return original(a, b_fact)

        monkeypatch.setattr(dualprod, "sym_generalized_eigvals", recorded)
        rep = dualprod.measure_equivalence(dp, pressures)
        beta_hat = dualprod.pressure_infsup(pressures, w)
        # the truth pencil, c_star's, alpha_hat's, beta_hat's, and beta_hat's again
        assert symmetric == [True] * 5
        assert beta_hat == rep.beta_hat > 0.0
        assert all(np.isfinite(v) and v >= 0.0 for v in vars(rep).values())


class TestSweepSampler:
    def test_equal_keys_draw_the_same_bits_in_two_processes(self):
        src = str(Path(dualprod.__file__).resolve().parents[1])
        runs = [
            subprocess.run(
                [sys.executable, "-c", _DRAWS_CHILD, "5", "2"],
                env=dict(os.environ, PYTHONPATH=src),
                capture_output=True,
                text=True,
                timeout=60,
            )
            for _ in range(2)
        ]
        assert all(r.returncode == 0 for r in runs), runs[0].stderr[-2000:]
        assert runs[0].stdout == runs[1].stdout
        here = SweepSampler(5, 2).standard_normal((100, 17))
        assert runs[0].stdout.strip() == here.tobytes().hex()

    def test_another_seed_or_level_draws_otherwise(self):
        keys = ((0, 0), (1, 0), (0, 1), (1, 1))
        draws = [SweepSampler(seed, level).standard_normal(50) for seed, level in keys]
        for i, a in enumerate(draws):
            for b in draws[i + 1 :]:
                assert not np.any(a == b)

    def test_draws_are_standard_normal(self):
        draws = SweepSampler(0, 0).standard_normal(10**5)
        assert draws.shape == (10**5,) and np.isfinite(draws).all()
        assert abs(draws.mean()) <= 0.02
        assert 0.97 <= draws.var() <= 1.03

    @pytest.mark.parametrize("shape", [(100, 17), (3, 1), 7, (1,)])
    def test_shapes_and_no_floating_point_exception(self, shape):
        with np.errstate(all="raise"):
            draws = SweepSampler(3, 4).standard_normal(shape)
        assert draws.shape == np.empty(shape).shape and draws.dtype == float
        # a shape only arranges the draws of its size, in row-major order
        flat = SweepSampler(3, 4).standard_normal(draws.size)
        assert np.array_equal(draws.ravel(), flat)


class TestCheckTable:
    def test_rows_in_order_and_passing(self):
        ts, w_sub, b, qg = model_setup()
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "lumped"))
        rep, rows = spectral_checks(dp, deflate_pressures(b, qg, ts), np.random.default_rng(3))
        assert [r.check for r in rows] == [
            "equivalence_low",
            "equivalence_high",
            "stiffness_bound",
            "chain_alpha_hat",
            "chain_c_star",
            "sandwich",
            "pairing_min",
            "pairing_max",
        ]
        assert {r.status for r in rows} == {"pass"}
        assert rep == equivalence_report(dp, b, qg)

    def test_wrong_kappa_star_fails_the_same_row_that_verify_raises(self):
        # claiming S ≥ 1.5 κ G_W shrinks 1/kappa_star below the true top ratio
        ts, w_sub, b, qg = model_setup()
        st = make_stiffness(w_sub, "lumped")
        claimed = replace(st, kappa_star=1.5 * st.kappa_star)
        dp = DualProduct(aux=w_sub, stiffness=claimed)
        with pytest.raises(BoundViolated) as exc:
            verify_dual_equivalence(dp)
        _, rows = spectral_checks(dp, deflate_pressures(b, qg, ts), np.random.default_rng(0))
        low, high = rows[:2]
        assert low.status == "pass" and high.status == "fail"
        bounds = f"{high.lower:.6e}, {high.upper:.6e}"
        assert str(exc.value) == f"equivalence_high {high.value:.6e} outside [{bounds}]"
        assert high.upper == 1.0 / dp.stiffness.kappa_star

    def test_sandwich_sweep_matches_dual_norms(self):
        # the pairing rows are extremes of ‖B q‖₋₁ / ⦀q⦀ over the seeded draws
        ts, w_sub, b, qg = model_setup()
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "gramian"))
        _, rows = spectral_checks(dp, deflate_pressures(b, qg, ts), np.random.default_rng(5))
        z = pressure_deflation(b, qg)
        rng = np.random.default_rng(5)
        ratios = []
        for _ in range(SWEEP_SAMPLES):
            y = rng.standard_normal(z.shape[1])
            ratios.append(dual_norm(ts, Functional(b @ (z @ y))) / np.sqrt(y @ (z.T @ qg @ z) @ y))
        assert rows[6].value == pytest.approx(min(ratios), rel=1e-12)
        assert rows[7].value == pytest.approx(max(ratios), rel=1e-12)

    def test_check_status_tolerance(self):
        assert Check("x", 1.0 - 1e-10, 1.0, None, 1e-9).status == "pass"
        assert Check("x", 1.0 - 1e-8, 1.0, None, 1e-9).status == "fail"
        assert Check("x", 2.0, None, 2.0 - 1e-10, 1e-9).status == "pass"
        assert Check("x", float("nan"), 0.0, 1.0, 1e-9).status == "fail"

    def test_c_star_roundoff_is_zero(self):
        # B lies in span(W)'s complement up to roundoff: c_star is 0, not 1e-17
        ts = TruthSpace(np.eye(8))
        w_sub = Subspace(ts, np.eye(8)[:, :4])
        b = np.eye(8)[:, 4:6] + 1e-9 * np.eye(8)[:, :2]
        dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, "gramian"))
        assert estimate_c_star(dp, b, np.eye(2)) == 0.0
