import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg.lapack import dpttrf

from dualstab import algebra, dualprod, hilbert, models, saddle
from dualstab.hilbert import Functional, TruthSpace
from dualstab.dualprod import DualProduct, equivalence_report, make_stiffness
from dualstab.models import (
    ConstraintForm,
    ManufacturedSolution,
    ModelConfig,
    NestingViolated,
    TruthRecord,
    constraint_rhs,
    default_solution,
    exact_coefficients,
    load_vector,
    p1_interior_mass,
    pressure_mass,
    prolongation_p1,
)
from dualstab.saddle import SingularSystem, project_pressure, solve, assemble_stabilized
from oracles import (
    a_form_apply,
    dense_truth_extremes,
    hat_constraint_matrix,
    hat_prolongation,
    p1_stiffness,
)


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

    @pytest.mark.parametrize("reaction", [-1.0, np.nan, np.inf])
    def test_reaction_must_be_finite_and_nonnegative(self, reaction):
        with pytest.raises(ValueError, match="reaction coefficient"):
            ModelConfig(reaction=reaction)

    def test_truth_band_numpy_cannot_size_rejected(self):
        # the truth band holds 2 (truth_elems − 1) floats: numpy sizes it up to 2^59
        ModelConfig(truth_elems=2**59, coarse_elems=2)
        for n in (2**60, 2**62):
            with pytest.raises(ValueError, match=f"truth_elems = {n}"):
                ModelConfig(truth_elems=n, coarse_elems=2)

    @pytest.mark.parametrize("choice", ["bogus", "scaled:x", "scaled:inf", "scaled:-1"])
    def test_stiffness_choice_validated_up_front(self, choice):
        # through the parser make_stiffness uses, not first in build_spaces
        with pytest.raises(ValueError, match="stiffness"):
            ModelConfig(s_choice=choice)

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
        # exactly, so a W on the whole truth mesh needs no identity basis of its own
        for n in (2**k for k in range(1, 12)):
            np.testing.assert_array_equal(prolongation_p1(n, n), np.eye(n - 1))

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

    @pytest.mark.parametrize("nt, nc", [(4, 2), (64, 8), (64, 64), (1024, 128), (256, 16)])
    def test_dense_form_is_the_hat_oracle(self, nt, nc):
        # hat values k/r on power-of-two meshes are exact in both formulas
        np.testing.assert_array_equal(prolongation_p1(nt, nc), hat_prolongation(nt, nc))


def dense_forms(n):
    """The dense matrices of each form on n elements: A's Gram is G's plus 2.5 times M's."""
    g, m = p1_stiffness(n), p1_interior_mass(n)
    return {"stiffness": (g,), "mass": (m,), "a-form": (g, m)}


def close_to(actual, oracle, rtol=1e-14):
    """Entrywise agreement to rtol times the largest entry of the oracle."""
    np.testing.assert_allclose(actual, oracle, rtol=0.0, atol=rtol * np.abs(oracle).max())


class TestP1Prolongation:
    # (truth, U, W): same-mesh pairs, r = 1, a large ratio, and a cross pair
    PAIRS = [(4, 2, 2), (64, 8, 8), (64, 64, 64), (1024, 128, 128), (256, 16, 32)]

    @pytest.mark.parametrize("nt, nu, nw", PAIRS)
    def test_products_match_the_oracle(self, nt, nu, nw):
        rng = np.random.default_rng(nt + nu + nw)
        for nc in (nu, nw):
            op, e = models.P1Prolongation(nt, nc), hat_prolongation(nt, nc)
            assert op.shape == e.shape
            c, cs = rng.standard_normal(nc - 1), rng.standard_normal((nc - 1, 3))
            y, ys = rng.standard_normal(nt - 1), rng.standard_normal((nt - 1, 5))
            close_to(op.apply(c), e @ c)
            close_to(op.apply(cs), e @ cs)
            close_to(op.apply_t(y), e.T @ y)
            close_to(op.apply_t(ys), e.T @ ys)
            assert op.apply(c).shape == (nt - 1,) and op.apply_t(ys).shape == (nc - 1, 5)

    @pytest.mark.parametrize("nt, nu, nw", PAIRS)
    @pytest.mark.parametrize("form", ["stiffness", "mass", "a-form"])
    def test_pair_gram_matches_the_oracle(self, nt, nu, nw, form):
        # the a-form's Gram is the truth record's, G's Gram plus 2.5 times M's
        record = models.truth_record(ModelConfig(truth_elems=nt, coarse_elems=2, reaction=2.5))
        gram = {
            "stiffness": record.space.gram,
            "mass": record.mass.gram,
            "a-form": record.gram,
        }[form]
        eu, ew = hat_prolongation(nt, nu), hat_prolongation(nt, nw)
        u, w = models.P1Prolongation(nt, nu), models.P1Prolongation(nt, nw)
        for (a, ea), (b, eb) in (((w, ew), (u, eu)), ((u, eu), (w, ew)), ((u, eu), (u, eu))):
            parts = [ea.T @ m @ eb for m in dense_forms(nt)[form]]
            oracle = parts[0] if len(parts) == 1 else parts[0] + 2.5 * parts[1]
            close_to(gram(a, b), oracle)

    def test_gram_of_a_wider_band(self):
        # a symmetric pentadiagonal M: every diagonal of the band is summed
        rng = np.random.default_rng(5)
        band = rng.standard_normal((3, 127))
        u, w = models.P1Prolongation(128, 8), models.P1Prolongation(128, 32)
        oracle = hat_prolongation(128, 32).T @ algebra.band_to_dense(band) @ hat_prolongation(128, 8)
        close_to(w.band_gram(band, u), oracle)

    def test_stiffness_gram_is_the_coarse_stiffness_exactly(self):
        # dyadic hat values times the integer stiffness: every sum is exact
        band = models.p1_stiffness_band(1024)
        for nc in (16, 128, 1024):
            op = models.P1Prolongation(1024, nc)
            np.testing.assert_array_equal(op.band_gram(band, op), p1_stiffness(nc))
        # the record keeps A = G + 2.5 M split, so its Gram is the coarse a-form
        # to rounding (2.2e-16) at truth 65536, where the Gram of one band
        # G + 2.5 M misses it by 5.5e-8 (U on 16 elements) and 1.2e-8 (W on 32)
        n = 65536
        record = models.truth_record(ModelConfig(truth_elems=n, coarse_elems=2, reaction=2.5))
        for m in (16, 128):
            u, w = models.P1Prolongation(n, m), models.P1Prolongation(n, 2 * m)
            a_u, a_w = (
                algebra.band_to_dense(
                    models.p1_stiffness_band(k) + 2.5 * models.p1_interior_mass_band(k)
                )
                for k in (m, 2 * m)
            )
            pairs = ((record.gram(u), a_u), (record.gram(w, u), a_w @ prolongation_p1(2 * m, m)))
            for gram, oracle in pairs:
                assert np.abs(gram - oracle).max() <= 1e-15 * np.abs(oracle).max()

    def test_mixed_with_a_dense_embedding(self):
        # a structured and a dense embedding meet through the dense one's product
        rng = np.random.default_rng(6)
        band = models.p1_stiffness_band(64) + 2.5 * models.p1_interior_mass_band(64)
        op, dense = models.P1Prolongation(64, 8), hilbert.DenseEmbedding(rng.standard_normal((63, 4)))
        oracle = hat_prolongation(64, 8).T @ algebra.band_to_dense(band) @ dense.matrix
        close_to(op.band_gram(band, dense), oracle)
        close_to(dense.band_gram(band, op), oracle.T)

    @pytest.mark.parametrize("truth", ["banded", "dense"])
    def test_subspace_reads_match_the_dense_embedding(self, truth):
        band = models.p1_stiffness_band(128)
        ts = (
            hilbert.BandedTruthSpace(band)
            if truth == "banded"
            else TruthSpace(algebra.band_to_dense(band))
        )
        structured = hilbert.Subspace(ts, models.P1Prolongation(128, 16))
        dense = hilbert.Subspace(ts, hat_prolongation(128, 16))
        close_to(structured.gram_sub, dense.gram_sub)
        np.testing.assert_array_equal(structured.embedding, dense.embedding)
        x = np.random.default_rng(7).standard_normal(127)
        f = hilbert.Functional(x)
        close_to(hilbert.orthogonal_project(structured, x), hilbert.orthogonal_project(dense, x), 1e-12)
        close_to(hilbert.dual_basis(structured).reps, hilbert.dual_basis(dense).reps, 1e-12)
        close_to(
            hilbert.adjoint_project(structured, f).action,
            hilbert.adjoint_project(dense, f).action,
            1e-12,
        )

    def test_build_spaces_memory_stays_level_sized(self):
        # truth 65536, coarse 128: the dense prolongations and G E of U and W
        # peaked at 468 MB; the structured spaces hold O(n) arrays and m × m Grams
        cfg = ModelConfig(truth_elems=65536, coarse_elems=128)
        pb = models.build_truth(cfg)
        pb.pressures  # the deflation is the problem's, not the spaces'
        tracemalloc.start()
        try:
            models.build_spaces(cfg, pb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"build_spaces peaked at {peak / 1e6:.1f} MB"


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
            np.testing.assert_allclose(ConstraintForm(nt, nc, "p1").to_dense(), ref, atol=1e-12)

    def test_p0_matches_quadrature(self):
        for nt, nc in ((16, 4), (64, 16)):
            ref = self.quadrature_reference(nt, nc, "p0")
            np.testing.assert_allclose(ConstraintForm(nt, nc, "p0").to_dense(), ref, atol=1e-12)

    def test_p0_same_mesh_pm_one(self):
        # b(indicator_e, phi_i) = +-1 on the two adjacent elements
        b = ConstraintForm(8, 8, "p0").to_dense()
        for i in range(7):
            row = b[i]
            assert row[i] == 1.0 and row[i + 1] == -1.0
            assert np.count_nonzero(row) == 2

    def test_constant_pressure_in_kernel(self):
        for kind in ("p1", "p0"):
            b = ConstraintForm(64, 8, kind).to_dense()
            np.testing.assert_allclose(b @ np.ones(b.shape[1]), 0.0, atol=1e-13)

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    def test_bit_identical_to_the_hat_tables(self, kind):
        # converge's best_p sits at roundoff and depends only on B_T and G_Q, so
        # every entry and the sign of every zero must match, on every nested pair
        for nt in (2**k for k in range(1, 13)):
            for nc in (2**j for j in range(1, nt.bit_length())):
                b = ConstraintForm(nt, nc, kind).to_dense()
                oracle = hat_constraint_matrix(nt, nc, kind)
                assert np.array_equal(b, oracle), (nt, nc)
                assert np.array_equal(np.signbit(b), np.signbit(oracle)), (nt, nc)
                del b, oracle  # the largest pair's tables are 134 MB each

    # (truth, coarse, sub): each mesh pair of the rows tests of
    # tests/test_dualprod.py up to truth 2048, with the pressures nested in sub
    RESTRICTED = [
        (8, 8, 8), (16, 16, 16), (512, 256, 256), (512, 256, 512), (1024, 16, 16),
        (1024, 16, 32), (1024, 16, 256), (1024, 32, 64), (1024, 64, 128), (1024, 128, 256),
        (2048, 16, 16), (2048, 16, 32), (2048, 16, 2048),
    ]

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    def test_restricted_is_the_hat_product_bit_for_bit(self, kind):
        # a hat of S has slope ±m_S on S's cells, so E_Sᵀ B_T is B_T of S's mesh
        for truth, coarse, sub in self.RESTRICTED:
            op = models.P1Prolongation(truth, sub)
            form = ConstraintForm(truth, coarse, kind).restricted(op)
            assert (form.truth_elems, form.coarse_elems, form.kind) == (sub, coarse, kind)
            oracle = hat_prolongation(truth, sub).T @ hat_constraint_matrix(truth, coarse, kind)
            assert np.array_equal(form.to_dense(), oracle), (truth, coarse, sub)
            assert np.array_equal(np.signbit(form.to_dense()), np.signbit(oracle)), (truth, coarse, sub)

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    def test_restricted_is_none_off_the_nested_meshes(self, kind):
        form = ConstraintForm(64, 16, kind)
        # a mesh coarser than the pressures', a dense embedding, another truth mesh
        assert form.restricted(models.P1Prolongation(64, 2)) is None
        assert form.restricted(hilbert.DenseEmbedding(hat_prolongation(64, 16))) is None
        assert form.restricted(models.P1Prolongation(128, 16)) is None
        assert form.restricted(models.P1Prolongation(64, 16)) is not None

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_times_in_slabs_is_the_whole_product_bit_for_bit(self, monkeypatch, kind, rows):
        # B_T Z in row slabs of one row, of seven with a short last one, and
        # of about algebra.SLAB entries (None) has the bits of the whole product
        form = ConstraintForm(1024, 32, kind)
        if rows is not None:
            monkeypatch.setattr(models, "SLAB", rows * form.shape[1])
        z = np.random.default_rng(3).standard_normal((form.shape[1], 20))
        got = form.times(z)
        assert got.shape == (1023, 20) and got.flags.c_contiguous
        assert np.array_equal(got, hat_constraint_matrix(1024, 32, kind) @ z)

    def test_memory_stays_at_the_result(self):
        # truth 65536, coarse 128: the dense hat table and its shifted difference
        # peaked at 2.0 times B_T; the midpoints' basis pairs take O(n)
        tracemalloc.start()
        try:
            b = ConstraintForm(65536, 128, "p1").to_dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * b.nbytes, f"peak {peak / b.nbytes:.2f} times B_T's {b.nbytes} bytes"


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

    @staticmethod
    def check_constraint_rhs(nt, nc):
        # oracle: every coarse basis function evaluated at every point of a
        # higher-order rule
        sol = default_solution()
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

    def test_constraint_rhs_matches_quadrature(self):
        self.check_constraint_rhs(32, 8)

    @pytest.mark.parametrize("nt, nc", [(64, 64), (2048, 128), (16384, 4)])
    def test_constraint_rhs_matches_quadrature_on_more_meshes(self, nt, nc):
        self.check_constraint_rhs(nt, nc)

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    def test_constraint_rhs_in_slabs_is_one_bincount_bit_for_bit(self, monkeypatch, kind):
        # truth 4096 has 20480 Gauss points, three slabs of algebra.SLAB; in
        # slabs of one element each, the same terms are summed in the same order
        sol = default_solution()
        pts, wts = models._gauss_on_elements(4096)
        vals = (sol.du(pts) * wts).ravel()
        index, value = models.coarse_basis(pts.ravel(), 16, kind)
        size = models.pressure_dim(16, kind)
        pairs = zip(index.T, value.T)
        whole = sum(np.bincount(nodes, vals * weights, size) for nodes, weights in pairs)
        assert 2 * algebra.SLAB < vals.size
        assert np.array_equal(constraint_rhs(4096, 16, kind, sol), whole)
        monkeypatch.setattr(models, "SLAB", 1)
        assert np.array_equal(constraint_rhs(4096, 16, kind, sol), whole)

    @pytest.mark.parametrize("kind", ["p1", "p0"])
    def test_constraint_rhs_peak_is_slab_sized(self, kind):
        # truth 2^18, coarse 16: all 5n Gauss points at once traced 73.5 MB
        # (P1) and 52.4 MB (P0) for a 17- or 16-entry result; slabs of
        # algebra.SLAB points trace 0.79 and 0.48 MB
        sol = default_solution()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            constraint_rhs(2**18, 16, kind, sol)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.6e6, f"constraint_rhs peaked at {peak / 1e6:.2f} MB"

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

    def test_gauss_rule_is_leggauss_bit_for_bit(self):
        gx, gw = np.polynomial.legendre.leggauss(5)
        assert np.array(models.GAUSS_NODES).tobytes() == gx.tobytes()
        assert np.array(models.GAUSS_WEIGHTS).tobytes() == gw.tobytes()

    def test_command_does_not_import_numpy_polynomial(self, tmp_path):
        # in a child, where no test has imported numpy.polynomial yet
        cfg = tmp_path / "run.cfg"
        cfg.write_text("truth_elems = 64\ncoarse_elems = 8\n")
        code = (
            "import sys; from dualstab.cli import main\n"
            "assert main(['constants', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(*sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
        )
        src = str(Path(models.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code, str(cfg), str(tmp_path / "report.csv")],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == []

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
        eye = np.eye(31)
        np.testing.assert_array_equal(a_form_apply(pb.record, eye), p1_stiffness(32))
        np.testing.assert_array_equal(pb.truth.apply(eye), p1_stiffness(32))

    def test_level_on_truth_record_matches_build_truth(self):
        cfg = ModelConfig(truth_elems=32, coarse_elems=8, reaction=2.0)
        truth = models.truth_record(cfg)
        pb, ref = models.build_level(cfg, truth), models.build_truth(cfg)
        assert pb.record is truth and pb.truth is truth.space
        assert pb.pressure_dim == ref.pressure_dim == 9
        np.testing.assert_array_equal(pb.constraint.to_dense(), ref.constraint.to_dense())
        for name in ("q_gram", "constraint_rhs"):
            np.testing.assert_array_equal(getattr(pb, name), getattr(ref, name))
        np.testing.assert_array_equal(pb.record.load.action, ref.record.load.action)
        eye = np.eye(31)
        np.testing.assert_array_equal(a_form_apply(pb.record, eye), a_form_apply(ref.record, eye))
        oracle = dense_truth_extremes(p1_stiffness(32), p1_stiffness(32) + 2.0 * p1_interior_mass(32))
        closed = closed_form_extremes(32, 2.0)
        assert (truth.alpha, truth.norm_A) == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert (truth.alpha, truth.norm_A) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_reaction_adds_mass(self):
        cfg = ModelConfig(truth_elems=32, coarse_elems=8, reaction=3.0)
        pb = models.build_truth(cfg)
        np.testing.assert_allclose(
            a_form_apply(pb.record, np.eye(31)), p1_stiffness(32) + 3.0 * p1_interior_mass(32), atol=1e-14
        )

    def test_embedding_identity_at_truth(self):
        cfg = ModelConfig(truth_elems=16, coarse_elems=16, w_kind="truth")
        pb = models.build_truth(cfg)
        d = models.build_spaces(cfg, pb)
        np.testing.assert_array_equal(d.U.embedding, np.eye(15))

    @pytest.mark.parametrize(
        "coarse, kind", [(8, "same"), (8, "refined:1"), (64, "truth")], ids=["same", "refined-1", "truth"]
    )
    def test_w_on_the_coarse_mesh_is_u(self, coarse, kind):
        # a W on U's own mesh is U's subspace, whatever the spelling
        cfg = ModelConfig(truth_elems=64, coarse_elems=coarse, w_kind=kind)
        d = models.build_spaces(cfg, models.build_truth(cfg))
        assert d.W is d.U

    def test_w_choices_change_dimension(self):
        cfg = ModelConfig(truth_elems=64, coarse_elems=8)
        pb = models.build_truth(cfg)
        dims = {}
        for kind in ("same", "refined:2", "truth"):
            d = models.build_spaces(replace(cfg, w_kind=kind), pb)
            dims[kind] = d.W.dim
        assert dims["same"] == 7 and dims["refined:2"] == 15 and dims["truth"] == 63

    def test_level_keeps_no_constraint_matrix(self):
        # truth 16384, coarse 128: B_T is 16383 × 129, one unit of 16.9 MB.
        # The level keeps 0.04 units and peaks at 1.08, the deflation's copy
        # of B_T; keeping B_eff took 1.03 and 2.03 units, with B_eff beside
        # a B_T read anew (2.07 when the SVD's U sat beside B_T's copy too),
        # and keeping B_T, with the SVD's copy of it, 2.03 and 3.07 units
        cfg = ModelConfig(truth_elems=16384, coarse_elems=128)
        truth = models.truth_record(cfg)
        unit = 16383 * 129 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pb = models.build_level(cfg, truth)
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert pb.pressures.b_eff.shape == (16383, 128)
        assert kept < 0.1 * unit, f"the level keeps {kept / unit:.2f} units"
        assert peak < 1.2 * unit, f"the level's build peaked at {peak / unit:.2f} units"

    def test_level_path_reads_b_t_whole_once_per_level(self, monkeypatch, tmp_path):
        # the deflation's copy of B_T is the only n × m_q array on the level
        # path: one pass per level reads all 4095 truth rows, for the SVD.
        # The constants read W's sup Gram in closed form and read no rows;
        # only converge's blocks read U's and W's, once each, on their own
        # meshes (U's is the pressures', W's refined:2), in slabs of at most
        # algebra.SLAB entries
        from dualstab.cli import main

        passes = []
        original = ConstraintForm.row_slabs

        def recorded(form, step):
            passes.append((form.truth_elems, form.coarse_elems, []))
            for slab in original(form, step):
                passes[-1][2].append(slab.shape)
                yield slab

        monkeypatch.setattr(ConstraintForm, "row_slabs", recorded)
        path = tmp_path / "levels.cfg"
        path.write_text("truth_elems = 4096\nlevels = 16, 32\n")
        for command, blocks in (("constants", 0), ("spectral", 0), ("infsup", 0), ("converge", 1)):
            passes.clear()
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
            expected = []
            for m in (16, 32):
                expected += [(4096, m, [(4095, m + 1)])] + [(m, m), (2 * m, m)] * blocks
            assert [p if p[0] == 4096 else p[:2] for p in passes] == expected, command
            own = [shape for mesh, _, shapes in passes if mesh != 4096 for shape in shapes]
            assert all(rows * cols <= algebra.SLAB for rows, cols in own), command

    def test_dual_gram_forms_no_constraint_sized_array(self):
        # beta and norm_B of a level read its dual Gram, formed in closed form
        # from the truth-length basis pairs: 0.16 units at truth 16384,
        # coarse 128, where the truth solve on B_eff took 1.02
        cfg = ModelConfig(truth_elems=16384, coarse_elems=128)
        pb = models.build_level(cfg, models.truth_record(cfg))
        unit = 16383 * 129 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pb.pressures.beta
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * unit, f"the dual Gram peaked at {peak / unit:.2f} units"


def no_solve(*args):
    raise AssertionError("a truth record factors and solves nothing")


class TestTruthRecord:
    # alpha and norm_A of the split A = G + r·M come from the closed-form
    # spectrum of the P1 pencil (M, G): no record solves an eigenproblem

    def test_extremes_match_closed_form_at_truth_2048(self):
        # the dense (A, G) route is 7.6e-11 off here in norm_A
        truth = models.truth_record(ModelConfig(truth_elems=2048, coarse_elems=2, reaction=2.5))
        closed = closed_form_extremes(2048, 2.5)
        assert truth.alpha == pytest.approx(closed[0], rel=1e-12, abs=0.0)
        assert truth.norm_A == pytest.approx(closed[1], rel=1e-12, abs=0.0)

    def test_reaction_zero_is_exactly_one_without_a_solve(self, monkeypatch):
        monkeypatch.setattr(saddle, "sym_generalized_eigvals", no_solve)
        truth = models.truth_record(ModelConfig(truth_elems=64, coarse_elems=8))
        assert truth.mass is None
        for value in (truth.alpha, truth.norm_A):
            assert type(value) is float and value == 1.0

    @pytest.mark.parametrize("reaction", [2.5, 1e300])
    def test_no_eigensolve_at_any_reaction(self, monkeypatch, reaction):
        for module in (algebra, dualprod, saddle):
            monkeypatch.setattr(module, "sym_generalized_eigvals", no_solve)
        for module in (algebra, saddle):
            monkeypatch.setattr(module, "cholesky", no_solve)
        monkeypatch.setattr(hilbert, "cholesky_band", no_solve)
        # above the dense limit: the record builds no n × n matrix either
        cfg = ModelConfig(truth_elems=16384, coarse_elems=8, reaction=reaction)
        truth = models.truth_record(cfg)
        assert truth.reaction == reaction and truth.mass.dim == 16383
        # Python floats: beta_gamma's product overflows to -inf, where a numpy
        # float would raise FloatingPointError under the CLI's errstate
        assert all(type(v) is float for v in (truth.alpha, truth.norm_A))
        assert 1.0 <= truth.alpha <= truth.norm_A < float("inf")
        assert "fact" not in vars(truth.space)

    def test_inertia_certifies_the_closed_form_at_truth_65536(self):
        # M − λG is positive definite exactly when λ < μ_min, and λG − M
        # exactly when λ > μ_max; LAPACK's dpttrf decides each in O(n).
        # At r = 1e10, (alpha − 1)/r reads μ back to about 1e-15
        n, r = 65536, 1e10
        truth = models.truth_record(ModelConfig(truth_elems=n, coarse_elems=2, reaction=r))
        mu_min, mu_max = (truth.alpha - 1.0) / r, (truth.norm_A - 1.0) / r
        g, m = models.p1_stiffness_band(n), models.p1_interior_mass_band(n)

        def definite(band):
            *_, info = dpttrf(band[1], band[0, 1:])
            return info == 0

        assert definite(m - mu_min * (1.0 - 1e-9) * g)
        assert not definite(m - mu_min * (1.0 + 1e-9) * g)
        assert definite(mu_max * (1.0 + 1e-9) * g - m)
        assert not definite(mu_max * (1.0 - 1e-9) * g - m)

    def test_reaction_zero_builds_no_truth_factor(self, monkeypatch):
        calls = []
        original = hilbert.cholesky_band

        def counted(band, name):
            calls.append(name)
            return original(band, name)

        monkeypatch.setattr(hilbert, "cholesky_band", counted)
        pb = models.build_truth(ModelConfig(truth_elems=64, coarse_elems=8))
        assert (pb.record.alpha, pb.record.norm_A) == (1.0, 1.0)
        assert calls == [] and "fact" not in vars(pb.truth)
        # the first solve factors the band, once
        pb.truth.solve(np.ones(63))
        pb.truth.solve(np.ones(63))
        assert calls == ["truth Gramian"]

    def test_truth_record_validates(self):
        base = models.truth_record(ModelConfig(truth_elems=8, coarse_elems=2))
        space, load = base.space, base.load
        mass = TruthSpace(p1_interior_mass(8))
        with pytest.raises(ValueError):
            TruthRecord(space, -1.0, mass, 1.2, 1.4, load)
        with pytest.raises(ValueError):
            TruthRecord(space, float("inf"), mass, 1.2, 1.4, load)
        with pytest.raises(saddle.DimensionMismatch):
            TruthRecord(space, 1.0, TruthSpace(p1_interior_mass(16)), 1.2, 1.4, load)
        # the truth space and the mass are truth spaces on one basis, not bare matrices
        with pytest.raises(TypeError):
            TruthRecord(space, 1.0, p1_interior_mass(8), 1.2, 1.4, load)
        with pytest.raises(TypeError):
            TruthRecord(p1_interior_mass(8), 0.0, None, 1.0, 1.0, load)
        # alpha and norm_A are Python floats, ordered, at least 1 and finite
        inf, nan = float("inf"), float("nan")
        bads = ((0.5, 1.4), (1.4, 1.2), (1.2, inf), (nan, 1.4), (np.float64(1.2), 1.4), (1, 1.4))
        for bad in bads:
            with pytest.raises(ValueError):
                TruthRecord(space, 1.0, mass, *bad, load)
        record = TruthRecord(space, 2.0, mass, 1.2, 1.4, load)
        assert (record.alpha, record.norm_A) == (1.2, 1.4)

    def test_load_lives_on_the_truth_space(self):
        base = models.truth_record(ModelConfig(truth_elems=8, coarse_elems=2))
        assert base.load.dim == base.space.dim == 7
        short = Functional(base.load.action[1:])
        with pytest.raises(saddle.DimensionMismatch, match="load functional"):
            TruthRecord(base.space, 0.0, None, 1.0, 1.0, short)


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

    @pytest.mark.parametrize("truth_elems", [64, 1024, 4096])
    def test_p0_truth_constants_are_one(self, truth_elems):
        # truth velocity derivatives are the mean-zero truth P0 functions,
        # which hold every mean-zero coarse P0 pressure: Π₀q = q, so
        # ‖B q‖₋₁ = ⦀q⦀ on the deflated pressures and beta = norm_B = 1;
        # the default S = G_W gives kappa_star = K_star = C_star = 1 exactly
        levels = [2**k for k in range(2, 9) if 2**k <= truth_elems]
        cfgs = [
            ModelConfig(truth_elems=truth_elems, coarse_elems=n, pressure_kind="p0", w_kind="same")
            for n in levels
        ]
        truth = models.truth_record(cfgs[0])
        for cfg in cfgs:
            pb = models.build_level(cfg, truth)
            assert abs(pb.pressures.beta - 1.0) <= 1e-10
            assert abs(pb.pressures.norm_B - 1.0) <= 1e-10
            rep = saddle.constants(pb, models.build_spaces(cfg, pb))
            assert rep.kappa_star == rep.K_star == rep.C_star == 1.0

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
            xe, ye = models.exact_coefficients(cfg, default_solution())
            errs.append(models.error_norms(pb, d, (x, y), (xe, project_pressure(pb, ye)))[0])
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
            xe, ye = models.exact_coefficients(cfg, default_solution())
            out.append(models.error_norms(pb, d, (x, y), (xe, project_pressure(pb, ye))))
        for a, b in zip(*out):
            assert abs(b - a) / a < 0.05

    def test_interpolant_fed_back_is_exact(self):
        cfg = ModelConfig(truth_elems=64, coarse_elems=8, gamma=0.1)
        pb = models.build_truth(cfg)
        d = models.build_spaces(cfg, pb)
        sol = default_solution()
        xc = sol.u(np.arange(1, 8) / 8)
        ye = exact_coefficients(cfg, sol)[1]
        numeric = (xc, project_pressure(pb, ye))
        exact = (d.U.embedding @ xc, project_pressure(pb, ye))
        u_err, p_err = models.error_norms(pb, d, numeric, exact)
        assert u_err <= 1e-9 and p_err <= 1e-9
