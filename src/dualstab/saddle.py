"""Stabilized saddle point systems and their verified constants.

The mixed problem  a(u,v) − b(p,v) + b(q,u) = ⟨F,v⟩ + ⟨G,q⟩  is posed with a
truth velocity space, a pressure basis, and a discretization (U, Q, W, c, γ)
where c is the surrogate dual product on W.  Two equivalent assemblies are
provided: the condensed stabilized system on U×Q obtained by augmenting the
constraint equation with the γ-weighted residual term, and the three-field
system on U×W×Q whose middle block is (1/γ)S.  Static condensation of the
latter must reproduce the former entrywise; the acceptance suite pins that.

Each discretization deflates its pressures once, against ker B_T (see
dualprod); assembled systems live in deflated coordinates.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .algebra import (
    DimensionMismatch,
    as_matrix,
    cholesky,
    operator_norm,
    require_symmetric,
    spd_solve,
    sym_generalized_eigvals,
)
from .dualprod import (
    KERNEL_RTOL,
    BoundViolated,
    DualProduct,
    deflate_pressures,
    measure_equivalence,
    pressure_infsup,
)
from .hilbert import Functional, Subspace, TruthSpace, orthogonal_project

# singular value ratio at or below this flags a singular system
SINGULAR_RTOL = 1e-12

# best-approximation error at or below this fraction of the exact pair's norm is zero
DEGENERATE_RTOL = 1e-12

# relative residual guaranteed by solve()
RESIDUAL_RTOL = 1e-10

# tolerance for the verified coercivity and relaxed inf-sup bounds
COERCIVITY_TOL = 1e-9


class SingularSystem(Exception):
    """Assembled system is numerically singular."""

    def __init__(self, message, smallest=None, largest=None):
        super().__init__(message)
        self.smallest = smallest
        self.largest = largest


class GammaZero(Exception):
    """Operation requires a positive stabilization parameter."""


class GammaTooLarge(ValueError):
    """Stabilization parameter is not below gamma0; no coercivity is predicted."""


class DegenerateDenominator(Exception):
    """Best-approximation denominator vanishes: exact solution is discrete."""

    def __init__(self, message, u_err=None, p_err=None):
        super().__init__(message)
        self.u_err = u_err
        self.p_err = p_err


class SaddleProblem:
    """Truth-level mixed problem data."""

    def __init__(self, truth, a_form, b_form, q_gram, load, constraint_rhs, label=""):
        self.truth = truth
        self.a_form = as_matrix(a_form, "a-form matrix")
        if self.a_form.shape != (truth.dim, truth.dim):
            raise DimensionMismatch("a-form matrix does not match the truth space")
        self.b_form = as_matrix(b_form, "constraint matrix")
        if self.b_form.shape[0] != truth.dim:
            raise DimensionMismatch("constraint matrix rows do not match the truth space")
        self.q_gram = require_symmetric(q_gram, "pressure Gramian")
        if self.q_gram.shape[0] != self.b_form.shape[1]:
            raise DimensionMismatch("pressure Gramian does not match constraint columns")
        self.q_fact = cholesky(self.q_gram, "pressure Gramian")
        if not isinstance(load, Functional):
            load = Functional(np.asarray(load, dtype=float))
        if load.dim != truth.dim:
            raise DimensionMismatch("load functional does not live on the truth space")
        self.load = load
        self.constraint_rhs = np.asarray(constraint_rhs, dtype=float)
        if self.constraint_rhs.shape != (self.b_form.shape[1],):
            raise DimensionMismatch("constraint right-hand side does not match pressure dim")
        self.label = label

    @property
    def pressure_dim(self):
        return self.b_form.shape[1]


def _valid_gamma(gamma):
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma < 0.0:
        raise ValueError("gamma must be a finite nonnegative real")
    return gamma


class Discretization:
    """Choice of (U, W, dual product, gamma) for one problem, on its whole pressure space.

    ``pressures`` is its one deflation, which every pencil and assembly reads.
    """

    def __init__(self, pb, u, dp, gamma):
        if not isinstance(dp, DualProduct):
            raise TypeError("dp must be a DualProduct")
        if u.parent is not pb.truth or dp.aux.parent is not pb.truth:
            raise DimensionMismatch("subspaces must embed into the problem's truth space")
        self.U = u
        self.dp = dp
        self.gamma = _valid_gamma(gamma)
        self.b_sel, self.q_sel = pb.b_form, pb.q_gram
        self.pressures = p = deflate_pressures(pb.b_form, pb.q_gram)
        self.b_eff, self.q_eff, self.p_dim = p.b_eff, p.q_eff, p.basis.shape[1]
        self.g_eff = p.basis.T @ pb.constraint_rhs

    @property
    def W(self):
        return self.dp.aux

    def with_gamma(self, gamma):
        """The same spaces and pressure deflation at another gamma."""
        other = copy.copy(self)
        other.gamma = _valid_gamma(gamma)
        return other


@dataclass(frozen=True)
class StabilizedSystem:
    """Condensed system on U × Q (deflated pressure coordinates)."""

    matrix: np.ndarray
    rhs: np.ndarray
    u_dim: int
    p_dim: int
    gamma: float


@dataclass(frozen=True)
class ThreeFieldSystem:
    """Equivalent system on U × W × Q with middle block (1/γ) S."""

    matrix: np.ndarray
    rhs: np.ndarray
    u_dim: int
    w_dim: int
    p_dim: int
    gamma: float


def _blocks(pb, d):
    e_u = d.U.embedding
    e_w = d.W.embedding
    a_uu = e_u.T @ (pb.a_form @ e_u)
    a_wu = e_w.T @ (pb.a_form @ e_u)
    b_uq = e_u.T @ d.b_eff
    b_wq = e_w.T @ d.b_eff
    f_u = e_u.T @ pb.load.action
    f_w = e_w.T @ pb.load.action
    return a_uu, a_wu, b_uq, b_wq, f_u, f_w


def assemble_stabilized(pb, d):
    """Assemble the stabilized system on U × Q.

    Top row:     [A_UU, −B_UQ]
    Bottom row:  [B_UQᵀ − γ B_WQᵀ S⁻¹ A_WU,  γ B_WQᵀ S⁻¹ B_WQ]
    rhs:         (F_U,  G − γ B_WQᵀ S⁻¹ F_W)

    At γ = 0 this is the plain Galerkin block form.
    """
    a_uu, a_wu, b_uq, b_wq, f_u, f_w = _blocks(pb, d)
    gamma = d.gamma
    if gamma == 0.0:
        bottom_left = b_uq.T
        bottom_right = np.zeros((d.p_dim, d.p_dim))
        rhs_q = d.g_eff.copy()
    else:
        s_fact = d.dp.stiffness.fact
        s_inv_a = spd_solve(s_fact, a_wu)
        s_inv_b = spd_solve(s_fact, b_wq)
        s_inv_f = spd_solve(s_fact, f_w)
        bottom_left = b_uq.T - gamma * (b_wq.T @ s_inv_a)
        bottom_right = gamma * (b_wq.T @ s_inv_b)
        rhs_q = d.g_eff - gamma * (b_wq.T @ s_inv_f)
    matrix = np.block([[a_uu, -b_uq], [bottom_left, bottom_right]])
    rhs = np.concatenate([f_u, rhs_q])
    return StabilizedSystem(
        matrix=matrix, rhs=rhs, u_dim=d.U.dim, p_dim=d.p_dim, gamma=gamma
    )


def assemble_three_field(pb, d):
    """Assemble the three-field system on U × W × Q.

        [A_UU    0       −B_UQ ] (x)   (F_U)
        [A_WU  (1/γ)S    −B_WQ ] (z) = (F_W)
        [B_UQᵀ  B_WQᵀ      0   ] (y)   (G)
    """
    if d.gamma <= 0.0:
        raise GammaZero("three-field assembly requires gamma > 0")
    a_uu, a_wu, b_uq, b_wq, f_u, f_w = _blocks(pb, d)
    k, n, l = d.U.dim, d.W.dim, d.p_dim
    s_block = d.dp.stiffness.matrix / d.gamma
    matrix = np.block(
        [
            [a_uu, np.zeros((k, n)), -b_uq],
            [a_wu, s_block, -b_wq],
            [b_uq.T, b_wq.T, np.zeros((l, l))],
        ]
    )
    rhs = np.concatenate([f_u, f_w, d.g_eff])
    return ThreeFieldSystem(matrix=matrix, rhs=rhs, u_dim=k, w_dim=n, p_dim=l, gamma=d.gamma)


def _three_field_slices(tf):
    k, n = tf.u_dim, tf.w_dim
    return slice(0, k), slice(k, k + n), slice(k + n, k + n + tf.p_dim)


def static_condense(tf):
    """Eliminate the auxiliary field from an assembled three-field system.

    Works from the assembled matrix alone, so the result is an independent
    route to the stabilized system and must agree with it entrywise.
    """
    iu, iw, ip = _three_field_slices(tf)
    m, rhs = tf.matrix, tf.rhs
    a_uu = m[iu, iu]
    b_uq = -m[iu, ip]
    a_wu = m[iw, iu]
    s_block = m[iw, iw]
    b_wq = -m[iw, ip]
    b_uqt = m[ip, iu]
    b_wqt = m[ip, iw]
    s_fact = cholesky(s_block, "auxiliary block")
    bottom_left = b_uqt - b_wqt @ spd_solve(s_fact, a_wu)
    bottom_right = b_wqt @ spd_solve(s_fact, b_wq)
    rhs_q = rhs[ip] - b_wqt @ spd_solve(s_fact, rhs[iw])
    matrix = np.block([[a_uu, -b_uq], [bottom_left, bottom_right]])
    out_rhs = np.concatenate([rhs[iu], rhs_q])
    return StabilizedSystem(
        matrix=matrix, rhs=out_rhs, u_dim=tf.u_dim, p_dim=tf.p_dim, gamma=tf.gamma
    )


def relative_residual(system, sol):
    """‖M x − b‖ / (‖M‖_F ‖x‖ + ‖b‖) of a solution of an assembled system."""
    m, rhs = system.matrix, system.rhs
    resid = np.linalg.norm(m @ sol - rhs)
    scale = np.linalg.norm(m, "fro") * np.linalg.norm(sol) + np.linalg.norm(rhs)
    return float(resid / max(scale, np.finfo(float).tiny))


def solve(system):
    """Dense solve with singularity screening.

    Raises SingularSystem when the smallest singular value is at or below
    SINGULAR_RTOL times the largest.  Returns (x, y) for a stabilized system
    and (x, z, y) for a three-field system.
    """
    m, rhs = system.matrix, system.rhs
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] <= SINGULAR_RTOL * svals[0]:
        raise SingularSystem(
            f"system is singular: smallest/largest singular values "
            f"{svals[-1]:.3e} / {svals[0]:.3e}",
            smallest=float(svals[-1]),
            largest=float(svals[0]),
        )
    sol = np.linalg.solve(m, rhs)
    resid = relative_residual(system, sol)
    if resid > RESIDUAL_RTOL:
        raise SingularSystem(f"relative solver residual {resid:.3e} exceeds tolerance")
    if isinstance(system, ThreeFieldSystem):
        iu, iw, ip = _three_field_slices(system)
        return sol[iu], sol[iw], sol[ip]
    k = system.u_dim
    return sol[:k], sol[k:]


@dataclass(frozen=True)
class ConstantsReport:
    """Measured problem and stabilization constants."""

    alpha: float
    norm_A: float
    norm_B: float
    beta: float
    c_hat: float
    C_hat: float
    kappa_star: float
    K_star: float
    c_star: float
    C_star: float
    alpha_hat: float
    beta_hat: float
    gamma0: float
    gamma_tilde0: float

    def beta_gamma(self, gamma):
        """Guaranteed coercivity constant of the stabilized form at this gamma."""
        gamma = float(gamma)
        if gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if gamma == 0.0:
            return 0.0
        if self.c_star <= 0.0:
            return float("-inf")
        margin = min(
            gamma * self.c_star / 2.0,
            self.alpha - gamma * self.C_star**2 * self.norm_A**2 / (2.0 * self.c_star),
        )
        return margin * self.c_hat


@dataclass(frozen=True)
class TruthRecord:
    """Truth space and a-form, shared by every level.

    alpha (the smallest eigenvalue of (sym A, G)) and norm_A (the operator
    norm of A) depend on no coarse space, so both are read from one spectrum
    computed on first read: a command computes it at most once per truth
    mesh, and only when it reads either.  Both are Python floats.

    A record of the split A = G + reaction·mass (``split_truth``) reads them
    as 1 + reaction·μ_min and 1 + reaction·μ_max of the pencil (mass, G): one
    eigenvalues-only solve, and none at reaction 0, where both are exactly 1
    and ``mass`` is None.  A record of any other a-form (``measure_truth``,
    ``reaction`` None) solves (sym A, G) and (Aᵀ G⁻¹ A, G) densely; that route
    is the oracle of the split one.
    """

    space: TruthSpace
    a_form: np.ndarray
    reaction: float | None
    mass: np.ndarray | None

    @cached_property
    def _extremes(self):
        fact = self.space.fact
        if self.reaction is None:
            sym_a = 0.5 * (self.a_form + self.a_form.T)
            alpha = float(sym_generalized_eigvals(sym_a, fact)[0])
            return alpha, operator_norm(self.a_form, fact, fact)
        if self.reaction == 0.0:
            return 1.0, 1.0
        mu = sym_generalized_eigvals(self.mass, fact)
        return 1.0 + self.reaction * float(mu[0]), 1.0 + self.reaction * float(mu[-1])

    @property
    def alpha(self):
        return self._extremes[0]

    @property
    def norm_A(self):
        return self._extremes[1]


def measure_truth(space, a_form):
    """Truth record of a general a-form on a truth space, measured densely on first read."""
    a_form = as_matrix(a_form, "a-form matrix")
    if a_form.shape != (space.dim, space.dim):
        raise DimensionMismatch("a-form matrix does not match the truth space")
    return TruthRecord(space=space, a_form=a_form, reaction=None, mass=None)


def split_truth(space, reaction, mass=None):
    """Truth record of the a-form A = G + reaction·mass, which the record forms itself.

    ``mass`` is required (symmetric, on the truth space) for reaction > 0 and
    ignored at reaction 0, where A is the truth Gramian G.
    """
    reaction = float(reaction)
    if not np.isfinite(reaction) or reaction < 0.0:
        raise ValueError("reaction coefficient must be a finite nonnegative real")
    if reaction == 0.0:
        return TruthRecord(space=space, a_form=space.gramian, reaction=0.0, mass=None)
    mass = require_symmetric(mass, "mass matrix")
    if mass.shape != (space.dim, space.dim):
        raise DimensionMismatch("mass matrix does not match the truth space")
    return TruthRecord(
        space=space, a_form=space.gramian + reaction * mass, reaction=reaction, mass=mass
    )


def constants(pb, d, truth=None):
    """Measure every constant entering the stabilization bounds.

    alpha and norm_A are truth-level properties of the a-form, read from
    ``truth`` (a TruthRecord of the problem's truth space, e.g. of the split
    A = G + reaction·mass) or, without one, measured here on the dense
    (A, G) route of ``measure_truth``.  Every other constant is measured on
    the level's deflated pressures ``d.pressures``: beta and norm_B are the
    truth inf-sup constants, c_star, alpha_hat and beta_hat go through the
    configured dual product.
    """
    if truth is None:
        truth = measure_truth(pb.truth, pb.a_form)
    elif truth.space is not pb.truth:
        raise DimensionMismatch("truth record does not belong to the problem's truth space")
    alpha, norm_a = truth.alpha, truth.norm_A
    er = measure_equivalence(d.dp, d.pressures)
    return ConstantsReport(
        alpha=alpha,
        norm_A=norm_a,
        norm_B=er.norm_B,
        beta=er.beta,
        c_hat=min(1.0, er.beta**2),
        C_hat=max(1.0, er.norm_B**2),
        kappa_star=er.kappa_star,
        K_star=er.K_star,
        c_star=er.c_star,
        C_star=er.C_star,
        alpha_hat=er.alpha_hat,
        beta_hat=er.beta_hat,
        gamma0=2.0 * alpha * er.c_star / (norm_a**2 * er.C_star**2),
        gamma_tilde0=2.0 * er.kappa_star * alpha / norm_a**2,
    )


def verify_coercivity(pb, d, report=None):
    """Measured vs predicted coercivity of the stabilized form.

    measured = smallest eigenvalue of (sym K, blockdiag(G_U, G_Q-deflated));
    asserts measured ≥ beta_gamma(γ) − tol.  Returns (measured, predicted).
    """
    rep = constants(pb, d) if report is None else report
    if d.gamma > 0.0 and d.gamma >= rep.gamma0:
        raise GammaTooLarge(
            f"gamma {d.gamma:g} is not below gamma0 {rep.gamma0:g}; no coercivity is predicted"
        )
    system = assemble_stabilized(pb, d)
    sym_k = 0.5 * (system.matrix + system.matrix.T)
    norms = scipy.linalg.block_diag(d.U.gram_sub, d.q_eff)
    measured = float(sym_generalized_eigvals(sym_k, cholesky(norms, "norm block"))[0])
    predicted = rep.beta_gamma(d.gamma)
    if measured < predicted - COERCIVITY_TOL * max(1.0, abs(predicted)):
        raise BoundViolated(
            f"stabilized coercivity {measured:.6e} below predicted {predicted:.6e}",
            value=measured,
        )
    return measured, predicted


def combined_subspace(truth, *embeddings):
    """Subspace spanned jointly by several embeddings, deduplicated.

    Columns are merged and G-orthonormalized through the eigendecomposition of
    their Gramian; directions at or below KERNEL_RTOL times the top eigenvalue
    are dropped, so nested or overlapping spaces do not inflate the dimension.
    """
    cat = np.hstack(embeddings)
    gram = cat.T @ (truth.gramian @ cat)
    gram = 0.5 * (gram + gram.T)
    w, v = np.linalg.eigh(gram)
    keep = w > KERNEL_RTOL * w[-1]
    basis = cat @ (v[:, keep] / np.sqrt(w[keep]))
    return Subspace(truth, basis)


def verify_relaxed_infsup(pb, d):
    """Inf-sup constant of the pair (Q, U+W); never below the W-only one, beta_hat."""
    joint = combined_subspace(pb.truth, d.U.embedding, d.W.embedding)
    value = pressure_infsup(d.pressures, joint)
    floor = pressure_infsup(d.pressures, d.W)
    if value < floor - COERCIVITY_TOL * max(1.0, floor):
        raise BoundViolated(
            f"relaxed inf-sup {value:.6e} below W-only constant {floor:.6e}", value=value
        )
    return value


def project_pressure(pb, d, y_raw):
    """Deflated coordinates of the G_Q-orthogonal projection of a raw pressure."""
    y_raw = np.asarray(y_raw, dtype=float)
    if y_raw.shape != (pb.pressure_dim,):
        raise DimensionMismatch("raw pressure vector does not match the pressure space")
    return spd_solve(d.pressures.q_fact, d.pressures.basis.T @ (pb.q_gram @ y_raw))


def error_norms(pb, d, numeric, exact):
    """Errors of a solve against the interpolated exact pair.

    ``numeric`` is the (x, y) pair returned by solve; ``exact`` the pair of
    truth velocity and raw pressure coefficients.  Velocity error in the
    truth norm, pressure error in the deflated G_Q norm.
    """
    x, y = numeric
    xe, ye = exact
    du = d.U.embedding @ np.asarray(x, dtype=float) - np.asarray(xe, dtype=float)
    u_err = pb.truth.norm(du)
    dp_vec = project_pressure(pb, d, ye) - np.asarray(y, dtype=float)
    p_err = float(np.sqrt(max(dp_vec @ (d.q_eff @ dp_vec), 0.0)))
    return u_err, p_err


@dataclass(frozen=True)
class QuasiOptimality:
    """Errors, best-approximation errors, and their ratio for one solve."""

    u_err: float
    p_err: float
    best_u: float
    best_p: float
    ratio: float


def quasi_optimality(pb, d, exact, report=None):
    """Solve and compare the error against the best-approximation error.

    ``exact`` is the pair (truth velocity coefficients, raw pressure
    coefficients).  Best approximations are the G- and G_Q-orthogonal
    projections onto U and the deflated pressure space.
    """
    rep = constants(pb, d) if report is None else report
    if d.gamma > 0.0 and d.gamma >= rep.gamma0:
        raise GammaTooLarge(f"gamma {d.gamma:g} is not below gamma0 {rep.gamma0:g}")
    xe, ye = (np.asarray(v, dtype=float) for v in exact)
    u_err, p_err = error_norms(pb, d, solve(assemble_stabilized(pb, d)), (xe, ye))
    y_ref = project_pressure(pb, d, ye)
    ru = xe - d.U.embedding @ orthogonal_project(d.U, xe)
    best_u = pb.truth.norm(ru)
    rp = ye - d.pressures.basis @ y_ref
    best_p = float(np.sqrt(max(rp @ (pb.q_gram @ rp), 0.0)))
    denom = best_u + best_p
    scale = pb.truth.norm(xe) + float(np.sqrt(max(ye @ (pb.q_gram @ ye), 0.0)))
    if denom <= DEGENERATE_RTOL * max(1.0, scale):
        raise DegenerateDenominator(
            "exact solution lies in the discrete spaces; quasi-optimality ratio undefined",
            u_err=u_err,
            p_err=p_err,
        )
    return QuasiOptimality(
        u_err=u_err,
        p_err=p_err,
        best_u=best_u,
        best_p=best_p,
        ratio=(u_err + p_err) / denom,
    )
