"""Stabilized saddle point systems and their verified constants.

The mixed problem  a(u,v) − b(p,v) + b(q,u) = ⟨F,v⟩ + ⟨G,q⟩  is posed with a
truth velocity space, a pressure basis, and a discretization (U, Q, W, c, γ)
where c is the surrogate dual product on W.  Two equivalent assemblies give
one ``BlockSystem``, a grid of blocks with and without the auxiliary one: the
condensed stabilized system on U×Q obtained by augmenting the constraint
equation with the γ-weighted residual term, and the three-field system on
U×W×Q whose middle block is (1/γ)S.  Static condensation of the latter must
reproduce the former entrywise; the acceptance suite pins that.

A problem owns a truth record, which the models build: its truth ``space``,
the Grams of its a-form A (``gram`` of two embeddings and ``sub_gram`` of a
subspace), which give ``GammaFreeBlocks`` its A blocks, and A's constants
``alpha`` and ``norm_A``, which ``constants`` reads.  It also owns its
pressures, deflated against ker B_T on its truth space (see dualprod) when
the problem is built, as ``pb.pressures``, which every discretization built
on it reads; the pressures own beta, norm_B and the dual Gram
B_effᵀ G⁻¹ B_eff, which ``constants`` reads.  A discretization is (problem,
U, dual product, gamma), and it owns the γ-free blocks of its (problem, U,
dual product), built on first read as ``d.blocks``: A_UU, A_WU, B_UQ, B_WQ,
F_U, F_W, one set of rows when U is W, and, on first read, the B_WQᵀ S⁻¹
products of the stabilized route.  ``d.with_gamma`` restates γ and keeps
them, so every γ and both assemblies read one set, which lives as long as
the discretizations that share it.  Only the (1/γ)S block, the γ-scaled
products and ``static_condense``, which factors S/γ from its blocks as the
independent route and solves it once, against B_WQ's columns, depend on γ.
A system holds (1/γ)S and the negated B blocks as (block, divisor) pairs,
so it copies no block; ``solve`` writes each quotient straight into the one
n × n buffer it factors.  Systems live in deflated coordinates.  The blocks
read U and W only through their products E c, Eᵀ y and the Gram of A, so
structured embeddings keep them level-sized.

U nests in W in every configuration the models build, so the joint space
U + W of the relaxed inf-sup check is W: ``relaxed_infsup_check`` checks the
nesting (``require_nested``) and reads W's pencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .algebra import (
    DimensionMismatch,
    NonFinite,
    NumericalFailure,
    SpdFactorization,
    as_matrix,
    cholesky,
    lapack,
    require_symmetric,
    spd_solve,
    sym_generalized_eigvals,
)
from .dualprod import (
    Check,
    DualProduct,
    EquivalenceReport,
    deflate_pressures,
    measure_equivalence,
    pressure_infsup,
    raise_failed,
)
from .hilbert import Functional, TruthSpace, orthogonal_project

# reciprocal condition estimate at or below this flags a singular system:
# LAPACK's dgecon estimates 1/κ₁(M) from the LU factors solve() uses, and
# 1/κ₁ lies within a factor n of σ_min/σ_max
SINGULAR_RTOL = 1e-12

# best-approximation error at or below this fraction of the exact pair's norm is zero
DEGENERATE_RTOL = 1e-12

# relative residual guaranteed by solve()
RESIDUAL_RTOL = 1e-10

# tolerance for the verified coercivity and relaxed inf-sup bounds
COERCIVITY_TOL = 1e-9

# entries of a scaled block that relative_residual divides at a time: 64 KiB,
# small beside the n × n LU buffer that solve holds while it checks
RESIDUAL_SLAB = 1 << 13

# largest entry of the Gramian of U's G-orthogonal residuals against W,
# relative to the largest of G_U, at or below which U nests in W: nested P1
# pairs read at most 1.9e-13 (W 1024 times finer than U), a non-nested pair 1
NESTING_RTOL = 1e-9


class SingularSystem(NumericalFailure):
    """Assembled system is numerically singular, or its solve misses RESIDUAL_RTOL.

    ``rcond`` is the reciprocal 1-norm condition estimate of the matrix:
    exactly 0.0 when its LU factorization meets an exactly zero pivot.
    """

    def __init__(self, message, rcond):
        super().__init__(message)
        self.rcond = rcond


class GammaZero(NumericalFailure):
    """Operation requires a positive stabilization parameter."""


class GammaTooLarge(ValueError):
    """Stabilization parameter is not below gamma0; no coercivity is predicted."""


class NotNested(ValueError):
    """A subspace does not lie in another that must contain it."""


class DegenerateDenominator(NumericalFailure):
    """Best-approximation denominator vanishes: exact solution is discrete."""


class SaddleProblem:
    """Truth-level mixed problem data on the truth record of its truth space and a-form.

    The record validates itself when it is built; its ``space`` must be a
    TruthSpace, which is ``truth``.  The pressures are deflated when the
    problem is built, after its checks: ``pressures`` is the
    DeflatedPressures of (B_T, G_Q) and ``g_eff`` the constraint rhs in their
    coordinates, so a degenerate B_T fails here.
    """

    # bench/traced_cli.py keys models.build_spaces on pb.label; the key's cfg
    # already tells levels apart, and the constant goes when that key does
    label = ""

    def __init__(self, record, b_form, q_gram, load, constraint_rhs):
        if not isinstance(getattr(record, "space", None), TruthSpace):
            raise TypeError("record must be a truth record on a TruthSpace")
        self.record = record
        self.truth = truth = record.space
        self.b_form = as_matrix(b_form, "constraint matrix")
        if self.b_form.shape[0] != truth.dim:
            raise DimensionMismatch("constraint matrix rows do not match the truth space")
        self.q_gram = require_symmetric(q_gram, "pressure Gramian")
        cholesky(self.q_gram, "pressure Gramian")  # NotSpd unless SPD
        if not isinstance(load, Functional):
            load = Functional(np.asarray(load, dtype=float))
        if load.dim != truth.dim:
            raise DimensionMismatch("load functional does not live on the truth space")
        self.load = load
        self.constraint_rhs = np.asarray(constraint_rhs, dtype=float)
        if self.constraint_rhs.shape != (self.b_form.shape[1],):
            raise DimensionMismatch("constraint right-hand side does not match pressure dim")
        # DimensionMismatch unless G_Q matches B_T's columns, DegeneratePencil for a zero B_T
        self.pressures = deflate_pressures(self.b_form, self.q_gram, truth)
        self.g_eff = self.pressures.basis.T @ self.constraint_rhs

    @property
    def pressure_dim(self):
        return self.b_form.shape[1]


class Discretization:
    """Choice of (U, dual product, gamma) for one problem; W is the dual product's space.

    It reads the pressures the problem deflated when it was built:
    ``b_eff``, ``q_eff`` and ``p_dim`` are theirs, ``b_sel`` and ``q_sel``
    the problem's B_T and G_Q.  ``blocks`` are the γ-free blocks of
    (problem, U, dual product), built on first read; ``with_gamma`` shares them.
    """

    def __init__(self, pb, u, dp, gamma):
        if not isinstance(dp, DualProduct):
            raise TypeError("dp must be a DualProduct")
        if u.parent is not pb.truth or dp.aux.parent is not pb.truth:
            raise DimensionMismatch("subspaces must embed into the problem's truth space")
        self.problem = pb
        self.U = u
        self.dp = dp
        gamma = float(gamma)
        if not np.isfinite(gamma) or gamma < 0.0:
            raise ValueError("gamma must be a finite nonnegative real")
        self.gamma = gamma
        p = pb.pressures
        self.b_sel, self.q_sel = pb.b_form, pb.q_gram
        self.b_eff, self.q_eff, self.p_dim = p.b_eff, p.q_eff, p.basis.shape[1]

    @property
    def W(self):
        return self.dp.aux

    @cached_property
    def blocks(self):
        return GammaFreeBlocks(self.problem, self.U, self.dp)

    def with_gamma(self, gamma):
        """The same problem, U and dual product at another gamma, sharing ``blocks``.

        The blocks are built here if they are unread, so the two share one set.
        """
        other = Discretization(self.problem, self.U, self.dp, gamma)
        other.blocks = self.blocks
        return other


class GammaFreeBlocks:
    """The blocks of one (problem, U, dual product) that no gamma scales.

    A_UU, A_WU, B_UQ, B_WQ, F_U and F_W are built with the set, through the
    subspaces' products: A_UU is the record's ``sub_gram`` of U, which may
    be U's own ``gram_sub`` array, A_WU the record's cross Gram of A, the
    others Eᵀ B_eff and Eᵀ F.  When U is W, one set of rows serves both
    (A_WU is A_UU, and so on).  No block is written in place: the systems
    hold them, and A_UU may be the subspace's own Gramian.  ``products``, the
    B_WQᵀ S⁻¹ products of the stabilized route, solve S on first read.
    """

    def __init__(self, pb, u, dp):
        b_eff, load = pb.pressures.b_eff, pb.load.action
        self.a_uu = pb.record.sub_gram(u)
        self.b_uq = u.restrict(b_eff)
        self.f_u = u.restrict(load)
        w = dp.aux
        if u is w:
            self.a_wu, self.b_wq, self.f_w = self.a_uu, self.b_uq, self.f_u
        else:
            self.a_wu = pb.record.gram(w.op, u.op)
            self.b_wq = w.restrict(b_eff)
            self.f_w = w.restrict(load)
        self.stiffness = dp.stiffness

    @cached_property
    def products(self):
        """(B_WQᵀ S⁻¹ A_WU, B_WQᵀ S⁻¹ B_WQ, B_WQᵀ S⁻¹ F_W)."""
        s_fact, b_wqt = self.stiffness.fact, self.b_wq.T
        return tuple(b_wqt @ spd_solve(s_fact, x) for x in (self.a_wu, self.b_wq, self.f_w))


@dataclass(frozen=True)
class BlockSystem:
    """Block system: ``sizes`` (k, l) for U × Q, (k, n, l) for U × W × Q.

    ``grid[i][j]`` is the block of equation block i and unknown block j: an
    array of shape (sizes[i], sizes[j]), a pair (array, divisor) that stands
    for array / divisor (−1.0 negates exactly), or None for a zero block;
    ``rhs`` is the whole right-hand side.  Blocks may be views, and may be
    the discretization's own γ-free blocks, so nothing writes into them.
    ``matrix`` assembles the system on each read.
    """

    grid: tuple
    rhs: np.ndarray
    sizes: tuple

    def __post_init__(self):
        b = len(self.sizes)
        if len(self.grid) != b or any(len(row) != b for row in self.grid):
            raise DimensionMismatch(f"block grid must be {b} × {b}")
        for rows, cols, block, _ in self.entries():
            slot = (rows.stop - rows.start, cols.stop - cols.start)
            if np.shape(block) != slot:
                raise DimensionMismatch(f"block of shape {np.shape(block)} in a {slot} slot")
        if np.shape(self.rhs) != (sum(self.sizes),):
            raise DimensionMismatch(f"rhs of shape {np.shape(self.rhs)} does not fit {self.sizes}")

    def blocks(self):
        """Slices of the unknowns of each block, in order."""
        ends = list(accumulate(self.sizes, initial=0))
        return tuple(slice(a, b) for a, b in zip(ends, ends[1:]))

    def entries(self):
        """(row slice, column slice, block, divisor) of each nonzero block.

        The slot holds block / divisor; a plain array has divisor 1.0.
        """
        s = self.blocks()
        return [
            (s[i], s[j], *(b if isinstance(b, tuple) else (b, 1.0)))
            for i, row in enumerate(self.grid)
            for j, b in enumerate(row)
            if b is not None
        ]

    def write(self, out):
        """Write each block / divisor into ``out``, a zeroed n × n array, and return it.

        The one assembly writer: ``matrix`` and ``solve`` both read it.
        """
        for rows, cols, block, divisor in self.entries():
            np.divide(block, divisor, out=out[rows, cols])
        return out

    @property
    def matrix(self):
        """The assembled n × n matrix, C-ordered, written anew on each read."""
        n = sum(self.sizes)
        return self.write(np.zeros((n, n)))


def _blocks(pb, d):
    if pb is not d.problem:
        raise ValueError("the discretization is built on another problem")
    return d.blocks


def assemble_stabilized(pb, d):
    """Assemble the stabilized system on U × Q.

    Top row:     [A_UU, −B_UQ]
    Bottom row:  [B_UQᵀ − γ B_WQᵀ S⁻¹ A_WU,  γ B_WQᵀ S⁻¹ B_WQ]
    rhs:         (F_U,  G − γ B_WQᵀ S⁻¹ F_W)

    At γ = 0 this is the plain Galerkin block form, and S is not solved.
    """
    blk = _blocks(pb, d)
    gamma, l = d.gamma, blk.b_uq.shape[1]
    if gamma == 0.0:
        bottom_left = blk.b_uq.T
        bottom_right = None
        rhs_q = pb.g_eff
    else:
        bt_s_a, bt_s_b, bt_s_f = blk.products
        bottom_left = blk.b_uq.T - gamma * bt_s_a
        bottom_right = gamma * bt_s_b
        rhs_q = pb.g_eff - gamma * bt_s_f
    grid = ((blk.a_uu, (blk.b_uq, -1.0)), (bottom_left, bottom_right))
    rhs = np.concatenate([blk.f_u, rhs_q])
    return BlockSystem(grid=grid, rhs=rhs, sizes=(d.U.dim, l))


def assemble_three_field(pb, d):
    """Assemble the three-field system on U × W × Q.

        [A_UU    0       −B_UQ ] (x)   (F_U)
        [A_WU  (1/γ)S    −B_WQ ] (z) = (F_W)
        [B_UQᵀ  B_WQᵀ      0   ] (y)   (G)

    The system holds the γ-free blocks and the stiffness matrix themselves,
    B_UQᵀ and B_WQᵀ as views, (1/γ)S as (S, γ) and −B as (B, −1.0): no block
    is a new array.
    """
    if d.gamma <= 0.0:
        raise GammaZero("three-field assembly requires gamma > 0")
    blk = _blocks(pb, d)
    grid = (
        (blk.a_uu, None, (blk.b_uq, -1.0)),
        (blk.a_wu, (d.dp.stiffness.matrix, d.gamma), (blk.b_wq, -1.0)),
        (blk.b_uq.T, blk.b_wq.T, None),
    )
    return BlockSystem(
        grid=grid,
        rhs=np.concatenate([blk.f_u, blk.f_w, pb.g_eff]),
        sizes=(d.U.dim, d.W.dim, blk.b_uq.shape[1]),
    )


def static_condense(tf):
    """Eliminate the auxiliary field from a three-field system.

    Works from the system's blocks alone, and factors its own (1/γ)S block,
    formed here for that one factorization, not the dual product's stiffness,
    so the result is an independent route to the stabilized system and must
    agree with it entrywise.  The block is symmetric, so B_WQᵀ (S/γ)⁻¹ is one
    solve against B_WQ's columns, transposed.
    """
    (a_uu, _, neg_b_uq), (a_wu, (s, gamma), _), (b_uqt, b_wqt, _) = tf.grid
    (iu, iw, ip), rhs = tf.blocks(), tf.rhs
    bt_s = spd_solve(cholesky(s / gamma, "auxiliary block"), b_wqt.T).T
    grid = ((a_uu, neg_b_uq), (b_uqt - bt_s @ a_wu, bt_s @ b_wqt.T))
    out_rhs = np.concatenate([rhs[iu], rhs[ip] - bt_s @ rhs[iw]])
    return BlockSystem(grid=grid, rhs=out_rhs, sizes=(tf.sizes[0], tf.sizes[2]))


def relative_residual(system, sol):
    """‖M x − b‖ / (‖M‖_F ‖x‖ + ‖b‖) of a solution, read from the blocks of M.

    The normwise backward error of Rigal and Gaches: M x and ‖M‖_F are summed
    block by block, so M is never assembled.  A block under a divisor of ±1
    is read as it is and its product signed; under any other divisor it is
    divided RESIDUAL_SLAB entries at a time, so its entries are those that
    ``write`` gives and their squares stay in range wherever those do.
    """
    sol = np.asarray(sol, dtype=float)
    resid = -np.asarray(system.rhs, dtype=float)
    fro_sq = 0.0
    for rows, cols, block, divisor in system.entries():
        for part_rows, part, sign in _quotient_rows(rows, block, divisor):
            resid[part_rows] += part @ sol[cols] / sign
            flat = part.ravel(order="K")
            fro_sq += flat @ flat
    scale = np.sqrt(fro_sq) * np.linalg.norm(sol) + np.linalg.norm(system.rhs)
    return float(np.linalg.norm(resid) / max(scale, np.finfo(float).tiny))


def _quotient_rows(rows, block, divisor):
    """(rows, part, sign) with part / sign the slot's entries on those rows."""
    if abs(divisor) == 1.0:
        yield rows, block, divisor
        return
    step = max(1, RESIDUAL_SLAB // block.shape[1])
    for start in range(0, block.shape[0], step):
        part = block[start : start + step] / divisor
        yield slice(rows.start + start, rows.start + start + len(part)), part, 1.0


def solve(system):
    """Dense LU solve, screened for singularity on the same factors.

    The blocks are written once into a Fortran-ordered n × n buffer, which
    LAPACK getrf factors in place, so the system holds one n² array while it
    is solved.  Its entries, a divided block's quotients included, and the
    rhs must be finite (NonFinite otherwise).
    SingularSystem is raised when the gecon estimate of its reciprocal
    1-norm condition number is at or below SINGULAR_RTOL (0 for an exactly
    zero pivot), or when the relative residual of the getrs solution, read
    from the blocks, exceeds RESIDUAL_RTOL.  Returns one block of the
    solution per entry of ``system.sizes``: (x, y) for a stabilized system
    and (x, z, y) for a three-field system.
    """
    n = sum(system.sizes)
    m = system.write(np.zeros((n, n), order="F"))
    # read in place: the least and the largest entry are finite exactly when all are
    if not (np.isfinite(m.min()) and np.isfinite(m.max())):
        raise NonFinite("system matrix contains non-finite entries")
    rhs = as_matrix(np.reshape(system.rhs, (-1, 1)), "right-hand side")
    # the 1-norm of the Fortran buffer, read in place; an overflow to inf is
    # reported once, as NonFinite: gecon would read an infinite norm as
    # rcond 0 and call a regular system singular
    anorm = lapack.dlange("1", m)
    if not np.isfinite(anorm):
        raise NonFinite("system matrix 1-norm overflows")
    lu, piv, info = lapack.dgetrf(m, overwrite_a=1)
    rcond = float(lapack.dgecon(lu, anorm)[0]) if info == 0 else 0.0
    if not rcond > SINGULAR_RTOL:
        raise SingularSystem(f"system is singular: reciprocal condition estimate {rcond:.3e}", rcond)
    sol = lapack.dgetrs(lu, piv, rhs)[0][:, 0]
    resid = relative_residual(system, sol)
    if not resid <= RESIDUAL_RTOL:
        raise SingularSystem(f"relative solver residual {resid:.3e} exceeds tolerance", rcond)
    return tuple(sol[b] for b in system.blocks())


@dataclass(frozen=True)
class ConstantsReport(EquivalenceReport):
    """The level's EquivalenceReport, alpha and norm_A of its a-form, and gamma0, gamma_tilde0."""

    alpha: float
    norm_A: float
    gamma0: float
    gamma_tilde0: float

    @property
    def c_hat(self):
        """min(1, beta²), the pressure factor of ``beta_gamma``."""
        return min(1.0, self.beta**2)

    def beta_gamma(self, gamma):
        """Coercivity bound c_hat · min(γ c_star / 2, alpha (1 − γ / gamma0)) at this gamma."""
        gamma = float(gamma)
        if gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if gamma == 0.0:
            return 0.0
        # gamma0 vanishes with c_star, or underflows to 0 at an extreme scale
        if self.c_star <= 0.0 or self.gamma0 == 0.0:
            return float("-inf")
        margin = min(gamma * self.c_star / 2.0, self.alpha * (1.0 - gamma / self.gamma0))
        return margin * self.c_hat


def constants(pb, d):
    """Measure every constant entering the stabilization bounds.

    alpha and norm_A are truth-level properties of the a-form, read from the
    problem's truth record ``pb.record``, which every level of a run shares.
    Every other constant is measured on the problem's deflated pressures
    ``pb.pressures``: beta and norm_B are theirs, the truth inf-sup constants,
    and c_star, alpha_hat and beta_hat go through the configured dual product.
    """
    alpha, norm_a = pb.record.alpha, pb.record.norm_A
    er = measure_equivalence(d.dp, pb.pressures)
    # 2 alpha c_star / (norm_A C_star)² and 2 kappa_star alpha / norm_A², squaring nothing
    ratio = alpha / norm_a
    return ConstantsReport(
        alpha=alpha,
        norm_A=norm_a,
        gamma0=2.0 * ratio * (er.c_star / er.C_star) / (norm_a * er.C_star),
        gamma_tilde0=2.0 * er.kappa_star * ratio / norm_a,
        **vars(er),
    )


def _require_below_gamma0(gamma, rep):
    """GammaTooLarge unless gamma is 0 or below the measured gamma0."""
    if gamma > 0.0 and gamma >= rep.gamma0:
        raise GammaTooLarge(
            f"gamma {gamma:g} is not below gamma0 {rep.gamma0:g}; no coercivity is predicted"
        )


def verify_coercivity(pb, d, report):
    """Measured vs predicted coercivity of the stabilized form.

    measured = smallest eigenvalue of (sym K, blockdiag(G_U, G_Q-deflated));
    predicted = beta_gamma(γ) of ``report``, the level's ConstantsReport.
    The norm block's factor is blockdiag(L_U, L_Q), of the factors U and the
    pressures hold.  BoundViolated from the ``coercivity`` check row when
    measured falls below predicted beyond COERCIVITY_TOL.  Returns (measured,
    predicted).
    """
    _require_below_gamma0(d.gamma, report)
    k = assemble_stabilized(pb, d).matrix
    sym_k = 0.5 * (k + k.T)
    lower, m = np.zeros_like(sym_k), d.U.dim
    lower[:m, :m], lower[m:, m:] = d.U.fact.lower, pb.pressures.q_fact.lower
    measured = float(sym_generalized_eigvals(sym_k, SpdFactorization(len(lower), lower))[0])
    predicted = report.beta_gamma(d.gamma)
    raise_failed([Check("coercivity", measured, predicted, None, COERCIVITY_TOL)])
    return measured, predicted


def require_nested(u, w):
    """NotNested unless the subspace u lies in the subspace w of the same truth space.

    The G-orthogonal residuals of u's basis against w have the Gramian
    G_U − Xᵀ G_W⁻¹ X, X = E_Wᵀ G E_U; u nests in w when its largest entry is
    at most NESTING_RTOL times the largest of G_U.
    """
    if u is w:
        return
    cross = w.parent.gram(w.op, u.op)
    resid = u.gram_sub - cross.T @ spd_solve(w.fact, cross)
    if np.abs(resid).max() > NESTING_RTOL * np.abs(u.gram_sub).max():
        raise NotNested("U does not lie in W: the joint space U + W is not W")


def relaxed_infsup_check(pb, d):
    """Check row of the inf-sup constant of the pair (Q, U+W) against its floor.

    The floor (``lower``) is the W-only constant beta_hat, which the relaxed
    one may never fall below.  U nests in W (``require_nested``), so U + W is
    W and the relaxed constant is beta_hat itself: W's pencil is solved once.
    """
    require_nested(d.U, d.W)
    beta_hat = pressure_infsup(pb.pressures, d.W)
    return Check("relaxed_infsup", beta_hat, beta_hat, None, COERCIVITY_TOL)


def verify_relaxed_infsup(pb, d):
    """Inf-sup constant of the pair (Q, U+W); BoundViolated if below beta_hat."""
    row = relaxed_infsup_check(pb, d)
    raise_failed([row])
    return row.value


def project_pressure(pb, y_raw):
    """Deflated coordinates of the G_Q-orthogonal projection of a raw pressure."""
    y_raw = np.asarray(y_raw, dtype=float)
    if y_raw.shape != (pb.pressure_dim,):
        raise DimensionMismatch("raw pressure vector does not match the pressure space")
    p = pb.pressures
    return spd_solve(p.q_fact, p.basis.T @ (pb.q_gram @ y_raw))


def error_norms(pb, d, numeric, exact):
    """Errors of a solve against the interpolated exact pair.

    ``numeric`` is the (x, y) pair returned by solve; ``exact`` the pair of
    truth velocity coefficients and the exact pressure in deflated
    coordinates, ``project_pressure`` of its raw coefficients.  Velocity
    error in the truth norm, pressure error in the deflated G_Q norm.
    """
    (x, y), (xe, y_ref) = numeric, exact
    du = d.U.embed(np.asarray(x, dtype=float)) - np.asarray(xe, dtype=float)
    u_err = pb.truth.norm(du)
    dp_vec = y_ref - np.asarray(y, dtype=float)
    p_err = float(np.sqrt(max(dp_vec @ (pb.pressures.q_eff @ dp_vec), 0.0)))
    return u_err, p_err


@dataclass(frozen=True)
class QuasiOptimality:
    """Errors, best-approximation errors, and their ratio for one solve."""

    u_err: float
    p_err: float
    best_u: float
    best_p: float
    ratio: float


def quasi_optimality(pb, d, exact, report):
    """Solve and compare the error against the best-approximation error.

    ``exact`` is the pair (truth velocity coefficients, raw pressure
    coefficients); ``report`` is the level's ConstantsReport, whose gamma0
    bounds d.gamma.  Best approximations are the G- and G_Q-orthogonal
    projections onto U and the deflated pressure space.
    """
    _require_below_gamma0(d.gamma, report)
    xe, ye = (np.asarray(v, dtype=float) for v in exact)
    y_ref = project_pressure(pb, ye)
    u_err, p_err = error_norms(pb, d, solve(assemble_stabilized(pb, d)), (xe, y_ref))
    ru = xe - d.U.embed(orthogonal_project(d.U, xe))
    best_u = pb.truth.norm(ru)
    rp = ye - pb.pressures.basis @ y_ref
    best_p = float(np.sqrt(max(rp @ (pb.q_gram @ rp), 0.0)))
    denom = best_u + best_p
    scale = pb.truth.norm(xe) + float(np.sqrt(max(ye @ (pb.q_gram @ ye), 0.0)))
    if denom <= DEGENERATE_RTOL * max(1.0, scale):
        raise DegenerateDenominator(
            "exact solution lies in the discrete spaces; quasi-optimality ratio undefined"
        )
    return QuasiOptimality(
        u_err=u_err,
        p_err=p_err,
        best_u=best_u,
        best_p=best_p,
        ratio=(u_err + p_err) / denom,
    )
