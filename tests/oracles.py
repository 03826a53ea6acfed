"""Dense oracles that tests compare the package's split routes with."""

import numpy as np

from dualstab.algebra import (
    NonFinite,
    as_matrix,
    band_to_dense,
    cholesky,
    lapack,
    operator_norm,
    spd_solve,
    sym_generalized_eigvals,
)
from dualstab.dualprod import KERNEL_RTOL
from dualstab.hilbert import Subspace
from dualstab.models import p1_stiffness_band
from dualstab.saddle import RESIDUAL_RTOL, SINGULAR_RTOL, BlockSystem, SingularSystem


def random_spd(rng, n):
    """An n × n SPD matrix with eigenvalues log-uniform in [0.1, 10]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ev = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
    return q @ (ev[:, None] * q.T)


def dense_truth_extremes(gramian, a_form):
    """(alpha, norm_A) of a general a-form A against a dense truth Gramian G.

    alpha is the smallest eigenvalue of (sym A, G) and norm_A the square root
    of the largest of (Aᵀ G⁻¹ A, G), both on the dense Cholesky factor of G:
    the oracle of the split record's 1 + r·μ_min and 1 + r·μ_max.
    """
    a_form = as_matrix(a_form, "a-form matrix")
    fact = cholesky(gramian, "truth Gramian")
    sym_a = 0.5 * (a_form + a_form.T)
    alpha = float(sym_generalized_eigvals(sym_a, fact)[0])
    return alpha, operator_norm(a_form, fact, fact)


def a_form_apply(record, x):
    """A x = G x + reaction·M x of a truth record, for a truth vector or truth columns.

    The A-form oracle: the package reads A only through the record's ``gram``.
    """
    ax = record.space.apply(x)
    return ax if record.reaction == 0.0 else ax + record.reaction * record.mass.apply(x)


def closed_form_constants(truth, coarse, w_elems, kind, sigma, reaction, gamma):
    """Every column of a ``constants`` row of the 1D model, in closed form.

    Nested uniform meshes on (0, 1): ``truth`` P1 elements for V, ``coarse``
    pressure elements (P1 or P0, ``kind``) with coarse < truth, ``w_elems``
    P1 elements for W with coarse ≤ w_elems ≤ truth, S = σ·G_W, and the
    a-form A = G + reaction·M.  ``gamma`` is the configured gamma or "auto".

    alpha and norm_A.  G = (1/h) tridiag(−1, 2, −1) and M = (h/6)
    tridiag(1, 4, 1), h = 1/truth, share the sine eigenvectors, so the pencil
    (M, G) has μ_k = (h²/6)(2 + cos θ_k)/(1 − cos θ_k), θ_k = kπ/truth, and
    alpha = 1 + reaction·μ_{truth−1}, norm_A = 1 + reaction·μ_1.  Each
    1 − cos θ is evaluated as 2 sin²(θ/2), which cancels nothing at small θ.

    beta, norm_B, beta_hat.  On each truth element b(q, v) = ∫ q v' is v's
    constant slope times q's element mean, and the slopes of a P1 H¹₀ space
    on mesh size h' are the mean-zero piecewise constants.  The deflated
    pressures are the mean-zero ones (ker B_T holds the constants), so the
    sup of b(q, ·) over that space is ‖Π₀^{h'} q‖, Π₀^{h'} the L² projection
    onto piecewise constants.  For q linear on each cell of size h',
    ‖Π₀^{h'} q‖² = ‖q‖² − (h'²/12)‖q'‖².  Over mean-zero P1 q on the coarse
    mesh (size H), ‖q'‖²/‖q‖² ranges over the nonzero Neumann eigenvalues
    (6/H²)(1 − cos kπH)/(2 + cos kπH), from k = 1 to the sawtooth's 12/H²
    at k = coarse.  Hence, for P1 pressures,

        beta²     = 1 − (coarse/truth)²
        norm_B²   = 1 − (coarse/truth)² (1 − cos(π/coarse)) / (2 (2 + cos(π/coarse)))
        beta_hat² = 1 − (coarse/w_elems)²

    and for P0 pressures Π₀^{h'} q = q: beta = norm_B = beta_hat = 1.

    alpha_hat and c_star.  alpha_hat² is the least ratio of the two squared
    sups, over W and over V: (1 − (h_W²/12) t) / (1 − (h²/12) t) falls with
    t = ‖q'‖²/‖q‖², so the sawtooth attains it and alpha_hat = beta_hat / beta.
    S⁻¹ = G_W⁻¹/σ scales the sup over W by 1/σ, so c_star = alpha_hat²/σ;
    C_star = 1/σ and kappa_star = K_star = σ.  A root at or below roundoff,
    beta_hat for W = the pressure mesh, is 0, as the package floors it.

    gamma0 = 2 alpha c_star / (norm_A C_star)², gamma_tilde0 = 2 kappa_star
    alpha / norm_A², gamma = gamma0/2 under "auto", and beta_gamma =
    min(1, beta²) · min(γ c_star / 2, alpha (1 − γ/gamma0)): 0 at γ = 0, −inf
    when c_star = 0 at γ > 0.  At coarse = truth the sawtooth joins ker B_T,
    so none of this holds there.
    """
    if not coarse < truth or not coarse <= w_elems <= truth:
        raise ValueError("closed forms need coarse < truth and coarse ≤ w_elems ≤ truth")
    h = 1.0 / truth
    mu_min, mu_max = (
        h * h / 6.0 * (2.0 + np.cos(theta)) / (2.0 * np.sin(theta / 2.0) ** 2)
        for theta in (np.pi * (truth - 1) / truth, np.pi / truth)
    )
    alpha, norm_a = 1.0 + reaction * mu_min, 1.0 + reaction * mu_max
    if kind == "p0":
        beta = norm_b = beta_hat = 1.0
    else:
        ratio, theta = coarse / truth, np.pi / coarse
        beta = np.sqrt(1.0 - ratio**2)
        norm_b = np.sqrt(1.0 - ratio**2 * np.sin(theta / 2.0) ** 2 / (2.0 + np.cos(theta)))
        beta_hat = np.sqrt(1.0 - (coarse / w_elems) ** 2)
    alpha_hat = beta_hat / beta
    c_star, c_upper = alpha_hat**2 / sigma, 1.0 / sigma
    gamma0 = 2.0 * alpha * c_star / (norm_a * c_upper) ** 2
    gamma = gamma0 / 2.0 if gamma == "auto" else float(gamma)
    if gamma == 0.0:
        beta_gamma = 0.0
    elif c_star == 0.0:
        beta_gamma = float("-inf")
    else:
        margin = min(gamma * c_star / 2.0, alpha * (1.0 - gamma / gamma0))
        beta_gamma = min(1.0, beta**2) * margin
    values = {
        "alpha": alpha,
        "norm_A": norm_a,
        "norm_B": norm_b,
        "beta": beta,
        "kappa_star": sigma,
        "K_star": sigma,
        "c_star": c_star,
        "C_star": c_upper,
        "alpha_hat": alpha_hat,
        "beta_hat": beta_hat,
        "gamma0": gamma0,
        "gamma_tilde0": 2.0 * sigma * alpha / norm_a**2,
        "gamma": gamma,
        "beta_gamma": beta_gamma,
    }
    return {key: float(value) for key, value in values.items()}


def p1_stiffness(n):
    """H¹₀ stiffness matrix of P1 on n uniform elements (interior nodes)."""
    return band_to_dense(p1_stiffness_band(n))


def hat_prolongation(truth_elems, sub_elems):
    """Dense embedding of the interior P1 hats on sub_elems elements into truth P1.

    Each column is its coarse hat evaluated at the truth nodes: the oracle of
    ``models.P1Prolongation`` and its dense form ``models.prolongation_p1``.
    """
    xi = np.arange(1, truth_elems) / truth_elems
    xc = np.arange(1, sub_elems) / sub_elems
    return np.maximum(0.0, 1.0 - np.abs(xi[:, None] - xc[None, :]) * sub_elems)


def hat_constraint_matrix(truth_elems, coarse_elems, kind):
    """B_T of b(q, v) = ∫ q v' from dense tables of the coarse basis.

    For P1, every coarse hat is evaluated at every truth node, and row i is
    half the difference of the hat values at nodes i and i + 2; for P0, ±1
    goes to the parent cells of the two truth elements of each hat.  The
    bit-level oracle of ``models.constraint_matrix``.
    """
    if kind == "p1":
        xi = np.linspace(0.0, 1.0, truth_elems + 1)
        xc = np.arange(coarse_elems + 1) / coarse_elems
        psi = np.maximum(0.0, 1.0 - np.abs(xi[:, None] - xc[None, :]) * coarse_elems)
        return 0.5 * (psi[:-2] - psi[2:])
    parent = np.arange(truth_elems) * coarse_elems // truth_elems
    b = np.zeros((truth_elems - 1, coarse_elems))
    rows = np.arange(truth_elems - 1)
    np.add.at(b, (rows, parent[:-1]), 1.0)
    np.add.at(b, (rows, parent[1:]), -1.0)
    return b


def combined_subspace(truth, *embeddings):
    """Subspace spanned jointly by several dense embeddings, deduplicated.

    Columns are merged and G-orthonormalized through the eigendecomposition of
    their Gramian; directions at or below KERNEL_RTOL times the top eigenvalue
    are dropped, so nested or overlapping spaces do not inflate the dimension.
    """
    cat = np.hstack(embeddings)
    w, v = np.linalg.eigh(truth.gram(cat))
    keep = w > KERNEL_RTOL * w[-1]
    basis = cat @ (v[:, keep] / np.sqrt(w[keep]))
    return Subspace(truth, basis)


def dense_system(matrix, rhs, sizes):
    """BlockSystem whose blocks are the views of a dense matrix cut at ``sizes``."""
    matrix = np.asarray(matrix, dtype=float)
    ends = np.cumsum((0,) + tuple(sizes))
    cuts = [slice(a, b) for a, b in zip(ends, ends[1:])]
    grid = tuple(tuple(matrix[r, c] for c in cuts) for r in cuts)
    return BlockSystem(grid, np.asarray(rhs, dtype=float), tuple(sizes))


def dense_residual(matrix, rhs, sol):
    """‖M x − b‖ / (‖M‖_F ‖x‖ + ‖b‖) from the assembled matrix M."""
    resid = np.linalg.norm(matrix @ sol - rhs)
    scale = np.linalg.norm(matrix, "fro") * np.linalg.norm(sol) + np.linalg.norm(rhs)
    return float(resid / max(scale, np.finfo(float).tiny))


def dense_solve(system):
    """Copy-and-factor solve of the assembled matrix: (solution blocks, dense residual).

    ``saddle.solve``'s screen and solve as they read the C-ordered matrix:
    getrf factors a Fortran copy, the matrix stays alive, and the relative
    residual ‖M x − b‖ / (‖M‖_F ‖x‖ + ‖b‖) is formed from it.  The oracle of
    the blockwise solve, which must give the same bits.
    """
    m = as_matrix(system.matrix, "system matrix")
    rhs = as_matrix(np.reshape(system.rhs, (-1, 1)), "right-hand side")
    anorm = lapack.dlange("I", m.T)
    if not np.isfinite(anorm):
        raise NonFinite("system matrix 1-norm overflows")
    lu, piv, info = lapack.dgetrf(m)
    rcond = float(lapack.dgecon(lu, anorm)[0]) if info == 0 else 0.0
    if not rcond > SINGULAR_RTOL:
        raise SingularSystem(f"system is singular: reciprocal condition estimate {rcond:.3e}", rcond)
    sol = lapack.dgetrs(lu, piv, rhs)[0][:, 0]
    resid = dense_residual(m, system.rhs, sol)
    if not resid <= RESIDUAL_RTOL:
        raise SingularSystem(f"relative solver residual {resid:.3e} exceeds tolerance", rcond)
    return tuple(sol[b] for b in system.blocks()), resid


def dense_condense(tf):
    """(matrix, rhs) of the static condensation of a three-field system, sliced from its matrix.

    The oracle of ``saddle.static_condense``, which reads the blocks.
    """
    iu, iw, ip = tf.blocks()
    m, rhs = tf.matrix, tf.rhs
    s_fact = cholesky(m[iw, iw], "auxiliary block")
    b_wqt = m[ip, iw]
    bottom_left = m[ip, iu] - b_wqt @ spd_solve(s_fact, m[iw, iu])
    bottom_right = b_wqt @ spd_solve(s_fact, -m[iw, ip])
    rhs_q = rhs[ip] - b_wqt @ spd_solve(s_fact, rhs[iw])
    matrix = np.block([[m[iu, iu], m[iu, ip]], [bottom_left, bottom_right]])
    return matrix, np.concatenate([rhs[iu], rhs_q])
