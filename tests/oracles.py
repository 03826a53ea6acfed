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
