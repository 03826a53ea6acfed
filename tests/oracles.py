"""Dense oracles that tests compare the package's split routes with."""

import numpy as np

from dualstab.algebra import (
    as_matrix,
    band_to_dense,
    cholesky,
    operator_norm,
    sym_generalized_eigvals,
)
from dualstab.dualprod import KERNEL_RTOL
from dualstab.hilbert import Subspace
from dualstab.models import p1_stiffness_band


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
