"""Dense oracles that tests compare the package's split routes with."""

from dualstab.algebra import (
    as_matrix,
    band_to_dense,
    cholesky,
    operator_norm,
    sym_generalized_eigvals,
)
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
