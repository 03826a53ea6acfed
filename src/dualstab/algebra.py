"""Dense symmetric linear algebra kernel.

Everything downstream (dual norms, spectral equivalence constants, coercivity
pencils) reduces to SPD factorizations and symmetric generalized eigenproblems.
The heavy lifting is delegated to LAPACK through numpy/scipy; this module owns
the contracts: validation, pivot screening, Cholesky reduction of pencils, and
the error taxonomy.

Matrices are plain float64 ndarrays.  Sizes are desk scale (a few thousand at
most), so dense storage and full spectra are the right trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# relative pivot threshold separating rank deficiency from roundoff
PIVOT_RTOL = 1e-12

# relative tolerance when an input is required to be symmetric
SYMMETRY_RTOL = 1e-12


class NotSpd(Exception):
    """Matrix is not symmetric positive definite (or numerically singular)."""


class DimensionMismatch(Exception):
    """Operand shapes do not conform."""


class NonFinite(ValueError):
    """Matrix has an infinite or NaN entry, e.g. after an overflow."""


def as_matrix(a, name="matrix"):
    """Validate and return a 2-d float array with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or min(a.shape) < 1:
        raise DimensionMismatch(f"{name} must be 2-d with positive shape, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} contains non-finite entries")
    return a


def require_symmetric(a, name="matrix", rtol=SYMMETRY_RTOL):
    """Validate square symmetry within `rtol` and return the symmetrized copy."""
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    scale = np.abs(a).max()
    if scale > 0.0 and np.abs(a - a.T).max() > rtol * scale:
        raise ValueError(f"{name} is not symmetric within relative tolerance {rtol:g}")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class SpdFactorization:
    """Lower Cholesky factor of an SPD matrix: M = lower @ lower.T."""

    dim: int
    lower: np.ndarray


@dataclass(frozen=True)
class EigResult:
    """Full spectrum of a symmetric pencil (A, B).

    Eigenvalues are ascending; eigenvector k is ``eigenvectors[:, k]`` and the
    set is B-orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def cholesky(m, name="matrix"):
    """Factor an SPD matrix as L Lᵀ with L lower triangular.

    A pivot at or below ``PIVOT_RTOL`` times the largest diagonal entry raises
    NotSpd: at that point the matrix is indistinguishable from a singular one
    in double precision.
    """
    m = require_symmetric(m, name)
    try:
        lower = scipy.linalg.cholesky(m, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise NotSpd(f"{name} is not positive definite") from None
    pivots = np.diag(lower) ** 2
    if pivots.min() <= PIVOT_RTOL * np.diag(m).max():
        raise NotSpd(f"{name} is numerically singular (pivot below threshold)")
    return SpdFactorization(dim=m.shape[0], lower=lower)


def spd_solve(fact, rhs):
    """Solve M x = rhs from the Cholesky factorization of M.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != fact.dim:
        raise DimensionMismatch(
            f"rhs of shape {rhs.shape} does not match factorization of dim {fact.dim}"
        )
    y = scipy.linalg.solve_triangular(fact.lower, rhs, lower=True, check_finite=False)
    return scipy.linalg.solve_triangular(fact.lower.T, y, lower=False, check_finite=False)


def _reduce_pencil(a, b_fact):
    """Standard symmetric matrix L⁻¹ A L⁻ᵀ of the pencil (A, L Lᵀ)."""
    a = require_symmetric(a, "pencil matrix")
    if a.shape[0] != b_fact.dim:
        raise DimensionMismatch(
            f"pencil matrix dim {a.shape[0]} does not match factorization dim {b_fact.dim}"
        )
    lower = b_fact.lower
    y = scipy.linalg.solve_triangular(lower, a, lower=True, check_finite=False)
    c = scipy.linalg.solve_triangular(lower, y.T, lower=True, check_finite=False)
    return 0.5 * (c + c.T)


def sym_generalized_eig(a, b_fact):
    """Solve the symmetric generalized eigenproblem A x = λ B x.

    B is supplied as its Cholesky factorization; the pencil is reduced to the
    standard symmetric problem L⁻¹ A L⁻ᵀ y = λ y and the eigenvectors are
    mapped back as x = L⁻ᵀ y, which makes them B-orthonormal.
    """
    eigenvalues, v = np.linalg.eigh(_reduce_pencil(a, b_fact))
    x = scipy.linalg.solve_triangular(b_fact.lower.T, v, lower=False, check_finite=False)
    return EigResult(eigenvalues=eigenvalues, eigenvectors=x)


def sym_generalized_eigvals(a, b_fact):
    """Ascending eigenvalues of A x = λ B x, without eigenvectors.

    Same reduction as ``sym_generalized_eig``.  Every constant of the package
    is an extreme eigenvalue, and LAPACK without eigenvectors costs a fraction
    of the full decomposition.
    """
    return np.linalg.eigvalsh(_reduce_pencil(a, b_fact))


def operator_norm(a, test_fact, trial_fact):
    """Operator norm of A : trial → dual(test).

    Computed as the square root of the largest eigenvalue of the pencil
    (Aᵀ G_test⁻¹ A, G_trial), i.e. sup over trial vectors of the dual test
    norm of A x over the trial norm of x.
    """
    a = as_matrix(a, "operator matrix")
    if a.shape != (test_fact.dim, trial_fact.dim):
        raise DimensionMismatch(
            f"operator of shape {a.shape} does not map dim {trial_fact.dim} "
            f"into dual of dim {test_fact.dim}"
        )
    m = a.T @ spd_solve(test_fact, a)
    m = 0.5 * (m + m.T)
    top = sym_generalized_eigvals(m, trial_fact)[-1]
    return float(np.sqrt(max(top, 0.0)))
