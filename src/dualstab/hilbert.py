"""Truth space, subspaces, functionals, and the biorthogonal dual basis.

The continuous Hilbert space V is represented by a fine "truth" space with an
SPD Gramian G; every dual-space quantity in the package is measured against
it.  A subspace is a full-rank column embedding E into truth coordinates, a
functional is its vector of actions on the truth basis, and the dual basis of
a subspace consists of the functionals biorthogonal to its columns:

    reps = G E (EᵀGE)⁻¹,   so   repsᵀ E = I.

With those, the truth-orthogonal projector P onto the subspace and its adjoint
P* (a projector on the dual side) are plain matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DimensionMismatch, as_matrix, cholesky, require_symmetric, spd_solve


class TruthSpace:
    """Reference space: an SPD Gramian fixing norm and dual norm."""

    def __init__(self, gramian, label=""):
        self.gramian = require_symmetric(gramian, "truth Gramian")
        self.fact = cholesky(self.gramian, "truth Gramian")
        self.dim = self.gramian.shape[0]
        self.label = label

    def norm(self, x):
        """Norm induced by the Gramian."""
        x = np.asarray(x, dtype=float)
        return float(np.sqrt(max(x @ (self.gramian @ x), 0.0)))

    def __repr__(self):
        return f"TruthSpace(dim={self.dim}, label={self.label!r})"


class Subspace:
    """Subspace given by a full-column-rank embedding into truth coordinates."""

    def __init__(self, parent, embedding):
        self.parent = parent
        e = as_matrix(embedding, "embedding")
        if e.shape[0] != parent.dim:
            raise DimensionMismatch(
                f"embedding has {e.shape[0]} rows, truth space has dim {parent.dim}"
            )
        if e.shape[1] > e.shape[0]:
            raise DimensionMismatch("embedding cannot have more columns than rows")
        self.embedding = e
        gram = e.T @ (parent.gramian @ e)
        self.gram_sub = 0.5 * (gram + gram.T)
        # cholesky rejects rank-deficient embeddings (NotSpd)
        self.fact = cholesky(self.gram_sub, "subspace Gramian")
        self.dim = e.shape[1]

    def norm(self, c):
        c = np.asarray(c, dtype=float)
        return float(np.sqrt(max(c @ (self.gram_sub @ c), 0.0)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, truth_dim={self.parent.dim})"


@dataclass(frozen=True)
class Functional:
    """Element of the truth dual space, stored as actions on the truth basis."""

    action: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.action, dtype=float)
        if a.ndim != 1:
            raise DimensionMismatch("functional action must be a vector")
        if not np.all(np.isfinite(a)):
            raise ValueError("functional action contains non-finite entries")
        object.__setattr__(self, "action", a)

    @property
    def dim(self):
        return self.action.shape[0]


@dataclass(frozen=True)
class DualBasis:
    """Action vectors (columns) of the functionals biorthogonal to a subspace basis."""

    reps: np.ndarray


def _check_space(space, f):
    if f.dim != space.dim:
        raise DimensionMismatch(f"functional dim {f.dim} does not match space dim {space.dim}")


def orthogonal_project(sub, x):
    """Coefficients of the truth-orthogonal projection of x onto the subspace.

    Solves (EᵀGE) c = EᵀG x; the projected element in truth coordinates is
    ``sub.embedding @ c``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (sub.parent.dim,):
        raise DimensionMismatch(f"vector of shape {x.shape} is not in the truth space")
    return spd_solve(sub.fact, sub.embedding.T @ (sub.parent.gramian @ x))


def dual_norm(space, f):
    """Dual norm sup ⟨f, v⟩ / ‖v‖ = (fᵀ G⁻¹ f)^½."""
    _check_space(space, f)
    val = f.action @ spd_solve(space.fact, f.action)
    return float(np.sqrt(max(val, 0.0)))


def dual_basis(sub):
    """Biorthogonal dual basis of the subspace: reps = G E (EᵀGE)⁻¹."""
    t = sub.parent.gramian @ sub.embedding
    reps = spd_solve(sub.fact, t.T).T
    return DualBasis(reps=reps)


def adjoint_project(sub, f, basis=None):
    """Adjoint projection P* f = Σ ⟨f, e_n⟩ η̃_n on the dual side.

    The coefficients in the dual basis are exactly Eᵀ f, so the action vector
    of P* f is ``reps @ (Eᵀ f)``.
    """
    _check_space(sub.parent, f)
    if basis is None:
        basis = dual_basis(sub)
    return Functional(basis.reps @ (sub.embedding.T @ f.action))
