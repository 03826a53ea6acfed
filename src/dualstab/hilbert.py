"""Truth space, subspaces, functionals, and the biorthogonal dual basis.

The continuous Hilbert space V is represented by a fine "truth" space with an
SPD Gramian G; every dual-space quantity in the package is measured against
it.  The truth space is used only through its operator: products with G
(``apply``, ``gram``, ``norm``) and solves with it (``solve``).  Its Gramian
is stored dense (``TruthSpace``) or, when it is banded as on a P1 mesh, in
band storage (``BandedTruthSpace``), where a product and a solve cost O(n).
A subspace is a full-rank column embedding E into truth coordinates, and it
too is used only through its operator (``Embedding``): the products E c and
Eᵀ y, and the Gram Eᵀ M F of two embeddings against a truth Gramian M, which
the truth space forms (``gram``).  A subspace forms its Gram EᵀGE when it is
built, and factors it on the first solve with it (``fact``), as the banded
truth space does: a command that only multiplies by a Gram never factors
it.  A caller's dense embedding is factored at once, so a rank-deficient
one is rejected when its subspace is built.  ``DenseEmbedding`` stores E as
a matrix; the nested P1 prolongation ``models.P1Prolongation``, with at most
two nonzeros per truth row, gives the products and the Gram of a banded M
in O(n) and forms no n × m matrix.  A functional is its vector of actions on
the truth basis, and the dual basis of a subspace consists of the
functionals biorthogonal to its columns:

    reps = G E (EᵀGE)⁻¹,   so   repsᵀ E = I.

With those, the truth-orthogonal projector P onto the subspace and its adjoint
P* (a projector on the dual side) are products with E, Eᵀ, G and (EᵀGE)⁻¹.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    DimensionMismatch,
    as_matrix,
    band_apply,
    cholesky,
    cholesky_band,
    require_symmetric,
    spd_solve,
    symmetrized,
)


class TruthSpace:
    """Reference space: an SPD Gramian fixing norm and dual norm, stored dense."""

    def __init__(self, gramian):
        self.gramian = require_symmetric(gramian, "truth Gramian")
        self.fact = cholesky(self.gramian, "truth Gramian")
        self.dim = self.gramian.shape[0]

    def apply(self, x):
        """G x, for a truth vector or a matrix of truth columns."""
        return self.gramian @ x

    def solve(self, rhs):
        """G⁻¹ rhs, for a vector or a matrix of stacked right-hand sides."""
        return spd_solve(self.fact, rhs)

    def gram(self, e, f=None):
        """Eᵀ G F of two embeddings, or the Gramian Eᵀ G E, symmetrized, without F.

        ``e`` and ``f`` are Embeddings or matrices.
        """
        e = _as_embedding(e)
        if f is None:
            return symmetrized(self._cross(e, e))
        return self._cross(e, _as_embedding(f))

    def _cross(self, e, f):
        # F is reached through Fᵀ G, which is (G F)ᵀ because G is symmetric
        return e.apply_t(f.apply_t(self.gramian).T)

    def norm(self, x):
        """Norm induced by the Gramian."""
        x = np.asarray(x, dtype=float)
        return float(np.sqrt(max(x @ self.apply(x), 0.0)))


class BandedTruthSpace(TruthSpace):
    """Truth space whose Gramian is banded, given in LAPACK upper band storage.

    No n × n matrix is formed: products are O(n) per column, and the banded
    Cholesky factor ``fact`` is computed on first solve, under the pivot
    screen of ``algebra.cholesky`` (NotSpd for a singular band).
    """

    def __init__(self, band):
        self.band = as_matrix(band, "truth Gramian band")
        self.dim = self.band.shape[1]

    @cached_property
    def fact(self):
        return cholesky_band(self.band, "truth Gramian")

    def apply(self, x):
        return band_apply(self.band, x)

    def _cross(self, e, f):
        return e.band_gram(self.band, f)


class Embedding:
    """An n × m embedding E of subspace coordinates into truth coordinates.

    It is read only through its products, each for a vector or for stacked
    columns: ``apply(c)`` is E c, ``apply_t(y)`` is Eᵀ y, and
    ``band_gram(band, other)`` is Eᵀ M F for a symmetric M in LAPACK upper band
    storage and another Embedding F.  ``to_dense()`` forms the n × m matrix.
    ``shape`` is (n, m).
    """

    shape: tuple


class DenseEmbedding(Embedding):
    """An embedding stored as its n × m matrix."""

    def __init__(self, matrix):
        self.matrix = as_matrix(matrix, "embedding")
        self.shape = self.matrix.shape

    def apply(self, c):
        return self.matrix @ c

    def apply_t(self, y):
        return self.matrix.T @ y

    def band_gram(self, band, other):
        # M E is as dense as E, so F is reached through Fᵀ (M E) = (Eᵀ M F)ᵀ
        return other.apply_t(band_apply(band, self.matrix)).T

    def to_dense(self):
        return self.matrix


def _as_embedding(e):
    """``e`` itself if it is an Embedding, else the DenseEmbedding of the matrix ``e``."""
    return e if isinstance(e, Embedding) else DenseEmbedding(e)


class Subspace:
    """Subspace given by a full-column-rank embedding into truth coordinates.

    ``embedding`` is an Embedding or a matrix, which becomes a DenseEmbedding;
    either is kept as ``op``, and the package reads the subspace through it:
    ``embed(c)`` is E c, ``restrict(y)`` is Eᵀ y, and ``gram_sub`` is the truth
    space's Gram of ``op``.  The ``embedding`` property forms the n × m matrix
    of a structured ``op`` on each read.  ``fact``, the Cholesky factor of
    ``gram_sub``, is computed on first read; a DenseEmbedding's is computed
    when the subspace is built, so a rank-deficient matrix raises NotSpd
    there.  A structured embedding has full rank by construction.
    """

    def __init__(self, parent, embedding):
        self.parent = parent
        op = _as_embedding(embedding)
        n, m = op.shape
        if n != parent.dim:
            raise DimensionMismatch(f"embedding has {n} rows, truth space has dim {parent.dim}")
        if m > n:
            raise DimensionMismatch("embedding cannot have more columns than rows")
        self.op = op
        self.gram_sub = parent.gram(op)
        self.dim = m
        if isinstance(op, DenseEmbedding):
            self.fact  # cholesky rejects a rank-deficient matrix (NotSpd)

    @cached_property
    def fact(self):
        return cholesky(self.gram_sub, "subspace Gramian")

    def solve(self, rhs):
        """G_S⁻¹ rhs on the subspace's own Gram, so that it reads as a truth space of its own."""
        return spd_solve(self.fact, rhs)

    @property
    def embedding(self):
        """The n × m matrix E."""
        return self.op.to_dense()

    def embed(self, c):
        """E c: truth coordinates of subspace coefficients (a vector or stacked columns)."""
        return self.op.apply(c)

    def restrict(self, y):
        """Eᵀ y: the actions of truth functionals (a vector or stacked columns) on the basis."""
        return self.op.apply_t(y)

    def norm(self, c):
        c = np.asarray(c, dtype=float)
        return float(np.sqrt(max(c @ (self.gram_sub @ c), 0.0)))


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
    ``sub.embed(c)``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (sub.parent.dim,):
        raise DimensionMismatch(f"vector of shape {x.shape} is not in the truth space")
    return spd_solve(sub.fact, sub.restrict(sub.parent.apply(x)))


def dual_norm(space, f):
    """Dual norm sup ⟨f, v⟩ / ‖v‖ = (fᵀ G⁻¹ f)^½."""
    _check_space(space, f)
    val = f.action @ space.solve(f.action)
    return float(np.sqrt(max(val, 0.0)))


def dual_basis(sub):
    """Biorthogonal dual basis of the subspace: reps = G E (EᵀGE)⁻¹, formed as G (E (EᵀGE)⁻¹)."""
    inverse = spd_solve(sub.fact, np.eye(sub.dim))
    return DualBasis(reps=sub.parent.apply(sub.embed(inverse)))


def adjoint_project(sub, f, basis=None):
    """Adjoint projection P* f = Σ ⟨f, e_n⟩ η̃_n on the dual side.

    The coefficients in the dual basis are exactly Eᵀ f, so the action vector
    of P* f is ``reps @ (Eᵀ f)``.
    """
    _check_space(sub.parent, f)
    if basis is None:
        basis = dual_basis(sub)
    return Functional(basis.reps @ sub.restrict(f.action))
