"""1D mixed model on (0, 1): P1 velocity with dyadically nested meshes.

The truth velocity space is P1 on a fine uniform mesh with homogeneous
Dirichlet conditions; its Gramian G is the H¹₀ stiffness matrix, and the
a-form is A = G + r·M with the interior mass matrix M and the reaction
coefficient r.  G and M are tridiagonal, and the truth record
(``TruthRecord``) keeps A split into both as bands (``BandedTruthSpace``):
a level builds no n × n truth matrix, and G's Gram of a nested P1 space stays
exact.  alpha and ‖A‖ are 1 + r·μ_min and 1 + r·μ_max of the pencil (M, G),
whose spectrum is known in closed form on the uniform mesh (``truth_record``),
so no eigensolve runs at any r; both are exactly 1 at r = 0, where A is the
scalar product.  Every problem a configuration builds owns that record, and
``saddle`` reads it only through its space, its Grams of A, alpha and ‖A‖.
The pressure basis lives on the coarse mesh (P1-continuous or P0) and couples
to truth velocities through the exact constraint matrix of b(q, v) = ∫ q v'.
Every coarse basis is read through one evaluator, ``coarse_basis``, the
(index, value) pairs of the basis functions nonzero at a point: the P1
prolongation stores them at the truth nodes, B_T reads them at the
truth-element midpoints and the constraint rhs at its Gauss points.  Data for
a manufactured solution are assembled by 5-point Gauss quadrature per truth
element, which is exact to machine precision at these mesh sizes.

The auxiliary space W is P1 on a nested mesh from the coarse to the truth
mesh.  ``ModelConfig.w_elems`` resolves ``w_kind`` to its element count, and
``build_spaces`` and the dense limit, which guards a W that spans the truth
mesh, read only that count, not the spelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import DimensionMismatch, band_to_dense
from .dualprod import DualProduct, make_stiffness, stiffness_scale
from .hilbert import BandedTruthSpace, Embedding, Functional, Subspace, TruthSpace
# error_norms is defined beside quasi_optimality, which shares it
from .saddle import Discretization, SaddleProblem, error_norms  # noqa: F401

# the 5-point Gauss-Legendre rule on [-1, 1]: the round-trip values of
# numpy.polynomial.legendre.leggauss(5), which would cost every command the
# numpy.polynomial import; the closed forms (128/225, ...) differ in last bits
GAUSS_NODES = (-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664)
GAUSS_WEIGHTS = (0.23692688505618928, 0.4786286704993663, 0.5688888888888887, 0.4786286704993663,
                 0.23692688505618928)

# Largest truth mesh of a W that spans it (w = truth, or a refined:k or same
# that reaches it), such as the maximal system of condense-check, which builds
# n × n truth matrices: at truth 2048 the heaviest one, coarse_elems = 2048
# with P1 pressures and w = same, peaks at 668 MB of RSS (2 cores, one BLAS
# thread) and exits 3 after 11–13 s, when its 6142² maximal system screens
# singular at rcond 6.0e-13.
DENSE_TRUTH_LIMIT = 2048


class NestingViolated(Exception):
    """Mesh pair fails the dyadic nesting requirements."""


def _is_pow2(n):
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ManufacturedSolution:
    """Smooth exact pair (u, p) with the velocity derivative supplied."""

    u: Callable[[np.ndarray], np.ndarray]
    du: Callable[[np.ndarray], np.ndarray]
    p: Callable[[np.ndarray], np.ndarray]


def default_solution():
    """u = sin(πx), p = cos(πx); p has zero mean on (0, 1)."""
    return ManufacturedSolution(
        u=lambda x: np.sin(np.pi * x),
        du=lambda x: np.pi * np.cos(np.pi * x),
        p=lambda x: np.cos(np.pi * x),
    )


@dataclass(frozen=True)
class ModelConfig:
    """Full description of one configured model, validated when it is built."""

    truth_elems: int = 256
    coarse_elems: int = 16
    pressure_kind: str = "p1"
    w_kind: str = "refined:2"
    s_choice: str = "gramian"
    gamma: float = 0.1
    reaction: float = 0.0

    def __post_init__(self):
        if not _is_pow2(self.truth_elems) or not _is_pow2(self.coarse_elems):
            raise NestingViolated("element counts must be powers of two ≥ 2")
        if 16 * (self.truth_elems - 1) > np.iinfo(np.intp).max:
            raise ValueError(f"truth_elems = {self.truth_elems}: numpy cannot size its truth band")
        if self.coarse_elems > self.truth_elems:
            raise NestingViolated("coarse mesh cannot be finer than the truth mesh")
        if self.pressure_kind not in ("p1", "p0"):
            raise ValueError(f"pressure_kind must be 'p1' or 'p0', got {self.pressure_kind!r}")
        w_elems = self.w_elems()  # validates w_kind and nesting
        stiffness_scale(self.s_choice)  # the parser make_stiffness uses
        if not np.isfinite(self.gamma) or self.gamma < 0.0:
            raise ValueError("gamma must be a finite nonnegative real")
        if not np.isfinite(self.reaction) or self.reaction < 0.0:
            raise ValueError("reaction coefficient must be a finite nonnegative real")
        if w_elems == self.truth_elems:
            require_dense_truth(self.truth_elems, f"w = {self.w_kind}")

    def w_elems(self):
        """Element count of the auxiliary mesh implied by w_kind."""
        kind = self.w_kind
        if kind == "truth":
            return self.truth_elems
        if kind == "same":
            return self.coarse_elems
        if kind.startswith("refined:"):
            try:
                factor = int(kind.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"w_kind: invalid refinement factor in {kind!r}") from None
            if factor < 1:
                raise ValueError(f"w_kind: refinement factor must be ≥ 1, got {kind!r}")
            n = self.coarse_elems * factor
            if n > self.truth_elems or self.truth_elems % n != 0:
                raise NestingViolated(
                    f"auxiliary mesh with {n} elements does not nest into truth mesh "
                    f"with {self.truth_elems}"
                )
            return n
        raise ValueError(f"w_kind must be 'refined:<k>', 'truth' or 'same', got {kind!r}")


def require_dense_truth(truth_elems, path):
    """ValueError naming truth_elems and the dense ``path`` above DENSE_TRUTH_LIMIT."""
    if truth_elems > DENSE_TRUTH_LIMIT:
        raise ValueError(
            f"truth_elems = {truth_elems} is above {DENSE_TRUTH_LIMIT}, the dense limit of "
            f"{path}, which builds n × n truth matrices"
        )


# ---------------------------------------------------------------------------
# exact element matrices, in LAPACK upper band storage and dense


def _tridiagonal_band(n, main, off):
    """Band of the (n−1) × (n−1) symmetric Toeplitz tridiagonal with entries main, off."""
    band = np.empty((2, n - 1))
    band[0, 0] = 0.0  # not referenced
    band[0, 1:] = off
    band[1] = main
    return band


def p1_stiffness_band(n):
    """Band of the H¹₀ stiffness matrix of P1 on n uniform elements (interior nodes)."""
    return _tridiagonal_band(n, 2.0 * n, -1.0 * n)


def p1_interior_mass_band(n):
    """Band of the L² mass matrix of interior P1 hats on n uniform elements."""
    h = 1.0 / n
    return _tridiagonal_band(n, 2.0 * h / 3.0, h / 6.0)


def p1_interior_mass(n):
    """L² mass matrix of interior P1 hats on n uniform elements."""
    return band_to_dense(p1_interior_mass_band(n))


def pressure_mass(n, kind):
    """L² Gramian of the pressure basis on n uniform elements."""
    h = 1.0 / n
    if kind == "p0":
        return h * np.eye(n)
    main = np.full(n + 1, 2.0 * h / 3.0)
    main[0] = main[-1] = h / 3.0
    off = np.full(n, h / 6.0)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def nested_ratio(truth_elems, coarse_elems):
    """Truth elements per coarse cell; NestingViolated unless the meshes nest."""
    if truth_elems % coarse_elems != 0:
        raise NestingViolated(f"{coarse_elems} elements do not nest into {truth_elems}")
    return truth_elems // coarse_elems


def coarse_basis(x, coarse_elems, kind):
    """(index, value) of the coarse basis functions nonzero at points x of [0, 1].

    Point x lies in coarse cell c = ⌊x·m⌋ (the last cell at x = 1), at local
    coordinate t = x·m − c, where only the P1 hats of the padded nodes c and
    c + 1, with the values 1 − t and t, or the P0 indicator of c, with the
    value 1, are nonzero: two columns each for ``kind == "p1"``, one for P0.
    """
    x = np.asarray(x, dtype=float)
    cell = np.clip((x * coarse_elems).astype(int), 0, coarse_elems - 1)
    if kind != "p1":
        return cell[:, None], np.ones((cell.size, 1))
    # built as rows, so that each pair column is contiguous; t = x·m − c in place
    index, value = np.stack([cell, cell + 1]), np.empty((2, cell.size))
    np.subtract(np.multiply(x, coarse_elems, out=value[1]), cell, out=value[1])
    np.subtract(1.0, value[1], out=value[0])
    return index.T, value.T


class P1Prolongation(Embedding):
    """Embedding of interior P1 hats on a nested coarser mesh into truth P1.

    Exact because a coarse hat is linear on every truth element.  Row i of E
    is the ``coarse_basis`` pair of truth node i: padded coarse nodes
    ``index[i]`` (0 to sub_elems) and hat values ``value[i]``.  E c gathers
    two terms per node from the zero-padded coefficients, Eᵀ y reshapes the
    nodes into (cell, local node) blocks of r = truth_elems / sub_elems, both
    in O(n·k) for k columns, and the Gram of a banded M sums the four hat
    products of each band entry with ``np.bincount``, in O(n).
    """

    def __init__(self, truth_elems, sub_elems):
        self.ratio = nested_ratio(truth_elems, sub_elems)
        self.sub_elems = sub_elems
        self.shape = (truth_elems - 1, sub_elems - 1)
        nodes = np.arange(1, truth_elems) / truth_elems
        self.index, self.value = coarse_basis(nodes, sub_elems, "p1")

    def apply(self, c):
        c = np.asarray(c, dtype=float)
        padded = np.zeros((self.sub_elems + 1,) + c.shape[1:])
        padded[1:-1] = c
        value = self.value.reshape(self.value.shape + (1,) * (c.ndim - 1))
        return value[:, 0] * padded[self.index[:, 0]] + value[:, 1] * padded[self.index[:, 1]]

    def apply_t(self, y):
        y = np.asarray(y, dtype=float)
        r = self.ratio
        t = np.arange(r) / r  # the local coordinates of one cell's nodes
        rows = y.reshape(y.shape[0], -1)
        blocks = rows[r - 1 :].reshape(self.shape[1], r, -1)
        # cell 0 holds truth nodes 1..r−1 and cell j ≥ 1 nodes j·r..j·r + r − 1;
        # coarse node j is the left hat of cell j and the right hat of cell j − 1
        out = (1.0 - t) @ blocks
        out[0] += t[1:] @ rows[: r - 1]
        out[1:] += (t @ blocks)[:-1]
        return out.reshape((self.shape[1],) + y.shape[1:])

    def band_gram(self, band, other):
        if not isinstance(other, P1Prolongation):
            return other.band_gram(band, self).T
        u = band.shape[0] - 1
        n, size = self.shape[0], other.sub_elems + 1
        gram = np.zeros((self.sub_elems + 1) * size)
        for d in range(-u, u + 1):
            # M[i, i + d] for lo ≤ i < hi; M is symmetric, band[u − |d|] holds both
            lo, hi = max(0, -d), n - max(0, d)
            m = band[u - abs(d), abs(d) :]
            ja, wa = self.index[lo:hi], self.value[lo:hi]
            jb, wb = other.index[lo + d : hi + d], other.value[lo + d : hi + d]
            index = ja[:, :, None] * size + jb[:, None, :]
            value = (wa * m[:, None])[:, :, None] * wb[:, None, :]
            gram += np.bincount(index.ravel(), value.ravel(), gram.size)
        return gram.reshape(-1, size)[1:-1, 1:-1]

    def to_dense(self):
        e = np.zeros((self.shape[0], self.sub_elems + 1))
        e[np.arange(self.shape[0])[:, None], self.index] = self.value
        return np.ascontiguousarray(e[:, 1:-1])


def prolongation_p1(truth_elems, sub_elems):
    """The n × m matrix of ``P1Prolongation(truth_elems, sub_elems)``."""
    return P1Prolongation(truth_elems, sub_elems).to_dense()


def constraint_matrix(truth_elems, coarse_elems, kind):
    """Exact matrix of b(q, v) = ∫ q v' for truth hats v and coarse pressures q.

    Truth hat i + 1 has slope n on element i and −n on element i + 1, so
    b(ψ, φ_{i+1}) is ψ's mean on element i minus its mean on i + 1; a nested
    pressure is linear on each truth element, so a mean is its midpoint value.
    Row i is Ψ(mid_i) − Ψ(mid_{i+1}), from the midpoints' ``coarse_basis``.
    """
    nested_ratio(truth_elems, coarse_elems)
    mids = (np.arange(truth_elems) + 0.5) / truth_elems
    index, value = coarse_basis(mids, coarse_elems, kind)
    # a P1 basis has one function more than the mesh has cells, P0 none
    b = np.zeros((truth_elems - 1, coarse_elems + index.shape[1] - 1))
    rows = np.arange(truth_elems - 1)[:, None]
    b[rows, index[:-1]] = value[:-1]
    b[rows, index[1:]] -= value[1:]
    return b


# ---------------------------------------------------------------------------
# quadrature-assembled data


def _gauss_on_elements(n):
    """Gauss points and weights per element of a uniform n-element mesh."""
    gx, gw = np.array(GAUSS_NODES), np.array(GAUSS_WEIGHTS)
    elems = np.arange(n)[:, None]
    pts = (elems + 0.5 * (gx[None, :] + 1.0)) / n
    wts = np.broadcast_to(gw[None, :] / (2.0 * n), pts.shape)
    return pts, wts


def load_vector(truth_elems, solution, reaction):
    """Truth actions ⟨F, φ_i⟩ = ∫ (u' − p) φ_i' + reaction ∫ u φ_i."""
    n = truth_elems
    pts, wts = _gauss_on_elements(n)
    flux = n * ((solution.du(pts) - solution.p(pts)) * wts).sum(axis=1)
    # per element: ascending hat (node t+1) and descending hat (node t)
    asc = flux.copy()
    desc = -flux
    if reaction != 0.0:
        x_left = np.arange(n)[:, None] / n
        react = reaction * solution.u(pts) * wts
        asc = asc + n * (react * (pts - x_left)).sum(axis=1)
        desc = desc + n * (react * (x_left + 1.0 / n - pts)).sum(axis=1)
    return asc[:-1] + desc[1:]


def constraint_rhs(truth_elems, coarse_elems, kind, solution):
    """Pressure actions ⟨G, ψ_ℓ⟩ = ∫ ψ_ℓ u'.

    Each Gauss point's weighted u' goes to its ``coarse_basis`` pairs, with
    one ``np.bincount`` per pair column.
    """
    nested_ratio(truth_elems, coarse_elems)
    pts, wts = _gauss_on_elements(truth_elems)
    vals = (solution.du(pts) * wts).ravel()
    index, value = coarse_basis(pts.ravel(), coarse_elems, kind)
    size = coarse_elems + index.shape[1] - 1
    return sum(np.bincount(nodes, vals * weights, size) for nodes, weights in zip(index.T, value.T))


def exact_coefficients(cfg, solution):
    """Interpolants of the exact pair: truth velocity nodes, pressure dofs."""
    n, nc = cfg.truth_elems, cfg.coarse_elems
    x = solution.u(np.arange(1, n) / n)
    if cfg.pressure_kind == "p1":
        y = solution.p(np.arange(nc + 1) / nc)
    else:
        y = solution.p((np.arange(nc) + 0.5) / nc)
    return x, y


# ---------------------------------------------------------------------------
# problem and discretization builders


def build_truth(cfg):
    """Assemble the truth-level mixed problem for a configuration."""
    return build_level(cfg, truth_record(cfg))


@dataclass(frozen=True)
class TruthRecord:
    """Truth space and the split a-form A = G + reaction·M, shared by every level.

    M is the Gramian of ``mass``, a truth space on the same basis, None at
    reaction 0.  ``gram`` and ``sub_gram`` add G's and M's Grams and form no A,
    since G's Gram of a nested P1 space is exact and one band of G + reaction·M
    is not.  alpha (the least eigenvalue of (sym A, G)) and norm_A (‖A‖) are
    Python floats, 1 ≤ alpha ≤ norm_A < ∞, checked with the rest when it is built.
    """

    space: TruthSpace
    reaction: float
    mass: TruthSpace | None
    alpha: float
    norm_A: float

    def __post_init__(self):
        if not isinstance(self.space, TruthSpace):
            raise TypeError("space must be a TruthSpace")
        if not np.isfinite(self.reaction) or self.reaction < 0.0:
            raise ValueError("reaction coefficient must be a finite nonnegative real")
        if self.reaction > 0.0 and not isinstance(self.mass, TruthSpace):
            raise TypeError("mass must be a TruthSpace on the basis of the truth space")
        if self.reaction > 0.0 and self.mass.dim != self.space.dim:
            raise DimensionMismatch("mass matrix does not match the truth space")
        alpha, norm_a = self.alpha, self.norm_A
        if {type(alpha), type(norm_a)} != {float} or not 1.0 <= alpha <= norm_a < np.inf:
            raise ValueError("alpha and norm_A must be floats with 1 <= alpha <= norm_A < inf")

    def gram(self, e, f=None):
        """Eᵀ A F of two embeddings, or E's Gramian without F: G's Gram plus reaction·M's."""
        g = self.space.gram(e, f)
        return g if self.reaction == 0.0 else g + self.reaction * self.mass.gram(e, f)

    def sub_gram(self, sub):
        """Eᵀ A E of a Subspace of ``space``: its own G-Gram ``gram_sub`` plus reaction·M's.

        ``gram_sub`` comes from the same ``space.gram`` call as ``gram(sub.op)``,
        so the two agree bit for bit; at reaction 0 it is returned itself.
        """
        g = sub.gram_sub
        return g if self.reaction == 0.0 else g + self.reaction * self.mass.gram(sub.op)


def truth_record(cfg):
    """TruthRecord of the split a-form A = G + reaction·M of a configuration.

    G is the H¹₀ stiffness and M the interior P1 mass on the truth mesh, both
    kept as bands; M is not assembled at reaction 0.  M and G share the
    discrete sine eigenvectors, so the pencil (M, G) has the closed form

        μ_k = (2 + cos θ_k) / (12 n² sin²(θ_k/2)),   θ_k = kπ/n,

    smallest at k = n − 1 and largest at k = 1: alpha and norm_A need no
    solve.  They depend only on ``truth_elems`` and ``reaction``, so every
    coarse level of a run shares one record through ``build_level``.
    """
    n, r = cfg.truth_elems, float(cfg.reaction)
    space = BandedTruthSpace(p1_stiffness_band(n))
    if r == 0.0:
        return TruthRecord(space, 0.0, None, 1.0, 1.0)
    theta = np.array([n - 1, 1]) * np.pi / n
    mu_min, mu_max = (2.0 + np.cos(theta)) / (12.0 * n * n * np.sin(theta / 2.0) ** 2)
    mass = BandedTruthSpace(p1_interior_mass_band(n))
    return TruthRecord(space, r, mass, 1.0 + r * float(mu_min), 1.0 + r * float(mu_max))


def build_level(cfg, truth):
    """Assemble the mixed problem of one coarse level on a shared TruthRecord."""
    solution = default_solution()
    n = cfg.truth_elems
    b_form = constraint_matrix(n, cfg.coarse_elems, cfg.pressure_kind)
    q_gram = pressure_mass(cfg.coarse_elems, cfg.pressure_kind)
    load = Functional(load_vector(n, solution, reaction=cfg.reaction))
    g_rhs = constraint_rhs(n, cfg.coarse_elems, cfg.pressure_kind, solution)
    return SaddleProblem(truth, b_form, q_gram, load, g_rhs)


def build_spaces(cfg, pb):
    """Build (U, W, dual product, gamma) for a configuration and problem.

    U and W are the subspaces of their P1Prolongation: each stores two arrays
    of truth length and its m × m Gramian, so a level's spaces take O(n + m²)
    memory, and U nests in W because W's mesh refines U's.
    """
    u_sub = Subspace(pb.truth, P1Prolongation(cfg.truth_elems, cfg.coarse_elems))
    w_elems = cfg.w_elems()
    if w_elems == cfg.coarse_elems:
        w_sub = u_sub
    else:
        w_sub = Subspace(pb.truth, P1Prolongation(cfg.truth_elems, w_elems))
    dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, cfg.s_choice))
    return Discretization(pb, u_sub, dp, cfg.gamma)
