"""1D mixed model on (0, 1): P1 velocity with dyadically nested meshes.

The truth velocity space is P1 on a fine uniform mesh with homogeneous
Dirichlet conditions; its Gramian G is the H¹₀ stiffness matrix, and the
a-form is A = G + r·M with the interior mass matrix M and the reaction
coefficient r.  The truth record is built from that split: alpha and ‖A‖ are
1 + r·μ_min and 1 + r·μ_max of the pencil (M, G), exactly 1 at r = 0, where
A is the scalar product and no eigensolve runs.  The pressure basis lives on
the coarse mesh (P1-continuous or P0) and couples to truth velocities through
the exact constraint matrix

    b(q, v) = ∫ q v',

which is closed-form for nested piecewise-linear/constant bases.  Data for a
manufactured solution are assembled by 5-point Gauss quadrature per truth
element, which is exact to machine precision at these mesh sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dualprod import DualProduct, make_stiffness
from .hilbert import Functional, Subspace, TruthSpace
# error_norms is defined beside quasi_optimality, which shares it
from .saddle import Discretization, SaddleProblem, error_norms, split_truth  # noqa: F401

GAUSS_POINTS = 5


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
    name: str = ""


def default_solution():
    """u = sin(πx), p = cos(πx); p has zero mean on (0, 1)."""
    return ManufacturedSolution(
        u=lambda x: np.sin(np.pi * x),
        du=lambda x: np.pi * np.cos(np.pi * x),
        p=lambda x: np.cos(np.pi * x),
        name="sin-cos",
    )


@dataclass(frozen=True)
class ModelConfig:
    """Full description of one configured model."""

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
        if self.coarse_elems > self.truth_elems:
            raise NestingViolated("coarse mesh cannot be finer than the truth mesh")
        if self.pressure_kind not in ("p1", "p0"):
            raise ValueError(f"pressure_kind must be 'p1' or 'p0', got {self.pressure_kind!r}")
        self.w_elems()  # validates w_kind and nesting
        if not np.isfinite(self.gamma) or self.gamma < 0.0:
            raise ValueError("gamma must be a finite nonnegative real")
        if not np.isfinite(self.reaction) or self.reaction < 0.0:
            raise ValueError("reaction coefficient must be a finite nonnegative real")

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
                raise ValueError(f"invalid w_kind {kind!r}") from None
            if factor < 1:
                raise ValueError("refinement factor must be ≥ 1")
            n = self.coarse_elems * factor
            if n > self.truth_elems or self.truth_elems % n != 0:
                raise NestingViolated(
                    f"auxiliary mesh with {n} elements does not nest into truth mesh "
                    f"with {self.truth_elems}"
                )
            return n
        raise ValueError(f"w_kind must be 'refined:<k>', 'truth' or 'same', got {kind!r}")


# ---------------------------------------------------------------------------
# exact element matrices


def p1_stiffness(n):
    """H¹₀ stiffness matrix of P1 on n uniform elements (interior nodes)."""
    main = np.full(n - 1, 2.0 * n)
    off = np.full(n - 2, -1.0 * n)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def p1_interior_mass(n):
    """L² mass matrix of interior P1 hats on n uniform elements."""
    h = 1.0 / n
    main = np.full(n - 1, 2.0 * h / 3.0)
    off = np.full(n - 2, h / 6.0)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def pressure_mass(n, kind):
    """L² Gramian of the pressure basis on n uniform elements."""
    h = 1.0 / n
    if kind == "p0":
        return h * np.eye(n)
    main = np.full(n + 1, 2.0 * h / 3.0)
    main[0] = main[-1] = h / 3.0
    off = np.full(n, h / 6.0)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def prolongation_p1(truth_elems, sub_elems):
    """Embedding of interior P1 hats on a nested coarser mesh into truth P1.

    Exact because a coarse hat is linear on every truth element; the embedding
    column is simply the hat evaluated at the truth nodes.
    """
    if truth_elems % sub_elems != 0:
        raise NestingViolated(f"{sub_elems} elements do not nest into {truth_elems}")
    xi = np.arange(1, truth_elems) / truth_elems
    xc = np.arange(1, sub_elems) / sub_elems
    return np.maximum(0.0, 1.0 - np.abs(xi[:, None] - xc[None, :]) * sub_elems)


def constraint_matrix(truth_elems, coarse_elems, kind):
    """Exact matrix of b(q, v) = ∫ q v' for truth hats v and coarse pressures q."""
    if truth_elems % coarse_elems != 0:
        raise NestingViolated(f"{coarse_elems} elements do not nest into {truth_elems}")
    if kind == "p1":
        xi = np.linspace(0.0, 1.0, truth_elems + 1)
        xc = np.arange(coarse_elems + 1) / coarse_elems
        psi = np.maximum(0.0, 1.0 - np.abs(xi[:, None] - xc[None, :]) * coarse_elems)
        return 0.5 * (psi[:-2] - psi[2:])
    # P0: each truth element lies inside exactly one coarse element
    parent = np.arange(truth_elems) * coarse_elems // truth_elems
    left = parent[:-1]
    right = parent[1:]
    b = np.zeros((truth_elems - 1, coarse_elems))
    rows = np.arange(truth_elems - 1)
    np.add.at(b, (rows, left), 1.0)
    np.add.at(b, (rows, right), -1.0)
    return b


# ---------------------------------------------------------------------------
# quadrature-assembled data


def _gauss_on_elements(n):
    """Gauss points and weights per element of a uniform n-element mesh."""
    gx, gw = np.polynomial.legendre.leggauss(GAUSS_POINTS)
    elems = np.arange(n)[:, None]
    pts = (elems + 0.5 * (gx[None, :] + 1.0)) / n
    wts = np.broadcast_to(gw[None, :] / (2.0 * n), pts.shape)
    return pts, wts


def load_vector(truth_elems, solution, reaction=0.0):
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
    """Pressure actions ⟨G, ψ_ℓ⟩ = ∫ ψ_ℓ u'."""
    pts, wts = _gauss_on_elements(truth_elems)
    vals = (solution.du(pts) * wts).ravel()
    x = pts.ravel()
    if kind == "p1":
        xc = np.arange(coarse_elems + 1) / coarse_elems
        psi = np.maximum(0.0, 1.0 - np.abs(x[:, None] - xc[None, :]) * coarse_elems)
        return psi.T @ vals
    idx = np.clip((x * coarse_elems).astype(int), 0, coarse_elems - 1)
    out = np.zeros(coarse_elems)
    np.add.at(out, idx, vals)
    return out


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


def _problem(cfg, truth):
    solution = default_solution()
    n = cfg.truth_elems
    b_form = constraint_matrix(n, cfg.coarse_elems, cfg.pressure_kind)
    q_gram = pressure_mass(cfg.coarse_elems, cfg.pressure_kind)
    load = Functional(load_vector(n, solution, reaction=cfg.reaction))
    g_rhs = constraint_rhs(n, cfg.coarse_elems, cfg.pressure_kind, solution)
    label = f"{cfg.pressure_kind}-{cfg.coarse_elems}-on-{n}"
    return SaddleProblem(truth.space, truth.a_form, b_form, q_gram, load, g_rhs, label=label)


def build_truth(cfg):
    """Assemble the truth-level mixed problem for a configuration."""
    return _problem(cfg, truth_record(cfg))


def truth_record(cfg):
    """Truth record of the split a-form A = G + reaction·M of a configuration.

    G is the H¹₀ stiffness and M the interior P1 mass on the truth mesh; M is
    not assembled at reaction 0.  alpha and norm_A are computed on first read
    from the pencil (M, G), and are exactly 1 at reaction 0.  They depend only
    on ``truth_elems`` and ``reaction``, so every coarse level of a run shares
    one record through ``build_level``.
    """
    n = cfg.truth_elems
    mass = None if cfg.reaction == 0.0 else p1_interior_mass(n)
    return split_truth(TruthSpace(p1_stiffness(n), label=f"p1-h10-{n}"), cfg.reaction, mass)


def build_level(cfg, truth):
    """Assemble the mixed problem of one coarse level on a shared TruthRecord."""
    return _problem(cfg, truth)


def build_spaces(cfg, pb):
    """Build (U, W, dual product, gamma) for a configuration and problem."""
    u_sub = Subspace(pb.truth, prolongation_p1(cfg.truth_elems, cfg.coarse_elems))
    kind = cfg.w_kind
    if kind == "truth":
        w_sub = Subspace(pb.truth, np.eye(pb.truth.dim))
    elif kind == "same":
        w_sub = u_sub
    else:
        w_sub = Subspace(pb.truth, prolongation_p1(cfg.truth_elems, cfg.w_elems()))
    dp = DualProduct(aux=w_sub, stiffness=make_stiffness(w_sub, cfg.s_choice))
    return Discretization(pb, u_sub, dp, cfg.gamma)
