"""Computable scalar product on the dual space and its spectral constants.

Given a subspace W of the truth space and an SPD "stiffness" matrix S on W,
the surrogate dual product is

    c(f, g) = (Eᵀf)ᵀ S⁻¹ (Eᵀg),

which is the exact dual product of the adjoint projections P*f, P*g measured
through S.  Its quality is governed by the extreme eigenvalues kappa_star,
K_star of the pencil (S, G_W): on the dual image of W the surrogate is
equivalent to the exact dual product with constants [1/K_star, 1/kappa_star],
and on the range of a constraint operator B it is bounded below by c_star.
The inf-sup estimators tie c_star to the dual-norm inf-sup constant alpha_hat
and to the plain mixed-form inf-sup constants over (Q, W).

Every bound between these constants is one row of a check table (``Check``):
``spectral_checks`` builds the whole table from one deflation, and each
``verify_*`` function raises BoundViolated from its own rows of it.

Deflation convention: every pressure pencil is restricted to the
G_Q-orthogonal complement of ker B_T, computed from the singular value
decomposition of B_T.  Mean-zero pressure spaces are realized this way, never
by modifying the basis.  ``deflate_pressures`` is the only place that
deflates: it returns a DeflatedPressures record, which the pencils of a
level read (a Discretization builds one per level).  The functions taking
(b_t, q_gram) deflate once through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DimensionMismatch,
    NotSpd,
    SpdFactorization,
    as_matrix,
    cholesky,
    require_symmetric,
    spd_solve,
    sym_generalized_eigvals,
)
from .hilbert import Subspace

# relative tolerance for the verified spectral bounds
BOUND_RTOL = 1e-9

# relative tolerance for the inf-sup chain and sandwich inequalities
CHAIN_RTOL = 1e-8

# singular values at or below this fraction of the largest are kernel; so
# is a c_star at or below this fraction of C_star
KERNEL_RTOL = 1e-12

# random deflated pressures drawn per check table for the pairing sweep
SWEEP_SAMPLES = 100


class BoundViolated(Exception):
    """A verified spectral bound failed beyond tolerance."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class DegeneratePencil(Exception):
    """A deflated pencil denominator is singular; constants are undefined."""


@dataclass(frozen=True)
class StiffnessForm:
    """SPD matrix S on a subspace with its spectral range against G_W."""

    matrix: np.ndarray
    fact: SpdFactorization
    kappa_star: float
    K_star: float
    choice: str


@dataclass(frozen=True)
class DualProduct:
    """Surrogate dual product determined by an auxiliary subspace and S."""

    aux: Subspace
    stiffness: StiffnessForm

    def __post_init__(self):
        if self.stiffness.fact.dim != self.aux.dim:
            raise DimensionMismatch(
                f"stiffness dim {self.stiffness.fact.dim} does not match subspace dim {self.aux.dim}"
            )


@dataclass(frozen=True)
class EquivalenceReport:
    """Measured spectral constants of one configuration."""

    kappa_star: float
    K_star: float
    c_star: float
    C_star: float
    alpha_hat: float
    beta_hat: float
    beta: float
    norm_B: float


def stiffness_from_matrix(sub, s, choice="custom"):
    """Build a StiffnessForm from an explicit SPD matrix on the subspace."""
    s = require_symmetric(s, "stiffness matrix")
    if s.shape[0] != sub.dim:
        raise DimensionMismatch(f"stiffness of dim {s.shape[0]} does not match subspace {sub.dim}")
    fact = cholesky(s, "stiffness matrix")
    spectrum = sym_generalized_eigvals(s, sub.fact)
    return StiffnessForm(
        matrix=s,
        fact=fact,
        kappa_star=float(spectrum[0]),
        K_star=float(spectrum[-1]),
        choice=choice,
    )


def make_stiffness(sub, choice="gramian"):
    """Build S on a subspace from one of the named choices.

    ``gramian``      S = G_W                 (kappa_star = K_star = 1)
    ``scaled:<s>``   S = s · G_W, 0 < s < ∞  (kappa_star = K_star = s)
    ``lumped``       S = diag of row sums of G_W; NotSpd when a row sum is
                     nonpositive (e.g. stiffness-like Gramians).
    """
    if choice == "gramian":
        s = sub.gram_sub.copy()
    elif choice == "lumped":
        sums = sub.gram_sub.sum(axis=1)
        if sums.min() <= KERNEL_RTOL * max(sums.max(), 0.0):
            raise NotSpd("row-sum lumping produced a nonpositive diagonal entry")
        s = np.diag(sums)
    elif choice.startswith("scaled:"):
        try:
            sigma = float(choice.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"invalid scaled stiffness choice {choice!r}") from None
        if not np.isfinite(sigma) or sigma <= 0.0:
            raise ValueError("stiffness scaling must be finite and positive")
        # an overflow to inf is reported once, as NonFinite, by stiffness_from_matrix
        with np.errstate(over="ignore"):
            s = sigma * sub.gram_sub
    else:
        raise ValueError(f"unknown stiffness choice {choice!r}")
    return stiffness_from_matrix(sub, s, choice=choice)


def c_apply(dp, f, g):
    """Evaluate the surrogate dual product c(f, g) = (Eᵀf)ᵀ S⁻¹ (Eᵀg)."""
    if f.dim != dp.aux.parent.dim or g.dim != dp.aux.parent.dim:
        raise DimensionMismatch("functionals do not live on the truth space of W")
    e = dp.aux.embedding
    wf = e.T @ f.action
    wg = e.T @ g.action
    return float(wf @ spd_solve(dp.stiffness.fact, wg))


def dual_equivalence_interval(dp):
    """Extreme ratios of c against the exact dual product on the dual image of W.

    The exact dual Gramian of the biorthogonal functionals is G_W⁻¹, so the
    ratios are the eigenvalues of the pencil (S⁻¹, G_W⁻¹).
    """
    n = dp.aux.dim
    eye = np.eye(n)
    s_inv = spd_solve(dp.stiffness.fact, eye)
    s_inv = 0.5 * (s_inv + s_inv.T)
    gw_inv = spd_solve(dp.aux.fact, eye)
    gw_inv = 0.5 * (gw_inv + gw_inv.T)
    spectrum = sym_generalized_eigvals(s_inv, cholesky(gw_inv, "dual Gramian"))
    return float(spectrum[0]), float(spectrum[-1])


def stiffness_dual_norm(dp):
    """Largest dual norm of S w over ‖w‖.

    S w is the functional whose dual-basis coefficients are S w⃗; its dual norm
    squared is w⃗ᵀ S G_W⁻¹ S w⃗, so the value is the root of the largest
    eigenvalue of (S G_W⁻¹ S, G_W).  S is scaled by a power of two first (an
    exact scaling), so S G_W⁻¹ S stays in the float range at any scale.
    """
    _, exp = np.frexp(np.abs(dp.stiffness.matrix).max())
    s = np.ldexp(dp.stiffness.matrix, -exp)
    m = s @ spd_solve(dp.aux.fact, s)
    m = 0.5 * (m + m.T)
    top = sym_generalized_eigvals(m, dp.aux.fact)[-1]
    return float(np.ldexp(np.sqrt(max(top, 0.0)), exp))


def pressure_deflation(b_t, q_gram):
    """G_Q-orthonormal basis of the G_Q-orthogonal complement of ker B_T.

    Returns the identity when B_T has full column rank (no deflation needed);
    otherwise the returned basis Z satisfies Zᵀ G_Q Z = I and Zᵀ G_Q k = 0 for
    every kernel vector k of B_T.
    """
    b_t = as_matrix(b_t, "constraint matrix")
    q_gram = require_symmetric(q_gram, "pressure Gramian")
    if q_gram.shape[0] != b_t.shape[1]:
        raise DimensionMismatch("pressure Gramian does not match constraint matrix columns")
    # a thin SVD holds all of V only when B_T has at least as many rows as
    # columns; a wide B_T needs the full one, or its kernel rows are lost
    _, svals, vt = np.linalg.svd(b_t, full_matrices=b_t.shape[0] < b_t.shape[1])
    rank = int(np.sum(svals > KERNEL_RTOL * svals[0])) if svals[0] > 0.0 else 0
    n = b_t.shape[1]
    if rank == n:
        return np.eye(n)
    if rank == 0:
        raise DegeneratePencil("constraint matrix is identically zero")
    kernel = vt[rank:].T
    # Euclidean-orthogonal complement of G_Q · kernel, then G_Q-orthonormalize
    m = q_gram @ kernel
    _, _, vt2 = np.linalg.svd(m.T)
    comp = vt2[kernel.shape[1]:].T
    gram = comp.T @ (q_gram @ comp)
    gram = 0.5 * (gram + gram.T)
    w, v = np.linalg.eigh(gram)
    if w.min() <= KERNEL_RTOL * w.max():
        raise DegeneratePencil("deflated pressure Gramian is singular")
    return comp @ (v / np.sqrt(w))


@dataclass(frozen=True)
class DeflatedPressures:
    """Pressures deflated once: Z of ``pressure_deflation``, B_T Z, Zᵀ G_Q Z, its factor."""

    basis: np.ndarray
    b_eff: np.ndarray
    q_eff: np.ndarray
    q_fact: SpdFactorization


def deflate_pressures(b_t, q_gram):
    """Deflate the pressures of (B_T, G_Q) once; ``pressure_deflation`` validates both."""
    z = pressure_deflation(b_t, q_gram)
    q_eff = z.T @ (np.asarray(q_gram, dtype=float) @ z)
    q_eff = 0.5 * (q_eff + q_eff.T)
    b_eff = np.asarray(b_t, dtype=float) @ z
    return DeflatedPressures(z, b_eff, q_eff, cholesky(q_eff, "deflated pressure Gramian"))


def _floored_root(spectrum):
    """Root of a pencil's least eigenvalue; exactly 0 at or below KERNEL_RTOL · the largest."""
    low = spectrum[0]
    return 0.0 if low <= KERNEL_RTOL * spectrum[-1] else float(np.sqrt(low))


def _sup_gram(sub, pressures):
    """B_W = E_Wᵀ B_eff and B_Wᵀ G_W⁻¹ B_W, the squared sups of b(q, ·) over W."""
    if pressures.b_eff.shape[0] != sub.parent.dim:
        raise DimensionMismatch("constraint matrix rows do not match the truth space")
    b_w = sub.embedding.T @ pressures.b_eff
    sup_w = b_w.T @ spd_solve(sub.fact, b_w)
    return b_w, 0.5 * (sup_w + sup_w.T)


def _dual_gram(truth, pressures):
    """B_effᵀ G⁻¹ B_eff, the Gramian of the dual norms ‖B q‖₋₁, and its factor."""
    dual_t = pressures.b_eff.T @ spd_solve(truth.fact, pressures.b_eff)
    dual_t = 0.5 * (dual_t + dual_t.T)
    try:
        return dual_t, cholesky(dual_t, "deflated dual Gramian")
    except NotSpd:
        raise DegeneratePencil("deflated dual-norm Gramian is singular") from None


def pressure_infsup(pressures, sub):
    """Inf-sup constant of the mixed form over (deflated pressures, subspace).

    Square root of the smallest eigenvalue of (B_Wᵀ G_W⁻¹ B_W, G_Q); zero when
    the subspace cannot control every deflated pressure.
    """
    return _floored_root(sym_generalized_eigvals(_sup_gram(sub, pressures)[1], pressures.q_fact))


def infsup_qw(b_t, q_gram, sub):
    """``pressure_infsup`` on the pressures of (B_T, G_Q)."""
    return pressure_infsup(deflate_pressures(b_t, q_gram), sub)


def _equivalence(dp, pressures):
    """The EquivalenceReport of a configuration, and its dual Gramian."""
    b_w, sup_w = _sup_gram(dp.aux, pressures)
    dual_t, dual_fact = _dual_gram(dp.aux.parent, pressures)
    numer = b_w.T @ spd_solve(dp.stiffness.fact, b_w)
    numer = 0.5 * (numer + numer.T)
    c_upper = 1.0 / dp.stiffness.kappa_star
    c_star = float(sym_generalized_eigvals(numer, dual_fact)[0])
    if c_star <= KERNEL_RTOL * c_upper:
        # W misses part of the range of B: zero, not roundoff
        c_star = 0.0
    full = sym_generalized_eigvals(dual_t, pressures.q_fact)
    rep = EquivalenceReport(
        kappa_star=dp.stiffness.kappa_star,
        K_star=dp.stiffness.K_star,
        c_star=c_star,
        C_star=c_upper,
        alpha_hat=_floored_root(sym_generalized_eigvals(sup_w, dual_fact)),
        beta_hat=_floored_root(sym_generalized_eigvals(sup_w, pressures.q_fact)),
        beta=_floored_root(full),
        norm_B=float(np.sqrt(max(full[-1], 0.0))),
    )
    return rep, dual_t


def measure_equivalence(dp, pressures):
    """Every spectral constant of a configuration on its deflated pressures."""
    return _equivalence(dp, pressures)[0]


def equivalence_report(dp, b_t, q_gram):
    """Collect every spectral constant of a configuration in one report."""
    return measure_equivalence(dp, deflate_pressures(b_t, q_gram))


def estimate_c_star(dp, b_t, q_gram):
    """Largest c_star with c(Bq, Bq) ≥ c_star ‖Bq‖₋₁² on the deflated pressures.

    Smallest eigenvalue of (B_Wᵀ S⁻¹ B_W, B_Tᵀ G⁻¹ B_T) after deflation; values
    at or below KERNEL_RTOL · C_star are exactly zero.
    """
    return equivalence_report(dp, b_t, q_gram).c_star


# ---------------------------------------------------------------------------
# the check table: every verified bound is one row, decided by Check.status


@dataclass(frozen=True)
class Check:
    """One verified bound of the check table.

    Passes when lower − tol·max(1, |lower|) ≤ value ≤ upper + tol·max(1, |upper|);
    a missing side (None) is unbounded.
    """

    check: str
    value: float
    lower: float | None
    upper: float | None
    tol: float

    @property
    def status(self):
        ok = self.lower is None or self.value >= self.lower - self.tol * max(1.0, abs(self.lower))
        if self.upper is not None:
            ok = ok and self.value <= self.upper + self.tol * max(1.0, abs(self.upper))
        return "pass" if ok else "fail"


def _raise_failed(rows):
    for row in rows:
        if row.status == "fail":
            bounds = ", ".join("-" if b is None else f"{b:.6e}" for b in (row.lower, row.upper))
            raise BoundViolated(f"{row.check} {row.value:.6e} outside [{bounds}]", value=row.value)


def _equivalence_rows(dp):
    lower, upper = dual_equivalence_interval(dp)
    bounds = (1.0 / dp.stiffness.K_star, 1.0 / dp.stiffness.kappa_star)
    return [
        Check("equivalence_low", lower, *bounds, BOUND_RTOL),
        Check("equivalence_high", upper, *bounds, BOUND_RTOL),
    ]


def _stiffness_row(dp):
    return Check("stiffness_bound", stiffness_dual_norm(dp), None, dp.stiffness.K_star, BOUND_RTOL)


def _chain_rows(rep):
    link = float(np.sqrt(max(rep.c_star * rep.kappa_star, 0.0)))
    return [
        Check("chain_alpha_hat", rep.alpha_hat, link, None, CHAIN_RTOL),
        Check("chain_c_star", rep.c_star, rep.alpha_hat**2 / rep.K_star, None, CHAIN_RTOL),
    ]


def _sandwich_rows(rep, dual_t, q_eff, rng, samples):
    """The sandwich row and the extremes of ‖B q‖₋₁ / ⦀q⦀ over random pressures."""
    if rep.beta <= 0.0:
        raise DegeneratePencil("truth inf-sup constant vanishes; sandwich undefined")
    ys = rng.standard_normal((samples, q_eff.shape[0]))
    b_sq = np.einsum("ij,jk,ik->i", ys, dual_t, ys)
    p_sq = np.einsum("ij,jk,ik->i", ys, q_eff, ys)
    ratios = np.sqrt(np.maximum(b_sq, 0.0) / p_sq)
    sandwich = (rep.beta_hat / rep.norm_B, rep.beta_hat / rep.beta)
    return [
        Check("sandwich", rep.alpha_hat, *sandwich, CHAIN_RTOL),
        Check("pairing_min", float(ratios.min()), rep.beta, None, CHAIN_RTOL),
        Check("pairing_max", float(ratios.max()), None, rep.norm_B, CHAIN_RTOL),
    ]


def spectral_checks(dp, pressures, rng):
    """Measure a configuration once and check every spectral bound on it.

    ``pressures`` is the DeflatedPressures record of the configuration.
    Returns the EquivalenceReport and eight Check rows: the equivalence
    interval ends against [1/K_star, 1/kappa_star], the stiffness dual norm
    against K_star, the two chain bounds, the sandwich, and the extreme
    ratios of SWEEP_SAMPLES random deflated pressures drawn from ``rng``
    against beta and norm_B.
    """
    rep, dual_t = _equivalence(dp, pressures)
    rows = _equivalence_rows(dp) + [_stiffness_row(dp)] + _chain_rows(rep)
    return rep, rows + _sandwich_rows(rep, dual_t, pressures.q_eff, rng, SWEEP_SAMPLES)


def verify_dual_equivalence(dp):
    """Check the equivalence interval against [1/K_star, 1/kappa_star].

    Returns (lower, upper) extreme ratios.
    """
    rows = _equivalence_rows(dp)
    _raise_failed(rows)
    return rows[0].value, rows[1].value


def verify_stiffness_bound(dp):
    """Check that the boundedness constant of S does not exceed K_star."""
    row = _stiffness_row(dp)
    _raise_failed([row])
    return row.value


def verify_cstar_infsup_link(dp, b_t, q_gram):
    """Check the two-way link between c_star and the dual-norm inf-sup constant.

    alpha_hat ≥ (c_star · kappa_star)^½ and c_star ≥ alpha_hat² / K_star; with
    S = G_W both hold with equality.  Returns the full report.
    """
    rep = equivalence_report(dp, b_t, q_gram)
    _raise_failed(_chain_rows(rep))
    return rep


def verify_infsup_sandwich(dp, b_t, q_gram, rng=None, samples=SWEEP_SAMPLES):
    """Check the sandwich between mixed-form and dual-norm inf-sup constants.

    beta_hat / norm_B ≤ alpha_hat ≤ beta_hat / beta, plus the two-sided norm
    equivalence beta ⦀q⦀ ≤ ‖B q‖₋₁ ≤ norm_B ⦀q⦀ on random deflated pressures.
    """
    pressures = deflate_pressures(b_t, q_gram)
    rep, dual_t = _equivalence(dp, pressures)
    if rng is None:
        rng = np.random.default_rng(0)
    _raise_failed(_sandwich_rows(rep, dual_t, pressures.q_eff, rng, samples))
    return rep
