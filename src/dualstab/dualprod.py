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
deflates: it returns a DeflatedPressures record on a truth space, which the
pencils read (a SaddleProblem deflates its own when built, ``pb.pressures``),
and the functions taking (b_t, q_gram) deflate on their subspace's truth.
B_T is a dense matrix or a structured one that builds its matrix on each
read (``models.ConstraintForm``), and both take one path: the SVD works in a
new Fortran-ordered copy, dropped after it, so a caller's dense B_T is never
written.  A tall B_T is reduced to its m_q × m_q R factor in that copy
before the SVD (Chan's R-SVD, in ``algebra.svd``): s and Vᵀ keep dgesdd's
bits, and no n × m_q U is formed.  The record keeps no B_eff = B_T Z.  The
same pressures on a subspace S, read as a truth space of its own
(``DeflatedPressures.on``), have S's rows E_Sᵀ B_T Z, which the blocks read;
on a model level they are the B_T of S's own mesh times Z, so the SVD's copy
is the only n × m_q array a model level holds.  Every pressure pencil's Gram
is a record's dual Gram (``DeflatedPressures.dual_gram``): on the truth it
gives beta and norm_B; on W it is the sup Gram B_Wᵀ G_W⁻¹ B_W, which gives
beta_hat and alpha_hat, and over σ it is c_star's B_Wᵀ S⁻¹ B_W for
S = σ·G_W; with an explicit S read as W's Gram it is c_star's for that S.
The dual Gram is Zᵀ K Z when B_T gives K = B_Tᵀ G⁻¹ B_T itself, as a model
level's does in closed form on the truth and on a nested P1 W (whose Gram
is the stiffness of its own mesh), and a solve on B_eff otherwise, so a
model level solves no G, G_W or S system for its constants.  A stiffness
form built on W's Gram (``gramian``, ``scaled:σ``) reads W's factor only
when S is first solved.  A formed dual Gram is symmetric only to roundoff,
which grows with the condition of the Gram it solves, so it is symmetrized
where it is formed (``algebra.symmetrized``): the pencils' symmetry check,
meant for a caller's input, then never fails on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .algebra import (
    DimensionMismatch,
    NotSpd,
    NumericalFailure,
    SpdFactorization,
    as_matrix,
    cholesky,
    eigh,
    operator_norm,
    require_symmetric,
    spd_solve,
    svd,
    sym_generalized_eigvals,
    symmetrized,
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


class SweepSampler:
    """Standard normal draws for the pairing sweep of one (seed, level).

    The stdlib Mersenne Twister, seeded with the key's text, gives equal draws
    for equal keys in any process, and numpy.random is never imported.  The
    top 52 bits k of each 64-bit word give the uniform (k + 0.5)·2⁻⁵², exact
    and strictly inside (0, 1), and the Box–Muller transform (Box & Muller,
    1958) turns each pair of uniforms into two normals.
    """

    def __init__(self, seed, level):
        self._source = random.Random(f"pairing sweep {int(seed)} {int(level)}")

    def standard_normal(self, shape):
        count = int(np.prod(shape, dtype=np.int64))
        pairs = (count + 1) // 2
        words = np.frombuffer(self._source.randbytes(16 * pairs), dtype="<u8")
        uniform = ((words >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52
        radius = np.sqrt(-2.0 * np.log(uniform[:pairs]))
        angle = (2.0 * np.pi) * uniform[pairs:]
        normals = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return normals[:count].reshape(shape)


class BoundViolated(Exception):
    """A verified spectral bound failed beyond tolerance."""


class DegeneratePencil(NumericalFailure):
    """A deflated pencil denominator is singular; constants are undefined."""


@dataclass(frozen=True)
class StiffnessForm:
    """SPD matrix S on a subspace W with its spectral range against G_W.

    kappa_star and K_star, the extreme eigenvalues of (S, G_W) as Python
    floats, are fixed when the form is built: exactly σ for S = σ·G_W, and
    the extremes of one eigenvalues-only solve for an explicit S.  ``sigma``
    is the σ of S = σ·G_W, None for an explicit S.  ``fact``, S's Cholesky
    factor, is read on first use: W's own factor at σ = 1, √σ · L_W at any
    other σ, so W is factored only when S is first solved, and the Cholesky
    factor of an explicit S.
    """

    matrix: np.ndarray
    aux: Subspace
    kappa_star: float
    K_star: float
    sigma: float | None = None

    @cached_property
    def fact(self):
        if self.sigma is None:
            return cholesky(self.matrix, "stiffness matrix")
        if self.sigma == 1.0:
            return self.aux.fact
        return SpdFactorization(self.aux.dim, np.sqrt(self.sigma) * self.aux.fact.lower)

    def solve(self, rhs):
        """S⁻¹ rhs, so that S reads as W's Gram in the dual Gram of the pressures on W."""
        return spd_solve(self.fact, rhs)


@dataclass(frozen=True)
class DualProduct:
    """Surrogate dual product determined by an auxiliary subspace and S."""

    aux: Subspace
    stiffness: StiffnessForm

    def __post_init__(self):
        # S is a matrix in W's own basis, so it must be built on this very subspace
        if self.stiffness.aux is not self.aux:
            raise DimensionMismatch(
                f"stiffness of dim {len(self.stiffness.matrix)} is built on another subspace "
                f"than W of dim {self.aux.dim}"
            )


@dataclass(frozen=True)
class EquivalenceReport:
    """Measured spectral constants of one configuration."""

    norm_B: float
    beta: float
    kappa_star: float
    K_star: float
    c_star: float
    C_star: float
    alpha_hat: float
    beta_hat: float


def stiffness_from_matrix(sub, s):
    """Build a StiffnessForm from an explicit SPD matrix on the subspace.

    One eigenvalues-only solve of (S, G_W) gives its range, and S is
    factored here, so one that is not SPD raises NotSpd.
    """
    s = require_symmetric(s, "stiffness matrix")
    if s.shape[0] != sub.dim:
        raise DimensionMismatch(f"stiffness of dim {s.shape[0]} does not match subspace {sub.dim}")
    spectrum = sym_generalized_eigvals(s, sub.fact)
    form = StiffnessForm(s, sub, float(spectrum[0]), float(spectrum[-1]))
    form.fact  # NotSpd unless S is SPD
    return form


def stiffness_scale(choice):
    """Parse a named stiffness choice: the σ of S = σ·G_W, or None for ``lumped``.

    ``gramian`` is σ = 1.  ValueError unless the choice is ``gramian``,
    ``lumped`` or ``scaled:<σ>`` with a finite positive σ.
    """
    if choice == "gramian":
        return 1.0
    if choice == "lumped":
        return None
    if not choice.startswith("scaled:"):
        raise ValueError(f"unknown stiffness choice {choice!r}")
    try:
        sigma = float(choice.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"invalid scaled stiffness choice {choice!r}") from None
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise ValueError("stiffness scaling must be finite and positive")
    return sigma


def make_stiffness(sub, choice):
    """Build S on a subspace from one of the named choices.

    ``gramian``      S = G_W, which is ``scaled:1``
    ``scaled:<σ>``   S = σ · G_W, 0 < σ < ∞, with kappa_star = K_star = σ
                     exactly, no pencil solved and nothing factored: √σ · L_W
                     is S's factor, with L_W W's (at σ = 1, G_W and L_W),
                     formed when S is first solved
    ``lumped``       S = diag of row sums of G_W, an explicit S; NotSpd when
                     a row sum is nonpositive (e.g. stiffness-like Gramians).
    """
    sigma = stiffness_scale(choice)
    if sigma is None:
        sums = sub.gram_sub.sum(axis=1)
        if sums.min() <= KERNEL_RTOL * max(sums.max(), 0.0):
            raise NotSpd("row-sum lumping produced a nonpositive diagonal entry")
        return stiffness_from_matrix(sub, np.diag(sums))
    if sigma == 1.0:
        return StiffnessForm(sub.gram_sub, sub, 1.0, 1.0, 1.0)
    # σ · G_W is as symmetric as G_W, and an inf in it ends as NonFinite
    with np.errstate(over="ignore"):
        s = as_matrix(sigma * sub.gram_sub, "stiffness matrix")
    return StiffnessForm(s, sub, sigma, sigma, sigma)


def c_apply(dp, f, g):
    """Evaluate the surrogate dual product c(f, g) = (Eᵀf)ᵀ S⁻¹ (Eᵀg)."""
    if f.dim != dp.aux.parent.dim or g.dim != dp.aux.parent.dim:
        raise DimensionMismatch("functionals do not live on the truth space of W")
    wf = dp.aux.restrict(f.action)
    wg = dp.aux.restrict(g.action)
    return float(wf @ spd_solve(dp.stiffness.fact, wg))


def dual_equivalence_interval(dp):
    """Extreme ratios of c against the exact dual product on the dual image of W.

    The exact dual Gramian of the biorthogonal functionals is G_W⁻¹, so the
    ratios are the eigenvalues of the pencil (S⁻¹, G_W⁻¹), which are those of
    (G_W, S).
    """
    spectrum = sym_generalized_eigvals(dp.aux.gram_sub, dp.stiffness.fact)
    return float(spectrum[0]), float(spectrum[-1])


def stiffness_dual_norm(dp):
    """Largest dual norm of S w over ‖w‖.

    S w is the functional whose dual-basis coefficients are S w⃗, so the value
    is the operator norm of S : W → W'.  S is scaled by a power of two first
    (an exact scaling), so S G_W⁻¹ S stays in the float range at any scale.
    """
    _, exp = np.frexp(np.abs(dp.stiffness.matrix).max())
    fact = dp.aux.fact
    return float(np.ldexp(operator_norm(np.ldexp(dp.stiffness.matrix, -exp), fact, fact), exp))


def pressure_deflation(b_t, q_gram):
    """G_Q-orthonormal basis of the G_Q-orthogonal complement of ker B_T.

    Returns the identity when B_T has full column rank (no deflation needed);
    otherwise the returned basis Z satisfies Zᵀ G_Q Z = I and Zᵀ G_Q k = 0 for
    every kernel vector k of B_T.

    B_T is a dense matrix or a structured one (``models.ConstraintForm``):
    either is read into a new Fortran-ordered array, which the SVD works in
    and which is dropped after it, so the caller's matrix is never written.
    A tall B_T (n rows, n ≥ 11 m_q / 6) is reduced to its m_q × m_q R factor
    in that array first (``algebra.svd``), so the level's peak is that one
    n × m_q array; a wide B_T takes the full SVD, or its kernel rows are lost.
    """
    b = as_matrix(np.array(b_t, dtype=float, order="F"), "constraint matrix")
    q_gram = require_symmetric(q_gram, "pressure Gramian")
    rows, n = b.shape
    if q_gram.shape[0] != n:
        raise DimensionMismatch("pressure Gramian does not match constraint matrix columns")
    # a thin SVD holds all of V only when B_T has at least as many rows as
    # columns; a wide B_T needs the full one, or its kernel rows are lost
    svals, vt = svd(b, full_matrices=rows < n)
    del b
    rank = int(np.sum(svals > KERNEL_RTOL * svals[0])) if svals[0] > 0.0 else 0
    if rank == n:
        return np.eye(n)
    if rank == 0:
        raise DegeneratePencil("constraint matrix is identically zero")
    kernel = vt[rank:].T
    # Euclidean-orthogonal complement of G_Q · kernel, then G_Q-orthonormalize
    m = q_gram @ kernel
    _, vt2 = svd(m.T, full_matrices=True)
    comp = vt2[kernel.shape[1]:].T
    w, v = eigh(symmetrized(comp.T @ (q_gram @ comp)))
    if w.min() <= KERNEL_RTOL * w.max():
        raise DegeneratePencil("deflated pressure Gramian is singular")
    return comp @ (v / np.sqrt(w))


@dataclass(frozen=True)
class DeflatedPressures:
    """Pressures deflated once on ``truth``: Z, Zᵀ G_Q Z and its factor.

    ``truth`` is read only through ``solve``, with its Gram: the truth
    space, a subspace S read as a truth space of its own (``on``), or a
    stiffness S read as W's Gram.  ``constraint`` is B_T as it was given.
    The record keeps no B_eff = B_T Z: ``b_eff`` forms it anew on each read,
    and a structured B_T may write B_T Z itself (``times(Z)``, from row
    slabs, as ``models.ConstraintForm`` does).  ``on(S)`` is the same
    pressures on a subspace S, whose constraint is E_Sᵀ B_T: a structured
    B_T may give it as a B_T of S's own (``restricted(S.op)``:
    ``models.ConstraintForm`` does for a nested ``models.P1Prolongation``),
    so S's rows are m_S × m_q × k work with no truth row read; otherwise, as
    for a dense B_T or a ``DenseEmbedding``, E_Sᵀ is applied to the dense B_T.
    The dual Gram B_effᵀ G⁻¹ B_eff, and beta and norm_B, the roots of the
    extreme eigenvalues of its pencil with G_Q (beta is 0 at or below
    KERNEL_RTOL · the largest), are formed on first read and kept with the
    record; on S they are the sup Gram B_Sᵀ G_S⁻¹ B_S and the inf-sup
    constant of (Q, S).  A structured B_T may give K = B_Tᵀ G⁻¹ B_T itself,
    m_q × m_q, through ``dual_gram(truth)``: ``models.ConstraintForm`` does,
    in closed form, on a truth whose Gram is the P1 stiffness of the form's
    own mesh, the truth band or a nested P1 subspace of it.  The dual Gram
    is then Zᵀ K Z, and nothing is solved.  Otherwise, as for a dense B_T or
    any other truth, the truth's Gram is solved on all of B_eff.
    """

    basis: np.ndarray
    q_eff: np.ndarray
    q_fact: SpdFactorization
    truth: object
    constraint: object

    @property
    def b_eff(self):
        """B_eff = B_T Z, a row per truth dof, formed anew on each read."""
        times = getattr(self.constraint, "times", None)
        if times is None:
            return np.asarray(self.constraint, dtype=float) @ self.basis
        return times(self.basis)

    def on(self, sub):
        """The same pressures on a subspace S of ``truth``, read as a truth space of its own.

        Z, Q_eff and its factor are kept; the truth is S and the constraint
        E_Sᵀ B_T, so ``b_eff`` is S's rows, ``dual_gram`` the sup Gram
        B_Sᵀ G_S⁻¹ B_S and ``beta`` the inf-sup constant of (Q, S).
        """
        if self.constraint.shape[0] != sub.parent.dim:
            raise DimensionMismatch("constraint matrix rows do not match the truth space")
        restricted = getattr(self.constraint, "restricted", None)
        own = None if restricted is None else restricted(sub.op)
        if own is None:
            own = sub.restrict(np.asarray(self.constraint, dtype=float))
        return replace(self, truth=sub, constraint=own)

    @cached_property
    def dual_gram(self):
        closed_form = getattr(self.constraint, "dual_gram", None)
        k = None if closed_form is None else closed_form(self.truth)
        if k is None:
            b_eff = self.b_eff
            return symmetrized(b_eff.T @ self.truth.solve(b_eff))
        return symmetrized(self.basis.T @ (k @ self.basis))

    @cached_property
    def _truth_range(self):
        full = sym_generalized_eigvals(self.dual_gram, self.q_fact)
        return _floored_root(full), float(np.sqrt(max(full[-1], 0.0)))

    beta = property(lambda self: self._truth_range[0])
    norm_B = property(lambda self: self._truth_range[1])


def deflate_pressures(b_t, q_gram, truth):
    """Deflate the pressures of (B_T, G_Q) once, on ``truth``; ``pressure_deflation`` checks both."""
    z = pressure_deflation(b_t, q_gram)
    q_eff = symmetrized(z.T @ (np.asarray(q_gram, dtype=float) @ z))
    q_fact = cholesky(q_eff, "deflated pressure Gramian")
    return DeflatedPressures(z, q_eff, q_fact, truth, b_t)


def _floored_root(spectrum):
    """Root of a pencil's least eigenvalue; exactly 0 at or below KERNEL_RTOL · the largest."""
    low = spectrum[0]
    return 0.0 if low <= KERNEL_RTOL * spectrum[-1] else float(np.sqrt(low))


def infsup_qw(b_t, q_gram, sub):
    """Inf-sup constant of the mixed form over (deflated pressures of (B_T, G_Q), subspace).

    Square root of the smallest eigenvalue of (B_Wᵀ G_W⁻¹ B_W, G_Q), the
    ``beta`` of the pressures on W; zero when the subspace cannot control
    every deflated pressure.
    """
    return deflate_pressures(b_t, q_gram, sub.parent).on(sub).beta


def measure_equivalence(dp, pressures):
    """Every spectral constant of a configuration on its deflated pressures.

    alpha_hat and beta_hat read W's sup Gram B_Wᵀ G_W⁻¹ B_W, the dual Gram of
    the pressures on W.  c_star reads B_Wᵀ S⁻¹ B_W: that Gram over σ for
    S = σ·G_W, and for an explicit S the same record's dual Gram with S as
    W's Gram.
    """
    on_w = pressures.on(dp.aux)
    try:
        dual_fact = cholesky(pressures.dual_gram, "deflated dual Gramian")
    except NotSpd:
        raise DegeneratePencil("deflated dual-norm Gramian is singular") from None
    if dp.stiffness.sigma is None:
        numer = replace(on_w, truth=dp.stiffness).dual_gram
    else:
        # an overflow to inf ends as the pencil's NonFinite
        with np.errstate(over="ignore"):
            numer = on_w.dual_gram / dp.stiffness.sigma
    c_upper = 1.0 / dp.stiffness.kappa_star
    c_star = float(sym_generalized_eigvals(numer, dual_fact)[0])
    if c_star <= KERNEL_RTOL * c_upper:
        # W misses part of the range of B: zero, not roundoff
        c_star = 0.0
    return EquivalenceReport(
        kappa_star=dp.stiffness.kappa_star,
        K_star=dp.stiffness.K_star,
        c_star=c_star,
        C_star=c_upper,
        alpha_hat=_floored_root(sym_generalized_eigvals(on_w.dual_gram, dual_fact)),
        beta_hat=on_w.beta,
        beta=pressures.beta,
        norm_B=pressures.norm_B,
    )


def equivalence_report(dp, b_t, q_gram):
    """Collect every spectral constant of a configuration in one report."""
    return measure_equivalence(dp, deflate_pressures(b_t, q_gram, dp.aux.parent))


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


def raise_failed(rows):
    """Raise BoundViolated from the first failing row of a check table."""
    for row in rows:
        if row.status == "fail":
            bounds = ", ".join("-" if b is None else f"{b:.6e}" for b in (row.lower, row.upper))
            raise BoundViolated(f"{row.check} {row.value:.6e} outside [{bounds}]")


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


def _sandwich_rows(rep, pressures, rng, samples):
    """The sandwich row and the extremes of ‖B q‖₋₁ / ⦀q⦀ over random pressures."""
    if rep.beta <= 0.0:
        raise DegeneratePencil("truth inf-sup constant vanishes; sandwich undefined")
    ys = rng.standard_normal((samples, pressures.q_eff.shape[0]))
    b_sq = np.einsum("ij,jk,ik->i", ys, pressures.dual_gram, ys)
    p_sq = np.einsum("ij,jk,ik->i", ys, pressures.q_eff, ys)
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
    rep = measure_equivalence(dp, pressures)
    rows = _equivalence_rows(dp) + [_stiffness_row(dp)] + _chain_rows(rep)
    return rep, rows + _sandwich_rows(rep, pressures, rng, SWEEP_SAMPLES)


def verify_dual_equivalence(dp):
    """Check the equivalence interval against [1/K_star, 1/kappa_star].

    Returns (lower, upper) extreme ratios.
    """
    rows = _equivalence_rows(dp)
    raise_failed(rows)
    return rows[0].value, rows[1].value


def verify_stiffness_bound(dp):
    """Check that the boundedness constant of S does not exceed K_star."""
    row = _stiffness_row(dp)
    raise_failed([row])
    return row.value


def verify_cstar_infsup_link(dp, b_t, q_gram):
    """Check the two-way link between c_star and the dual-norm inf-sup constant.

    alpha_hat ≥ (c_star · kappa_star)^½ and c_star ≥ alpha_hat² / K_star; with
    S = G_W both hold with equality.  Returns the full report.
    """
    rep = equivalence_report(dp, b_t, q_gram)
    raise_failed(_chain_rows(rep))
    return rep


def verify_infsup_sandwich(dp, b_t, q_gram, rng, samples=SWEEP_SAMPLES):
    """Check the sandwich between mixed-form and dual-norm inf-sup constants.

    beta_hat / norm_B ≤ alpha_hat ≤ beta_hat / beta, plus the two-sided norm
    equivalence beta ⦀q⦀ ≤ ‖B q‖₋₁ ≤ norm_B ⦀q⦀ on random deflated pressures.
    """
    pressures = deflate_pressures(b_t, q_gram, dp.aux.parent)
    rep = measure_equivalence(dp, pressures)
    raise_failed(_sandwich_rows(rep, pressures, rng, samples))
    return rep
