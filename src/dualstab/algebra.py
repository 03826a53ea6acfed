"""Dense symmetric linear algebra kernel.

Everything downstream (dual norms, spectral equivalence constants, coercivity
pencils) reduces to SPD factorizations and symmetric generalized eigenproblems.
The heavy lifting is delegated to LAPACK, all of it to scipy's f2py LAPACK
module (``lapack``, loaded without importing ``scipy.linalg``): factorizations,
triangular solves, pencil reductions, eigensolves and SVDs.  numpy's own
OpenBLAS runs only matrix and dot products and ``converge``'s one
``polyfit``.  This module owns the thread policy: the OpenBLAS that scipy
bundles and numpy's both run on one thread, whatever the caller's
``OPENBLAS_NUM_THREADS`` and whichever of numpy and this module is imported
first (``_one_blas_thread``).  It also owns the contracts: validation, pivot
screening, Cholesky reduction of pencils, and the error taxonomy.

Matrices are plain float64 ndarrays.  Sizes are desk scale (a few thousand at
most), so dense storage and full spectra are the right trade-off, with one
exception: a symmetric banded matrix, such as the Gramian of a P1 truth mesh,
can be kept in LAPACK upper band storage, ``band[u + i - j, j] = M[i, j]``
for i ≤ j with u superdiagonals, and factored and solved there in O(n u²).
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

# relative pivot threshold separating rank deficiency from roundoff
PIVOT_RTOL = 1e-12

# relative tolerance when an input is required to be symmetric
SYMMETRY_RTOL = 1e-12

# entries of the row slab in which a tall array is read, divided or formed a
# slab at a time: 64 KiB, small beside the arrays the slabs stand in for
SLAB = 1 << 13

# LAPACK dgesdd rescales a matrix whose largest entry lies outside
# [SVD_SAFE, 1/SVD_SAFE] before it reduces it: √(safe minimum) / ε = 2⁻⁵¹¹ / 2⁻⁵²
SVD_SAFE = 2.0**-459

# OpenBLAS's thread-count setter, by the names its builds export it under: the
# OpenBLAS of numpy wheels has 64-bit integers and a 64_ symbol suffix
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS it loads, and numpy's, on one thread.

    numpy and scipy wheels each bundle their own OpenBLAS, each with its own
    thread pool.  A level alternates small numpy products with small scipy
    factorizations, eigensolves and SVDs, none of which gains from threads,
    and at more than one thread the idle workers of one pool spin on the
    cores the other needs; a product split across threads also sums in
    another order, so its bits would change with the thread count.

    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it is loaded, so the
    variable reads 1 in the body and is put back as the caller had it (or
    unset) afterwards: an OpenBLAS the body loads (numpy's, when the body
    imports numpy first, and scipy's with its LAPACK) starts on one thread
    and starts no worker.  numpy's OpenBLAS, when numpy was imported before,
    already runs at the caller's count; it is set to one thread afterwards
    through its exported setter (``_numpy_blas_on_one_thread``).
    """
    numpy_loaded = "numpy" in sys.modules
    caller_threads = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        if caller_threads is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = caller_threads
    if numpy_loaded:
        _numpy_blas_on_one_thread()


def _numpy_blas_on_one_thread():
    """Put the OpenBLAS bundled with the imported numpy's wheel on one thread.

    The wheel keeps it beside the package, in ``numpy.libs`` (Linux and
    Windows wheels) or in ``numpy/.dylibs`` (macOS wheels); it is loaded
    already, so opening it again returns the same library.  Where no bundled
    OpenBLAS exports a setter, as when numpy runs on a BLAS of the system or
    on MKL, nothing changes.
    """
    root = os.path.dirname(sys.modules["numpy"].__file__)
    for folder in (root + ".libs", os.path.join(root, ".dylibs")):
        names = os.listdir(folder) if os.path.isdir(folder) else ()
        for name in sorted(n for n in names if "openblas" in n):
            try:
                lib = ctypes.CDLL(os.path.join(folder, name))
            except OSError:
                continue
            setter = next((getattr(lib, s) for s in _BLAS_SETTERS if hasattr(lib, s)), None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def _load_lapack():
    """scipy's f2py LAPACK module, the one behind ``scipy.linalg.lapack``.

    Importing ``scipy.linalg`` takes about 0.2 s, most of it in modules this
    package never calls; the extension itself loads in milliseconds.  It is
    loaded from scipy's directory, found without importing scipy, and
    registered in ``sys.modules`` under its own name, so a later
    ``import scipy.linalg`` reuses it, as this reuses an earlier one.  Where
    the file is missing or does not load on its own, the module is imported
    the normal way: the same module, imported slowly.  Creating the extension
    loads scipy's OpenBLAS, so under ``_one_blas_thread`` that starts on one
    thread.  A BLAS that numpy and scipy share is loaded with numpy, and
    scipy's copy is loaded already when scipy's LAPACK was loaded before
    this module: each keeps the count it started with.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        path = os.path.join(scipy_spec.submodule_search_locations[0], "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            try:
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                spec.loader.exec_module(module)
                return module
            except ImportError:
                # e.g. on Windows, where scipy's __init__ adds its bundled DLLs' directory
                sys.modules.pop(name, None)
    return importlib.import_module(name)


# numpy is imported here, in the window, unless the caller imported it first
# (the CLI imports this module before numpy): its OpenBLAS then starts on one
# thread and starts no worker, and scipy's too
with _one_blas_thread():
    import numpy as np

    lapack = _load_lapack()


class NumericalFailure(Exception):
    """A computation failed numerically; every command exits 3 on one."""


class NotSpd(NumericalFailure):
    """Matrix is not symmetric positive definite (or numerically singular)."""


class DimensionMismatch(Exception):
    """Operand shapes do not conform."""


class NonFinite(NumericalFailure, ValueError):
    """Matrix has an infinite or NaN entry, e.g. after an overflow."""


def as_matrix(a, name="matrix"):
    """Validate and return a 2-d float array with finite entries."""
    return _finite_matrix(a, name)[0]


def _finite_matrix(a, name):
    """``as_matrix`` of ``a`` and its largest magnitude, from one read of its extremes."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or min(a.shape) < 1:
        raise DimensionMismatch(f"{name} must be 2-d with positive shape, got {a.shape}")
    # the least and the largest entry, read in place, are finite exactly when all are
    low, high = a.min(), a.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        raise NonFinite(f"{name} contains non-finite entries")
    return a, max(high, -low)


def require_symmetric(a, name="matrix"):
    """Validate square symmetry within SYMMETRY_RTOL and return the symmetrized copy."""
    a, scale = _finite_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    # one n² temporary at a time: the extremes are read once, for the
    # finiteness check, this scale and the overflow test, and the difference
    # and the sum are each made once and then worked on in place
    skew = a - a.T
    np.abs(skew, out=skew)
    if scale > 0.0 and skew.max() > SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric within relative tolerance {SYMMETRY_RTOL:g}")
    del skew
    return symmetrized(a, scale)


def symmetrized(p, scale=None):
    """(P + Pᵀ)/2 of a square P as a new, exactly symmetric array; P is not written.

    ``scale`` is P's largest magnitude when the caller has read it already.
    """
    # a product the package forms is symmetric only to roundoff, and its
    # pencil needs it exactly so.  Past half the float maximum P + Pᵀ may
    # overflow, so the halves are summed there, exact but for subnormals;
    # below, the sum is the one n² array made, and it is halved in place
    if scale is None:
        scale = max(p.max(), -p.min())
    if scale > np.finfo(float).max / 2:
        sym = p * 0.5
        sym += p.T * 0.5
        return sym
    sym = p + p.T
    sym *= 0.5
    return sym


@dataclass(frozen=True)
class SpdFactorization:
    """Lower Cholesky factor of an SPD matrix: M = lower @ lower.T."""

    dim: int
    lower: np.ndarray


@dataclass(frozen=True)
class BandedSpdFactorization:
    """Upper Cholesky factor of an SPD band matrix, M = Uᵀ U, in LAPACK upper band storage."""

    dim: int
    upper: np.ndarray


def cholesky(m, name="matrix"):
    """Factor an SPD matrix as L Lᵀ with L lower triangular.

    A pivot at or below ``PIVOT_RTOL`` times the largest diagonal entry raises
    NotSpd: at that point the matrix is indistinguishable from a singular one
    in double precision.
    """
    m = require_symmetric(m, name)
    largest = np.diag(m).max()
    # the copy is exactly symmetric: its F-ordered transpose is factored in place
    lower, info = lapack.dpotrf(m.T, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise NotSpd(f"{name} is not positive definite")
    pivots = np.diag(lower) ** 2
    if pivots.min() <= PIVOT_RTOL * largest:
        raise NotSpd(f"{name} is numerically singular (pivot below threshold)")
    return SpdFactorization(dim=m.shape[0], lower=lower)


def cholesky_band(band, name="matrix"):
    """Factor an SPD matrix given in LAPACK upper band storage as Uᵀ U.

    The pivot screen is that of ``cholesky``: a squared pivot at or below
    ``PIVOT_RTOL`` times the largest diagonal entry raises NotSpd.
    """
    band = as_matrix(band, name)
    upper, info = lapack.dpbtrf(band, lower=0)
    if info > 0:
        raise NotSpd(f"{name} is not positive definite")
    if (upper[-1] ** 2).min() <= PIVOT_RTOL * band[-1].max():
        raise NotSpd(f"{name} is numerically singular (pivot below threshold)")
    return BandedSpdFactorization(dim=band.shape[1], upper=upper)


def band_apply(band, x):
    """Product M x of a symmetric matrix in LAPACK upper band storage with x.

    ``x`` may be a vector or a matrix of stacked columns.
    """
    x = np.asarray(x, dtype=float)
    u = band.shape[0] - 1
    col = (slice(None),) + (None,) * (x.ndim - 1)
    y = band[u][col] * x
    for k in range(1, u + 1):
        off = band[u - k, k:][col]
        y[:-k] += off * x[k:]
        y[k:] += off * x[:-k]
    return y


def band_to_dense(band):
    """The dense symmetric matrix of a matrix in LAPACK upper band storage."""
    u = band.shape[0] - 1
    m = np.diag(band[u])
    for k in range(1, u + 1):
        off = np.diag(band[u - k, k:], k)
        m += off + off.T
    return m


def _solve_triangular(a, b, lower):
    """Solve a x = b for a triangular a, as ``scipy.linalg.solve_triangular``.

    LAPACK trtrs reads Fortran order, so a C-ordered a is passed as its
    transpose with the triangle and the operation flipped: scipy's branch,
    hence the same kernel on the same memory and the same bits.
    """
    if a.flags.f_contiguous:
        x, info = lapack.dtrtrs(a, b, lower=lower)
    else:
        x, info = lapack.dtrtrs(a.T, b, lower=not lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def spd_solve(fact, rhs):
    """Solve M x = rhs from the Cholesky factorization of M, dense or banded.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != fact.dim:
        raise DimensionMismatch(
            f"rhs of shape {rhs.shape} does not match factorization of dim {fact.dim}"
        )
    if isinstance(fact, BandedSpdFactorization):
        return lapack.dpbtrs(fact.upper, rhs, lower=0)[0]
    y = _solve_triangular(fact.lower, rhs, lower=True)
    return _solve_triangular(fact.lower.T, y, lower=False)


def _reduce_pencil(a, b_fact):
    """Standard symmetric matrix L⁻¹ A L⁻ᵀ of the pencil (A, L Lᵀ), in its lower triangle.

    One LAPACK ``dsygst`` call reduces the symmetrized copy of A in place; the
    strict upper triangle of the result still holds A's, so only the lower
    triangle may be read.
    """
    a = require_symmetric(a, "pencil matrix")
    if a.shape[0] != b_fact.dim:
        raise DimensionMismatch(
            f"pencil matrix dim {a.shape[0]} does not match factorization dim {b_fact.dim}"
        )
    # the copy is exactly symmetric, so its F-ordered transpose is the same matrix
    c, info = lapack.dsygst(a.T, b_fact.lower, itype=1, lower=1, overwrite_a=1)
    _check_info(info, "dsygst")
    return c


def eigh(a):
    """Eigenvalues and eigenvectors of a symmetric matrix, as ``np.linalg.eigh``.

    LAPACK ``dsyevd`` reads the lower triangle of ``a`` only, and works in
    ``a`` itself when it is an F-ordered float array (any other is copied
    first), so the caller's matrix is then overwritten.  Returns (ascending
    eigenvalues, eigenvectors in the columns).
    """
    lwork, liwork, _ = lapack.dsyevd_lwork(len(a), compute_v=1, lower=1)
    w, v, info = lapack.dsyevd(
        a, compute_v=1, lower=1, lwork=int(lwork), liwork=liwork, overwrite_a=1
    )
    _check_info(info, "dsyevd", "eigenvalues did not converge")
    return w, v


def eigvalsh(a):
    """Ascending eigenvalues of a symmetric matrix, as ``np.linalg.eigvalsh``.

    ``dsyevd`` without eigenvectors, on ``a`` as in ``eigh``.  It runs on the
    workspace ``dsyevd_lwork`` sizes, as numpy's does: a minimal one would
    reduce the matrix unblocked, to other bits.
    """
    lwork, liwork, _ = lapack.dsyevd_lwork(len(a), compute_v=0, lower=1)
    w, _, info = lapack.dsyevd(
        a, compute_v=0, lower=1, lwork=int(lwork), liwork=liwork, overwrite_a=1
    )
    _check_info(info, "dsyevd", "eigenvalues did not converge")
    return w


def svd(a, full_matrices=False):
    """Singular values and right singular vectors of ``a``, as ``np.linalg.svd``.

    LAPACK ``dgesdd`` on its optimal workspace, as numpy's.  It works in ``a``
    itself when it is an F-ordered float array (any other is copied first),
    as ``eigh`` does, so the caller's matrix is then overwritten.  Returns
    (s, vt): descending singular values, and the C-ordered rows of Vᵀ, all n
    of them when ``full_matrices`` is set, else min(m, n).  U is not kept.

    A thin SVD of an m × n ``a`` with m ≥ 11n/6 runs as Chan's R-SVD (ACM
    TOMS 8, 1982): ``dgeqrf`` in ``a``, then ``dgesdd`` on the n × n R, so
    no m × n U is formed beside ``a``.  From that height on dgesdd reduces
    ``a`` to the same R itself, so s and Vᵀ are its bits; an ``a`` that
    dgesdd would rescale first (its largest entry outside [SVD_SAFE,
    1/SVD_SAFE], or NaN) goes to dgesdd whole.
    """
    rows, cols = np.shape(a)
    if not full_matrices and rows > cols and rows >= 11 * cols // 6:
        a = np.asfortranarray(a, dtype=float)
        if SVD_SAFE <= lapack.dlange("M", a) <= 1.0 / SVD_SAFE:
            a = _triangular_factor(a)
    lwork, _ = lapack.dgesdd_lwork(*np.shape(a), compute_uv=1, full_matrices=full_matrices)
    _, s, vt, info = lapack.dgesdd(
        a, compute_uv=1, full_matrices=full_matrices, lwork=int(lwork), overwrite_a=1
    )
    _check_info(info, "dgesdd", "SVD did not converge")
    return s, np.ascontiguousarray(vt)


def _triangular_factor(a):
    """The n × n upper triangle R of a = Q R, F-ordered, from LAPACK ``dgeqrf`` in ``a``."""
    rows, cols = a.shape
    lwork, _ = lapack.dgeqrf_lwork(rows, cols)
    qr, _, _, info = lapack.dgeqrf(a, lwork=int(lwork), overwrite_a=1)
    _check_info(info, "dgeqrf")
    return np.asfortranarray(np.triu(qr[:cols]))


def _check_info(info, routine, failure=None):
    """LinAlgError on a LAPACK failure (info > 0); an illegal argument (info < 0) is a bug."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(failure or f"LAPACK {routine} failed with info {info}")


def sym_generalized_eig(a, b_fact):
    """Solve the symmetric generalized eigenproblem A x = λ B x.

    B is supplied as its Cholesky factorization; the pencil is reduced to the
    standard symmetric problem L⁻¹ A L⁻ᵀ y = λ y and the eigenvectors are
    mapped back as x = L⁻ᵀ y, which makes them B-orthonormal.  Returns the
    pair (eigenvalues, eigenvectors) in the order of ``np.linalg.eigh``:
    ascending eigenvalues, eigenvector k in column k.
    """
    eigenvalues, v = eigh(_reduce_pencil(a, b_fact))
    return eigenvalues, _solve_triangular(b_fact.lower.T, v, lower=False)


def sym_generalized_eigvals(a, b_fact):
    """Ascending eigenvalues of A x = λ B x, without eigenvectors.

    Same reduction as ``sym_generalized_eig``.  Every constant of the package
    is an extreme eigenvalue, and LAPACK without eigenvectors costs a fraction
    of the full decomposition.
    """
    return eigvalsh(_reduce_pencil(a, b_fact))


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
    top = sym_generalized_eigvals(a.T @ spd_solve(test_fact, a), trial_fact)[-1]
    return float(np.sqrt(max(top, 0.0)))
