import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import dualstab
from dualstab import algebra
from dualstab.algebra import (
    SYMMETRY_RTOL,
    BandedSpdFactorization,
    DimensionMismatch,
    NotSpd,
    SpdFactorization,
    as_matrix,
    band_apply,
    band_to_dense,
    cholesky,
    cholesky_band,
    eigh,
    eigvalsh,
    operator_norm,
    require_symmetric,
    spd_solve,
    svd,
    sym_generalized_eig,
    sym_generalized_eigvals,
    symmetrized,
)
from oracles import random_spd


def traced_peak(call, *args):
    """(result, tracemalloc peak in bytes above the memory traced before the call)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestCholesky:
    def test_two_by_two_factor(self):
        # [[4,2],[2,3]] = L L^T with L = [[2,0],[1,sqrt(2)]]
        fact = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]), "m")
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(fact.lower, expected, atol=1e-14)

    def test_factor_roundtrip(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 40):
            m = random_spd(rng, n)
            fact = cholesky(m, "m")
            np.testing.assert_allclose(fact.lower @ fact.lower.T, m, atol=1e-12 * n)

    def test_indefinite_rejected(self):
        with pytest.raises(NotSpd):
            cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]), "m")

    def test_semidefinite_rejected(self):
        # rank-1 matrix: LAPACK may or may not fail, the pivot check must
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(NotSpd):
            cholesky(np.outer(v, v), "m")

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[2.0, 1.0], [0.0, 2.0]]), "m")

    def test_error_message_names_matrix(self):
        with pytest.raises(NotSpd, match="pressure Gramian"):
            cholesky(-np.eye(2), "pressure Gramian")

    def test_factors_near_the_float_maximum(self):
        # the symmetrized sum a + aᵀ of this finite SPD matrix overflows
        fact = cholesky(np.array([[1.5e308]]), "m")
        assert fact.lower[0, 0] == np.sqrt(1.5e308)
        m = np.array([[1.5e308, 1e307], [1e307, 1.2e308]])
        fact = cholesky(m, "m")
        assert np.all(np.isfinite(fact.lower))
        assert np.abs(fact.lower @ fact.lower.T - m).max() <= 1e-15 * m.max()


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: as_matrix(np.ones(3)), DimensionMismatch),
            # a factor with a zero diagonal entry: the triangular solve fails
            (
                lambda: spd_solve(SpdFactorization(2, np.array([[1.0, 0.0], [1.0, 0.0]])), np.ones(2)),
                np.linalg.LinAlgError,
            ),
            (
                lambda: operator_norm(np.ones((2, 3)), cholesky(np.eye(2)), cholesky(np.eye(2))),
                DimensionMismatch,
            ),
        ],
        ids=["not-2d", "zero-diagonal", "operator-shape"],
    )
    def test_raises(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (svd, ValueError, "illegal value in argument 4 of LAPACK dgesdd"),
            (eigvalsh, np.linalg.LinAlgError, "eigenvalues did not converge"),
            (eigh, np.linalg.LinAlgError, "eigenvalues did not converge"),
        ],
        ids=["svd", "eigvalsh", "eigh"],
    )
    def test_lapack_info_raises(self, call, error, message):
        # dgesdd refuses a NaN matrix as an illegal argument 4, A, and the
        # tridiagonal iteration of dsyevd does not converge on one
        with pytest.raises(error, match=f"^{message}$"):
            call(np.full((4, 4), np.nan))

    def test_tall_nan_matrix_reaches_dgesdd(self):
        # a tall matrix with a NaN is not reduced to R first, so dgesdd
        # refuses it as it refuses a square one
        a = np.ones((40, 3))
        a[7, 1] = np.nan
        with pytest.raises(ValueError, match="^illegal value in argument 4 of LAPACK dgesdd$"):
            svd(a)


class TestSpdSolve:
    def test_frozen_solution(self):
        # inv([[4,2],[2,3]]) @ (1,0) = (3/8, -1/4)
        fact = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]), "m")
        np.testing.assert_allclose(spd_solve(fact, np.array([1.0, 0.0])), [0.375, -0.25])

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(11)
        for n in (3, 20, 80):
            m = random_spd(rng, n)
            fact = cholesky(m, "m")
            b = rng.standard_normal(n)
            np.testing.assert_allclose(spd_solve(fact, b), np.linalg.solve(m, b), rtol=1e-9)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(12)
        m = random_spd(rng, 9)
        fact = cholesky(m, "m")
        b = rng.standard_normal((9, 4))
        np.testing.assert_allclose(m @ spd_solve(fact, b), b, atol=1e-10)

    def test_identity_inverse(self):
        rng = np.random.default_rng(13)
        m = random_spd(rng, 6)
        inv = spd_solve(cholesky(m, "m"), np.eye(6))
        np.testing.assert_allclose(inv, np.linalg.inv(m), rtol=1e-9, atol=1e-12)


def random_band(rng, n, u):
    """Upper band storage of a random SPD matrix with u superdiagonals."""
    band = rng.uniform(-1.0, 1.0, (u + 1, n))
    band[u] = 2.0 * (u + 1)  # diagonally dominant
    for k in range(1, u + 1):
        band[u - k, :k] = 0.0  # not referenced
    return band


class TestBanded:
    @pytest.mark.parametrize("u", [0, 1, 3])
    def test_band_matches_dense(self, u):
        rng = np.random.default_rng(u)
        band = random_band(rng, 12, u)
        dense = band_to_dense(band)
        np.testing.assert_array_equal(dense, dense.T)
        assert np.count_nonzero(np.triu(dense, u + 1)) == 0
        for x in (rng.standard_normal(12), rng.standard_normal((12, 4))):
            np.testing.assert_allclose(band_apply(band, x), dense @ x, rtol=0.0, atol=1e-13)
            fact = cholesky_band(band, "band")
            assert isinstance(fact, BandedSpdFactorization) and fact.dim == 12
            np.testing.assert_allclose(
                spd_solve(fact, x), spd_solve(cholesky(dense), x), rtol=0.0, atol=1e-13
            )

    def test_single_node_band(self):
        band = np.array([[0.0], [4.0]])
        np.testing.assert_array_equal(band_to_dense(band), [[4.0]])
        np.testing.assert_array_equal(band_apply(band, np.array([2.0])), [8.0])
        np.testing.assert_array_equal(spd_solve(cholesky_band(band), np.array([2.0])), [0.5])

    def test_indefinite_band_rejected(self):
        band = np.array([[0.0, 2.0], [1.0, 1.0]])  # [[1, 2], [2, 1]]
        with pytest.raises(NotSpd, match="not positive definite"):
            cholesky_band(band, "band")

    def test_singular_band_rejected_by_pivot_screen(self):
        # [[1, 1], [1, 1 + 1e-15]]: positive pivots, the last at roundoff
        # scale, so LAPACK factors it and the PIVOT_RTOL screen must reject it
        band = np.array([[0.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(NotSpd, match="numerically singular"):
            cholesky_band(band, "band")
        with pytest.raises(NotSpd):
            cholesky(band_to_dense(band))

    def test_solve_dimension_mismatch(self):
        fact = cholesky_band(random_band(np.random.default_rng(0), 5, 1))
        with pytest.raises(DimensionMismatch):
            spd_solve(fact, np.ones(4))


class TestGeneralizedEig:
    def test_diagonal_pencil(self):
        a = np.diag([3.0, 1.0, 2.0])
        lam, _ = sym_generalized_eig(a, cholesky(np.eye(3), "b"))
        np.testing.assert_allclose(lam, [1.0, 2.0, 3.0], atol=1e-14)

    def test_scaled_identity_pencil(self):
        # (A, 2A) has every eigenvalue exactly 1/2
        rng = np.random.default_rng(21)
        a = random_spd(rng, 8)
        lam, _ = sym_generalized_eig(a, cholesky(2.0 * a, "b"))
        np.testing.assert_allclose(lam, 0.5, rtol=1e-12)

    def test_frozen_two_by_two(self):
        a = np.array([[2.0, 0.0], [0.0, 8.0]])
        b = np.array([[2.0, 0.0], [0.0, 4.0]])
        lam, _ = sym_generalized_eig(a, cholesky(b, "b"))
        np.testing.assert_allclose(lam, [1.0, 2.0], atol=1e-14)

    def test_b_orthonormal_and_residual(self):
        rng = np.random.default_rng(22)
        for n in (2, 10, 60):
            a = random_spd(rng, n)
            a = 0.5 * (a + a.T)
            b = random_spd(rng, n)
            lam, x = sym_generalized_eig(a, cholesky(b, "b"))
            np.testing.assert_allclose(x.T @ b @ x, np.eye(n), atol=1e-10)
            np.testing.assert_allclose(a @ x, b @ x * lam, atol=1e-9 * np.abs(a).max())
            assert np.all(np.diff(lam) >= -1e-13)

    def test_rayleigh_bracketing(self):
        # every Rayleigh quotient lies between the extreme eigenvalues
        rng = np.random.default_rng(23)
        a = random_spd(rng, 25)
        b = random_spd(rng, 25)
        lam, _ = sym_generalized_eig(a, cholesky(b, "b"))
        for _ in range(200):
            v = rng.standard_normal(25)
            rq = (v @ a @ v) / (v @ b @ v)
            assert lam[0] - 1e-10 <= rq <= lam[-1] + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sym_generalized_eig(np.eye(3), cholesky(np.eye(2), "b"))


class TestGeneralizedEigvals:
    def test_matches_full_solve(self):
        rng = np.random.default_rng(24)
        for n in (1, 2, 10, 60):
            a = random_spd(rng, n)
            b = random_spd(rng, n)
            fact = cholesky(b, "b")
            full = sym_generalized_eig(a, fact)[0]
            np.testing.assert_allclose(
                sym_generalized_eigvals(a, fact), full, rtol=1e-12, atol=0.0
            )

    def test_indefinite_pencil_matrix(self):
        rng = np.random.default_rng(25)
        q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        a = q @ (np.linspace(-5.0, 3.0, 30)[:, None] * q.T)
        fact = cholesky(random_spd(rng, 30), "b")
        values = sym_generalized_eigvals(a, fact)
        full = sym_generalized_eig(a, fact)[0]
        assert values[0] < 0.0 < values[-1]
        np.testing.assert_allclose(values, full, rtol=1e-12, atol=1e-12 * np.abs(full).max())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sym_generalized_eigvals(np.eye(3), cholesky(np.eye(2), "b"))


class TestOperatorNorm:
    def test_diagonal(self):
        fact = cholesky(np.eye(2), "g")
        assert operator_norm(np.diag([3.0, 1.0]), fact, fact) == pytest.approx(3.0, abs=1e-13)

    def test_nilpotent(self):
        # ||[[0,2],[0,0]]|| = 2 in the Euclidean pair
        fact = cholesky(np.eye(2), "g")
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert operator_norm(a, fact, fact) == pytest.approx(2.0, abs=1e-13)

    def test_matches_svd_route(self):
        # independent route: largest singular value of L_test^-1 A L_trial^-T
        rng = np.random.default_rng(31)
        g_test = random_spd(rng, 12)
        g_trial = random_spd(rng, 12)
        a = rng.standard_normal((12, 12))
        tf, gf = cholesky(g_test, "t"), cholesky(g_trial, "g")
        norm = operator_norm(a, tf, gf)
        core = np.linalg.solve(tf.lower, a) @ np.linalg.inv(gf.lower).T
        assert norm == pytest.approx(np.linalg.svd(core, compute_uv=False)[0], rel=1e-11)

    def test_bounds_random_rayleigh(self):
        rng = np.random.default_rng(33)
        g_test = random_spd(rng, 12)
        g_trial = random_spd(rng, 12)
        a = rng.standard_normal((12, 12))
        norm = operator_norm(a, cholesky(g_test, "t"), cholesky(g_trial, "g"))
        for _ in range(300):
            v = rng.standard_normal(12)
            av = a @ v
            num = np.sqrt(av @ np.linalg.solve(g_test, av))
            assert num <= (norm + 1e-10) * np.sqrt(v @ g_trial @ v)

    def test_gramian_is_isometry(self):
        # A = G: sup <Gv, w>/(||v|| ||w||) = 1 in the matching pair
        rng = np.random.default_rng(32)
        g = random_spd(rng, 15)
        fact = cholesky(g, "g")
        assert operator_norm(g, fact, fact) == pytest.approx(1.0, rel=1e-11)


class TestRequireSymmetric:
    def test_symmetrizes_roundoff(self):
        m = np.array([[1.0, 1e-14], [0.0, 1.0]])
        out = require_symmetric(m, "m")
        np.testing.assert_allclose(out, out.T)

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValueError, match="m"):
            require_symmetric(np.array([[1.0, 1.0], [0.0, 1.0]]), "m")

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            require_symmetric(np.zeros((2, 3)), "m")

    def test_bits_and_verdict_of_the_symmetrized_sum(self):
        # the scale, the asymmetry test and the result read as the formulas
        # np.abs(a).max(), np.abs(a - a.T).max() and 0.5 * (a + a.T) do, bit
        # for bit and sign of zero included, on both sides of the tolerance
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-150.0, 150.0)
            a = a + a.T
            a += rng.standard_normal((n, n)) * np.abs(a).max() * 10.0 ** rng.uniform(-17.0, -11.0)
            zeros = rng.random((n, n)) < 0.1
            zeros |= zeros.T
            a[zeros] = -0.0
            a[zeros & (rng.random((n, n)) < 0.5)] = 0.0
            scale = np.abs(a).max()
            expected_ok = not (scale > 0.0 and np.abs(a - a.T).max() > SYMMETRY_RTOL * scale)
            if not expected_ok:
                with pytest.raises(ValueError, match="not symmetric"):
                    require_symmetric(a, "a")
                continue
            out, expected = require_symmetric(a, "a"), 0.5 * (a + a.T)
            assert np.array_equal(out, expected)
            assert np.array_equal(np.signbit(out), np.signbit(expected))

    def test_halves_summed_above_half_the_float_maximum(self):
        # past half the float maximum a + aᵀ may overflow, so the result is
        # 0.5·a + 0.5·aᵀ there: finite, exactly symmetric, and the bits of the
        # halved sum wherever that sum is finite
        half_max = np.finfo(float).max / 2
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            a = rng.uniform(-1.0, 1.0, (n, n))
            a = (a + a.T) * 0.5
            a /= np.abs(a).max()
            a *= rng.uniform(1.0, 1.9) * half_max
            a += rng.standard_normal((n, n)) * (np.abs(a).max() * 1e-14)
            out = require_symmetric(a, "a")
            assert np.all(np.isfinite(out)) and np.array_equal(out, out.T)
            with np.errstate(over="ignore"):
                summed = (a + a.T) * 0.5
            finite = np.isfinite(summed)
            assert np.array_equal(out[finite], summed[finite])
        # at exactly half the float maximum the sum is kept, bit for bit
        a = np.array([[half_max, 1.0], [1.0, -half_max]])
        assert np.array_equal(require_symmetric(a, "a"), 0.5 * (a + a.T))

    def test_holds_one_temporary_at_a_time(self):
        # above the input, the traced peak is the returned copy (1.05 n²
        # doubles); |a|, |a − aᵀ| and 0.5·(a + aᵀ) alive beside their
        # operands took it to two copies
        rng = np.random.default_rng(42)
        a = rng.standard_normal((400, 400))
        a = a + a.T
        out, peak = traced_peak(require_symmetric, a, "a")
        assert out.shape == a.shape
        assert peak <= 1.25 * a.nbytes


class TestSymmetrized:
    def test_exactly_symmetric_and_the_halved_sum_in_range(self):
        # every product the package forms is symmetrized here: in the normal
        # range it is 0.5 * (p + pᵀ) bit for bit, sign of zero included
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            p = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-150.0, 150.0)
            p[rng.random((n, n)) < 0.1] = -0.0
            kept = p.copy()
            out, expected = symmetrized(p), 0.5 * (p + p.T)
            assert np.array_equal(out, out.T)
            assert np.array_equal(out, expected)
            assert np.array_equal(np.signbit(out), np.signbit(expected))
            assert np.array_equal(p, kept)


class TestWorksInPlace:
    # dpotrf and dsygst work on require_symmetric's copy, and dsyevd on
    # dsygst's result: above the input, the traced peak is that one copy
    # (1.05 n² doubles for the factor, 1.09 for the pencil), where a dpotrf
    # that copied its input held 2.0 and the reduction by two triangular
    # solves and a symmetrized sum 4.05

    def test_cholesky_factors_its_copy(self):
        m = random_spd(np.random.default_rng(43), 400)
        assert traced_peak(cholesky, m, "m")[1] <= 1.25 * m.nbytes

    def test_pencil_reduced_and_solved_in_its_copy(self):
        rng = np.random.default_rng(44)
        a = rng.standard_normal((400, 400))
        a = a + a.T
        fact = cholesky(random_spd(rng, 400), "b")
        assert traced_peak(sym_generalized_eigvals, a, fact)[1] <= 1.25 * a.nbytes

    def test_svd_works_in_an_f_ordered_input(self):
        # a tall F-ordered input is reduced to its R factor in place: above
        # it, the traced peak is R, its SVD and their workspaces (0.15 of the
        # input's size), where the U of dgesdd on the whole input took it to
        # 1.13 and a copy of the input to 2.13; any other input is copied
        # first and left as it was
        a = np.random.default_rng(45).standard_normal((4000, 100))
        kept = a.copy()
        s, vt = svd(a)
        assert np.array_equal(a, kept)
        f = np.asfortranarray(a)
        (s_f, vt_f), peak = traced_peak(svd, f)
        assert peak <= 0.25 * a.nbytes
        assert np.array_equal(s_f, s) and np.array_equal(vt_f, vt)
        assert not np.array_equal(f, a)


# Imports dualstab.cli and numpy in the order argv[1] names, then reads the
# thread count of every mapped OpenBLAS of scipy's and of numpy's, the thread
# variable and this process's OS threads.  The OpenBLAS of numpy wheels has
# 64-bit integers and a 64_ symbol suffix.
_THREADS_PROBE = """
import ctypes, json, os, sys
if sys.argv[1] == "dualstab-first":
    import dualstab.cli
    import numpy
else:
    import numpy
    import dualstab.cli
from dualstab import algebra

os_threads = len(os.listdir("/proc/self/task"))
GETTERS = ("scipy_openblas_get_num_threads", "openblas_get_num_threads",
           "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")

def threads(path):
    lib = ctypes.CDLL(path)
    for name in GETTERS:
        if hasattr(lib, name):
            getter = getattr(lib, name)
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter()
    return None

with open("/proc/self/maps") as maps:
    mapped = sorted({line.split(maxsplit=5)[5].rstrip() for line in maps if "openblas" in line})
scipy_dir = os.path.dirname(os.path.dirname(algebra.lapack.__file__))
scipy_prefixes = (scipy_dir + os.sep, scipy_dir + ".libs" + os.sep)
# numpy's copy lies in numpy/ or numpy.libs/
numpy_dir = os.path.dirname(numpy.__file__)
print(json.dumps({"scipy": [threads(p) for p in mapped if p.startswith(scipy_prefixes)],
                  "numpy": [threads(p) for p in mapped if p.startswith(numpy_dir)],
                  "variable": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "os_threads": os_threads}))
"""

ORDERS = ("dualstab-first", "numpy-first")


def _run_child(code, *args, **env):
    """Run ``python -c code *args`` on this src/, with ``env`` added to the environment.

    A variable given as None is removed from the child's environment.
    """
    src = str(Path(dualstab.__file__).resolve().parents[1])
    env = {k: v for k, v in dict(os.environ, PYTHONPATH=src, **env).items() if v is not None}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _threads_probe(order, threads):
    """The thread probe of a child started with OPENBLAS_NUM_THREADS = threads (None: unset)."""
    proc = _run_child(_THREADS_PROBE, order, OPENBLAS_NUM_THREADS=threads)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
class TestEveryBlasOnOneThread:
    """numpy's and scipy's bundled OpenBLAS run on one thread once algebra is loaded."""

    @pytest.fixture(scope="class")
    def probes(self):
        # in children, started at 2 threads, so this process's thread pools stay as they are
        probes = {order: _threads_probe(order, "2") for order in ORDERS}
        if not probes["dualstab-first"]["scipy"]:
            pytest.skip("no separate OpenBLAS bundled with scipy in this install")
        if not probes["dualstab-first"]["numpy"]:
            pytest.skip("no separate OpenBLAS bundled with numpy in this install")
        return probes

    def test_dualstab_first_both_copies_on_one_thread(self, probes):
        probe = probes["dualstab-first"]
        assert probe["scipy"] == [1] * len(probe["scipy"])
        assert probe["numpy"] == [1]
        # the main thread alone: neither pool started a worker
        assert probe["os_threads"] == 1

    def test_numpy_first_numpy_copy_on_one_thread(self, probes):
        probe = probes["numpy-first"]
        assert probe["scipy"] == [1] * len(probe["scipy"])
        assert probe["numpy"] == [1]

    def test_thread_variable_put_back(self, probes):
        for order in ORDERS:
            assert probes[order]["variable"] == "2"
            assert _threads_probe(order, None)["variable"] is None


def test_numpy_without_a_bundled_blas_left_as_it_is(tmp_path, monkeypatch):
    # a numpy on a BLAS of the system has no numpy.libs, and a file there
    # that does not load is passed over
    libs = tmp_path / "numpy.libs"
    libs.mkdir()
    (libs / "libopenblas-broken.so").write_bytes(b"not a library")
    fake = types.ModuleType("numpy")
    fake.__file__ = str(tmp_path / "numpy" / "__init__.py")
    monkeypatch.setitem(sys.modules, "numpy", fake)
    algebra._numpy_blas_on_one_thread()
    fake.__file__ = str(tmp_path / "elsewhere" / "numpy" / "__init__.py")
    algebra._numpy_blas_on_one_thread()


# The LAPACK routines src calls, all from scipy's f2py LAPACK module.
LAPACK_ROUTINES = (
    "dpotrf",
    "dpbtrf",
    "dpbtrs",
    "dtrtrs",
    "dsygst",
    "dsyevd",
    "dsyevd_lwork",
    "dgesdd",
    "dgesdd_lwork",
    "dlange",
    "dgetrf",
    "dgecon",
    "dgetrs",
)

_SAME_KERNELS_PROBE = """
import sys
if sys.argv[1] == "dualstab-first":
    from dualstab import algebra
    import scipy.linalg.lapack as lapack
else:
    import scipy.linalg.lapack as lapack
    from dualstab import algebra
assert algebra.lapack is sys.modules["scipy.linalg._flapack"] is lapack._flapack
different = [n for n in sys.argv[2:] if getattr(algebra.lapack, n) is not getattr(lapack, n)]
sys.exit(f"different objects: {different}" if different else 0)
"""

_CLI_IMPORTS_PROBE = """
import sys
import dualstab.cli as cli
for command in ("constants", "solve"):
    code = cli.main([command, "--config", sys.argv[1], "--out", sys.argv[2] + "." + command])
    assert code == 0, (command, code)
sys.exit("scipy.linalg imported" if "scipy.linalg" in sys.modules else 0)
"""


# Compares algebra's eigensolvers and SVD with numpy's, bit for bit: both call
# dsyevd and dgesdd on the workspace LAPACK sizes, which on one thread of the
# same OpenBLAS build gives the same bits.
_NUMPY_BITS_PROBE = """
import sys
import numpy as np
from dualstab import algebra
rng = np.random.default_rng(24)
different = []
for n in (1, 2, 17, 33, 64, 200):
    a = rng.standard_normal((n, n))
    a = a + a.T
    # copies: algebra's work in an F-ordered input, as a 1 × 1 one is
    if not np.array_equal(algebra.eigvalsh(a.copy()), np.linalg.eigvalsh(a)):
        different.append(("eigvalsh", n))
    if not all(map(np.array_equal, algebra.eigh(a.copy()), np.linalg.eigh(a))):
        different.append(("eigh", n))
    for shape in ((n, 3), (3, n), (4 * n + 1, n), (2047, 17)):
        b = rng.standard_normal(shape)
        for full in (False, True):
            _, s, vt = np.linalg.svd(b, full_matrices=full)
            mine = algebra.svd(b.copy(), full_matrices=full)
            if not (np.array_equal(mine[0], s) and np.array_equal(mine[1], vt)):
                different.append(("svd", shape, full))
            if not mine[1].flags.c_contiguous:
                different.append(("svd vt order", shape, full))
sys.exit(f"different from numpy: {different}" if different else 0)
"""


class TestPackageRoot:
    def test_defines_no_public_name_but_the_version(self):
        # in a child, where no test has imported a submodule yet
        code = "import dualstab; print(*sorted(n for n in vars(dualstab) if not n.startswith('_')))"
        proc = _run_child(code)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == []
        assert "__version__" in vars(dualstab)


class TestLapackModule:
    @pytest.mark.parametrize("order", ["dualstab-first", "scipy-first"])
    def test_one_set_of_kernels(self, order):
        # whichever imports first, src and scipy.linalg.lapack call the same objects
        proc = _run_child(_SAME_KERNELS_PROBE, order, *LAPACK_ROUTINES)
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_cli_does_not_import_scipy_linalg(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("truth_elems = 64\ncoarse_elems = 8\n")
        proc = _run_child(_CLI_IMPORTS_PROBE, str(cfg), str(tmp_path / "report"))
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_eigensolvers_match_numpy_on_one_thread(self):
        one = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        proc = _run_child(_NUMPY_BITS_PROBE, **one)
        assert proc.returncode == 0, proc.stderr[-2000:]


SIZES = (1, 2, 3, 17, 64, 200)


class TestBitForBitWithScipy:
    """Each kernel returns exactly the bits of scipy's public wrapper."""

    @staticmethod
    def rhs_cases(rng, n):
        mat = rng.standard_normal((n, 3))
        return (rng.standard_normal(n), mat, np.asfortranarray(mat))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_cholesky_and_dense_solve(self, order):
        rng = np.random.default_rng(21)
        for n in SIZES:
            m = random_spd(rng, n)
            m = np.asarray(0.5 * (m + m.T), order=order)
            fact = cholesky(m, "m")
            assert np.array_equal(fact.lower, scipy.linalg.cholesky(m, lower=True))
            # dpotrf returns an F-ordered factor; a C-ordered one takes the other trtrs branch
            for lower in (fact.lower, np.ascontiguousarray(fact.lower)):
                f = SpdFactorization(dim=n, lower=lower)
                for b in self.rhs_cases(rng, n):
                    y = scipy.linalg.solve_triangular(lower, b, lower=True)
                    x = scipy.linalg.solve_triangular(lower.T, y, lower=False)
                    assert np.array_equal(spd_solve(f, b), x)

    @pytest.mark.parametrize("u", [0, 1, 3])
    def test_band_factor_and_solve(self, u):
        rng = np.random.default_rng(22 + u)
        for n in SIZES:
            band = random_band(rng, n, u)
            fact = cholesky_band(band, "band")
            upper = scipy.linalg.cholesky_banded(band, lower=False)
            assert np.array_equal(fact.upper, upper)
            for b in self.rhs_cases(rng, n):
                x = scipy.linalg.cho_solve_banded((upper, False), b)
                assert np.array_equal(spd_solve(fact, b), x)

    def test_generalized_eig(self):
        # the reduction is one dsygst on the lower triangles, the eigensolves
        # dsyevd on its lower triangle, the back-transform a triangular solve
        lapack = scipy.linalg.lapack
        rng = np.random.default_rng(23)
        for n in SIZES:
            a = random_spd(rng, n) - 2.0 * np.eye(n)
            a = 0.5 * (a + a.T)
            fact = cholesky(random_spd(rng, n), "b")
            lower = fact.lower
            c, info = lapack.dsygst(a, lower, itype=1, lower=1)
            assert info == 0
            work, iwork, _ = lapack.dsyevd_lwork(n, compute_v=0, lower=1)
            w, _, info = lapack.dsyevd(c, compute_v=0, lower=1, lwork=int(work), liwork=iwork)
            assert info == 0
            assert np.array_equal(sym_generalized_eigvals(a, fact), w)
            work, iwork, _ = lapack.dsyevd_lwork(n, compute_v=1, lower=1)
            w, v, info = lapack.dsyevd(c, compute_v=1, lower=1, lwork=int(work), liwork=iwork)
            assert info == 0
            lam, vectors = sym_generalized_eig(a, fact)
            assert np.array_equal(lam, w)
            x = scipy.linalg.solve_triangular(lower.T, v, lower=False)
            assert np.array_equal(vectors, x)

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e-138, 1e138, 1e200])
    def test_svd_of_a_tall_matrix_is_dgesdd_on_it(self, scale):
        # the R-SVD of a tall input gives the bits of dgesdd on the whole of
        # it, which reduces it to R itself from 11/6 as many rows as columns
        # on; below that height, and where dgesdd rescales, it runs whole
        lapack = scipy.linalg.lapack
        rng = np.random.default_rng(26)
        for shape in ((2, 1), (5, 1), (7, 4), (8, 4), (15, 9), (31, 17), (100, 3), (2047, 17)):
            a = scale * rng.standard_normal(shape)
            for full in (False, True):
                lwork, _ = lapack.dgesdd_lwork(*shape, compute_uv=1, full_matrices=full)
                _, s, vt, info = lapack.dgesdd(
                    a, compute_uv=1, full_matrices=full, lwork=int(lwork)
                )
                assert info == 0
                mine = svd(np.array(a, order="F"), full_matrices=full)
                assert np.array_equal(mine[0], s) and np.array_equal(mine[1], vt), (shape, full)

    def test_not_spd_messages(self):
        indefinite = np.array([[0.0, 2.0], [1.0, 1.0]])  # [[1, 2], [2, 1]]
        singular = np.array([[0.0, 1.0], [1.0, 1.0 + 1e-15]])  # last pivot at roundoff
        for factor, storage in ((cholesky, band_to_dense), (cholesky_band, np.asarray)):
            with pytest.raises(NotSpd, match=r"^m is not positive definite$"):
                factor(storage(indefinite), "m")
            singular_message = r"^m is numerically singular \(pivot below threshold\)$"
            with pytest.raises(NotSpd, match=singular_message):
                factor(storage(singular), "m")
