import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from vcomp import spectrum
from vcomp.errors import NumericalError
from vcomp.laws import SeedSpec
from vcomp.model import DesignSpec, gen_design
from vcomp.spectrum import (GramSpectrum, _bidiagonal_gram_eigenvalues, _openblas, decompose_gram,
                            decompose_gram_rotating, eigvar)


def decompose_gram_by_eigh(X):
    """The reference route: the Gram formed out of place and ``np.linalg.eigh``."""
    n, p = X.shape
    G = (X @ X.T) / p
    G = 0.5 * (G + G.T)
    return GramSpectrum.from_eigenvalues(n, p, *np.linalg.eigh(G))


_rng = np.random.default_rng(17)
DESIGNS = {
    "p<n": _rng.standard_normal((40, 15)),
    "p>n": _rng.standard_normal((30, 70)),
    "n=p": _rng.standard_normal((65, 65)),
    "large": _rng.standard_normal((200, 150)),
    "rank-deficient": _rng.standard_normal((60, 5)) @ _rng.standard_normal((5, 90)),
    "identity": math.sqrt(8) * np.eye(8),
    "fixed-trailing-zeros": gen_design(40, 20, DesignSpec("fixed_spectrum", (3.0, 2.0) + (1.0,) * 18 + (0.0,) * 20),
                                       SeedSpec(3)),
    "n=2": _rng.standard_normal((2, 3)),
    "n=2,p=1": _rng.standard_normal((2, 1)),
    "non-contiguous": _rng.standard_normal((90, 120))[::2, ::3],
}
BUNDLED = hasattr(_openblas(), "scipy_dsyevd_64_")
STEPS = all(hasattr(_openblas(), f"scipy_{name}_64_") for name in ("dsytrd", "dormtr", "dstedc"))


def rotated_by_u(X, y):
    """``decompose_gram_rotating``'s reference: U'y through ``decompose_gram``'s U."""
    spec = decompose_gram(X)
    return spec, spec.U.T @ y


def assert_same_bytes(got, want):
    assert got.lambdas.tobytes() == want.lambdas.tobytes()
    assert got.U.tobytes() == want.U.tobytes() and got.U.strides == want.U.strides


def make_spec(lambdas):
    lam = np.asarray(lambdas, dtype=float)
    return GramSpectrum(n=lam.size, p=lam.size, lambdas=lam, U=np.eye(lam.size))


class TestDecomposeGram:
    def test_identity_design(self):
        p = 5
        X = math.sqrt(p) * np.eye(p)
        spec = decompose_gram(X)
        np.testing.assert_allclose(spec.lambdas, np.ones(p), atol=1e-12)

    def test_zero_design(self):
        spec = decompose_gram(np.zeros((4, 3)))
        assert np.all(spec.lambdas == 0)

    @pytest.mark.parametrize("shape", [(5, 8), (8, 5), (6, 6)])
    def test_reconstruction(self, shape):
        rng = np.random.default_rng(3)
        X = rng.standard_normal(shape)
        spec = decompose_gram(X)
        G = X @ X.T / shape[1]
        rec = (spec.U * spec.lambdas) @ spec.U.T
        rel = np.linalg.norm(rec - G) / np.linalg.norm(G)
        assert rel < 1e-8
        assert np.max(np.abs(spec.U.T @ spec.U - np.eye(shape[0]))) < 1e-8
        assert np.all(np.diff(spec.lambdas) <= 0)
        # the n - min(n, p) zero eigenvalues of a tall design are exact
        assert np.count_nonzero(spec.lambdas) == min(shape)

    def test_tall_design_matches_eigvalsh_oracle(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((8, 5))
        spec = decompose_gram(X)
        w = np.linalg.eigvalsh(X @ X.T / 5)[::-1]
        np.testing.assert_allclose(spec.lambdas, np.maximum(w, 0), atol=1e-10)

    @pytest.mark.parametrize("shape", [(10, 4, 20), (12, 3, 7)], ids=["wide", "tall"])
    def test_low_rank_zeros_are_exact(self, shape):
        n, rank, p = shape
        rng = np.random.default_rng(2)
        X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
        lam = decompose_gram(X).lambdas
        assert np.all(lam[:rank] > 1e-3) and np.all(lam[rank:] == 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            decompose_gram(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            decompose_gram(np.ones((1, 3)))

    def test_gaussian_wide_full_rank(self):
        rng = np.random.default_rng(11)
        spec = decompose_gram(rng.standard_normal((100, 200)))
        assert np.all(spec.lambdas > 0)
        assert np.isfinite(spec.lambda_1)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="the callee owns its arguments from CPython 3.11")
    def test_design_passed_as_last_reference_is_freed_before_eigh(self, monkeypatch):
        # vcomp fit passes the loaded design this way; its eigensolve then
        # runs without an n x p matrix resident
        box = [np.random.default_rng(2).standard_normal((6, 9))]
        design = weakref.ref(box[0])
        alive_at_eigh = []
        solve = spectrum._eigh_in_place
        monkeypatch.setattr(spectrum, "_eigh_in_place", lambda G: alive_at_eigh.append(design() is not None) or solve(G))
        decompose_gram(box.pop())
        assert alive_at_eigh == [False]


class TestInPlaceEigensolve:
    @pytest.mark.parametrize("name", DESIGNS)
    def test_bytes_equal_the_eigh_route(self, name):
        X = DESIGNS[name]
        spec = decompose_gram(X)
        assert_same_bytes(spec, decompose_gram_by_eigh(X))
        assert spec.U.flags.f_contiguous

    @pytest.mark.skipif(not BUNDLED, reason="numpy is not on its bundled OpenBLAS")
    @pytest.mark.parametrize("name", ["p>n", "large", "rank-deficient", "non-contiguous"])
    def test_bundled_route_does_not_call_eigh(self, monkeypatch, name):
        X = DESIGNS[name]
        want = decompose_gram_by_eigh(X)
        monkeypatch.setattr(np.linalg, "eigh", lambda G: pytest.fail("np.linalg.eigh was called"))
        assert_same_bytes(decompose_gram(X), want)

    @pytest.mark.parametrize("lib", [None, type("NoDsyevd", (), {})], ids=["another-blas", "no-dsyevd"])
    @pytest.mark.parametrize("name", ["p<n", "large", "rank-deficient", "identity"])
    def test_fallback_calls_eigh_with_the_same_bytes(self, monkeypatch, lib, name):
        X = DESIGNS[name]
        want = decompose_gram_by_eigh(X)
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(spectrum, "_openblas", lambda: lib)
        monkeypatch.setattr(np.linalg, "eigh", lambda G: calls.append(G.shape) or eigh(G))
        assert_same_bytes(decompose_gram(X), want)
        assert calls == [(X.shape[0],) * 2]

    def test_dsyevd_failure_raises(self, monkeypatch):
        class Lib:
            @staticmethod
            def scipy_dsyevd_64_(*args):
                args[10]._obj.value = 1  # info

        monkeypatch.setattr(spectrum, "_openblas", lambda: Lib)
        with pytest.raises(NumericalError, match=r"dsyevd failed on the 6 x 6 Gram matrix \(info 1\)"):
            decompose_gram(DESIGNS["p>n"][:6])

    @pytest.mark.skipif(not BUNDLED, reason="numpy is not on its bundled OpenBLAS")
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status to read VmHWM from")
    def test_peak_memory_is_under_four_and_a_quarter_grams(self):
        # the eigh route peaked at about 5.7 n^2 doubles above the design; in place, about 3.7
        child = """if True:
            import numpy as np
            from vcomp.spectrum import decompose_gram

            def hwm():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

            X = np.random.default_rng(0).standard_normal((1000, 2000))
            before = hwm()
            decompose_gram(X)
            print((hwm() - before) / (8 * 1000 ** 2))
        """
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", child], env=env, check=True, capture_output=True, text=True,
                             timeout=300)
        assert float(out.stdout) <= 4.25


class TestRotatingRoute:
    @pytest.mark.parametrize("name", DESIGNS)
    def test_eigenvalues_keep_their_bits_and_y_check_its_squares(self, name):
        X = DESIGNS[name]
        y = np.random.default_rng(3).standard_normal(X.shape[0])
        want, y_want = rotated_by_u(X, y)
        spec, y_check = decompose_gram_rotating(X, y)
        assert spec.lambdas.tobytes() == want.lambdas.tobytes() and (spec.n, spec.p, spec.U) == (want.n, want.p, None)
        # each coordinate up to the sign of its eigenvector, and in a repeated
        # eigenvalue's eigenspace only the sum of squares is defined
        for lam in np.unique(spec.lambdas):
            block = spec.lambdas == lam
            assert np.sum(y_check[block] ** 2) == pytest.approx(np.sum(y_want[block] ** 2), rel=1e-12, abs=1e-12)

    @pytest.mark.skipif(not STEPS, reason="numpy is not on its bundled OpenBLAS")
    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e74, 1e76])
    def test_far_scaled_designs_keep_their_bits(self, monkeypatch, scale):
        # dsyevd scales a G with entries beyond 2^485 or below 2^-485 into range: so does this route;
        # above 1e76 the eigenvalues' squares leave the float range (TestFloatRange)
        X = scale * DESIGNS["p>n"]
        y = np.random.default_rng(3).standard_normal(X.shape[0])
        want, y_want = rotated_by_u(X, y)
        monkeypatch.setattr(np.linalg, "eigh", lambda G: pytest.fail("np.linalg.eigh was called"))
        spec, y_check = decompose_gram_rotating(X, y)
        assert spec.lambdas.tobytes() == want.lambdas.tobytes()
        np.testing.assert_allclose(y_check**2, y_want**2, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("lib", [None, type("NoDstedc", (), {})], ids=["another-blas", "no-dstedc"])
    def test_fallback_is_decompose_gram_and_u_prime_y(self, monkeypatch, lib):
        X = DESIGNS["large"]
        y = np.random.default_rng(3).standard_normal(X.shape[0])
        monkeypatch.setattr(spectrum, "_openblas", lambda: lib)
        want, y_want = rotated_by_u(X, y)
        spec, y_check = decompose_gram_rotating(X, y)
        assert spec.lambdas.tobytes() == want.lambdas.tobytes() and spec.U is None
        assert y_check.tobytes() == y_want.tobytes()

    @pytest.mark.skipif(not STEPS, reason="numpy is not on its bundled OpenBLAS")
    def test_routine_failure_raises(self, monkeypatch):
        real = _openblas()

        class Lib:
            scipy_dsytrd_64_, scipy_dormtr_64_ = real.scipy_dsytrd_64_, real.scipy_dormtr_64_

            @staticmethod
            def scipy_dstedc_64_(*args):
                args[10]._obj.value = 4  # info

        monkeypatch.setattr(spectrum, "_openblas", lambda: Lib)
        with pytest.raises(NumericalError, match=r"dstedc failed on the 6 x 6 Gram matrix \(info 4\)"):
            decompose_gram_rotating(DESIGNS["p>n"][:6], np.ones(6))

    def test_y_of_another_length_is_rejected_before_any_routine(self):
        with pytest.raises(ValueError, match="y has length 5, expected n=6"):
            decompose_gram_rotating(DESIGNS["p>n"][:6], np.ones(5))

    @pytest.mark.skipif(not STEPS, reason="numpy is not on its bundled OpenBLAS")
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status to read VmHWM from")
    def test_peak_memory_is_under_three_grams(self):
        # decompose_gram's dsyevd holds G, U's n^2 workspace and dstedc's; this route never forms U
        child = """if True:
            import numpy as np
            from vcomp.spectrum import decompose_gram_rotating

            def hwm():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

            rng = np.random.default_rng(0)
            X, y = rng.standard_normal((1000, 2000)), rng.standard_normal(1000)
            before = hwm()
            decompose_gram_rotating(X, y)
            print((hwm() - before) / (8 * 1000 ** 2))
        """
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", child], env=env, check=True, capture_output=True, text=True,
                             timeout=300)
        assert float(out.stdout) <= 3.0


class TestBidiagonalGram:
    @pytest.mark.skipif(not hasattr(_openblas(), "scipy_dlasq1_64_"), reason="numpy is not on its bundled OpenBLAS")
    @pytest.mark.parametrize("m", [1, 2, 7, 100, 400])
    def test_dqds_matches_the_dense_eigensolve(self, m):
        rng = np.random.default_rng(m)
        d, e = rng.standard_normal(m), rng.standard_normal(m - 1)
        B = np.diag(d) + np.diag(e, -1)
        want = np.linalg.eigvalsh(B @ B.T)
        got = np.sort(_bidiagonal_gram_eigenvalues(d, e))
        assert np.max(np.abs(got - want)) <= 1e-12 * want[-1]

    def test_dqds_failure_raises(self, monkeypatch):
        class Lib:
            @staticmethod
            def scipy_dlasq1_64_(n, d, e, work, info):
                info._obj.value = 2

        monkeypatch.setattr(spectrum, "_openblas", lambda: Lib)
        with pytest.raises(NumericalError, match="info 2"):
            _bidiagonal_gram_eigenvalues(np.ones(3), np.ones(2))


class TestFloatRange:
    @pytest.mark.parametrize("scale, word", [(1e160, "overflows"), (1e-170, "underflows")])
    def test_gram_outside_the_float_range_is_rejected(self, scale, word):
        X = scale * np.random.default_rng(4).standard_normal((40, 60))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"Gram matrix XX'/p {word} the float range.*; rescale X"):
                decompose_gram(X)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_eigenvalue_squares_beyond_the_float_range_are_rejected(self, scale):
        # a finite Gram whose eigenvalues square past the float range once reached
        # the fit, which warned and ended in an OverflowError traceback
        X, y = scale * DESIGNS["p>n"], np.ones(30)
        for decompose in (decompose_gram, lambda X: decompose_gram_rotating(X, y)):
            with pytest.raises(NumericalError, match=r"eigenvalues reach lambda_1 = .*; rescale X"):
                decompose(X)

    @pytest.mark.filterwarnings("error")
    def test_eigenvalue_range_rule_is_the_sum_of_squares(self):
        # sum(lambda^2) = 2 lam^2 is the largest float at lam = sqrt(max / 2), and overflows one ulp above
        lam = math.sqrt(np.finfo(np.float64).max / 2)
        assert eigvar(GramSpectrum.from_eigenvalues(2, 2, np.array([lam, lam]))) == 0.0
        with pytest.raises(NumericalError, match="lambda_1 = 9.48e\\+153, and their squares sum beyond"):
            GramSpectrum.from_eigenvalues(2, 2, np.full(2, np.nextafter(lam, np.inf)))

    def test_partly_tiny_diagonal_is_kept(self):
        # one row below the smallest normal float is a design, not a scale problem
        X = np.random.default_rng(4).standard_normal((6, 9))
        X[0] *= 1e-170
        spec = decompose_gram(X)
        assert np.count_nonzero(spec.lambdas) == 5


class TestFromEigenvalues:
    def test_orders_and_clamps(self):
        spec = GramSpectrum.from_eigenvalues(4, 3, np.array([1e-20, 2.0, -1e-17, 0.5]))
        assert spec.lambdas.tolist() == [2.0, 0.5, 0.0, 0.0]
        assert (spec.n, spec.p, spec.U) == (4, 3, None)

    def test_decompose_gram_goes_through_it(self):
        # the same order and clamp, eigenvectors permuted with their eigenvalues
        X = np.random.default_rng(6).standard_normal((9, 4))
        G = X @ X.T / 4
        w, V = np.linalg.eigh(0.5 * (G + G.T))
        want, spec = GramSpectrum.from_eigenvalues(9, 4, w, V), decompose_gram(X)
        assert np.array_equal(spec.lambdas, want.lambdas) and np.array_equal(spec.U, want.U)
        assert np.count_nonzero(spec.lambdas) == 4


class TestEigvar:
    def test_constant_spectrum(self):
        assert eigvar(make_spec([2.5] * 6)) == 0.0

    def test_two_point(self):
        assert eigvar(make_spec([2.0, 0.0])) == pytest.approx(1.0, abs=1e-14)

    def test_matches_two_pass_oracle(self):
        lam = np.array([3.0, 1.0, 0.0, 0.0])
        direct = float(np.sum((lam - lam.mean()) ** 2) / lam.size)
        assert eigvar(make_spec(lam)) == pytest.approx(direct, rel=1e-12)

    def test_matches_trace_formula_from_design(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((7, 11))
        spec = decompose_gram(X)
        G = X @ X.T / 11
        n = 7
        direct = float(np.trace(G @ G) / n - (np.trace(G) / n) ** 2)
        assert eigvar(spec) == pytest.approx(direct, rel=1e-8)

    def test_permutation_invariance(self):
        lam = np.array([4.0, 2.0, 1.0, 0.5])
        rng = np.random.default_rng(0)
        perm = rng.permutation(4)
        assert eigvar(make_spec(lam)) == pytest.approx(
            eigvar(make_spec(lam[perm])), rel=1e-14
        )
