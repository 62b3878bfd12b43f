import math
import sys
import weakref

import numpy as np
import pytest

from vcomp.spectrum import GramSpectrum, decompose_gram, eigvar


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
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda G: alive_at_eigh.append(design() is not None) or eigh(G))
        decompose_gram(box.pop())
        assert alive_at_eigh == [False]


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
