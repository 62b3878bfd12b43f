import json
import math
import re

import numpy as np
import pytest

from vcomp.laws import GAUSSIAN, RADEMACHER, UNIFORM, SeedSpec, rng_for
from vcomp.matio import load_matrix, load_vector
from vcomp.model import (
    CouplingSpec,
    DesignSpec,
    ModelParams,
    draw_effects,
    gen_coupled,
    gen_design,
    gen_independent,
    save_dataset,
)
from vcomp.spectrum import decompose_gram


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(sigma_sq=0.0, eta_sq=1.0)
        with pytest.raises(ValueError):
            ModelParams(sigma_sq=1.0, eta_sq=-0.1)
        with pytest.raises(ValueError):
            ModelParams(sigma_sq=math.inf, eta_sq=1.0)

    def test_beta_variance_roundtrip(self):
        params = ModelParams(sigma_sq=2.0, eta_sq=0.5)
        assert params.beta_variance(10) == pytest.approx(2.0 * 0.5 / 10)


class TestGenDesign:
    def test_identity_spectrum(self):
        X = gen_design(4, 4, DesignSpec(kind="identity"), SeedSpec(0))
        spec = decompose_gram(X)
        np.testing.assert_allclose(spec.lambdas, 1.0, atol=1e-12)

    def test_fixed_spectrum_roundtrip(self):
        X = gen_design(
            2, 5, DesignSpec(kind="fixed_spectrum", lambdas=(2.0, 0.0)), SeedSpec(3)
        )
        spec = decompose_gram(X)
        np.testing.assert_allclose(spec.lambdas, [2.0, 0.0], atol=1e-8)

    def test_fixed_spectrum_tall(self):
        lam = (3.0, 1.5, 0.0, 0.0, 0.0)
        X = gen_design(5, 2, DesignSpec(kind="fixed_spectrum", lambdas=lam), SeedSpec(4))
        spec = decompose_gram(X)
        np.testing.assert_allclose(spec.lambdas, lam, atol=1e-8)

    def test_fixed_spectrum_infeasible_rank(self):
        with pytest.raises(ValueError):
            gen_design(
                5, 2, DesignSpec(kind="fixed_spectrum", lambdas=(1.0,) * 5), SeedSpec(0)
            )

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            DesignSpec(kind="fixed_spectrum", lambdas=(1.0, -0.5))

    def test_gaussian_full_rank(self):
        X = gen_design(100, 200, DesignSpec(kind="gaussian_iid"), SeedSpec(1))
        spec = decompose_gram(X)
        assert np.all(spec.lambdas > 0)
        assert np.isfinite(spec.lambda_1)


class TestGenIndependent:
    def test_zero_eta_gives_pure_noise(self):
        X = np.ones((5, 3))
        ds = gen_independent(
            X, ModelParams(1.0, 0.0), GAUSSIAN, GAUSSIAN, SeedSpec(7)
        )
        assert np.all(ds.beta_true == 0.0)
        np.testing.assert_array_equal(ds.y, ds.eps_true)

    def test_linear_identity_holds(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((8, 6))
        ds = gen_independent(X, ModelParams(2.0, 1.5), GAUSSIAN, RADEMACHER, SeedSpec(8))
        resid = ds.y - (X @ ds.beta_true + ds.eps_true)
        assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, float(np.max(np.abs(ds.y))))

    def test_deterministic(self):
        X = np.eye(6)
        a = gen_independent(X, ModelParams(1.0, 1.0), GAUSSIAN, GAUSSIAN, SeedSpec(9, 4))
        b = gen_independent(X, ModelParams(1.0, 1.0), GAUSSIAN, GAUSSIAN, SeedSpec(9, 4))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.beta_true, b.beta_true)

    def test_marginal_variance(self):
        # identity design, sigma0^2 = eta0^2 = 1: Var(y_i) = 2
        p = 4
        X = math.sqrt(p) * np.eye(p)
        n_rep = 10_000
        ys = np.array(
            [
                gen_independent(
                    X, ModelParams(1.0, 1.0), GAUSSIAN, GAUSSIAN, SeedSpec(10, r)
                ).y
                for r in range(n_rep)
            ]
        )
        v = ys.var(axis=0, ddof=1)
        se = math.sqrt(2.0 * (2.0**2) / n_rep)  # Var of sample variance of N(0, 2)
        assert np.all(np.abs(v - 2.0) < 5 * se)

    def test_conditional_covariance(self):
        rng = np.random.default_rng(5)
        n, p = 5, 7
        X = rng.standard_normal((n, p))
        params = ModelParams(1.0, 1.0)
        n_rep = 10_000
        ys = np.array(
            [
                gen_independent(X, params, GAUSSIAN, GAUSSIAN, SeedSpec(11, r)).y
                for r in range(n_rep)
            ]
        )
        target = params.sigma_sq * (params.eta_sq / p * X @ X.T + np.eye(n))
        emp = np.cov(ys.T)
        mean_se = np.sqrt(np.diag(target) / n_rep)
        assert np.all(np.abs(ys.mean(axis=0)) < 5 * mean_se)
        for i in range(n):
            for j in range(n):
                prod = ys[:, i] * ys[:, j]
                se = prod.std(ddof=1) / math.sqrt(n_rep)
                assert abs(emp[i, j] - target[i, j]) < 5 * se + 1e-12


class TestGenCoupled:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.X = rng.standard_normal((10, 8))
        self.params = ModelParams(1.0, 1.0)

    def test_no_coupling_matches_independent(self):
        # None is the one way to say "no coupling"; a "none" scheme is unknown
        seed = SeedSpec(20, 3)
        ind = gen_independent(self.X, self.params, GAUSSIAN, GAUSSIAN, seed)
        coup = gen_coupled(self.X, self.params, GAUSSIAN, GAUSSIAN, None, seed)
        assert np.array_equal(ind.y, coup.y)
        assert coup.coupling is None
        with pytest.raises(ValueError, match="unknown coupling scheme 'none'"):
            CouplingSpec(scheme="none")

    def test_delta_zero_matches_independent_bitwise(self):
        seed = SeedSpec(21, 5)
        ind = gen_independent(self.X, self.params, GAUSSIAN, GAUSSIAN, seed)
        coup = gen_coupled(
            self.X, self.params, GAUSSIAN, GAUSSIAN,
            CouplingSpec(scheme="additive_perturb", delta=0.0), seed,
        )
        assert np.array_equal(ind.y, coup.y)

    def test_sparse_all_zero(self):
        coup = gen_coupled(
            self.X, self.params, GAUSSIAN, GAUSSIAN,
            CouplingSpec(scheme="sparse_zero", fraction=1.0), SeedSpec(22),
        )
        assert np.all(coup.coupling.beta_tilde == 0.0)
        np.testing.assert_array_equal(coup.y, coup.eps_true)

    def test_additive_distance_matches_recomputation(self):
        coup = gen_coupled(
            self.X, self.params, GAUSSIAN, GAUSSIAN,
            CouplingSpec(scheme="additive_perturb", delta=0.3), SeedSpec(23),
        )
        direct = float(np.linalg.norm(coup.coupling.beta_tilde - coup.beta_true))
        assert coup.coupling.coupling_distance == pytest.approx(direct, abs=1e-12)
        assert coup.coupling.coupling_distance == pytest.approx(0.3, abs=1e-12)

    def test_distance_monotone_in_delta(self):
        dists = []
        for delta in (0.0, 0.1, 0.5, 2.0):
            coup = gen_coupled(
                self.X, self.params, GAUSSIAN, GAUSSIAN,
                CouplingSpec(scheme="additive_perturb", delta=delta), SeedSpec(24, 1),
            )
            dists.append(coup.coupling.coupling_distance)
        assert all(b >= a for a, b in zip(dists, dists[1:]))

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            CouplingSpec(scheme="sparse_zero", fraction=1.5)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            CouplingSpec(scheme="swap")

    @pytest.mark.parametrize("delta", [math.inf, math.nan, -0.5])
    def test_delta_must_be_finite_and_nonnegative(self, delta):
        # an infinite delta once generated an all-NaN y
        with pytest.raises(ValueError, match=re.escape("delta (coupling.delta) must be finite and nonnegative")):
            CouplingSpec(scheme="additive_perturb", delta=delta)


class TestDrawEffects:
    """The one effect-drawing helper, as a block and as the single-replicate case."""

    X = np.random.default_rng(7).standard_normal((9, 13))
    params = ModelParams(2.0, 0.7)
    seeds = [SeedSpec(3, (2 << 32) | r) for r in range(5)]

    def test_stream_layout(self):
        # effects on substream 1, noise on substream 2 of each replicate stream
        beta, eps, beta_y = draw_effects(9, 13, self.params, UNIFORM, RADEMACHER, self.seeds)
        assert beta_y is beta
        for b, e, seed in zip(beta, eps, self.seeds):
            beta_rng, eps_rng = (np.random.Generator(rng_for(seed).bit_generator.jumped(k)) for k in (1, 2))
            want_b = math.sqrt(self.params.beta_variance(13)) * beta_rng.uniform(
                -math.sqrt(3.0), math.sqrt(3.0), size=13
            )
            want_e = math.sqrt(2.0) * (2.0 * eps_rng.integers(0, 2, size=9) - 1.0)
            assert np.array_equal(b, want_b) and np.array_equal(e, want_e)

    @pytest.mark.parametrize("coupling", [
        None,
        CouplingSpec(scheme="additive_perturb", delta=0.4),
        CouplingSpec(scheme="sparse_zero", fraction=0.4),
    ], ids=lambda c: "independent" if c is None else c.scheme)
    def test_block_rows_equal_single_draws(self, coupling):
        beta, eps, beta_y = draw_effects(
            9, 13, self.params, GAUSSIAN, UNIFORM, self.seeds, coupling
        )
        for i, seed in enumerate(self.seeds):
            if coupling is None:
                ds = gen_independent(self.X, self.params, GAUSSIAN, UNIFORM, seed)
                tilde = ds.beta_true
            else:
                ds = gen_coupled(self.X, self.params, GAUSSIAN, UNIFORM, coupling, seed)
                tilde = ds.coupling.beta_tilde
            assert np.array_equal(beta[i], ds.beta_true)
            assert np.array_equal(eps[i], ds.eps_true)
            assert np.array_equal(beta_y[i], tilde)
            assert np.array_equal(ds.y, self.X @ tilde + ds.eps_true)

    def test_sparse_rows_zero_their_own_coordinates(self):
        _, _, beta_y = draw_effects(
            9, 13, self.params, GAUSSIAN, GAUSSIAN, self.seeds,
            CouplingSpec(scheme="sparse_zero", fraction=0.5),
        )
        zeros = [frozenset(np.flatnonzero(row == 0.0)) for row in beta_y]
        assert all(len(z) == 6 for z in zeros)  # round(0.5 * 13)
        assert len(set(zeros)) > 1


def test_save_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(30)
    X = rng.standard_normal((6, 4))
    ds = gen_independent(X, ModelParams(1.5, 0.5), GAUSSIAN, RADEMACHER, SeedSpec(31, 2))
    save_dataset(ds, tmp_path)
    X2, y2 = load_matrix(tmp_path / "X.csv"), load_vector(tmp_path / "y.csv")
    np.testing.assert_allclose(X2, X, rtol=1e-15)
    np.testing.assert_allclose(y2, ds.y, rtol=1e-15)
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["sigma2"] == 1.5
    assert truth["eta2"] == 0.5
    assert truth["beta_law"] == "gaussian"
    assert truth["eps_law"] == "rademacher"
    assert truth["master_seed"] == 31
    assert truth["stream_id"] == 2
    assert truth["coupling"] is None


def test_save_dataset_records_coupling(tmp_path):
    rng = np.random.default_rng(32)
    X = rng.standard_normal((5, 4))
    ds = gen_coupled(
        X, ModelParams(1.0, 1.0), GAUSSIAN, GAUSSIAN,
        CouplingSpec(scheme="sparse_zero", fraction=0.5), SeedSpec(33),
    )
    save_dataset(ds, tmp_path)
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["coupling"]["scheme"] == "sparse_zero"
    assert truth["coupling"]["fraction"] == 0.5
    assert truth["coupling"]["coupling_distance"] > 0
