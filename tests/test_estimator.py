import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vcomp.estimator as est
from vcomp.errors import DegenerateDataError, NonIdentifiableError, NumericalError
from vcomp.estimator import (
    FitOptions,
    ScoreState,
    asymptotic_cov,
    expected_hessian,
    expected_hessian_det,
    fit_mle,
    gaussian_fisher,
    hessian,
    loglik,
    pop_profile_score,
    pop_profile_score_moment,
    profile_loglik,
    profile_score,
    score,
    score_covariance,
    sigma0_sq_of,
    sigma_star_sq,
)
from vcomp.laws import GAUSSIAN, RADEMACHER, UNIFORM, SeedSpec, sample_rows
from vcomp.experiments import ExperimentPlan, run_consistency
from vcomp.model import DesignSpec, ModelParams, gen_design, gen_independent, haar_orthogonal
from vcomp.qform import QuadraticForm
from vcomp.spectrum import GramSpectrum, decompose_gram, eigvar


def make_state(seed=0, n=12, p=20, params=ModelParams(1.0, 1.0)):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    spec = decompose_gram(X)
    ds = gen_independent(X, params, GAUSSIAN, GAUSSIAN, SeedSpec(seed, 1))
    return X, spec, ScoreState.from_observations(spec, ds.y)


def flat_spec(n=6, lam=1.0):
    return GramSpectrum(n=n, p=n, lambdas=np.full(n, lam), U=np.eye(n))


def spec_from_lambdas(lambdas):
    lam = np.asarray(lambdas, dtype=float)
    n = lam.size
    return GramSpectrum(n=n, p=n, lambdas=lam, U=np.eye(n))


class TestResolventSums:
    """The one kernel against elementwise means, on sampled rows and the population row."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_elementwise_means(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(5, 60))
        lam = rng.exponential(1.0, n) * (rng.random(n) > 0.2)  # some zero eigenvalues
        spec = spec_from_lambdas(lam)
        params = ModelParams(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.0, 5.0)))
        pop = est._pop_sq(params, spec)
        np.testing.assert_allclose(pop, params.sigma_sq * (params.eta_sq * lam + 1.0), rtol=1e-15)
        block = np.vstack([rng.uniform(0.1, 10.0) * rng.standard_normal((7, n)) ** 2, pop])
        etas = np.concatenate([[0.0], rng.exponential(2.0, 6)])
        ss, quad, cube, mlr, ml2r2, logdet = est._resolvent_sums(block, lam, etas)
        assert ss.shape == quad.shape == cube.shape == (8, 7)
        assert mlr.shape == ml2r2.shape == logdet.shape == (7,)
        for g, eta in enumerate(etas):
            r = 1.0 / (eta * lam + 1.0)
            for k, y_sq in enumerate(block):
                np.testing.assert_allclose(
                    [ss[k, g], quad[k, g], cube[k, g]],
                    [np.mean(y_sq * r), np.mean(lam * y_sq * r**2), np.mean(lam**2 * y_sq * r**3)],
                    rtol=1e-12,
                )
            np.testing.assert_allclose(
                [mlr[g], ml2r2[g], logdet[g]],
                [np.mean(lam * r), np.mean((lam * r) ** 2), np.mean(np.log(eta * lam + 1.0))],
                rtol=1e-12,
            )

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            est._resolvent_sums(np.ones((2, 3)), np.ones(3), [0.5, -1e-3])


class TestSigmaStar:
    def test_eta_zero(self):
        _, _, state = make_state(1)
        y_norm_sq = float(state.y_check @ state.y_check)
        assert sigma_star_sq(state, 0.0) == pytest.approx(y_norm_sq / state.n)

    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    def test_large_eta_limit_rank_deficient(self, wide):
        # a rank-4 design leaves n - 4 zero eigenvalues, p < n (tall) or
        # X = A B (wide); the limit keeps only those terms, so rounding noise
        # left in a zero eigenvalue would move it
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        if wide:
            X = X @ rng.standard_normal((4, 20))
        spec = decompose_gram(X)
        y = rng.standard_normal(10)
        state = ScoreState.from_observations(spec, y)
        tail = float(np.sum(state.y_check[4:] ** 2)) / spec.n
        assert sigma_star_sq(state, 1e12) == pytest.approx(tail, rel=1e-6)

    def test_dense_solve_oracle(self):
        rng = np.random.default_rng(3)
        n, p = 9, 14
        X = rng.standard_normal((n, p))
        spec = decompose_gram(X)
        y = rng.standard_normal(n)
        state = ScoreState.from_observations(spec, y)
        for eta in (0.0, 0.3, 2.5):
            direct = float(y @ np.linalg.solve(eta / p * X @ X.T + np.eye(n), y)) / n
            assert sigma_star_sq(state, eta) == pytest.approx(direct, rel=1e-8)


class TestSigma0Of:
    def test_fixed_point(self):
        spec = decompose_gram(np.random.default_rng(4).standard_normal((8, 12)))
        params = ModelParams(1.7, 0.6)
        assert sigma0_sq_of(params.eta_sq, params, spec) == pytest.approx(
            params.sigma_sq, abs=1e-12
        )

    def test_eta_zero(self):
        spec = spec_from_lambdas([2.0, 1.0, 0.5])
        params = ModelParams(2.0, 0.5)
        expected = 2.0 * (1.0 + 0.5 * np.mean([2.0, 1.0, 0.5]))
        assert sigma0_sq_of(0.0, params, spec) == pytest.approx(expected)

    def test_constant_spectrum(self):
        spec = flat_spec(lam=1.5)
        params = ModelParams(1.0, 0.8)
        expected = (0.8 * 1.5 + 1.0) / (0.4 * 1.5 + 1.0)
        assert sigma0_sq_of(0.4, params, spec) == pytest.approx(expected)


class TestLoglik:
    def test_eta_zero_plugin(self):
        _, _, state = make_state(5)
        s2 = sigma_star_sq(state, 0.0)
        got = loglik(state, ModelParams(s2, 0.0))
        assert got == pytest.approx(-0.5 * math.log(s2) - 0.5, rel=1e-12)

    def test_profile_identity(self):
        _, _, state = make_state(6)
        rng = np.random.default_rng(6)
        for eta in rng.uniform(0.0, 5.0, 20):
            full = loglik(state, ModelParams(sigma_star_sq(state, eta), float(eta)))
            assert full == pytest.approx(profile_loglik(state, float(eta)), rel=1e-12)

    def test_score_is_gradient(self):
        _, _, state = make_state(7)
        rng = np.random.default_rng(7)
        for _ in range(50):
            s2 = float(rng.uniform(0.3, 3.0))
            e2 = float(rng.uniform(0.05, 3.0))
            s = score(state, ModelParams(s2, e2))
            h1 = 1e-6 * (1 + abs(s2))
            h2 = 1e-6 * (1 + abs(e2))
            fd1 = (
                loglik(state, ModelParams(s2 + h1, e2))
                - loglik(state, ModelParams(s2 - h1, e2))
            ) / (2 * h1)
            fd2 = (
                loglik(state, ModelParams(s2, e2 + h2))
                - loglik(state, ModelParams(s2, e2 - h2))
            ) / (2 * h2)
            assert s[0] == pytest.approx(fd1, rel=1e-6, abs=1e-9)
            assert s[1] == pytest.approx(fd2, rel=1e-6, abs=1e-9)


def _pop_profile(eta_sq, params, spec):
    """The population profile likelihood up to a constant: the profile
    likelihood of the outcome whose squared coordinates are their expectations."""
    return profile_loglik(ScoreState(y_check=np.sqrt(est._pop_sq(params, spec)), spec=spec), eta_sq)


class TestPopProfile:
    def test_population_maximizer(self):
        spec = decompose_gram(np.random.default_rng(8).standard_normal((10, 16)))
        params = ModelParams(1.0, 0.9)
        base = _pop_profile(params.eta_sq, params, spec)
        for eta in np.linspace(0.0, 4.0, 41):
            assert _pop_profile(float(eta), params, spec) <= base + 1e-12

    def test_constant_spectrum_flat(self):
        spec = flat_spec()
        params = ModelParams(1.0, 1.0)
        vals = [_pop_profile(float(e), params, spec) for e in (0.0, 0.5, 1.5, 4.0)]
        assert max(vals) - min(vals) < 1e-12

    def test_curvature_lower_bound_full_rank(self):
        # full-rank instance: separation of the population profile from its max
        # dominates the curvature-factor bound on a grid
        rng = np.random.default_rng(9)
        X = rng.standard_normal((8, 16))
        spec = decompose_gram(X)
        assert np.all(spec.lambdas > 0)
        params = ModelParams(1.3, 0.7)
        v = eigvar(spec)
        # curvature factor 1 / (2 (eta0^2+1)^4 (lambda_1+1)^4 (1/lambda_n0+1)^2);
        # lambda_n0, the smallest nonzero eigenvalue, is the smallest at full rank
        lam_n0 = float(np.min(spec.lambdas))
        c = 1.0 / (
            2.0
            * (params.eta_sq + 1.0) ** 4
            * (spec.lambda_1 + 1.0) ** 4
            * (1.0 / lam_n0 + 1.0) ** 2
        )
        base = _pop_profile(params.eta_sq, params, spec)
        for eta in np.linspace(0.0, 5.0, 26):
            gap = base - _pop_profile(float(eta), params, spec)
            d = eta - params.eta_sq
            bound = d * d * c * v / (abs(d) + 1.0) ** 2
            assert gap >= bound - 1e-12


class TestProfileScore:
    def test_matches_profile_derivative(self):
        _, _, state = make_state(10)
        for eta in (0.05, 0.4, 1.3, 3.0):
            h = 1e-6 * (1 + eta)
            fd = (profile_loglik(state, eta + h) - profile_loglik(state, eta - h)) / (
                2 * h
            )
            expected = 2.0 * sigma_star_sq(state, eta) * fd
            assert profile_score(state, eta) == pytest.approx(
                expected, rel=1e-6, abs=1e-10
            )

    def test_constant_spectrum_identically_zero(self):
        spec = flat_spec()
        y = np.random.default_rng(11).standard_normal(6)
        state = ScoreState.from_observations(spec, y)
        for eta in (0.0, 0.7, 2.0):
            assert abs(profile_score(state, eta)) < 1e-12

    def test_zero_at_interior_optimum(self):
        _, _, state = make_state(12, n=40, p=80)
        fit = fit_mle(state)
        if not fit.boundary_flag:
            assert abs(profile_score(state, fit.theta_hat.eta_sq)) < fit.tol_score


def pairwise_spread(lam, eta_sq):
    """O(n^2) oracle: sum_ij (lam_i - lam_j)^2 / ((eta^2 lam_i+1)^2 (eta^2 lam_j+1)^2)."""
    r = 1.0 / (eta_sq * lam + 1.0)
    diff = lam[:, None] - lam[None, :]
    return float(np.sum(diff * diff * (r * r)[:, None] * (r * r)[None, :]))


def pairwise_pop_score(eta_sq, params, spec):
    n = spec.n
    total = pairwise_spread(spec.lambdas, eta_sq)
    return params.sigma_sq * (params.eta_sq - eta_sq) / (2.0 * n * n) * total


def pairwise_det(params, spec):
    n = spec.n
    return pairwise_spread(spec.lambdas, params.eta_sq) / (8.0 * params.sigma_sq**2 * n * n)


class TestPopProfileScore:
    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            lam = np.sort(rng.uniform(0.0, 4.0, n))[::-1]
            lam[rng.random(n) < 0.2] = 0.0
            spec = spec_from_lambdas(np.sort(lam)[::-1])
            params = ModelParams(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.0, 3.0)))
            eta = float(rng.uniform(0.0, 4.0))
            a, b = pop_profile_score(eta, params, spec), pairwise_pop_score(eta, params, spec)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
            a, b = expected_hessian_det(params, spec), pairwise_det(params, spec)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_zero_at_truth(self):
        spec = spec_from_lambdas([3.0, 1.0, 0.2])
        params = ModelParams(1.0, 0.8)
        assert pop_profile_score(0.8, params, spec) == pytest.approx(0.0, abs=1e-14)

    def test_zero_on_constant_spectrum(self):
        assert pop_profile_score(0.3, ModelParams(1.0, 1.0), flat_spec()) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_two_by_two_hand_value(self):
        spec = spec_from_lambdas([2.0, 0.0])
        params = ModelParams(1.0, 1.0)
        assert pop_profile_score(0.0, params, spec) == pytest.approx(1.0, abs=1e-12)
        assert pop_profile_score_moment(0.0, params, spec) == pytest.approx(1.0, abs=1e-12)

    def test_two_formulas_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            spec = spec_from_lambdas(np.sort(rng.uniform(0.0, 4.0, n))[::-1])
            params = ModelParams(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.0, 3.0)))
            eta = float(rng.uniform(0.0, 4.0))
            a = pop_profile_score(eta, params, spec)
            b = pop_profile_score_moment(eta, params, spec)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))

    def test_magnitude_lower_bound(self):
        # |H_0| >= sigma0^2 |eta0^2 - eta^2| eigvar / (eta^2 lam_1 + 1)^4
        rng = np.random.default_rng(14)
        spec = spec_from_lambdas(np.sort(rng.uniform(0.0, 3.0, 8))[::-1])
        params = ModelParams(1.4, 1.1)
        v = eigvar(spec)
        lam1 = spec.lambda_1
        for eta in np.linspace(0.0, 4.0, 21):
            lhs = abs(pop_profile_score(float(eta), params, spec))
            rhs = (
                params.sigma_sq
                * abs(params.eta_sq - eta)
                * v
                / (eta * lam1 + 1.0) ** 4
            )
            assert lhs >= rhs - 1e-12


class TestFitMLE:
    def test_exact_recovery_oracle(self):
        # noiseless moment-matching instance: y_check_i^2 = sigma0^2 (eta0^2 lam_i + 1)
        rng = np.random.default_rng(15)
        X = rng.standard_normal((12, 20))
        spec = decompose_gram(X)
        params = ModelParams(1.3, 0.8)
        y_check = np.sqrt(params.sigma_sq * (params.eta_sq * spec.lambdas + 1.0))
        state = ScoreState.from_observations(spec, spec.U @ y_check)
        fit = fit_mle(state)
        assert fit.theta_hat.eta_sq == pytest.approx(params.eta_sq, abs=1e-6)
        assert fit.theta_hat.sigma_sq == pytest.approx(params.sigma_sq, abs=1e-6)
        assert not fit.boundary_flag
        assert not fit.identifiability_flag

    def test_sigma_matches_profile_at_optimum(self):
        _, _, state = make_state(16, n=30, p=45)
        fit = fit_mle(state)
        assert fit.theta_hat.sigma_sq == pytest.approx(
            sigma_star_sq(state, fit.theta_hat.eta_sq), abs=1e-12
        )

    def test_pure_noise_calibration(self):
        # eta0^2 = 0: over 500 replicates at n = 200 the median eta-hat is small
        rng = np.random.default_rng(17)
        n, p = 200, 100
        X = rng.standard_normal((n, p))
        spec = decompose_gram(X)
        params = ModelParams(1.0, 0.0)
        etas = []
        boundary = 0
        for r in range(500):
            ds = gen_independent(X, params, GAUSSIAN, GAUSSIAN, SeedSpec(18, r))
            fit = fit_mle(ScoreState.from_observations(spec, ds.y))
            etas.append(fit.theta_hat.eta_sq)
            boundary += fit.boundary_flag
        assert float(np.median(etas)) < 0.2
        assert boundary > 100  # the boundary case occurs often

    def test_constant_spectrum_flags(self):
        n = 8
        X = math.sqrt(n) * np.eye(n)
        spec = decompose_gram(X)
        y = np.random.default_rng(19).standard_normal(n)
        state = ScoreState.from_observations(spec, y)
        fit = fit_mle(state)
        assert fit.identifiability_flag
        assert fit.psi_hat is None
        lls = np.array([ll for _, ll in fit.eta_grid_trace])
        assert np.max(lls) - np.min(lls) < 1e-10

    def test_scale_equivariance(self):
        _, spec, state = make_state(20, n=25, p=40)
        base = fit_mle(state)
        for c in (0.1, 10.0):
            scaled = ScoreState(y_check=c * state.y_check, spec=spec)
            fit = fit_mle(scaled)
            assert fit.theta_hat.eta_sq == pytest.approx(
                base.theta_hat.eta_sq, rel=1e-6, abs=1e-9
            )
            assert fit.theta_hat.sigma_sq == pytest.approx(
                c * c * base.theta_hat.sigma_sq, rel=1e-6
            )

    def test_psi_presence_does_not_depend_on_scale(self):
        # a spectrum just above the identifiability floor: the scores are
        # nearly collinear, and a det F cut relative to max|F|^2 kept psi-hat
        # for y * 1e50 but dropped it for y * 1e-50
        n = 40
        lam = 1.0 + 3.6e-5 * np.linspace(1.0, -1.0, n)
        spec = GramSpectrum(n=n, p=n, lambdas=lam, U=np.eye(n))
        y = np.random.default_rng(7).standard_normal(n)
        present = []
        for c in (2.0**40, 2.0**-40, 1e100, 1e-100):
            # psi-hat's sigma^2 variance scales by c^4, so y sits at c^(-1/2)
            # to keep the entries of both fits in the float range
            y0 = c**-0.5 * y
            pair = [fit_mle(ScoreState(y_check=v, spec=spec)).psi_hat is not None for v in (y0, c * y0)]
            assert pair[0] == pair[1], c
            present.append(pair[0])
        assert all(present)

    def test_norm_check_at_extreme_scales(self):
        # above about 1e154 the norm overflowed, and inf - inf passed the check
        n = 30
        rng = np.random.default_rng(24)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = np.linspace(2.0, 0.0, n)
        y = rng.standard_normal(n)
        for c in (1e-160, 1e160):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                state = ScoreState.from_observations(GramSpectrum(n=n, p=n, lambdas=lam, U=Q), c * y)
                np.testing.assert_allclose(state.y_check, Q.T @ (c * y), rtol=1e-12)
                with pytest.raises(NumericalError):
                    ScoreState.from_observations(GramSpectrum(n=n, p=n, lambdas=lam, U=1.01 * Q), c * y)

    def test_profile_reduction_matches_2d_grid(self):
        _, _, state = make_state(21, n=15, p=25)
        etas = np.linspace(0.0, 6.0, 60)
        prof_max = max(
            loglik(state, ModelParams(sigma_star_sq(state, float(e)), float(e)))
            for e in etas
        )
        sigmas = np.linspace(0.05, 6.0, 120)
        grid_max = max(
            loglik(state, ModelParams(float(s), float(e)))
            for s in sigmas
            for e in etas
        )
        assert prof_max >= grid_max - 1e-6

    def test_zero_y_rejected(self):
        spec = decompose_gram(np.random.default_rng(22).standard_normal((6, 9)))
        state = ScoreState(y_check=np.zeros(6), spec=spec)
        with pytest.raises(DegenerateDataError):
            fit_mle(state)

    def test_smallest_maximizer_on_flat_profile(self):
        # non-identifiable flat profile: the tie-break picks eta-hat = 0
        n = 6
        X = math.sqrt(n) * np.eye(n)
        spec = decompose_gram(X)
        y = np.random.default_rng(23).standard_normal(n)
        fit = fit_mle(ScoreState.from_observations(spec, y))
        assert fit.theta_hat.eta_sq == 0.0
        assert fit.boundary_flag


class TestScoreHessian:
    def test_score_zero_at_interior_optimum(self):
        _, _, state = make_state(24, n=40, p=60)
        fit = fit_mle(state)
        if not fit.boundary_flag:
            s = score(state, fit.theta_hat)
            assert np.max(np.abs(s)) < 1e-7

    def test_hessian_matches_fd_score(self):
        _, _, state = make_state(25)
        rng = np.random.default_rng(25)
        for _ in range(50):
            s2 = float(rng.uniform(0.3, 3.0))
            e2 = float(rng.uniform(0.05, 3.0))
            J = hessian(state, ModelParams(s2, e2))
            h1 = 1e-6 * (1 + s2)
            h2 = 1e-6 * (1 + e2)
            fd_s = (
                score(state, ModelParams(s2 + h1, e2))
                - score(state, ModelParams(s2 - h1, e2))
            ) / (2 * h1)
            fd_e = (
                score(state, ModelParams(s2, e2 + h2))
                - score(state, ModelParams(s2, e2 - h2))
            ) / (2 * h2)
            np.testing.assert_allclose(J[:, 0], fd_s, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(J[:, 1], fd_e, rtol=1e-5, atol=1e-8)

    def test_hessian_symmetric(self):
        _, _, state = make_state(26)
        J = hessian(state, ModelParams(1.2, 0.4))
        assert J[0, 1] == J[1, 0]

    def test_score_mean_zero(self):
        rng = np.random.default_rng(27)
        n, p = 10, 15
        X = rng.standard_normal((n, p))
        spec = decompose_gram(X)
        params = ModelParams(1.0, 1.0)
        scores = np.array(
            [
                score(
                    ScoreState.from_observations(
                        spec, gen_independent(X, params, GAUSSIAN, GAUSSIAN, SeedSpec(28, r)).y
                    ),
                    params,
                )
                for r in range(10_000)
            ]
        )
        se = scores.std(axis=0, ddof=1) / math.sqrt(len(scores))
        assert np.all(np.abs(scores.mean(axis=0)) < 5 * se)


class TestExpectedHessian:
    def test_matches_mc_average(self):
        rng = np.random.default_rng(29)
        n, p = 8, 12
        X = rng.standard_normal((n, p))
        spec = decompose_gram(X)
        params = ModelParams(1.0, 0.7)
        theta = ModelParams(1.1, 0.9)
        samples = np.array(
            [
                hessian(
                    ScoreState.from_observations(
                        spec, gen_independent(X, params, GAUSSIAN, GAUSSIAN, SeedSpec(30, r)).y
                    ),
                    theta,
                ).ravel()
                for r in range(10_000)
            ]
        )
        target = expected_hessian(theta, params, spec).ravel()
        se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
        assert np.all(np.abs(samples.mean(axis=0) - target) < 5 * se)

    def test_constant_spectrum_det_zero(self):
        params = ModelParams(1.0, 1.0)
        j0 = expected_hessian(params, params, flat_spec())
        assert np.linalg.det(j0) == pytest.approx(0.0, abs=1e-14)
        assert expected_hessian_det(params, flat_spec()) == pytest.approx(0.0, abs=1e-14)

    def test_two_by_two_hand_value(self):
        spec = spec_from_lambdas([2.0, 0.0])
        params = ModelParams(1.0, 1.0)
        assert expected_hessian_det(params, spec) == pytest.approx(1 / 36, abs=1e-14)

    def test_det_identity_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            spec = spec_from_lambdas(np.sort(rng.uniform(0.0, 4.0, n))[::-1])
            params = ModelParams(float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.05, 2.5)))
            direct = float(np.linalg.det(expected_hessian(params, params, spec)))
            pairwise = expected_hessian_det(params, spec)
            assert abs(direct - pairwise) <= 1e-10 * max(1.0, abs(direct))

    def test_det_lower_bound(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            spec = spec_from_lambdas(np.sort(rng.uniform(0.0, 3.0, 7))[::-1])
            params = ModelParams(float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.05, 2.5)))
            bound = eigvar(spec) / (
                4.0
                * params.sigma_sq**2
                * (params.eta_sq + 1.0) ** 4
                * (spec.lambda_1 + 1.0) ** 4
            )
            assert expected_hessian_det(params, spec) >= bound - 1e-14


def score_qf_matrices(params, spec, X):
    """Oracle for score_covariance: PSD (M1, M2) and offsets (c1, c2) with
    S_k(theta_0) = z'M_k z - c_k, materialized as (n+p) x (n+p) matrices.

    z = (sqrt(p) beta'/tau_0, eps'/sigma_0)' has independent unit-variance
    coordinates and c_k = tr(M_k), so the score is exactly centered.
    """
    if params.eta_sq <= 0:
        raise ValueError("score quadratic forms need eta0^2 > 0 (tau_0 = 0 otherwise)")
    n = X.shape[0]
    lam = spec.lambdas
    C = est.standardized_map(params, spec, X)
    w1 = 1.0 / (2.0 * params.sigma_sq**2 * n * (params.eta_sq * lam + 1.0))
    w2 = lam / (2.0 * params.sigma_sq * n * (params.eta_sq * lam + 1.0) ** 2)
    M1 = QuadraticForm(C.T @ (w1[:, None] * C))
    M2 = QuadraticForm(C.T @ (w2[:, None] * C))
    return M1, M2, (float(np.trace(M1.matrix)), float(np.trace(M2.matrix)))


class TestScoreQF:
    def setup_method(self):
        rng = np.random.default_rng(33)
        self.n, self.p = 10, 16
        self.X = rng.standard_normal((self.n, self.p))
        self.spec = decompose_gram(self.X)
        self.params = ModelParams(1.2, 0.9)

    def test_identity_on_random_draws(self):
        M1, M2, (c1, c2) = score_qf_matrices(self.params, self.spec, self.X)
        tau0 = math.sqrt(self.params.sigma_sq * self.params.eta_sq)
        s0 = math.sqrt(self.params.sigma_sq)
        rng = np.random.default_rng(34)
        for _ in range(100):
            z = rng.standard_normal(self.n + self.p)
            beta = tau0 / math.sqrt(self.p) * z[: self.p]
            eps = s0 * z[self.p :]
            state = ScoreState.from_observations(self.spec, self.X @ beta + eps)
            s = score(state, self.params)
            assert (M1.matrix @ z) @ z - c1 == pytest.approx(s[0], abs=1e-8)
            assert (M2.matrix @ z) @ z - c2 == pytest.approx(s[1], abs=1e-8)

    def test_offsets_center_the_score(self):
        M1, M2, (c1, c2) = score_qf_matrices(self.params, self.spec, self.X)
        assert c1 == pytest.approx(np.sum(M1.diag), rel=1e-12)
        assert c2 == pytest.approx(np.sum(M2.diag), rel=1e-12)
        assert c1 == pytest.approx(1.0 / (2.0 * self.params.sigma_sq), rel=1e-10)

    def test_operator_norm_bound(self):
        M1, M2, _ = score_qf_matrices(self.params, self.spec, self.X)
        bound = (
            (self.params.sigma_sq + 1.0)
            * (self.params.eta_sq + 1.0)
            * (self.spec.lambda_1 + 1.0) ** 2
            / (2.0 * self.params.sigma_sq * self.n)
        )
        assert M1.op_norm <= bound + 1e-12
        assert M2.op_norm <= bound + 1e-12

    def test_eta_zero_rejected(self):
        with pytest.raises(ValueError):
            score_qf_matrices(ModelParams(1.0, 0.0), self.spec, self.X)


def standardized_map_by_blocks(params, spec, X):
    """Oracle for standardized_map: its old route, which stacked two
    temporary blocks into C."""
    p = X.shape[1]
    tau0 = math.sqrt(params.sigma_sq * params.eta_sq)
    return np.hstack([(tau0 / math.sqrt(p)) * (spec.U.T @ X), math.sqrt(params.sigma_sq) * spec.U.T])


def score_covariance_by_map(params, spec, X, laws):
    """Oracle for score_covariance: its old route, which stacked the
    standardized map from temporary blocks and squared it into a second
    n x (n+p) array; the same operations on the same shapes, so the same
    bytes."""
    from vcomp.qform import qf_cov_terms

    n, p = X.shape
    kurt = np.concatenate([np.full(p, laws[0].excess_kurtosis), np.full(n, laws[1].excess_kurtosis)])
    lam = spec.lambdas
    C = standardized_map_by_blocks(params, spec, X)
    w1 = 1.0 / (2.0 * params.sigma_sq**2 * n * (params.eta_sq * lam + 1.0))
    w2 = lam / (2.0 * params.sigma_sq * n * (params.eta_sq * lam + 1.0) ** 2)
    C_sq = C * C
    terms = ((w1, w1 @ C_sq), (w2, w2 @ C_sq))
    cc = est._pop_sq(params, spec)
    info = np.empty((2, 2))
    for (i, (wi, di)), (j, (wj, dj)) in itertools.combinations_with_replacement(enumerate(terms), 2):
        info[i, j] = info[j, i] = n * qf_cov_terms(di, dj, float(np.sum(wi * wj * cc * cc)), kurt)
    return info


class TestScoreCovariance:
    def setup_method(self):
        rng = np.random.default_rng(35)
        self.n, self.p = 8, 12
        self.X = rng.standard_normal((self.n, self.p))
        self.spec = decompose_gram(self.X)
        self.params = ModelParams(1.0, 1.0)

    def test_gaussian_equals_fisher(self):
        info = score_covariance(self.params, self.spec, self.X, (GAUSSIAN, GAUSSIAN))
        fisher = gaussian_fisher(self.params, self.spec)
        np.testing.assert_allclose(info, fisher, rtol=1e-8, atol=1e-12)

    def test_matches_sample_covariance(self):
        info = score_covariance(self.params, self.spec, self.X, (UNIFORM, RADEMACHER))
        reps, block = 100_000, 10_000
        s2, e2 = self.params.sigma_sq, self.params.eta_sq
        lam = self.spec.lambdas
        res = 1.0 / (e2 * lam + 1.0)
        root = math.sqrt(s2 * e2 / self.p)

        def draws(rs):
            # row r of a sample_rows block is bitwise sample_vector(law, d, SeedSpec(seed, r))
            betas = root * sample_rows(UNIFORM, self.p, [SeedSpec(36, r) for r in rs])
            return betas @ self.X.T + sample_rows(RADEMACHER, self.n, [SeedSpec(37, r) for r in rs])

        def block_scores(y):
            # the score in closed form on each row of y_check^2 = (y U)^2
            y_sq = (y @ self.spec.U) ** 2
            return np.column_stack([
                (y_sq @ res) / self.n / (2.0 * s2 * s2) - 1.0 / (2.0 * s2),
                (y_sq @ (lam * res * res)) / self.n / (2.0 * s2) - 0.5 * np.mean(lam * res),
            ])

        scores = np.concatenate([block_scores(draws(range(lo, lo + block))) for lo in range(0, reps, block)])
        ys = draws(range(1000))
        want = [score(ScoreState.from_observations(self.spec, y), self.params) for y in ys]
        np.testing.assert_allclose(scores[:1000], want, rtol=0, atol=1e-12)
        emp = self.n * np.cov(scores.T)
        for i in range(2):
            for j in range(2):
                prod = self.n * scores[:, i] * scores[:, j]
                se = prod.std(ddof=1) / math.sqrt(reps)
                assert abs(emp[i, j] - info[i, j]) < 5 * se

    @pytest.mark.parametrize("laws", [(GAUSSIAN, GAUSSIAN), (RADEMACHER, RADEMACHER), (UNIFORM, UNIFORM),
                                      (UNIFORM, GAUSSIAN), (GAUSSIAN, RADEMACHER)],
                             ids=["gaussian", "rademacher", "uniform", "uniform-gaussian", "gaussian-rademacher"])
    @pytest.mark.parametrize("n, p", [(40, 15), (30, 70)], ids=["p<n", "p>n"])
    def test_equals_the_standardized_map_route(self, laws, n, p):
        X = np.random.default_rng(38).standard_normal((n, p))
        spec, params = decompose_gram(X), ModelParams(1.3, 0.7)
        got = score_covariance(params, spec, X, laws)
        assert got.tobytes() == score_covariance_by_map(params, spec, X, laws).tobytes()

    @pytest.mark.parametrize("n, p", [(40, 15), (30, 70)], ids=["p<n", "p>n"])
    def test_map_equals_its_blocks(self, n, p):
        X = np.random.default_rng(38).standard_normal((n, p))
        spec, params = decompose_gram(X), ModelParams(1.3, 0.7)
        got = est.standardized_map(params, spec, X)
        assert got.tobytes() == standardized_map_by_blocks(params, spec, X).tobytes()

    def test_peak_memory_is_one_map(self):
        # C and C * C were two n x (n+p) arrays; the map is now squared in place
        n, p = 200, 300
        X = np.random.default_rng(39).standard_normal((n, p))
        spec, params = decompose_gram(X), ModelParams(1.0, 1.0)
        tracemalloc.start()
        try:
            score_covariance(params, spec, X, (RADEMACHER, RADEMACHER))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * (n + p) * 8

    def test_psd(self):
        info = score_covariance(self.params, self.spec, self.X, (RADEMACHER, RADEMACHER))
        assert np.min(np.linalg.eigvalsh(info)) >= -1e-10

    def test_matches_qf_route(self):
        from vcomp.qform import qf_cov_terms

        # the identity on the full (n+p) x (n+p) matrices, each coordinate
        # with its own block's kurtosis
        M1, M2, _ = score_qf_matrices(self.params, self.spec, self.X)
        kurt = np.concatenate(
            [np.full(self.p, UNIFORM.excess_kurtosis), np.full(self.n, GAUSSIAN.excess_kurtosis)]
        )
        pair = (M1, M2)
        expect = self.n * np.array(
            [[qf_cov_terms(a.diag, b.diag, float(np.sum(a.matrix * b.matrix)), kurt) for b in pair] for a in pair]
        )
        info = score_covariance(self.params, self.spec, self.X, (UNIFORM, GAUSSIAN))
        np.testing.assert_allclose(info, expect, rtol=1e-9)


class TestFisherAndSandwich:
    def test_fisher_corner_entry(self):
        spec = spec_from_lambdas([2.0, 1.0, 0.5])
        params = ModelParams(1.6, 0.7)
        fisher = gaussian_fisher(params, spec)
        assert fisher[0, 0] == pytest.approx(1.0 / (2.0 * params.sigma_sq**2))
        assert fisher[0, 1] == fisher[1, 0]
        assert np.min(np.linalg.eigvalsh(fisher)) >= 0.0

    def test_fisher_is_minus_expected_hessian(self):
        spec = spec_from_lambdas([3.0, 1.0, 0.4, 0.0])
        params = ModelParams(0.8, 1.3)
        np.testing.assert_allclose(
            gaussian_fisher(params, spec),
            -expected_hessian(params, params, spec),
            rtol=1e-8,
            atol=1e-14,
        )

    def test_gaussian_sandwich_is_inverse_fisher(self):
        rng = np.random.default_rng(38)
        for trial in range(20):
            n = int(rng.integers(6, 14))
            p = int(rng.integers(4, 20))
            X = rng.standard_normal((n, p))
            spec = decompose_gram(X)
            params = ModelParams(float(rng.uniform(0.4, 2.0)), float(rng.uniform(0.3, 2.0)))
            psi = asymptotic_cov(params, spec, X, (GAUSSIAN, GAUSSIAN))
            np.testing.assert_allclose(
                psi, np.linalg.inv(gaussian_fisher(params, spec)), rtol=1e-8, atol=1e-8
            )

    def test_constant_spectrum_singular(self):
        n = 6
        X = math.sqrt(n) * np.eye(n)
        spec = decompose_gram(X)
        with pytest.raises(NonIdentifiableError):
            asymptotic_cov(ModelParams(1.0, 1.0), spec, X, (GAUSSIAN, GAUSSIAN))

    @pytest.mark.parametrize("sigma0_sq", [1e-8, 1e6, 1e8])
    def test_identifiable_at_any_sigma_scale(self, sigma0_sq):
        # J0 mixes sigma^-4, sigma^-2 and O(1) entries, so whether it is
        # singular must be judged by a test that does not see sigma0^2
        X = np.random.default_rng(41).standard_normal((100, 200))
        spec = decompose_gram(X)
        laws = (UNIFORM, RADEMACHER)
        psi1 = asymptotic_cov(ModelParams(1.0, 0.7), spec, X, laws)
        psi = asymptotic_cov(ModelParams(sigma0_sq, 0.7), spec, X, laws)
        # sqrt(n)(sigma2_hat - sigma0^2) scales with sigma0^2, the eta^2 part not at all
        scale = np.array([[sigma0_sq**2, sigma0_sq], [sigma0_sq, 1.0]])
        np.testing.assert_allclose(psi / scale, psi1, rtol=1e-9, atol=1e-12 * np.abs(psi1).max())

    def test_law_enters_only_through_info(self):
        rng = np.random.default_rng(39)
        X = rng.standard_normal((9, 13))
        spec = decompose_gram(X)
        params = ModelParams(1.0, 0.8)
        j0 = expected_hessian(params, params, spec)
        psi_g = asymptotic_cov(params, spec, X, (GAUSSIAN, GAUSSIAN))
        psi_r = asymptotic_cov(params, spec, X, (RADEMACHER, RADEMACHER))
        info_g = j0 @ psi_g @ j0
        info_r = j0 @ psi_r @ j0
        np.testing.assert_allclose(
            info_g, score_covariance(params, spec, X, (GAUSSIAN, GAUSSIAN)), rtol=1e-8
        )
        np.testing.assert_allclose(
            info_r, score_covariance(params, spec, X, (RADEMACHER, RADEMACHER)), rtol=1e-8
        )
        assert not np.allclose(psi_g, psi_r)


# ---------------------------------------------------------------------------
# The batched search against the scalar search it replaced
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
T_CAP = est.T_CAP


def _profile_score_deriv(state, eta_sq):
    lam = state.spec.lambdas
    r = 1.0 / (eta_sq * lam + 1.0)
    ych2 = state.y_check**2
    ss = float(np.mean(ych2 * r))
    ss_d = -float(np.mean(lam * ych2 * r * r))
    return (
        -2.0 * float(np.mean(lam**2 * ych2 * r**3))
        - ss_d * float(np.mean(lam * r))
        + ss * float(np.mean(lam**2 * r * r))
    )


def _golden_max(fn, a, b, tol):
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
    return 0.5 * (a + b)


def _newton_polish(state, eta0, lo, hi, tol, max_iter=20):
    lo = max(lo, 0.0)
    h_lo, h_hi = profile_score(state, lo), profile_score(state, hi)
    eta = min(max(eta0, lo), hi)
    for phase_limit, newton_step in ((max_iter, True), (200, False)):
        for _ in range(phase_limit):
            h = profile_score(state, eta)
            if abs(h) < tol:
                return eta
            if h_lo > 0.0 > h_hi:
                if h > 0.0:
                    lo, h_lo = eta, h
                else:
                    hi, h_hi = eta, h
            candidate = 0.5 * (lo + hi)
            if newton_step:
                d = _profile_score_deriv(state, eta)
                if d != 0.0:
                    trial = eta - h / d
                    if lo < trial < hi:
                        candidate = trial
            eta = candidate
            if hi - lo < 1e-15 * max(1.0, hi):
                return eta
    return eta


def oracle_eta(state, grid_points=64, golden_tol=1e-8):
    """The scalar search: a 64-point t grid, golden section in the best cell's
    neighbourhood, then safeguarded Newton with a bisection tail.  Returns
    (eta_hat, cap_hit)."""
    eta_of = lambda t: t / (1.0 - t)  # noqa: E731
    ts = np.linspace(0.0, T_CAP, grid_points)
    lls = np.array([profile_loglik(state, eta_of(t)) for t in ts])
    h0 = profile_score(state, 0.0)
    ll_max = float(np.max(lls))
    best = int(np.argmax(lls >= ll_max - 1e-12 * (1.0 + abs(ll_max))))
    if best == 0 and h0 <= 0.0:
        return 0.0, False
    t_lo, t_hi = ts[max(best - 1, 0)], ts[min(best + 1, len(ts) - 1)]
    t_star = _golden_max(lambda t: profile_loglik(state, eta_of(t)), t_lo, t_hi, golden_tol)
    eta = max(_newton_polish(state, eta_of(t_star), eta_of(t_lo), eta_of(t_hi),
                             1e-8 * (1.0 + abs(h0))), 0.0)
    return eta, eta >= eta_of(T_CAP) * (1.0 - 1e-12)


def grid_loglik(state):
    ts = np.linspace(0.0, T_CAP, 64)
    return np.array([profile_loglik(state, t / (1.0 - t)) for t in ts])


def block_fit(spec, y_check):
    return fit_mle(ScoreState(y_check=y_check, spec=spec), FitOptions(trace=False))


@st.composite
def spectra_and_blocks(draw):
    """A random spectrum (some zero eigenvalues allowed) and a block of
    y_check drawn from the model at a random truth."""
    n = draw(st.integers(8, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    eta0 = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0, 3.0, 20.0]))
    zeros = draw(st.integers(0, n // 2))
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.0, 4.0, n))[::-1]
    if zeros:
        lam[-zeros:] = 0.0
    spec = GramSpectrum(n=n, p=n, lambdas=lam, U=np.eye(n))
    sigma0 = float(rng.uniform(0.2, 5.0))
    y_check = np.sqrt(sigma0 * (eta0 * lam + 1.0)) * rng.standard_normal((12, n))
    return spec, y_check


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestBatchedFitProperties:
    @PROPERTY
    @given(spectra_and_blocks())
    def test_loglik_at_least_oracle_and_grid(self, case):
        spec, y_check = case
        fit = block_fit(spec, y_check)
        for row, theta in zip(y_check, fit.theta):
            state = ScoreState(y_check=row, spec=spec)
            ll = profile_loglik(state, float(theta[1]))
            oracle_ll = profile_loglik(state, oracle_eta(state)[0])
            assert ll >= oracle_ll - 1e-12 * (1.0 + abs(oracle_ll))
            grid_max = float(np.max(grid_loglik(state)))
            assert ll >= grid_max - 1e-12 * (1.0 + abs(grid_max))

    @PROPERTY
    @given(spectra_and_blocks())
    def test_non_cap_rows_match_oracle(self, case):
        spec, y_check = case
        fit = block_fit(spec, y_check)
        for row, theta, cap in zip(y_check, fit.theta, fit.cap_hit):
            eta, oracle_cap = oracle_eta(ScoreState(y_check=row, spec=spec))
            if cap or oracle_cap:
                continue
            # the scalar search stops once |H_star| < tol_score, which on a flat
            # profile leaves it short of the root by up to one Newton step
            state = ScoreState(y_check=row, spec=spec)
            slack = abs(profile_score(state, eta) / _profile_score_deriv(state, eta))
            t_block = theta[1] / (1.0 + theta[1])
            assert abs(t_block - eta / (1.0 + eta)) <= 1e-7 + slack / (1.0 + eta) ** 2

    @PROPERTY
    @given(spectra_and_blocks(), st.one_of(
        st.sampled_from([1e-150, 1e-100, 1e-3, 0.1, 7.0, 1e3, 1e100, 1e150]),
        st.floats(1e-150, 1e150),
    ))
    def test_scale_equivariance(self, case, c):
        spec, y_check = case
        base, scaled = block_fit(spec, y_check), block_fit(spec, c * y_check)
        np.testing.assert_allclose(scaled.theta[:, 0], c * c * base.theta[:, 0], rtol=1e-8)
        t = lambda e: e / (1.0 + e)  # noqa: E731
        np.testing.assert_allclose(t(scaled.theta[:, 1]), t(base.theta[:, 1]), rtol=0, atol=1e-9)
        assert np.array_equal(scaled.cap_hit, base.cap_hit)
        # one row alone also computes psi-hat, whose sigma^2 entries scale by c^4
        alone = fit_mle(ScoreState(y_check=c * y_check[0], spec=spec), FitOptions(trace=False))
        assert alone.theta_hat.sigma_sq == pytest.approx(scaled.theta[0, 0], rel=1e-10)
        ref = fit_mle(ScoreState(y_check=y_check[0], spec=spec), FitOptions(trace=False))
        if alone.psi_hat is not None and ref.psi_hat is not None:
            np.testing.assert_allclose(alone.psi_hat, ref.psi_hat * [[c**4, c * c], [c * c, 1.0]],
                                       rtol=1e-6)

    @PROPERTY
    @given(spectra_and_blocks(), st.integers(0, 63))
    def test_row_alone_equals_row_in_block(self, case, k):
        spec, y_check = case
        rng = np.random.default_rng(k)
        big = y_check[rng.integers(0, len(y_check), 64)]
        fit = block_fit(spec, big)
        alone = fit_mle(ScoreState(y_check=big[k], spec=spec), FitOptions(trace=False))
        assert alone.theta_hat.sigma_sq == pytest.approx(fit.theta[k, 0], rel=1e-10)
        assert alone.theta_hat.eta_sq / (1 + alone.theta_hat.eta_sq) == pytest.approx(
            fit.theta[k, 1] / (1 + fit.theta[k, 1]), rel=0, abs=1e-9
        )
        assert (alone.boundary_flag, alone.cap_hit, alone.converged) == (
            fit.boundary[k], fit.cap_hit[k], fit.converged[k]
        )


class TestBatchedFit:
    def test_block_result_types(self):
        _, spec, state = make_state(42, n=30, p=50)
        block = np.stack([state.y_check, 2.0 * state.y_check, -state.y_check])
        fit = block_fit(spec, block)
        assert isinstance(fit, est.FitBlock)
        assert fit.theta.shape == (3, 2)
        assert type(fit.newton_iters) is int
        for flags in (fit.boundary, fit.cap_hit, fit.converged):
            assert flags.dtype == bool and flags.shape == (3,)
        assert fit.theta[2, 1] == fit.theta[0, 1]

    def test_zero_row_rejected(self):
        _, spec, state = make_state(43)
        with pytest.raises(DegenerateDataError):
            block_fit(spec, np.stack([state.y_check, np.zeros(spec.n)]))

    def test_converged_fit_reports_small_residual(self):
        _, _, state = make_state(44, n=60, p=90)
        fit = fit_mle(state)
        assert fit.converged
        if not fit.boundary_flag:
            assert fit.score_residual < fit.tol_score
            assert fit.score_residual == pytest.approx(
                abs(profile_score(state, fit.theta_hat.eta_sq)), abs=1e-12
            )

    def test_profile_maximum_at_the_cap_is_flagged(self):
        # n = 100, p = 200, eta0^2 = 20: the scalar search stopped within its
        # golden-section tolerance of the cap (eta^2 about 995751) without
        # flagging it, at a lower likelihood than the cap itself
        n, p = 100, 200
        X = np.random.default_rng(100).standard_normal((n, p))
        spec = decompose_gram(X)
        params = ModelParams(1.0, 20.0)
        ys = [gen_independent(X, params, GAUSSIAN, GAUSSIAN, SeedSpec(3, r)).y for r in range(500)]
        fit = block_fit(spec, np.stack(ys) @ spec.U)
        eta_cap = T_CAP / (1.0 - T_CAP)
        missed = 0
        for r in range(500):
            state = ScoreState(y_check=spec.U.T @ ys[r], spec=spec)
            eta, cap = oracle_eta(state)
            if eta > 0.9 * eta_cap and not cap:
                missed += 1
                assert fit.cap_hit[r] and fit.theta[r, 1] == eta_cap
                assert profile_loglik(state, eta_cap) > profile_loglik(state, eta)
        assert missed == 164
        assert np.all(fit.converged)
        single = fit_mle(ScoreState.from_observations(spec, ys[int(np.argmax(fit.cap_hit))]))
        assert single.cap_hit and single.converged


# ---------------------------------------------------------------------------
# Adversarial spectra and designs
# ---------------------------------------------------------------------------


def fit_design(X, y):
    return fit_mle(ScoreState.from_observations(decompose_gram(X), y))


def rank_one_eta(spec, y):
    """Closed-form MLE for a rank-1 Gram matrix: with u = 1/(eta^2 lam_1 + 1)
    the profile likelihood is -1/2 log(y1^2 u + b) + log(u)/(2n), maximized
    at u = b / ((n-1) y1^2) when that is below 1, else at eta^2 = 0."""
    y_check = spec.U.T @ y
    k = int(np.argmax(spec.lambdas))
    y1_sq, b = y_check[k] ** 2, float(np.sum(y_check**2)) - y_check[k] ** 2
    return max(0.0, ((spec.n - 1) * y1_sq / b - 1.0) / spec.lambdas[k])


class TestAdversarialSpectra:
    @pytest.mark.parametrize("n, p", [(2, 1), (10, 20), (40, 5)])
    def test_rank_one_design_fits_at_the_boundary(self, n, p):
        rng = np.random.default_rng(n + p)
        X = np.outer(rng.standard_normal(n), rng.standard_normal(p))
        # y orthogonal to the column space: no signal along the one direction
        col = X[:, 0] / np.linalg.norm(X[:, 0])
        y = rng.standard_normal(n)
        y -= (col @ y) * col
        fit = fit_design(X, y)
        assert fit.boundary_flag and fit.theta_hat.eta_sq == 0.0 and fit.converged
        assert not fit.identifiability_flag

    @pytest.mark.parametrize("n, p", [(2, 1), (10, 20), (40, 5)])
    def test_rank_one_design_matches_closed_form(self, n, p):
        rng = np.random.default_rng(100 + n)
        interior = 0
        for _ in range(20):
            X = np.outer(rng.standard_normal(n), rng.standard_normal(p))
            y = X @ rng.standard_normal(p) + rng.standard_normal(n)
            spec = decompose_gram(X)
            fit = fit_design(X, y)
            want = rank_one_eta(spec, y)
            if fit.cap_hit:
                continue
            interior += want > 0
            assert fit.converged and fit.boundary_flag == (want == 0.0)
            t = lambda e: e / (1.0 + e)  # noqa: E731
            assert t(fit.theta_hat.eta_sq) == pytest.approx(t(want), abs=1e-9)
        assert interior > 0

    def test_constant_spectrum_is_not_identifiable(self):
        n, p = 8, 12
        X = gen_design(n, p, DesignSpec("fixed_spectrum", (2.0,) * n), SeedSpec(5))
        spec = decompose_gram(X)
        np.testing.assert_allclose(spec.lambdas, 2.0, rtol=1e-12)
        params = ModelParams(1.0, 1.0)
        with pytest.raises(NonIdentifiableError):
            asymptotic_cov(params, spec, X, (GAUSSIAN, GAUSSIAN))
        fit = fit_design(X, gen_independent(X, params, GAUSSIAN, GAUSSIAN, SeedSpec(6)).y)
        assert fit.identifiability_flag and fit.psi_hat is None
        plan = ExperimentPlan(kind="consistency", n_grid=(n,), replicates=100, p_ratio=1.5,
                              design="fixed_spectrum", design_lambdas=(2.0,) * n)
        with pytest.raises(NonIdentifiableError):
            run_consistency(plan)

    def test_near_duplicate_columns_fit_normally(self):
        rng = np.random.default_rng(31)
        base = rng.standard_normal((40, 30))
        exact = np.hstack([base, base])
        near = np.hstack([base, base + 1e-9 * rng.standard_normal(base.shape)])
        y = gen_independent(exact, ModelParams(1.0, 1.0), GAUSSIAN, GAUSSIAN, SeedSpec(2)).y
        fit, ref = fit_design(near, y), fit_design(exact, y)
        assert fit.converged and not fit.identifiability_flag and fit.psi_hat is not None
        assert fit.theta_hat.sigma_sq == pytest.approx(ref.theta_hat.sigma_sq, rel=1e-6)
        assert fit.theta_hat.eta_sq == pytest.approx(ref.theta_hat.eta_sq, rel=1e-6)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(5, 40), p_ratio=st.sampled_from([0.5, 1.0, 2.0]),
           seed=st.integers(0, 2**32 - 1), rotate=st.booleans())
    def test_column_permutation_and_rotation_leave_the_fit(self, n, p_ratio, seed, rotate):
        # the model sees X only through XX'/p, which both leave unchanged
        rng = np.random.default_rng(seed)
        p = max(1, int(p_ratio * n))
        X = rng.standard_normal((n, p))
        y = gen_independent(X, ModelParams(1.0, 2.0), GAUSSIAN, GAUSSIAN, SeedSpec(seed % 1000)).y
        mixed = X @ haar_orthogonal(p, rng) if rotate else X[:, rng.permutation(p)]
        base, fit = fit_design(X, y), fit_design(mixed, y)
        assert (fit.boundary_flag, fit.cap_hit, fit.converged) == (
            base.boundary_flag, base.cap_hit, base.converged
        )
        assert fit.theta_hat.sigma_sq == pytest.approx(base.theta_hat.sigma_sq, rel=1e-8)
        t = lambda e: e / (1.0 + e)  # noqa: E731
        assert t(fit.theta_hat.eta_sq) == pytest.approx(t(base.theta_hat.eta_sq), abs=1e-8)
