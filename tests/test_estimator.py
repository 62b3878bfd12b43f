import math

import numpy as np
import pytest

import vcomp.estimator as est
from vcomp.errors import DegenerateDataError, NonIdentifiableError
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
    pop_profile_loglik,
    pop_profile_score,
    pop_profile_score_moment,
    profile_loglik,
    profile_score,
    score,
    score_covariance,
    sigma0_sq_of,
    sigma_star_sq,
)
from vcomp.laws import GAUSSIAN, RADEMACHER, UNIFORM, SeedSpec, sample_vector
from vcomp.model import DesignSpec, ModelParams, gen_design, gen_independent
from vcomp.qform import QuadraticForm, eval_qf
from vcomp.spectrum import GramSpectrum, decompose_gram, eigvar


def make_state(seed=0, n=12, p=20, params=ModelParams(1.0, 1.0)):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    spec = decompose_gram(X)
    ds = gen_independent(X, params, GAUSSIAN, GAUSSIAN, SeedSpec(seed, 1))
    return X, spec, ScoreState.from_observations(spec, ds.y)


def flat_spec(n=6, lam=1.0):
    return GramSpectrum(
        n=n, p=n, lambdas=np.full(n, lam), U=np.eye(n), n0=n if lam > 0 else 0
    )


def spec_from_lambdas(lambdas):
    lam = np.asarray(lambdas, dtype=float)
    n = lam.size
    return GramSpectrum(n=n, p=n, lambdas=lam, U=np.eye(n), n0=int(np.sum(lam > 0)))


class TestSigmaStar:
    def test_eta_zero(self):
        _, _, state = make_state(1)
        y_norm_sq = float(state.y_check @ state.y_check)
        assert sigma_star_sq(state, 0.0) == pytest.approx(y_norm_sq / state.n)

    def test_large_eta_limit_rank_deficient(self):
        # p < n leaves n - p zero eigenvalues; the limit keeps only those terms
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        spec = decompose_gram(X)
        y = rng.standard_normal(10)
        state = ScoreState.from_observations(spec, y)
        tail = float(np.sum(state.y_check[spec.n0 :] ** 2)) / spec.n
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


class TestPopProfile:
    def test_population_maximizer(self):
        spec = decompose_gram(np.random.default_rng(8).standard_normal((10, 16)))
        params = ModelParams(1.0, 0.9)
        base = pop_profile_loglik(params.eta_sq, params, spec)
        for eta in np.linspace(0.0, 4.0, 41):
            assert pop_profile_loglik(float(eta), params, spec) <= base + 1e-12

    def test_constant_spectrum_flat(self):
        spec = flat_spec()
        params = ModelParams(1.0, 1.0)
        vals = [pop_profile_loglik(float(e), params, spec) for e in (0.0, 0.5, 1.5, 4.0)]
        assert max(vals) - min(vals) < 1e-12

    def test_curvature_lower_bound_full_rank(self):
        # n0 = n instance: separation of the population profile from its max
        # dominates the curvature-factor bound on a grid
        rng = np.random.default_rng(9)
        X = rng.standard_normal((8, 16))
        spec = decompose_gram(X)
        assert spec.n0 == spec.n
        params = ModelParams(1.3, 0.7)
        v = eigvar(spec)
        # curvature factor 1 / (2 (eta0^2+1)^4 (lambda_1+1)^4 (1/lambda_n0+1)^2);
        # lambda_n0 is the smallest eigenvalue because n0 = n
        lam_n0 = float(np.min(spec.lambdas))
        c = 1.0 / (
            2.0
            * (params.eta_sq + 1.0) ** 4
            * (spec.lambda_1 + 1.0) ** 4
            * (1.0 / lam_n0 + 1.0) ** 2
        )
        base = pop_profile_loglik(params.eta_sq, params, spec)
        for eta in np.linspace(0.0, 5.0, 26):
            gap = base - pop_profile_loglik(float(eta), params, spec)
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


class TestPopProfileScore:
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
    return M1, M2, (M1.trace, M2.trace)


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
            assert eval_qf(M1, z) - c1 == pytest.approx(s[0], abs=1e-8)
            assert eval_qf(M2, z) - c2 == pytest.approx(s[1], abs=1e-8)

    def test_offsets_center_the_score(self):
        M1, M2, (c1, c2) = score_qf_matrices(self.params, self.spec, self.X)
        assert c1 == pytest.approx(M1.trace, rel=1e-12)
        assert c2 == pytest.approx(M2.trace, rel=1e-12)
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
        reps = 100_000
        scores = np.empty((reps, 2))
        root = math.sqrt(self.params.sigma_sq * self.params.eta_sq / self.p)
        for r in range(reps):
            beta = root * sample_vector(UNIFORM, self.p, SeedSpec(36, r))
            eps = sample_vector(RADEMACHER, self.n, SeedSpec(37, r))
            state = ScoreState.from_observations(self.spec, self.X @ beta + eps)
            scores[r] = score(state, self.params)
        emp = self.n * np.cov(scores.T)
        for i in range(2):
            for j in range(2):
                prod = self.n * scores[:, i] * scores[:, j]
                se = prod.std(ddof=1) / math.sqrt(reps)
                assert abs(emp[i, j] - info[i, j]) < 5 * se

    def test_psd(self):
        info = score_covariance(self.params, self.spec, self.X, (RADEMACHER, RADEMACHER))
        assert np.min(np.linalg.eigvalsh(info)) >= -1e-10

    def test_matches_qf_route(self):
        from vcomp.qform import qf_covariance

        M1, M2, _ = score_qf_matrices(self.params, self.spec, self.X)
        mu4 = np.concatenate(
            [np.full(self.p, UNIFORM.mu4), np.full(self.n, GAUSSIAN.mu4)]
        )
        expect = self.n * np.array(
            [
                [qf_covariance(M1, M1, mu4), qf_covariance(M1, M2, mu4)],
                [qf_covariance(M2, M1, mu4), qf_covariance(M2, M2, mu4)],
            ]
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
