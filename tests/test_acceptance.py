"""Acceptance gates for the whole package.

Each test pins one verification criterion at a stated tolerance and prints a
single pass line when it holds.  The Monte Carlo gates run fixed seeded plans;
reports are deterministic, so a green gate stays green.
"""

import itertools
import math

import numpy as np
import pytest

import vcomp.estimator as est
from vcomp.estimator import (
    ScoreState,
    asymptotic_cov,
    expected_hessian,
    expected_hessian_det,
    gaussian_fisher,
    hessian,
    loglik,
    pop_profile_score,
    pop_profile_score_moment,
    profile_loglik,
    profile_score,
    score,
    sigma0_sq_of,
    sigma_star_sq,
)
from vcomp.experiments import ExperimentPlan, run_consistency, run_coupling, run_normality, run_stein, run_tail, with_workers
from vcomp.laws import GAUSSIAN, RADEMACHER, UNIFORM, SeedSpec
from vcomp.model import ModelParams, gen_independent
from vcomp.qform import QuadraticForm, qf_covariance, qf_variance, sigma_k_sq
from vcomp.spectrum import GramSpectrum, decompose_gram


def report(line: str) -> None:
    print(f"\n[ACCEPT] {line}")


def random_spectrum(rng, n_min=3, n_max=12):
    n = int(rng.integers(n_min, n_max))
    lam = np.sort(rng.uniform(0.0, 4.0, n))[::-1]
    return GramSpectrum(n=n, p=n, lambdas=lam, U=np.eye(n))


def random_params(rng):
    return ModelParams(float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.05, 2.5)))


def test_criterion_01_closed_form_identities():
    """Population-score identity, expected-Hessian determinant identity, and
    the fixed point of the population variance, at 1e-10 / 1e-12."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        spec = random_spectrum(rng)
        params = random_params(rng)
        eta = float(rng.uniform(0.0, 4.0))
        a = pop_profile_score(eta, params, spec)
        b = pop_profile_score_moment(eta, params, spec)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))
        direct = float(np.linalg.det(expected_hessian(params, params, spec)))
        pairwise = expected_hessian_det(params, spec)
        assert abs(direct - pairwise) <= 1e-10 * max(1.0, abs(direct))
        assert abs(sigma0_sq_of(params.eta_sq, params, spec) - params.sigma_sq) <= 1e-12
    report("criterion 1 (closed-form identities at 1e-10/1e-12, 100 instances): PASS")


def test_criterion_02_quadratic_form_moment_oracle():
    """Variance/covariance identities vs exhaustive sign enumeration (d <= 12)
    and the kurtosis form of the variance, all at 1e-10."""
    rng = np.random.default_rng(102)
    for _ in range(25):
        d = int(rng.integers(2, 13))
        A = rng.standard_normal((d, d))
        B = rng.standard_normal((d, d))
        qa = QuadraticForm(A @ A.T / d)
        qb = QuadraticForm(B @ B.T / d)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        va = np.einsum("ij,jk,ik->i", signs, qa.matrix, signs)
        vb = np.einsum("ij,jk,ik->i", signs, qb.matrix, signs)
        assert qf_variance(qa, RADEMACHER) == pytest.approx(float(np.var(va)), abs=1e-10)
        cov = float(np.mean(va * vb) - va.mean() * vb.mean())
        assert qf_covariance(qa, qb, RADEMACHER) == pytest.approx(cov, abs=1e-10)
        for law in (GAUSSIAN, RADEMACHER, UNIFORM):
            assert sigma_k_sq(qa, law.excess_kurtosis) == pytest.approx(
                qf_variance(qa, law), abs=1e-10, rel=1e-10
            )
    report("criterion 2 (quadratic-form moments vs exhaustive oracle at 1e-10): PASS")


def test_criterion_03_derivative_consistency():
    """Score vs finite-difference gradient (1e-6), Hessian vs finite-difference
    score (1e-5), profile score vs profiled derivative (1e-6)."""
    rng = np.random.default_rng(103)
    X = rng.standard_normal((14, 22))
    spec = decompose_gram(X)
    ds = gen_independent(X, ModelParams(1.0, 1.0), GAUSSIAN, GAUSSIAN, SeedSpec(103, 0))
    state = ScoreState.from_observations(spec, ds.y)
    for _ in range(50):
        s2 = float(rng.uniform(0.3, 3.0))
        e2 = float(rng.uniform(0.05, 3.0))
        theta = ModelParams(s2, e2)
        h1 = 1e-6 * (1 + s2)
        h2 = 1e-6 * (1 + e2)
        s = score(state, theta)
        fd = np.array(
            [
                (loglik(state, ModelParams(s2 + h1, e2)) - loglik(state, ModelParams(s2 - h1, e2))) / (2 * h1),
                (loglik(state, ModelParams(s2, e2 + h2)) - loglik(state, ModelParams(s2, e2 - h2))) / (2 * h2),
            ]
        )
        np.testing.assert_allclose(s, fd, rtol=1e-6, atol=1e-10)
        J = hessian(state, theta)
        fd_j = np.column_stack(
            [
                (score(state, ModelParams(s2 + h1, e2)) - score(state, ModelParams(s2 - h1, e2))) / (2 * h1),
                (score(state, ModelParams(s2, e2 + h2)) - score(state, ModelParams(s2, e2 - h2))) / (2 * h2),
            ]
        )
        np.testing.assert_allclose(J, fd_j, rtol=1e-5, atol=1e-8)
        fd_prof = (profile_loglik(state, e2 + h2) - profile_loglik(state, e2 - h2)) / (2 * h2)
        assert profile_score(state, e2) == pytest.approx(
            2.0 * sigma_star_sq(state, e2) * fd_prof, rel=1e-6, abs=1e-10
        )
    report("criterion 3 (derivatives vs central differences, 50 instances): PASS")


def test_criterion_04_gaussian_efficiency():
    """Under Gaussian laws the sandwich equals the inverse Fisher information
    entrywise to 1e-8 on 20 random designs."""
    rng = np.random.default_rng(104)
    for _ in range(20):
        n = int(rng.integers(6, 14))
        p = int(rng.integers(4, 20))
        X = rng.standard_normal((n, p))
        spec = decompose_gram(X)
        params = random_params(rng)
        psi = asymptotic_cov(params, spec, X, (GAUSSIAN, GAUSSIAN))
        target = np.linalg.inv(gaussian_fisher(params, spec))
        np.testing.assert_allclose(psi, target, rtol=1e-8, atol=1e-8)
    report("criterion 4 (Gaussian sandwich = inverse Fisher at 1e-8, 20 spectra): PASS")


def test_criterion_05_consistency_rate():
    """Pinned design (p = 2n Gaussian iid, sigma0^2 = eta0^2 = 1), 500
    replicates per n in {100, 200, 400, 800}: log-log slope of the median
    error in [-0.7, -0.3] and medians strictly decreasing."""
    plan = ExperimentPlan(
        kind="consistency", n_grid=(100, 200, 400, 800), replicates=500,
        p_ratio=2.0, master_seed=7, workers=4,
    )
    rep = run_consistency(plan)
    medians = [c["estimate"] for c in rep.cells]
    assert all(b < a for a, b in zip(medians, medians[1:])), medians
    slope_gate = next(g for g in rep.gates if g["gate"] == "slope_window")
    assert -0.7 <= slope_gate["value"] <= -0.3, slope_gate
    report(
        "criterion 5 (consistency slope "
        f"{slope_gate['value']:.3f} in [-0.7,-0.3], medians decreasing): PASS"
    )


def test_criterion_06_asymptotic_normality():
    """Pinned f = tanh(x1/3) tanh(x2/3) and 2000 replicates/cell: discrepancy
    at n = 800 below n = 100 beyond twice the combined stderr, and Gaussian
    Wald-ellipse coverage at n = 800 inside [0.92, 0.975]."""
    plan = ExperimentPlan(
        kind="normality", n_grid=(100, 800), replicates=2000, p_ratio=0.75,
        master_seed=1, test_fn="tanh_product", test_scales=(3.0, 3.0),
        control_draws=1_000_000, workers=4,
    )
    rep = run_normality(plan)
    c0, c1 = rep.cells[0], rep.cells[-1]
    gap = c0["estimate"] - c1["estimate"]
    threshold = 2.0 * math.sqrt(c0["stderr"] ** 2 + c1["stderr"] ** 2)
    assert gap > threshold, (c0["estimate"], c1["estimate"], threshold)
    assert 0.92 <= c1["coverage95"] <= 0.975, c1["coverage95"]
    report(
        f"criterion 6 (discrepancy {c0['estimate']:.4f} -> {c1['estimate']:.4f} "
        f"separated beyond 2*stderr={threshold:.4f}; coverage {c1['coverage95']:.3f}): PASS"
    )


def test_criterion_07_uniform_tail_shape():
    """log tail of the uniform profile-variance deviation decreasing and
    log-linear in n (R^2 > 0.8) for both Gaussian and Rademacher laws."""
    results = []
    for law in ("gaussian", "rademacher"):
        plan = ExperimentPlan(
            kind="tail_envelope", n_grid=(50, 100, 200, 400), replicates=3000,
            p_ratio=2.0, beta_law=law, eps_law=law, r_grid=(0.3, 0.4),
            master_seed=7, workers=4,
        )
        rep = run_tail(plan)
        for r in (0.3, 0.4):
            cells = sorted(
                (c for c in rep.cells if c["r"] == r and c["reliable"]),
                key=lambda c: c["n"],
            )
            assert len(cells) >= 3, f"{law} r={r}: too few reliable cells"
            phats = [c["estimate"] for c in cells]
            assert all(b < a for a, b in zip(phats, phats[1:])), (law, r, phats)
            gate = next(g for g in rep.gates if g["gate"] == f"log_tail_linear_r={r}")
            assert gate["value"] < 0, (law, gate)
            assert gate["r2"] > 0.8, (law, gate)
            results.append((law, r, gate["r2"]))
    worst = min(r2 for _, _, r2 in results)
    report(f"criterion 7 (log tails decreasing, linear in n, worst R^2 {worst:.3f}): PASS")


def test_criterion_08_coupled_effects():
    """delta = 0 coupling reproduces the independent estimates bitwise;
    with coupling distance O(1/n) the error medians stay within 2x at n = 800."""
    plan = ExperimentPlan(
        kind="coupling", n_grid=(100, 800), replicates=300, p_ratio=0.5,
        delta_grid=(0.0, 1.0), delta_scale="inverse_n", master_seed=7, workers=4,
    )
    rep = run_coupling(plan)
    gates = {g["gate"]: g for g in rep.gates}
    assert gates["delta_zero_bitwise"]["pass"]
    big = [
        c for c in rep.cells
        if c.get("n") == 800 and "error_ratio_vs_independent" in c
    ]
    worst = max(c["error_ratio_vs_independent"] for c in big)
    assert worst <= 2.0, worst
    scaled = next(c for c in rep.cells if c["cell"] == "n=800,delta=1.0")
    assert scaled["median_coupling_distance"] == pytest.approx(1 / 800, abs=1e-12)
    report(f"criterion 8 (delta=0 bitwise; O(1/n) coupling ratio {worst:.3f} <= 2): PASS")


def test_criterion_09_stein_discrepancy():
    """Smooth-function discrepancy and the constant-free rate quantity both
    strictly decrease from d = 50 to d = 400; the Rademacher identity-matrix
    degeneracy is detected and reported rather than raised."""
    plan = ExperimentPlan(
        kind="stein_discrepancy", n_grid=(50, 400), replicates=100_000,
        master_seed=31, test_fn="tanh_sum", test_scales=(3.0,), workers=4,
    )
    rep = run_stein(plan)
    d0, d1 = rep.cells[0], rep.cells[-1]
    gap = d0["estimate"] - d1["estimate"]
    threshold = 2.0 * math.sqrt(d0["stderr"] ** 2 + d1["stderr"] ** 2)
    assert gap > threshold, (d0["estimate"], d1["estimate"], threshold)
    assert d0["rate_quantity"] > d1["rate_quantity"]

    degen = ExperimentPlan(
        kind="stein_discrepancy", n_grid=(16, 32), replicates=200,
        beta_law="rademacher", qspec="identity", master_seed=31, workers=1,
    )
    drep = run_stein(degen)
    assert all(c["degenerate"] for c in drep.cells)
    assert all(c["max_abs_w"] == 0.0 for c in drep.cells)
    assert all(s == pytest.approx(0.0, abs=1e-12) for c in drep.cells for s in c["sigma_k_sq"])
    report(
        f"criterion 9 (quadratic-form CLT discrepancy {d0['estimate']:.4f} -> "
        f"{d1['estimate']:.4f}, rate {d0['rate_quantity']:.1f} -> {d1['rate_quantity']:.1f}; "
        "degenerate case reported): PASS"
    )


def test_criterion_10_determinism():
    """Byte-identical reports across reruns and worker counts, for every
    experiment kind."""
    plans = [
        ExperimentPlan(kind="consistency", n_grid=(30, 60), replicates=100, master_seed=4),
        ExperimentPlan(
            kind="tail_envelope", n_grid=(30, 60), replicates=150,
            r_grid=(0.3,), master_seed=4,
        ),
        ExperimentPlan(
            kind="normality", n_grid=(30, 60), replicates=100, p_ratio=0.5,
            surrogate_draws=20_000, control_draws=20_000, master_seed=4,
        ),
        ExperimentPlan(
            kind="coupling", n_grid=(30, 60), replicates=100,
            delta_grid=(0.0, 0.5), master_seed=4,
        ),
        ExperimentPlan(
            kind="stein_discrepancy", n_grid=(16, 32), replicates=150,
            surrogate_draws=20_000, master_seed=4,
        ),
    ]
    from vcomp.experiments import run_experiment

    for plan in plans:
        first = run_experiment(plan)
        again = run_experiment(plan)
        multi = run_experiment(with_workers(plan, 3))
        assert first.to_json() == again.to_json() == multi.to_json(), plan.kind
        assert first.cells_csv() == again.cells_csv() == multi.cells_csv(), plan.kind
    report("criterion 10 (byte-identical reports across reruns and 1 vs 3 workers): PASS")
