import math

import numpy as np
import pytest

from vcomp.errors import NonIdentifiableError, TailGridError
from vcomp.estimator import expected_hessian
from vcomp.experiments import (
    REPORT_HEADER,
    _endpoint_drop_gate,
    _expansion_controls,
    ExperimentPlan,
    config_hash,
    gaussian_expectation,
    mean_with_stderr,
    median_with_stderr,
    ols_loglog,
    resolve_test_fn,
    run_consistency,
    run_coupling,
    run_experiment,
    run_normality,
    run_stein,
    run_tail,
    tanh_product,
    tanh_sum,
    wilson_interval,
    with_workers,
)
from vcomp.laws import SeedSpec
from vcomp.model import ModelParams
from vcomp.spectrum import GramSpectrum


def small_plan(**kw):
    defaults = dict(
        kind="consistency", n_grid=(40, 80), replicates=100, p_ratio=2.0,
        master_seed=11, workers=1,
    )
    defaults.update(kw)
    return ExperimentPlan(**defaults)


class TestPlanValidation:
    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            small_plan(replicates=50)

    def test_n_grid_strictly_increasing(self):
        with pytest.raises(ValueError):
            small_plan(n_grid=(80, 40))
        with pytest.raises(ValueError):
            small_plan(n_grid=(40, 40))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            small_plan(kind="bootstrap")

    def test_config_hash_ignores_workers(self):
        a = small_plan(workers=1)
        b = small_plan(workers=7)
        assert config_hash(a) == config_hash(b)
        c = small_plan(master_seed=12)
        assert config_hash(a) != config_hash(c)


class TestStatHelpers:
    def test_median_stderr_shrinks(self):
        rng = np.random.default_rng(0)
        m1, s1 = median_with_stderr(rng.standard_normal(400))
        m2, s2 = median_with_stderr(rng.standard_normal(1600))
        assert s2 < s1
        assert abs(m1) < 0.2 and abs(m2) < 0.1

    def test_mean_stderr(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        m, s = mean_with_stderr(x)
        assert m == pytest.approx(2.5)
        assert s == pytest.approx(np.std(x, ddof=1) / 2.0)

    def test_wilson_contains_phat(self):
        lo, hi = wilson_interval(20, 100)
        assert lo < 0.2 < hi
        lo, hi = wilson_interval(0, 100)
        assert lo >= 0.0 and hi > 0.0

    def test_ols_loglog_recovers_slope(self):
        x = np.array([100.0, 200.0, 400.0, 800.0])
        y = 3.0 * x**-0.5
        fit = ols_loglog(x, y)
        assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert fit["r2"] == pytest.approx(1.0)


class TestTestFns:
    def test_tanh_product_bounds(self):
        fn = tanh_product((3.0, 3.0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 2)) * 10
        vals = fn.evaluator(x)
        assert np.all(np.abs(vals) <= fn.norm_bounds[0])

    def test_tanh_sum_shape(self):
        fn = tanh_sum((2.0,))
        x = np.array([[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(fn.evaluator(x), [math.tanh(1.0), 0.0])

    def test_resolve_constant(self):
        fn = resolve_test_fn("constant", (0.7,))
        np.testing.assert_allclose(fn.evaluator(np.zeros((5, 2))), 0.7)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_test_fn("sigmoid", (1.0,))


class TestGaussianExpectation:
    def test_quadrature_odd_function_is_zero(self):
        fn = tanh_product((3.0, 3.0))
        val, err = gaussian_expectation(fn, np.eye(2), SeedSpec(0))
        assert abs(val) < 1e-8

    def test_quadrature_matches_mc_on_correlated(self):
        fn = tanh_product((3.0, 3.0))
        V = np.array([[2.0, -1.2], [-1.2, 1.5]])
        quad, _ = gaussian_expectation(fn, V, SeedSpec(1))
        rng = np.random.default_rng(2)
        root = np.linalg.cholesky(V)
        z = rng.standard_normal((400_000, 2)) @ root.T
        mc = float(np.mean(fn.evaluator(z)))
        assert quad == pytest.approx(mc, abs=5 * 0.3 / math.sqrt(400_000))

    def test_mc_path_for_higher_dims(self):
        fn = tanh_product((3.0, 3.0, 3.0, 3.0))
        val, err = gaussian_expectation(fn, np.eye(4), SeedSpec(3), draws=100_000)
        assert abs(val) < 5 * err + 1e-3


class TestDeterminism:
    def test_rerun_byte_identical(self):
        plan = small_plan()
        a = run_consistency(plan)
        b = run_consistency(plan)
        assert a.to_json() == b.to_json()
        assert a.cells_csv() == b.cells_csv()

    def test_worker_invariance(self):
        plan = small_plan()
        serial = run_consistency(plan)
        parallel = run_consistency(with_workers(plan, 3))
        assert serial.to_json() == parallel.to_json()
        assert serial.cells_csv() == parallel.cells_csv()

    def test_seed_changes_report(self):
        a = run_consistency(small_plan(master_seed=1))
        b = run_consistency(small_plan(master_seed=2))
        assert a.to_json() != b.to_json()


class TestConsistency:
    def test_report_structure(self):
        rep = run_consistency(small_plan())
        assert rep.header == REPORT_HEADER
        assert {c["cell"] for c in rep.cells} == {"n=40", "n=80"}
        for cell in rep.cells:
            assert cell["stderr"] > 0
        names = {g["gate"] for g in rep.gates}
        assert "medians_decreasing" in names
        assert "slope_window" in names
        assert rep.provenance["config_hash"] == config_hash(small_plan())

    def test_constant_spectrum_aborts(self):
        with pytest.raises(NonIdentifiableError):
            run_consistency(small_plan(design="identity", n_grid=(16, 32)))

    def test_stderr_shrinks_with_replicates(self):
        lo = run_consistency(small_plan(n_grid=(40,), replicates=100))
        hi = run_consistency(small_plan(n_grid=(40,), replicates=400))
        ratio = hi.cells[0]["stderr"] / lo.cells[0]["stderr"]
        assert 0.3 < ratio < 0.9


class TestTail:
    def test_monotone_in_r_and_structure(self):
        plan = small_plan(kind="tail_envelope", n_grid=(30, 60), replicates=300,
                          r_grid=(0.2, 0.35, 0.5), master_seed=5)
        rep = run_tail(plan)
        for n in (30, 60):
            sub = sorted(
                (c for c in rep.cells if c["n"] == n), key=lambda c: c["r"]
            )
            vals = [c["estimate"] for c in sub]
            assert all(b <= a for a, b in zip(vals, vals[1:]))
            for c in sub:
                assert c["grid_error_bound"] >= 0
        assert any(g["gate"].startswith("log_tail_linear") for g in rep.gates)

    def test_unreliable_marking(self):
        plan = small_plan(kind="tail_envelope", n_grid=(30, 60), replicates=150,
                          r_grid=(0.2, 50.0), master_seed=5)
        rep = run_tail(plan)
        big_r = [c for c in rep.cells if c["r"] == 50.0]
        assert all(not c["reliable"] for c in big_r)

    def test_widen_grid_error(self):
        plan = small_plan(kind="tail_envelope", n_grid=(30,), replicates=120,
                          r_grid=(1e6,), master_seed=5)
        with pytest.raises(TailGridError):
            run_tail(plan)


class TestNormality:
    def test_constant_fn_zero_discrepancy(self):
        plan = small_plan(
            kind="normality", n_grid=(40,), replicates=120, p_ratio=0.5,
            test_fn="constant", test_scales=(1.0,), surrogate_draws=10_000,
            control_draws=0,
        )
        rep = run_normality(plan)
        assert rep.cells[0]["estimate"] == pytest.approx(0.0, abs=1e-9)

    def test_report_fields(self):
        plan = small_plan(
            kind="normality", n_grid=(40, 80), replicates=150, p_ratio=0.5,
            surrogate_draws=50_000, control_draws=20_000,
        )
        rep = run_normality(plan)
        for cell in rep.cells:
            assert 0.0 <= cell["coverage95"] <= 1.0
            assert cell["stderr"] > 0
            assert "far_fraction" in cell
        names = {g["gate"] for g in rep.gates}
        assert "wald_coverage_window" in names
        assert "discrepancy_endpoint_drop" in names

    def test_control_variate_reduces_stderr(self):
        base = small_plan(kind="normality", n_grid=(60,), replicates=200,
                          p_ratio=0.5, surrogate_draws=50_000, control_draws=0)
        cv = small_plan(kind="normality", n_grid=(60,), replicates=200,
                        p_ratio=0.5, surrogate_draws=50_000, control_draws=100_000)
        se_base = run_normality(base).cells[0]["stderr"]
        se_cv = run_normality(cv).cells[0]["stderr"]
        assert se_cv < 0.5 * se_base


    def test_non_gaussian_control_branch_worker_invariant(self):
        # non-Gaussian laws send the auxiliary draws through the design map
        plan = small_plan(
            kind="normality", n_grid=(30, 60), replicates=100, p_ratio=0.5,
            beta_law="rademacher", eps_law="uniform", surrogate_draws=20_000,
            control_draws=5_000,
        )
        serial = run_normality(plan)
        assert all(np.isfinite(c["stderr"]) and c["stderr"] > 0 for c in serial.cells)
        assert serial.to_json() == run_normality(with_workers(plan, 2)).to_json()


def _linear_u(y_check_sq, params, spec, j0):
    """sqrt(n) times -J0^{-1} S(theta_0) on a (reps, n) block; returns (reps, 2)."""
    lam = spec.lambdas
    n = spec.n
    s2, e2 = params.sigma_sq, params.eta_sq
    r = 1.0 / (e2 * lam + 1.0)
    s_1 = (y_check_sq @ r) / n / (2.0 * s2 * s2) - 1.0 / (2.0 * s2)
    s_2 = (y_check_sq @ (lam * r * r)) / n / (2.0 * s2) - 0.5 * float(np.mean(lam * r))
    scores = np.stack([s_1, s_2], axis=-1)
    return -math.sqrt(n) * scores @ np.linalg.inv(j0).T


def _profile_newton_u(y_check_sq, params, spec, steps=2):
    """Two guarded Newton updates of the profile score from eta_0^2, then the
    profiled variance, written row by row; the reference for the fused core."""
    lam = spec.lambdas
    n = spec.n
    e0 = params.eta_sq
    ey2 = params.sigma_sq * (e0 * lam + 1.0)
    r0 = 1.0 / (e0 * lam + 1.0)
    quad0 = float(np.mean(lam * ey2 * r0 * r0))
    fallback = (
        -2.0 * float(np.mean(lam * lam * ey2 * r0**3))
        + quad0 * float(np.mean(lam * r0))
        + float(np.mean(ey2 * r0)) * float(np.mean(lam * lam * r0 * r0))
    )
    if not fallback < 0:
        fallback = -1e-8
    e = np.full(y_check_sq.shape[0], e0)
    for _ in range(steps):
        r = 1.0 / (e[:, None] * lam + 1.0)
        ylr = y_check_sq * (lam * r) * r
        quad = np.mean(ylr, axis=1)
        ss = np.mean(y_check_sq * r, axis=1)
        mlr = np.mean(lam * r, axis=1)
        h = quad - ss * mlr
        hp = -2.0 * np.mean(ylr * lam * r, axis=1) + quad * mlr + ss * np.mean(lam * lam * r * r, axis=1)
        slope = np.where(hp < -1e-300, hp, fallback)
        e = np.clip(e - h / slope, 0.0, 1e6)
    r = 1.0 / (e[:, None] * lam + 1.0)
    sig = np.mean(y_check_sq * r, axis=1)
    return math.sqrt(n) * np.stack([sig - params.sigma_sq, e - e0], axis=-1)


class TestExpansionControls:
    @pytest.mark.parametrize("seed", range(6))
    def test_fused_core_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        lam = np.sort(rng.uniform(0.0, 4.0, n))[::-1]
        lam[-1] = 0.0
        spec = GramSpectrum(n=n, p=n, lambdas=lam, U=np.eye(n), n0=n - 1)
        params = ModelParams(float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.05, 2.5)))
        y2 = params.sigma_sq * (params.eta_sq * lam + 1.0) * rng.standard_normal((40, n)) ** 2
        # all mass on the zero eigenvalue: the local curvature at eta_0^2 is
        # positive (fallback slope) and the step lands below 0 (clipped)
        y2[:3] = 0.0
        y2[:3, -1] = n * params.sigma_sq * np.array([10.0, 100.0, 1000.0])
        r0 = 1.0 / (params.eta_sq * lam + 1.0)
        hp = (
            -2.0 * np.mean(y2 * lam**2 * r0**3, axis=1)
            + np.mean(y2 * lam * r0**2, axis=1) * np.mean(lam * r0)
            + np.mean(y2 * r0, axis=1) * np.mean(lam**2 * r0**2)
        )
        assert np.all(hp[:3] > 0) and np.any(hp[3:] < 0)
        j0 = expected_hessian(params, params, spec)
        fused = _expansion_controls(y2, params, spec, j0)
        ref = np.concatenate(
            [_linear_u(y2, params, spec, j0), _profile_newton_u(y2, params, spec)], axis=-1
        )
        assert np.all(ref[:3, 3] == -math.sqrt(n) * params.eta_sq)  # clipped at 0
        np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=1e-10)


class TestEndpointDropGate:
    def test_small_increase_fails(self):
        gate = _endpoint_drop_gate([0.10, 0.1001], [0.05, 0.05])
        assert gate["gate"] == "discrepancy_endpoint_drop"
        assert not gate["pass"] and not gate["pass_strict"]

    def test_no_change_passes_not_strictly(self):
        gate = _endpoint_drop_gate([0.10, 0.07, 0.10], [0.05, 0.05, 0.05])
        assert gate["pass"] and not gate["pass_strict"]
        assert gate["value"] == 0.0

    def test_established_drop_passes_strictly(self):
        gate = _endpoint_drop_gate([0.50, 0.10], [0.01, 0.01])
        assert gate["pass"] and gate["pass_strict"]
        assert gate["stderr"] == pytest.approx(math.sqrt(2) * 0.01)


class TestCoupling:
    def test_delta_zero_bitwise_and_monotone(self):
        plan = small_plan(kind="coupling", n_grid=(30, 60), replicates=120,
                          delta_grid=(0.0, 0.3, 1.0), master_seed=9)
        rep = run_coupling(plan)
        gates = {g["gate"]: g for g in rep.gates}
        assert gates["delta_zero_bitwise"]["pass"]
        assert gates["distance_nondecreasing_n=30"]["pass"]
        assert gates["distance_nondecreasing_n=60"]["pass"]

    def test_inverse_n_delta_scaling(self):
        plan = small_plan(kind="coupling", n_grid=(30, 60), replicates=100,
                          delta_grid=(1.0,), delta_scale="inverse_n", master_seed=9)
        rep = run_coupling(plan)
        d30 = next(c for c in rep.cells if c["cell"] == "n=30,delta=1.0")
        d60 = next(c for c in rep.cells if c["cell"] == "n=60,delta=1.0")
        assert d30["delta_effective"] == pytest.approx(1 / 30)
        assert d60["delta_effective"] == pytest.approx(1 / 60)
        assert d30["median_coupling_distance"] == pytest.approx(1 / 30, abs=1e-12)

    def test_sparse_scheme_reports_distance(self):
        plan = small_plan(kind="coupling", n_grid=(30,), replicates=100,
                          coupling_scheme="sparse_zero", sparse_fraction=0.5,
                          delta_grid=(0.0,), master_seed=9)
        rep = run_coupling(plan)
        coupled = [c for c in rep.cells if "median_coupling_distance" in c]
        assert coupled and coupled[0]["median_coupling_distance"] > 0
        assert all(np.isfinite(c["estimate"]) for c in rep.cells)


class TestStein:
    def test_rademacher_identity_degenerate(self):
        plan = small_plan(kind="stein_discrepancy", n_grid=(16, 32), replicates=150,
                          beta_law="rademacher", qspec="identity", master_seed=13)
        rep = run_stein(plan)
        assert all(c["degenerate"] for c in rep.cells)
        assert all(c["max_abs_w"] == 0.0 for c in rep.cells)
        assert any(g["gate"] == "degenerate_cells_reported" for g in rep.gates)

    def test_rate_quantity_decreasing(self):
        plan = small_plan(kind="stein_discrepancy", n_grid=(20, 80, 320),
                          replicates=150, master_seed=13, surrogate_draws=10_000)
        rep = run_stein(plan)
        rates = [c["rate_quantity"] for c in rep.cells]
        assert rates[0] > rates[1] > rates[2]
        gates = {g["gate"]: g for g in rep.gates}
        assert gates["rate_quantity_decreasing"]["pass_strict"]

    def test_rate_halves_when_d_quadruples(self):
        plan = small_plan(kind="stein_discrepancy", n_grid=(50, 200), replicates=150,
                          master_seed=13, surrogate_draws=10_000)
        rep = run_stein(plan)
        ratio = rep.cells[1]["rate_quantity"] / rep.cells[0]["rate_quantity"]
        assert abs(ratio - 0.5) < 0.1

    def test_k2_runs(self):
        plan = small_plan(kind="stein_discrepancy", n_grid=(16, 32), replicates=150,
                          k_forms=2, test_scales=(3.0,), master_seed=13,
                          surrogate_draws=20_000)
        rep = run_stein(plan)
        assert len(rep.cells) == 2
        assert all(len(c["sigma_k_sq"]) == 2 for c in rep.cells)


class TestReportSerialization:
    def test_csv_columns(self):
        rep = run_consistency(small_plan())
        lines = rep.cells_csv().splitlines()
        assert lines[0] == "n,cell,estimate,stderr,gate,pass"
        assert len(lines) >= 1 + len(rep.cells) + len(rep.gates)

    def test_write_and_dispatch(self, tmp_path):
        plan = small_plan()
        rep = run_experiment(plan)
        rep.write(tmp_path)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "cells.csv").exists()
        text = (tmp_path / "report.json").read_text()
        assert "runtime" not in text
        assert REPORT_HEADER.split(";")[0] in text
