import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcomp.errors import NonIdentifiableError, NumericalError, TailGridError, UnsupportedLawError
from vcomp import estimator, experiments, matio, spectrum
from vcomp.estimator import ScoreState, _pop_sq, asymptotic_cov, expected_hessian, sigma0_sq_of, sigma_star_sq, standardized_map
from vcomp.experiments import (
    _CHI2_2_95,
    _CTRL_BLOCK,
    _CTRL_STREAM,
    _FIT_BLOCK,
    REPORT_HEADER,
    _ols,
    _cell_design,
    _cell_p,
    _cell_spectrum,
    _chunk,
    _chunks,
    _control_block,
    _control_means,
    _control_rows,
    _endpoint_drop_gate,
    _window_gate,
    _expansion_controls,
    _fold,
    _lin_block,
    _outcomes,
    _rank,
    _stein_qforms,
    _stream,
    _tail_block,
    _tail_context,
    _theta_block,
    _wvec_block,
    ExperimentPlan,
    config_hash,
    cov_sqrt,
    gaussian_expectation,
    mean_with_stderr,
    median_with_stderr,
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
from vcomp.laws import SeedSpec, law_by_name
from vcomp.model import CouplingSpec, ModelParams, gen_independent
from vcomp.qform import build_w, sigma_k_sq
from vcomp.spectrum import GramSpectrum, _openblas, decompose_gram


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

    @pytest.mark.parametrize("r_grid", [(0.3, 0.3), (0.4, 0.3), (-1.0, 0.3), (0.0,), (math.inf,), (math.nan,)])
    def test_r_grid_positive_finite_increasing(self, r_grid):
        # a duplicate r wrote duplicate cells and gates; r <= 0 reported p_hat = 1
        with pytest.raises(ValueError, match="r_grid"):
            small_plan(kind="tail_envelope", r_grid=r_grid)

    @pytest.mark.parametrize("kw, message", [
        (dict(sigma0_sq=-1.0), "sigma_sq (params.sigma2) must be finite and positive, got -1.0"),
        (dict(sigma0_sq=0.0), "sigma_sq (params.sigma2) must be finite and positive, got 0.0"),
        (dict(sigma0_sq=math.inf), "sigma_sq (params.sigma2) must be finite and positive, got inf"),
        (dict(eta0_sq=-2.0), "eta_sq (params.eta2) must be finite and nonnegative, got -2.0"),
        (dict(eta0_sq=math.nan), "eta_sq (params.eta2) must be finite and nonnegative, got nan"),
        (dict(kind="normality", eta0_sq=0.0), "eta0_sq (params.eta2) must be positive in a normality plan, got 0.0"),
    ], ids=["sigma-negative", "sigma-zero", "sigma-inf", "eta-negative", "eta-nan", "normality-eta-zero"])
    def test_model_parameters_are_checked_with_the_plan(self, kw, message):
        # each once failed only in a runner, ModelParams or the normality score
        # covariance after the first cell's design and eigensolve
        with pytest.raises(ValueError, match=re.escape(message)):
            small_plan(**kw)

    @pytest.mark.parametrize("kind", ["consistency", "coupling", "tail_envelope", "stein_discrepancy"])
    def test_zero_eta_stays_valid_outside_normality(self, kind):
        small_plan(kind=kind, eta0_sq=0.0, delta_grid=(0.0,), r_grid=(0.3,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            small_plan(kind="bootstrap")

    @pytest.mark.parametrize("scheme", ["none", "swap"])
    def test_unknown_coupling_scheme(self, scheme):
        # checked with the plan, not after the first cell's design and eigensolve
        with pytest.raises(ValueError, match=f"unknown coupling scheme '{scheme}'"):
            small_plan(kind="coupling", coupling_scheme=scheme, delta_grid=(0.0,))

    @pytest.mark.parametrize("kw", [
        dict(kind="stein_discrepancy", k_forms=2, test_scales=(3.0, 0.5)),
        dict(kind="stein_discrepancy", test_scales=(3.0, 0.5, 1.0)),
        dict(kind="normality", test_scales=(3.0, 3.0, 1.0)),
        dict(kind="normality", test_fn="tanh_sum", test_scales=(3.0, 0.5)),
        dict(kind="stein_discrepancy", test_fn="constant", test_scales=(1.0, 2.0)),
    ], ids=["stein-k2-two-scales", "stein-k1-three-scales", "normality-three-scales", "tanh_sum-two-scales",
            "constant-two-values"])
    def test_scales_the_test_function_would_not_use_are_rejected(self, kw):
        # a Stein plan's scales were once replaced by the first one repeated,
        # and a normality tanh_product failed after the first cell's fits
        with pytest.raises(ValueError, match=re.escape(f"test_scales: {kw.get('test_fn', 'tanh_product')} takes")):
            small_plan(**kw)

    @pytest.mark.parametrize("kw", [
        dict(kind="stein_discrepancy", k_forms=2),
        dict(kind="stein_discrepancy", k_forms=2, test_scales=(3.0,)),
        dict(kind="stein_discrepancy", k_forms=2, test_scales=(3.0, 0.5, 1.0, 2.0)),
        dict(kind="stein_discrepancy", test_scales=(3.0, 0.5)),
        dict(kind="normality", test_scales=(3.0, 3.0, 3.0)),
        dict(kind="normality", test_fn="tanh_sum", test_scales=(1.0, 1.0)),
        dict(kind="stein_discrepancy", test_fn="constant", test_scales=()),
        dict(kind="consistency", test_scales=(3.0, 0.5, 1.0)),
    ], ids=["stein-k2-default", "stein-k2-one-scale", "stein-k2-four-scales", "stein-k1-two-scales",
            "normality-repeated", "tanh_sum-repeated", "constant-default", "consistency-unread"])
    def test_scales_used_as_given_stay_valid(self, kw):
        small_plan(**kw)

    def test_repeated_scale_applies_at_any_width(self):
        x = np.random.default_rng(3).standard_normal((5, 4))
        want = tanh_product((3.0, 3.0, 3.0, 3.0)).evaluator(x)
        assert np.array_equal(tanh_product((3.0, 3.0)).evaluator(x), want)
        assert np.array_equal(tanh_product((3.0,)).evaluator(x), want)

    @pytest.mark.parametrize("delta_grid", [(0.5, 2.0), (0.0, 0.5)])
    def test_sparse_zero_rejects_a_nonzero_delta(self, delta_grid):
        # sparse_zero runs delta = 0 alone: (0.5, 2.0) wrote the cells and gates of (0.0,)
        with pytest.raises(ValueError, match=re.escape("delta_grid: the sparse_zero scheme runs delta = 0 only")):
            small_plan(kind="coupling", coupling_scheme="sparse_zero", delta_grid=delta_grid)
        small_plan(kind="coupling", delta_grid=delta_grid)

    @pytest.mark.parametrize("delta_grid", [(), (0.0,)])
    def test_sparse_zero_takes_no_delta_or_zero(self, delta_grid):
        small_plan(kind="coupling", coupling_scheme="sparse_zero", delta_grid=delta_grid)

    @pytest.mark.parametrize("delta_grid", [(0.5, 0.5), (1.0, 0.5), (0.5, -1.0), (-1.0,), (math.inf,), (math.nan,)])
    @pytest.mark.parametrize("kind", ["coupling", "consistency"])
    def test_delta_grid_nonnegative_finite_increasing(self, kind, delta_grid):
        # a repeated delta wrote duplicate cells, a decreasing grid made the
        # monotonicity gates read the cells backwards, and a negative delta
        # failed only after the first cell's design and eigensolve
        with pytest.raises(ValueError, match=re.escape("delta_grid must be nonnegative, finite and strictly increasing")):
            small_plan(kind=kind, delta_grid=delta_grid)

    def test_additive_perturb_needs_a_delta(self):
        # an empty grid was accepted with the plan and failed only in run_coupling
        with pytest.raises(ValueError, match=re.escape("delta_grid: the additive_perturb scheme needs at least one delta")):
            small_plan(kind="coupling", delta_grid=())
        small_plan(kind="consistency", delta_grid=())

    def test_replicates_stay_below_the_reserved_streams(self):
        # replicate r draws from stream c << 32 | r; the top three ids are the cell's own
        small_plan(replicates=_CTRL_STREAM)
        with pytest.raises(ValueError, match=f"replicates must be at most {_CTRL_STREAM}"):
            small_plan(replicates=_CTRL_STREAM + 1)

    @pytest.mark.parametrize("p_ratio, message", [
        (math.inf, "positive and finite"), (math.nan, "positive and finite"), (0.0, "positive and finite"),
        (1e300, "beyond int64 at n = 80"), (2.0**63 / 80, "beyond int64 at n = 80"),
    ], ids=["inf", "nan", "zero", "1e300", "p-is-2^63"])
    def test_p_ratio_finite_and_p_fits_int64(self, p_ratio, message):
        # inf once ended in an OverflowError, 1e300 in a TypeError, inside the first cell
        with pytest.raises(ValueError, match=f"p_ratio.*{message}"):
            small_plan(p_ratio=p_ratio)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_at_least_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            small_plan(workers=workers)

    @pytest.mark.parametrize("design, p_ratio, lambdas, message", [
        ("circulant", 2.0, None, "unknown design kind 'circulant'"),
        ("fixed_spectrum", 2.0, None, "fixed_spectrum design needs eigenvalues"),
        ("fixed_spectrum", 2.0, (1.0,) * 20, "fixed_spectrum needs 40 eigenvalues, got 20"),
        ("fixed_spectrum", 0.5, (1.0,) * 20, "rank of an 20 x 10 design is at most 10"),
        ("gaussian_iid", 2.0, (1.0,) * 20, "only with a fixed_spectrum design, not 'gaussian_iid'"),
        ("identity", 2.0, (1.0,) * 20, "only with a fixed_spectrum design, not 'identity'"),
    ], ids=["unknown-kind", "missing", "wrong-length-at-n=40", "beyond-rank", "gaussian_iid", "identity"])
    def test_design_is_checked_when_the_plan_is_built(self, monkeypatch, design, p_ratio, lambdas, message):
        # every cell's design is checked before the first fit; a plan that
        # built would run its fits, and the patched fit_mle fails them
        monkeypatch.setattr(estimator, "fit_mle", lambda *a, **kw: pytest.fail("fit_mle was called"))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(small_plan(n_grid=(20, 40), p_ratio=p_ratio, design=design, design_lambdas=lambdas))

    @pytest.mark.parametrize("kw, error, message", [
        (dict(kind="coupling", coupling_scheme="sparse_zero", sparse_fraction=1.5), ValueError,
         "fraction (coupling.fraction) must lie in [0, 1], got 1.5"),
        (dict(kind="normality", beta_law="cauchy"), UnsupportedLawError, "unknown law 'cauchy'"),
        (dict(kind="coupling", eps_law="cauchy", delta_grid=(0.5,)), UnsupportedLawError, "unknown law 'cauchy'"),
        (dict(kind="tail_envelope"), ValueError, "r_grid: a tail plan needs at least one r"),
    ], ids=["sparse-fraction", "normality-law", "coupling-law", "tail-without-r"])
    def test_rejected_before_the_first_eigensolve(self, monkeypatch, kw, error, message):
        # each was raised only by a runner, after the first cell's design and eigensolve
        monkeypatch.setattr(experiments, "decompose_gram", lambda X: pytest.fail("decompose_gram was called"))
        with pytest.raises(error, match=re.escape(message)):
            run_experiment(small_plan(n_grid=(200,), **kw))

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
        fit = _ols(np.log(x), np.log(y))
        assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert fit["r2"] == pytest.approx(1.0)


class TestTestFns:
    def test_tanh_product_bounds(self):
        fn = tanh_product((3.0, 3.0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 2)) * 10
        vals = fn.evaluator(x)
        assert np.all(np.abs(vals) <= fn.norm_bounds[0])

    @pytest.mark.parametrize("factory, scales", [
        (tanh_product, (math.nan, 3.0)), (tanh_product, (math.inf,)), (tanh_product, (3.0, 0.0)),
        (tanh_sum, (math.nan,)), (tanh_sum, (math.inf,)), (tanh_sum, (-1.0,)),
    ], ids=["product-nan", "product-inf", "product-zero", "sum-nan", "sum-inf", "sum-negative"])
    def test_scales_must_be_positive_and_finite(self, factory, scales):
        # a NaN scale gave NaN estimates, an infinite one a discrepancy of exactly 0
        with pytest.raises(ValueError, match="positive and finite"):
            factory(scales)

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


def test_chi2_literal_matches_scipy():
    from scipy import stats

    assert _CHI2_2_95 == float(stats.chi2.ppf(0.95, 2))


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

    @pytest.mark.parametrize(
        "plan",
        [
            ExperimentPlan(kind="normality", n_grid=(100, 800), replicates=2000, p_ratio=0.75, master_seed=1),
            ExperimentPlan(kind="normality", n_grid=(100, 800), replicates=200, p_ratio=0.75, test_fn="tanh_sum",
                           test_scales=(1.0,), master_seed=1),
            ExperimentPlan(kind="normality", n_grid=(30, 60), replicates=100, p_ratio=0.5, master_seed=4),
            ExperimentPlan(kind="stein_discrepancy", n_grid=(16, 32), replicates=150, master_seed=4),
            None,
        ],
        ids=["criterion6", "normality_cv", "criterion10-normality", "criterion10-stein", "zero"],
    )
    def test_quadrature_matches_adaptive_oracle(self, plan):
        from scipy import integrate

        # the surrogate covariance of each cell, as run_normality and run_stein form it
        if plan is None:
            fn, covs = tanh_product((3.0, 3.0)), [np.zeros((2, 2))]
        elif plan.kind == "normality":
            fn, covs = resolve_test_fn(plan.test_fn, plan.test_scales), []
            for ci, n in enumerate(plan.n_grid):
                X = _cell_design(plan, ci, n)
                covs.append(asymptotic_cov(plan.params(), decompose_gram(X), X, plan.laws()))
        else:
            law = law_by_name(plan.beta_law)
            fn = resolve_test_fn(plan.test_fn, plan.test_scales)
            covs = [build_w(_stein_qforms(plan, ci, d), law).v_cov for ci, d in enumerate(plan.n_grid)]
        for V in covs:
            root = cov_sqrt(V)

            def integrand(y, x):
                return float(fn.evaluator(root @ np.array([x, y]))) * math.exp(-0.5 * (x * x + y * y)) / (2 * math.pi)

            oracle, _ = integrate.dblquad(integrand, -8.5, 8.5, -8.5, 8.5, epsabs=1e-10)
            val, err = gaussian_expectation(fn, V, SeedSpec(0))
            assert abs(val - oracle) <= 1e-9
            assert err >= abs(val - oracle)

    def test_mc_path_for_higher_dims(self):
        fn = tanh_product((3.0, 3.0, 3.0, 3.0))
        val, err = gaussian_expectation(fn, np.eye(4), SeedSpec(3), draws=100_000)
        assert abs(val) < 5 * err + 1e-3


def _rows(plan, cell_index, ctx, lo, hi):
    """A ``_chunk`` block function (module level, so picklable): its row ids."""
    return np.arange(lo, hi)


def _blas_threads(plan, cell_index, ctx, lo, hi):
    """A ``_chunk`` block function: the OpenBLAS thread count of the process that runs it."""
    return np.full(hi - lo, _openblas().scipy_openblas_get_num_threads64_())


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

    @pytest.mark.parametrize("total", [1, 63, 64, 65, 130, 1000])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_chunks_are_whole_fit_blocks(self, total, workers):
        chunks = _chunks(total, workers)
        assert len(chunks) <= workers
        assert chunks[0][0] == 0 and chunks[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert all(lo % _FIT_BLOCK == 0 for lo, _ in chunks)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of every pool started, in order."""
        sizes = []

        class RecordingPool(experiments.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kw):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kw)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(matio, "_cpu_count", lambda: 4)  # the sizes hold on a runner of any width
        return sizes

    def test_pool_has_at_most_one_process_per_cpu(self, monkeypatch):
        # --workers had no upper bound: a normality plan with workers 64 asked
        # for a pool of one process per task, 53 on a 2-CPU machine; the
        # stand-in pool runs the tasks in this process and starts none
        sizes = []

        class StandInPool:
            def __init__(self, max_workers, initargs, **kw):
                sizes.append(max_workers)
                (self.tasks,) = initargs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, indices, chunksize=1):
                return [experiments._chunk(self.tasks[i]) for i in indices]

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", StandInPool)
        monkeypatch.setattr(matio, "_cpu_count", lambda: 2)
        plan = small_plan(kind="normality", control_draws=20_000, workers=64)
        report = run_normality(plan)
        assert sizes == [2, 2]
        assert report.to_json() == run_normality(with_workers(plan, 1)).to_json()

    def test_pool_has_at_most_one_process_per_job(self, pool_sizes):
        # a forked pool starts all max_workers processes at its first submit
        tasks = [(_rows, 1, None, 0, None, lo, lo + 1) for lo in range(3)]
        assert [t.tolist() for t in experiments._scatter(tasks[:2], 3)] == [[0], [1]]
        assert [t.tolist() for t in experiments._scatter(tasks, 2)] == [[0], [1], [2]]
        assert pool_sizes == [2, 2]

    def test_pool_receives_task_indices_only(self, monkeypatch):
        # each task once went through the pool's queue with its context: an
        # n = 800 cell's design and eigenvectors, a non-Gaussian cell's n x (n+p)
        # control map; the workers now inherit the tasks
        sizes = []

        class SpyPool(experiments.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kw):
                items = list(zip(*iterables))
                sizes.extend(len(pickle.dumps((fn, *item))) for item in items)
                return super().map(fn, *zip(*items), **kw)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SpyPool)
        # Rademacher laws: the control tasks get the map C; 1500 draws, 3 control blocks
        plan = small_plan(kind="normality", beta_law="rademacher", eps_law="rademacher", control_draws=1500,
                          workers=2)
        report = run_normality(plan)
        assert len(sizes) == 2 * 4 and max(sizes) < 1024
        assert report.to_json() == run_normality(with_workers(plan, 1)).to_json()

    @pytest.mark.skipif(_openblas() is None or not hasattr(os, "fork"),
                        reason="needs numpy's bundled OpenBLAS and fork")
    def test_pool_workers_fork_under_any_default_start_method(self, monkeypatch):
        # a spawned worker reads OPENBLAS_NUM_THREADS afresh instead of
        # inheriting the one-thread pin, and reports then depend on --workers
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            with spectrum.one_blas_thread():
                threads = experiments._scatter([(_blas_threads, 1, None, 0, None, lo, lo + 1) for lo in range(2)], 2)
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert [t.tolist() for t in threads] == [[1], [1]]

    @pytest.mark.parametrize("case", ["no-fork", "second-thread"])
    def test_one_process_where_fork_is_missing_or_unsafe(self, monkeypatch, case):
        # without fork a spawned pool's workers did not inherit the BLAS pin,
        # and fork copies only the calling thread: a lock another thread holds
        # stays held in the child
        plan = small_plan(workers=2)
        want = run_consistency(with_workers(plan, 1)).to_json()
        built = []

        class SpyPool(experiments.ProcessPoolExecutor):
            def __init__(self, *args, **kw):
                built.append(kw)  # and start no process
                raise RuntimeError("a pool was built")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SpyPool)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        if case == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            waiter.start()
        try:
            got = run_consistency(plan).to_json()
        finally:
            release.set()
            if waiter.is_alive():
                waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert built == [] and got == want

    def test_coupling_starts_one_pool_per_cell(self, pool_sizes):
        # the independent fits and every delta's coupled fits share one scatter
        plan = small_plan(kind="coupling", n_grid=(30, 60), delta_grid=(0.0, 0.5), workers=2)
        report = run_coupling(plan)
        assert pool_sizes == [2, 2]
        assert report.to_json() == run_coupling(with_workers(plan, 1)).to_json()

    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["consistency", "coupling", "normality"]),
        replicates=st.integers(100, 200),
        seed=st.integers(0, 2**31),
    )
    def test_generated_plans_worker_invariant(self, kind, replicates, seed):
        # replicate counts from 100 to 200 put fit-block boundaries inside chunks
        plan = small_plan(
            kind=kind, n_grid=(12, 24), replicates=replicates, p_ratio=0.5, master_seed=seed,
            delta_grid=(0.0, 0.5), surrogate_draws=2_000, control_draws=2_000,
        )
        reports = [run_experiment(with_workers(plan, w)).to_json() for w in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]

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

    def test_cells_count_cap_hits_and_nonconverged_fits(self):
        # n = 30 with eta0^2 = 20 puts a share of the profile maxima at the cap
        rep = run_consistency(small_plan(n_grid=(30,), eta0_sq=20.0))
        cell = rep.cells[0]
        assert type(cell["cap_hits"]) is int and type(cell["nonconverged"]) is int
        assert cell["cap_hits"] > 0 and cell["nonconverged"] == 0

    @pytest.mark.parametrize("extra, want", [
        ({"kind": "consistency"}, [136, 147]),
        ({"kind": "normality", "p_ratio": 0.5, "control_draws": 2_000, "surrogate_draws": 2_000}, [148, 150]),
    ], ids=["theta_block", "lin_block"])
    def test_nonconverged_fits_are_counted_at_any_worker_count(self, monkeypatch, extra, want):
        # one Newton step leaves most fits unconverged; forked workers inherit the patch
        monkeypatch.setattr(estimator, "NEWTON_MAX", 1)
        plan = small_plan(n_grid=(40, 80), replicates=150, master_seed=3, **extra)
        serial = run_experiment(plan)
        assert [c["nonconverged"] for c in serial.cells] == want
        assert serial.to_json() == run_experiment(with_workers(plan, 2)).to_json()

    def test_mean_error_leaves_out_capped_fits(self):
        rep = run_consistency(small_plan(n_grid=(30,), eta0_sq=20.0))
        cell = rep.cells[0]
        assert "mean_error" not in cell and cell["cap_hits"] > 0
        # a capped fit's error is about 1e6; the uncapped ones stay near eta0^2
        assert 0.0 < cell["mean_error_uncapped"] < 1e3

    def test_rotated_blocks_match_single_replicates(self):
        plan = small_plan(n_grid=(20,), replicates=100, beta_law="rademacher")
        X = _cell_design(plan, 0, 20)
        spec = decompose_gram(X)
        blocks = []

        def record(plan, cell_index, ctx, lo, hi):
            blocks.append(_outcomes(plan, cell_index, *ctx, lo, hi))
            return blocks[-1]

        y_check = _chunk((record, _FIT_BLOCK, plan, 0, (X, spec), 10, 90))
        assert [len(b) for b in blocks] == [64, 16]
        params, (beta_law, eps_law) = plan.params(), plan.laws()
        for row, r in zip(y_check, range(10, 90)):
            ds = gen_independent(X, params, beta_law, eps_law, SeedSpec(plan.master_seed, _stream(0, r)))
            np.testing.assert_allclose(row, spec.U.T @ ds.y, rtol=0, atol=1e-12 * np.abs(ds.y).max())

    def test_constant_spectrum_aborts(self):
        with pytest.raises(NonIdentifiableError):
            run_consistency(small_plan(design="identity", n_grid=(16, 32)))

    def test_stderr_shrinks_with_replicates(self):
        lo = run_consistency(small_plan(n_grid=(40,), replicates=100))
        hi = run_consistency(small_plan(n_grid=(40,), replicates=400))
        ratio = hi.cells[0]["stderr"] / lo.cells[0]["stderr"]
        assert 0.3 < ratio < 0.9


class TestEigenbasisRoute:
    REPS = 4000

    @pytest.mark.parametrize("route", ["rotated", "eigenbasis"])
    def test_outcome_moments_match_the_population(self, route):
        # E y_check_i^2 = sigma0^2 (eta0^2 lam_i + 1) and E y_check_i y_check_j = 0,
        # each checked to 5 stderrs over the replicates
        plan = small_plan(n_grid=(8,), replicates=self.REPS, sigma0_sq=1.5, eta0_sq=2.0)
        X = _cell_design(plan, 0, 8)
        spec = decompose_gram(X)
        y = _outcomes(plan, 0, X if route == "rotated" else None, spec, 0, self.REPS)
        assert y.shape == (self.REPS, 8)
        se = lambda v: np.std(v, axis=0, ddof=1) / math.sqrt(self.REPS)  # noqa: E731
        sq = y * y
        assert np.all(np.abs(sq.mean(axis=0) - _pop_sq(plan.params(), spec)) <= 5 * se(sq))
        i, j = np.triu_indices(8, k=1)
        cross = y[:, i] * y[:, j]
        assert np.all(np.abs(cross.mean(axis=0)) <= 5 * se(cross))

    @pytest.mark.parametrize("kind, laws, extra, rotates", [
        ("consistency", "gaussian", {}, False),
        ("tail_envelope", "gaussian", {"r_grid": (0.2,)}, False),
        ("tail_envelope", "rademacher", {"r_grid": (0.2,)}, True),
        ("consistency", "uniform", {}, True),
        ("normality", "gaussian", {"p_ratio": 0.5, "control_draws": 2_000, "surrogate_draws": 2_000}, True),
        ("coupling", "gaussian", {"delta_grid": (0.0, 0.5)}, True),
    ])
    def test_route_follows_the_plan(self, monkeypatch, kind, laws, extra, rotates):
        # every Gram eigensolve goes through decompose_gram's solver, on either BLAS
        solve, shapes, rotated = spectrum._eigh_in_place, [], []
        monkeypatch.setattr(spectrum, "_eigh_in_place", lambda G: shapes.append(G.shape) or solve(G))
        # _outcomes rotates a drawn design's outcomes; with X None it draws in the eigenbasis
        monkeypatch.setattr(experiments, "_outcomes",
                            lambda *args, **kw: rotated.append(args[2] is not None) or _outcomes(*args, **kw))
        run_experiment(small_plan(kind=kind, n_grid=(30, 60), beta_law=laws, eps_law=laws, **extra))
        assert set(rotated) == {rotates}
        assert shapes == ([(30, 30), (60, 60)] if rotates else [])


class TestSpectrumRoute:
    DRAWS = 2000

    @pytest.mark.parametrize("n, p_ratio", [(40, 0.5), (30, 2.0), (12, 1.0)], ids=["n>p", "n<p", "n=p"])
    def test_eigenvalue_law_matches_the_designs(self, n, p_ratio):
        # two-sample KS statistics on lambda_1, a middle and the smallest
        # positive eigenvalue, route against decompose_gram of drawn designs,
        # under the 5% critical value
        from scipy import stats

        plan = small_plan(n_grid=(n,), p_ratio=p_ratio)
        p = _cell_p(plan, n)
        m = min(n, p)
        rng = np.random.default_rng(n)
        route = np.array([_cell_spectrum(plan, c, n)[1].lambdas for c in range(self.DRAWS)])
        design = np.array([decompose_gram(rng.standard_normal((n, p))).lambdas for _ in range(self.DRAWS)])
        assert np.all(route[:, :m] > 0) and np.all(route[:, m:] == 0.0)
        critical = 1.358 * math.sqrt(2 / self.DRAWS)
        for j in (0, m // 2, m - 1):
            assert stats.ks_2samp(route[:, j], design[:, j]).statistic < critical, j

    def test_fallback_under_another_blas(self, monkeypatch):
        plan = small_plan(n_grid=(30, 60))
        dqds = [_cell_spectrum(plan, c, n)[1].lambdas for c, n in enumerate(plan.n_grid)]
        report = run_consistency(plan)
        monkeypatch.setattr(spectrum, "_openblas", lambda: None)
        dense = [_cell_spectrum(plan, c, n)[1].lambdas for c, n in enumerate(plan.n_grid)]
        for a, b in zip(dqds, dense):
            assert np.max(np.abs(a - b)) <= 1e-12 * a[0]
        fallback = run_consistency(plan)
        for a, b in zip(report.cells, fallback.cells):
            assert b["estimate"] == pytest.approx(a["estimate"], rel=1e-8)

    @pytest.mark.parametrize("fallback", [False, True], ids=["dqds", "dense"])
    @pytest.mark.parametrize("n, p_ratio, zeros", [(5, 0.2, 4), (2, 0.5, 1), (2, 1.0, 0), (2, 2.0, 0)],
                             ids=["p=1", "n=2,p=1", "n=2,p=2", "n=2,p=4"])
    def test_edge_shapes_have_exact_zeros(self, monkeypatch, fallback, n, p_ratio, zeros):
        if fallback:
            monkeypatch.setattr(spectrum, "_openblas", lambda: None)
        X, spec = _cell_spectrum(small_plan(n_grid=(n,), p_ratio=p_ratio), 0, n)
        assert X is None and spec.lambdas.shape == (n,)
        assert np.count_nonzero(spec.lambdas == 0.0) == zeros and np.all(spec.lambdas[: n - zeros] > 0)

    @pytest.mark.parametrize("kind", ["consistency", "tail_envelope"])
    def test_one_row_cells_are_rejected(self, kind):
        # as decompose_gram rejects a one-row design
        with pytest.raises(ValueError, match="need n >= 2"):
            run_experiment(small_plan(kind=kind, n_grid=(1, 4), r_grid=(0.3,)))

    @pytest.mark.parametrize("design, p_ratio, lambdas, want", [
        ("identity", 0.5, None, [1.0] * 10 + [0.0] * 10),
        ("fixed_spectrum", 1.0, tuple(range(20, 0, -1)), list(range(20, 0, -1))),
        ("fixed_spectrum", 0.5, (0.0, 3.0, 1.0) + (0.0,) * 17, [3.0, 1.0] + [0.0] * 18),
    ])
    def test_known_spectra_skip_the_design(self, monkeypatch, design, p_ratio, lambdas, want):
        plan = small_plan(n_grid=(20,), p_ratio=p_ratio, design=design, design_lambdas=lambdas)
        for name in ("gen_design", "decompose_gram"):
            monkeypatch.setattr(experiments, name, None)  # any call would raise
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        X, spec = _cell_spectrum(plan, 0, 20)
        assert X is None and spec.lambdas.tolist() == want
        run_consistency(plan)

    @pytest.mark.parametrize("lambdas, message", [((1.0,) * 19, "needs 20 eigenvalues, got 19"),
                                                  ((1.0,) * 20, "at most 10")], ids=["wrong-length", "beyond-rank"])
    def test_known_spectra_keep_the_design_checks(self, lambdas, message):
        # n = 20 needs 20 eigenvalues, of which at most p = 10 may be positive
        with pytest.raises(ValueError, match=message):
            run_consistency(small_plan(n_grid=(20,), p_ratio=0.5, design="fixed_spectrum", design_lambdas=lambdas))

    def test_flat_known_spectrum_aborts(self):
        with pytest.raises(NonIdentifiableError):
            run_consistency(small_plan(n_grid=(20,), p_ratio=1.0, design="fixed_spectrum", design_lambdas=(2.0,) * 20))


@pytest.mark.skipif(_openblas() is None, reason="numpy is not on its bundled OpenBLAS")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="on one CPU OpenBLAS starts one thread whatever it is asked for")
@pytest.mark.parametrize("plan", [
    ExperimentPlan(kind="normality", n_grid=(100, 200), replicates=128, p_ratio=0.75, control_draws=4_096,
                   master_seed=4, workers=2),
    ExperimentPlan(kind="consistency", n_grid=(200, 400), replicates=128, beta_law="rademacher",
                   eps_law="rademacher", master_seed=3, workers=2),
], ids=["normality", "rademacher-consistency"])
def test_runners_pin_one_blas_thread(plan):
    # called directly under 2 BLAS threads, a runner once wrote other bytes
    # than run_experiment, which alone held the pin
    lib = _openblas()
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        direct = experiments._RUNNERS[plan.kind](plan).to_json()
        assert lib.scipy_openblas_get_num_threads64_() == 2  # the pin restores the count
    finally:
        lib.scipy_openblas_set_num_threads64_(old)
    assert direct == run_experiment(plan).to_json()


@pytest.mark.skipif(_openblas() is None, reason="numpy is not on its bundled OpenBLAS")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="on one CPU OpenBLAS starts one thread whatever it is asked for")
def test_reports_do_not_depend_on_blas_threads():
    # at n = 200 a threaded BLAS rounds the consistency and normality reports
    # differently from a serial one unless the runner pins one thread
    child = """if True:
        import hashlib, json, sys
        from vcomp.experiments import ExperimentPlan, run_experiment
        from vcomp.spectrum import _openblas
        print(_openblas().scipy_openblas_get_num_threads64_())
        for kw in json.loads(sys.argv[1]):
            print(hashlib.sha256(run_experiment(ExperimentPlan(**kw)).to_json().encode()).hexdigest())
    """
    plans = [
        {"kind": "consistency", "n_grid": [100, 200], "replicates": 100, "master_seed": 4},
        {"kind": "tail_envelope", "n_grid": [100, 200], "replicates": 100, "r_grid": [0.2], "master_seed": 4},
        {"kind": "normality", "n_grid": [100, 200], "replicates": 100, "control_draws": 2_000,
         "surrogate_draws": 2_000, "master_seed": 4, "workers": 2},
    ]
    out = {}
    for threads in (1, 2):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop("OMP_NUM_THREADS", None)
        out[threads] = subprocess.run([sys.executable, "-c", child, json.dumps(plans)], env=env, check=True,
                                      capture_output=True, text=True, timeout=300).stdout.split()
    assert out[1][0] == "1" and out[2][0] == "2"  # the second child really threads
    assert out[1][1:] == out[2][1:]


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
            assert all("grid_error_bound" not in c for c in sub)
        assert any(g["gate"].startswith("log_tail_linear") for g in rep.gates)

    @pytest.mark.parametrize("law", ["gaussian", "rademacher"])
    def test_gates_read_the_cells(self, law):
        # three n values, so each r's log-linear gate fits its reliable cells
        plan = small_plan(kind="tail_envelope", n_grid=(30, 60, 120), replicates=300, r_grid=(0.2, 0.3),
                          beta_law=law, eps_law=law)
        rep = run_tail(plan)
        gates = {g["gate"]: g for g in rep.gates}
        for n in plan.n_grid:
            vals = [c["estimate"] for c in sorted((c for c in rep.cells if c["n"] == n), key=lambda c: c["r"])]
            mono = all(b <= a for a, b in zip(vals, vals[1:]))
            assert gates[f"nonincreasing_in_r_n={n}"]["pass"] == mono
        for r in plan.r_grid:
            reliable = [c for c in rep.cells if c["r"] == r and c["reliable"]]
            assert len(reliable) == 3
            fit = _ols(np.array([c["n"] for c in reliable], float),
                       np.array([math.log(c["estimate"]) for c in reliable]))
            gate = gates[f"log_tail_linear_r={r}"]
            assert (gate["value"], gate["stderr"], gate["r2"]) == (fit["slope"], fit["stderr"], fit["r2"])

    def test_unreliable_marking(self):
        plan = small_plan(kind="tail_envelope", n_grid=(30, 60), replicates=150,
                          r_grid=(0.2, 50.0), master_seed=5)
        rep = run_tail(plan)
        big_r = [c for c in rep.cells if c["r"] == 50.0]
        assert all(not c["reliable"] for c in big_r)

    def test_chunk_rows_match_scalar_supremum(self):
        # oracle: the eta-grid supremum of |sigma_star^2 - sigma_0^2(eta)|, one
        # scalar evaluation per grid point, on each regenerated replicate
        plan = small_plan(kind="tail_envelope", n_grid=(30,), replicates=120,
                          r_grid=(0.2,), sigma0_sq=2.5, eta0_sq=0.3,
                          beta_law="rademacher", eps_law="uniform", master_seed=7)
        X = _cell_design(plan, 0, 30)
        spec = decompose_gram(X)
        rows = _chunk((_tail_block, _FIT_BLOCK, plan, 0, _tail_context(plan, X, spec), 3, 9))
        assert rows.shape == (6,)
        params = plan.params()
        beta_law, eps_law = plan.laws()
        etas = estimator.ETA_GRID
        for row, r in zip(rows, range(3, 9)):
            ds = gen_independent(X, params, beta_law, eps_law,
                                 SeedSpec(plan.master_seed, _stream(0, r)))
            state = ScoreState.from_observations(spec, ds.y)
            sup = max(
                abs(sigma_star_sq(state, float(e)) - sigma0_sq_of(float(e), params, spec))
                for e in etas
            )
            assert row == pytest.approx(sup, rel=1e-12)

    @pytest.mark.parametrize("lo, hi", [(3, 150), (64, 193)])
    def test_chunk_rows_match_scalar_supremum_across_blocks(self, lo, hi):
        # more than one 64-row block and a partial final block, on Gaussian
        # effects with uniform noise; same oracle as above
        plan = small_plan(kind="tail_envelope", n_grid=(24,), replicates=200,
                          r_grid=(0.2,), sigma0_sq=0.8, eta0_sq=2.0,
                          eps_law="uniform", master_seed=3)
        X = _cell_design(plan, 0, 24)
        spec = decompose_gram(X)
        rows = _chunk((_tail_block, _FIT_BLOCK, plan, 0, _tail_context(plan, X, spec), lo, hi))
        assert rows.shape == (hi - lo,)
        params = plan.params()
        beta_law, eps_law = plan.laws()
        etas = estimator.ETA_GRID
        target = [sigma0_sq_of(float(e), params, spec) for e in etas]
        for row, r in zip(rows, range(lo, hi)):
            ds = gen_independent(X, params, beta_law, eps_law,
                                 SeedSpec(plan.master_seed, _stream(0, r)))
            state = ScoreState.from_observations(spec, ds.y)
            sup = max(abs(sigma_star_sq(state, float(e)) - t) for e, t in zip(etas, target))
            assert row == pytest.approx(sup, rel=1e-12)

    @pytest.mark.parametrize("n", [50, 100])
    def test_rank_deficient_supremum_matches_dense_oracle(self, n):
        # p = n / 2: the null coordinates keep weight 1 as eta^2 grows, so the
        # supremum can sit far beyond a bounded eta^2 box; the oracle is a
        # dense grid over eta^2 in [0, 1e6], linear in t = eta^2 / (1 + eta^2)
        plan = small_plan(kind="tail_envelope", n_grid=(n,), replicates=300, r_grid=(0.3,),
                          p_ratio=0.5, master_seed=7)
        X, spec = _cell_spectrum(plan, 0, n)
        assert X is None and _rank(spec) == n // 2
        rows = _chunk((_tail_block, _FIT_BLOCK, plan, 0, _tail_context(plan, X, spec), 0, plan.replicates))
        ts = np.linspace(0.0, 1e6 / (1e6 + 1.0), 20_001)
        resolvent = 1.0 / (np.multiply.outer(spec.lambdas, ts / (1.0 - ts)) + 1.0) / n
        y_sq = _outcomes(plan, 0, None, spec, 0, plan.replicates) ** 2
        dense = np.max(np.abs(y_sq @ resolvent - _pop_sq(plan.params(), spec) @ resolvent), axis=1)
        assert np.max(np.abs(rows - dense)) < 1e-2

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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sigma2", [1e308, 1e150, 1e100, 1e-100, 1e-300])
    def test_far_sigma2_is_typed_without_warnings(self, sigma2, workers):
        # 1e308 once warned in _pop_sq, then raised an OverflowError at the
        # expected Hessian's s2**3; 1e100 ended in an lstsq "SVD did not converge"
        plan = small_plan(kind="normality", sigma0_sq=sigma2, eta0_sq=10.0, control_draws=2_000,
                          surrogate_draws=2_000, workers=workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape(f"float range at params.sigma2 = {sigma2:g} ")):
                run_normality(plan)

    @pytest.mark.parametrize("sigma2", [1e-50, 1e50])
    def test_guard_keeps_the_bytes_of_a_run_in_range(self, sigma2):
        plan = small_plan(kind="normality", sigma0_sq=sigma2, eta0_sq=10.0, control_draws=2_000,
                          surrogate_draws=2_000)
        unguarded = run_normality.__wrapped__.__wrapped__  # under one_blas_thread, then the float-range guard
        with spectrum.one_blas_thread():
            want = unguarded(plan).to_json()
        assert run_normality(plan).to_json() == want


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


# (seed, rows): 40-row blocks, then control blocks one row short of, at, and
# past ``_CTRL_BLOCK``
CORE_CASES = [*((seed, 40) for seed in range(6)),
              *((rows, rows) for rows in (_CTRL_BLOCK - 1, _CTRL_BLOCK, 2 * _CTRL_BLOCK + 77))]


class TestExpansionControls:
    @pytest.mark.parametrize("seed, rows", CORE_CASES, ids=[str(seed) for seed, _ in CORE_CASES])
    def test_fused_core_matches_reference(self, seed, rows):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        lam = np.sort(rng.uniform(0.0, 4.0, n))[::-1]
        lam[-1] = 0.0
        spec = GramSpectrum(n=n, p=n, lambdas=lam, U=np.eye(n))
        params = ModelParams(float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.05, 2.5)))
        y2 = params.sigma_sq * (params.eta_sq * lam + 1.0) * rng.standard_normal((rows, n)) ** 2
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


    @pytest.mark.parametrize("seed", range(4))
    def test_folded_rows_match_unfolded_oracles(self, seed):
        # a rank-deficient spectrum as decompose_gram leaves it: exact zeros last
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(8, 60))
        rank = int(rng.integers(1, n - 1))
        lam = np.zeros(n)
        lam[:rank] = np.sort(rng.uniform(0.05, 4.0, rank))[::-1]
        spec = GramSpectrum(n=n, p=rank, lambdas=lam, U=None)
        assert _rank(spec) == rank
        params = ModelParams(float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.05, 2.5)))
        y2 = _pop_sq(params, spec) * rng.standard_normal((40, n)) ** 2
        y2[:2, :rank] = 0.0  # all mass in the null space: fallback slope, clipped step
        folded = _fold(y2, rank)
        assert folded.shape == (40, rank + 1)
        j0 = expected_hessian(params, params, spec)
        ref = np.concatenate(
            [_linear_u(y2, params, spec, j0), _profile_newton_u(y2, params, spec)], axis=-1
        )
        np.testing.assert_allclose(_expansion_controls(folded, params, spec, j0), ref, rtol=1e-10, atol=1e-10)

    def test_fold_keeps_rows_with_at_most_one_null_coordinate(self):
        y2 = np.arange(12.0).reshape(3, 4)
        assert _fold(y2, 3) is y2 and _fold(y2, 4) is y2
        np.testing.assert_array_equal(_fold(y2, 1), [[0, 6], [4, 18], [8, 30]])


def _serial_control(plan, X, spec, draws):
    """The control task written out block by block: block k drawn from the
    control stream's k-th Philox jump, then reduced in one core call; the
    oracle for ``_control_block`` and ``_control_means``."""
    fn = resolve_test_fn(plan.test_fn, plan.test_scales)
    params = plan.params()
    j0 = expected_hessian(params, params, spec)
    beta_law, eps_law = plan.laws()
    key = np.array(SeedSpec(plan.master_seed, _stream(0, _CTRL_STREAM)).key(), dtype=np.uint64)
    n, p = X.shape
    rank = int(np.count_nonzero(spec.lambdas))
    total, total_sq = np.zeros(2), np.zeros(2)
    for k, lo in enumerate(range(0, draws, _CTRL_BLOCK)):
        b = min(_CTRL_BLOCK, draws - lo)
        rng = np.random.Generator(np.random.Philox(key=key).jumped(k))
        if plan.gaussian():
            # rank + 1 squared normals, the last one of the n - rank null coordinates
            y_check_sq = rng.standard_normal((b, rank + 1)) ** 2
            y_check_sq[:, -1] += rng.chisquare(n - rank - 1, b)
            y_check_sq *= params.sigma_sq * (params.eta_sq * spec.lambdas[:rank + 1] + 1.0)
        else:
            zb = np.empty((b, n + p))
            zb[:, :p] = beta_law.sample(rng, (b, p))
            zb[:, p:] = eps_law.sample(rng, (b, n))
            full = (zb @ standardized_map(params, spec, X).T) ** 2
            y_check_sq = np.column_stack([full[:, :rank], full[:, rank:].sum(axis=1)])
        u_both = _expansion_controls(y_check_sq, params, spec, j0)
        vals = np.stack([fn.evaluator(u_both[:, :2]), fn.evaluator(u_both[:, 2:])], axis=-1)
        total += np.sum(vals, axis=0)
        total_sq += np.sum(vals * vals, axis=0)
    mean = total / draws
    return np.stack([mean, np.sqrt(np.maximum(total_sq / draws - mean * mean, 0.0) / draws)])


class TestPrefetchedControl:
    DRAWS = 2 * _CTRL_BLOCK + 300  # two whole blocks and a short one

    @staticmethod
    def cell(law, **kw):
        plan = small_plan(
            kind="normality", n_grid=(100,), p_ratio=0.75, test_fn="tanh_sum", test_scales=(1.0,),
            beta_law=law, eps_law=law, **kw,
        )
        X = _cell_design(plan, 0, 100)
        return plan, X, decompose_gram(X)

    @staticmethod
    def control_ctx(plan, X, spec):
        """The control tasks' ctx as run_normality builds it."""
        params = plan.params()
        C = None if plan.gaussian() else standardized_map(params, spec, X)
        return replace(spec, U=None), C, expected_hessian(params, params, spec)

    @pytest.mark.parametrize("law", ["gaussian", "rademacher"])
    def test_matches_serial_unsliced_loop(self, law):
        plan, X, spec = self.cell(law)
        assert _rank(spec) == 75  # p_ratio 0.75: 25 null coordinates folded
        task = (_control_block, _CTRL_BLOCK, plan, 0, self.control_ctx(plan, X, spec), 0, self.DRAWS)
        got = np.stack(_control_means(_chunk(task), self.DRAWS))
        oracle = _serial_control(plan, X, spec, self.DRAWS)
        np.testing.assert_allclose(got, oracle, rtol=1e-15, atol=0)
        # the same blocks through the same core, so the sums are bit-equal too
        assert np.array_equal(got, oracle)

    @pytest.mark.parametrize("law", ["gaussian", "rademacher"])
    def test_one_task_equals_per_block_tasks(self, law):
        # every block function: one _chunk over a range equals its per-block _chunks
        plan, X, spec = self.cell(law)
        j0 = expected_hessian(plan.params(), plan.params(), spec)
        reps = 2 * _FIT_BLOCK + 22
        coupling = CouplingSpec("additive_perturb", delta=0.5)
        cases = [
            (_control_block, _CTRL_BLOCK, self.control_ctx(plan, X, spec), self.DRAWS, (3, 4)),
            (_theta_block, _FIT_BLOCK, (X, spec, None), reps, (reps, 4)),
            (_theta_block, _FIT_BLOCK, (None, spec, None), reps, (reps, 4)),
            (_theta_block, _FIT_BLOCK, (X, spec, coupling), reps, (reps, 5)),
            (_lin_block, _FIT_BLOCK, (X, spec, j0), reps, (reps, 8)),
            (_tail_block, _FIT_BLOCK, _tail_context(plan, X, spec), reps, (reps,)),
            (_tail_block, _FIT_BLOCK, _tail_context(plan, None, spec), reps, (reps,)),
            (_wvec_block, _FIT_BLOCK, build_w(_stein_qforms(plan, 0, 12), law_by_name(law)), reps, (reps, 2)),
        ]
        for fn, block, ctx, total, shape in cases:
            whole = _chunk((fn, block, plan, 0, ctx, 0, total))
            blocks = [_chunk((fn, block, plan, 0, ctx, lo, min(lo + block, total))) for lo in range(0, total, block)]
            assert whole.shape == shape, fn.__name__
            assert np.array_equal(whole, np.concatenate(blocks)), fn.__name__

    def test_folded_gaussian_null_column_is_scaled_chi2(self):
        plan, _, spec = self.cell("gaussian", sigma0_sq=1.7)
        n, rank, s2 = spec.n, _rank(spec), 1.7
        seed = SeedSpec(plan.master_seed, _stream(0, _CTRL_STREAM))
        null = np.concatenate([_control_rows(plan, spec, None, seed, k, 4096)[:, -1] for k in range(5)])
        df, rows = n - rank, null.size
        mean, var = np.mean(null), np.var(null, ddof=1)
        # chi^2_df: variance 2 df, fourth central moment 12 df (df + 4)
        assert abs(mean - s2 * df) <= 5 * s2 * math.sqrt(2 * df / rows)
        assert abs(var - 2 * s2**2 * df) <= 5 * s2**2 * math.sqrt((12 * df * (df + 4) - 4 * df * df) / rows)

    def test_rademacher_report_worker_invariant(self):
        plan = small_plan(
            kind="normality", n_grid=(30, 60), replicates=100, p_ratio=0.5,
            beta_law="rademacher", eps_law="rademacher", surrogate_draws=20_000,
            control_draws=self.DRAWS,
        )
        assert run_normality(plan).to_json() == run_normality(with_workers(plan, 3)).to_json()

    def test_gaussian_report_worker_invariant(self):
        # five control blocks: one task, ranges of 3 + 2, or of 2 + 2 + 1
        plan = small_plan(
            kind="normality", n_grid=(30, 60), replicates=100, p_ratio=0.5,
            surrogate_draws=20_000, control_draws=4 * _CTRL_BLOCK + 300,
        )
        serial = run_normality(plan).to_json()
        assert all(run_normality(with_workers(plan, w)).to_json() == serial for w in (2, 3))

    @pytest.mark.parametrize("control_draws", [0, 5_000])
    def test_stderr_parts_add_in_quadrature(self, control_draws):
        plan = small_plan(kind="normality", n_grid=(30, 60), replicates=100, p_ratio=0.5,
                          surrogate_draws=20_000, control_draws=control_draws)
        for cell in run_normality(plan).cells:
            parts = math.hypot(cell["stderr_replicates"], cell["stderr_control"])
            assert parts == pytest.approx(cell["stderr"], rel=1e-14, abs=0)
            assert (cell["stderr_control"] > 0) == (control_draws > 0)


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


class TestWindowGate:
    @pytest.mark.parametrize("value, stderr, passed, strict", [
        (0.95, 0.01, True, True),     # inside
        (0.975, 0.0, True, True),     # on the edge
        (0.90, 0.011, True, False),   # outside, but the 2-stderr band meets the window
        (0.99, 0.005, False, False),  # outside beyond the band
        (0.90, 0.0, False, False),
    ])
    def test_band_passes_value_passes_strictly(self, value, stderr, passed, strict):
        gate = _window_gate("w", value, stderr, (0.92, 0.975), n=7)
        assert (gate["pass"], gate["pass_strict"]) == (passed, strict)
        assert gate["window"] == [0.92, 0.975] and gate["n"] == 7 and gate["value"] == value


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
        # at d = 25 and 100 the zero covariance's rounding once failed its PSD check
        for n_grid in ((16, 32), (25, 100)):
            plan = small_plan(kind="stein_discrepancy", n_grid=n_grid, replicates=150,
                              beta_law="rademacher", qspec="identity", master_seed=13)
            rep = run_stein(plan)
            assert all(c["degenerate"] for c in rep.cells)
            assert all(c["max_abs_w"] == 0.0 for c in rep.cells)
            # 2 tr(Q^2) and the kurtosis term cancel; rounding must not leave a negative variance
            assert all(s == 0.0 for c in rep.cells for s in c["sigma_k_sq"])
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

    @pytest.mark.parametrize("law", ["gaussian", "uniform", "rademacher"])
    @pytest.mark.parametrize("qspec", ["equispaced", "identity"])
    def test_sigma_k_sq_is_the_v_cov_diagonal(self, law, qspec):
        # the cells read Var(z'Q_k z) off build_w's covariance, bitwise sigma_k_sq's value
        plan = small_plan(kind="stein_discrepancy", n_grid=(16, 32), replicates=100, k_forms=2, beta_law=law,
                          qspec=qspec, master_seed=13, surrogate_draws=1_000)
        rep = run_stein(plan)
        kurt = law_by_name(law).excess_kurtosis
        for ci, (d, cell) in enumerate(zip(plan.n_grid, rep.cells)):
            assert cell["sigma_k_sq"] == [sigma_k_sq(qf, kurt) for qf in _stein_qforms(plan, ci, d)]


class TestExtremeSignalRatios:
    @pytest.mark.parametrize("eta0_sq", [1e-4, 1e4])
    @pytest.mark.parametrize("kind, extra", [
        ("consistency", {}),
        ("tail_envelope", {"r_grid": (0.3,)}),
        ("normality", {"p_ratio": 0.5, "surrogate_draws": 20_000, "control_draws": 5_000}),
        ("coupling", {"delta_grid": (0.0, 0.5)}),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_plan_runs_to_completion(self, eta0_sq, kind, extra):
        plan = small_plan(kind=kind, n_grid=(30, 60), eta0_sq=eta0_sq, master_seed=4, **extra)
        rep = run_experiment(plan)
        assert len(rep.cells) >= 2 and rep.gates
        assert all(np.isfinite(c["estimate"]) and np.isfinite(c["stderr"]) for c in rep.cells)
        assert all(c.get("nonconverged", 0) == 0 for c in rep.cells)


    @pytest.mark.parametrize("extra, message", [
        ({}, r"params\.sigma2 = 1e\+308, params\.eta2 = 10$"),
        ({"beta_law": "rademacher", "eps_law": "rademacher"}, r"params\.sigma2 = 1e\+308, params\.eta2 = 10$"),
        ({"kind": "tail_envelope", "r_grid": (0.3,)}, r"params\.sigma2 = 1e\+308, params\.eta2 = 10$"),
        ({"kind": "coupling", "sigma0_sq": 1.0, "eta0_sq": 1.0, "delta_grid": (0.0, 1e200)},
         r"params\.sigma2 = 1, params\.eta2 = 1, coupling delta = 1e\+200$"),
    ], ids=["gaussian", "rademacher", "tail", "coupling"])
    def test_overflowing_outcomes_raise_without_warnings(self, extra, message):
        # the warnings once came first, then a non-finite likelihood, a
        # sigma^2 overflow that told the user to rescale a y they never gave,
        # or, in a tail plan, no exceedances at any r
        plan = small_plan(**{"sigma0_sq": 1e308, "eta0_sq": 10.0, **extra})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match=r"^replicate outcomes overflow the float range .*" + message):
                run_experiment(plan)
        assert caught == []


class TestReportSerialization:
    @pytest.mark.parametrize("plan, path", [
        # a 2-point OLS has no slope stderr, a degenerate Stein cell no estimate
        (ExperimentPlan(kind="consistency", n_grid=(30, 60), replicates=100, master_seed=4),
         lambda r: next(g for g in r["gates"] if g["gate"] == "slope_window")["stderr"]),
        (ExperimentPlan(kind="stein_discrepancy", n_grid=(16, 32), replicates=200, beta_law="rademacher",
                        qspec="identity", master_seed=31),
         lambda r: r["cells"][0]["estimate"]),
    ], ids=["two-cell-consistency", "degenerate-stein"])
    def test_report_json_is_strict(self, plan, path):
        # json wrote Infinity and NaN, which JSON parsers such as JSON.parse reject
        def reject(name):
            raise ValueError(f"report.json holds {name}")

        report = json.loads(run_experiment(plan).to_json(), parse_constant=reject)
        assert path(report) is None

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
