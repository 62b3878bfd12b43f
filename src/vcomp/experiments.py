"""Monte Carlo experiments that verify the estimator's finite-sample behaviour:
consistency rate, uniform deviation tails, normal approximation of the
estimator and of quadratic-form vectors, and robustness to coupled effects.

Absolute constants in the underlying finite-sample bounds are unknown, so every
experiment tests shapes (monotonicity, log-linearity, slope windows) rather
than bound values; each report header restates this.

Determinism contract: replicate r of cell c draws from the Philox stream
(master_seed, c << 32 | r); replicates are stacked and processed in fixed
blocks of 64 and each worker chunk is a union of whole blocks, so no
arithmetic depends on the worker count; reductions are order-independent.  Reports are therefore byte-identical
across reruns and across any worker count (wall-clock time is deliberately
kept out of the serialized report).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import estimator as est
from .errors import NonIdentifiableError, TailGridError
from .laws import SeedSpec, law_by_name, rng_for, sample_rows, shared_rng
from .model import CouplingSpec, DesignSpec, ModelParams, draw_effects, gen_design, haar_orthogonal
from .qform import QuadraticForm, build_w, napprox_rate, sigma_k_sq
from .spectrum import decompose_gram, eigvar

REPORT_HEADER = (
    "Absolute constants in the underlying finite-sample bounds are unknown; "
    "gates test shapes (monotonicity, log-linearity, slope windows), not bound values."
)

KINDS = ("consistency", "tail_envelope", "normality", "coupling", "stein_discrepancy")

_X_STREAM = (1 << 32) - 1
_AUX_STREAM = (1 << 32) - 2
_CTRL_STREAM = (1 << 32) - 3
# replicates drawn and fitted together; chunks are unions of whole blocks, so
# no block boundary depends on the worker count
_FIT_BLOCK = 64
# control-variate draws: rows per block drawn from the control stream, and
# rows per slice of a block that the expansion core reduces at once
_CTRL_BLOCK = 4096
_CTRL_SLICE = 512
_WILSON_Z = 1.959963984540054  # two-sided 95%
_CHI2_2_95 = 5.991464547107979  # scipy.stats.chi2.ppf(0.95, 2)


# ---------------------------------------------------------------------------
# Plans, test functions, reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothTestFn:
    """A smooth bounded test function with documented derivative-norm bounds."""

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    norm_bounds: tuple[float, float, float, float]  # |f|_0 .. |f|_3


def tanh_product(scales: tuple[float, ...]) -> SmoothTestFn:
    """f(x) = prod_j tanh(x_j / a_j); bounded with |f|_j <= 2 / min(a)^j."""
    a = np.asarray(scales, dtype=np.float64)
    if np.any(a <= 0):
        raise ValueError("tanh_product scales must be positive")
    amin = float(np.min(a))

    def evaluator(x: np.ndarray) -> np.ndarray:
        return np.prod(np.tanh(np.asarray(x, dtype=np.float64) / a), axis=-1)

    bounds = (1.0, 1.0 / amin, 1.0 / amin**2, 2.0 / amin**3)
    return SmoothTestFn(name=f"tanh_product{tuple(float(s) for s in scales)}", evaluator=evaluator, norm_bounds=bounds)


def tanh_sum(scales: tuple[float, ...]) -> SmoothTestFn:
    """f(x) = tanh(sum_j x_j / a); unlike the product of odd factors it keeps a
    third-order response, so skewness differences register.  |f|_j <= 2 / a^j."""
    if not scales:
        raise ValueError("tanh_sum needs a scale")
    a = float(scales[0])
    if a <= 0:
        raise ValueError("tanh_sum scale must be positive")

    def evaluator(x: np.ndarray) -> np.ndarray:
        return np.tanh(np.sum(np.asarray(x, dtype=np.float64), axis=-1) / a)

    return SmoothTestFn(
        name=f"tanh_sum({a})",
        evaluator=evaluator,
        norm_bounds=(1.0, 1.0 / a, 1.0 / a**2, 2.0 / a**3),
    )


def constant_fn(value: float = 1.0) -> SmoothTestFn:
    return SmoothTestFn(name=f"constant({value})", evaluator=lambda x: np.full(np.asarray(x).shape[:-1], value), norm_bounds=(abs(value), 0.0, 0.0, 0.0))


_TEST_FNS = {"tanh_product": tanh_product, "tanh_sum": tanh_sum}


def resolve_test_fn(name: str, scales: tuple[float, ...]) -> SmoothTestFn:
    if name == "constant":
        return constant_fn(scales[0] if scales else 1.0)
    try:
        factory = _TEST_FNS[name]
    except KeyError:
        raise ValueError(f"unknown test function {name!r}") from None
    return factory(scales)


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything a run needs; a pure value, safe to hash and to ship to workers."""

    kind: str
    n_grid: tuple[int, ...]
    replicates: int
    sigma0_sq: float = 1.0
    eta0_sq: float = 1.0
    beta_law: str = "gaussian"
    eps_law: str = "gaussian"
    design: str = "gaussian_iid"
    p_ratio: float = 2.0
    design_lambdas: tuple[float, ...] | None = None
    master_seed: int = 0
    workers: int = 1
    # tail experiment
    r_grid: tuple[float, ...] = ()
    eta_box: float = 8.0
    eta_grid_points: int = 129
    # normality / stein test function
    test_fn: str = "tanh_product"
    test_scales: tuple[float, ...] = (3.0, 3.0)
    # coupling
    coupling_scheme: str = "additive_perturb"
    delta_grid: tuple[float, ...] = ()
    delta_scale: str = "absolute"  # or "inverse_n"
    sparse_fraction: float = 0.5
    # stein
    k_forms: int = 1
    qspec: str = "equispaced"  # or "identity"
    surrogate_draws: int = 1_000_000
    # normality control variate: auxiliary draws pinning E f of the score
    # linearization (0 disables it)
    control_draws: int = 200_000

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.replicates < 100:
            raise ValueError("need at least 100 replicates for reported stderrs")
        if not self.n_grid or any(
            b <= a for a, b in zip(self.n_grid, self.n_grid[1:])
        ):
            raise ValueError("n_grid must be nonempty and strictly increasing")
        if self.delta_scale not in ("absolute", "inverse_n"):
            raise ValueError(f"unknown delta_scale {self.delta_scale!r}")
        if self.qspec not in ("equispaced", "identity"):
            raise ValueError(f"unknown qspec {self.qspec!r}")
        if self.eta_box < 0:
            raise ValueError(f"eta_box must be nonnegative, got {self.eta_box}")
        if self.eta_grid_points < 1:
            raise ValueError(f"eta_grid_points must be at least 1, got {self.eta_grid_points}")
        if self.kind == "stein_discrepancy" and self.k_forms not in (1, 2):
            raise ValueError("stein experiment supports K in {1, 2}")

    def params(self) -> ModelParams:
        return ModelParams(sigma_sq=self.sigma0_sq, eta_sq=self.eta0_sq)

    def laws(self):
        return law_by_name(self.beta_law), law_by_name(self.eps_law)


def plan_to_dict(plan: ExperimentPlan) -> dict:
    d = asdict(plan)
    d["design_lambdas"] = None if plan.design_lambdas is None else list(plan.design_lambdas)
    for key in ("n_grid", "r_grid", "test_scales", "delta_grid"):
        d[key] = list(d[key])
    return d


def config_hash(plan: ExperimentPlan) -> str:
    """Hash of the plan excluding worker count (reports are worker-invariant)."""
    d = plan_to_dict(plan)
    d.pop("workers")
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ExperimentReport:
    kind: str
    header: str
    provenance: dict
    cells: list[dict]
    gates: list[dict]
    runtime_seconds: float | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        # runtime is intentionally excluded: serialized reports must be
        # byte-identical across reruns
        return {
            "kind": self.kind,
            "header": self.header,
            "provenance": self.provenance,
            "cells": self.cells,
            "gates": self.gates,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def cells_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "cell", "estimate", "stderr", "gate", "pass"])
        for cell in self.cells:
            fields = [cell.get(k, "") for k in ("n", "cell", "estimate", "stderr")]
            writer.writerow(fields + ["", ""])
        for gate in self.gates:
            fields = [gate.get(k, "") for k in ("n", "cell", "value", "stderr")]
            writer.writerow(fields + [gate["gate"], gate["pass"]])
        return buf.getvalue()

    def write(self, outdir: str | Path) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(self.to_json(), encoding="utf-8")
        (outdir / "cells.csv").write_text(self.cells_csv(), encoding="utf-8")


def _report(plan: ExperimentPlan, cells: list, gates: list, t0: float) -> ExperimentReport:
    return ExperimentReport(
        kind=plan.kind, header=REPORT_HEADER, provenance=_provenance(plan),
        cells=cells, gates=gates, runtime_seconds=time.perf_counter() - t0,
    )


def _provenance(plan: ExperimentPlan) -> dict:
    # workers is omitted: serialized reports are byte-identical at any count
    d = plan_to_dict(plan)
    d.pop("workers")
    return {
        "master_seed": plan.master_seed,
        "config_hash": config_hash(plan),
        "plan": d,
    }


# ---------------------------------------------------------------------------
# Small statistics helpers
# ---------------------------------------------------------------------------


def median_with_stderr(x: np.ndarray) -> tuple[float, float]:
    """Sample median and an order-statistic standard error (binomial band)."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = x.size
    med = float(np.median(x))
    half = 0.5 * math.sqrt(n)
    lo = int(max(0, math.floor(0.5 * (n - 1) - half)))
    hi = int(min(n - 1, math.ceil(0.5 * (n - 1) + half)))
    return med, float(0.5 * (x[hi] - x[lo]))


def mean_with_stderr(x: np.ndarray) -> tuple[float, float]:
    x = np.asarray(x, dtype=np.float64)
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))


def wilson_interval(k: int, n: int, z: float = _WILSON_Z) -> tuple[float, float]:
    denom = n + z * z
    center = (k + z * z / 2.0) / denom
    half = z * math.sqrt(k * (n - k) / n + z * z / 4.0) / denom
    return center - half, center + half


def ols_loglog(x: np.ndarray, y: np.ndarray) -> dict:
    """OLS of log(y) on log(x): slope, its stderr, and R^2."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    return _ols(lx, ly)


def _ols(x: np.ndarray, y: np.ndarray) -> dict:
    n = x.size
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    se = math.sqrt(ss_res / max(n - 2, 1) / sxx) if n > 2 else float("inf")
    return {"slope": slope, "intercept": intercept, "stderr": se, "r2": r2}


# ---------------------------------------------------------------------------
# Gaussian surrogate expectations
# ---------------------------------------------------------------------------


def cov_sqrt(V: np.ndarray) -> np.ndarray:
    w, Q = np.linalg.eigh(0.5 * (V + V.T))
    w = np.maximum(w, 0.0)
    return (Q * np.sqrt(w)) @ Q.T


def gaussian_expectation(
    fn: SmoothTestFn,
    V: np.ndarray,
    seed: SeedSpec,
    draws: int = 1_000_000,
    epsabs: float = 1e-6,
) -> tuple[float, float]:
    """E f(V^{1/2} z) for standard normal z: adaptive 2-d quadrature when the
    target is 2-dimensional, antithetic Monte Carlo otherwise.

    Returns (value, error estimate); the Monte Carlo error is a stderr.
    """
    root = cov_sqrt(V)
    dim = root.shape[0]
    if dim == 2:
        from scipy import integrate  # imported here: scipy is slow to import

        def integrand(y: float, x: float) -> float:
            z = np.array([x, y])
            val = float(fn.evaluator(root @ z))
            return val * math.exp(-0.5 * (x * x + y * y)) / (2.0 * math.pi)

        val, err = integrate.dblquad(integrand, -8.5, 8.5, -8.5, 8.5, epsabs=epsabs)
        return float(val), float(err)

    z = shared_rng(seed).standard_normal((draws, dim))
    vals = 0.5 * (fn.evaluator(z @ root.T) + fn.evaluator(-(z @ root.T)))
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(draws))


# ---------------------------------------------------------------------------
# Shared cell plumbing
# ---------------------------------------------------------------------------


def _stream(cell_index: int, r: int) -> int:
    return (cell_index << 32) | r


def _cell_p(plan: ExperimentPlan, n: int) -> int:
    return max(1, int(round(plan.p_ratio * n)))


def _cell_design(plan: ExperimentPlan, cell_index: int, n: int) -> np.ndarray:
    lambdas = plan.design_lambdas
    design = DesignSpec(kind=plan.design, lambdas=lambdas)
    if plan.design == "fixed_spectrum" and (lambdas is None or len(lambdas) != n):
        raise ValueError("fixed_spectrum design requires len(design_lambdas) == n")
    seed = SeedSpec(plan.master_seed, _stream(cell_index, _X_STREAM))
    return gen_design(n, _cell_p(plan, n), design, seed)


def _chunks(total: int, workers: int) -> list[tuple[int, int]]:
    """At most ``workers`` ranges [lo, hi), each a union of whole fit blocks."""
    blocks = -(-total // _FIT_BLOCK)
    size = -(-blocks // max(1, min(workers, blocks))) * _FIT_BLOCK
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _scatter(fn, tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _call(job):
    """Run one ``(fn, task)`` job; lets one ``_scatter`` mix task kinds."""
    fn, task = job
    return fn(task)


def _chunk_tasks(plan: ExperimentPlan, cell_args: tuple, total: int) -> list:
    return [(plan, *cell_args, lo, hi) for lo, hi in _chunks(total, plan.workers)]


def _gather_chunks(fn, plan: ExperimentPlan, cell_args: tuple, total: int) -> np.ndarray:
    parts = _scatter(fn, _chunk_tasks(plan, cell_args, total), plan.workers)
    return np.concatenate(parts, axis=0)


def _block_seeds(plan: ExperimentPlan, cell_index: int, lo: int, hi: int):
    """The replicate seeds of each fit block of replicates [lo, hi)."""
    for b in range(lo, hi, _FIT_BLOCK):
        yield [SeedSpec(plan.master_seed, _stream(cell_index, r)) for r in range(b, min(b + _FIT_BLOCK, hi))]


def _rotated_blocks(plan: ExperimentPlan, cell_index: int, X, spec, lo: int, hi: int,
                    coupling: CouplingSpec | None = None):
    """Per fit block of replicates [lo, hi): the stacked effects, noise and
    effects in y, each row drawn from its own replicate stream, and the
    rotated outcomes y_check = (B X' + E) U, (block, n)."""
    params = plan.params()
    beta_law, eps_law = plan.laws()
    for seeds in _block_seeds(plan, cell_index, lo, hi):
        beta, eps, beta_y = draw_effects(*X.shape, params, beta_law, eps_law, seeds, coupling)
        yield beta, eps, beta_y, (beta_y @ X.T + eps) @ spec.U


def _fit_rows(spec, y_check: np.ndarray) -> np.ndarray:
    """Fit one block of rotated outcomes together; rows are
    (sigma2_hat, eta2_hat, cap_hit, nonconverged)."""
    fit = est.fit_mle(est.ScoreState(y_check=y_check, spec=spec))
    return np.column_stack([fit.theta, fit.cap_hit, ~fit.converged])


def _fit_counts(rows: np.ndarray) -> dict:
    """Cell counters from ``_fit_rows`` columns 2 and 3."""
    cap_hits, nonconverged = np.count_nonzero(rows[:, 2:4], axis=0).tolist()
    return {"cap_hits": cap_hits, "nonconverged": nonconverged}


# module-level chunk workers (picklable) -------------------------------------


def _chunk_theta(task) -> np.ndarray:
    """Fit replicates [lo, hi) of one cell under a coupling (None: independent
    effects); rows are the ``_fit_rows`` columns, then the coupling distance."""
    plan, cell_index, X, spec, coupling, lo, hi = task
    return np.concatenate([
        np.column_stack([_fit_rows(spec, y_check), np.linalg.norm(beta_y - beta, axis=1)])
        for beta, _, beta_y, y_check in _rotated_blocks(plan, cell_index, X, spec, lo, hi, coupling)
    ])


def _slices(rows: int):
    """Row ranges of a block for the expansion core: ``_CTRL_SLICE`` rows each,
    the short remainder folded into the last, so a slice is shorter only when
    its whole block is."""
    bounds = list(range(0, rows - _CTRL_SLICE + 1, _CTRL_SLICE)) or [0]
    return zip(bounds, bounds[1:] + [rows])


def _expansion_controls(
    y_check_sq: np.ndarray, params: ModelParams, spec, j0: np.ndarray
) -> np.ndarray:
    """Both expansion surrogates on a (reps, n) block of y_check^2, (reps, 4):
    the linearized u = -sqrt(n) J0^{-1} S(theta_0), then the profile-Newton u.

    The profile-Newton u is a sqrt(n)-scaled surrogate for the MLE: two
    guarded Newton updates of the profile score from eta_0^2, then the
    profiled variance.  It mirrors the optimizer closely enough to be a strong
    control while staying an explicit functional of y_check^2.  Rows whose
    local curvature has the wrong sign fall back to the population curvature.

    The resolvent at eta_0^2 is the same for every row, so the score and the
    first Newton step come from one ``est._resolvent_sums`` call on the whole
    block, and the fallback slope from one on the population row.  The second
    step and the profiled variance are at each row's own eta^2, so they do not
    use the kernel: the step uses the batched fit's row helper, the profiled
    variance one more resolvent.  Both run on ``_slices`` of the block, so
    their (rows, n) temporaries stay small.  Only row-wise arithmetic runs on
    slices, so each row's result is the same whatever the block size.
    """
    lam = spec.lambdas
    n = spec.n
    s2, e0 = params.sigma_sq, params.eta_sq
    pop = est._resolvent_sums(est._pop_sq(params, spec)[None], lam, [e0])
    fallback = est._score_terms(*pop[:5])[1].item()
    if not fallback < 0:
        fallback = -1e-8

    def newton(e, h, hp):
        slope = np.where(hp < -1e-300, hp, fallback)
        return np.clip(e - h / slope, 0.0, 1e6)

    ss, quad, cube, mlr0, ml2r2_0, _ = (v[..., 0] for v in est._resolvent_sums(y_check_sq, lam, [e0]))
    u_lin = -math.sqrt(n) * est._theta_score(ss, quad, mlr0, s2) @ np.linalg.inv(j0).T

    e1 = newton(e0, *est._score_terms(ss, quad, cube, mlr0, ml2r2_0))
    e, sig = np.empty_like(e1), np.empty_like(e1)
    for lo, hi in _slices(e1.size):
        y_sq = y_check_sq[lo:hi]
        e[lo:hi] = newton(e1[lo:hi], *est._score_rows(y_sq, lam, e1[lo:hi])[1:])
        # sstar at each row's own eta^2, so not the shared-grid kernel
        res = np.multiply(e[lo:hi, None], lam)
        res += 1.0
        np.reciprocal(res, out=res)
        sig[lo:hi] = np.einsum("ij,ij->i", y_sq, res) / n
    u_step = math.sqrt(n) * np.stack([sig - s2, e - e0], axis=-1)
    return np.concatenate([u_lin, u_step], axis=-1)


def _chunk_theta_lin(task) -> np.ndarray:
    """Fit replicates of one cell; rows are the ``_fit_rows`` columns, then
    the four expansion controls."""
    plan, cell_index, X, spec, lo, hi = task
    params = plan.params()
    j0 = est.expected_hessian(params, params, spec)
    return np.concatenate([
        np.hstack([_fit_rows(spec, y_check), _expansion_controls(y_check**2, params, spec, j0)])
        for *_, y_check in _rotated_blocks(plan, cell_index, X, spec, lo, hi)
    ])


def _chunk_control(task) -> np.ndarray:
    """E f of both expansion surrogates from cheap auxiliary draws; rows are
    the two means and their stderrs.

    All draws come in order from the cell's one control stream, in blocks of
    ``_CTRL_BLOCK`` rows, so the result does not depend on which process runs
    the task.  A one-thread drawer fills block k + 1 while this thread reduces
    block k (the normal fill and the core's ufuncs and BLAS calls release the
    GIL).  Only the drawer touches the generator, and it is joined before
    returning, so no thread outlives the task.  The previous block is released
    before the next draw is submitted, so at most two blocks are alive; the
    core works on slices of a block, and the sums run over whole blocks.  The
    test function is rebuilt from the plan because its evaluator does not
    pickle.

    With Gaussian effects and noise the rotated outcome has exactly independent
    N(0, sigma0^2 (eta0^2 lam_i + 1)) coordinates, so no design products are
    needed; otherwise draws go through the standardized-coordinate map.
    """
    plan, cell_index, X, spec = task
    fn = resolve_test_fn(plan.test_fn, plan.test_scales)
    params = plan.params()
    j0 = est.expected_hessian(params, params, spec)
    beta_law, eps_law = plan.laws()
    draws = plan.control_draws
    rng = rng_for(SeedSpec(plan.master_seed, _stream(cell_index, _CTRL_STREAM)))
    n, p = X.shape
    gaussian = beta_law.name == "gaussian" and eps_law.name == "gaussian"
    if not gaussian:
        C = est.standardized_map(params, spec, X)
    scale = est._pop_sq(params, spec)

    def draw(b: int) -> np.ndarray:
        """The next b rows of y_check^2 from the stream; runs on the drawer."""
        if gaussian:
            y_check_sq = rng.standard_normal((b, n))
            np.square(y_check_sq, out=y_check_sq)
            y_check_sq *= scale
            return y_check_sq
        zb = np.empty((b, n + p))
        zb[:, :p] = beta_law.sample(rng, (b, p))
        zb[:, p:] = eps_law.sample(rng, (b, n))
        return (zb @ C.T) ** 2

    sizes = [min(_CTRL_BLOCK, draws - lo) for lo in range(0, draws, _CTRL_BLOCK)]
    total, total_sq = np.zeros(2), np.zeros(2)
    with ThreadPoolExecutor(max_workers=1) as drawer:
        pending = drawer.submit(draw, sizes[0])
        for k in range(len(sizes)):
            y_check_sq = pending.result()
            pending = drawer.submit(draw, sizes[k + 1]) if k + 1 < len(sizes) else None
            u_both = _expansion_controls(y_check_sq, params, spec, j0)
            vals = np.stack([fn.evaluator(u_both[:, :2]), fn.evaluator(u_both[:, 2:])], axis=-1)
            total += np.sum(vals, axis=0)
            total_sq += np.sum(vals * vals, axis=0)
    mean = total / draws
    var = np.maximum(total_sq / draws - mean * mean, 0.0)
    return np.stack([mean, np.sqrt(var / draws)])


def _regression_adjusted_mean(
    fvals: np.ndarray,
    controls: np.ndarray,
    ctrl_mean: np.ndarray,
    ctrl_se: np.ndarray,
) -> tuple[float, float]:
    """Control-variate mean of f with regression coefficients fit in-sample.

    ``controls`` holds the per-replicate control values (reps, k); their true
    means are pinned by ``ctrl_mean`` (+- ``ctrl_se``) from the auxiliary
    sample.  The adjusted estimator's variance is never worse than the plain
    mean up to O(1/reps) coefficient noise.
    """
    reps = fvals.size
    c_center = controls - controls.mean(axis=0)
    cov_cc = c_center.T @ c_center / (reps - 1)
    cov_cf = c_center.T @ (fvals - fvals.mean()) / (reps - 1)
    coef = np.linalg.lstsq(cov_cc, cov_cf, rcond=None)[0]
    resid = fvals - controls @ coef
    fmean = float(np.mean(resid) + coef @ ctrl_mean)
    se = math.sqrt(
        float(np.var(resid, ddof=1)) / reps + float((coef * ctrl_se) @ (coef * ctrl_se))
    )
    return fmean, se


def _chunk_tail(task) -> np.ndarray:
    """Rows are (sup deviation over the eta grid, ||z||^2) per replicate."""
    plan, cell_index, X, spec, lo, hi = task
    params = plan.params()
    etas = np.linspace(0.0, plan.eta_box, plan.eta_grid_points)
    # sstar alone, so one column per grid point: the three-column
    # est._resolvent_sums would triple the product on every replicate block
    resolvent = 1.0 / (np.multiply.outer(spec.lambdas, etas) + 1.0) / spec.n  # n x grid
    target = est._pop_sq(params, spec) @ resolvent
    return np.concatenate([
        np.column_stack([
            np.max(np.abs(y_check**2 @ resolvent - target), axis=1),
            spec.p * np.einsum("ij,ij->i", beta, beta) + np.einsum("ij,ij->i", eps, eps),
        ])
        for beta, eps, _, y_check in _rotated_blocks(plan, cell_index, X, spec, lo, hi)
    ])


def _chunk_wvec(task) -> np.ndarray:
    """Rows are the 2K centered quadratic-form vector ``wv`` per replicate."""
    plan, cell_index, wv, lo, hi = task
    law = law_by_name(plan.beta_law)
    return np.concatenate([
        wv.evaluate(sample_rows(law, wv.dim, seeds)) for seeds in _block_seeds(plan, cell_index, lo, hi)
    ])


def _stein_qforms(plan: ExperimentPlan, cell_index: int, d: int) -> list[QuadraticForm]:
    rng = rng_for(SeedSpec(plan.master_seed, _stream(cell_index, _X_STREAM)))
    qforms = []
    for _ in range(plan.k_forms):
        if plan.qspec == "identity":
            Q = np.eye(d) / math.sqrt(d)
        else:
            eigs = np.linspace(0.5, 1.5, d) / math.sqrt(d)
            basis = haar_orthogonal(d, rng)
            Q = (basis * eigs) @ basis.T
        qforms.append(QuadraticForm(Q))
    return qforms


# ---------------------------------------------------------------------------
# Gate helpers
# ---------------------------------------------------------------------------


def _gate(name: str, passed: bool, strict: bool, **extra) -> dict:
    g = {"gate": name, "pass": bool(passed), "pass_strict": bool(strict)}
    g.update(extra)
    return g


def _decreasing_gates(values: np.ndarray, stderrs: np.ndarray) -> tuple[bool, bool]:
    """(noise-band pass, strict pass) for 'strictly decreasing along the grid'."""
    strict = bool(np.all(np.diff(values) < 0))
    # fail only when an increase is established beyond the 2-stderr band
    noise_ok = not np.any(values[1:] - 2 * stderrs[1:] > values[:-1] + 2 * stderrs[:-1])
    return bool(noise_ok), strict


def _trend_gate(name: str, values, stderrs) -> dict:
    """``name``: values decreasing along the grid, see ``_decreasing_gates``."""
    noise_ok, strict = _decreasing_gates(np.array(values), np.array(stderrs))
    return _gate(name, noise_ok, strict, values=[float(v) for v in values],
                 stderrs=[float(v) for v in stderrs])


def _endpoint_drop_gate(discs: list[float], ses: list[float]) -> dict:
    """'discrepancy_endpoint_drop' between the first and the last grid cell.

    ``pass`` holds when the last discrepancy is no larger than the first: any
    increase fails, however small against the stderrs.  ``pass_strict``
    holds only for an established drop, one larger than twice the combined
    stderr.
    """
    d0, se0, d1, se1 = discs[0], ses[0], discs[-1], ses[-1]
    stderr = math.sqrt(se0 * se0 + se1 * se1)
    return _gate(
        "discrepancy_endpoint_drop", d1 <= d0, (d0 - d1) > 2.0 * stderr,
        value=d0 - d1, stderr=stderr,
    )


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_consistency(plan: ExperimentPlan) -> ExperimentReport:
    """Median estimation error per n and the log-log decay slope."""
    t0 = time.perf_counter()
    theta0 = plan.params().as_array()
    cells = []
    medians, stderrs = [], []
    for ci, n in enumerate(plan.n_grid):
        X = _cell_design(plan, ci, n)
        spec = decompose_gram(X)
        if eigvar(spec) < est.IDENT_FLOOR * (spec.lambda_1 + 1.0) ** 2:
            raise NonIdentifiableError(
                f"cell n={n}: eigenvalue variance below the identifiability floor"
            )
        rows = _gather_chunks(_chunk_theta, plan, (ci, X, spec, None), plan.replicates)
        thetas = rows[:, :2]
        errs = np.linalg.norm(thetas - theta0, axis=1)
        med, se = median_with_stderr(errs)
        # a capped fit's error is the distance to the cap, about 1e6
        uncapped = errs[rows[:, 2] == 0.0]
        medians.append(med)
        stderrs.append(se)
        cells.append(
            {
                "cell": f"n={n}",
                "n": n,
                "p": _cell_p(plan, n),
                "estimate": med,
                "stderr": se,
                "mean_error_uncapped": float(np.mean(uncapped)) if uncapped.size else math.nan,
                "boundary_fraction": float(np.mean(thetas[:, 1] == 0.0)),
                **_fit_counts(rows),
            }
        )

    gates = [_trend_gate("medians_decreasing", medians, stderrs)]
    if len(plan.n_grid) >= 2:
        fitres = ols_loglog(np.array(plan.n_grid, float), np.array(medians))
        lo_w, hi_w = -0.7, -0.3
        in_window = lo_w <= fitres["slope"] <= hi_w
        band_overlaps = fitres["slope"] - 2 * fitres["stderr"] <= hi_w and (
            fitres["slope"] + 2 * fitres["stderr"] >= lo_w
        )
        gates.append(
            _gate(
                "slope_window",
                band_overlaps,
                in_window,
                value=fitres["slope"],
                stderr=fitres["stderr"],
                window=[lo_w, hi_w],
                r2=fitres["r2"],
            )
        )
    return _report(plan, cells, gates, t0)


def run_tail(plan: ExperimentPlan, r_grid: tuple[float, ...] | None = None) -> ExperimentReport:
    """Empirical tail of the uniform profile-variance deviation, per (n, r)."""
    t0 = time.perf_counter()
    rs = tuple(r_grid if r_grid is not None else plan.r_grid)
    if not rs:
        raise ValueError("tail experiment needs a nonempty r grid")
    cells = []
    total_exceed = 0
    log_tail: dict[float, list[tuple[int, float, float]]] = {r: [] for r in rs}
    for ci, n in enumerate(plan.n_grid):
        X = _cell_design(plan, ci, n)
        spec = decompose_gram(X)
        devb = _gather_chunks(_chunk_tail, plan, (ci, X, spec), plan.replicates)
        devs, znorm = devb[:, 0], devb[:, 1]
        # what the grid may miss of the true supremum, at the median draw
        bound = (
            spec.lambda_1 / spec.n * plan.eta_box / plan.eta_grid_points
            * (spec.lambda_1 + 1.0) * float(np.median(znorm))
        )
        for r in rs:
            k = int(np.count_nonzero(devs > r))
            total_exceed += k
            phat = k / plan.replicates
            w_lo, w_hi = wilson_interval(k, plan.replicates)
            se = math.sqrt(max(phat * (1 - phat), 1e-300) / plan.replicates)
            reliable = k >= 5
            if reliable:
                log_tail[r].append((n, math.log(phat), se / phat))
            cells.append(
                {
                    "cell": f"n={n},r={r}",
                    "n": n,
                    "r": r,
                    "estimate": phat,
                    "stderr": se,
                    "exceedances": k,
                    "wilson_low": w_lo,
                    "wilson_high": w_hi,
                    "reliable": reliable,
                    "grid_error_bound": bound,
                }
            )
    if total_exceed == 0:
        raise TailGridError("no exceedances at any r; widen (lower) the r grid")

    gates = []
    for ci, n in enumerate(plan.n_grid):
        sub = [c for c in cells if c["n"] == n]
        vals = [c["estimate"] for c in sorted(sub, key=lambda c: c["r"])]
        mono = all(b <= a for a, b in zip(vals, vals[1:]))
        gates.append(_gate(f"nonincreasing_in_r_n={n}", mono, mono, n=n))
    for r in rs:
        pts = log_tail[r]
        if len(pts) < 3:
            gates.append(
                _gate(f"log_tail_linear_r={r}", True, False, note="too few reliable cells")
            )
            continue
        ns = np.array([p[0] for p in pts], float)
        ly = np.array([p[1] for p in pts])
        fitres = _ols(ns, ly)
        ok = fitres["slope"] < 0 and fitres["r2"] > 0.8
        noise_ok = fitres["slope"] - 2 * fitres["stderr"] < 0
        gates.append(
            _gate(
                f"log_tail_linear_r={r}",
                noise_ok and fitres["r2"] > 0.8,
                ok,
                value=fitres["slope"],
                stderr=fitres["stderr"],
                r2=fitres["r2"],
            )
        )
    return _report(plan, cells, gates, t0)


def run_normality(plan: ExperimentPlan) -> ExperimentReport:
    """Smooth-function discrepancy between sqrt(n)(theta_hat - theta_0) and its
    Gaussian surrogate, plus Wald-ellipse coverage at the largest n.

    The mean of f over the replicates is estimated with the expansion
    surrogates as control variates: f of the linearized and of the
    profile-Newton u are regressed out replicate-by-replicate and their own
    expectations are added back from a large auxiliary sample, which shrinks
    the Monte Carlo error by an order of magnitude without changing the
    estimand or the replicate budget.

    The auxiliary draws of cell c come, in order, from the one Philox stream
    (master_seed, c << 32 | 2^32 - 3).  Their whole computation is one pool
    task, sent first in the same scatter as the cell's fit chunks, so it runs
    beside the fits and its result does not depend on the worker count.
    Inside the task a one-thread drawer draws the next block while the task
    reduces the current one; only the drawer touches the stream, at most two
    blocks are alive, and the drawer is joined before the task returns.  The
    stream is deliberately not split into per-block substreams: that changes
    the auxiliary sample, and the endpoint-drop gate fails on any increase;
    with one such split (block k from jumped substream k + 1) the
    benchmark's tiny normality plan at seed 1 failed it.
    """
    t0 = time.perf_counter()
    params = plan.params()
    theta0 = params.as_array()
    fn = resolve_test_fn(plan.test_fn, plan.test_scales)
    cells = []
    discs, disc_ses = [], []
    for ci, n in enumerate(plan.n_grid):
        X = _cell_design(plan, ci, n)
        spec = decompose_gram(X)
        psi = est.asymptotic_cov(params, spec, X, plan.laws())
        target, target_err = gaussian_expectation(
            fn, psi, SeedSpec(plan.master_seed, _stream(ci, _AUX_STREAM)),
            draws=plan.surrogate_draws,
        )
        # the control task goes first: it is the longest, and the fit chunks
        # share the remaining workers while it runs
        ctrl_jobs = [(_chunk_control, (plan, ci, X, spec))] if plan.control_draws > 0 else []
        fit_jobs = [
            (_chunk_theta_lin, task) for task in _chunk_tasks(plan, (ci, X, spec), plan.replicates)
        ]
        parts = _scatter(_call, ctrl_jobs + fit_jobs, plan.workers)
        rows = np.concatenate(parts[len(ctrl_jobs):], axis=0)
        thetas = rows[:, :2]
        u = math.sqrt(n) * (thetas - theta0)
        fvals = fn.evaluator(u)
        if ctrl_jobs:
            ctrl_mean_aux, ctrl_se_aux = parts[0]
            u_lin, u_step = rows[:, 4:6], rows[:, 6:8]
            # the linearized expansion's first two moments are exact: mean 0
            # and covariance equal to the sandwich matrix, for every n
            controls = np.column_stack(
                [
                    u_lin[:, 0],
                    u_lin[:, 1],
                    u_lin[:, 0] ** 2 - psi[0, 0],
                    u_lin[:, 1] ** 2 - psi[1, 1],
                    u_lin[:, 0] * u_lin[:, 1] - psi[0, 1],
                    fn.evaluator(u_lin),
                    fn.evaluator(u_step),
                ]
            )
            ctrl_mean = np.concatenate([np.zeros(5), ctrl_mean_aux])
            ctrl_se = np.concatenate([np.zeros(5), ctrl_se_aux])
            fmean, fse = _regression_adjusted_mean(fvals, controls, ctrl_mean, ctrl_se)
        else:
            fmean, fse = mean_with_stderr(fvals)
        disc = abs(fmean - target)
        psi_inv = np.linalg.inv(psi)
        wald = np.einsum("ij,jk,ik->i", u, psi_inv, u)
        cover = float(np.mean(wald <= _CHI2_2_95))
        k_cover = int(np.count_nonzero(wald <= _CHI2_2_95))
        cover_se = math.sqrt(max(cover * (1 - cover), 1e-300) / plan.replicates)
        err_norm = np.linalg.norm(thetas - theta0, axis=1)
        far = float(np.mean(err_norm > params.sigma_sq * math.log(n) / (2 * math.sqrt(n))))
        discs.append(disc)
        disc_ses.append(fse)
        cells.append(
            {
                "cell": f"n={n}",
                "n": n,
                "p": _cell_p(plan, n),
                "estimate": disc,
                "stderr": fse,
                "f_mean": fmean,
                "surrogate": target,
                "surrogate_err": target_err,
                "coverage95": cover,
                "coverage95_stderr": cover_se,
                "coverage95_wilson": list(wilson_interval(k_cover, plan.replicates)),
                "far_fraction": far,
                **_fit_counts(rows),
            }
        )

    gates = [_endpoint_drop_gate(discs, disc_ses), _trend_gate("discrepancy_trend", discs, disc_ses)]
    last = cells[-1]
    cov, cov_se = last["coverage95"], last["coverage95_stderr"]
    in_win = 0.92 <= cov <= 0.975
    band = (cov - 2 * cov_se <= 0.975) and (cov + 2 * cov_se >= 0.92)
    gates.append(
        _gate("wald_coverage_window", band, in_win, value=cov, stderr=cov_se,
              window=[0.92, 0.975], n=last["n"])
    )
    return _report(plan, cells, gates, t0)


def run_coupling(plan: ExperimentPlan, delta_grid: tuple[float, ...] | None = None) -> ExperimentReport:
    """Estimation error under coupled effects versus the independent baseline.

    All delta cells at one n share the baseline's replicate streams, so
    delta = 0 reproduces the independent estimates bitwise.
    """
    t0 = time.perf_counter()
    theta0 = plan.params().as_array()
    deltas = tuple(delta_grid if delta_grid is not None else plan.delta_grid)
    if plan.coupling_scheme == "sparse_zero":
        deltas = (0.0,)
    if not deltas:
        raise ValueError("coupling experiment needs a delta grid")
    cells = []
    gates = []
    bitwise_all = True
    for ci, n in enumerate(plan.n_grid):
        X = _cell_design(plan, ci, n)
        spec = decompose_gram(X)
        ind_rows = _gather_chunks(_chunk_theta, plan, (ci, X, spec, None), plan.replicates)
        ind = ind_rows[:, :2]
        ind_err = np.linalg.norm(ind - theta0, axis=1)
        med_ind, se_ind = median_with_stderr(ind_err)
        cells.append(
            {"cell": f"n={n},independent", "n": n, "estimate": med_ind, "stderr": se_ind,
             **_fit_counts(ind_rows)}
        )
        med_by_delta, se_by_delta, dist_by_delta = [], [], []
        for delta in deltas:
            delta_eff = delta / n if plan.delta_scale == "inverse_n" else delta
            fraction = plan.sparse_fraction if plan.coupling_scheme == "sparse_zero" else 0.0
            coupling = CouplingSpec(plan.coupling_scheme, delta=delta_eff, fraction=fraction)
            coup = _gather_chunks(_chunk_theta, plan, (ci, X, spec, coupling), plan.replicates)
            errs = np.linalg.norm(coup[:, :2] - theta0, axis=1)
            med, se = median_with_stderr(errs)
            med_dist = float(np.median(coup[:, 4]))
            med_by_delta.append(med)
            se_by_delta.append(se)
            dist_by_delta.append(med_dist)
            if delta == 0.0 and plan.coupling_scheme == "additive_perturb":
                same = bool(np.array_equal(coup[:, :2], ind))
                bitwise_all = bitwise_all and same
            cells.append(
                {
                    "cell": f"n={n},delta={delta}",
                    "n": n,
                    "delta": delta,
                    "delta_effective": delta_eff,
                    "estimate": med,
                    "stderr": se,
                    "median_coupling_distance": med_dist,
                    "error_ratio_vs_independent": med / med_ind if med_ind > 0 else math.inf,
                    **_fit_counts(coup),
                }
            )
        if len(deltas) > 1:
            mono_dist = all(b >= a for a, b in zip(dist_by_delta, dist_by_delta[1:]))
            gates.append(_gate(f"distance_nondecreasing_n={n}", mono_dist, mono_dist, n=n))
            # a decrease fails only when established beyond the 2-stderr band
            trend_noise = _decreasing_gates(-np.array(med_by_delta), np.array(se_by_delta))[0]
            strict_trend = all(b >= a for a, b in zip(med_by_delta, med_by_delta[1:]))
            gates.append(_gate(f"error_nondecreasing_in_delta_n={n}", trend_noise, strict_trend, n=n))

    if plan.coupling_scheme == "additive_perturb" and 0.0 in deltas:
        gates.insert(0, _gate("delta_zero_bitwise", bitwise_all, bitwise_all))
    # error-ratio gate at the largest n, worst delta cell
    big_n = plan.n_grid[-1]
    ratios = [
        c["error_ratio_vs_independent"]
        for c in cells
        if c.get("n") == big_n and "error_ratio_vs_independent" in c
    ]
    if ratios:
        worst = max(ratios)
        gates.append(
            _gate("error_ratio_within_2x", worst <= 2.0, worst <= 2.0, value=worst, n=big_n)
        )
    return _report(plan, cells, gates, t0)


def run_stein(plan: ExperimentPlan) -> ExperimentReport:
    """Normal-approximation discrepancy for centered quadratic-form vectors,
    against the d grid, together with the constant-free rate quantity."""
    t0 = time.perf_counter()
    law = law_by_name(plan.beta_law)
    scales = plan.test_scales
    if len(scales) != 2 * plan.k_forms:
        scales = tuple(scales[:1] * (2 * plan.k_forms)) if scales else (3.0,) * (2 * plan.k_forms)
    fn = resolve_test_fn(plan.test_fn, scales)
    cells = []
    discs, disc_ses, rates = [], [], []
    any_degenerate = False
    for ci, d in enumerate(plan.n_grid):
        qforms = _stein_qforms(plan, ci, d)
        wv = build_w(qforms, law)
        sigmas = [sigma_k_sq(qf, law.excess_kurtosis) for qf in qforms]
        scale = max(qf.trace_sq for qf in qforms)
        degenerate = any(s <= 1e-12 * max(scale, 1e-300) for s in sigmas)
        rate = napprox_rate(qforms, d, law.gamma, fn.norm_bounds[2:4])
        wvals = _gather_chunks(_chunk_wvec, plan, (ci, wv), plan.replicates)
        if degenerate:
            any_degenerate = True
            max_w = float(np.max(np.abs(wvals)))
            cells.append(
                {
                    "cell": f"d={d}",
                    "n": d,
                    "estimate": float("nan"),
                    "stderr": float("nan"),
                    "degenerate": True,
                    "sigma_k_sq": [float(s) for s in sigmas],
                    "max_abs_w": max_w,
                    "rate_quantity": rate,
                }
            )
            continue
        target, target_err = gaussian_expectation(
            fn, wv.v_cov, SeedSpec(plan.master_seed, _stream(ci, _AUX_STREAM)),
            draws=plan.surrogate_draws,
        )
        fvals = fn.evaluator(wvals)
        fmean, fse = mean_with_stderr(fvals)
        disc = abs(fmean - target)
        discs.append(disc)
        disc_ses.append(fse)
        rates.append(rate)
        cells.append(
            {
                "cell": f"d={d}",
                "n": d,
                "estimate": disc,
                "stderr": fse,
                "degenerate": False,
                "f_mean": fmean,
                "surrogate": target,
                "surrogate_err": target_err,
                "sigma_k_sq": [float(s) for s in sigmas],
                "rate_quantity": rate,
            }
        )

    gates = []
    if any_degenerate:
        gates.append(_gate("degenerate_cells_reported", True, True))
    if len(rates) >= 2:
        strict_rate = all(b < a for a, b in zip(rates, rates[1:]))
        gates.append(_gate("rate_quantity_decreasing", strict_rate, strict_rate))
    if len(discs) >= 2:
        gates += [_endpoint_drop_gate(discs, disc_ses), _trend_gate("discrepancy_trend", discs, disc_ses)]
    return _report(plan, cells, gates, t0)


_RUNNERS = {
    "consistency": run_consistency,
    "tail_envelope": run_tail,
    "normality": run_normality,
    "coupling": run_coupling,
    "stein_discrepancy": run_stein,
}


def run_experiment(plan: ExperimentPlan) -> ExperimentReport:
    return _RUNNERS[plan.kind](plan)


def with_workers(plan: ExperimentPlan, workers: int) -> ExperimentPlan:
    return replace(plan, workers=workers)
