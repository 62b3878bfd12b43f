"""Monte Carlo experiments that verify the estimator's finite-sample behaviour:
consistency rate, uniform deviation tails, normal approximation of the
estimator and of quadratic-form vectors, and robustness to coupled effects.

Absolute constants in the underlying finite-sample bounds are unknown, so every
experiment tests shapes (monotonicity, log-linearity, slope windows) rather
than bound values; each report header restates this.

Determinism contract: replicate r of cell c draws from the Philox stream
(master_seed, c << 32 | r).  Every pool task is one ``_chunk``: it runs a
block function (``_theta_block``, ``_lin_block``, ``_control_block``,
``_tail_block``, ``_wvec_block``) on each whole block of its row range, 64
replicates or 512 control draws, so no arithmetic depends on the worker
count; reductions are order-independent.  Reports are therefore
byte-identical across reruns and across any worker count (wall-clock time is
deliberately kept out of the serialized report).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import estimator as est
from . import matio
from .errors import NonIdentifiableError, NumericalError, TailGridError
from .laws import SeedSpec, law_by_name, rng_for, sample_rows, shared_rng
from .model import (CouplingSpec, DesignSpec, ModelParams, design_eigenvalues, draw_effects, draw_eigenbasis,
                    gen_design, haar_orthogonal)
from .qform import QuadraticForm, build_w, napprox_rate
from .spectrum import GramSpectrum, _bidiagonal_gram_eigenvalues, decompose_gram, one_blas_thread

REPORT_HEADER = (
    "Absolute constants in the underlying finite-sample bounds are unknown; "
    "gates test shapes (monotonicity, log-linearity, slope windows), not bound values."
)

_X_STREAM = (1 << 32) - 1
_AUX_STREAM = (1 << 32) - 2
_CTRL_STREAM = (1 << 32) - 3
# replicates drawn and fitted together; chunks are unions of whole blocks, so
# no block boundary depends on the worker count
_FIT_BLOCK = 64
# control-variate draws: rows per block, which the expansion core reduces in
# one pass (block k of a cell comes from substream k of its control stream)
_CTRL_BLOCK = 512
_WILSON_Z = 1.959963984540054  # two-sided 95%
_CHI2_2_95 = 5.991464547107979  # scipy.stats.chi2.ppf(0.95, 2)
_GH_NODES = 128  # per axis: 64 came within 1.2e-9 of adaptive quadrature; 512 give NaN weights


# ---------------------------------------------------------------------------
# Plans, test functions, reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothTestFn:
    """A smooth bounded test function with documented derivative-norm bounds."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    norm_bounds: tuple[float, float, float, float]  # |f|_0 .. |f|_3


def tanh_product(scales: tuple[float, ...]) -> SmoothTestFn:
    """f(x) = prod_j tanh(x_j / a_j), |f|_j <= 2 / min(a)^j; one value, possibly repeated, fits any width."""
    a = np.asarray(scales, dtype=np.float64)
    if a.size == 0:
        raise ValueError("tanh_product needs at least one scale, got empty scales")
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError(f"tanh_product scales must be positive and finite, got {list(scales)}")
    amin = float(np.min(a))
    a = a[0] if np.all(a == amin) else a

    def evaluator(x: np.ndarray) -> np.ndarray:
        return np.prod(np.tanh(np.asarray(x, dtype=np.float64) / a), axis=-1)

    bounds = (1.0, 1.0 / amin, 1.0 / amin**2, 2.0 / amin**3)
    return SmoothTestFn(evaluator=evaluator, norm_bounds=bounds)


def tanh_sum(scales: tuple[float, ...]) -> SmoothTestFn:
    """f(x) = tanh(sum_j x_j / a); unlike the product of odd factors it keeps a
    third-order response, so skewness differences register.  |f|_j <= 2 / a^j."""
    if not scales:
        raise ValueError("tanh_sum needs a scale")
    a = float(scales[0])
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"tanh_sum scale must be positive and finite, got {a}")

    def evaluator(x: np.ndarray) -> np.ndarray:
        return np.tanh(np.sum(np.asarray(x, dtype=np.float64), axis=-1) / a)

    return SmoothTestFn(evaluator=evaluator, norm_bounds=(1.0, 1.0 / a, 1.0 / a**2, 2.0 / a**3))


def constant_fn(scales: tuple[float, ...]) -> SmoothTestFn:
    value = scales[0] if scales else 1.0
    return SmoothTestFn(evaluator=lambda x: np.full(np.asarray(x).shape[:-1], value), norm_bounds=(abs(value), 0.0, 0.0, 0.0))


_TEST_FNS = {"tanh_product": tanh_product, "tanh_sum": tanh_sum, "constant": constant_fn}


def resolve_test_fn(name: str, scales: tuple[float, ...]) -> SmoothTestFn:
    try:
        factory = _TEST_FNS[name]
    except KeyError:
        raise ValueError(f"unknown test function {name!r}") from None
    return factory(scales)


def _check_grid(key: str, grid: tuple[float, ...], zero: bool = False) -> None:
    """A grid's rule: finite, strictly increasing, and positive, or nonnegative with ``zero``."""
    if not all(math.isfinite(g) and (g > 0 or zero and g == 0) for g in grid) or any(
            b <= a for a, b in zip(grid, grid[1:])):
        bound = "nonnegative" if zero else "positive"
        raise ValueError(f"{key} must be {bound}, finite and strictly increasing, got {list(grid)}")


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
    surrogate_draws: int = 1_000_000  # used only by a surrogate of over 2 dims (k_forms = 2)
    # normality control variate: auxiliary draws pinning E f of the score
    # linearization (0 disables it)
    control_draws: int = 200_000

    def __post_init__(self) -> None:
        if self.kind not in _RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        # checked here, not first by a runner once a cell's design and eigensolve are done
        self.params()  # sigma0_sq > 0 and eta0_sq >= 0
        self.laws()
        CouplingSpec(self.coupling_scheme, fraction=self.sparse_fraction)
        if self.kind == "normality" and self.eta0_sq == 0:  # its sandwich covariance needs eta0^2 > 0
            raise ValueError("eta0_sq (params.eta2) must be positive in a normality plan, got 0.0")
        if self.replicates < 100:
            raise ValueError("need at least 100 replicates for reported stderrs")
        if self.replicates > _CTRL_STREAM:  # replicate r draws from stream c << 32 | r, below the reserved ids
            raise ValueError(f"replicates must be at most {_CTRL_STREAM}, got {self.replicates}")
        if not self.n_grid or any(
            b <= a for a, b in zip(self.n_grid, self.n_grid[1:])
        ):
            raise ValueError("n_grid must be nonempty and strictly increasing")
        least = 1 if self.kind == "stein_discrepancy" else 2  # a fit needs two rows; a Stein cell one dimension
        if self.n_grid[0] < least:
            raise ValueError(f"n_grid: need n >= {least}, got {self.n_grid[0]}")
        _check_grid("r_grid", self.r_grid)
        if self.kind == "tail_envelope" and not self.r_grid:
            raise ValueError("r_grid: a tail plan needs at least one r")
        if self.delta_scale not in ("absolute", "inverse_n"):
            raise ValueError(f"unknown delta_scale {self.delta_scale!r}")
        if self.qspec not in ("equispaced", "identity"):
            raise ValueError(f"unknown qspec {self.qspec!r}")
        if not (math.isfinite(self.p_ratio) and self.p_ratio > 0):
            raise ValueError(f"p_ratio must be positive and finite, got {self.p_ratio}")
        if not self.p_ratio * self.n_grid[-1] < 2.0**63:  # the largest cell's p must fit an int64
            raise ValueError(f"p_ratio {self.p_ratio} gives p beyond int64 at n = {self.n_grid[-1]}")
        if self.surrogate_draws < 1:
            raise ValueError(f"surrogate_draws must be at least 1, got {self.surrogate_draws}")
        if self.control_draws < 0:
            raise ValueError(f"control_draws must be nonnegative, got {self.control_draws}")
        if self.kind == "stein_discrepancy" and self.k_forms not in (1, 2):
            raise ValueError("stein experiment supports K in {1, 2}")
        if self.kind in ("normality", "stein_discrepancy"):
            # the test function uses test_scales as given: tanh_product one scale per
            # coordinate (2, or 2 K for Stein), and every function one value, possibly repeated
            resolve_test_fn(self.test_fn, self.test_scales)
            width = 2 * self.k_forms if self.kind == "stein_discrepancy" else 2
            if len(set(self.test_scales)) > 1 and not (self.test_fn == "tanh_product" and len(self.test_scales) == width):
                each = f"{width} scales, one per coordinate, or " if self.test_fn == "tanh_product" else ""
                raise ValueError(f"test_scales: {self.test_fn} takes {each}one value, got {list(self.test_scales)}")
        # a repeated or decreasing delta once wrote duplicate cells, or cells the
        # monotonicity gates read backwards; a negative one failed after a cell's eigensolve
        _check_grid("delta_grid", self.delta_grid, zero=True)
        if self.coupling_scheme == "sparse_zero" and any(self.delta_grid):
            raise ValueError(f"delta_grid: the sparse_zero scheme runs delta = 0 only, got {list(self.delta_grid)}")
        if self.kind == "coupling" and self.coupling_scheme == "additive_perturb" and not self.delta_grid:
            raise ValueError("delta_grid: the additive_perturb scheme needs at least one delta")
        design = DesignSpec(self.design, self.design_lambdas)
        if design.kind == "fixed_spectrum":  # the recipe's checks, then the spectrum's range rule
            for n in self.n_grid:
                p = _cell_p(self, n)
                lam = design_eigenvalues(n, p, design)
                if n >= 2:  # a Stein cell's n is its dimension d, which may be 1; it draws no design
                    GramSpectrum.from_eigenvalues(n, p, lam)

    def params(self) -> ModelParams:
        return ModelParams(sigma_sq=self.sigma0_sq, eta_sq=self.eta0_sq)

    def laws(self):
        return law_by_name(self.beta_law), law_by_name(self.eps_law)

    def gaussian(self) -> bool:
        """Whether effects and noise are both Gaussian."""
        return all(law.name == "gaussian" for law in self.laws())


def plan_to_dict(plan: ExperimentPlan) -> dict:
    """The plan without ``workers``: reports are byte-identical at any count."""
    d = asdict(plan)
    del d["workers"]
    return d


def json_digest(obj) -> str:
    """The sha256 of ``obj`` as sorted, compact JSON: report and manifest config hashes."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def json_text(obj) -> str:
    """``obj`` as strict, sorted, indented JSON, newline-terminated, for every
    file vcomp writes as JSON: a non-finite number (a 2-point slope's stderr,
    a degenerate Stein cell's estimate) is written as null."""
    return json.dumps(_finite(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def config_hash(plan: ExperimentPlan) -> str:
    return json_digest(plan_to_dict(plan))


@dataclass
class ExperimentReport:
    kind: str
    header: str
    provenance: dict
    cells: list[dict]
    gates: list[dict]

    def to_json(self) -> str:
        return json_text(asdict(self))

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


def _finite(obj):
    """``obj`` with every non-finite float in it replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _report(plan: ExperimentPlan, cells: list, gates: list) -> ExperimentReport:
    provenance = {
        "master_seed": plan.master_seed,
        "config_hash": config_hash(plan),
        "plan": plan_to_dict(plan),
    }
    return ExperimentReport(
        kind=plan.kind, header=REPORT_HEADER, provenance=provenance, cells=cells, gates=gates,
    )


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


def _proportion(hits: np.ndarray) -> tuple[int, float, float, tuple[float, float]]:
    """The count k of true ``hits``, the proportion p = k / size, its stderr
    sqrt(p (1 - p) / size), floored above 0, and its Wilson interval."""
    k, size = int(np.count_nonzero(hits)), hits.size
    p = k / size
    return k, p, math.sqrt(max(p * (1 - p), 1e-300) / size), wilson_interval(k, size)


def _ols(x: np.ndarray, y: np.ndarray) -> dict:
    """OLS of y on x: slope, intercept, the slope's stderr, and R^2."""
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
) -> tuple[float, float]:
    """E f(V^{1/2} z) for standard normal z, and an error estimate: in 2
    dimensions the Gauss-Hermite product rule with m = ``_GH_NODES`` nodes
    per axis, and its distance from the rule with m / 2 plus m eps E|f| for
    rounding; otherwise ``draws`` antithetic Monte Carlo draws from ``seed``
    and their stderr."""
    root = cov_sqrt(V)
    dim = root.shape[0]
    if dim == 2:
        # node (i, j) is root (z_i, z_j), formed without BLAS; each w sums to sqrt(2 pi)
        q = []
        for m in (_GH_NODES, _GH_NODES // 2):
            z, w = np.polynomial.hermite_e.hermegauss(m)
            x = z[:, None, None] * root[:, 0] + z[None, :, None] * root[:, 1]
            terms = np.outer(w, w) * fn.evaluator(x) / (2.0 * math.pi)
            q.append((float(np.sum(terms)), float(np.sum(np.abs(terms)))))
        (fine, fine_abs), (coarse, _) = q
        return fine, abs(fine - coarse) + _GH_NODES * np.finfo(float).eps * fine_abs

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


def _cell_spectrum(plan: ExperimentPlan, cell_index: int, n: int):
    """The cell's design, drawn from its design stream, and its spectrum.  The
    normality and coupling runners, and any plan with a non-Gaussian law,
    rotate their outcomes through the design's eigenvectors: criterion 6
    passes on the rotated sample and fails on the eigenbasis one at its pinned
    seed, and a coupling plan's delta = 0 cells must match the independent
    baseline bit for bit.  Otherwise the replicates are drawn in the eigenbasis
    (``_outcomes``): the design is None, and an identity or fixed_spectrum
    recipe prescribes the eigenvalues.  A gaussian_iid design's first m =
    min(n, p) have the law of the squared singular values, over p, of the m x m
    bidiagonal with diagonal chi_k, ..., chi_{k-m+1} and subdiagonal chi_{m-1},
    ..., chi_1, k = max(n, p) (Dumitriu & Edelman, J. Math. Phys. 43, 2002,
    beta = 1), drawn diagonal first from the design stream; the rest are 0."""
    p, seed = _cell_p(plan, n), SeedSpec(plan.master_seed, _stream(cell_index, _X_STREAM))
    if plan.kind in ("normality", "coupling") or not plan.gaussian():
        X = gen_design(n, p, DesignSpec(plan.design, plan.design_lambdas), seed)
        return X, decompose_gram(X)
    if plan.design == "gaussian_iid":
        rng = rng_for(seed)
        m, k = min(n, p), max(n, p)
        diag = np.sqrt(rng.chisquare(np.arange(k, k - m, -1)))
        sub = np.sqrt(rng.chisquare(np.arange(m - 1, 0, -1)))
        w = np.concatenate([_bidiagonal_gram_eigenvalues(diag, sub) / p, np.zeros(n - m)])
    else:
        w = design_eigenvalues(n, p, DesignSpec(plan.design, plan.design_lambdas))
    return None, GramSpectrum.from_eigenvalues(n, p, w)


def _chunks(total: int, workers: int, block: int = _FIT_BLOCK) -> list[tuple[int, int]]:
    """At most ``workers`` ranges [lo, hi) of ``total`` rows, each a union of
    whole blocks of ``block`` rows; none when ``total`` is 0."""
    if total == 0:
        return []
    blocks = -(-total // block)
    size = -(-blocks // min(workers, blocks)) * block
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _scatter(tasks: list, workers: int) -> list:
    """The results of ``_chunk`` tasks, in order, from at most ``workers``
    processes forked whatever the default start method (``matio._workers``),
    or from this process, with the same bytes, where only one is allowed.  The
    workers inherit the one-thread BLAS pin (``one_blas_thread``) and the
    tasks (``matio.inherit``), never pickled; only task indices go through the
    pool's queue (``_chunk_at``)."""
    workers = 1 if workers <= 1 else min(workers, matio._workers(len(tasks)))
    if workers <= 1:
        return [_chunk(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=matio.inherit, initargs=(tasks,)) as pool:
        return list(pool.map(_chunk_at, range(len(tasks)), chunksize=1))


def _chunk(task) -> np.ndarray:
    """Rows [lo, hi) of one cell: the block function ``fn(plan, cell_index,
    ctx, lo, hi)`` on each whole block of ``block`` rows, stacked.  ``ctx``
    holds what every task of the cell shares, computed once by the runner."""
    fn, block, plan, cell_index, ctx, lo, hi = task
    return np.concatenate([fn(plan, cell_index, ctx, b, min(b + block, hi)) for b in range(lo, hi, block)])


def _chunk_at(i: int) -> np.ndarray:
    """Worker: ``_chunk`` of task ``i`` of the list the pool's worker inherited."""
    (tasks,) = matio.inherited()
    return _chunk(tasks[i])


def _gather(plan: ExperimentPlan, cell_index: int, *jobs) -> list:
    """Every job ``(fn, ctx, total, block)`` of one cell in one scatter, as
    ``_chunk`` tasks over ``total`` rows, one per worker range; per job, its
    rows in order, or None for a job without rows."""
    groups = [[(fn, block, plan, cell_index, ctx, lo, hi) for lo, hi in _chunks(total, plan.workers, block)]
              for fn, ctx, total, block in jobs]
    parts = iter(_scatter([task for group in groups for task in group], plan.workers))
    return [np.concatenate([next(parts) for _ in group]) if group else None for group in groups]


def _seeds(plan: ExperimentPlan, cell_index: int, lo: int, hi: int) -> list[SeedSpec]:
    return [SeedSpec(plan.master_seed, _stream(cell_index, r)) for r in range(lo, hi)]


def _outcomes(plan: ExperimentPlan, cell_index: int, X, spec, lo: int, hi: int,
              coupling: CouplingSpec | None = None):
    """The outcomes y_check of replicates [lo, hi), (hi - lo, n), each row from
    its own replicate stream.  With X None (Gaussian laws, ``_cell_spectrum``)
    they are drawn directly in the eigenbasis (``draw_eigenbasis``);
    otherwise they are the rotated (B X' + E) U, and under a coupling they
    come with each row's coupling distance ||beta_y - beta||.  Outcomes
    whose squares leave the float range raise ``NumericalError``."""
    seeds = _seeds(plan, cell_index, lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        if X is None:
            y_check = draw_eigenbasis(est._pop_sq(plan.params(), spec), seeds)
        else:
            beta, eps, beta_y = draw_effects(*X.shape, plan.params(), *plan.laws(), seeds, coupling)
            y_check = (beta_y @ X.T + eps) @ spec.U
        if not np.all(np.isfinite(np.square([y_check.min(), y_check.max()]))):
            delta = "" if coupling is None else f", coupling delta = {coupling.delta:g}"
            raise NumericalError(f"replicate outcomes overflow the float range (y_check^2 is not finite) at "
                                 f"params.sigma2 = {plan.sigma0_sq:g}, params.eta2 = {plan.eta0_sq:g}{delta}")
        return y_check if coupling is None else (y_check, np.linalg.norm(beta_y - beta, axis=1))


def _fit_rows(spec, y_check: np.ndarray) -> np.ndarray:
    """Fit one block of rotated outcomes together; rows are
    (sigma2_hat, eta2_hat, cap_hit, nonconverged)."""
    fit = est.fit_mle(est.ScoreState(y_check=y_check, spec=spec))
    return np.column_stack([fit.theta, fit.cap_hit, ~fit.converged])


def _fit_counts(rows: np.ndarray) -> dict:
    """Cell counters from ``_fit_rows`` columns 2 and 3."""
    cap_hits, nonconverged = np.count_nonzero(rows[:, 2:4], axis=0).tolist()
    return {"cap_hits": cap_hits, "nonconverged": nonconverged}


def _error_cell(rows: np.ndarray, theta0: np.ndarray) -> tuple[np.ndarray, dict]:
    """Each ``_fit_rows`` row's error ||theta_hat - theta_0||, and the cell
    fields of their median: ``estimate``, its ``stderr`` and the counters."""
    errs = np.linalg.norm(rows[:, :2] - theta0, axis=1)
    med, se = median_with_stderr(errs)
    return errs, {"estimate": med, "stderr": se, **_fit_counts(rows)}


# block functions of ``_chunk`` ----------------------------------------------


def _theta_block(plan: ExperimentPlan, cell_index: int, ctx, lo: int, hi: int) -> np.ndarray:
    """The ``_fit_rows`` of replicates [lo, hi); ctx is (X, spec, coupling).
    Under a coupling the rows gain the coupling distance as a last column."""
    X, spec, coupling = ctx
    if coupling is None:
        return _fit_rows(spec, _outcomes(plan, cell_index, X, spec, lo, hi))
    y_check, distance = _outcomes(plan, cell_index, X, spec, lo, hi, coupling)
    return np.column_stack([_fit_rows(spec, y_check), distance])


def _rank(spec) -> int:
    """The design's rank: ``GramSpectrum.from_eigenvalues`` sets the n - rank
    null eigenvalues to exactly 0 and sorts them last."""
    return int(np.count_nonzero(spec.lambdas))


def _fold(y_sq: np.ndarray, rank: int) -> np.ndarray:
    """Rows of y_check^2 with the null-space coordinates, the last n - rank,
    summed into one column: (rows, rank + 1), or the rows themselves when at
    most one coordinate is null.  ``_expansion_controls`` sees the null
    coordinates (lambda = 0) only through that sum."""
    if rank + 1 >= y_sq.shape[-1]:
        return y_sq
    folded = y_sq[..., :rank + 1].copy()
    folded[..., rank] = y_sq[..., rank:].sum(axis=-1)
    return folded


def _expansion_controls(
    y_check_sq: np.ndarray, params: ModelParams, spec, j0: np.ndarray
) -> np.ndarray:
    """Both expansion surrogates on a (reps, m) block of y_check^2, (reps, 4):
    the linearized u = -sqrt(n) J0^{-1} S(theta_0), then the profile-Newton u.

    The block is folded (``_fold``) or not (m = n).  Every sum of a row is a
    sum of y_check_i^2 times a function of lambda_i, and that function is the
    same on every null coordinate, so the first m eigenvalues describe the
    folded columns; every mean still divides by the true n.

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
    variance one more resolvent.  Callers pass blocks of at most
    ``_CTRL_BLOCK`` or ``_FIT_BLOCK`` rows, so the (rows, m) temporaries stay
    small.
    """
    m = y_check_sq.shape[1]
    lam = spec.lambdas[:m]
    n = spec.n
    s2, e0 = params.sigma_sq, params.eta_sq
    pop = est._resolvent_sums(_fold(est._pop_sq(params, spec), m - 1)[None], lam, [e0], n)
    fallback = est._score_terms(*pop[:5])[1].item()
    if not fallback < 0:
        fallback = -1e-8

    def newton(e, h, hp):
        slope = np.where(hp < -1e-300, hp, fallback)
        return np.clip(e - h / slope, 0.0, 1e6)

    ss, quad, cube, mlr0, ml2r2_0, _ = (v[..., 0] for v in est._resolvent_sums(y_check_sq, lam, [e0], n))
    u_lin = -math.sqrt(n) * est._theta_score(ss, quad, mlr0, s2) @ np.linalg.inv(j0).T

    e1 = newton(e0, *est._score_terms(ss, quad, cube, mlr0, ml2r2_0))
    e = newton(e1, *est._score_rows(y_check_sq, lam, e1, n)[1:])
    # sstar at each row's own eta^2, so not the shared-grid kernel
    res = np.multiply(e[:, None], lam)
    res += 1.0
    np.reciprocal(res, out=res)
    sig = np.einsum("ij,ij->i", y_check_sq, res) / n
    u_step = math.sqrt(n) * np.stack([sig - s2, e - e0], axis=-1)
    return np.concatenate([u_lin, u_step], axis=-1)


def _lin_block(plan: ExperimentPlan, cell_index: int, ctx, lo: int, hi: int) -> np.ndarray:
    """The ``_fit_rows`` of replicates [lo, hi), then the four expansion
    controls, on the folded rows as ``_control_block`` has them; ctx is
    (X, spec, j0)."""
    X, spec, j0 = ctx
    y_check = _outcomes(plan, cell_index, X, spec, lo, hi)
    return np.hstack([_fit_rows(spec, y_check),
                      _expansion_controls(_fold(y_check**2, _rank(spec)), plan.params(), spec, j0)])


def _control_rows(plan: ExperimentPlan, spec, C, seed: SeedSpec, k: int, rows: int) -> np.ndarray:
    """Block k of a cell's control draws: ``rows`` folded rows of y_check^2
    (``_fold``), all from substream k of the cell's control stream ``seed``.

    With Gaussian effects and noise (C None) the coordinates of y_check are
    independent N(0, sigma0^2 (eta0^2 lam_i + 1)) (``model.draw_eigenbasis``),
    so the n - rank null coordinates' squares sum to sigma0^2 chi^2_{n-rank}:
    each row is rank + 1 standard normals, squared in place, and the last,
    one null coordinate, gains a chi^2_{n-rank-1} draw for the others.
    Otherwise the effects and noise go through the standardized map C.
    """
    rng = shared_rng(seed, k)
    rank, n = _rank(spec), spec.n
    if C is not None:
        beta_law, eps_law = plan.laws()
        p = C.shape[1] - n
        zb = np.empty((rows, n + p))
        zb[:, :p] = beta_law.sample(rng, (rows, p))
        zb[:, p:] = eps_law.sample(rng, (rows, n))
        return _fold((zb @ C.T) ** 2, rank)
    cols = min(rank + 1, n)
    y_sq = rng.standard_normal((rows, cols))
    np.square(y_sq, out=y_sq)
    if cols < n:
        y_sq[:, -1] += rng.chisquare(n - cols, rows)
    y_sq *= est._pop_sq(plan.params(), spec)[:cols]
    return y_sq


def _control_block(plan: ExperimentPlan, cell_index: int, ctx, lo: int, hi: int) -> np.ndarray:
    """One row for control block k = lo / ``_CTRL_BLOCK`` of the cell: the
    two sums of f of the expansion surrogates over its draws, then the two
    sums of f^2.  ctx is (spec, C, j0, fn), C None for Gaussian laws
    (``_control_rows``), fn the plan's test function.  The block is drawn from
    substream k of the cell's control stream and reduced in one pass, so its
    sums do not depend on the task that reduces it."""
    spec, C, j0, fn = ctx
    seed = SeedSpec(plan.master_seed, _stream(cell_index, _CTRL_STREAM))
    u_both = _expansion_controls(_control_rows(plan, spec, C, seed, lo // _CTRL_BLOCK, hi - lo),
                                 plan.params(), spec, j0)
    vals = np.stack([fn.evaluator(u_both[:, :2]), fn.evaluator(u_both[:, 2:])], axis=-1)
    return np.concatenate([np.sum(vals, axis=0), np.sum(vals * vals, axis=0)])[None]


def _control_means(block_sums: np.ndarray, draws: int) -> tuple[np.ndarray, np.ndarray]:
    """The two control means and their stderrs from ``_control_block``'s
    rows, all blocks in block order."""
    total = np.sum(block_sums, axis=0)
    mean = total[:2] / draws
    var = np.maximum(total[2:] / draws - mean * mean, 0.0)
    return mean, np.sqrt(var / draws)


def _regression_adjusted_mean(
    fvals: np.ndarray,
    controls: np.ndarray,
    ctrl_mean: np.ndarray,
    ctrl_se: np.ndarray,
) -> tuple[float, float, float, float]:
    """Control-variate mean of f with regression coefficients fit in-sample.

    ``controls`` holds the per-replicate control values (reps, k); their true
    means are pinned by ``ctrl_mean`` (+- ``ctrl_se``) from the auxiliary
    sample.  The adjusted estimator's variance is never worse than the plain
    mean up to O(1/reps) coefficient noise.  Returns the mean, its stderr,
    and the stderr's two parts in quadrature: the replicates' residual
    sqrt(var(resid) / reps) and the auxiliary sample's sqrt(sum (coef ctrl_se)^2).
    """
    reps = fvals.size
    c_center = controls - controls.mean(axis=0)
    cov_cc = c_center.T @ c_center / (reps - 1)
    cov_cf = c_center.T @ (fvals - fvals.mean()) / (reps - 1)
    coef = np.linalg.lstsq(cov_cc, cov_cf, rcond=None)[0]
    resid = fvals - controls @ coef
    fmean = float(np.mean(resid) + coef @ ctrl_mean)
    var_reps = float(np.var(resid, ddof=1)) / reps
    var_ctrl = float((coef * ctrl_se) @ (coef * ctrl_se))
    return fmean, math.sqrt(var_reps + var_ctrl), math.sqrt(var_reps), math.sqrt(var_ctrl)


def _tail_block(plan: ExperimentPlan, cell_index: int, ctx, lo: int, hi: int) -> np.ndarray:
    """The supremum of the deviation over the eta grid, one per replicate of
    [lo, hi); ctx is (X, spec, resolvent, target) from ``_tail_context``."""
    X, spec, resolvent, target = ctx
    return np.max(np.abs(_outcomes(plan, cell_index, X, spec, lo, hi)**2 @ resolvent - target), axis=1)


def _tail_context(plan: ExperimentPlan, X, spec) -> tuple:
    """``_tail_block``'s ctx: the n x G resolvent 1 / (n (eta^2 lam_i + 1)) on
    the fit's grid ``est.ETA_GRID``, which reaches eta^2 of about 1e6, holds
    sstar alone, as the three-column ``est._resolvent_sums`` would triple the
    product on every block, and the target is its population row's."""
    resolvent = 1.0 / (np.multiply.outer(spec.lambdas, est.ETA_GRID) + 1.0) / spec.n
    with np.errstate(over="ignore"):  # the target overflows only where E y_check^2 does: ``_outcomes`` raises
        return X, spec, resolvent, est._pop_sq(plan.params(), spec) @ resolvent


def _wvec_block(plan: ExperimentPlan, cell_index: int, wv, lo: int, hi: int) -> np.ndarray:
    """Rows are the 2K centered quadratic-form vector ``wv`` per replicate."""
    return wv.evaluate(sample_rows(law_by_name(plan.beta_law), wv.dim, _seeds(plan, cell_index, lo, hi)))


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


def _estimates(cells: list[dict]) -> tuple[list[float], list[float]]:
    """The cells' estimates and their stderrs, in cell order."""
    return [c["estimate"] for c in cells], [c["stderr"] for c in cells]


def _trend_gate(name: str, cells: list[dict]) -> dict:
    """``name``: the cells' estimates decreasing along the grid, see ``_decreasing_gates``."""
    values, stderrs = _estimates(cells)
    noise_ok, strict = _decreasing_gates(np.array(values), np.array(stderrs))
    return _gate(name, noise_ok, strict, values=[float(v) for v in values],
                 stderrs=[float(v) for v in stderrs])


def _window_gate(name: str, value: float, stderr: float, window: tuple[float, float], **extra) -> dict:
    """``name``: value inside ``window``.  ``pass`` holds when its 2-stderr
    band meets the window, ``pass_strict`` when the value itself lies in it."""
    lo, hi = window
    band = value - 2 * stderr <= hi and value + 2 * stderr >= lo
    return _gate(name, band, lo <= value <= hi, value=value, stderr=stderr, window=[lo, hi], **extra)


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


def _discrepancy(plan: ExperimentPlan, cell_index: int, fn: SmoothTestFn, V: np.ndarray,
                 fmean: float, fse: float) -> dict:
    """The cell fields of the discrepancy |f_mean - E f(Z)|, Z ~ N(0, V), with
    stderr ``fse``; E f(Z) is drawn from the cell's auxiliary stream."""
    target, target_err = gaussian_expectation(
        fn, V, SeedSpec(plan.master_seed, _stream(cell_index, _AUX_STREAM)), draws=plan.surrogate_draws,
    )
    return {"estimate": abs(fmean - target), "stderr": fse, "f_mean": fmean,
            "surrogate": target, "surrogate_err": target_err}


def _discrepancy_gates(cells: list[dict]) -> list[dict]:
    """The endpoint-drop and trend gates on the cells' discrepancies."""
    return [_endpoint_drop_gate(*_estimates(cells)), _trend_gate("discrepancy_trend", cells)]


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


@one_blas_thread()
def run_consistency(plan: ExperimentPlan) -> ExperimentReport:
    """Median estimation error per n and the log-log decay slope.  With Gaussian
    laws no design is drawn: a gaussian_iid cell's eigenvalues come from the chi
    bidiagonal of Dumitriu & Edelman (2002) (``_cell_spectrum``)."""
    theta0 = plan.params().as_array()
    cells = []
    for ci, n in enumerate(plan.n_grid):
        X, spec = _cell_spectrum(plan, ci, n)
        if est.not_identifiable(spec):
            raise NonIdentifiableError(
                f"cell n={n}: eigenvalue variance below the identifiability floor"
            )
        [rows] = _gather(plan, ci, (_theta_block, (X, spec, None), plan.replicates, _FIT_BLOCK))
        errs, fields = _error_cell(rows, theta0)
        # a capped fit's error is the distance to the cap, about 1e6
        uncapped = errs[rows[:, 2] == 0.0]
        cells.append(
            {
                "cell": f"n={n}",
                "n": n,
                "p": _cell_p(plan, n),
                **fields,
                "mean_error_uncapped": float(np.mean(uncapped)) if uncapped.size else math.nan,
                "boundary_fraction": float(np.mean(rows[:, 1] == 0.0)),
            }
        )

    gates = [_trend_gate("medians_decreasing", cells)]
    if len(plan.n_grid) >= 2:
        fitres = _ols(np.log(plan.n_grid), np.log(_estimates(cells)[0]))
        gates.append(_window_gate("slope_window", fitres["slope"], fitres["stderr"], (-0.7, -0.3),
                                  r2=fitres["r2"]))
    return _report(plan, cells, gates)


@one_blas_thread()
def run_tail(plan: ExperimentPlan) -> ExperimentReport:
    """Empirical tail of the uniform profile-variance deviation, per (n, r):
    sup |sstar - sigma0^2| over every eta^2 >= 0, on the fit's grid, whose far
    end holds a rank-deficient design's null coordinates at full weight.  With
    Gaussian laws no design is drawn: a gaussian_iid cell's eigenvalues come
    from the chi bidiagonal of Dumitriu & Edelman (2002) (``_cell_spectrum``)."""
    rs = plan.r_grid
    cells = []
    for ci, n in enumerate(plan.n_grid):
        X, spec = _cell_spectrum(plan, ci, n)
        [devs] = _gather(plan, ci, (_tail_block, _tail_context(plan, X, spec), plan.replicates, _FIT_BLOCK))
        for r in rs:
            k, phat, se, (w_lo, w_hi) = _proportion(devs > r)
            cells.append({"cell": f"n={n},r={r}", "n": n, "r": r, "estimate": phat, "stderr": se,
                          "exceedances": k, "wilson_low": w_lo, "wilson_high": w_hi, "reliable": k >= 5})
    if not any(c["exceedances"] for c in cells):
        raise TailGridError("no exceedances at any r; widen (lower) the r grid")

    gates = []
    for n in plan.n_grid:
        # a cell's r ascend with the strictly increasing r grid
        vals = [c["estimate"] for c in cells if c["n"] == n]
        mono = all(b <= a for a, b in zip(vals, vals[1:]))
        gates.append(_gate(f"nonincreasing_in_r_n={n}", mono, mono, n=n))
    for r in rs:
        reliable = [c for c in cells if c["r"] == r and c["reliable"]]
        if len(reliable) < 3:
            gates.append(_gate(f"log_tail_linear_r={r}", True, False, note="too few reliable cells"))
            continue
        fitres = _ols(np.array([c["n"] for c in reliable], float),
                      np.array([math.log(c["estimate"]) for c in reliable]))
        slope, stderr, r2 = fitres["slope"], fitres["stderr"], fitres["r2"]
        gates.append(_gate(f"log_tail_linear_r={r}", slope - 2 * stderr < 0 and r2 > 0.8, slope < 0 and r2 > 0.8,
                           value=slope, stderr=stderr, r2=r2))
    return _report(plan, cells, gates)


def _within_float_range(runner):
    """``runner`` with an overflow, a zero division or an invalid operation
    raised as a ``NumericalError`` naming params.sigma2: a normality cell's
    covariances scale as its powers, and leave the float range from about
    1e100, or 1e-100 down.  A run in range meets none, so keeps its bytes."""

    @functools.wraps(runner)
    def guarded(plan: ExperimentPlan) -> ExperimentReport:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return runner(plan)
        except ArithmeticError:  # numpy's FloatingPointError, and Python's OverflowError and ZeroDivisionError
            raise NumericalError(f"normality statistics leave the float range at params.sigma2 = {plan.sigma0_sq:g}"
                                 f" (they scale as its powers); choose params.sigma2 nearer 1") from None

    return guarded


@one_blas_thread()
@_within_float_range
def run_normality(plan: ExperimentPlan) -> ExperimentReport:
    """Smooth-function discrepancy between sqrt(n)(theta_hat - theta_0) and its
    Gaussian surrogate, plus Wald-ellipse coverage at the largest n.

    The mean of f over the replicates is estimated with the expansion
    surrogates as control variates: f of the linearized and of the
    profile-Newton u are regressed out replicate-by-replicate and their own
    expectations are added back from a large auxiliary sample, which shrinks
    the Monte Carlo error by an order of magnitude without changing the
    estimand or the replicate budget.  Each cell reports its stderr and that
    stderr's two parts, ``stderr_replicates`` and ``stderr_control`` (see
    ``_regression_adjusted_mean``).

    The auxiliary draws of cell c come in blocks of ``_CTRL_BLOCK`` (512)
    rows, block k from substream k of the one Philox stream (master_seed,
    c << 32 | 2^32 - 3), and the expansion core reduces each block in one
    pass.  The blocks are split into ``plan.workers`` contiguous ranges,
    one pool task each, sent first in the same scatter as the cell's fit
    chunks; the parent adds the per-block sums in block order, so the result
    does not depend on the worker count.  The auxiliary rows are folded
    (``_fold``): the design's null coordinates enter only through their sum,
    so a Gaussian row is drawn as rank + 1 normals and one chi^2.
    """
    params = plan.params()
    theta0 = params.as_array()
    fn = resolve_test_fn(plan.test_fn, plan.test_scales)
    cells = []
    for ci, n in enumerate(plan.n_grid):
        X, spec = _cell_spectrum(plan, ci, n)
        psi = est.asymptotic_cov(params, spec, X, plan.laws())
        j0 = est.expected_hessian(params, params, spec)
        # the control ranges go first: they are the longest jobs, and the
        # shorter fit chunks then even out the workers' loads; Gaussian laws
        # need only the eigenvalues
        C = None if plan.gaussian() or not plan.control_draws else est.standardized_map(params, spec, X)
        ctrl_sums, rows = _gather(
            plan, ci, (_control_block, (spec, C, j0, fn), plan.control_draws, _CTRL_BLOCK),
            (_lin_block, (X, spec, j0), plan.replicates, _FIT_BLOCK),
        )
        thetas = rows[:, :2]
        u = math.sqrt(n) * (thetas - theta0)
        fvals = fn.evaluator(u)
        if ctrl_sums is not None:
            ctrl_mean_aux, ctrl_se_aux = _control_means(ctrl_sums, plan.control_draws)
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
            fmean, fse, se_reps, se_ctrl = _regression_adjusted_mean(fvals, controls, ctrl_mean, ctrl_se)
        else:
            fmean, fse = mean_with_stderr(fvals)
            se_reps, se_ctrl = fse, 0.0
        wald = np.einsum("ij,jk,ik->i", u, np.linalg.inv(psi), u)
        _, cover, cover_se, cover_wilson = _proportion(wald <= _CHI2_2_95)
        err_norm = np.linalg.norm(thetas - theta0, axis=1)
        far = float(np.mean(err_norm > params.sigma_sq * math.log(n) / (2 * math.sqrt(n))))
        cells.append(
            {
                "cell": f"n={n}",
                "n": n,
                "p": _cell_p(plan, n),
                **_discrepancy(plan, ci, fn, psi, fmean, fse),
                "stderr_replicates": se_reps,
                "stderr_control": se_ctrl,
                "coverage95": cover,
                "coverage95_stderr": cover_se,
                "coverage95_wilson": list(cover_wilson),
                "far_fraction": far,
                **_fit_counts(rows),
            }
        )

    last = cells[-1]
    gates = _discrepancy_gates(cells) + [_window_gate(
        "wald_coverage_window", last["coverage95"], last["coverage95_stderr"], (0.92, 0.975), n=last["n"],
    )]
    return _report(plan, cells, gates)


@one_blas_thread()
def run_coupling(plan: ExperimentPlan) -> ExperimentReport:
    """Estimation error under coupled effects versus the independent baseline.

    All delta cells at one n share the baseline's replicate streams, so
    delta = 0 reproduces the independent estimates bitwise.
    """
    theta0 = plan.params().as_array()
    deltas = (0.0,) if plan.coupling_scheme == "sparse_zero" else plan.delta_grid
    cells = []
    gates = []
    bitwise_all = True
    fraction = plan.sparse_fraction if plan.coupling_scheme == "sparse_zero" else 0.0
    for ci, n in enumerate(plan.n_grid):
        X, spec = _cell_spectrum(plan, ci, n)
        effective = [delta / n if plan.delta_scale == "inverse_n" else delta for delta in deltas]
        couplings = [CouplingSpec(plan.coupling_scheme, delta=d, fraction=fraction) for d in effective]
        # one scatter: the independent fits, then every delta's coupled fits
        ind_rows, *coupled = _gather(plan, ci, *((_theta_block, (X, spec, coupling), plan.replicates, _FIT_BLOCK)
                                                 for coupling in (None, *couplings)))
        cells.append({"cell": f"n={n},independent", "n": n, **_error_cell(ind_rows, theta0)[1]})
        med_ind = cells[-1]["estimate"]
        for delta, delta_eff, coup in zip(deltas, effective, coupled):
            if delta == 0.0 and plan.coupling_scheme == "additive_perturb":
                bitwise_all &= bool(np.array_equal(coup[:, :2], ind_rows[:, :2]))
            _, fields = _error_cell(coup, theta0)
            cells.append({"cell": f"n={n},delta={delta}", "n": n, "delta": delta, "delta_effective": delta_eff,
                          **fields, "median_coupling_distance": float(np.median(coup[:, 4])),
                          "error_ratio_vs_independent": fields["estimate"] / med_ind if med_ind > 0 else math.inf})
        if len(deltas) > 1:
            by_delta = cells[-len(deltas):]
            dists = [c["median_coupling_distance"] for c in by_delta]
            mono_dist = all(b >= a for a, b in zip(dists, dists[1:]))
            gates.append(_gate(f"distance_nondecreasing_n={n}", mono_dist, mono_dist, n=n))
            # a decrease fails only when established beyond the 2-stderr band
            meds, ses = _estimates(by_delta)
            trend_noise = _decreasing_gates(-np.array(meds), np.array(ses))[0]
            strict_trend = all(b >= a for a, b in zip(meds, meds[1:]))
            gates.append(_gate(f"error_nondecreasing_in_delta_n={n}", trend_noise, strict_trend, n=n))

    if plan.coupling_scheme == "additive_perturb" and 0.0 in deltas:
        gates.insert(0, _gate("delta_zero_bitwise", bitwise_all, bitwise_all))
    # error-ratio gate at the largest n, worst delta cell: the last cells
    worst = max(c["error_ratio_vs_independent"] for c in cells[-len(deltas):])
    gates.append(_gate("error_ratio_within_2x", worst <= 2.0, worst <= 2.0, value=worst, n=plan.n_grid[-1]))
    return _report(plan, cells, gates)


@one_blas_thread()
def run_stein(plan: ExperimentPlan) -> ExperimentReport:
    """Normal-approximation discrepancy for centered quadratic-form vectors,
    against the d grid, together with the constant-free rate quantity."""
    law = law_by_name(plan.beta_law)
    fn = resolve_test_fn(plan.test_fn, plan.test_scales)
    cells = []
    for ci, d in enumerate(plan.n_grid):
        qforms = _stein_qforms(plan, ci, d)
        wv = build_w(qforms, law)
        # Var(z'Q_k z), clamped at 0 as ``sigma_k_sq`` clamps it
        sigmas = [max(0.0, float(wv.v_cov[2 * k, 2 * k])) for k in range(plan.k_forms)]
        scale = max(qf.trace_sq for qf in qforms)
        degenerate = any(s <= 1e-12 * max(scale, 1e-300) for s in sigmas)
        [wvals] = _gather(plan, ci, (_wvec_block, wv, plan.replicates, _FIT_BLOCK))
        cell = {
            "cell": f"d={d}",
            "n": d,
            "degenerate": degenerate,
            "sigma_k_sq": sigmas,
            "rate_quantity": napprox_rate(qforms, law, fn.norm_bounds[2:4]),
        }
        if degenerate:
            cell.update(estimate=math.nan, stderr=math.nan, max_abs_w=float(np.max(np.abs(wvals))))
        else:
            cell.update(_discrepancy(plan, ci, fn, wv.v_cov, *mean_with_stderr(fn.evaluator(wvals))))
        cells.append(cell)

    gates = []
    if any(c["degenerate"] for c in cells):
        gates.append(_gate("degenerate_cells_reported", True, True))
    live = [c for c in cells if not c["degenerate"]]
    if len(live) >= 2:
        rates = [c["rate_quantity"] for c in live]
        strict_rate = all(b < a for a, b in zip(rates, rates[1:]))
        gates += [_gate("rate_quantity_decreasing", strict_rate, strict_rate), *_discrepancy_gates(live)]
    return _report(plan, cells, gates)


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
