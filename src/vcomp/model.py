"""Dataset generation for the linear random-effects model y = X beta + eps.

Effects are drawn with Var(beta_j) = sigma0^2 eta0^2 / p and noise with
Var(eps_i) = sigma0^2, from any of the supported coordinate laws.  The
coupled variant replaces beta by a dependent surrogate beta_tilde while
retaining the independent partner and the coupling distance ||beta_tilde - beta||.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .laws import GAUSSIAN, SeedSpec, SubGaussianLaw, rng_for, sample_rows, shared_rng
from .matio import save_matrix_csv

# substream tags for the per-replicate Philox stream
_SUB_BETA = 1
_SUB_EPS = 2
_SUB_SPARSE = 3
_SUB_PERTURB = 4
_SUB_EIGENBASIS = 5

COUPLING_SCHEMES = ("additive_perturb", "sparse_zero")


@dataclass(frozen=True)
class ModelParams:
    """Variance components theta = (sigma^2, eta^2)."""

    sigma_sq: float
    eta_sq: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_sq) and self.sigma_sq > 0):
            raise ValueError(f"sigma_sq must be finite and positive, got {self.sigma_sq}")
        if not (math.isfinite(self.eta_sq) and self.eta_sq >= 0):
            raise ValueError(f"eta_sq must be finite and nonnegative, got {self.eta_sq}")

    def beta_variance(self, p: int) -> float:
        return self.sigma_sq * self.eta_sq / p

    def as_array(self) -> np.ndarray:
        return np.array([self.sigma_sq, self.eta_sq])


@dataclass(frozen=True)
class DesignSpec:
    """Design-matrix recipe: iid Gaussian entries, scaled identity, or a matrix
    engineered to have an exactly prescribed Gram spectrum."""

    kind: str  # "gaussian_iid" | "identity" | "fixed_spectrum"
    lambdas: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian_iid", "identity", "fixed_spectrum"):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.kind == "fixed_spectrum":
            if not self.lambdas:
                raise ValueError("fixed_spectrum design needs eigenvalues")
            if any(lam < 0 for lam in self.lambdas):
                raise ValueError("fixed_spectrum eigenvalues must be nonnegative")
        elif self.lambdas is not None:
            raise ValueError(f"eigenvalues are given only with a fixed_spectrum design, not {self.kind!r}")


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling scheme for dependent effects, completed with its realization.

    Request with (scheme, delta | fraction); generation returns a copy filled
    with the realized ``beta_tilde`` and ``coupling_distance``.
    """

    scheme: str
    delta: float = 0.0
    fraction: float = 0.0
    beta_tilde: np.ndarray | None = field(default=None, compare=False)
    coupling_distance: float = 0.0

    def __post_init__(self) -> None:
        if self.scheme not in COUPLING_SCHEMES:
            raise ValueError(f"unknown coupling scheme {self.scheme!r}")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")
        if not (0.0 <= self.fraction <= 1.0):
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")


@dataclass
class Dataset:
    """A generated dataset with full ground truth retained."""

    X: np.ndarray
    y: np.ndarray
    beta_true: np.ndarray
    eps_true: np.ndarray
    params: ModelParams
    beta_law: SubGaussianLaw
    eps_law: SubGaussianLaw
    seed: SeedSpec
    coupling: CouplingSpec | None = None


def haar_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed k x k orthogonal matrix via sign-corrected QR."""
    Z = rng.standard_normal((k, k))
    Q, R = np.linalg.qr(Z)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def design_eigenvalues(n: int, p: int, design: DesignSpec) -> np.ndarray:
    """The eigenvalues of XX'/p that an ``identity`` or ``fixed_spectrum`` recipe
    prescribes, descending: 1 on the first min(n, p) coordinates and 0 elsewhere,
    or the recipe's n eigenvalues, of which at most min(n, p) may be positive."""
    m = min(n, p)
    if design.kind == "identity":
        return np.concatenate([np.ones(m), np.zeros(n - m)])
    lam = np.sort(np.asarray(design.lambdas, dtype=np.float64))[::-1]
    if lam.size != n:
        raise ValueError(f"fixed_spectrum needs {n} eigenvalues, got {lam.size}")
    if np.any(lam[m:] > 0):
        raise ValueError(f"rank of an {n} x {p} design is at most {m}; trailing eigenvalues must be 0")
    return lam


def gen_design(n: int, p: int, design: DesignSpec, seed: SeedSpec) -> np.ndarray:
    """Generate an n x p design matrix per the recipe, deterministically in seed."""
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if design.kind == "identity":
        return math.sqrt(p) * np.eye(n, p)
    if design.kind == "gaussian_iid":
        return rng_for(seed).standard_normal((n, p))

    lam = design_eigenvalues(n, p, design)
    m = min(n, p)
    rng = rng_for(seed)
    U = haar_orthogonal(n, rng)
    W = haar_orthogonal(p, rng)[:m, :]  # orthonormal rows of a random p-frame
    s = np.sqrt(p * lam[:m])
    return (U[:, :m] * s) @ W


def draw_effects(n: int, p: int, params: ModelParams, beta_law: SubGaussianLaw,
                 eps_law: SubGaussianLaw, seeds, coupling: CouplingSpec | None = None):
    """Effects beta (k, p), noise eps (k, n) and the effects that enter y (k, p),
    stacked by row; row i is drawn from the replicate stream of ``seeds[i]``.

    Beta and eps come from rescaled unit-variance laws on their own
    substreams.  Without coupling y uses beta itself, otherwise the coupled
    effects beta_tilde.
    """
    beta = math.sqrt(params.beta_variance(p)) * sample_rows(beta_law, p, seeds, _SUB_BETA)
    eps = math.sqrt(params.sigma_sq) * sample_rows(eps_law, n, seeds, _SUB_EPS)
    if coupling is None:
        return beta, eps, beta
    if coupling.scheme == "sparse_zero":
        k = int(round(coupling.fraction * p))
        beta_tilde = beta.copy()
        if k > 0:
            for row, seed in zip(beta_tilde, seeds):
                row[shared_rng(seed, _SUB_SPARSE).choice(p, size=k, replace=False)] = 0.0
        return beta, eps, beta_tilde
    # additive_perturb: unit directions so each distance equals delta exactly
    direction = sample_rows(beta_law, p, seeds, _SUB_PERTURB)
    for row in direction:
        row /= np.linalg.norm(row)
    return beta, eps, beta + coupling.delta * direction


def draw_eigenbasis(variances: np.ndarray, seeds) -> np.ndarray:
    """Outcomes already rotated into the Gram eigenbasis, (k, n), for
    independent Gaussian effects and noise; row i is drawn from the replicate
    stream of ``seeds[i]``.

    With y = X beta + eps, beta ~ N(0, sigma0^2 eta0^2 / p I) and
    eps ~ N(0, sigma0^2 I), the rotated outcome y_check = U'y given X is
    Gaussian with covariance U'(sigma0^2 eta0^2 XX'/p + sigma0^2 I)U =
    diag(sigma0^2 (eta0^2 lam_i + 1)): its coordinates are exactly
    independent N(0, ``variances``_i), so sqrt(variances) * z with standard
    normal z has the law of y_check without X, U or any product with them.
    On the n - r null coordinates of a rank-r design (lam_i = 0) the
    variance is sigma0^2, so their squares sum to sigma0^2 chi^2_{n-r}.
    """
    return np.sqrt(variances) * sample_rows(GAUSSIAN, variances.size, seeds, _SUB_EIGENBASIS)


def gen_independent(
    X: np.ndarray,
    params: ModelParams,
    beta_law: SubGaussianLaw,
    eps_law: SubGaussianLaw,
    seed: SeedSpec,
) -> Dataset:
    """Draw beta and eps from rescaled unit-variance laws and form y = X beta + eps."""
    return gen_coupled(X, params, beta_law, eps_law, None, seed)


def gen_coupled(
    X: np.ndarray,
    params: ModelParams,
    beta_law: SubGaussianLaw,
    eps_law: SubGaussianLaw,
    coupling: CouplingSpec | None,
    seed: SeedSpec,
) -> Dataset:
    """As gen_independent, but y uses the coupled effects beta_tilde.

    The independent partner beta (same substreams as gen_independent) and the
    realized coupling distance are retained on the returned dataset;
    ``coupling`` None is gen_independent.
    """
    X = np.asarray(X, dtype=np.float64)
    (beta,), (eps,), (beta_y,) = draw_effects(*X.shape, params, beta_law, eps_law, [seed], coupling)
    realized = None if coupling is None else replace(
        coupling, beta_tilde=beta_y, coupling_distance=float(np.linalg.norm(beta_y - beta))
    )
    return Dataset(
        X=X, y=X @ beta_y + eps, beta_true=beta, eps_true=eps, params=params,
        beta_law=beta_law, eps_law=eps_law, seed=seed, coupling=realized,
    )


def save_dataset(ds: Dataset, outdir: str | Path) -> None:
    """Write X.csv, y.csv and truth.json into a directory."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_matrix_csv(outdir / "X.csv", ds.X)
    save_matrix_csv(outdir / "y.csv", ds.y.reshape(-1, 1))
    truth = {
        "sigma2": ds.params.sigma_sq,
        "eta2": ds.params.eta_sq,
        "beta_law": ds.beta_law.name,
        "eps_law": ds.eps_law.name,
        "master_seed": ds.seed.master_seed,
        "stream_id": ds.seed.stream_id,
        "coupling": None
        if ds.coupling is None
        else {
            "scheme": ds.coupling.scheme,
            "delta": ds.coupling.delta,
            "fraction": ds.coupling.fraction,
            "coupling_distance": ds.coupling.coupling_distance,
        },
    }
    with open(outdir / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
