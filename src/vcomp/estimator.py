"""Maximum-likelihood variance-components estimation in the Gram eigenbasis.

With y_check = U'y and lambda the eigenvalues of XX'/p, every resolvent in the
Gaussian log-likelihood collapses to an O(n) sum:

    ell(sigma^2, eta^2) = -1/2 log sigma^2 - 1/(2n) sum log(eta^2 lam_i + 1)
                          - sstar(eta^2) / (2 sigma^2),
    sstar(eta^2)        = 1/n sum y_check_i^2 / (eta^2 lam_i + 1).

Profiling sigma^2 out gives ell_star(eta^2); its root function
H_star = 2 sstar d(ell_star)/d(eta^2) drives the one-dimensional search.
Population counterparts replace y_check_i^2 by its conditional expectation
sigma0^2 (eta0^2 lam_i + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, NonIdentifiableError, NumericalError
from .model import ModelParams
from .qform import _resolve_mu
from .spectrum import GramSpectrum, eigvar

#: eigenvalue-variance floor (relative to (lambda_1+1)^2) below which the
#: components are flagged non-identifiable
IDENT_FLOOR = 1e-10

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class ScoreState:
    """Observations rotated into the Gram eigenbasis."""

    y_check: np.ndarray
    spec: GramSpectrum

    @classmethod
    def from_observations(cls, spec: GramSpectrum, y: np.ndarray) -> "ScoreState":
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if y.size != spec.n:
            raise ValueError(f"y has length {y.size}, expected n={spec.n}")
        y_check = spec.U.T @ y
        ny, nyc = np.linalg.norm(y), np.linalg.norm(y_check)
        if abs(ny - nyc) > 1e-10 * max(1.0, ny):
            raise NumericalError("eigenvector basis is not orthogonal (norm not preserved)")
        return cls(y_check=y_check, spec=spec)

    @property
    def n(self) -> int:
        return self.spec.n


@dataclass(frozen=True)
class FitOptions:
    grid_points: int = 64
    golden_tol: float = 1e-8
    newton_max: int = 20
    t_cap: float = 1.0 - 1e-6
    trace: bool = True


@dataclass
class FitResult:
    """MLE output with the profile trace and diagnostic flags."""

    theta_hat: ModelParams
    eta_grid_trace: list[tuple[float, float]]
    boundary_flag: bool
    identifiability_flag: bool
    newton_iters: int
    psi_hat: np.ndarray | None = None
    cap_hit: bool = False
    tol_score: float = field(default=0.0, repr=False)


def sigma_star_sq(state: ScoreState, eta_sq: float) -> float:
    """Profiled-out error variance (1/n) sum y_check_i^2 / (eta^2 lam_i + 1)."""
    if eta_sq < 0:
        raise ValueError("eta_sq must be nonnegative")
    lam = state.spec.lambdas
    return float(np.mean(state.y_check**2 / (eta_sq * lam + 1.0)))


def sigma0_sq_of(eta_sq: float, params: ModelParams, spec: GramSpectrum) -> float:
    """Population counterpart (sigma0^2/n) sum (eta0^2 lam_i + 1)/(eta^2 lam_i + 1)."""
    if eta_sq < 0:
        raise ValueError("eta_sq must be nonnegative")
    lam = spec.lambdas
    return float(
        params.sigma_sq * np.mean((params.eta_sq * lam + 1.0) / (eta_sq * lam + 1.0))
    )


def loglik(state: ScoreState, theta: ModelParams) -> float:
    """Gaussian log-likelihood (per observation) at theta = (sigma^2, eta^2)."""
    lam = state.spec.lambdas
    logdet = float(np.mean(np.log(theta.eta_sq * lam + 1.0)))
    return (
        -0.5 * math.log(theta.sigma_sq)
        - 0.5 * logdet
        - sigma_star_sq(state, theta.eta_sq) / (2.0 * theta.sigma_sq)
    )


def profile_loglik(state: ScoreState, eta_sq: float) -> float:
    """ell evaluated at the profiled sigma^2: -1/2 log sstar - 1/(2n) sum log(.) - 1/2."""
    lam = state.spec.lambdas
    ss = sigma_star_sq(state, eta_sq)
    if ss <= 0.0:
        raise DegenerateDataError("profiled variance vanished (y = 0?)")
    logdet = float(np.mean(np.log(eta_sq * lam + 1.0)))
    return -0.5 * math.log(ss) - 0.5 * logdet - 0.5


def pop_profile_loglik(eta_sq: float, params: ModelParams, spec: GramSpectrum) -> float:
    """Population profile likelihood (additive constants included as displayed)."""
    lam = spec.lambdas
    logdet = float(np.mean(np.log(eta_sq * lam + 1.0)))
    return (
        -0.5 * math.log(sigma0_sq_of(eta_sq, params, spec))
        - 0.5 * logdet
        - 0.5 * math.log(params.sigma_sq)
        - 0.5
    )


def profile_score(state: ScoreState, eta_sq: float) -> float:
    """H_star(eta^2) = 2 sstar(eta^2) d(ell_star)/d(eta^2), in closed form."""
    if eta_sq < 0:
        raise ValueError("eta_sq must be nonnegative")
    lam = state.spec.lambdas
    r = 1.0 / (eta_sq * lam + 1.0)
    ych2 = state.y_check**2
    quad = float(np.mean(lam * ych2 * r * r))
    return quad - float(np.mean(ych2 * r)) * float(np.mean(lam * r))


def _profile_score_deriv(state: ScoreState, eta_sq: float) -> float:
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


def pop_profile_score(eta_sq: float, params: ModelParams, spec: GramSpectrum) -> float:
    """Population score H_0(eta^2) as the exact pairwise double sum.

    H_0 = sigma0^2 (eta0^2 - eta^2) / (2 n^2)
          * sum_{ij} (lam_i - lam_j)^2 / ((eta^2 lam_i+1)^2 (eta^2 lam_j+1)^2).
    """
    if eta_sq < 0:
        raise ValueError("eta_sq must be nonnegative")
    lam = spec.lambdas
    n = spec.n
    r = 1.0 / (eta_sq * lam + 1.0)
    diff = lam[:, None] - lam[None, :]
    weights = (r * r)[:, None] * (r * r)[None, :]
    total = float(np.sum(diff * diff * weights))
    return params.sigma_sq * (params.eta_sq - eta_sq) / (2.0 * n * n) * total


def pop_profile_score_moment(
    eta_sq: float, params: ModelParams, spec: GramSpectrum
) -> float:
    """H_0(eta^2) from its definition E{H_star | X}: first moments plugged in."""
    if eta_sq < 0:
        raise ValueError("eta_sq must be nonnegative")
    lam = spec.lambdas
    r = 1.0 / (eta_sq * lam + 1.0)
    ey2 = params.sigma_sq * (params.eta_sq * lam + 1.0)  # E y_check_i^2
    quad = float(np.mean(lam * ey2 * r * r))
    return quad - sigma0_sq_of(eta_sq, params, spec) * float(np.mean(lam * r))


def score(state: ScoreState, theta: ModelParams) -> np.ndarray:
    """Gradient of loglik at theta: (d/d sigma^2, d/d eta^2)."""
    lam = state.spec.lambdas
    s2, e2 = theta.sigma_sq, theta.eta_sq
    r = 1.0 / (e2 * lam + 1.0)
    ych2 = state.y_check**2
    s1 = float(np.mean(ych2 * r)) / (2.0 * s2 * s2) - 1.0 / (2.0 * s2)
    s2_comp = float(np.mean(lam * ych2 * r * r)) / (2.0 * s2) - 0.5 * float(
        np.mean(lam * r)
    )
    return np.array([s1, s2_comp])


def hessian(state: ScoreState, theta: ModelParams) -> np.ndarray:
    """Observed second-derivative matrix J(theta) of loglik, in closed form."""
    lam = state.spec.lambdas
    s2, e2 = theta.sigma_sq, theta.eta_sq
    r = 1.0 / (e2 * lam + 1.0)
    ych2 = state.y_check**2
    j11 = 1.0 / (2.0 * s2 * s2) - float(np.mean(ych2 * r)) / s2**3
    j12 = -float(np.mean(lam * ych2 * r * r)) / (2.0 * s2 * s2)
    j22 = 0.5 * float(np.mean(lam**2 * r * r)) - float(np.mean(lam**2 * ych2 * r**3)) / s2
    return np.array([[j11, j12], [j12, j22]])


def expected_hessian(
    theta: ModelParams, params: ModelParams, spec: GramSpectrum
) -> np.ndarray:
    """J_0(theta) = E{J(theta) | X} under truth ``params``; E y_check_i^2 is plugged in."""
    lam = spec.lambdas
    s2, e2 = theta.sigma_sq, theta.eta_sq
    s02, e02 = params.sigma_sq, params.eta_sq
    r = 1.0 / (e2 * lam + 1.0)
    g = (e02 * lam + 1.0) * r  # E y_check_i^2 / sigma0^2 times the resolvent
    j11 = 1.0 / (2.0 * s2 * s2) - s02 * float(np.mean(g)) / s2**3
    j12 = -s02 * float(np.mean(lam * g * r)) / (2.0 * s2 * s2)
    j22 = 0.5 * float(np.mean(lam**2 * r * r)) - s02 * float(
        np.mean(lam**2 * g * r * r)
    ) / s2
    return np.array([[j11, j12], [j12, j22]])


def expected_hessian_det(params: ModelParams, spec: GramSpectrum) -> float:
    """det J_0(theta_0) via the exact pairwise identity
    (1/(8 sigma0^4 n^2)) sum_{ij} (lam_i-lam_j)^2/((eta0^2 lam_i+1)^2 (eta0^2 lam_j+1)^2)."""
    lam = spec.lambdas
    n = spec.n
    r = 1.0 / (params.eta_sq * lam + 1.0)
    diff = lam[:, None] - lam[None, :]
    weights = (r * r)[:, None] * (r * r)[None, :]
    total = float(np.sum(diff * diff * weights))
    return total / (8.0 * params.sigma_sq**2 * n * n)


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------


def _eta_of_t(t: float) -> float:
    return t / (1.0 - t)


def fit_mle(state: ScoreState, options: FitOptions | None = None) -> FitResult:
    """Maximize the profile likelihood over eta^2 >= 0, then set sigma^2 = sstar.

    Search: coarse grid on t = eta^2/(1+eta^2) in [0, t_cap], golden-section
    refinement around the best cell, then safeguarded Newton on H_star within
    the refined bracket.  Exact ties resolve to the smallest maximizer; the
    grid maximum sitting at t = 0 with H_star(0) <= 0 is returned as the
    boundary point eta^2 = 0.
    """
    opts = options or FitOptions()
    if not np.any(state.y_check):
        raise DegenerateDataError("y = 0: error variance degenerates to 0")

    spec = state.spec
    ident_flag = eigvar(spec) < IDENT_FLOOR * (spec.lambda_1 + 1.0) ** 2

    ts = np.linspace(0.0, opts.t_cap, opts.grid_points)
    etas = ts / (1.0 - ts)
    lls = np.array([profile_loglik(state, e) for e in etas])
    if not np.all(np.isfinite(lls)):
        raise NumericalError("profile likelihood is non-finite on the search grid")
    trace = list(zip(etas.tolist(), lls.tolist())) if opts.trace else []

    h0 = profile_score(state, 0.0)
    tol_score = 1e-8 * (1.0 + abs(h0))
    # smallest maximizer under exact ties; fp noise within 1e-12 counts as a tie
    ll_max = float(np.max(lls))
    tie_tol = 1e-12 * (1.0 + abs(ll_max))
    best = int(np.argmax(lls >= ll_max - tie_tol))

    newton_iters = 0
    cap_hit = False
    if best == 0 and h0 <= 0.0:
        eta_hat = 0.0
    else:
        t_lo = ts[max(best - 1, 0)]
        t_hi = ts[min(best + 1, len(ts) - 1)]
        t_star = _golden_max(
            lambda t: profile_loglik(state, _eta_of_t(t)), t_lo, t_hi, opts.golden_tol
        )
        eta_lo, eta_hi = _eta_of_t(t_lo), _eta_of_t(t_hi)
        eta_hat, newton_iters = _newton_polish(
            state, _eta_of_t(t_star), eta_lo, eta_hi, tol_score, opts.newton_max
        )
        eta_hat = max(eta_hat, 0.0)
        if eta_hat >= _eta_of_t(opts.t_cap) * (1.0 - 1e-12):
            cap_hit = True

    eta_hat = float(eta_hat)
    sigma_hat = sigma_star_sq(state, eta_hat)
    theta_hat = ModelParams(sigma_sq=sigma_hat, eta_sq=eta_hat)

    psi_hat = None
    if not ident_flag:
        fisher = gaussian_fisher(theta_hat, spec)
        det = float(np.linalg.det(fisher))
        if det > 1e-12 * max(1.0, float(np.max(np.abs(fisher))) ** 2):
            psi_hat = np.linalg.inv(fisher)

    return FitResult(
        theta_hat=theta_hat,
        eta_grid_trace=trace,
        boundary_flag=(eta_hat == 0.0),
        identifiability_flag=bool(ident_flag),
        newton_iters=newton_iters,
        psi_hat=psi_hat,
        cap_hit=cap_hit,
        tol_score=tol_score,
    )


def _golden_max(fn, a: float, b: float, tol: float) -> float:
    """Golden-section maximization of fn on [a, b] to interval width tol."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 >= f2:  # ">=" keeps ties drifting toward the smaller end
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
    return 0.5 * (a + b)


def _newton_polish(
    state: ScoreState,
    eta0: float,
    lo: float,
    hi: float,
    tol: float,
    max_iter: int,
) -> tuple[float, int]:
    """Safeguarded Newton on H_star = 0, clamped to [lo, hi]; falls back to
    bisection steps when Newton leaves the bracket or stalls."""
    lo = max(lo, 0.0)
    h_lo = profile_score(state, lo)
    h_hi = profile_score(state, hi)
    eta = min(max(eta0, lo), hi)
    iters = 0
    # Newton phase (counted), then a bisection tail to enforce the tolerance.
    for phase_limit, newton_step in ((max_iter, True), (200, False)):
        for _ in range(phase_limit):
            h = profile_score(state, eta)
            if abs(h) < tol:
                return eta, iters
            # maintain a sign-changing bracket when one exists
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
            if newton_step:
                iters += 1
            if hi - lo < 1e-15 * max(1.0, hi):
                return eta, iters
    return eta, iters


# ---------------------------------------------------------------------------
# Score covariance and asymptotic covariance
# ---------------------------------------------------------------------------


def standardized_map(params: ModelParams, spec: GramSpectrum, X: np.ndarray) -> np.ndarray:
    """The n x (n+p) matrix C with y_check = C z at theta_0.

    Here z = (sqrt(p) beta'/tau_0, eps'/sigma_0)' has independent unit-variance
    coordinates, so every score component is a quadratic form in z.
    """
    p = X.shape[1]
    s0 = math.sqrt(params.sigma_sq)
    tau0 = math.sqrt(params.sigma_sq * params.eta_sq)
    return np.hstack([(tau0 / math.sqrt(p)) * (spec.U.T @ X), s0 * spec.U.T])


def _standardized_mu(
    laws: tuple, p: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate (mu3, mu4) for z = (effects block, noise block)."""
    beta_m, eps_m = laws
    mu3b, mu4b = _resolve_mu(beta_m, p)
    mu3e, mu4e = _resolve_mu(eps_m, n)
    mu3 = np.concatenate([np.full(p, 0.0 if mu3b is None else mu3b),
                          np.full(n, 0.0 if mu3e is None else mu3e)])
    mu4 = np.concatenate([np.full(p, float(mu4b)), np.full(n, float(mu4e))])
    return mu3, mu4


def score_covariance(
    params: ModelParams,
    spec: GramSpectrum,
    X: np.ndarray,
    laws: tuple,
) -> np.ndarray:
    """Exact conditional covariance of the sqrt(n)-scaled score at theta_0.

    ``laws`` is a pair (effects, noise) of laws or moment tuples.  The score
    components are S_k = z'M_k z - tr(M_k) with M_k = C' diag(w_k) C and C the
    standardized map; the covariance is computed without materializing the
    (n+p) x (n+p) matrices M_k, and equals the Gaussian Fisher information when
    both laws are Gaussian.
    """
    from .errors import UnsupportedLawError

    if params.eta_sq <= 0:
        raise ValueError("score covariance needs eta0^2 > 0")
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    mu3, mu4 = _standardized_mu(laws, p, n)
    if np.any(mu3 != 0.0):
        raise UnsupportedLawError("score covariance requires symmetric laws (mu3 = 0)")

    lam = spec.lambdas
    C = standardized_map(params, spec, X)
    w1 = 1.0 / (2.0 * params.sigma_sq**2 * n * (params.eta_sq * lam + 1.0))
    w2 = lam / (2.0 * params.sigma_sq * n * (params.eta_sq * lam + 1.0) ** 2)

    C_sq = C * C
    diag1 = w1 @ C_sq  # diag of M1, length n+p
    diag2 = w2 @ C_sq
    # C C' = sigma0^2 diag(eta0^2 lam + 1) makes tr(M_k M_l) an O(n) sum
    cc = params.sigma_sq * (params.eta_sq * lam + 1.0)
    kurt = mu4 - 3.0
    info = np.empty((2, 2))
    for i, (wi, di) in enumerate(((w1, diag1), (w2, diag2))):
        for j, (wj, dj) in enumerate(((w1, diag1), (w2, diag2))):
            if j < i:
                continue
            tr_ij = float(np.sum(wi * wj * cc * cc))
            info[i, j] = info[j, i] = n * (float(np.sum(kurt * di * dj)) + 2.0 * tr_ij)
    return info


def gaussian_fisher(params: ModelParams, spec: GramSpectrum) -> np.ndarray:
    """Gaussian Fisher information for (sigma^2, eta^2) at ``params``."""
    lam = spec.lambdas
    s2, e2 = params.sigma_sq, params.eta_sq
    r = 1.0 / (e2 * lam + 1.0)
    i11 = 1.0 / (2.0 * s2 * s2)
    i12 = float(np.mean(lam * r)) / (2.0 * s2)
    i22 = 0.5 * float(np.mean(lam**2 * r * r))
    return np.array([[i11, i12], [i12, i22]])


def asymptotic_cov(
    params: ModelParams,
    spec: GramSpectrum,
    X: np.ndarray,
    laws: tuple,
) -> np.ndarray:
    """Sandwich covariance of sqrt(n)(theta_hat - theta_0): J0^-1 I J0^-1."""
    j0 = expected_hessian(params, params, spec)
    det = float(np.linalg.det(j0))
    scale = float(np.max(np.abs(j0))) ** 2
    if not det > 1e-12 * max(scale, 1e-300):
        raise NonIdentifiableError(
            f"expected Hessian is singular (det {det:.3e}); components not identifiable"
        )
    info = score_covariance(params, spec, X, laws)
    j0_inv = np.linalg.inv(j0)
    psi = j0_inv @ info @ j0_inv
    return 0.5 * (psi + psi.T)


def fit_result_to_dict(fit: FitResult) -> dict:
    """JSON-ready summary of a fit."""
    return {
        "sigma2_hat": fit.theta_hat.sigma_sq,
        "eta2_hat": fit.theta_hat.eta_sq,
        "boundary": fit.boundary_flag,
        "identifiable": not fit.identifiability_flag,
        "psi": None if fit.psi_hat is None else [float(v) for v in fit.psi_hat.ravel()],
        "newton_iters": fit.newton_iters,
        "cap_hit": fit.cap_hit,
    }
