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

The MLE search fits a whole (reps, n) block of replicates at once.  On a
fixed grid of t = eta^2/(1+eta^2) the resolvent does not depend on the
replicate, so ell_star, H_star and H_star' at every grid point of every row
are one matrix product.  Each row then runs a masked, safeguarded Newton
iteration on H_star inside the grid cells beside its grid maximum; the rows
report whether they converged, and whether they stopped at eta^2 = 0 or at
the grid's cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, NonIdentifiableError, NumericalError
from .model import ModelParams
from .laws import SubGaussianLaw
from .qform import qf_cov_terms
from .spectrum import GramSpectrum, checked_outcomes, eigvar

#: eigenvalue-variance floor (relative to (lambda_1+1)^2) below which the
#: components are flagged non-identifiable
IDENT_FLOOR = 1e-10
#: the MLE search: GRID_POINTS values of t = eta^2/(1+eta^2) on [0, T_CAP],
#: then at most NEWTON_MAX Newton or bisection steps per row
GRID_POINTS = 64
T_CAP = 1.0 - 1e-6
NEWTON_MAX = 50
#: the one eta^2 grid, 0 to about 1e6: the fit, its trace and the tail's supremum
ETA_GRID = np.linspace(0.0, T_CAP, GRID_POINTS) / (1.0 - np.linspace(0.0, T_CAP, GRID_POINTS))
ETA_GRID.flags.writeable = False


def not_identifiable(spec: GramSpectrum) -> bool:
    """Whether the eigenvalues spread too little to separate the components."""
    return eigvar(spec) < IDENT_FLOOR * (spec.lambda_1 + 1.0) ** 2


@dataclass
class ScoreState:
    """Observations rotated into the Gram eigenbasis."""

    y_check: np.ndarray
    spec: GramSpectrum

    @classmethod
    def from_observations(cls, spec: GramSpectrum, y: np.ndarray, y_check: np.ndarray | None = None) -> "ScoreState":
        """``y`` rotated by ``spec.U``, or given rotated as ``y_check``
        (``spectrum.decompose_gram_rotating``), checked to keep its norm."""
        y = checked_outcomes(y, spec.n)
        if y_check is None:
            y_check = spec.U.T @ y
        # both norms at y / 2^e, |y| < 2^e: exact, and neither over- nor underflows
        e = np.frexp(np.max(np.abs(y)))[1]
        ny, nyc = np.linalg.norm(np.ldexp(y, -e)), np.linalg.norm(np.ldexp(y_check, -e))
        if abs(ny - nyc) > 1e-10 * max(1.0, ny):
            raise NumericalError("eigenvector basis is not orthogonal (norm not preserved)")
        return cls(y_check=y_check, spec=spec)

    @property
    def n(self) -> int:
        return self.spec.n


@dataclass(frozen=True)
class FitOptions:
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
    converged: bool = True
    score_residual: float = 0.0


def _pop_sq(params: ModelParams, spec: GramSpectrum) -> np.ndarray:
    """The population row E{y_check_i^2 | X} = sigma0^2 (eta0^2 lam_i + 1)."""
    return params.sigma_sq * (params.eta_sq * spec.lambdas + 1.0)


def _resolvent_sums(y_sq: np.ndarray, lam: np.ndarray, etas, n: int | None = None):
    """The eigenbasis sums behind every likelihood quantity, on a grid of eta^2.

    With r_i = 1/(eta^2 lam_i + 1), each row of the (rows, n) block ``y_sq``
    (sampled y_check^2, or the population row ``_pop_sq``) gives the (rows, G)
    means sstar = (1/n) sum y^2 r, quad = (1/n) sum lam y^2 r^2 and
    cube = (1/n) sum lam^2 y^2 r^3, all from one (rows, n) @ (n, 3G) product.
    The row-free (G,) means of lam r, lam^2 r^2 and log(eta^2 lam + 1) follow.
    Every sum divides by ``n``, by default ``lam.size``; a caller that has
    summed coordinates with lam = 0 into one column passes the true n.
    """
    etas = np.asarray(etas, dtype=np.float64)
    if (etas < 0).any():
        raise ValueError("eta_sq must be nonnegative")
    n, g = lam.size if n is None else n, etas.size
    shifted = np.multiply.outer(lam, etas) + 1.0  # (n, G), the same for every row
    res = 1.0 / shifted
    lres = lam[:, None] * res
    l2r2 = lres * lres
    sums = y_sq @ (np.concatenate([res, lres * res, l2r2 * res], axis=1) / n)
    # sum / n is bitwise the mean, without np.mean's per-call overhead
    return (sums[:, :g], sums[:, g:2 * g], sums[:, 2 * g:], lres.sum(axis=0) / n,
            l2r2.sum(axis=0) / n, np.log(shifted).sum(axis=0) / n)


def _sums_at(y_sq: np.ndarray, spec: GramSpectrum, eta_sq: float) -> list[float]:
    """``_resolvent_sums`` of one row at one eta^2, as six floats."""
    return [v.item(0) for v in _resolvent_sums(y_sq[None], spec.lambdas, [eta_sq])]


def _score_terms(ss, quad, cube, mlr, ml2r2):
    """(H_star, H_star') from the means of y^2 r, lam y^2 r^2, lam^2 y^2 r^3,
    lam r and lam^2 r^2, where r = 1/(eta^2 lam + 1)."""
    return quad - ss * mlr, -2.0 * cube + quad * mlr + ss * ml2r2


def sigma_star_sq(state: ScoreState, eta_sq: float) -> float:
    """Profiled-out error variance (1/n) sum y_check_i^2 / (eta^2 lam_i + 1)."""
    return _sums_at(state.y_check**2, state.spec, eta_sq)[0]


def sigma0_sq_of(eta_sq: float, params: ModelParams, spec: GramSpectrum) -> float:
    """Population counterpart (sigma0^2/n) sum (eta0^2 lam_i + 1)/(eta^2 lam_i + 1)."""
    return _sums_at(_pop_sq(params, spec), spec, eta_sq)[0]


def loglik(state: ScoreState, theta: ModelParams) -> float:
    """Gaussian log-likelihood (per observation) at theta = (sigma^2, eta^2)."""
    ss, *_, logdet = _sums_at(state.y_check**2, state.spec, theta.eta_sq)
    return -0.5 * math.log(theta.sigma_sq) - 0.5 * logdet - ss / (2.0 * theta.sigma_sq)


def profile_loglik(state: ScoreState, eta_sq: float) -> float:
    """ell evaluated at the profiled sigma^2: -1/2 log sstar - 1/(2n) sum log(.) - 1/2."""
    ss, *_, logdet = _sums_at(state.y_check**2, state.spec, eta_sq)
    if ss <= 0.0:
        raise DegenerateDataError("profiled variance vanished (y = 0?)")
    return -0.5 * math.log(ss) - 0.5 * logdet - 0.5


def profile_score(state: ScoreState, eta_sq: float) -> float:
    """H_star(eta^2) = 2 sstar(eta^2) d(ell_star)/d(eta^2), in closed form."""
    return _score_terms(*_sums_at(state.y_check**2, state.spec, eta_sq)[:5])[0]


# The pairwise forms (pop_profile_score, expected_hessian_det) do not go
# through _resolvent_sums: they are the independent route that the moment
# forms are checked against.
def _pair_spread(lam: np.ndarray, w: np.ndarray) -> float:
    """sum_ij (lam_i - lam_j)^2 w_i w_j = 2[(sum w)(sum w lam^2) - (sum w lam)^2],
    in O(n) and in the centered form 2 (sum w) sum w (lam - lam_w)^2, where
    lam_w is the w-weighted mean, which does not cancel."""
    sw = float(np.sum(w))
    dev = lam - float(w @ lam) / sw
    return 2.0 * sw * float(w @ (dev * dev))


def pop_profile_score(eta_sq: float, params: ModelParams, spec: GramSpectrum) -> float:
    """Population score H_0(eta^2) as the pairwise double sum, in O(n):

    H_0 = sigma0^2 (eta0^2 - eta^2) / (2 n^2)
          * sum_{ij} (lam_i - lam_j)^2 / ((eta^2 lam_i+1)^2 (eta^2 lam_j+1)^2).
    """
    if eta_sq < 0:
        raise ValueError("eta_sq must be nonnegative")
    n = spec.n
    r = 1.0 / (eta_sq * spec.lambdas + 1.0)
    total = _pair_spread(spec.lambdas, r * r)
    return params.sigma_sq * (params.eta_sq - eta_sq) / (2.0 * n * n) * total


def pop_profile_score_moment(
    eta_sq: float, params: ModelParams, spec: GramSpectrum
) -> float:
    """H_0(eta^2) from its definition E{H_star | X}: first moments plugged in."""
    return _score_terms(*_sums_at(_pop_sq(params, spec), spec, eta_sq)[:5])[0]


def _theta_score(ss, quad, mlr, s2):
    """(d/d sigma^2, d/d eta^2) of loglik from the kernel's sums, on the last axis."""
    return np.stack([ss / (2.0 * s2 * s2) - 1.0 / (2.0 * s2), quad / (2.0 * s2) - 0.5 * mlr], axis=-1)


def score(state: ScoreState, theta: ModelParams) -> np.ndarray:
    """Gradient of loglik at theta: (d/d sigma^2, d/d eta^2)."""
    ss, quad, _, mlr, *_ = _sums_at(state.y_check**2, state.spec, theta.eta_sq)
    return _theta_score(ss, quad, mlr, theta.sigma_sq)


def _hessian(y_sq: np.ndarray, spec: GramSpectrum, theta: ModelParams) -> np.ndarray:
    """J(theta) on a sample row; on the population row, its expectation J_0(theta)."""
    s2 = theta.sigma_sq
    ss, quad, cube, _, ml2r2, _ = _sums_at(y_sq, spec, theta.eta_sq)
    j11 = 1.0 / (2.0 * s2 * s2) - ss / s2**3
    j12 = -quad / (2.0 * s2 * s2)
    return np.array([[j11, j12], [j12, 0.5 * ml2r2 - cube / s2]])


def hessian(state: ScoreState, theta: ModelParams) -> np.ndarray:
    """Observed second-derivative matrix J(theta) of loglik, in closed form."""
    return _hessian(state.y_check**2, state.spec, theta)


def expected_hessian(
    theta: ModelParams, params: ModelParams, spec: GramSpectrum
) -> np.ndarray:
    """J_0(theta) = E{J(theta) | X} under truth ``params``; E y_check_i^2 is plugged in."""
    return _hessian(_pop_sq(params, spec), spec, theta)


def expected_hessian_det(params: ModelParams, spec: GramSpectrum) -> float:
    """det J_0(theta_0) via the pairwise identity, evaluated in O(n):
    (1/(8 sigma0^4 n^2)) sum_{ij} (lam_i-lam_j)^2/((eta0^2 lam_i+1)^2 (eta0^2 lam_j+1)^2)."""
    n = spec.n
    r = 1.0 / (params.eta_sq * spec.lambdas + 1.0)
    return _pair_spread(spec.lambdas, r * r) / (8.0 * params.sigma_sq**2 * n * n)


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------


def _score_rows(y_check_sq: np.ndarray, lam: np.ndarray, eta: np.ndarray, n: int | None = None):
    """(sstar, H_star, H_star') on each row of a (reps, n) block of y_check^2,
    each row at its own eta^2; one reused resolvent buffer.  Kept apart from
    ``_resolvent_sums``, whose grid is shared by every row; ``n`` is the
    normaliser, as there."""
    n = lam.size if n is None else n
    res = np.multiply(eta[:, None], lam)
    res += 1.0
    np.reciprocal(res, out=res)  # r
    yr = y_check_sq * res
    res *= lam  # lam r
    ss = yr.sum(axis=1) / n
    quad = np.einsum("ij,ij->i", yr, res) / n
    yr *= res  # y^2 lam r^2
    cube = np.einsum("ij,ij->i", yr, res) / n
    mlr, ml2r2 = res.sum(axis=1) / n, np.einsum("ij,ij->i", res, res) / n
    return ss, *_score_terms(ss, quad, cube, mlr, ml2r2)


@dataclass
class FitBlock:
    """MLE output for a (reps, n) block of y_check, one row per replicate."""

    theta: np.ndarray  # (reps, 2): sigma^2, eta^2
    boundary: np.ndarray
    cap_hit: np.ndarray
    converged: np.ndarray
    newton_iters: int  # total over the rows
    score_residual: np.ndarray  # |H_star| at eta-hat


def _fit_block(y_check_sq: np.ndarray, lam: np.ndarray):
    """The batched search; returns the block, its (reps, G) profile
    log-likelihood on ``ETA_GRID``, and each row's score tolerance."""
    reps = y_check_sq.shape[0]
    last = GRID_POINTS - 1
    ss, quad, cube, mlr, ml2r2, logdet = _resolvent_sums(y_check_sq, lam, ETA_GRID)
    with np.errstate(divide="ignore", invalid="ignore"):
        lls = -0.5 * np.log(ss) - 0.5 * logdet - 0.5
    if not np.all(np.isfinite(lls)):
        raise NumericalError("profile likelihood is non-finite on the search grid")
    h, hp = _score_terms(ss, quad, cube, mlr, ml2r2)

    rows = np.arange(reps)
    tol = 1e-8 * (1.0 + np.abs(h[:, 0]))
    # smallest maximizer under exact ties; fp noise within 1e-12 counts as a tie
    ll_max = lls.max(axis=1)
    ll_floor = ll_max - 1e-12 * (1.0 + np.abs(ll_max))
    best = np.argmax(lls >= ll_floor[:, None], axis=1)
    lo_i, hi_i = np.maximum(best - 1, 0), np.minimum(best + 1, last)
    lo, hi = ETA_GRID[lo_i], ETA_GRID[hi_i]
    bracket = (h[rows, lo_i] > 0.0) & (h[rows, hi_i] < 0.0)
    at_zero = (best == 0) & (h[:, 0] <= 0.0)
    at_cap = ~bracket & (best == last) & (h[:, last] >= 0.0)

    eta = ETA_GRID[best]
    sigma, cur_h, cur_hp = ss[rows, best], h[rows, best], hp[rows, best]
    converged = at_zero | at_cap
    iters = np.zeros(reps, dtype=np.int64)
    active = np.flatnonzero(~converged)
    for _ in range(NEWTON_MAX):
        if active.size == 0:
            break
        e, hh, dd = eta[active], cur_h[active], cur_hp[active]
        step = np.divide(-hh, dd, out=np.zeros_like(hh), where=dd != 0.0)
        small = 1e-10 * (1.0 + e) ** 2  # 1e-10 in t
        done = (np.abs(hh) < tol[active]) & (
            (np.abs(step) < small) | (hi[active] - lo[active] < small)
        )
        converged[active[done]] = True
        keep = ~done
        active, e, hh, step = active[keep], e[keep], hh[keep], step[keep]
        # shrink a sign-changing bracket onto the side that still holds the root
        sign = bracket[active]
        lo[active] = np.where(sign & (hh > 0.0), e, lo[active])
        hi[active] = np.where(sign & (hh <= 0.0), e, hi[active])
        trial = e + step
        inside = (step != 0.0) & (trial > lo[active]) & (trial < hi[active])
        e = np.where(inside, trial, 0.5 * (lo[active] + hi[active]))
        sigma[active], cur_h[active], cur_hp[active] = _score_rows(y_check_sq[active], lam, e)
        eta[active] = e
        iters[active] += 1

    # the log-determinant at each row's own eta^2, as in _score_rows
    ll = -0.5 * np.log(sigma) - 0.5 * np.log(np.multiply.outer(eta, lam) + 1.0).mean(axis=1) - 0.5
    # a root the search found below the grid maximum is a local optimum only:
    # fall back to the grid maximizer, unconverged
    worse = ll < ll_floor
    eta[worse], sigma[worse] = ETA_GRID[best[worse]], ss[worse, best[worse]]
    cur_h[worse] = h[worse, best[worse]]
    converged[worse] = False
    block = FitBlock(
        theta=np.column_stack([sigma, eta]),
        boundary=eta == 0.0,
        cap_hit=eta >= ETA_GRID[last] * (1.0 - 1e-12),
        converged=converged,
        newton_iters=int(iters.sum()),
        score_residual=np.abs(cur_h),
    )
    return block, lls, tol


def fit_mle(state: ScoreState, options: FitOptions | None = None) -> FitResult | FitBlock:
    """Maximize the profile likelihood over eta^2 >= 0, then set sigma^2 = sstar.

    A 1-D ``state.y_check`` gives a ``FitResult``; a (reps, n) block gives a
    ``FitBlock``, one row per replicate.  Each row's search starts from the
    smallest maximizer of the grid profile likelihood.  At t = 0 with
    H_star(0) <= 0 it returns the boundary point eta^2 = 0; at the cap with
    H_star >= 0 and no root bracketed it stays there (``cap_hit``).  Otherwise
    Newton steps on H_star stay inside the neighbouring grid cells and fall
    back to bisecting a sign-changing bracket (or to the cell midpoint); a row
    converges when |H_star| < tol_score and the step or the bracket is below
    1e-10 (1+eta^2)^2, i.e. 1e-10 in t.  A row that runs out of ``NEWTON_MAX``
    steps, or whose root lies below its grid maximum (then the grid maximizer
    is returned), has ``converged`` False.  ``score_residual`` is |H_star| at
    the returned eta^2.  Rows are fitted at a power-of-two scale (exact), so
    the fit is scale-equivariant from tiny to huge y (a sigma^2 beyond the
    float range raises ``NumericalError``); ``psi_hat`` is None for
    a non-identifiable or near-singular fit, or when an entry leaves the
    normal float range.
    """
    opts = options or FitOptions()
    y_check = np.asarray(state.y_check, dtype=np.float64)
    y_block = np.atleast_2d(y_check)
    if not np.all(np.any(y_block, axis=1)):
        raise DegenerateDataError("y = 0: error variance degenerates to 0")
    spec = state.spec
    # each row is fitted divided by 2^e, its largest |y_i| in [1/2, 1): exact,
    # and y^2 neither under- nor overflows; sigma^2 and H_star scale by 4^e
    expo = np.frexp(np.max(np.abs(y_block), axis=1))[1]
    block, lls, tol = _fit_block(np.ldexp(y_block, -expo[:, None]) ** 2, spec.lambdas)
    with np.errstate(over="ignore"):  # an overflow is raised below, not warned
        block.theta[:, 0] = np.ldexp(block.theta[:, 0], 2 * expo)
        block.score_residual = np.ldexp(block.score_residual, 2 * expo)
    if not np.all(np.isfinite(block.theta[:, 0])):
        raise NumericalError("sigma^2 estimate overflows the float range; rescale y")
    if y_check.ndim == 2:
        return block

    sigma_hat, eta_hat = (float(v) for v in block.theta[0])
    theta_hat = ModelParams(sigma_sq=sigma_hat, eta_sq=eta_hat)
    ident_flag = not_identifiable(spec)
    psi_hat = None
    if not ident_flag:
        # F(sigma^2, eta^2) = D F(1, eta^2) D with D = diag(1/sigma^2, 1), so
        # psi = F^-1 is F(1, eta^2)^-1 times [[sigma^4, sigma^2], [sigma^2, 1]]
        fisher = gaussian_fisher(ModelParams(1.0, eta_hat), spec)
        if _nonsingular(fisher):
            psi_1 = np.linalg.inv(fisher)
            psi_1 = 0.5 * (psi_1 + psi_1.T)
            scale = np.array([sigma_hat, 1.0])
            with np.errstate(over="ignore", under="ignore"):
                psi = psi_1 * scale[:, None] * scale
            # an entry that leaves the normal float range is not reported as inf or 0
            if np.all((np.abs(psi) >= np.finfo(float).tiny) & np.isfinite(psi) | (psi_1 == 0.0)):
                psi_hat = psi

    return FitResult(
        theta_hat=theta_hat,
        eta_grid_trace=list(zip(ETA_GRID.tolist(), (lls[0] - expo[0] * math.log(2.0)).tolist()))
        if opts.trace else [],
        boundary_flag=bool(block.boundary[0]),
        identifiability_flag=bool(ident_flag),
        newton_iters=block.newton_iters,
        psi_hat=psi_hat,
        cap_hit=bool(block.cap_hit[0]),
        tol_score=float(np.ldexp(tol[0], 2 * expo[0])),
        converged=bool(block.converged[0]),
        score_residual=float(block.score_residual[0]),
    )


# ---------------------------------------------------------------------------
# Score covariance and asymptotic covariance
# ---------------------------------------------------------------------------


def _nonsingular(info: np.ndarray) -> bool:
    """Whether a 2x2 information (or expected Hessian) is nonsingular: the two
    scores are not almost perfectly correlated, F01^2 < (1 - 1e-12) F00 F11.
    Unlike det F, the correlation does not depend on the scale of y or of
    sigma^2, whose entries are sigma^-4, sigma^-2 and O(1)."""
    return bool(info[0, 1] ** 2 < (1.0 - 1e-12) * info[0, 0] * info[1, 1])


def standardized_map(params: ModelParams, spec: GramSpectrum, X: np.ndarray) -> np.ndarray:
    """The n x (n+p) matrix C with y_check = C z at theta_0.

    Here z = (sqrt(p) beta'/tau_0, eps'/sigma_0)' has independent unit-variance
    coordinates, so every score component is a quadratic form in z.
    """
    n, p = X.shape
    s0 = math.sqrt(params.sigma_sq)
    tau0 = math.sqrt(params.sigma_sq * params.eta_sq)
    # [tau0/sqrt(p) U'X | s0 U'] made in its own buffer: no block is a temporary
    C = np.empty((n, p + n))
    np.matmul(spec.U.T, X, out=C[:, :p])
    C[:, :p] *= tau0 / math.sqrt(p)
    np.multiply(spec.U.T, s0, out=C[:, p:])
    return C


def score_covariance(
    params: ModelParams,
    spec: GramSpectrum,
    X: np.ndarray,
    laws: tuple[SubGaussianLaw, SubGaussianLaw],
) -> np.ndarray:
    """Exact conditional covariance of the sqrt(n)-scaled score at theta_0.

    ``laws`` is the pair (effects law, noise law).  The score components are
    S_k = z'M_k z - tr(M_k) with M_k = C' diag(w_k) C and C the standardized
    map; each entry is ``qf_cov_terms`` of diag(M_k), diag(M_l) and tr(M_k M_l),
    found without the (n+p) x (n+p) matrices M_k.  It equals the Gaussian
    Fisher information when both laws are Gaussian.
    """
    if params.eta_sq <= 0:
        raise ValueError("score covariance needs eta0^2 > 0")
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    # one kurtosis per coordinate of z = (effects block, noise block)
    kurt = np.concatenate([np.full(p, laws[0].excess_kurtosis), np.full(n, laws[1].excess_kurtosis)])

    lam = spec.lambdas
    # the score's weights over i, M_k = C' diag(w_k) C; vectors, not the kernel's sums
    w1 = 1.0 / (2.0 * params.sigma_sq**2 * n * (params.eta_sq * lam + 1.0))
    w2 = lam / (2.0 * params.sigma_sq * n * (params.eta_sq * lam + 1.0) ** 2)

    C_sq = standardized_map(params, spec, X)
    np.square(C_sq, out=C_sq)  # in place: no second n x (n+p) array
    terms = ((w1, w1 @ C_sq), (w2, w2 @ C_sq))  # each weight vector with diag(M_k)
    # C C' = diag(E y_check^2) makes tr(M_k M_l) an O(n) sum
    cc = _pop_sq(params, spec)
    info = np.empty((2, 2))
    for (i, (wi, di)), (j, (wj, dj)) in itertools.combinations_with_replacement(enumerate(terms), 2):
        tr_ij = float(np.sum(wi * wj * cc * cc))
        info[i, j] = info[j, i] = n * qf_cov_terms(di, dj, tr_ij, kurt)
    return info


def gaussian_fisher(params: ModelParams, spec: GramSpectrum) -> np.ndarray:
    """Gaussian Fisher information for (sigma^2, eta^2) at ``params``: minus the
    expected Hessian at the truth."""
    return -expected_hessian(params, params, spec)


def asymptotic_cov(
    params: ModelParams,
    spec: GramSpectrum,
    X: np.ndarray,
    laws: tuple,
) -> np.ndarray:
    """Sandwich covariance of sqrt(n)(theta_hat - theta_0): J0^-1 I J0^-1."""
    j0 = expected_hessian(params, params, spec)
    if not _nonsingular(j0):
        raise NonIdentifiableError(
            f"expected Hessian is singular (det {np.linalg.det(j0):.3e}); components not identifiable"
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
        "converged": fit.converged,
        "score_residual": fit.score_residual,
    }
