"""Quadratic forms in independent coordinates: exact moment algebra and
centered-form vectors with their exact covariance.

For symmetric A, B and independent mean-0 variance-1 coordinates with fourth
moments mu4_i, every second moment here comes from one identity,

    Cov(z'Az, z'Bz) = sum_i (mu4_i - 3) a_ii b_ii + 2 tr(AB),

computed only by ``qf_cov_terms``; Var(z'Qz) is the case A = B.  No third
moment enters: each such term carries a factor E z_j = 0.  The coordinates
share one ``SubGaussianLaw``; only ``qf_cov_terms`` takes one kurtosis per
coordinate, for a vector that mixes two laws (``estimator.score_covariance``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .laws import SubGaussianLaw

#: tolerance on the smallest eigenvalue, relative to the operator norm or the terms' size
PSD_RTOL = 1e-8


def _psd_norm(M: np.ndarray, what: str, scale: float = 0.0) -> float:
    """Spectral norm of a symmetric matrix, from the one eigensolve that also
    checks that it is positive semidefinite.  ``scale`` is the size of the terms
    behind M: the norm of an M that is 0 up to their rounding is only noise."""
    w = np.linalg.eigvalsh(M)
    norm = float(max(abs(w[0]), abs(w[-1])))
    if w[0] < -PSD_RTOL * max(norm, scale, 1e-300):
        raise ValueError(f"{what} is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    return norm


@dataclass
class QuadraticForm:
    """A symmetric PSD matrix with its commonly needed scalars cached."""

    matrix: np.ndarray
    diag: np.ndarray = field(init=False)
    trace_sq: float = field(init=False)
    op_norm: float = field(init=False)

    def __post_init__(self) -> None:
        Q = np.asarray(self.matrix, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {Q.shape}")
        asym = float(np.max(np.abs(Q - Q.T))) if Q.size else 0.0
        if asym >= 1e-10:
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
        Q = 0.5 * (Q + Q.T)
        self.matrix = Q
        self.diag = np.ascontiguousarray(np.diag(Q))
        self.trace_sq = float(np.sum(Q * Q))  # tr(Q^2) for symmetric Q
        self.op_norm = _psd_norm(Q, "matrix")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def qf_cov_terms(
    a_diag: np.ndarray, b_diag: np.ndarray, tr_ab: float, kurt: float | np.ndarray
) -> float:
    """Cov(z'Az, z'Bz) = sum_i kurt_i a_ii b_ii + 2 tr(AB), from the two
    diagonals, tr(AB) and the excess kurtosis kurt = mu4 - 3 (a scalar, or
    one per coordinate): the module's one copy of the identity."""
    return float(np.sum(kurt * a_diag * b_diag)) + 2.0 * tr_ab


def qf_variance(qf: QuadraticForm, law: SubGaussianLaw) -> float:
    """Exact Var(z'Qz) for coordinates drawn from ``law``."""
    return sigma_k_sq(qf, law.excess_kurtosis)


def qf_covariance(
    qfA: QuadraticForm, qfB: QuadraticForm, law: SubGaussianLaw
) -> float:
    """Exact Cov(z'Az, z'Bz) for coordinates drawn from ``law``."""
    if qfA.dim != qfB.dim:
        raise ValueError(f"dimension mismatch: {qfA.dim} vs {qfB.dim}")
    tr_ab = float(np.sum(qfA.matrix * qfB.matrix))
    return qf_cov_terms(qfA.diag, qfB.diag, tr_ab, law.excess_kurtosis)


@dataclass
class WVector:
    """Centered quadratic-form vector (w_k, w_check_k) and its exact covariance.

    ``w_k = z'Q_k z - tr(Q_k)`` and ``w_check_k = z'diag(Q_k)z - tr(Q_k)``;
    both are mean zero by construction.  ``v_cov`` is the exact 2K x 2K
    covariance for the coordinates' law.
    """

    qforms: list[QuadraticForm]
    v_cov: np.ndarray

    @property
    def dim(self) -> int:
        return self.qforms[0].dim

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """The 2K vector at z, or one such row per row of a (reps, d) block."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim not in (1, 2) or z.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: forms are {self.dim}, vectors are {z.shape}")
        # centered termwise, z_i (Qz)_i - Q_ii and Q_ii (z_i^2 - 1), so a form that
        # is constant in the draw (identity Q, Rademacher z) gives exactly 0
        z_sq_m1 = z * z - 1.0
        out = np.empty(z.shape[:-1] + (2 * len(self.qforms),))
        for i, qf in enumerate(self.qforms):
            out[..., 2 * i] = np.sum(z * (z @ qf.matrix) - qf.diag, axis=-1)
            out[..., 2 * i + 1] = z_sq_m1 @ qf.diag
        return out


def build_w(
    qforms: Sequence[QuadraticForm], law: SubGaussianLaw
) -> WVector:
    """Assemble the 2K centered-form vector and its exact covariance.

    Every entry is the module's covariance identity for coordinates drawn
    from ``law``: entry (2k, 2k) is Var(z'Q_k z), and one that touches a
    diagonal part diag(Q_l) has tr(Q_k diag(Q_l)) = d_k.d_l and so is
    (mu4 - 1) d_k.d_l.
    """
    if not qforms:
        raise ValueError("need at least one quadratic form")
    if any(qf.dim != qforms[0].dim for qf in qforms):
        raise ValueError("all quadratic forms must share one dimension")

    kk = len(qforms)
    v_cov = np.empty((2 * kk, 2 * kk))
    diags = [qf.diag for qf in qforms]
    for i, j in itertools.product(range(kk), range(kk)):
        # d_k.d_l summed as the kurtosis term is, so a Rademacher entry
        # (kurt = -2) cancels to exactly 0
        dd = float(np.sum(diags[i] * diags[j]))
        tr_ij = float(np.sum(qforms[i].matrix * qforms[j].matrix))
        v_cov[2 * i, 2 * j] = qf_cov_terms(diags[i], diags[j], tr_ij, law.excess_kurtosis)
        v_cov[2 * i, 2 * j + 1] = v_cov[2 * i + 1, 2 * j] = v_cov[2 * i + 1, 2 * j + 1] = (
            qf_cov_terms(diags[i], diags[j], dd, law.excess_kurtosis)
        )
    v_cov = 0.5 * (v_cov + v_cov.T)

    # judged against the terms' size: a degenerate v_cov is 0 up to rounding
    _psd_norm(v_cov, "covariance", max(qf.trace_sq for qf in qforms))
    return WVector(qforms=list(qforms), v_cov=v_cov)


def sigma_k_sq(qf: QuadraticForm, gamma2: float) -> float:
    """Var(z'Qz) written through the law's excess kurtosis gamma2 = mu4 - 3.
    Clamped at 0: a variance that cancels exactly, as for identity Q and
    Rademacher z, can round to just below."""
    return max(0.0, qf_cov_terms(qf.diag, qf.diag, qf.trace_sq, gamma2))


def napprox_rate(
    qforms: Sequence[QuadraticForm],
    law: SubGaussianLaw,
    f_norms: tuple[float, float],
) -> float:
    """Constant-free normal-approximation rate quantity for a K-form vector.

    (gamma+1)^8 { K^{3/2} d^{1/2} |f|_2 qmax^2  +  K^3 d |f|_3 qmax^3 }
    with d the forms' dimension, gamma the law's sub-Gaussian bound and qmax
    the largest operator norm among the forms.  The unknown absolute
    constant is omitted; only the scaling is meaningful.
    """
    f2, f3 = f_norms
    if f2 < 0 or f3 < 0:
        raise ValueError("derivative norms must be nonnegative")
    kk, d = len(qforms), qforms[0].dim
    qmax = max(qf.op_norm for qf in qforms)
    return float(
        (law.gamma + 1.0) ** 8
        * (kk**1.5 * d**0.5 * f2 * qmax**2 + kk**3 * d * f3 * qmax**3)
    )
