"""Quadratic forms in independent coordinates: evaluation, exact moment algebra,
and centered-form vectors with their exact covariance.

For a symmetric Q and independent mean-0 variance-1 coordinates with fourth
moments mu4_i, the exact second-moment identities used throughout are

    Var(z'Qz)        = sum_i mu4_i q_ii^2 - 3 sum_i q_ii^2 + 2 tr(Q^2)
    Cov(z'Az, z'Bz)  = sum_i (mu4_i - 3) a_ii b_ii + 2 tr(AB)

(the third-moment contributions cancel for independent coordinates).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import UnsupportedLawError
from .laws import SubGaussianLaw

#: tolerance on the smallest eigenvalue, relative to the operator norm
PSD_RTOL = 1e-8


def _psd_norm(M: np.ndarray, what: str) -> float:
    """Spectral norm of a symmetric matrix, from the one eigensolve that also
    checks that it is positive semidefinite."""
    w = np.linalg.eigvalsh(M)
    norm = float(max(abs(w[0]), abs(w[-1])))
    if w[0] < -PSD_RTOL * max(norm, 1e-300):
        raise ValueError(f"{what} is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    return norm


@dataclass
class QuadraticForm:
    """A symmetric PSD matrix with its commonly needed scalars cached."""

    matrix: np.ndarray
    diag: np.ndarray = field(init=False)
    trace: float = field(init=False)
    trace_sq: float = field(init=False)
    op_norm: float = field(init=False)
    hs_norm: float = field(init=False)

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
        self.trace = float(np.trace(Q))
        self.trace_sq = float(np.sum(Q * Q))  # tr(Q^2) for symmetric Q
        self.op_norm = _psd_norm(Q, "matrix")
        self.hs_norm = float(np.linalg.norm(Q, "fro"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def eval_qf(qf: QuadraticForm, z: np.ndarray) -> float:
    """z'Qz, computed as (Qz).z."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (qf.dim,):
        raise ValueError(f"dimension mismatch: form is {qf.dim}, vector is {z.shape}")
    return float((qf.matrix @ z) @ z)


def _resolve_mu(
    moments: SubGaussianLaw | Sequence[float] | np.ndarray, d: int
) -> tuple[float | None, np.ndarray | float]:
    """Normalize a moments argument to (mu3 or None, scalar or per-coordinate mu4)."""
    if isinstance(moments, SubGaussianLaw):
        mu3, mu4 = moments.mu3, moments.mu4
    elif isinstance(moments, np.ndarray) and moments.ndim == 1 and moments.size == d:
        mu3, mu4 = None, np.asarray(moments, dtype=np.float64)
    else:
        seq = tuple(float(x) for x in moments)
        if len(seq) < 2:
            raise ValueError("moments must provide at least (mu3, mu4)")
        mu3, mu4 = seq[0], seq[1]
    if np.any(np.asarray(mu4) < 1.0):
        raise ValueError("fourth moment below 1 is impossible for a variance-1 law")
    return mu3, mu4


def qf_variance(
    qf: QuadraticForm, moments: SubGaussianLaw | Sequence[float] | np.ndarray
) -> float:
    """Exact Var(z'Qz) for independent mean-0 variance-1 coordinates.

    ``moments`` is a law, a (mu3, mu4, ...) tuple, or a length-d array of
    per-coordinate fourth moments.
    """
    _, mu4 = _resolve_mu(moments, qf.dim)
    q = qf.diag
    return float(np.sum(mu4 * q * q) - 3.0 * np.sum(q * q) + 2.0 * qf.trace_sq)


def qf_covariance(
    qfA: QuadraticForm,
    qfB: QuadraticForm,
    moments: SubGaussianLaw | Sequence[float] | np.ndarray,
) -> float:
    """Exact Cov(z'Az, z'Bz) for independent symmetric-third-moment coordinates.

    Restricted to mu3 = 0 laws (all shipped families); per-coordinate fourth
    moments are accepted as an array.
    """
    if qfA.dim != qfB.dim:
        raise ValueError(f"dimension mismatch: {qfA.dim} vs {qfB.dim}")
    mu3, mu4 = _resolve_mu(moments, qfA.dim)
    if mu3 is not None and mu3 != 0.0:
        raise UnsupportedLawError(
            f"qf_covariance requires a symmetric law (mu3 = 0), got mu3 = {mu3}"
        )
    a, b = qfA.diag, qfB.diag
    tr_ab = float(np.sum(qfA.matrix * qfB.matrix))
    return float(np.sum((mu4 - 3.0) * a * b) + 2.0 * tr_ab)


@dataclass
class WVector:
    """Centered quadratic-form vector (w_k, w_check_k) and its exact covariance.

    ``w_k = z'Q_k z - tr(Q_k)`` and ``w_check_k = z'diag(Q_k)z - tr(Q_k)``;
    both are mean zero by construction.  ``v_cov`` is the exact 2K x 2K
    covariance for the supplied coordinate moments.
    """

    qforms: list[QuadraticForm]
    v_cov: np.ndarray
    mu4: float

    @property
    def k(self) -> int:
        return len(self.qforms)

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
        out = np.empty(z.shape[:-1] + (2 * self.k,))
        for i, qf in enumerate(self.qforms):
            out[..., 2 * i] = np.sum(z * (z @ qf.matrix) - qf.diag, axis=-1)
            out[..., 2 * i + 1] = z_sq_m1 @ qf.diag
        return out


def build_w(
    qforms: Sequence[QuadraticForm],
    moments: SubGaussianLaw | Sequence[float],
) -> WVector:
    """Assemble the 2K centered-form vector and its exact covariance.

    Block entries, for gamma2-free independent coordinates with common mu4:
    Cov(w_k, w_l) = (mu4-3) d_k.d_l + 2 tr(Q_k Q_l), and every entry touching
    a diagonal part reduces to (mu4-1) d_k.d_l.
    """
    if not qforms:
        raise ValueError("need at least one quadratic form")
    d = qforms[0].dim
    if any(qf.dim != d for qf in qforms):
        raise ValueError("all quadratic forms must share one dimension")
    mu3, mu4 = _resolve_mu(moments, d)
    if isinstance(mu4, np.ndarray):
        raise ValueError("build_w expects a common scalar fourth moment")
    if mu3 is not None and mu3 != 0.0:
        raise UnsupportedLawError("build_w requires a symmetric law (mu3 = 0)")

    kk = len(qforms)
    v_cov = np.empty((2 * kk, 2 * kk))
    diags = [qf.diag for qf in qforms]
    for i, j in itertools.product(range(kk), range(kk)):
        dd = float(diags[i] @ diags[j])
        tr_ij = float(np.sum(qforms[i].matrix * qforms[j].matrix))
        v_cov[2 * i, 2 * j] = (mu4 - 3.0) * dd + 2.0 * tr_ij
        v_cov[2 * i, 2 * j + 1] = (mu4 - 1.0) * dd
        v_cov[2 * i + 1, 2 * j] = (mu4 - 1.0) * dd
        v_cov[2 * i + 1, 2 * j + 1] = (mu4 - 1.0) * dd
    v_cov = 0.5 * (v_cov + v_cov.T)

    _psd_norm(v_cov, "covariance")
    return WVector(qforms=list(qforms), v_cov=v_cov, mu4=float(mu4))


def sigma_k_sq(qf: QuadraticForm, gamma2: float) -> float:
    """Var(z'Qz) written through the excess kurtosis: 2 tr(Q^2) + gamma2 tr(diag(Q)^2)."""
    return float(2.0 * qf.trace_sq + gamma2 * (qf.diag @ qf.diag))


def napprox_rate(
    qforms: Sequence[QuadraticForm],
    d: int,
    gamma: float,
    f_norms: tuple[float, float],
) -> float:
    """Constant-free normal-approximation rate quantity for a K-form vector.

    (gamma+1)^8 { K^{3/2} d^{1/2} |f|_2 qmax^2  +  K^3 d |f|_3 qmax^3 }
    with qmax the largest operator norm among the forms.  The unknown absolute
    constant is omitted; only the scaling is meaningful.
    """
    f2, f3 = f_norms
    if f2 < 0 or f3 < 0:
        raise ValueError("derivative norms must be nonnegative")
    kk = len(qforms)
    qmax = max(qf.op_norm for qf in qforms)
    return float(
        (gamma + 1.0) ** 8
        * (kk**1.5 * d**0.5 * f2 * qmax**2 + kk**3 * d * f3 * qmax**3)
    )
