"""Eigendecomposition of the scaled Gram matrix and the variance of its eigenvalues.

Everything downstream works in the eigenbasis of G = XX^T / p.  The
eigenvalue variance decides whether the two variance components are
identifiable: it vanishes exactly when G is a multiple of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GramSpectrum:
    """Spectrum of G = XX^T / p: eigenvalues (descending) and eigenvectors
    (None when only the eigenvalues are known)."""

    n: int
    p: int
    lambdas: np.ndarray
    U: np.ndarray | None

    @classmethod
    def from_eigenvalues(cls, n: int, p: int, w: np.ndarray, V: np.ndarray | None = None) -> GramSpectrum:
        """The spectrum of an n x p design from the eigenvalues ``w`` of G
        (and their eigenvectors, the columns of ``V``), sorted descending; those
        at or below the numerical-rank threshold ``max(n, p) * eps * lambda_1``
        are set to exactly 0, so a rank-deficient design has exact zeros."""
        if n < 2 or p < 1:
            raise ValueError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
        order = np.argsort(w)[::-1]
        lambdas = w[order]
        lambdas[lambdas <= max(n, p) * np.finfo(np.float64).eps * float(lambdas[0])] = 0.0
        return cls(n=n, p=p, lambdas=lambdas, U=None if V is None else V[:, order])

    @property
    def lambda_1(self) -> float:
        # max rather than lambdas[0]: every spectral functional is a symmetric
        # function of the eigenvalue multiset, whatever the storage order
        return float(np.max(self.lambdas))


def decompose_gram(X: np.ndarray) -> GramSpectrum:
    """Eigendecomposition of XX^T / p for an n x p design matrix.

    One route for every shape: a symmetric eigendecomposition of the
    symmetrized n x n Gram matrix, ordered and rank-clamped by
    ``GramSpectrum.from_eigenvalues``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"design must be a 2-d array, got shape {X.shape}")
    n, p = X.shape
    if n < 2 or p < 1:
        raise ValueError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
    if not np.all(np.isfinite(X)):
        raise ValueError("design matrix contains non-finite entries")

    G = (X @ X.T) / p
    del X  # a caller that passed its last reference frees the design before eigh
    G = 0.5 * (G + G.T)
    return GramSpectrum.from_eigenvalues(n, p, *np.linalg.eigh(G))


def eigvar(spec: GramSpectrum) -> float:
    """Empirical variance of the eigenvalues: mean(lambda^2) - mean(lambda)^2."""
    lam = spec.lambdas
    v = float(np.mean(lam**2) - np.mean(lam) ** 2)
    return max(v, 0.0)
