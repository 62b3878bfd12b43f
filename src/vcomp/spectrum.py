"""Eigendecomposition of the scaled Gram matrix and the variance of its eigenvalues.

Everything downstream works in the eigenbasis of G = XX^T / p.  The
eigenvalue variance decides whether the two variance components are
identifiable: it vanishes exactly when G is a multiple of the identity.
Every call into numpy's bundled OpenBLAS is made here: the library and
routine lookup (``_openblas``, ``_lapack``), the one-thread pin
(``one_blas_thread``), and LAPACK's ``dsyevd`` and ``dlasq1``.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError

_I64, _F64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)


@functools.lru_cache(maxsize=None)
def _openblas():
    """numpy's bundled OpenBLAS (the scipy-openblas wheel build), or None
    when numpy was built against another BLAS."""
    root = Path(np.__file__).parent
    for path in (*root.parent.glob("numpy.libs/*scipy_openblas*"), *root.glob(".dylibs/*scipy_openblas*")):
        lib = ctypes.CDLL(str(path))  # the loaded library: dlopen returns its handle
        if hasattr(lib, "scipy_openblas_set_num_threads64_") and hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return lib
    return None


def _lapack(name: str, *argtypes):
    """The bundled OpenBLAS's routine ``name``, declared to take ``argtypes``
    and return nothing, or None under another BLAS or when the library lacks
    it.  A CDLL keeps each routine it looks up, so the declaration is made on
    the first lookup only."""
    routine = getattr(_openblas(), name, None)
    if routine is not None and getattr(routine, "argtypes", None) is None:
        routine.argtypes, routine.restype = list(argtypes), None
    return routine


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the old
    count.  A threaded BLAS call can round differently from a serial one, so
    every runner is decorated with it (re-entered on each call), and ``vcomp
    fit`` and ``generate`` run under it; forked pool workers inherit the
    setting.  Under another BLAS it does nothing."""
    lib = _openblas()
    if lib is None:
        yield
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


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
    ``GramSpectrum.from_eigenvalues``.  G is formed and eigensolved in one
    n x n buffer (``_eigh_in_place``).  A design whose Gram leaves the float
    range raises ``NumericalError``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"design must be a 2-d array, got shape {X.shape}")
    n, p = X.shape
    if n < 2 or p < 1:
        raise ValueError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
    if not np.all(np.isfinite(X)):
        raise ValueError("design matrix contains non-finite entries")

    # in place, the bits of 0.5 * (G + G.T) for G = (X @ X.T) / p
    with np.errstate(over="ignore", under="ignore"):
        G = X @ X.T
        G /= p
        if np.all(np.diagonal(G) < np.finfo(np.float64).tiny) and np.any(X):
            raise NumericalError("the Gram matrix XX'/p underflows the float range "
                                 "(every diagonal entry is below the smallest normal float); rescale X")
        del X  # a caller that passed its last reference frees the design before the eigensolve
        G += G.T
        G *= 0.5
    if not np.all(np.isfinite(G)):
        raise NumericalError("the Gram matrix XX'/p overflows the float range; rescale X")
    return GramSpectrum.from_eigenvalues(n, p, *_eigh_in_place(G))


def _eigh_in_place(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of the exactly symmetric, C-contiguous ``G`` and its
    eigenvectors as columns.  On the bundled OpenBLAS this is the call
    ``np.linalg.eigh`` makes (LAPACK's divide-and-conquer ``dsyevd``, jobz 'V',
    uplo 'L', the queried workspace), made on G's own buffer: its C order is
    valid Fortran input by symmetry, and its rows come back holding the
    eigenvectors.  Under another BLAS, ``np.linalg.eigh(G)``."""
    c_char, c_size = ctypes.c_char_p, ctypes.c_size_t
    dsyevd = _lapack("scipy_dsyevd_64_", c_char, c_char, _I64, _F64, _I64, _F64, _F64, _I64, _I64, _I64, _I64,
                     c_size, c_size)  # the last two: the Fortran lengths of jobz and uplo
    if dsyevd is None:
        return np.linalg.eigh(G)
    n = G.shape[0]
    dim, w, info = ctypes.c_int64(n), np.empty(n), ctypes.c_int64(0)

    def call(work: np.ndarray, iwork: np.ndarray, lwork: int, liwork: int) -> None:
        dsyevd(b"V", b"L", ctypes.byref(dim), G.ctypes.data_as(_F64), ctypes.byref(dim), w.ctypes.data_as(_F64),
               work.ctypes.data_as(_F64), ctypes.byref(ctypes.c_int64(lwork)), iwork.ctypes.data_as(_I64),
               ctypes.byref(ctypes.c_int64(liwork)), ctypes.byref(info), 1, 1)
        if info.value != 0:
            raise NumericalError(f"dsyevd failed on the {n} x {n} Gram matrix (info {info.value})")

    # the workspace dsyevd asks for, as numpy's eigh queries it: a smaller one
    # blocks the tridiagonal reduction differently and changes the bits
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, iwork, -1, -1)
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), np.empty(liwork, dtype=np.int64), lwork, liwork)
    return w, G.T


def _bidiagonal_gram_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The eigenvalues of B B' for the bidiagonal B with diagonal ``d`` and
    off-diagonal ``e``: in O(m^2) from the bundled OpenBLAS's dqds (``dlasq1``;
    Fernando & Parlett, Numer. Math. 67, 1994), else ``eigvalsh(B B')``."""
    dlasq1 = _lapack("scipy_dlasq1_64_", _I64, _F64, _F64, _F64, _I64)
    if dlasq1 is None:
        B = np.diag(d) + np.diag(e, -1)
        return np.linalg.eigvalsh(B @ B.T)
    # dlasq1 overwrites s with the singular values and takes e in an m-array it uses as scratch
    m = d.size
    s, scratch, work, info = np.array(d, dtype=np.float64), np.zeros(m), np.empty(4 * m), ctypes.c_int64(0)
    scratch[: m - 1] = e
    dlasq1(ctypes.byref(ctypes.c_int64(m)), *(a.ctypes.data_as(_F64) for a in (s, scratch, work)), ctypes.byref(info))
    if info.value != 0:
        raise NumericalError(f"dlasq1 failed on a {m} x {m} bidiagonal (info {info.value})")
    return s * s


def eigvar(spec: GramSpectrum) -> float:
    """Empirical variance of the eigenvalues: mean(lambda^2) - mean(lambda)^2."""
    lam = spec.lambdas
    v = float(np.mean(lam**2) - np.mean(lam) ** 2)
    return max(v, 0.0)
