"""Eigendecomposition of the scaled Gram matrix and the variance of its eigenvalues.

Everything downstream works in the eigenbasis of G = XX^T / p.  The
eigenvalue variance decides whether the two variance components are
identifiable: it vanishes exactly when G is a multiple of the identity.
Every call into numpy's bundled OpenBLAS is made here: the library and
routine lookup (``_openblas``, ``_lapack``), the one-thread pin
(``one_blas_thread``), and LAPACK's ``dsyevd``, its steps ``dsytrd``,
``dormtr`` and ``dstedc``, and ``dlasq1``.
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
    """The bundled OpenBLAS's LAPACK routine ``name`` (its ILP64 symbol),
    declared, when ``argtypes`` are given, to take them and return nothing;
    None under another BLAS or when the library lacks it.  A CDLL keeps each
    routine it looks up, so the declaration is made on the first call only."""
    routine = getattr(_openblas(), f"scipy_{name}_64_", None)
    if routine is not None and argtypes and getattr(routine, "argtypes", None) is None:
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


def _gram(X: np.ndarray) -> tuple[np.ndarray, int]:
    """G = XX^T / p for an n x p design, and p, checked and formed in one
    n x n buffer as the bits of 0.5 * (G + G.T) for G = (X @ X.T) / p.  A
    design whose Gram leaves the float range raises ``NumericalError``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"design must be a 2-d array, got shape {X.shape}")
    n, p = X.shape
    if n < 2 or p < 1:
        raise ValueError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
    if not np.all(np.isfinite(X)):
        raise ValueError("design matrix contains non-finite entries")

    with np.errstate(over="ignore", under="ignore"):
        G = X @ X.T
        G /= p
        if np.all(np.diagonal(G) < np.finfo(np.float64).tiny) and np.any(X):
            raise NumericalError("the Gram matrix XX'/p underflows the float range "
                                 "(every diagonal entry is below the smallest normal float); rescale X")
        G += G.T
        G *= 0.5
    if not np.all(np.isfinite(G)):
        raise NumericalError("the Gram matrix XX'/p overflows the float range; rescale X")
    return G, p


def decompose_gram(X: np.ndarray) -> GramSpectrum:
    """Eigendecomposition of XX^T / p for an n x p design matrix, for every
    shape: the Gram (``_gram``) eigensolved in its own buffer
    (``_eigh_in_place``), ordered and rank-clamped by ``from_eigenvalues``."""
    G, p = _gram(X)
    del X  # a caller that passed its last reference frees the design before the eigensolve
    return GramSpectrum.from_eigenvalues(len(G), p, *_eigh_in_place(G))


def decompose_gram_rotating(X: np.ndarray, y: np.ndarray) -> tuple[GramSpectrum, np.ndarray]:
    """``decompose_gram(X)`` with U None, and y_check = U'y in the eigenvalues'
    order, for ``vcomp fit``, which needs nothing else of U.  On the bundled
    OpenBLAS, ``dsyevd``'s steps but the back-transformation (Golub & Van Loan,
    4th ed., 8.3; Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995):
    ``dsytrd`` reduces G to T = Q'GQ in place, ``dormtr`` makes z = Q'y, and
    ``dstedc`` writes T's eigenvectors W over G; y_check = W'z.  The
    eigenvalues keep their bits, and no n x n U is formed.  Else eigh and U'y."""
    G, p = _gram(X)
    del X  # as in decompose_gram
    n, z = len(G), np.array(y, dtype=np.float64).reshape(-1)  # a copy, rotated in place
    if z.size != n:  # dormtr would read past its end
        raise ValueError(f"y has length {z.size}, expected n={n}")
    if None in (_lapack(name) for name in ("dsytrd", "dormtr", "dstedc")):
        spec = GramSpectrum.from_eigenvalues(n, p, *np.linalg.eigh(G))
        y_check, spec.U = spec.U.T @ z, None
        return spec, y_check
    # dsyevd's scaling of a G whose largest entry lies outside [2^-485, 2^485],
    # the square roots of safmin/eps and of its inverse, and of its eigenvalues back
    big = max(G.max(), -G.min())  # max |G_ij| without an n x n temporary
    scale = 2.0**-485 / big if 0.0 < big < 2.0**-485 else 2.0**485 / big if big > 2.0**485 else 1.0
    if scale != 1.0:
        G *= scale
    w, e, tau, what = np.empty(n), np.empty(n), np.empty(n), f"the {n} x {n} Gram matrix"
    _call("dsytrd", what, b"L", n, G, n, w, e, tau)
    _call("dormtr", what, b"L", b"L", b"T", n, 1, G, n, tau, z, n)
    _call("dstedc", what, b"I", n, w, e, G, n, iwork=True)
    w *= 1.0 / scale
    return GramSpectrum.from_eigenvalues(n, p, w), (G @ z)[np.argsort(w)[::-1]]  # G's C rows are W's columns


def _call(name: str, what: str, *args, iwork: bool = False) -> None:
    """The bundled LAPACK routine ``name`` on ``args`` (bytes, ints, arrays),
    then the workspace it asks for (and an integer one with ``iwork``), as
    numpy's eigh queries it: a smaller one blocks differently and changes the
    bits.  A nonzero info raises ``NumericalError`` naming ``what``."""
    kinds = [ctypes.c_char_p if isinstance(a, bytes) else _I64 if isinstance(a, int) or a.dtype == np.int64 else _F64
             for a in args]
    chars = kinds.count(ctypes.c_char_p)  # each has a hidden Fortran length, passed last
    routine = _lapack(name, *kinds, _F64, _I64, *(_I64,) * (2 * iwork), _I64, *(ctypes.c_size_t,) * chars)
    head = [a if isinstance(a, bytes) else ctypes.byref(ctypes.c_int64(a)) if isinstance(a, int)
            else a.ctypes.data_as(k) for a, k in zip(args, kinds)]
    info = ctypes.c_int64(0)

    def run(lwork: int, liwork: int) -> tuple[np.ndarray, np.ndarray]:
        work, ints = np.empty(max(lwork, 1)), np.zeros(max(liwork, 1), dtype=np.int64)
        tail = (ints.ctypes.data_as(_I64), ctypes.byref(ctypes.c_int64(liwork))) if iwork else ()
        routine(*head, work.ctypes.data_as(_F64), ctypes.byref(ctypes.c_int64(lwork)), *tail, ctypes.byref(info),
                *(1,) * chars)
        if info.value != 0:
            raise NumericalError(f"{name} failed on {what} (info {info.value})")
        return work, ints

    work, ints = run(-1, -1)
    run(int(work[0]), int(ints[0]))


def _eigh_in_place(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of the exactly symmetric, C-contiguous ``G`` and its
    eigenvectors as columns.  On the bundled OpenBLAS this is the call
    ``np.linalg.eigh`` makes (LAPACK's divide-and-conquer ``dsyevd``, jobz 'V',
    uplo 'L', the queried workspace), made on G's own buffer: its C order is
    valid Fortran input by symmetry, and its rows come back holding the
    eigenvectors.  Under another BLAS, ``np.linalg.eigh(G)``."""
    if _lapack("dsyevd") is None:
        return np.linalg.eigh(G)
    n = G.shape[0]
    w = np.empty(n)
    _call("dsyevd", f"the {n} x {n} Gram matrix", b"V", b"L", n, G, n, w, iwork=True)
    return w, G.T


def _bidiagonal_gram_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The eigenvalues of B B' for the bidiagonal B with diagonal ``d`` and
    off-diagonal ``e``: in O(m^2) from the bundled OpenBLAS's dqds (``dlasq1``;
    Fernando & Parlett, Numer. Math. 67, 1994), else ``eigvalsh(B B')``."""
    dlasq1 = _lapack("dlasq1", _I64, _F64, _F64, _F64, _I64)
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
