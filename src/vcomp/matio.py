"""Matrix I/O: dense CSV out; CSV or a small binary container in.

The binary container has a 16-byte header: 4-byte magic ``VCM1``, then
little-endian uint32 fields n (rows), p (columns), and element width in bytes
(8 for float64, 4 for float32), followed by the row-major payload.
"""

from __future__ import annotations

import os
import struct
import warnings
from pathlib import Path

import numpy as np

MAGIC = b"VCM1"
_HEADER = struct.Struct("<4sIII")

_WIDTH_DTYPES = {8: np.dtype("<f8"), 4: np.dtype("<f4")}


def save_matrix_csv(path: str | Path, X: np.ndarray) -> None:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    np.savetxt(path, X, delimiter=",", fmt="%.17g")


def load_matrix(path: str | Path) -> np.ndarray:
    """Load a matrix from CSV or the binary container (sniffed by magic)."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return _load_bin(path)
    with warnings.catch_warnings():  # loadtxt warns on a file with no data; raised below
        warnings.simplefilter("ignore", UserWarning)
        try:
            X = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            # numpy's message names no file, and after a ';' cites loadtxt options
            raise ValueError(f"{path}: {str(exc).split(';')[0]}") from None
    if X.size == 0:
        raise ValueError(f"{path}: matrix file holds no data")
    return X


def load_vector(path: str | Path) -> np.ndarray:
    v = load_matrix(path)
    if 1 not in v.shape and v.ndim == 2 and min(v.shape) != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return v.reshape(-1)


def _load_bin(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, n, p, width = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if width not in _WIDTH_DTYPES:
            raise ValueError(f"{path}: unsupported element width {width}")
        expected = n * p * width
        actual = os.fstat(fh.fileno()).st_size - _HEADER.size
        # checked before reading: a corrupt header can declare more bytes than
        # any buffer can index
        if actual != expected:
            raise ValueError(
                f"{path}: header declares a {expected}-byte payload, file holds {actual} bytes"
            )
        payload = fh.read(expected)
    X = np.frombuffer(payload, dtype=_WIDTH_DTYPES[width]).astype(np.float64)
    return X.reshape(n, p)
