"""Matrix I/O: dense CSV out; CSV or a small binary container in.

The binary container has a 16-byte header: 4-byte magic ``VCM1``, then
little-endian uint32 fields n (rows), p (columns), and element width in bytes
(8 for float64, 4 for float32), followed by the row-major payload.

A CSV file that spans at least two ranges of ``_RANGE_BYTES`` is written and
parsed in forked worker processes, as many as ``_workers`` allows.
Workers get the matrix, the path and the output buffer through ``fork``; only
row and byte ranges and shapes go through the pool's queues.  The bytes
written are those of numpy's ``savetxt(X, fmt="%.17g", delimiter=",")``, made
chunk by chunk with array operations by ``_write_csv``; the arrays read are
those of ``np.loadtxt`` in one call, which is what runs otherwise.
"""

from __future__ import annotations

import functools
import io
import mmap
import os
import shutil
import signal
import struct
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

MAGIC = b"VCM1"
_HEADER = struct.Struct("<4sIII")

_WIDTH_DTYPES = {8: np.dtype("<f8"), 4: np.dtype("<f4")}

_RANGE_BYTES = 4 << 20  # the bytes of CSV one reader task parses
_SCAN_BYTES = 1 << 20  # read size when cutting a file into ranges
_NUMBER_BYTES = 25  # the longest "%.17g" of a float64 and its delimiter

# what a forked worker got from its parent, set by ``inherit``
_inherited: tuple = ()

# "%.17g" of a float64 in [1e-4, 1e16) is fixed-point text of the 17-digit
# integer D = round(|x| * 10^(16-k)), k = floor(log10 |x|) after rounding,
# with trailing zeros cut: "0." and -k-1 zeros ahead of D for k < 0, a point
# after digit k + 1 of D otherwise.  Each element gets a row of bytes: sign,
# the _SLOTS digits (_LEAD zeros, then D), '.', the digits again, separator.
# A mask picks the text: the digits up to slot _LEAD + k from the first copy,
# those after it from the second.
_CHUNK = 1 << 15  # elements formatted per write
_LEAD = 4  # k >= -4: "0.000" ahead of D
_SLOTS = _LEAD + 17
_ROW = 2 * _SLOTS + 3  # also holds the longest "%.17g" of a float64 (24 bytes) and a separator
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter of a float64 into 26-bit halves


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The writer's tables, built on first use, not at import: 10^0..10^22
    (each exact) and their Veltkamp halves; 0..9999 as four ASCII digits,
    first digit in the lowest byte, and their number of trailing zeros; and
    in row ``((k + _LEAD) * 17 + m - 1) * 2 + negative`` the mask of the row
    bytes that hold the text of a number with exponent k (-_LEAD..16) and m
    kept digits of D; last, a row before D's digits are in."""
    pow10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
    pow10_hi = pow10 * _SPLIT - (pow10 * _SPLIT - pow10)
    quads = np.arange(10_000)
    digits4 = sum((48 + quads // 10 ** (3 - i) % 10) << 8 * i for i in range(4)).astype("<u4")
    trailing4 = sum(quads % 10**i == 0 for i in range(1, 5)).astype(np.uint8)
    k = np.arange(-_LEAD, 17)[:, None, None, None]
    m = np.arange(1, 18)[None, :, None, None]
    negative = np.arange(2)[None, None, :, None]
    col = np.arange(_ROW)
    point, last = _LEAD + k, _LEAD + m - 1  # the last digit slot before the point, and the last kept
    first = (col - 1 >= np.minimum(point, _LEAD)) & (col - 1 <= point)
    second = (col - _SLOTS - 2 > point) & (col - _SLOTS - 2 <= last)
    masks = ((col == 0) & (negative == 1) | first | (col == _SLOTS + 1) & (last > point) | second
             | (col == _ROW - 1))
    template = np.frombuffer(b"-" + b"0" * _SLOTS + b"." + b"0" * _SLOTS + b",", np.uint8)
    tables = pow10, pow10_hi, pow10 - pow10_hi, digits4, trailing4, masks.reshape(-1, _ROW), template
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10^(16-k)) as int64, exact: Dekker's product gives
    the exact a * 10^(16-k) as hi + lo, and where the result has 17 digits,
    hi >= 2^53 is an even integer."""
    pow10, pow10_hi, pow10_lo = (t[16 - k] for t in _tables()[:3])
    hi = a * pow10
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    lo = ((a_hi * pow10_hi - hi) + a_hi * pow10_lo + a_lo * pow10_hi) + a_lo * pow10_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _format(x: np.ndarray, start: int, p: int) -> np.ndarray:
    """The text of flat elements ``start..`` of a matrix with ``p`` columns."""
    *_, digits4, trailing4, masks, template = _tables()
    n = len(x)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    zero = a == 0
    a = np.where(fast, a, 1.0)  # the others' D and k are set below or unused
    k = np.floor(np.log10(a)).astype(np.intp)
    D = _scaled(a, k)
    while (off := np.flatnonzero((D < 10**16) | (D >= 10**17))).size:
        k[off] += np.where(D[off] < 10**16, -1, 1)
        D[off] = _scaled(a[off], k[off])
    D[zero] = 0  # "0": k = 0 from the placeholder, one digit
    # D is its head digit, then four groups of four digits (// and * outrun np.divmod)
    upper = D // 10**8
    lower = D - upper * 10**8
    head = upper // 10**8
    upper -= head * 10**8
    quads = np.empty((n, 4), np.intp)
    quads[:, 0] = upper // 10**4
    quads[:, 1] = upper - quads[:, 0] * 10**4
    quads[:, 2] = lower // 10**4
    quads[:, 3] = lower - quads[:, 2] * 10**4
    q1, q2, q3, q4 = quads.T
    trailing = trailing4[q4] + (q4 == 0) * (
        trailing4[q3] + (q3 == 0) * (trailing4[q2] + (q2 == 0) * trailing4[q1]))
    text = np.empty((n, _ROW), np.uint8)
    text[:] = template
    text[:, _LEAD + 1] = 48 + head
    text[:, _LEAD + 2:_SLOTS + 1] = digits4[quads].view(np.uint8)
    text[:, _SLOTS + 2:-1] = text[:, 1:_SLOTS + 1]
    text[(p - 1 - start) % p::p, -1] = ord("\n")
    mask = np.take(masks, ((k + _LEAD) * 17 + 16 - trailing) * 2 + np.signbit(x), axis=0)
    # zero aside, what the fast range leaves out gets the call numpy's savetxt makes
    other = np.flatnonzero(~(fast | zero))
    if other.size:
        words = [b"%.17g" % v for v in x[other].tolist()]
        text[other, :-1] = np.array(words, dtype=f"S{_ROW - 1}").view(np.uint8).reshape(-1, _ROW - 1)
        mask[other, :-1] = np.arange(_ROW - 1) < np.array([len(w) for w in words])[:, None]
    return np.compress(mask.reshape(-1), text.reshape(-1))


def _write_csv(fh, X: np.ndarray) -> None:
    """Write the float64 matrix ``X`` to the binary file ``fh`` as numpy's
    ``savetxt(fh, X, fmt="%.17g", delimiter=",")`` writes it, in one write per
    chunk of at most ``_CHUNK`` elements: the text is never whole in memory."""
    n, p = X.shape
    if p == 0:
        fh.write(b"\n" * n)
        return
    flat = np.ascontiguousarray(X).reshape(-1)
    for start in range(0, flat.size, _CHUNK):
        fh.write(_format(flat[start:start + _CHUNK], start, p))


def _cpu_count() -> int:
    """The CPUs in the process's affinity mask, or ``os.cpu_count()`` without one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(count: int) -> int:
    """Forked processes to share ``count`` tasks, the one rule of every pool:
    at most one per task and one per CPU (``_cpu_count``); 1 for fewer than
    two tasks, without fork (workers inherit their data through it), and
    where fork is unsafe: another thread may hold a lock the child needs."""
    if count < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(count, _cpu_count())


def _pool(workers: int, *state):
    """Forked workers that see ``state`` as ``inherited()``, never pickled."""
    # imported here: imported with this module, which loads ahead of the rest
    # of vcomp, the pool machinery kept about 1.7 MB more resident in every
    # vcomp process
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
        initializer=inherit, initargs=state,
    )


def inherit(*state) -> None:
    """Pool initializer: keep ``state``, the pool's ``initargs``, which a
    forked worker inherits unpickled, for ``inherited()``; end this worker
    within a second of its parent's death, as it holds its pool's call queue
    open and would wait on it forever.  A timer signal runs the check, not a
    thread: a watcher thread left the normality control task's worker about
    20 MB more resident (one more malloc arena)."""
    global _inherited
    _inherited = state
    parent = os.getppid()

    def check(signum, frame) -> None:
        if os.getppid() != parent:
            os._exit(1)

    if hasattr(signal, "setitimer"):  # not on Windows
        signal.signal(signal.SIGALRM, check)
        signal.setitimer(signal.ITIMER_REAL, 0.5, 0.5)


def inherited() -> tuple:
    """The ``state`` this worker's pool initializer ``inherit`` kept."""
    return _inherited


def save_matrix_csv(path: str | Path, X: np.ndarray) -> None:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    # at most one worker per range the file can fill, and one per row
    workers = min(_workers(-(-X.size * _NUMBER_BYTES // _RANGE_BYTES)), len(X))
    if workers < 2:
        with open(path, "wb") as fh:
            _write_csv(fh, X)
        return
    path = Path(path)
    bounds = [len(X) * k // workers for k in range(workers + 1)]
    parts = []
    try:
        for _ in range(workers):
            fd, part = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".part", dir=path.parent)
            os.close(fd)
            parts.append(part)
        with _pool(workers, X) as pool:
            list(pool.map(_write_rows, zip(parts, bounds[:-1], bounds[1:])))
        with open(path, "wb") as out:
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, out)
    finally:
        for part in parts:
            os.unlink(part)


def _write_rows(task) -> None:
    """Worker: rows ``lo:hi`` of the inherited matrix into a part file."""
    part, lo, hi = task
    (X,) = inherited()
    with open(part, "wb") as fh:
        _write_csv(fh, X[lo:hi])


def load_matrix(path: str | Path) -> np.ndarray:
    """Load a matrix from CSV or the binary container (sniffed by magic).

    A CSV file parsed in workers comes back in anonymous shared memory: a
    process forked later that writes to the array writes to its parent's.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return _load_bin(path)
    X = _load_split(path)
    if X is not None:
        return X
    try:
        X = _loadtxt(path)
    except ValueError as exc:
        # numpy's message names no file, and after a ';' cites loadtxt options
        raise ValueError(f"{path}: {str(exc).split(';')[0]}") from None
    if X.size == 0:
        raise ValueError(f"{path}: matrix file holds no data")
    return X


def _loadtxt(source) -> np.ndarray:
    """The CSV at ``source``, a path or a text file, from the one
    ``np.loadtxt`` call of both readers, without its warning on no data."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, delimiter=",", dtype=np.float64, ndmin=2)


def _load_split(path: Path) -> np.ndarray | None:
    """The CSV matrix parsed range by range in forked workers, or None where
    one ``np.loadtxt`` call must read it: a file of one range, one CPU, or
    any range that fails, has another column count than the first line, or
    holds fewer or more rows than newlines (comment or blank lines)."""
    if os.path.getsize(path) <= _RANGE_BYTES or _workers(2) < 2:
        return None
    ranges = _line_ranges(path)
    workers = _workers(len(ranges))
    if workers < 2:
        return None
    with open(path, "rb") as fh:
        p = fh.readline().count(b",") + 1
    starts = np.cumsum([0] + [rows for _, _, rows in ranges]).tolist()
    tasks = [(start, stop, lo, hi) for (start, stop, _), lo, hi in zip(ranges, starts, starts[1:])]
    try:
        # shared with the workers the pool forks; a first line that is not a
        # row can make the size absurd
        buffer = mmap.mmap(-1, starts[-1] * p * 8)
        X = np.frombuffer(buffer, dtype=np.float64).reshape(-1, p)
        with _pool(workers, path, X) as pool:
            shapes = list(pool.map(_read_rows, tasks))
    except Exception:  # the one-call parse raises with the file's own row number
        return None
    if shapes != [(hi - lo, p) for _, _, lo, hi in tasks]:
        return None
    return X


def _read_rows(task) -> tuple[int, ...]:
    """Worker: parse bytes ``start:stop`` into rows ``lo:hi`` of the inherited
    output if they hold that many rows of its width; their shape."""
    start, stop, lo, hi = task
    path, X = inherited()
    with open(path, "rb") as fh:
        fh.seek(start)
        # decoded as np.loadtxt(path) decodes: locale encoding, universal newlines
        rows = _loadtxt(io.TextIOWrapper(io.BytesIO(fh.read(stop - start))))
    if rows.shape == (hi - lo, X.shape[1]):
        X[lo:hi] = rows
    return rows.shape


def _line_ranges(path: Path) -> list[tuple[int, int, int]]:
    """``(start, stop, rows)`` byte ranges of the file, each at least
    ``_RANGE_BYTES`` long and ending after a newline, except the last, which
    ends the file; ``rows`` counts its lines."""
    ranges, start, rows, offset = [], 0, 0, 0
    buf = bytearray(_SCAN_BYTES)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            pos = 0
            while (cut := max(start + _RANGE_BYTES - offset, pos)) < size:
                end = buf.find(b"\n", cut, size)
                if end < 0:
                    break
                rows += buf.count(b"\n", pos, end + 1)
                ranges.append((start, offset + end + 1, rows))
                start, rows, pos = offset + end + 1, 0, end + 1
            rows += buf.count(b"\n", pos, size)
            offset, open_line = offset + size, buf[size - 1] != ord("\n")
    if offset > start:
        ranges.append((start, offset, rows + open_line))
    return ranges


def load_vector(path: str | Path) -> np.ndarray:
    v = load_matrix(path)
    if 1 not in v.shape:  # load_matrix's arrays are 2-d
        raise ValueError(f"{path}: expected a vector, got shape {v.shape}")
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
