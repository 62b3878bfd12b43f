import io
import mmap
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from vcomp import matio
from vcomp.matio import (
    load_matrix,
    load_vector,
    save_matrix_csv,
)


def save_matrix_bin(path, X, width=8):
    """Write the VCM1 container that ``load_matrix`` reads: the reference writer."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", b"VCM1", *X.shape, width))
        fh.write(np.ascontiguousarray(X, dtype=f"<f{width}").tobytes())


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 3))
    path = tmp_path / "x.csv"
    save_matrix_csv(path, X)
    np.testing.assert_array_equal(load_matrix(path), X)


def test_bin_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 7))
    path = tmp_path / "x.bin"
    save_matrix_bin(path, X)
    np.testing.assert_array_equal(load_matrix(path), X)


def test_bin_float32_width(tmp_path):
    X = np.array([[1.5, 2.25], [0.125, -4.0]])
    path = tmp_path / "x32.bin"
    save_matrix_bin(path, X, width=4)
    np.testing.assert_array_equal(load_matrix(path), X)  # values exact in f32


def test_bin_header_is_16_bytes(tmp_path):
    X = np.zeros((2, 3))
    path = tmp_path / "x.bin"
    save_matrix_bin(path, X)
    raw = path.read_bytes()
    assert raw[:4] == b"VCM1"
    assert len(raw) == 16 + 2 * 3 * 8


def test_truncated_bin_rejected(tmp_path):
    X = np.ones((3, 3))
    path = tmp_path / "x.bin"
    save_matrix_bin(path, X)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_matrix(path)


def test_huge_header_rejected_before_reading(tmp_path):
    # n = p = 2^31 declares a payload no buffer can index; only 16 bytes exist
    path = tmp_path / "huge.bin"
    path.write_bytes(struct.pack("<4sIII", b"VCM1", 2**31, 2**31, 8))
    with pytest.raises(ValueError, match="36893488147419103232-byte payload, file holds 0 bytes"):
        load_matrix(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.bin"
    save_matrix_bin(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match="32-byte payload, file holds 40 bytes"):
        load_matrix(path)


def test_load_vector(tmp_path):
    y = np.array([1.0, 2.0, 3.0])
    path = tmp_path / "y.csv"
    save_matrix_csv(path, y.reshape(-1, 1))
    np.testing.assert_array_equal(load_vector(path), y)


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_csv_without_data_names_the_file(tmp_path, text):
    path = tmp_path / "X.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"X\.csv: matrix file holds no data"):
            load_matrix(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2,3\n4,5\n", "the number of columns changed from 3 to 2 at row 2"),
        ("1,abc\n", "could not convert string 'abc' to float64"),
    ],
    ids=["ragged", "non-numeric"],
)
def test_csv_parse_error_names_the_file(tmp_path, text, message):
    path = tmp_path / "X.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_matrix(path)
    assert str(info.value).startswith(f"{path}: {message}")
    assert "usecols" not in str(info.value)


# -- the split codec: forked workers over row and byte ranges ----------------


def _special_matrix(rows=60, cols=40):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    X[0, :6] = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308]
    X[-1, -3:] = [np.nan, -0.0, -1.7976931348623157e308]
    return X


@pytest.fixture
def split(monkeypatch):
    """Ranges of 2 KiB and three CPUs; the worker counts of the pools started."""
    pools = []
    monkeypatch.setattr(matio, "_RANGE_BYTES", 2048)
    monkeypatch.setattr(matio, "_cpu_count", lambda: 3)
    pool = matio._pool
    monkeypatch.setattr(matio, "_pool", lambda workers, *state: pools.append(workers) or pool(workers, *state))
    return pools


def _text(X):
    buf = io.StringIO()
    np.savetxt(buf, X, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def _from_workers(X):
    """Whether ``X`` lies in the shared memory the split reader fills."""
    while isinstance(X, np.ndarray):
        X = X.base
    return isinstance(X, memoryview) and isinstance(X.obj, mmap.mmap)


def test_split_writer_bytes_and_reload_exact(tmp_path, split):
    X = _special_matrix()
    save_matrix_csv(tmp_path / "X.csv", X)
    assert split == [3]
    assert (tmp_path / "X.csv").read_text() == _text(X)
    Y = load_matrix(tmp_path / "X.csv")
    assert split == [3, 3] and _from_workers(Y)
    np.testing.assert_array_equal(Y, X)  # nan positions included
    np.testing.assert_array_equal(np.signbit(Y), np.signbit(X))
    assert [p.name for p in tmp_path.iterdir()] == ["X.csv"]


def test_split_writer_fewer_rows_than_cpus(tmp_path, split):
    X = _special_matrix(rows=2, cols=400)
    save_matrix_csv(tmp_path / "X.csv", X)
    assert split == [2]
    assert (tmp_path / "X.csv").read_text() == _text(X)


def _failing_rows(task):
    raise RuntimeError("formatter failed")


def test_split_writer_leaves_no_part_file_when_a_worker_raises(tmp_path, split, monkeypatch):
    monkeypatch.setattr(matio, "_write_rows", _failing_rows)
    with pytest.raises(RuntimeError, match="formatter failed"):
        save_matrix_csv(tmp_path / "X.csv", _special_matrix())
    assert split == [3]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "edit, splits",
    [
        (lambda lines: lines[:30] + ["# a comment, with commas"] + lines[30:], False),
        (lambda lines: ["# leading, comment"] + lines, False),
        (lambda lines: lines[:45] + [""] + lines[45:], False),
        (lambda lines: lines + ["", ""], False),
        (lambda lines: lines, True),
    ],
    ids=["comment", "leading-comment", "blank-line", "trailing-blank-line", "no-trailing-newline"],
)
def test_split_reader_matches_loadtxt(tmp_path, split, edit, splits):
    lines = _text(_special_matrix()).splitlines()
    path = tmp_path / "X.csv"
    path.write_text("\n".join(edit(lines)))
    X = load_matrix(path)
    np.testing.assert_array_equal(X, np.loadtxt(path, delimiter=",", ndmin=2))
    assert split == [3]  # the workers ran; a file they cannot read is read in one call
    assert _from_workers(X) == splits


@pytest.mark.parametrize(
    "bad_rows, message",
    [("1.5,2.5\n", "the number of columns changed from 40 to 2 at row 61"),
     # the last ranges parse on their own, only to a width other than the first line's
     ("1.5,2.5\n" * 600, "the number of columns changed from 40 to 2 at row 61"),
     (",".join(["0.25"] * 39 + ["abc"]) + "\n", "could not convert string 'abc' to float64 at row 60, column 40")],
    ids=["ragged", "ragged-ranges", "non-numeric"],
)
def test_split_reader_errors_name_the_global_row(tmp_path, split, monkeypatch, bad_rows, message):
    text = _text(_special_matrix())
    path = tmp_path / "X.csv"
    path.write_text(text + bad_rows)
    ranges = matio._line_ranges(path)
    assert len(ranges) > 3 and ranges[-1][0] <= len(text) + len(bad_rows) - 8  # bad rows in the last range
    with pytest.raises(ValueError) as split_info:
        load_matrix(path)
    assert split == [3]
    monkeypatch.setattr(matio, "_cpu_count", lambda: 1)
    with pytest.raises(ValueError) as one_info:
        load_matrix(path)
    assert split == [3]
    assert str(split_info.value) == str(one_info.value)
    assert str(split_info.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("text", ["1,2\n" * 3000, "1,2\n" * 3000 + "3,4", "12345678" * 1000 + "\n1\n"],
                         ids=["newline-end", "open-last-line", "long-first-line"])
def test_line_ranges_cover_the_file(tmp_path, monkeypatch, text):
    monkeypatch.setattr(matio, "_RANGE_BYTES", 1000)
    monkeypatch.setattr(matio, "_SCAN_BYTES", 700)
    path = tmp_path / "X.csv"
    path.write_text(text)
    ranges = matio._line_ranges(path)
    assert [start for start, _, _ in ranges] == [0] + [stop for _, stop, _ in ranges[:-1]]
    assert ranges[-1][1] == len(text)
    for start, stop, rows in ranges[:-1]:
        assert stop - start >= 1000 and text[stop - 1] == "\n"
        assert rows == text[start:stop].count("\n")
    assert sum(rows for _, _, rows in ranges) == len(text.splitlines())


def test_a_second_thread_keeps_the_one_process_path(tmp_path, split):
    # fork copies only the calling thread; a lock another thread holds stays held in the child
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        X = _special_matrix()
        save_matrix_csv(tmp_path / "X.csv", X)
        np.testing.assert_array_equal(load_matrix(tmp_path / "X.csv"), X)
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert split == []
    assert (tmp_path / "X.csv").read_text() == _text(X)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_cpu_takes_the_one_process_path(tmp_path):
    # the child pins only itself; a pool it started would fail the check
    script = f"""
import os, numpy as np
from vcomp import matio
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
matio._RANGE_BYTES = 2048
def no_pool(*args):
    raise AssertionError("a pool was started on one CPU")
matio._pool = no_pool
X = np.random.default_rng(5).standard_normal((60, 40))
matio.save_matrix_csv({str(tmp_path / "X.csv")!r}, X)
assert np.array_equal(matio.load_matrix({str(tmp_path / "X.csv")!r}), X)
print("one process")
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(Path(matio.__file__).parents[1])})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "one process"


def _gone(pid):
    """True once ``pid`` has exited: no such process, or a zombie no one reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
@pytest.mark.parametrize("pool", ["experiments", "matio"])
def test_pool_workers_exit_when_the_parent_is_killed(pool):
    # each sibling holds the call queue open, so without a watcher the
    # orphaned workers would wait on it for good
    script = """
import os, sys, time
from vcomp import experiments, matio
def job(*_):
    os.write(1, f"{os.getpid()}\\n".encode())  # one write: the two lines cannot interleave
    time.sleep(60)
if sys.argv[1] == "experiments":
    experiments._scatter([(job, 1, None, 0, None, r, r + 1) for r in range(2)], 2)
else:
    with matio._pool(2) as pool:
        list(pool.map(job, range(2)))
"""
    parent = subprocess.Popen([sys.executable, "-c", script, pool], stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": str(Path(matio.__file__).parents[1])})
    try:
        workers = [int(parent.stdout.readline()) for _ in range(2)]
    finally:
        parent.kill()
        parent.wait(timeout=60)
        parent.stdout.close()
    deadline = time.monotonic() + 10
    while not all(_gone(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.1)
    alive = [pid for pid in workers if not _gone(pid)]
    for pid in alive:  # leave nothing running when the check fails
        os.kill(pid, signal.SIGKILL)
    assert alive == []
