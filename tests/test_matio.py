import struct
import warnings

import numpy as np
import pytest

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
