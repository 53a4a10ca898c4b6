import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lrsdl.errors import DataError, DimensionError, FormatError
from lrsdl.matio import load_labels, load_matrix, save_labels, save_matrix


def test_csv_direct_parse(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n")
    M = load_matrix(p)
    assert M.shape == (2, 2)
    assert np.array_equal(M, [[1.0, 2.0], [3.0, 4.0]])


def test_binary_direct_parse(tmp_path):
    p = tmp_path / "m.lmx"
    payload = np.arange(6, dtype="<f8").tobytes()
    p.write_bytes(b"LMX 2 3\n" + payload)
    M = load_matrix(p)
    assert M.shape == (2, 3)
    assert np.array_equal(M, np.arange(6.0).reshape(2, 3))


def test_loaded_matrices_are_writable_float64(tmp_path):
    # a caller may scale a loaded matrix in place, from either format
    (tmp_path / "m.lmx").write_bytes(b"LMX 1 2\n" + np.ones(2, dtype="<f8").tobytes())
    (tmp_path / "m.csv").write_text("1,2\n")
    for name in ("m.lmx", "m.csv"):
        M = load_matrix(tmp_path / name)
        assert M.dtype == np.float64 and M.flags.writeable
        M *= 2.0


def test_binary_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 7))
    p = tmp_path / "m.lmx"
    save_matrix(M, p)
    back = load_matrix(p)
    assert back.shape == M.shape
    assert np.array_equal(back, M)


def test_binary_round_trip_4x4(tmp_path):
    M = np.random.default_rng(11).standard_normal((4, 4))
    p = tmp_path / "m.lmx"
    save_matrix(M, p)
    assert np.array_equal(load_matrix(p), M)


def write_csv(M, path):
    """CSV text of M with 17 significant digits, one row per line."""
    path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in M))


def test_csv_identity_serialization(tmp_path):
    p = tmp_path / "eye.csv"
    write_csv(np.eye(2), p)
    assert p.read_text() == "1,0\n0,1\n"
    assert np.array_equal(load_matrix(p), np.eye(2))


def test_csv_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 4)) * np.exp(rng.uniform(-8, 8, size=(6, 4)))
    p = tmp_path / "m.csv"
    write_csv(M, p)
    assert np.array_equal(load_matrix(p), M)


def test_empty_matrix_round_trip(tmp_path):
    binary, csv = tmp_path / "empty.lmx", tmp_path / "empty.csv"
    save_matrix(np.zeros((0, 0)), binary)
    write_csv(np.zeros((0, 0)), csv)
    for p in (binary, csv):
        assert load_matrix(p).shape == (0, 0)
    assert binary.read_bytes() == b"LMX 0 0\n"


def test_zero_column_matrix_round_trip(tmp_path):
    p = tmp_path / "zc.lmx"
    save_matrix(np.zeros((4, 0)), p)
    assert load_matrix(p).shape == (4, 0)


def test_save_rejects_non_2d(tmp_path):
    with pytest.raises(DimensionError):
        save_matrix(np.zeros(3), tmp_path / "x")


def test_malformed_headers(tmp_path):
    cases = [
        b"LMX 2 3",  # no newline anywhere
        b"LMX two 3\n" + b"\x00" * 48,
        b"LMX 2\n" + b"\x00" * 16,
        b"LMX -1 3\n",
    ]
    for i, blob in enumerate(cases):
        p = tmp_path / f"bad{i}"
        p.write_bytes(blob)
        with pytest.raises(FormatError):
            load_matrix(p)


def test_payload_size_mismatch(tmp_path):
    p = tmp_path / "short.lmx"
    p.write_bytes(b"LMX 2 3\n" + b"\x00" * 40)
    with pytest.raises(DimensionError):
        load_matrix(p)


def test_non_finite_entries_rejected(tmp_path):
    p = tmp_path / "nan.lmx"
    M = np.array([[1.0, np.nan]])
    p.write_bytes(b"LMX 1 2\n" + M.astype("<f8").tobytes())
    with pytest.raises(DataError):
        load_matrix(p)
    q = tmp_path / "inf.csv"
    q.write_text("1,inf\n")
    with pytest.raises(DataError):
        load_matrix(q)


def test_csv_ragged_rows(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(DimensionError):
        load_matrix(p)


def test_csv_unparseable_value(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,abc\n")
    with pytest.raises(FormatError):
        load_matrix(p)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_matrix(tmp_path / "nope.lmx")


@pytest.mark.parametrize(
    "M",
    [[[1.0, np.nan]], [[np.inf], [0.0]], [[-np.inf, 2.0]]],
    ids=["nan", "inf", "minus-inf"],
)
def test_save_refuses_non_finite_entries_and_writes_nothing(tmp_path, M):
    p = tmp_path / "m.lmx"
    with pytest.raises(DataError):
        save_matrix(np.array(M), p)
    assert not p.exists()


@pytest.mark.parametrize(
    "labels, error",
    [
        (np.array([1.7, 2.0]), DataError),
        (np.array([1.0, 2.0]), DataError),
        (np.array([True, True]), DataError),
        (np.array(["1", "2"]), DataError),
        (np.array([1, 0]), DataError),
        (np.array([-3, 1]), DataError),
        (np.array([[1, 2], [2, 1]]), DimensionError),
        (np.array(1), DimensionError),
    ],
    ids=[
        "fraction", "integral-float", "bool", "string", "zero", "negative", "2-d", "0-d",
    ],
)
def test_save_labels_takes_only_1d_integer_labels_from_one(tmp_path, labels, error):
    p = tmp_path / "labels.csv"
    with pytest.raises(error):
        save_labels(labels, p)
    assert not p.exists()


def test_labels_round_trip(tmp_path):
    p = tmp_path / "labels.csv"
    labels = np.array([1, 1, 2, 2, 3, 3])
    save_labels(labels, p)
    assert np.array_equal(load_labels(p), labels)
    assert p.read_text() == "1\n1\n2\n2\n3\n3\n"


def test_labels_must_be_integers(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("1\nx\n")
    with pytest.raises(FormatError):
        load_labels(p)


def test_label_beyond_64_bits_rejected(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text(f"1\n{10**30}\n")
    with pytest.raises(FormatError):
        load_labels(p)


def test_labels_must_be_positive(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("1\n0\n")
    with pytest.raises(DataError):
        load_labels(p)


@st.composite
def integer_label_arrays(draw):
    """1-d arrays of any integer dtype, valid labels mixed with the edges of
    the dtype, of the label range and of int64 (2**63 - 1, 2**63, 2**64 - 1)."""
    dtype = np.dtype(draw(st.sampled_from(np.typecodes["AllInteger"])))
    low, high = np.iinfo(dtype).min, np.iinfo(dtype).max
    edges = [low, -1, 0, 1, 2**63 - 1, 2**63, 2**64 - 1, high]
    values = st.sampled_from([v for v in edges if low <= v <= high])
    values |= st.integers(max(low, 1), min(high, 2**63 - 1))
    return draw(hnp.arrays(dtype, st.integers(0, 5), elements=values))


@settings(max_examples=200, deadline=None)
@given(labels=integer_label_arrays())
def test_saved_labels_read_back_and_refused_ones_leave_no_file(labels):
    # the writer refuses, before opening the file, what the reader would
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "labels.csv")
        try:
            save_labels(labels, p)
        except DataError:
            assert not os.path.exists(p)
            return
        back = load_labels(p)
    assert back.dtype == np.int64 and back.tolist() == labels.tolist()
