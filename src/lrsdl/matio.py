"""Matrix and label file I/O.

Two on-disk matrix formats:

* LMX binary: one ASCII header line ``LMX <rows> <cols>\\n`` followed by
  exactly rows*cols IEEE-754 float64 values, little-endian, row-major.
  ``save_matrix`` writes it.
* CSV: comma-separated values, one matrix row per line, no header line.
  An input format only: ``load_matrix`` reads it.

``load_matrix`` sniffs the format from the file content. Label files hold
one integer per line, each a class id under errors.check_labels (1..2**63 - 1).
The writers refuse, before opening the file, what the readers would refuse.
"""

import numpy as np

from .errors import DimensionError, FormatError, check_labels, check_real

_MAGIC = b"LMX "


def save_matrix(M, path):
    """Write a 2-d finite real matrix to ``path`` in LMX binary form."""
    M = check_real(M, "matrix")
    if M.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {M.shape}")
    header = f"LMX {M.shape[0]} {M.shape[1]}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(M, dtype="<f8").tobytes())


def load_matrix(path):
    """Read an LMX binary or CSV matrix, sniffing the format."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == _MAGIC:
        return _parse_binary(blob, path)
    return _parse_csv(blob, path)


def _parse_binary(blob, path):
    nl = blob.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: binary header has no newline")
    try:
        tokens = blob[:nl].decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: header is not ASCII") from exc
    if len(tokens) != 3 or tokens[0] != "LMX":
        raise FormatError(f"{path}: malformed header {blob[:nl]!r}")
    try:
        rows, cols = int(tokens[1]), int(tokens[2])
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer dimensions in header") from exc
    if rows < 0 or cols < 0:
        raise FormatError(f"{path}: negative dimensions in header")
    payload = bytearray(memoryview(blob)[nl + 1 :])  # one writable copy, the matrix's
    expected = rows * cols * 8
    if len(payload) != expected:
        raise DimensionError(
            f"{path}: payload has {len(payload)} bytes, expected {expected} "
            f"for a {rows}x{cols} matrix"
        )
    return check_real(np.frombuffer(payload, dtype="<f8").reshape(rows, cols), f"{path}: matrix")


def _parse_csv(blob, path):
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid text") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return np.zeros((0, 0))
    rows = []
    width = None
    for i, line in enumerate(lines):
        fields = [] if line.strip() == "" else line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise DimensionError(
                f"{path}: row {i + 1} has {len(fields)} fields, expected {width}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise FormatError(f"{path}: unparseable value on row {i + 1}") from exc
    return check_real(np.array(rows).reshape(len(rows), width or 0), f"{path}: matrix")


def save_labels(labels, path):
    """Write 1-d labels that pass errors.check_labels, one per line."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionError(f"expected a 1-d label array, got shape {labels.shape}")
    check_labels(labels)
    with open(path, "w") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def load_labels(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() != ""]
    try:
        labels = np.array([int(ln) for ln in lines], dtype=int)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: labels must be 64-bit integers") from exc
    check_labels(labels, f"{path}: labels")
    return labels
