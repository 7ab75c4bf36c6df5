"""Matrix Market ingestion for symmetric matrices.

Supports the ``coordinate`` and ``array`` formats with ``real`` or
``integer`` fields and ``general`` or ``symmetric`` qualifiers.  General
files must contain symmetric entries (checked to 1e-12 relative); duplicate
coordinate entries are summed, following the format's convention, and every
value must be finite.  Files are UTF-8 and numbers ASCII without ``_``.  One
``np.loadtxt`` pass reads the data block; only if it fails does a line loop
re-read the file, to name the bad line or to load what loadtxt cannot.
"""

import warnings

import numpy as np

from .operators import (
    DENSE_LIMIT,
    AsymmetricMatrixError,
    CooSymmetric,
    DenseSymmetric,
    SymmetricOperator,
)

__all__ = ["MatrixMarketError", "load_matrix_market"]


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market content."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _number(token: str, integer: bool):
    # int and float would also read "1_0" and non-ASCII digits; loadtxt reads neither
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return int(token) if integer else float(token)


def _numbered(fh):
    # a byte that is not UTF-8 arrives as a lone surrogate (errors="surrogateescape")
    for lineno, text in enumerate(fh, 1):
        if not text.isascii() and (bad := [c for c in text if "\udc80" <= c <= "\udcff"]):
            raise MatrixMarketError(f"byte 0x{ord(bad[0]) - 0xDC00:02x} is not valid UTF-8", lineno)
        yield lineno, text


def _head(lines):
    """``(fmt, integer, symmetry, n, count, lineno)``: ``count`` values follow line ``lineno``."""
    lineno, text = next(lines, (1, None))
    if text is None:
        raise MatrixMarketError("empty file", lineno)
    tokens = text.split()
    if len(tokens) != 5 or tokens[0] != "%%MatrixMarket" or tokens[1].lower() != "matrix":
        raise MatrixMarketError("expected '%%MatrixMarket matrix <format> <field> <symmetry>'", lineno)
    fmt, field, symmetry = (t.lower() for t in tokens[2:5])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"unsupported format {fmt!r}", lineno)
    if field not in ("real", "integer", "double"):
        raise MatrixMarketError(f"unsupported field {field!r}; need real or integer values", lineno)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}", lineno)
    for lineno, text in lines:
        size_tokens = text.split()
        if size_tokens and not size_tokens[0].startswith("%"):
            break
    else:
        raise MatrixMarketError("missing size line", lineno)
    if len(size_tokens) != (expected := 3 if fmt == "coordinate" else 2):
        raise MatrixMarketError(f"size line needs {expected} integers for {fmt} format", lineno)
    try:
        n, ncols, *nnz = (_number(t, True) for t in size_tokens)
    except ValueError:
        raise MatrixMarketError("size line must contain integers", lineno) from None
    if n != ncols:
        raise MatrixMarketError(f"matrix is {n}x{ncols}, not square", lineno)
    if n < 1:
        raise MatrixMarketError("matrix dimension must be positive", lineno)
    if n > DENSE_LIMIT and not (fmt == "coordinate" and symmetry == "symmetric"):
        raise MatrixMarketError(f"n = {n} exceeds the dense cutoff {DENSE_LIMIT}; only symmetric "
                                "coordinate files are ingested sparsely", lineno)
    count = nnz[0] if nnz else n * (n + 1) // 2 if symmetry == "symmetric" else n * n
    return fmt, field == "integer", symmetry, n, count, lineno


def _build(n: int, symmetry: str, values, rows=None, cols=None, at=None) -> SymmetricOperator:
    """Checked values as an operator; errors name the line of each value in ``at``, if given."""
    values = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise MatrixMarketError(f"non-finite value {values[bad[0]]}", at and at[bad[0]])
    if rows is not None and symmetry == "symmetric":
        op = CooSymmetric(n, rows, cols, values)
        return op if n > DENSE_LIMIT else DenseSymmetric._wrap(op.to_dense())
    if rows is None and symmetry == "symmetric":
        # the column-major lower triangle is the row-major upper one, mirrored
        m, upper = np.zeros((n, n)), np.triu_indices(n)
        m[upper] = m.T[upper] = values
        return DenseSymmetric._wrap(m)
    m = values.reshape((n, n), order="F") if rows is None else np.zeros((n, n))
    if rows is not None:
        np.add.at(m, (rows, cols), values)
    try:  # a general file must hold symmetric entries already
        return DenseSymmetric.from_dense(m)
    except AsymmetricMatrixError as err:
        i, j = err.i, err.j
        # array files: value j * n + i; coordinate files: the first entry at (i, j), else at (j, i)
        first = j * n + i if rows is None else np.argmax(
            2 * ((rows == i) & (cols == j)) + ((rows == j) & (cols == i)))
        raise MatrixMarketError(str(err), at and at[first]) from None


def _scan(lines, fmt, integer, symmetry, n, count, lineno) -> SymmetricOperator:
    """The line loop: raise the first error with its line number, else build the operator."""
    rows, cols, values, at = [], [], [], []  # at: the line of each value
    for lineno, text in lines:
        tokens = text.split()
        if not tokens or tokens[0].startswith("%"):
            continue
        if fmt == "array":  # column-major values, lower triangle only when symmetric
            for token in tokens:
                try:
                    values.append(float(_number(token, integer)))
                except (ValueError, OverflowError):
                    raise MatrixMarketError(f"cannot parse value {token!r}", lineno) from None
                at.append(lineno)
            continue
        if len(tokens) != 3:
            raise MatrixMarketError("coordinate entry needs 'i j value'", lineno)
        try:
            i, j = _number(tokens[0], True) - 1, _number(tokens[1], True) - 1
            value = float(_number(tokens[2], integer))
        except (ValueError, OverflowError):
            raise MatrixMarketError(f"cannot parse entry {text.strip()!r}", lineno) from None
        if not (0 <= i < n and 0 <= j < n):
            raise MatrixMarketError(f"index ({i + 1}, {j + 1}) out of range", lineno)
        if symmetry == "symmetric" and i < j:
            raise MatrixMarketError("entry above the diagonal in a symmetric coordinate file", lineno)
        rows.append(i)
        cols.append(j)
        values.append(value)
        at.append(lineno)
    if len(values) != count:
        what = "declared {} entries but found" if fmt == "coordinate" else "expected {} array values, found"
        raise MatrixMarketError(f"{what.format(count)} {len(values)}", lineno)
    if fmt == "array":
        return _build(n, symmetry, values, at=at)
    return _build(n, symmetry, values, np.asarray(rows, np.intp), np.asarray(cols, np.intp), at)


def load_matrix_market(path) -> SymmetricOperator:
    """Parse a Matrix Market file into a symmetric operator.

    Returns a :class:`DenseSymmetric` (one full symmetric array) for
    n <= ``DENSE_LIMIT`` and a :class:`CooSymmetric` above that.
    """
    try:  # the data block in one loadtxt pass, checked as arrays
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            fmt, integer, symmetry, n, count, _ = _head(_numbered(fh))
            value = np.int64 if integer else np.float64
            dtype = value if fmt == "array" else [("i", np.int64), ("j", np.int64), ("v", value)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty data block warns; the line loop loads it
                data = np.loadtxt(fh, dtype=dtype, comments=None, ndmin=1)
        rows = cols = None
        if fmt == "coordinate":  # contiguous copies, so the structured array is freed
            rows, cols, data = data["i"] - 1, data["j"] - 1, data["v"].astype(np.float64)
        # np.add.at would wrap negative indices; CooSymmetric rejects entries above the diagonal
        if data.size != count or rows is not None and (
                min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            raise ValueError("a wrong value count or an index out of range")
        return _build(n, symmetry, data.ravel(), rows, cols)
    except (ValueError, Warning):
        pass  # the line loop names the bad line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return _scan(lines := _numbered(fh), *_head(lines))
