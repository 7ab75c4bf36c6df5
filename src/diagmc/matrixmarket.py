"""Matrix Market ingestion for symmetric matrices.

Supports the ``coordinate`` and ``array`` formats with ``real`` or
``integer`` fields and ``general`` or ``symmetric`` qualifiers.  General
files must contain symmetric entries (checked to 1e-12 relative); duplicate
coordinate entries are summed, following the format's convention, and every
value must be finite.  Parse failures carry the offending line number.
"""

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
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _parse_header(text: str, lineno: int) -> tuple[str, str, str]:
    tokens = text.strip().split()
    if len(tokens) != 5 or tokens[0] != "%%MatrixMarket" or tokens[1].lower() != "matrix":
        raise MatrixMarketError("expected '%%MatrixMarket matrix <format> <field> <symmetry>'", lineno)
    fmt, field, symmetry = (t.lower() for t in tokens[2:5])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"unsupported format {fmt!r}", lineno)
    if field not in ("real", "integer", "double"):
        raise MatrixMarketError(f"unsupported field {field!r}; need real or integer values", lineno)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}", lineno)
    return fmt, field, symmetry


def _data_lines(lines: list[str], start: int):
    for lineno in range(start, len(lines)):
        stripped = lines[lineno].strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield lineno + 1, stripped


def load_matrix_market(path) -> SymmetricOperator:
    """Parse a Matrix Market file into a symmetric operator.

    Returns a :class:`DenseSymmetric` (one full symmetric array) for
    n <= ``DENSE_LIMIT`` and a :class:`CooSymmetric` above that.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError("empty file", 1)
    fmt, field, symmetry = _parse_header(lines[0], 1)
    data = _data_lines(lines, 1)

    try:
        lineno, size_line = next(data)
    except StopIteration:
        raise MatrixMarketError("missing size line", len(lines)) from None
    size_tokens = size_line.split()
    expected = 3 if fmt == "coordinate" else 2
    if len(size_tokens) != expected:
        raise MatrixMarketError(
            f"size line needs {expected} integers for {fmt} format", lineno
        )
    try:
        sizes = [int(t) for t in size_tokens]
    except ValueError:
        raise MatrixMarketError("size line must contain integers", lineno) from None
    nrows, ncols = sizes[0], sizes[1]
    if nrows != ncols:
        raise MatrixMarketError(f"matrix is {nrows}x{ncols}, not square", lineno)
    n = nrows
    if n < 1:
        raise MatrixMarketError("matrix dimension must be positive", lineno)
    if n > DENSE_LIMIT and not (fmt == "coordinate" and symmetry == "symmetric"):
        # the symmetry check for general files needs the dense matrix
        raise MatrixMarketError(
            f"n = {n} exceeds the dense cutoff {DENSE_LIMIT}; only "
            "symmetric coordinate files are ingested sparsely",
            lineno,
        )

    parse_value = float if field != "integer" else lambda tok: float(int(tok))

    def value_line(index: int, start: int = lineno) -> int:
        # rescan the data block: one value per coordinate line, one per array token
        for at, text in _data_lines(lines, start):
            index -= 1 if fmt == "coordinate" else len(text.split())
            if index < 0:
                return at

    def finite(values: list) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise MatrixMarketError(f"non-finite value {values[bad[0]]}", value_line(int(bad[0])))
        return values

    if fmt == "coordinate":
        nnz = sizes[2]
        rows, cols, vals = [], [], []
        for lineno, text in data:
            tokens = text.split()
            if len(tokens) != 3:
                raise MatrixMarketError("coordinate entry needs 'i j value'", lineno)
            try:
                i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
                value = parse_value(tokens[2])
            except ValueError:
                raise MatrixMarketError(f"cannot parse entry {text!r}", lineno) from None
            if not (0 <= i < n and 0 <= j < n):
                raise MatrixMarketError(f"index ({i + 1}, {j + 1}) out of range", lineno)
            if symmetry == "symmetric" and i < j:
                raise MatrixMarketError(
                    "entry above the diagonal in a symmetric coordinate file", lineno
                )
            rows.append(i)
            cols.append(j)
            vals.append(value)
        if len(vals) != nnz:
            raise MatrixMarketError(
                f"declared {nnz} entries but found {len(vals)}", len(lines)
            )
        # arrays replace the lists before the operator is built, releasing them
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        vals = finite(vals)
        if symmetry == "symmetric":
            op = CooSymmetric(n, rows, cols, vals)
            return op if n > DENSE_LIMIT else DenseSymmetric._wrap(op.to_dense())
        m = np.zeros((n, n))
        np.add.at(m, (rows, cols), vals)

        def line_of(i: int, j: int) -> int:
            # the first entry at (i, j), else the first at (j, i)
            at = np.argmax(2 * ((rows == i) & (cols == j)) + ((rows == j) & (cols == i)))
            return value_line(int(at))
    else:
        # array format: column-major dense values, lower triangle only when symmetric
        values = []
        for lineno, text in data:
            for token in text.split():
                try:
                    values.append(parse_value(token))
                except ValueError:
                    raise MatrixMarketError(f"cannot parse value {token!r}", lineno) from None
        expected_count = n * (n + 1) // 2 if symmetry == "symmetric" else n * n
        if len(values) != expected_count:
            raise MatrixMarketError(
                f"expected {expected_count} array values, found {len(values)}", len(lines)
            )
        values = finite(values)
        if symmetry == "symmetric":
            # the column-major lower triangle is the row-major upper one, mirrored
            m = np.zeros((n, n))
            upper = np.triu_indices(n)
            m[upper] = values
            m.T[upper] = values
            return DenseSymmetric._wrap(m)
        m = values.reshape((n, n), order="F")

        def line_of(i: int, j: int) -> int:
            return value_line(j * n + i)

    # a general file must hold symmetric entries already
    try:
        return DenseSymmetric.from_dense(m)
    except AsymmetricMatrixError as err:
        raise MatrixMarketError(str(err), line_of(err.i, err.j)) from None
