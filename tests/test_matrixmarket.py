"""Matrix Market parser tests, including the contract error cases."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagmc import matrixmarket
from diagmc.matrixmarket import MatrixMarketError, _head, _numbered, _scan, load_matrix_market
from diagmc.operators import DENSE_LIMIT, AsymmetricMatrixError, CooSymmetric, DenseSymmetric


def _write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestCoordinate:
    def test_symmetric_two_by_two(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real symmetric
% a comment line
2 2 3
1 1 2.0
2 1 1.0
2 2 3.0
""")
        op = load_matrix_market(path)
        assert isinstance(op, DenseSymmetric)
        assert np.array_equal(op.to_dense(), [[2.0, 1.0], [1.0, 3.0]])

    def test_general_symmetric_entries(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 4
1 1 2.0
1 2 1.0
2 1 1.0
2 2 3.0
""")
        op = load_matrix_market(path)
        assert np.array_equal(op.to_dense(), [[2.0, 1.0], [1.0, 3.0]])

    def test_non_square_rejected(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real general
3 4 1
1 1 1.0
""")
        with pytest.raises(MatrixMarketError, match="not square"):
            load_matrix_market(path)

    def test_asymmetric_rejected_with_line(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 4
1 1 1.0
1 2 1.0
2 1 1.5
2 2 1.0
""")
        with pytest.raises(MatrixMarketError, match="line") as err:
            load_matrix_market(path)
        assert "asymmetric" in str(err.value)

    def test_duplicates_summed(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 1.0
1 1 0.5
2 2 1.0
""")
        op = load_matrix_market(path)
        assert op.to_dense()[0, 0] == 1.5

    def test_upper_entry_in_symmetric_rejected(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real symmetric
2 2 1
1 2 1.0
""")
        with pytest.raises(MatrixMarketError, match="above the diagonal"):
            load_matrix_market(path)

    def test_wrong_entry_count(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 1.0
""")
        with pytest.raises(MatrixMarketError, match="declared 3"):
            load_matrix_market(path)

    def test_index_out_of_range(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real symmetric
2 2 1
3 1 1.0
""")
        with pytest.raises(MatrixMarketError, match="out of range"):
            load_matrix_market(path)

    def test_integer_field(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate integer symmetric
2 2 2
1 1 4
2 2 -2
""")
        op = load_matrix_market(path)
        assert np.array_equal(op.exact_diag(), [4.0, -2.0])

    def test_large_general_file_rejected(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real general
10001 10001 1
1 1 1.0
""")
        with pytest.raises(MatrixMarketError, match="dense cutoff"):
            load_matrix_market(path)

    def test_large_dimension_goes_sparse(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real symmetric
10001 10001 3
1 1 2.0
10001 10001 4.0
10001 1 1.0
""")
        op = load_matrix_market(path)
        assert isinstance(op, CooSymmetric)
        v = np.zeros(10001)
        v[0] = 1.0
        out = op.apply(v)
        assert out[0] == 2.0 and out[10000] == 1.0


class TestArray:
    def test_general(self, tmp_path):
        # column-major: columns (2, 1) then (1, 3)
        path = _write(tmp_path, """%%MatrixMarket matrix array real general
2 2
2.0
1.0
1.0
3.0
""")
        op = load_matrix_market(path)
        assert np.array_equal(op.to_dense(), [[2.0, 1.0], [1.0, 3.0]])

    def test_general_file_of_huge_entries_stays_finite(self, tmp_path):
        # 0.5 (a + a) would overflow to inf here
        path = _write(tmp_path, "%%MatrixMarket matrix array real general\n4 4\n" + "1e308\n" * 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = load_matrix_market(path)
        assert np.array_equal(op.to_dense(), np.full((4, 4), 1e308))

    def test_symmetric_lower_triangle(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix array real symmetric
3 3
1.0
2.0
3.0
4.0
5.0
6.0
""")
        op = load_matrix_market(path)
        expected = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        assert np.array_equal(op.to_dense(), expected)

    def test_general_asymmetric_rejected(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix array real general
2 2
1.0
1.5
1.0
1.0
""")
        with pytest.raises(MatrixMarketError, match="asymmetric"):
            load_matrix_market(path)

    def test_wrong_value_count(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix array real general
2 2
1.0
2.0
""")
        with pytest.raises(MatrixMarketError, match="expected 4"):
            load_matrix_market(path)


class TestNonFinite:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_symmetric_coordinate(self, tmp_path, bad):
        path = _write(tmp_path, f"""%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1.0
% a comment line
2 2 {bad}
3 3 1.0
""")
        with pytest.raises(MatrixMarketError, match="non-finite") as err:
            load_matrix_market(path)
        assert err.value.line == 5

    def test_general_coordinate_nan_not_taken_as_symmetric(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 4
1 1 1.0
1 2 nan
2 1 nan
2 2 1.0
""")
        with pytest.raises(MatrixMarketError, match="non-finite") as err:
            load_matrix_market(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_array(self, tmp_path, symmetry):
        path = _write(tmp_path, f"""%%MatrixMarket matrix array real {symmetry}
2 2
1.0{" 0.5" if symmetry == "general" else ""}
0.5
inf
""")
        with pytest.raises(MatrixMarketError, match="non-finite") as err:
            load_matrix_market(path)
        assert err.value.line == 5


class TestAsymmetryLine:
    def test_entry_only_below_the_diagonal(self, tmp_path):
        # A[1,2] is implicitly zero; the line of A[2,1] is reported
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 3
1 1 1.0
2 2 1.0
2 1 1.5
""")
        with pytest.raises(MatrixMarketError, match="asymmetric") as err:
            load_matrix_market(path)
        assert err.value.line == 5

    def test_array_value_line(self, tmp_path):
        # column-major values A11 A21 A12 A22: the first asymmetric position
        # in row-major order is A[1,2], the third value, on line 4
        path = _write(tmp_path, """%%MatrixMarket matrix array real general
2 2
1.0 1.5
1.0
1.0
""")
        with pytest.raises(MatrixMarketError, match="asymmetric") as err:
            load_matrix_market(path)
        assert err.value.line == 4


class TestHeader:
    def test_bad_banner(self, tmp_path):
        path = _write(tmp_path, "%%NotMatrixMarket\n2 2 0\n")
        with pytest.raises(MatrixMarketError, match="line 1"):
            load_matrix_market(path)

    def test_complex_field_rejected(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate complex symmetric\n2 2 0\n")
        with pytest.raises(MatrixMarketError, match="unsupported field"):
            load_matrix_market(path)

    def test_skew_symmetry_rejected(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 0\n")
        with pytest.raises(MatrixMarketError, match="unsupported symmetry"):
            load_matrix_market(path)

    def test_missing_size_line(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate real general\n% only comments\n")
        with pytest.raises(MatrixMarketError, match="missing size line"):
            load_matrix_market(path)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(MatrixMarketError, match="empty"):
            load_matrix_market(path)

    def test_case_insensitive_tokens(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix Coordinate Real Symmetric
1 1 1
1 1 5.0
""")
        op = load_matrix_market(path)
        assert op.to_dense()[0, 0] == 5.0


class TestEncoding:
    @pytest.mark.parametrize("lines,line", [
        ([b"% r\xe9sum\xe9", b"2 2 1", b"1 1 1.0"], 2),
        ([b"2 2 1", b"1 1 1.0", b"% \xff"], 4),
        ([b"2 2 1", b"1 1 1.\xe90"], 3),
    ], ids=["comment-before-size", "trailing-comment", "data-line"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, lines, line):
        path = tmp_path / "m.mtx"
        path.write_bytes(b"\n".join([b"%%MatrixMarket matrix coordinate real symmetric", *lines]) + b"\n")
        with pytest.raises(MatrixMarketError, match="is not valid UTF-8") as err:
            load_matrix_market(path)
        assert err.value.line == line

    def test_utf8_comment_is_accepted(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n"
                                "% résumé\n1 1 1\n1 1 2.0\n")
        assert load_matrix_market(path).to_dense()[0, 0] == 2.0


class TestNumberGrammar:
    """Numbers are ASCII without ``_``, as loadtxt reads them, on both paths."""

    @pytest.mark.parametrize("token", ["1_0", "١", "1٠", "１"])
    @pytest.mark.parametrize("comment", [False, True], ids=["fast", "line-loop"])
    def test_value_rejected_with_its_line(self, tmp_path, token, comment):
        # a comment line inside the data block sends the file to the line loop
        path = _write(tmp_path, f"""%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 1.0
{"% between entries" if comment else ""}
2 2 {token}
""")
        with pytest.raises(MatrixMarketError, match="cannot parse entry") as err:
            load_matrix_market(path)
        assert err.value.line == 5

    @pytest.mark.parametrize("text", ["1_0 1 1", "1 1 1_0", "1 ١ 1"])
    def test_integer_tokens_rejected(self, tmp_path, text):
        path = _write(tmp_path, f"%%MatrixMarket matrix coordinate integer general\n2 2 1\n{text}\n")
        with pytest.raises(MatrixMarketError, match="cannot parse entry") as err:
            load_matrix_market(path)
        assert err.value.line == 3

    def test_array_value_rejected(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix array real symmetric\n1 1\n1_0\n")
        with pytest.raises(MatrixMarketError, match="cannot parse value '1_0'") as err:
            load_matrix_market(path)
        assert err.value.line == 3

    def test_size_line_rejected(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n1_0 1_0 0\n")
        with pytest.raises(MatrixMarketError, match="size line must contain integers"):
            load_matrix_market(path)

    def test_integer_field_rejects_a_fraction(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate integer symmetric\n1 1 1\n1 1 1.5\n")
        with pytest.raises(MatrixMarketError, match="cannot parse entry '1 1 1.5'") as err:
            load_matrix_market(path)
        assert err.value.line == 3

    def test_non_ascii_whitespace_separates_tokens(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n"
                                "1 1 1\n1　1 2.5\n")
        assert load_matrix_market(path).to_dense()[0, 0] == 2.5


class TestFallbackLoads:
    """Valid files the one-pass read cannot take are loaded by the line loop."""

    def test_comments_and_blank_lines_between_entries(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 1.0

   % indented comment
2 1 0.5
""")
        assert np.array_equal(load_matrix_market(path).to_dense(), [[1.0, 0.5], [0.5, 0.0]])

    def test_integers_beyond_int64(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate integer symmetric
2 2 2
1 1 100000000000000000000
2 2 -9223372036854775809
""")
        assert load_matrix_market(path).exact_diag().tolist() == [1e20, -2.0**63]

    def test_ragged_array_lines(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix array real symmetric\n2 2\n1.0 2.0\n3.0\n")
        assert np.array_equal(load_matrix_market(path).to_dense(), [[1.0, 2.0], [2.0, 3.0]])

    def test_no_entries(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 0\n")
        assert not load_matrix_market(path).to_dense().any()

    def test_integer_beyond_the_float_range_is_a_parse_error(self, tmp_path):
        path = _write(tmp_path, f"%%MatrixMarket matrix coordinate integer symmetric\n1 1 1\n1 1 {10**400}\n")
        with pytest.raises(MatrixMarketError, match="cannot parse entry") as err:
            load_matrix_market(path)
        assert err.value.line == 3


class TestCommentLines:
    """Whole-line comments in the data block are read by a second loadtxt pass."""

    @pytest.mark.parametrize("fmt,n", [("coordinate", 3), ("coordinate", DENSE_LIMIT + 1), ("array", 3)])
    def test_commented_file_never_calls_the_line_loop(self, tmp_path, monkeypatch, fmt, n):
        if fmt == "coordinate":
            size, body = f"{n} {n} 3", [f"{n} {n} 1.5", "2 1 -0.5", "3 3 -0.0"]
        else:
            size, body = "3 3", ["1.0", "0.5", "0.0", "3.0", "0.0", "-2.0"]
        head = f"%%MatrixMarket matrix {fmt} real symmetric\n% before the size line\n{size}\n"
        plain = _write(tmp_path, head + "\n".join(body) + "\n", "plain.mtx")
        commented = [body[0], "% note", "   % 1 1 1", "", body[1], "%", *body[2:], "\t% last"]
        commented = _write(tmp_path, head + "\n".join(commented) + "\n", "commented.mtx")
        want = load_matrix_market(plain)

        def refuse(*_):
            raise AssertionError("the line loop read a valid commented file")
        monkeypatch.setattr(matrixmarket, "_scan", refuse)
        got = load_matrix_market(commented)
        assert type(got) is type(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.row_sums(), want.row_sums()))

    @pytest.mark.parametrize("entry,message", [("3 1 0.5", "out of range"),
                                               ("1 2 0.5", "above the diagonal")])
    def test_a_failed_check_goes_straight_to_the_line_loop(self, tmp_path, monkeypatch, entry, message):
        # loadtxt read the block, so it held no comment line: a second pass would read the same
        path = _write(tmp_path, f"%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n{entry}\n")
        passes = []
        read = matrixmarket._read_block
        monkeypatch.setattr(matrixmarket, "_read_block", lambda *args: passes.append(args) or read(*args))
        with pytest.raises(MatrixMarketError, match=message) as err:
            load_matrix_market(path)
        assert err.value.line == 4 and len(passes) == 1

    def test_trailing_comment_is_an_error_naming_its_line(self, tmp_path):
        path = _write(tmp_path, """%%MatrixMarket matrix coordinate real symmetric
2 2 2
% a whole-line comment
1 1 1.0
2 1 0.5 % not a whole-line comment
""")
        with pytest.raises(MatrixMarketError, match="coordinate entry needs") as err:
            load_matrix_market(path)
        assert err.value.line == 5


def test_sparse_load_memory_is_a_small_multiple_of_the_stored_operator(tmp_path, peak_bytes):
    # a line-by-line parse held the file's lines and a Python object per
    # number, about 6x the operator; one loadtxt pass over the open file
    # stays near the arrays the operator is built from
    n = 20_000
    rng = np.random.default_rng(0)
    i = np.arange(1, n + 1)
    rows, cols = np.concatenate([i, i[1:]]), np.concatenate([i, i[:-1]])
    lines = ["%%MatrixMarket matrix coordinate real symmetric", f"{n} {n} {rows.size}"]
    lines += [f"{r} {c} {v!r}" for r, c, v in
              zip(rows.tolist(), cols.tolist(), rng.standard_normal(rows.size).tolist())]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    op, peak = peak_bytes(lambda: load_matrix_market(path))
    assert isinstance(op, CooSymmetric)
    stored = sum(a.nbytes for a in vars(op).values() if isinstance(a, np.ndarray))
    assert peak <= 3 * stored, (peak, stored)


def test_symmetric_array_load_memory_is_the_matrix_and_its_values(tmp_path, peak_bytes):
    # the upper-triangle index arrays that filled the matrix took as much again
    n = 600
    values = np.random.default_rng(1).standard_normal(n * (n + 1) // 2)
    lines = ["%%MatrixMarket matrix array real symmetric", f"{n} {n}", *map(repr, values.tolist())]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    op, peak = peak_bytes(lambda: load_matrix_market(path))
    m, upper = np.zeros((n, n)), np.triu_indices(n)  # the fill it replaced
    m[upper] = m.T[upper] = values
    assert op.to_dense().tobytes() == m.tobytes()
    assert peak <= m.nbytes + values.nbytes + 2**20, (peak, m.nbytes)


# --- differential test against the line-by-line loader this module replaced ---

def _reference_data_lines(lines, start):
    for lineno in range(start, len(lines)):
        stripped = lines[lineno].strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield lineno + 1, stripped


def _reference_load(path):
    """The previous loader: one Python loop over ``splitlines()``, rescans for error lines."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError("empty file", 1)
    tokens = lines[0].strip().split()
    if len(tokens) != 5 or tokens[0] != "%%MatrixMarket" or tokens[1].lower() != "matrix":
        raise MatrixMarketError("expected '%%MatrixMarket matrix <format> <field> <symmetry>'", 1)
    fmt, field, symmetry = (t.lower() for t in tokens[2:5])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"unsupported format {fmt!r}", 1)
    if field not in ("real", "integer", "double"):
        raise MatrixMarketError(f"unsupported field {field!r}; need real or integer values", 1)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}", 1)
    data = _reference_data_lines(lines, 1)
    try:
        lineno, size_line = next(data)
    except StopIteration:
        raise MatrixMarketError("missing size line", len(lines)) from None
    size_tokens = size_line.split()
    expected = 3 if fmt == "coordinate" else 2
    if len(size_tokens) != expected:
        raise MatrixMarketError(f"size line needs {expected} integers for {fmt} format", lineno)
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
        raise MatrixMarketError(
            f"n = {n} exceeds the dense cutoff {DENSE_LIMIT}; only "
            "symmetric coordinate files are ingested sparsely", lineno)

    parse_value = float if field != "integer" else lambda tok: float(int(tok))

    def value_line(index, start=lineno):
        for at, text in _reference_data_lines(lines, start):
            index -= 1 if fmt == "coordinate" else len(text.split())
            if index < 0:
                return at

    def finite(values):
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
                    "entry above the diagonal in a symmetric coordinate file", lineno)
            rows.append(i)
            cols.append(j)
            vals.append(value)
        if len(vals) != nnz:
            raise MatrixMarketError(f"declared {nnz} entries but found {len(vals)}", len(lines))
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        vals = finite(vals)
        if symmetry == "symmetric":
            op = CooSymmetric(n, rows, cols, vals)
            return op if n > DENSE_LIMIT else DenseSymmetric._wrap(op.to_dense())
        m = np.zeros((n, n))
        np.add.at(m, (rows, cols), vals)

        def line_of(i, j):
            at = np.argmax(2 * ((rows == i) & (cols == j)) + ((rows == j) & (cols == i)))
            return value_line(int(at))
    else:
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
                f"expected {expected_count} array values, found {len(values)}", len(lines))
        values = finite(values)
        if symmetry == "symmetric":
            m = np.zeros((n, n))
            upper = np.triu_indices(n)
            m[upper] = values
            m.T[upper] = values
            return DenseSymmetric._wrap(m)
        m = values.reshape((n, n), order="F")

        def line_of(i, j):
            return value_line(j * n + i)

    try:
        return DenseSymmetric.from_dense(m)
    except AsymmetricMatrixError as err:
        raise MatrixMarketError(str(err), line_of(err.i, err.j)) from None


def _line_loop(path):
    """The fallback alone, on every file, so both paths are held to the reference."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = _numbered(fh)
        return _scan(lines, *_head(lines))


def _outcome(load, path):
    try:
        op = load(path)
    except MatrixMarketError as err:
        return "error", str(err), err.line
    # tobytes compares bits, so the sign of zero counts
    return (type(op).__name__, op.exact_diag().tobytes(),
            *(a.tobytes() for a in op.row_sums()), op.to_dense().tobytes())


_REALS = [0.0, -0.0, 0.1, -0.1, 0.5, 1.0, -3.0, 2.5e-8, 1e16, -7e300]
_INTS = [0, 1, -1, 7, 2**53 + 1, 2**63 - 1]
_WIDE_INTS = [2**63, -(2**63) - 1, 10**20, -(10**25)]  # beyond int64: the line loop reads them
_BLANK = ["", "   ", "\t"]
_COMMENTS = ["% note", "  % 1 1 1", "%"]
_ERROR_KINDS = ["bad-token", "token-count", "index-range", "above-diagonal",
                "count", "non-finite", "asymmetric"]


@st.composite
def _spelling(draw, integer, wide=False):
    """A number token: signs, leading zeros, exponents and, if ``wide``, int64 overflow."""
    if integer:
        value = draw(st.sampled_from(_INTS + (_WIDE_INTS if wide else [])))
        digits = str(abs(value)).zfill(draw(st.integers(1, 3)))  # leading zeros
        sign = "-" if value < 0 or draw(st.booleans()) and value == 0 else ""
        return (sign or draw(st.sampled_from(["", "+"]))) + digits
    value = draw(st.sampled_from(_REALS))
    style = draw(st.sampled_from(["{!r}", "{:e}", "{:E}", "{:.17g}", "{:+.3e}", "{:.0f}"]))
    text = style.format(value)
    if text.startswith("0.") and draw(st.booleans()):
        text = text[1:]  # ".5"
    return text


@st.composite
def _matrix_market_file(draw):
    """``(text, kinds)``: a file, valid unless ``kinds`` names the mutations applied."""
    fmt = draw(st.sampled_from(["coordinate", "array"]))
    field = draw(st.sampled_from(["real", "integer"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    integer = field == "integer"
    spelling = _spelling(integer, wide=draw(st.integers(0, 3)) == 0)
    n = draw(st.integers(1, 4))
    lower = [(i, j) for i in range(n) for j in range(i + 1)]
    if fmt == "coordinate":
        empty_allowed = draw(st.integers(0, 4)) == 0  # no entries: the line loop loads it
        picked = draw(st.lists(st.sampled_from(lower), min_size=0 if empty_allowed else 1, max_size=8))
        entries = []
        for i, j in picked:
            value = draw(spelling)
            entries.append([str(i + 1), str(j + 1), value])
            if symmetry == "general" and i != j:
                entries.append([str(j + 1), str(i + 1), value])
        draw(st.randoms()).shuffle(entries)
        size = [str(n), str(n), str(len(entries))]
    else:
        if symmetry == "symmetric":
            values = [draw(spelling) for _ in lower]
        else:  # column-major, with a[i, j] spelled as a[j, i]
            spelled = {(i, j): draw(spelling) for i, j in lower}
            values = [spelled[max(i, j), min(i, j)] for j in range(n) for i in range(n)]
        entries = [[v] for v in values]
        size = [str(n), str(n)]
    kinds = draw(st.lists(st.sampled_from(_ERROR_KINDS), max_size=2))
    for kind in kinds:
        _mutate(draw, kind, fmt, integer, symmetry, n, size, entries)
    if fmt == "array":  # one to three values a line; ragged lines go to the line loop
        values, entries, width = [t for tokens in entries for t in tokens], [], draw(st.integers(1, 3))
        ragged = draw(st.integers(0, 3)) == 0
        while values:
            width = draw(st.integers(1, 3)) if ragged else width
            entries.append(values[:width])
            values = values[width:]
    # comments between entries send the file to the second loadtxt pass
    filler = st.sampled_from(_BLANK + (_COMMENTS if draw(st.integers(0, 3)) == 0 else []))
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    lines = [f"%%MatrixMarket matrix {fmt} {field} {symmetry}"]
    lines += draw(st.lists(st.sampled_from(_BLANK + _COMMENTS), max_size=2))
    lines.append(sep.join(size))
    for tokens in entries:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(filler))
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(tokens))
    lines += draw(st.lists(filler, max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""])), kinds


def _mutate(draw, kind, fmt, integer, symmetry, n, size, entries):
    """Apply one error of ``kind`` to the size tokens or an entry's tokens, where it fits."""
    if kind == "count":
        if fmt == "coordinate":
            size[2] = str(int(size[2]) + draw(st.sampled_from([-1, 1])))
        elif entries:
            entries.pop(draw(st.integers(0, len(entries) - 1)))
        return
    if kind == "asymmetric":  # an off-diagonal entry of a general file, beyond the 1e-12 tolerance
        if fmt == "coordinate":
            where = [k for k, tokens in enumerate(entries) if tokens[0] != tokens[1]]
        else:
            where = [j * n + i for j in range(n) for i in range(n) if i != j]
        if symmetry == "general" and where:
            entries[draw(st.sampled_from(where))][-1] = "1" + "0" * 30 if integer else "5e300"
        return
    if not entries:
        return
    tokens = entries[draw(st.integers(0, len(entries) - 1))]
    if not tokens:  # emptied by an earlier mutation
        return
    if kind == "bad-token":
        bad = draw(st.sampled_from(["x", "1.5", "1e5", "--1", "0x10", "1,5", "1d0", "nan1", "+"]))
        tokens[draw(st.integers(0, len(tokens) - 1))] = bad
    elif kind == "token-count":
        if draw(st.booleans()):
            tokens.pop(draw(st.integers(0, len(tokens) - 1)))
        else:
            tokens.append("1")
    elif kind == "index-range" and fmt == "coordinate":
        bad = draw(st.sampled_from(["0", str(n + 1), "-1", "99999999999999999999"]))
        tokens[draw(st.integers(0, 1))] = bad
    elif kind == "above-diagonal" and fmt == "coordinate":
        tokens[0], tokens[1] = tokens[1], tokens[0]
    elif kind == "non-finite":
        tokens[-1] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "NaN", "-Infinity"]))


class TestAgainstTheReferenceLoader:
    @settings(max_examples=400, deadline=None)
    @given(case=_matrix_market_file())
    def test_same_operator_or_same_error(self, tmp_path_factory, case):
        text, kinds = case
        path = tmp_path_factory.mktemp("mm") / "m.mtx"
        path.write_bytes(text.encode("ascii"))
        want = _outcome(_reference_load, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty data block must not leak loadtxt's warning
            assert _outcome(load_matrix_market, path) == want
            assert _outcome(_line_loop, path) == want
        if not kinds:
            assert want[0] != "error", want
