"""Matrix Market parser tests, including the contract error cases."""

import numpy as np
import pytest

from diagmc.matrixmarket import MatrixMarketError, load_matrix_market
from diagmc.operators import CooSymmetric, DenseSymmetric


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
