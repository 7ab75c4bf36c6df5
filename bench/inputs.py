"""Seeded benchmark inputs: Matrix Market files and the entries behind them.

Every generator is a pure function of the benchmark seed, so a worker process
can rebuild the exact entries it needs for its output checks without reading
anything but the seed.  Only the ``.mtx`` text is handed to the program.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# sparse-large: n above the loader's dense cutoff (10^4), so the file is
# ingested as a CooSymmetric; about four random lower-triangle entries per row.
SPARSE_N = 50_000
SPARSE_PER_ROW = 4
SPARSE_OFFDIAG_MAX = 0.1

# cli-dense: a banded matrix small enough to be densified (n <= 10^4).
DENSE_N = 2000
DENSE_BANDWIDTH = 10
DENSE_DECAY = 0.3
DENSE_JITTER = 0.05


@dataclass(frozen=True)
class SymmetricEntries:
    """Lower-triangle coordinates (0-based) of a symmetric matrix."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(self.n)
        on = self.rows == self.cols
        np.add.at(diag, self.rows[on], self.values[on])
        return diag

    def row_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row: sum of squared and sum of absolute off-diagonal entries."""
        off = self.rows != self.cols
        r, c, v = self.rows[off], self.cols[off], self.values[off]
        sq = np.bincount(r, v * v, self.n) + np.bincount(c, v * v, self.n)
        ab = np.bincount(r, np.abs(v), self.n) + np.bincount(c, np.abs(v), self.n)
        return sq, ab


def sparse_large_entries(seed: int) -> SymmetricEntries:
    """Diagonal in [1, 2) plus random lower-triangle entries of magnitude <= 0.1."""
    n = SPARSE_N
    rng = np.random.default_rng([seed, 1])
    diag = 1.0 + rng.random(n)
    i = np.repeat(np.arange(1, n, dtype=np.int64), SPARSE_PER_ROW)
    j = (rng.random(i.size) * i).astype(np.int64)  # uniform column in [0, i)
    i, j = np.divmod(np.unique(i * n + j), n)  # drop repeated positions
    off = rng.uniform(-SPARSE_OFFDIAG_MAX, SPARSE_OFFDIAG_MAX, i.size)
    idx = np.arange(n, dtype=np.int64)
    return SymmetricEntries(
        n, np.concatenate([idx, i]), np.concatenate([idx, j]), np.concatenate([diag, off])
    )


def dense_band_entries(seed: int) -> SymmetricEntries:
    """a_ij = 0.3^|i-j| (1 + u_ij) for |i-j| <= 10, with u_ij uniform in +-5%."""
    n = DENSE_N
    rng = np.random.default_rng([seed, 2])
    rows, cols = [], []
    for k in range(DENSE_BANDWIDTH + 1):
        j = np.arange(n - k, dtype=np.int64)
        rows.append(j + k)
        cols.append(j)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    jitter = rng.uniform(-DENSE_JITTER, DENSE_JITTER, rows.size)
    values = DENSE_DECAY ** (rows - cols).astype(np.float64) * (1.0 + jitter)
    return SymmetricEntries(n, rows, cols, values)


def write_matrix_market(entries: SymmetricEntries, path: Path) -> int:
    """Write a symmetric coordinate file; returns its size in bytes.

    Values use ``repr``, the shortest text that parses back to the same float.
    """
    lines = [
        "%%MatrixMarket matrix coordinate real symmetric",
        f"{entries.n} {entries.n} {entries.nnz}",
    ]
    lines.extend(
        f"{r} {c} {v!r}"
        for r, c, v in zip(
            (entries.rows + 1).tolist(), (entries.cols + 1).tolist(), entries.values.tolist()
        )
    )
    data = ("\n".join(lines) + "\n").encode("ascii")
    Path(path).write_bytes(data)
    return len(data)


GENERATORS = {"sparse-large": sparse_large_entries, "cli-dense": dense_band_entries}
