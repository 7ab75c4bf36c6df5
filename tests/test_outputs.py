"""Byte-identical CLI outputs, pinned by the manifest ``outputs.json``.

Each command in ``COMMANDS`` runs through ``cli.main`` in a directory that
holds the input files ``_write_inputs`` writes from integers and ``repr``
floats.  Its output (``_output``) is the exit code, or the exception the
command raised, then stdout, stderr, the warnings it issued and the CSV it
wrote, if any.  The manifest pins each output by SHA-256 and byte count.

Platform split.  An output marked ``exact`` comes from IEEE elementwise
arithmetic, numpy's pairwise sums and ``bincount`` alone: Rademacher and
sparse probes on a test family or a ``CooSymmetric``, their bound constants
that take no logarithm, and refusals.  Those are pinned on every platform.
Every other output goes through libm (Gaussian probes, the planners'
logarithms, the decay family's ``exp``), BLAS (the dense apply) or
``einsum`` (the dense row sums), whose last bits may differ between CPUs
and numpy builds.  Those are pinned byte for byte only
under the platform key recorded in the manifest: numpy's version, the
machine and numpy's enabled CPU features.  On every key they are also
checked against stored floats, and that check is all they get elsewhere,
never a skip: the output with each non-integer number replaced by ``#`` must
match by SHA-256, and each non-integer number of the stored lines (every
line that has one, or an evenly spaced ``LINES`` of them) must lie within
``ULPS`` units in the last place of the largest magnitude on its line.
Integers (exit codes, sample counts, indices, seeds) are part of the text
and so match exactly everywhere.

After an intended output change, re-record with
``PYTHONPATH=src python tests/test_outputs.py`` and list in CHANGES.md the
entries that moved and why.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from diagmc.cli import main

MANIFEST = Path(__file__).with_name("outputs.json")
ULPS = 1024  # off the recorded platform: allowed distance, in ulps of a line's largest number
LINES = 100  # off the recorded platform: lines whose numbers are stored, at most
_OUT = "out.csv"  # every command that writes a CSV writes it here


def _coordinate_file(n, entries, symmetry="symmetric"):
    lines = [f"{i} {j} {v}" for i, j, v in entries]
    return (f"%%MatrixMarket matrix coordinate real {symmetry}\n{n} {n} {len(lines)}\n"
            + "\n".join(lines) + "\n")


def _other_layouts(n, lower):
    """The symmetric matrix with these lower-triangle entries as a general coordinate,
    a symmetric array and a general array file."""
    at = {(i, j): v for i, j, v in lower}

    def array_file(symmetry, first_row):  # column-major, from row first_row(j) of column j
        values = [at.get((max(i, j), min(i, j)), 0)
                  for j in range(1, n + 1) for i in range(first_row(j), n + 1)]
        return f"%%MatrixMarket matrix array real {symmetry}\n{n} {n}\n" + "".join(f"{v}\n" for v in values)

    mirrored = [(j, i, v) for i, j, v in lower if i != j]
    return {"general": _coordinate_file(n, lower + mirrored, "general"),
            "array": array_file("symmetric", lambda j: j),
            "general-array": array_file("general", lambda j: 1)}


def _banded(n):
    """A diagonal of integers 3..7 and a sub-diagonal of repr floats -0.4..0.4."""
    for i in range(1, n + 1):
        yield i, i, (i * 7) % 5 + 3
        if i < n:
            yield i + 1, i, repr(((i * 5) % 9 - 4) * 0.1)


def _write_inputs(directory: Path) -> None:
    small = list(_banded(12)) + [(i + 3, i, repr(0.25 * i - 1.0)) for i in range(2, 10, 2)]
    # above the dense cutoff, so it loads as a CooSymmetric; rows 4000, 9000 and
    # 10050 hold 83 entries each, past the 64-row slots, in the overflow
    n = 10_050
    long_rows = [(r, 2 + 41 * k, repr(0.01 * (k % 7 + 1))) for r in (4000, 9000, n) for k in range(80)]
    files = {
        "small.mtx": _coordinate_file(12, small),
        "large.mtx": _coordinate_file(n, list(_banded(n)) + long_rows),
        # a_ii = 10^6 with one a_21 = 10^-3: a_ii^2 + a_21^2 rounds to a_ii^2
        "dominant.mtx": _coordinate_file(4, [(i, i, 1000000) for i in range(1, 5)] + [(2, 1, "0.001")]),
        # a_21^2 underflows to 0 although a_21 is not 0
        "tiny.mtx": _coordinate_file(4, [(i, i, 1) for i in range(1, 5)] + [(2, 1, "1e-170")]),
        # squares overflow to inf
        "huge.mtx": _coordinate_file(4, [(i, i, "1e200") for i in range(1, 5)] + [(2, 1, "1e200")]),
        "notsquare.mtx": "%%MatrixMarket matrix coordinate real general\n3 4 0\n",
        **{f"small-{layout}.mtx": text for layout, text in _other_layouts(12, small).items()},
    }
    for name, text in files.items():
        (directory / name).write_text(text)
    (directory / "latin1.mtx").write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\n"
                                           b"% r\xe9sum\xe9\n1 1 1\n1 1 2.0\n")


def _commands():
    """name -> (exact, argv)."""
    sources = {"tridiag": ("--test-matrix", "tridiag:100:0.5"),
               "small": ("--matrix-file", "small.mtx"), "large": ("--matrix-file", "large.mtx"),
               "dominant": ("--matrix-file", "dominant.mtx"), "tiny": ("--matrix-file", "tiny.mtx"),
               "huge": ("--matrix-file", "huge.mtx")}
    component = {"tridiag": "0", "small": "1", "large": "3999"}  # large: a row in the overflow
    target = ("--eps", "0.1", "--delta", "1e-6")
    out = {}
    for source in ("tridiag", "small", "large"):
        for dist in ("rademacher", "sparse:3", "gaussian", "normalized-gaussian"):
            # the small file loads as a DenseSymmetric, whose apply is BLAS
            exact = dist in ("rademacher", "sparse:3") and source != "small"
            out[f"estimate-{source}-{dist}"] = (exact, ("estimate", *sources[source], "--dist", dist,
                                                        "--samples", "64", "--seed", "5", "--out", _OUT))
    for i in (1, 2, 3, 4):
        out[f"experiment-{i}"] = (False, ("experiment", "--id", str(i), "--replicates", "3",
                                          "--seed", "11", "--out", _OUT))
    for source, matrix in sources.items():
        comp, exact = ("--component", component.get(source, "0")), source in ("tridiag", "large")
        out[f"bounds-{source}"] = (exact, ("bounds", *matrix))
        out[f"bounds-{source}-sparse"] = (exact, ("bounds", "--dist", "sparse:3", *matrix))
        out[f"bounds-{source}-component"] = (exact, ("bounds", *comp, *matrix))
        out[f"bounds-{source}-gaussian-normwise"] = (False, ("bounds", "--dist", "gaussian-normwise", *matrix))
        out[f"plan-{source}"] = (False, ("plan", *target, *matrix))
        out[f"plan-{source}-sparse"] = (False, ("plan", "--dist", "sparse:3", *target, *matrix))
        out[f"plan-{source}-gaussian-normwise"] = (False, ("plan", "--dist", "gaussian-normwise",
                                                           *target, *matrix))
        for dist in ("rademacher", "gaussian", "normalized-gaussian"):
            out[f"plan-{source}-component-{dist}"] = (False, ("plan", "--dist", dist, *comp, *target, *matrix))
    tridiag10, plan = ("--test-matrix", "tridiag:10:0.5"), ("plan", "--eps", "0.1", "--delta", "0.1")
    errors = {
        "estimate-no-source": ("estimate", "--samples", "4"),
        "estimate-zero-samples": ("estimate", "--samples", "0", *tridiag10),
        "estimate-unknown-dist": ("estimate", "--samples", "4", "--dist", "sobol", *tridiag10),
        "estimate-dgsm": ("estimate", "--samples", "4", "--dist", "dgsm", *tridiag10),
        "estimate-gaussian-parameter": ("estimate", "--samples", "4", "--dist", "gaussian:3", *tridiag10),
        "estimate-sparse-range": ("estimate", "--samples", "4", "--dist", "sparse:0.5", *tridiag10),
        "estimate-bad-spec": ("estimate", "--samples", "1", "--test-matrix", "tridiag:100"),
        "estimate-unknown-kind": ("estimate", "--samples", "1", "--test-matrix", "hilbert:10:0.5"),
        "estimate-n-1": ("estimate", "--samples", "1", "--test-matrix", "tridiag:1:0.5"),
        "estimate-not-square": ("estimate", "--samples", "1", "--matrix-file", "notsquare.mtx"),
        "estimate-missing-file": ("estimate", "--samples", "1", "--matrix-file", "missing.mtx"),
        "bounds-latin1": ("bounds", "--matrix-file", "latin1.mtx"),
        "bounds-infinite-theta": ("bounds", "--test-matrix", "rank1:50:inf"),
        "bounds-component-range": ("bounds", "--component", "99", *tridiag10),
        "bounds-gaussian": ("bounds", "--dist", "gaussian", *tridiag10),
        "bounds-component-sparse": ("bounds", "--dist", "sparse:3", "--component", "3", *tridiag10),
        "plan-no-delta": ("plan", "--eps", "0.1", *tridiag10),
        "plan-nan-eps": ("plan", "--eps=nan", "--delta", "0.1", *tridiag10),
        "plan-component-inf-eps": ("plan", "--eps=inf", "--delta", "0.1", "--component", "3", *tridiag10),
        "plan-nan-theta": (*plan, "--test-matrix", "tridiag:100:nan"),
        "plan-gaussian": (*plan, "--dist", "gaussian", *tridiag10),
        "experiment-bad-id": ("experiment", "--id", "9"),
        "experiment-bad-grid": ("experiment", "--id", "1", "--n-grid", "16,x"),
        "experiment-n-1": ("experiment", "--id", "1", "--n", "1", "--replicates", "1", "--n-grid", "16"),
        "experiment-delta": ("experiment", "--id", "1", "--delta", "2", "--replicates", "1", "--n-grid", "16"),
        "experiment-nan-theta": ("experiment", "--id", "2", "--thetas", "nan", "--replicates", "1"),
        "experiment-ignored-delta": ("experiment", "--id", "3", "--delta", "0.1"),
        "experiment-ignored-thetas": ("experiment", "--id", "4", "--thetas", "0.5"),
    }
    out.update({f"error-{name}": (True, argv) for name, argv in errors.items()})
    # the small matrix in the loader's other layouts: each must give estimate-small-rademacher's output
    for layout in ("general", "array", "general-array"):
        out[f"estimate-small-{layout}-rademacher"] = (False, (
            "estimate", "--matrix-file", f"small-{layout}.mtx", "--dist", "rademacher",
            "--samples", "64", "--seed", "5", "--out", _OUT))
    return out


COMMANDS = _commands()


def _output(argv) -> str:
    """Run ``diagmc argv`` in the current directory; its exit code or exception, streams, warnings and CSV."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            status = f"exit {main(list(argv))}"
        except Exception as exc:  # recorded, so a traceback shows as an output
            status = f"raised {type(exc).__name__}: {exc}"
    text = f"{status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    text += "".join(f"--- warning\n{w.category.__name__}: {w.message}\n" for w in caught)
    csv = Path(_OUT)
    if csv.exists():
        text += f"--- {_OUT}\n{csv.read_text()}"
        csv.unlink()
    return text


def platform_key() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    enabled = ",".join(sorted(name for name, on in features.items() if on))
    return (f"numpy {np.__version__}, {platform.machine()}, "
            f"cpu {hashlib.sha256(enabled.encode()).hexdigest()[:16]}")


_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _non_integer(token: str) -> bool:
    return any(c in token for c in ".eE")


def _skeleton(text: str) -> str:
    return _NUMBER.sub(lambda m: "#" if _non_integer(m.group()) else m.group(), text)


def _line_numbers(line: str) -> list:
    return [float(t) for t in _NUMBER.findall(line) if _non_integer(t)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _entry(exact: bool, text: str) -> dict:
    entry = {"exact": exact, "sha256": _sha(text), "bytes": len(text.encode())}
    if not exact:
        lines = [(k, v) for k, v in enumerate(text.split("\n")) if _line_numbers(v)]
        step = max(1, math.ceil(len(lines) / LINES))
        entry["skeleton"] = _sha(_skeleton(text))
        entry["numbers"] = {str(k): _line_numbers(v) for k, v in lines[::step]}
    return entry


def _check_numbers(text: str, entry: dict) -> None:
    """The check of a platform output on any platform: its skeleton, and its stored numbers within ULPS."""
    assert _sha(_skeleton(text)) == entry["skeleton"], "the text or an integer differs"
    lines = text.split("\n")
    for k, want in entry["numbers"].items():
        got = _line_numbers(lines[int(k)])
        tolerance = ULPS * math.ulp(max(map(abs, want)))
        assert all(abs(g - w) <= tolerance for g, w in zip(got, want)), (lines[int(k)], want)


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("outputs")
    _write_inputs(directory)
    return directory


def test_manifest_covers_the_commands(manifest):
    assert list(manifest["outputs"]) == list(COMMANDS)
    assert all(manifest["outputs"][name]["exact"] == exact for name, (exact, _) in COMMANDS.items())


@pytest.mark.parametrize("name", COMMANDS)
def test_output_matches_manifest(manifest, inputs, monkeypatch, name):
    monkeypatch.chdir(inputs)
    exact, argv = COMMANDS[name]
    text, entry = _output(argv), manifest["outputs"][name]
    if not exact:
        _check_numbers(text, entry)
    if exact or manifest["platform"] == platform_key():
        assert (_sha(text), len(text.encode())) == (entry["sha256"], entry["bytes"]), text[:2000]


def test_layouts_load_the_same_matrix(manifest):
    outputs = manifest["outputs"]
    for layout in ("general", "array", "general-array"):
        assert outputs[f"estimate-small-{layout}-rademacher"] == outputs["estimate-small-rademacher"]


def test_number_check_has_the_stated_tolerance():
    text = "exit 0\n--- stdout\nN = 17\nK1 = 0.5\nrow 3,1.25,1,2.5e-09\n"
    entry = _entry(False, text)
    _check_numbers(text, entry)
    ulp = math.ulp(1.25)
    _check_numbers(text.replace("2.5e-09", repr(2.5e-09 + ULPS * ulp)), entry)
    for moved in (text.replace("2.5e-09", repr(2.5e-09 + 2 * ULPS * ulp)),
                  text.replace("0.5", repr(0.5 + 2 * ULPS * math.ulp(0.5))),
                  text.replace("N = 17", "N = 18"), text.replace("K1", "K2")):
        with pytest.raises(AssertionError):
            _check_numbers(moved, entry)


def record() -> None:
    """Run every command and rewrite the manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            outputs = {name: _entry(exact, _output(argv)) for name, (exact, argv) in COMMANDS.items()}
        finally:
            os.chdir(cwd)
    body = ",\n".join(f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in outputs.items())
    MANIFEST.write_text(f'{{\n "platform": {json.dumps(platform_key())},\n'
                        f' "outputs": {{\n{body}\n }}\n}}\n')


if __name__ == "__main__":
    record()
    sys.exit(0)
