"""Golden-output tests: one seeded CLI invocation per mode against checked-in files.

The inputs and expected outputs live in ``tests/data/golden``. Floats are
compared to a relative tolerance of 1e-10 (of each column's largest
magnitude), so the files survive BLAS rounding differences between hosts;
headers, dimensions, index sets and flags must match exactly. Regenerate the
expected files only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import os
import sys

import numpy as np
import pytest
from scipy.special import ndtr

from npivband.cli import EXIT_OK, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
RTOL = 1e-10
COMMON = ["--seed", "7", "--draws", "99"]


def _inputs() -> dict[str, dict[str, np.ndarray]]:
    rng = np.random.default_rng(20211)
    n = 400
    z, v, e = rng.standard_normal((3, n))
    d = rng.integers(0, 2, n)
    x = ndtr(d * (z + v) + (1 - d) * v)
    npiv = {"y": np.sin(4 * x) * np.log(x) + 0.75 * v + np.sqrt(1 - 0.75**2) * e,
            "x1": x, "w1": ndtr(z)}
    x1, x2 = rng.random((2, n))
    reg2d = {"y": np.sin(2 * np.pi * x1) * np.cos(np.pi * x2) + 0.4 * rng.standard_normal(n),
             "x1": x1, "x2": x2}
    x1, x2 = rng.random((2, n))
    additive = {"y": 1 + np.sin(3 * np.pi * x1) + 4 * (x2 - 0.5) ** 2 + 0.4 * rng.standard_normal(n),
                "x1": x1, "x2": x2}
    x1, x2 = rng.random((2, n))
    plm = {"y": np.sin(3 * np.pi * x1) + 1.5 * x2 + 0.4 * rng.standard_normal(n), "x1": x1, "x2": x2}
    return {"npiv": npiv, "reg2d": reg2d, "additive": additive, "plm": plm}


def _argv(kind: str, outdir: str) -> list[str]:
    data = lambda name: os.path.join(GOLDEN, f"{name}.csv")  # noqa: E731
    npiv = ["--input", data("npiv"), "--mode", "npiv", "--deriv", "1", "--p-lower", "2.5",
            "--grid-size", "30"]
    argv = {
        "fit_npiv": ["fit", *npiv],
        "fit_reg2d": ["fit", "--input", data("reg2d"), "--mode", "regression", "--grid-size", "10"],
        "fit_additive": ["fit", "--input", data("additive"), "--mode", "additive", "--grid-size", "30"],
        "fit_plm": ["fit", "--input", data("plm"), "--mode", "partially_linear", "--linear-cols", "1",
                    "--grid-size", "30"],
        "rebands": ["bands-plotdata", *npiv, "--from-selection",
                    os.path.join(GOLDEN, "fit_npiv", "selection.json")],
    }[kind]
    return [*argv, *COMMON, "--outdir", outdir]


KINDS = ("fit_npiv", "fit_reg2d", "fit_additive", "fit_plm", "rebands")


def _files(kind: str) -> tuple[str, ...]:
    return ("estimates.csv",) if kind == "rebands" else ("estimates.csv", "selection.json")


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=np.float64)


def _assert_close(actual, expected, what: str) -> None:
    actual, expected = np.asarray(actual, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, what
    scale = float(np.abs(expected).max(initial=0.0))
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale, err_msg=what)


def _compare_selection(actual: dict, expected: dict) -> None:
    assert sorted(actual) == sorted(expected)
    for key, want in expected.items():
        got = actual[key]
        if key == "s_hat_by_j":
            assert sorted(got) == sorted(want)
            for j in want:
                _assert_close(got[j], want[j], f"s_hat_by_j[{j}]")
        elif isinstance(want, float) or key == "beta":
            _assert_close(got, want, key)
        else:
            assert got == want, key


@pytest.mark.parametrize("kind", KINDS)
def test_golden_output(kind, tmp_path):
    out = str(tmp_path / kind)
    assert main(_argv(kind, out)) == EXIT_OK
    header, table = _read_csv(os.path.join(out, "estimates.csv"))
    want_header, want_table = _read_csv(os.path.join(GOLDEN, kind, "estimates.csv"))
    assert header == want_header
    assert table.shape == want_table.shape
    for i, name in enumerate(header):
        _assert_close(table[:, i], want_table[:, i], f"{kind} estimates column {name}")
    if "selection.json" in _files(kind):
        with open(os.path.join(out, "selection.json"), encoding="utf-8") as fh:
            actual = json.load(fh)
        with open(os.path.join(GOLDEN, kind, "selection.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        _compare_selection(actual, expected)


def _regenerate() -> None:
    import shutil

    for name, columns in _inputs().items():
        data = np.column_stack(list(columns.values()))
        np.savetxt(os.path.join(GOLDEN, f"{name}.csv"), data, fmt="%.17g", delimiter=",",
                   header=",".join(columns), comments="")
    for kind in KINDS:
        tmp = os.path.join(GOLDEN, f".{kind}.tmp")
        if main(_argv(kind, tmp)) != EXIT_OK:
            raise SystemExit(f"{kind} failed")
        os.makedirs(os.path.join(GOLDEN, kind), exist_ok=True)
        for name in _files(kind):
            shutil.copyfile(os.path.join(tmp, name), os.path.join(GOLDEN, kind, name))
        shutil.rmtree(tmp)


if __name__ == "__main__":
    sys.exit(_regenerate())
