"""Golden-output tests: one seeded CLI invocation per mode against checked-in files.

The inputs and expected outputs live in ``tests/data/golden``. Floats are
compared to a relative tolerance of 1e-10 (of each column's largest
magnitude), so the files survive BLAS rounding differences between hosts;
headers, dimensions, index sets, methods, histograms and flags must match
exactly. Regenerate the expected files only for an intended change of output,
and list the files whose bytes a regeneration would change:

    PYTHONPATH=src python tests/test_golden.py          # rewrite tests/data/golden
    PYTHONPATH=src python tests/test_golden.py --cmp    # list differing files, exit 1 if any

Both generate in a subprocess with BLAS pinned to one thread; ``--cmp``
generates into a temporary directory, compares bytes and prints beside each
differing file the largest relative move of its numbers and, for a CSV file,
the largest move over the largest value of its column.
"""

import argparse
import csv
import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile

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


def _argv(kind: str, outdir: str, root: str = GOLDEN) -> list[str]:
    data = lambda name: os.path.join(root, f"{name}.csv")  # noqa: E731
    npiv = ["--input", data("npiv"), "--mode", "npiv", "--deriv", "1", "--p-lower", "2.5",
            "--grid-size", "30"]
    argv = {
        "fit_npiv": ["fit", *npiv],
        "fit_reg2d": ["fit", "--input", data("reg2d"), "--mode", "regression", "--grid-size", "10"],
        "fit_additive": ["fit", "--input", data("additive"), "--mode", "additive", "--grid-size", "30"],
        "fit_plm": ["fit", "--input", data("plm"), "--mode", "partially_linear", "--linear-cols", "1",
                    "--grid-size", "30"],
        "rebands": ["bands-plotdata", *npiv, "--from-selection",
                    os.path.join(root, "fit_npiv", "selection.json")],
        # Two targets, four fixed J values and the reject rate in under a second.
        "simulate": ["simulate", "--design", "trade_lognormal", "--n", "600", "--reps", "2",
                     "--draws", "60", "--seed", "7", "--grid-size", "30"],
        # The regression rule's J_hat_max and the fixed J values 11 to 67 at a small n.
        "simulate_reg": ["simulate", "--design", "reg_wiggly", "--n", "300", "--reps", "2",
                         "--draws", "50", "--seed", "7", "--grid-size", "30"],
    }[kind]
    return [*argv, *([] if kind.startswith("simulate") else COMMON), "--outdir", outdir]


KINDS = ("fit_npiv", "fit_reg2d", "fit_additive", "fit_plm", "rebands", "simulate", "simulate_reg")


def _files(kind: str) -> tuple[str, ...]:
    return {
        "rebands": ("estimates.csv",),
        "simulate": ("mc_report.csv", "mc_report.json"),
        "simulate_reg": ("mc_report.csv", "mc_report.json"),
    }.get(kind, ("estimates.csv", "selection.json"))


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _assert_close(actual, expected, what: str) -> None:
    actual, expected = np.asarray(actual, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, what
    scale = float(np.abs(expected).max(initial=0.0))
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale, err_msg=what)


def _compare_csv(actual_path: str, expected_path: str, what: str) -> None:
    # Empty cells and text cells match exactly; numeric cells to RTOL of their column.
    header, rows = _read_csv(actual_path)
    want_header, want_rows = _read_csv(expected_path)
    assert header == want_header, what
    assert len(rows) == len(want_rows) and all(len(r) == len(header) for r in rows), what
    for i, name in enumerate(header):
        got, want = [r[i] for r in rows], [r[i] for r in want_rows]
        assert [c == "" for c in got] == [c == "" for c in want], f"{what} column {name}"
        got, want = [c for c in got if c], [c for c in want if c]
        if all(_is_float(c) for c in want):
            _assert_close([float(c) for c in got], [float(c) for c in want], f"{what} column {name}")
        else:
            assert got == want, f"{what} column {name}"


def _compare_json(got, want, what: str) -> None:
    # Floats (and lists of floats) to RTOL; keys, strings, integers and nulls exactly.
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), what
        for key in want:
            _compare_json(got[key], want[key], f"{what}[{key}]")
    elif isinstance(want, list) and want and all(isinstance(v, float) for v in want):
        _assert_close(got, want, what)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), what
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{what}[{i}]")
    elif isinstance(want, float):
        _assert_close(got, want, what)
    else:
        assert got == want, what


@pytest.mark.parametrize("kind", KINDS)
def test_golden_output(kind, tmp_path):
    out = str(tmp_path / kind)
    assert main(_argv(kind, out)) == EXIT_OK
    for name in _files(kind):
        actual, expected = os.path.join(out, name), os.path.join(GOLDEN, kind, name)
        if name.endswith(".csv"):
            _compare_csv(actual, expected, f"{kind} {name}")
        else:
            with open(actual, encoding="utf-8") as fh, open(expected, encoding="utf-8") as fw:
                _compare_json(json.load(fh), json.load(fw), f"{kind} {name}")


def test_largest_move_reads_numbers_only(tmp_path):
    base, moved, retexted = (tmp_path / name for name in ("base.csv", "moved.csv", "retexted.csv"))
    base.write_text("x,lo95,flag\n0.5,2.0,nan\n0,-4,inf\n")
    moved.write_text("x,lo95,flag\n0.5,2.0000000002,nan\n0,-4,inf\n")
    retexted.write_text("x,lo95,flag\n0.5,2.0,ok\n0,-4,inf\n")
    assert _largest_move(str(base), str(base)) == "largest relative move 0"
    assert _largest_move(str(moved), str(base)) == "largest relative move 1e-10"
    assert _largest_move(str(retexted), str(base)) == "text differs"


def test_largest_column_move_reads_moves_against_the_column(tmp_path):
    base, moved, near_zero = (tmp_path / name for name in ("base.csv", "moved.csv", "near_zero.csv"))
    base.write_text("x,lo95,flag\n0.5,2.0,nan\n0,-4,ok\n1,1e-20,inf\n")
    moved.write_text("x,lo95,flag\n0.5,2.0000000002,nan\n0,-4,ok\n1,1e-20,inf\n")
    near_zero.write_text("x,lo95,flag\n0.5,2.0,nan\n0,-4,ok\n1,3e-20,inf\n")
    assert _largest_column_move(str(base), str(base)) == 0.0
    assert _largest_column_move(str(moved), str(base)) == pytest.approx(2e-10 / 4, rel=1e-6)
    # A per-value move of 2 reads as 2e-20 over a column whose largest value is 4.
    assert _largest_move(str(near_zero), str(base)) == "largest relative move 0.67"
    assert _largest_column_move(str(near_zero), str(base)) == pytest.approx(2e-20 / 4)


def _golden_files() -> list[str]:
    """Every checked-in file, as a path relative to the golden directory."""
    return [f"{name}.csv" for name in _inputs()] + [
        os.path.join(kind, name) for kind in KINDS for name in _files(kind)
    ]


def _generate(root: str) -> None:
    """Write the input CSVs and every kind's expected files under ``root``."""
    import shutil

    for name, columns in _inputs().items():
        data = np.column_stack(list(columns.values()))
        np.savetxt(os.path.join(root, f"{name}.csv"), data, fmt="%.17g", delimiter=",",
                   header=",".join(columns), comments="")
    for kind in KINDS:
        tmp = os.path.join(root, f".{kind}.tmp")
        if main(_argv(kind, tmp, root)) != EXIT_OK:
            raise SystemExit(f"{kind} failed")
        os.makedirs(os.path.join(root, kind), exist_ok=True)
        for name in _files(kind):
            shutil.copyfile(os.path.join(tmp, name), os.path.join(root, kind, name))
        shutil.rmtree(tmp)


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _generate_pinned(root: str, pin: bool = True) -> None:
    """``_generate(root)`` in a fresh interpreter with every BLAS thread variable at 1, or with none set.

    ``cli.main`` runs numpy's bundled OpenBLAS on one thread either way; the
    pinned variables also hold for another BLAS.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    if pin:
        env.update(dict.fromkeys(_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--into", root], env=env, check=True)


def test_goldens_without_thread_variables(tmp_path):
    # With no thread variable set, OpenBLAS starts one thread per core, and the
    # projections and Cholesky factors round differently on two threads than on
    # one; cli.main runs it on one thread, so every golden file keeps its bytes.
    from npivband._linalg import openblas

    if openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread setter here")
    _generate_pinned(str(tmp_path), pin=False)
    assert [name for name in _golden_files()
            if not filecmp.cmp(os.path.join(tmp_path, name), os.path.join(GOLDEN, name), shallow=False)] == []


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf", re.IGNORECASE)


def _largest_move(path: str, expected_path: str) -> str:
    """The largest |a - b| / max(|a|, |b|) over the files' numbers, or why there is none."""
    with open(path, encoding="utf-8") as fh, open(expected_path, encoding="utf-8") as fw:
        texts = fh.read(), fw.read()
    if _NUMBER.sub("#", texts[0]) != _NUMBER.sub("#", texts[1]):
        return "text differs"
    a, b = (np.array([float(tok) for tok in _NUMBER.findall(text)]) for text in texts)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        moves = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return f"largest relative move {np.where(same, 0.0, moves).max(initial=0.0):.2g}"


def _largest_column_move(path: str, expected_path: str) -> float:
    """The largest |a - b| over the largest finite |value| of its column, across two CSV files' numeric cells.

    A value near zero in a column of large ones inflates ``_largest_move``'s
    per-value figure; this one reads each move against its column's scale.
    Text cells, and cells empty in either file, are skipped.
    """
    (header, rows), (_, want) = _read_csv(path), _read_csv(expected_path)
    worst = 0.0
    for i in range(len(header)):
        cells = [(r[i], w[i]) for r, w in zip(rows, want) if r[i] and w[i]]
        if not all(_is_float(a) and _is_float(b) for a, b in cells):
            continue
        a, b = np.array(cells, dtype=np.float64).reshape(-1, 2).T
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        if same.all():
            continue
        values = np.abs(np.concatenate([a, b]))
        scale = values[np.isfinite(values)].max(initial=0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            worst = max(worst, float(np.abs(a - b)[~same].max() / scale))
    return worst


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden files, or list those that would change.")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--cmp", action="store_true", help="list the files whose bytes differ; exit 1 if any")
    group.add_argument("--into", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.into:
        _generate(args.into)
    elif not args.cmp:
        _generate_pinned(GOLDEN)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            _generate_pinned(tmp)
            differ = [name for name in _golden_files()
                      if not filecmp.cmp(os.path.join(tmp, name), os.path.join(GOLDEN, name), shallow=False)]
            for name in differ:
                got, want = os.path.join(tmp, name), os.path.join(GOLDEN, name)
                move = _largest_move(got, want)
                if name.endswith(".csv") and move != "text differs":
                    move += f", {_largest_column_move(got, want):.2g} of its column's largest value"
                print(f"{name}  ({move})")
        print(f"{len(differ)} of {len(_golden_files())} golden files differ", file=sys.stderr)
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(_main())
