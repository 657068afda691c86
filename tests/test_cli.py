import csv
import filecmp
import json
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from npivband import adaptive as ad
from npivband import estimator as est
from npivband.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture()
def linear_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.random(300)
    y = 2.0 + 3.0 * x
    path = tmp_path / "linear.csv"
    _write_csv(path, ["y", "x1"], [[format(a, ".17g"), format(b, ".17g")] for a, b in zip(y, x)])
    return str(path)


@pytest.fixture()
def npiv_csv(tmp_path):
    rng = np.random.default_rng(1)
    n = 300
    x = rng.random(n)
    w = np.clip(x + 0.15 * rng.standard_normal(n), 0, 1)
    y = np.sin(3 * x) + 0.4 * rng.standard_normal(n)
    path = tmp_path / "npiv.csv"
    _write_csv(
        path,
        ["y", "x1", "w1"],
        [[format(a, ".17g"), format(b, ".17g"), format(c, ".17g")] for a, b, c in zip(y, x, w)],
    )
    return str(path)


def _fit_args(input_path, outdir, *extra):
    return [
        "fit", "--input", input_path, "--mode", "regression", "--seed", "5",
        "--draws", "80", "--grid-size", "40", "--outdir", str(outdir), *extra,
    ]


class TestCmdFit:
    def test_linear_center_exact(self, linear_csv, tmp_path):
        out = tmp_path / "out"
        assert main(_fit_args(linear_csv, out)) == EXIT_OK
        rows = list(csv.reader(open(out / "estimates.csv")))
        header = rows[0]
        xs = np.array([float(r[header.index("x")]) for r in rows[1:]])
        center = np.array([float(r[header.index("center")]) for r in rows[1:]])
        assert np.abs(center - (2 + 3 * xs)).max() < 1e-9

    def test_byte_identical_reruns(self, npiv_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["fit", "--input", npiv_csv, "--seed", "9", "--draws", "80",
                "--grid-size", "30", "--outdir"]
        assert main([*args, str(a)]) == EXIT_OK
        assert main([*args, str(b)]) == EXIT_OK
        assert filecmp.cmp(a / "estimates.csv", b / "estimates.csv", shallow=False)
        assert filecmp.cmp(a / "selection.json", b / "selection.json", shallow=False)

    def test_malformed_row_names_row(self, linear_csv, tmp_path, capsys):
        rows = list(csv.reader(open(linear_csv)))
        rows[17][0] = "oops"
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        rc = main(_fit_args(str(bad), tmp_path / "o"))
        assert rc == EXIT_DATA
        assert "row 17" in capsys.readouterr().err

    @pytest.mark.parametrize("column, extra", [
        ("nan", ["--x-transform", "none"]),
        ("nan", ["--x-transform", "ecdf"]),
        ("nan", ["--x-transform", "affine"]),
        ("nan", ["--x-transform", "trade_clamp"]),
        ("constant", ["--x-transform", "ecdf"]),
        ("three_values", ["--knot-rule", "empirical_quantile"]),
    ], ids=["nan-none", "nan-ecdf", "nan-affine", "nan-trade_clamp", "constant-ecdf", "three_values-quantile_knots"])
    def test_unusable_x_column_data_error(self, column, extra, linear_csv, tmp_path, capsys):
        # A non-finite cell, a constant column under the empirical CDF, or a column too discrete
        # for quantile knots is a fault of the data, whichever step finds it.
        header, *rows = list(csv.reader(open(linear_csv)))
        for i, row in enumerate(rows):
            if column == "constant":
                row[1] = "0.3"
            elif column == "three_values":
                row[1] = str(i % 3 / 2)
        if column == "nan":
            rows[17][1] = "nan"
        bad = tmp_path / "bad.csv"
        _write_csv(bad, header, rows)
        rc = main(_fit_args(str(bad), tmp_path / "o", *extra))
        assert rc == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_trailing_blank_line_is_ignored(self, linear_csv, tmp_path):
        blank = tmp_path / "blank.csv"
        blank.write_bytes(open(linear_csv, "rb").read() + b"\r\n")
        assert main(_fit_args(linear_csv, tmp_path / "a")) == EXIT_OK
        assert main(_fit_args(str(blank), tmp_path / "b")) == EXIT_OK
        for name in ("estimates.csv", "selection.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)

    def test_blank_line_between_rows_names_row(self, linear_csv, tmp_path, capsys):
        lines = open(linear_csv, newline="").read().split("\r\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("\r\n".join([*lines[:18], "", *lines[18:]]), newline="")
        rc = main(_fit_args(str(bad), tmp_path / "o"))
        assert rc == EXIT_DATA
        assert "row 18 has 0 fields" in capsys.readouterr().err

    def test_column_parse_equals_row_scan(self):
        from npivband.cli import DataError, _columns, _parse_numeric

        header = ["y", "x1", "w1"]
        rows = [[format(v, ".17g") for v in np.random.default_rng(k).random(3)] for k in range(50)]
        rows[3][1] = " 1e-3 "
        columns = _columns(rows, header)
        for cols in (["y"], ["x1", "w1"]):
            fast = _parse_numeric(rows, header, cols, columns)
            np.testing.assert_array_equal(fast, _parse_numeric(rows, header, cols))
            assert fast.flags.c_contiguous
        # Bad cells and rows are named as the row-major scan names them.
        for row, cell in ((5, ["0.1", "oops", "0.2"]), (9, ["0.1", "0.2"])):
            bad = [list(r) for r in rows]
            bad[row] = cell
            bad[20][2] = "late"
            with pytest.raises(DataError) as scanned:
                _parse_numeric(bad, header, ["x1", "w1"])
            with pytest.raises(DataError) as converted:
                _parse_numeric(bad, header, ["x1", "w1"], _columns(bad, header))
            assert str(converted.value) == str(scanned.value) and f"row {row + 1}" in str(scanned.value)

    def test_column_writer_equals_cell_formatting(self, tmp_path):
        from npivband.cli import _write_csv as write_columns

        floats = np.array([0.1, -0.0, 1e-300, 1e300, np.inf, -np.nan, 2.0 / 3.0, 5.0])
        mixed = [np.float64(1.5), -0.0, 1e-300, 1e300, 7, "a,b", None, np.int64(3)]
        header, columns = ["x", "mixed", "label"], [floats, mixed, [f"r{i}" for i in range(8)]]
        write_columns(str(tmp_path / "columns.csv"), header, columns)
        # The per-cell reference: floats (numpy's too) at 17 significant digits, None empty,
        # anything else as csv.writer renders it.
        with open(tmp_path / "cells.csv", "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in zip(*columns):
                writer.writerow(["" if v is None else format(float(v), ".17g")
                                 if isinstance(v, (float, np.floating)) else v for v in row])
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
        assert b"\n-0,-0,r1\n1e-300,1e-300,r2\n" in (tmp_path / "columns.csv").read_bytes()
        assert b'\nnan,"a,b",r5\n0.66666666666666663,,r6\n' in (tmp_path / "columns.csv").read_bytes()

    def test_float_blocks_equal_cell_formatting(self, tmp_path):
        # An all-float table of two blocks and a part, with nan, +-inf, -0.0 and 1e-300
        # in each column and the last block, against one formatted cell at a time.
        from npivband.cli import _CSV_BLOCK, _write_csv

        rng = np.random.default_rng(12)
        rows = 2 * _CSV_BLOCK + 37
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, -1e-300, 0.0, 1e300])
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows) for _ in range(3)]
        for k, col in enumerate(columns):
            col[rng.choice(rows, special.size, replace=False)] = special
            col[-special.size - k:rows - k] = special
        columns.append(np.arange(rows, dtype=np.float64) / 3.0)
        header = ["x", "lo95", "hi95", "sigma"]
        _write_csv(str(tmp_path / "blocks.csv"), header, columns)
        with open(tmp_path / "cells.csv", "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in zip(*columns):
                writer.writerow([format(float(v), ".17g") for v in row])
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
        assert b"\nnan,inf,-inf," in (tmp_path / "blocks.csv").read_bytes()

    def test_missing_column_config_error(self, linear_csv, tmp_path):
        rc = main(_fit_args(linear_csv, tmp_path / "o", "--y-col", "nope"))
        assert rc == EXIT_CONFIG

    def test_missing_file_data_error(self, tmp_path):
        rc = main(_fit_args(str(tmp_path / "missing.csv"), tmp_path / "o"))
        assert rc == EXIT_DATA

    def test_insufficient_sample_numeric_exit(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.random(6)
        path = tmp_path / "tiny.csv"
        _write_csv(path, ["y", "x1", "w1"],
                   [[format(v, ".6f"), format(u, ".6f"), format(u, ".6f")]
                    for v, u in zip(x + 1, x)])
        rc = main(["fit", "--input", str(path), "--seed", "1", "--draws", "20",
                   "--outdir", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC

    @pytest.mark.parametrize("mode", ["regression", "npiv"])
    def test_three_rows_numeric_exit_in_either_mode(self, mode, tmp_path, capsys):
        # The smallest cubic dimension is 4, so no J fits three rows under either truncation rule.
        path = tmp_path / "three.csv"
        _write_csv(path, ["y", "x1", "w1"], [[1.2, 0.2, 0.3], [1.5, 0.5, 0.4], [1.8, 0.8, 0.9]])
        rc = main(["fit", "--input", str(path), "--mode", mode, "--seed", "1", "--draws", "20",
                   "--outdir", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC
        assert "n=3" in capsys.readouterr().err

    def test_selection_roundtrip(self, npiv_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["fit", "--input", npiv_csv, "--seed", "9", "--draws", "80",
                "--grid-size", "30"]
        assert main([*args, "--outdir", str(a)]) == EXIT_OK
        assert main([*args, "--outdir", str(b),
                     "--from-selection", str(a / "selection.json")]) == EXIT_OK
        assert filecmp.cmp(a / "estimates.csv", b / "estimates.csv", shallow=False)

    def test_seed_env_var(self, linear_csv, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("NPIVBAND_SEED", "5")
        args = ["fit", "--input", linear_csv, "--mode", "regression", "--draws", "80",
                "--grid-size", "40"]
        assert main([*args, "--outdir", str(a)]) == EXIT_OK
        monkeypatch.delenv("NPIVBAND_SEED")
        assert main([*_fit_args(linear_csv, b)]) == EXIT_OK
        assert filecmp.cmp(a / "estimates.csv", b / "estimates.csv", shallow=False)

    @pytest.mark.parametrize(
        "option, env",
        [
            (["--grid-size", "0"], None),
            (["--deriv", "-1"], None),
            (["--mode", "partially_linear", "--linear-cols", "5"], None),
            (["--mode", "partially_linear", "--linear-cols", "-1"], None),
            (["--mode", "partially_linear", "--linear-cols", "0", "1"], None),
            ([], "abc"),
            (["--alpha"], None),
            (["--alpha", "--p-lower", "2.5"], None),
            (["--mode", "partially_linear", "--linear-cols", "1", "1"], None),
            (["--grid-hi", "1.5"], None),
            (["--grid-lo", "0.8", "--grid-hi", "0.2"], None),
            (["--grid-lo", "0.5", "--grid-hi", "0.5"], None),
            (["--alpha", "0.05", "0.054"], None),
            (["--alpha", "0.1", "0.1"], None),
        ],
        ids=["grid-size-0", "negative-deriv", "linear-col-out-of-range", "negative-linear-col",
             "no-nonparametric-col", "non-integer-seed-env", "empty-alpha", "empty-alpha-p-lower",
             "repeated-linear-col", "grid-hi-above-1", "grid-descending", "grid-empty",
             "alpha-columns-collide", "alpha-repeated"],
    )
    def test_bad_fit_option_usage_error(self, option, env, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(6)
        path = tmp_path / "two.csv"
        _write_csv(path, ["y", "x1", "x2"],
                   [[format(v, ".17g") for v in row] for row in rng.random((60, 3))])
        if env is not None:
            monkeypatch.setenv("NPIVBAND_SEED", env)
        rc = main(["fit", "--input", str(path), "--mode", "regression", "--draws", "20",
                   "--outdir", str(tmp_path / "o"), *option])
        assert rc == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_multivariate_deriv_rejected_before_selection(self, tmp_path, monkeypatch):
        from npivband import adaptive as ad

        def no_selection(*args, **kwargs):
            raise AssertionError("selection must not run")

        monkeypatch.setattr(ad, "run_selection", no_selection)
        reg2d = os.path.join(os.path.dirname(__file__), "data", "golden", "reg2d.csv")
        rc = main(["fit", "--input", reg2d, "--mode", "regression", "--deriv", "1",
                   "--draws", "20", "--grid-size", "5", "--outdir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_grid_bounds_map_the_multivariate_grid(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["fit", "--input", os.path.join(GOLDEN, "reg2d.csv"), "--mode", "regression",
                   "--grid-lo", "0.2", "--grid-hi", "0.8", "--grid-size", "5", "--seed", "7",
                   "--draws", "20", "--outdir", str(out)])
        assert rc == EXIT_OK
        rows = list(csv.reader(open(out / "estimates.csv")))
        xs = np.array([float(r[rows[0].index("x")]) for r in rows[1:]])
        assert xs.min() == pytest.approx(0.2) and xs.max() == pytest.approx(0.8)
        assert np.all((xs >= 0.2) & (xs <= 0.8))


def _not_an_integer(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


_BAD_FIT_OPTIONS = st.one_of(
    st.tuples(st.just("npiv"), st.integers(max_value=0).map(lambda g: ["--grid-size", str(g)]), st.none()),
    st.tuples(
        st.sampled_from(["npiv", "plm"]),
        st.one_of(st.integers(max_value=-1), st.integers(min_value=3, max_value=50)).map(
            lambda a: ["--deriv", str(a)]
        ),
        st.none(),
    ),
    st.tuples(
        st.just("plm"),
        st.one_of(
            st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(
                lambda cols: cols != [1] and cols != [0]
            ),
            st.just([]),
        ).map(lambda cols: ["--linear-cols", *map(str, cols)]),
        st.none(),
    ),
    st.tuples(
        st.sampled_from(["npiv", "plm"]),
        st.tuples(st.floats(-2, 3) | st.just(float("nan")), st.floats(-2, 3) | st.just(float("nan")))
        .filter(lambda b: not 0.0 <= b[0] < b[1] <= 1.0)
        .map(lambda b: [f"--grid-lo={b[0]!r}", f"--grid-hi={b[1]!r}"]),
        st.none(),
    ),
    st.tuples(
        st.sampled_from(["npiv", "plm"]),
        st.tuples(st.integers(0, 2), st.floats(-2, 2.5) | st.just(float("nan")))
        .filter(lambda c: not c[1] > c[0])
        .map(lambda c: ["--deriv", str(c[0]), f"--p-lower={c[1]!r}"]),
        st.none(),
    ),
    st.tuples(
        st.sampled_from(["npiv", "plm"]),
        st.just([]),
        st.one_of(
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), min_size=1)
            .filter(_not_an_integer),
            st.integers(max_value=-1).map(str),
        ),
    ),
)


@settings(max_examples=60, deadline=None)
@given(case=_BAD_FIT_OPTIONS)
@example(case=("npiv", ["--deriv", "1", "--p-lower", "0.5"], None))
@example(case=("npiv", ["--p-lower", "nan"], None))
def test_bad_fit_options_exit_2_before_any_fit(case, tmp_path_factory):
    """Exit-code map: a bad --grid-size, --deriv, --linear-cols, grid bound, --p-lower or NPIVBAND_SEED
    exits 2 before any fit."""
    from unittest import mock

    from npivband import adaptive as ad
    from npivband import estimator as est

    kind, option, env = case
    base = {
        "npiv": ["--input", os.path.join(GOLDEN, "npiv.csv"), "--mode", "npiv"],
        "plm": ["--input", os.path.join(GOLDEN, "plm.csv"), "--mode", "partially_linear",
                *([] if "--linear-cols" in option else ["--linear-cols", "1"])],
    }[kind]
    no_fit = AssertionError("a fit ran before the options were checked")
    environ = {} if env is None else {"NPIVBAND_SEED": env}
    with mock.patch.object(ad, "run_selection", side_effect=no_fit), \
            mock.patch.object(est.SieveBackend, "fit", side_effect=no_fit), \
            mock.patch.dict(os.environ, environ):
        if env is None:
            os.environ.pop("NPIVBAND_SEED", None)
        rc = main(["fit", *base, *option, "--draws", "20", "--outdir", str(tmp_path_factory.mktemp("o"))])
    assert rc == EXIT_CONFIG


class TestBandsPlotdata:
    @pytest.mark.parametrize("content", [None, "{not json", '{"j_hat_max": 5}'],
                             ids=["missing-file", "invalid-json", "missing-stored-key"])
    def test_unreadable_selection_data_error(self, content, tmp_path, capsys):
        stored = tmp_path / "selection.json"
        if content is not None:
            stored.write_text(content)
        rc = main(["bands-plotdata", "--input", os.path.join(GOLDEN, "npiv.csv"), "--seed", "7",
                   "--draws", "20", "--from-selection", str(stored), "--outdir", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_selection_of_another_model_data_error(self, tmp_path, capsys):
        # The 2-D regression's J values (16, 25, 49) are not on the univariate cubic grid.
        rc = main(["bands-plotdata", "--input", os.path.join(GOLDEN, "npiv.csv"), "--seed", "7", "--draws", "20",
                   "--from-selection", os.path.join(GOLDEN, "fit_reg2d", "selection.json"),
                   "--outdir", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "[16, 25, 49]" in err
        assert not (tmp_path / "o").exists()

    def test_selection_of_another_mode_data_error(self, tmp_path, capsys, monkeypatch):
        # Every J of the regression selection fits in npiv mode too, but its rule is not npiv's.
        args = ["--input", os.path.join(GOLDEN, "npiv.csv"), "--seed", "7", "--draws", "20", "--grid-size", "10"]
        stored = tmp_path / "reg" / "selection.json"
        assert main(["fit", *args, "--mode", "regression", "--outdir", str(stored.parent)]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(est, "fit_grams", lambda *a: pytest.fail("a fit ran before the mode check"))
        rc = main(["bands-plotdata", *args, "--mode", "npiv", "--from-selection", str(stored),
                   "--outdir", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "'regression' selection" in err
        assert not (tmp_path / "o").exists()

    def test_selection_of_another_lepski_factor_data_error(self, tmp_path, capsys, monkeypatch):
        # The rule always uses adaptive.LEPSKI_FACTOR, so a stored selection made with another factor
        # cannot be reproduced; the golden npiv selection itself loads.
        payload = json.load(open(os.path.join(GOLDEN, "fit_npiv", "selection.json")))
        assert payload["lepski_factor"] == ad.LEPSKI_FACTOR
        args = ["--input", os.path.join(GOLDEN, "npiv.csv"), "--seed", "7", "--draws", "20", "--grid-size", "10"]
        assert main(["bands-plotdata", *args, "--from-selection", os.path.join(GOLDEN, "fit_npiv", "selection.json"),
                     "--outdir", str(tmp_path / "golden")]) == EXIT_OK
        stored = tmp_path / "selection.json"
        stored.write_text(json.dumps({**payload, "lepski_factor": 1.2}))
        capsys.readouterr()
        monkeypatch.setattr(est, "fit_grams", lambda *a: pytest.fail("a fit ran before the factor check"))
        rc = main(["bands-plotdata", *args, "--from-selection", str(stored), "--outdir", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "Lepski factor 1.2" in err
        assert not (tmp_path / "o").exists()

    def test_schema(self, npiv_csv, tmp_path):
        out = tmp_path / "o"
        rc = main(["bands-plotdata", "--input", npiv_csv, "--seed", "3", "--draws", "60",
                   "--grid-size", "25", "--outdir", str(out)])
        assert rc == EXIT_OK
        header = next(csv.reader(open(out / "estimates.csv")))
        assert header == ["x", "center", "lo95", "hi95", "lo90", "hi90", "sigma"]
        assert sorted(os.listdir(out)) == ["estimates.csv"]

    def test_derivative_suffix_columns(self, npiv_csv, tmp_path):
        out = tmp_path / "o"
        rc = main(["bands-plotdata", "--input", npiv_csv, "--seed", "3", "--draws", "60",
                   "--grid-size", "25", "--deriv", "1", "--outdir", str(out)])
        assert rc == EXIT_OK
        header = next(csv.reader(open(out / "estimates.csv")))
        for col in ("center_d1", "lo95_d1", "hi95_d1", "lo90_d1", "hi90_d1", "sigma_d1"):
            assert col in header

    def test_robustness_flagged_in_metadata(self, npiv_csv, tmp_path):
        out = tmp_path / "o"
        rc = main(["fit", "--input", npiv_csv, "--seed", "3", "--draws", "60",
                   "--grid-size", "25", "--p-lower", "0.7", "--outdir", str(out)])
        assert rc == EXIT_OK
        meta = json.load(open(out / "run_meta.json"))
        assert "robustness" in meta["outputs"]["kinds"]
        header = next(csv.reader(open(out / "estimates.csv")))
        assert "lo95_robust" in header and "hi95_robust" in header

    def test_stage_wall_times_in_metadata(self, npiv_csv, tmp_path):
        out = tmp_path / "o"
        rc = main(["fit", "--input", npiv_csv, "--seed", "3", "--draws", "60",
                   "--grid-size", "25", "--outdir", str(out)])
        assert rc == EXIT_OK
        meta = json.load(open(out / "run_meta.json"))
        stages = meta["outputs"]["stages"]
        assert set(stages) == {"read", "select", "bands", "write"}
        assert all(seconds >= 0.0 for seconds in stages.values())
        assert sum(stages.values()) <= meta["wall_time_seconds"]
        peaks = meta["outputs"]["stage_peak_rss_mb"]
        assert set(peaks) == set(stages)
        ordered = [peaks[name] for name in ("read", "select", "bands", "write")]
        assert ordered[0] > 0.0 and ordered == sorted(ordered)


    def test_main_runs_one_blas_thread_and_restores_the_callers_count(self, npiv_csv, tmp_path):
        from npivband import _linalg
        from npivband._linalg import openblas

        lib = openblas()
        if lib is None:
            pytest.skip("numpy's bundled OpenBLAS exports no thread setter here")
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        try:
            assert main(["fit", "--input", npiv_csv, "--seed", "3", "--draws", "60",
                         "--grid-size", "25", "--outdir", str(tmp_path / "o")]) == EXIT_OK
            assert lib.scipy_openblas_get_num_threads64_() == 2
            assert main(_fit_args(str(tmp_path / "missing.csv"), tmp_path / "e")) == EXIT_DATA
            assert lib.scipy_openblas_get_num_threads64_() == 2
        finally:
            lib.scipy_openblas_set_num_threads64_(before)
        meta = json.load(open(tmp_path / "o" / "run_meta.json"))
        assert meta["outputs"]["blas"] == {"library": os.path.basename(lib._name), "threads": 1}
        # OpenBLAS runs on one thread inside main, so the bootstrap may use a thread per CPU.
        assert meta["outputs"]["bootstrap_threads"] == _linalg.map_threads()

    def test_run_meta_records_the_bootstrap_threads(self, npiv_csv, tmp_path, monkeypatch):
        from npivband import _linalg

        monkeypatch.setattr(_linalg, "_map_threads", 3)
        threads = 3 if _linalg.openblas() is not None else 1
        assert main(["fit", "--input", npiv_csv, "--seed", "3", "--draws", "60",
                     "--grid-size", "25", "--outdir", str(tmp_path)]) == EXIT_OK
        meta = json.load(open(tmp_path / "run_meta.json"))
        assert meta["outputs"]["bootstrap_threads"] == threads

    def test_run_meta_records_the_draw_threads_without_the_setter(self, npiv_csv, tmp_path, monkeypatch):
        # Without numpy's OpenBLAS thread setter the bootstrap stays in the caller, and the
        # meta says so however many threads a map might otherwise use.
        import threading

        from npivband import _linalg, cli
        from npivband import bootstrap as bt

        monkeypatch.setattr(_linalg, "openblas", lambda: None)
        monkeypatch.setattr(cli, "openblas", lambda: None)
        monkeypatch.setattr(_linalg, "_map_threads", 3)
        draw, idents = bt._draw, set()

        def counted(*args):
            idents.add(threading.get_ident())
            draw(*args)

        monkeypatch.setattr(bt, "_draw", counted)
        assert main(["fit", "--input", npiv_csv, "--seed", "3", "--draws", "200",
                     "--grid-size", "25", "--outdir", str(tmp_path)]) == EXIT_OK
        meta = json.load(open(tmp_path / "run_meta.json"))
        assert meta["outputs"]["bootstrap_threads"] == len(idents) == 1

    def test_run_meta_blas_is_null_without_the_setter(self, npiv_csv, tmp_path, monkeypatch):
        from npivband import cli

        monkeypatch.setattr(cli, "openblas", lambda: None)
        assert main(["fit", "--input", npiv_csv, "--seed", "3", "--draws", "60",
                     "--grid-size", "25", "--outdir", str(tmp_path)]) == EXIT_OK
        meta = json.load(open(tmp_path / "run_meta.json"))
        assert meta["outputs"]["blas"] == {"library": None, "threads": None}


class TestStructuredModes:
    @pytest.fixture()
    def additive_csv(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 400
        x1, x2 = rng.random(n), rng.random(n)
        y = 1 + np.sin(3 * x1) + x2**2 + 0.3 * rng.standard_normal(n)
        path = tmp_path / "additive.csv"
        _write_csv(path, ["y", "x1", "x2"],
                   [[format(v, ".17g") for v in row] for row in zip(y, x1, x2)])
        return str(path)

    def test_additive_mode_component_columns(self, additive_csv, tmp_path):
        out = tmp_path / "o"
        rc = main(["fit", "--input", additive_csv, "--mode", "additive", "--seed", "2",
                   "--draws", "50", "--grid-size", "20", "--outdir", str(out)])
        assert rc == EXIT_OK
        header = next(csv.reader(open(out / "estimates.csv")))
        for col in ("center_c1", "lo95_c1", "sigma_c1", "center_c2", "hi90_c2"):
            assert col in header

    def test_additive_sigma_is_the_component_field_sigma(self, additive_csv, tmp_path):
        from npivband import basis as bs
        from npivband import estimator as est
        from npivband import extensions as ext

        out = tmp_path / "o"
        rc = main(["fit", "--input", additive_csv, "--mode", "additive", "--seed", "2",
                   "--draws", "50", "--outdir", str(out)])
        assert rc == EXIT_OK
        j = json.load(open(out / "selection.json"))["j_tilde"]
        data = np.loadtxt(additive_csv, delimiter=",", skiprows=1)
        x = data[:, 1:]
        cubic = bs.BasisSpec(4, 0)
        model = ext.additive_model(ext.AdditiveSpec((cubic, cubic)), None)
        sample = est.Sample(data[:, 0], x, x)
        fit = est.SieveBackend(sample, model).fit(j)  # fitted in the backend's row order, as the CLI fits it
        rows = list(csv.reader(open(out / "estimates.csv")))
        header = rows[0]
        grid = np.array([float(r[header.index("x")]) for r in rows[1:]])
        for comp in (0, 1):
            # A backend holding the fit that reports component comp.
            backend = est.SieveBackend(sample, ext.component_model(model, comp))
            backend._fits[j] = fit
            field = est.build_field(backend, grid, 0, (j,))
            written = [float(r[header.index(f"sigma_c{comp + 1}")]) for r in rows[1:]]
            assert written == field.sigma[j].tolist()

    def test_fit_flags_by_j(self, additive_csv, tmp_path):
        # Per J of the index set, the flags of its fit: none on generic additive data,
        # the rank flags when x2 copies x1. The key is not read back, so a file without it loads.
        data = np.loadtxt(additive_csv, delimiter=",", skiprows=1)
        copied = tmp_path / "copied.csv"
        _write_csv(copied, ["y", "x1", "x2"], [[format(v, ".17g") for v in (y, x, x)] for y, x, _ in data])
        args = ["--mode", "additive", "--seed", "2", "--draws", "50", "--grid-size", "20"]
        for name, path, want in (("generic", additive_csv, []),
                                 ("copied", str(copied), ["design_rank_deficient", "shat_reduced_rank"])):
            out = tmp_path / name
            assert main(["fit", "--input", path, *args, "--outdir", str(out)]) == EXIT_OK
            sel = json.load(open(out / "selection.json"))
            assert sorted(map(int, sel["fit_flags_by_j"])) == sel["index_set"]
            assert all(flags == want for flags in sel["fit_flags_by_j"].values())
        del sel["fit_flags_by_j"]
        json.dump(sel, open(out / "old.json", "w"))
        assert main(["bands-plotdata", "--input", str(copied), *args, "--outdir", str(tmp_path / "b"),
                     "--from-selection", str(out / "old.json")]) == EXIT_OK
        assert filecmp.cmp(out / "estimates.csv", tmp_path / "b" / "estimates.csv", shallow=False)

    def test_additive_robust_columns_per_component(self, additive_csv, tmp_path):
        out = tmp_path / "o"
        rc = main(["fit", "--input", additive_csv, "--mode", "additive", "--seed", "2",
                   "--draws", "50", "--grid-size", "20", "--p-lower", "2.5", "--outdir", str(out)])
        assert rc == EXIT_OK
        rows = list(csv.reader(open(out / "estimates.csv")))
        col = lambda name: np.array([float(r[rows[0].index(name)]) for r in rows[1:]])  # noqa: E731
        for comp in ("c1", "c2"):
            assert np.all(col(f"lo95_robust_{comp}") <= col(f"lo95_{comp}"))
            assert np.all(col(f"hi95_robust_{comp}") >= col(f"hi95_{comp}"))

    @pytest.mark.parametrize("mode", ["additive", "partially_linear"])
    def test_structured_from_selection_reproduces_fit(self, mode, additive_csv, tmp_path):
        linear = ["--linear-cols", "1"] if mode == "partially_linear" else []
        args = ["--input", additive_csv, "--mode", mode, *linear,
                "--seed", "2", "--draws", "50", "--grid-size", "20"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fit", *args, "--outdir", str(a)]) == EXIT_OK
        assert main(["bands-plotdata", *args, "--outdir", str(b),
                     "--from-selection", str(a / "selection.json")]) == EXIT_OK
        assert filecmp.cmp(a / "estimates.csv", b / "estimates.csv", shallow=False)

    def test_partially_linear_mode_beta(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 400
        x1 = rng.random(n)
        x2 = np.clip(0.5 + 0.2 * rng.standard_normal(n), 0, 1)
        y = np.sin(4 * x1) + 1.5 * x2 + 0.3 * rng.standard_normal(n)
        path = tmp_path / "pl.csv"
        _write_csv(path, ["y", "x1", "x2"],
                   [[format(v, ".17g") for v in row] for row in zip(y, x1, x2)])
        out = tmp_path / "o"
        rc = main(["fit", "--input", str(path), "--mode", "partially_linear",
                   "--linear-cols", "1", "--seed", "2", "--draws", "50",
                   "--grid-size", "20", "--outdir", str(out)])
        assert rc == EXIT_OK
        sel = json.load(open(out / "selection.json"))
        assert sel["beta"][0] == pytest.approx(1.5, abs=0.2)
        header = next(csv.reader(open(out / "estimates.csv")))
        assert header == ["x", "center", "lo95", "hi95", "lo90", "hi90", "sigma"]

    def test_partially_linear_bivariate_block(self, tmp_path):
        # With two nonparametric columns h1 is evaluated on a 2-d grid, as h is in regression mode.
        rng = np.random.default_rng(5)
        x = rng.random((300, 3))
        y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 + 1.5 * x[:, 2] + 0.3 * rng.standard_normal(300)
        path = tmp_path / "pl3.csv"
        _write_csv(path, ["y", "x1", "x2", "x3"],
                   [[format(v, ".17g") for v in row] for row in np.column_stack([y, x])])
        out = tmp_path / "o"
        rc = main(["fit", "--input", str(path), "--mode", "partially_linear", "--linear-cols", "2",
                   "--seed", "2", "--draws", "30", "--grid-size", "8", "--outdir", str(out)])
        assert rc == EXIT_OK
        assert len(list(csv.reader(open(out / "estimates.csv")))) == 1 + 8 * 8
        assert len(json.load(open(out / "selection.json"))["beta"]) == 1

    def test_three_column_additive_fit(self, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.random((400, 3))
        y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 - x[:, 2] + 0.3 * rng.standard_normal(400)
        path = tmp_path / "add3.csv"
        _write_csv(path, ["y", "x1", "x2", "x3"],
                   [[format(v, ".17g") for v in row] for row in np.column_stack([y, x])])
        out = tmp_path / "o"
        rc = main(["fit", "--input", str(path), "--mode", "additive", "--seed", "2", "--draws", "50",
                   "--outdir", str(out)])
        assert rc == EXIT_OK
        assert "sigma_c3" in next(csv.reader(open(out / "estimates.csv")))

    def test_partially_linear_requires_linear_cols(self, additive_csv, tmp_path):
        rc = main(["fit", "--input", additive_csv, "--mode", "partially_linear",
                   "--seed", "2", "--draws", "30", "--outdir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG


class TestCmdSimulate:
    def test_unknown_design_usage_error(self, tmp_path):
        rc = main(["simulate", "--design", "nope", "--outdir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("option", [["--n", "5"], ["--grid-size", "0"]])
    def test_bad_study_size_usage_error(self, option, tmp_path, capsys):
        rc = main(["simulate", "--design", "reg_wiggly", "--reps", "1", *option,
                   "--outdir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_failed_replication_exits_with_its_cause(self, tmp_path, capsys):
        # At n=70 the regression fit's sigma_J collapses, a numerical degeneracy.
        rc = main(["simulate", "--design", "reg_wiggly", "--n", "70", "--reps", "1", "--draws", "30",
                   "--outdir", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical degeneracy: replication 0 failed for n=70: ")
        assert err.count("\n") == 1

    def test_smoke_run_under_30s(self, tmp_path):
        start = time.time()
        rc = main(["simulate", "--design", "npiv_sine_log", "--n", "1250", "--reps", "1",
                   "--draws", "500", "--seed", "1", "--outdir", str(tmp_path)])
        elapsed = time.time() - start
        assert rc == EXIT_OK
        assert elapsed < 30.0
        report = json.load(open(tmp_path / "mc_report.json"))
        assert report["rows"][0]["design"] == "npiv_sine_log"
        assert "j_tilde_histogram" in report
        assert os.path.exists(tmp_path / "mc_report.csv")

    def test_histogram_emitted(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="capping J_hat_max"):
            rc = main(["simulate", "--design", "trade_pareto", "--n", "200", "--reps", "2",
                       "--draws", "40", "--seed", "2", "--outdir", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.load(open(tmp_path / "mc_report.json"))
        hist = report["j_tilde_histogram"]["200"]
        assert sum(hist.values()) == 2
        assert report["selection_flags"]["200"]["jmax_capped_by_sample"] >= 1
