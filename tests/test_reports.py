import json

import numpy as np
import pytest

from carlab import BoxDiscretization, catalog_potential, sweep_h
from carlab.cli import main
from carlab.resolvent import SweepResult, SweepRow
from carlab.reports import (
    _ROWS,
    WEIGHT_COLUMNS,
    fit_report_dict,
    read_columnar,
    read_report,
    weight_report_dict,
    write_columnar,
    write_plot_data,
    write_report,
    write_sweep_csv,
    write_weight_table,
)


def test_weight_table_roundtrip(tmp_path, baseline_tables):
    path = tmp_path / "weights_table.txt"
    write_weight_table(path, baseline_tables)
    header, cols = read_columnar(path)
    assert tuple(header) == WEIGHT_COLUMNS
    # 18 significant digits round-trip float64 exactly
    assert np.array_equal(cols["r"], baseline_tables.r)
    assert np.array_equal(cols["u"], baseline_tables.u)
    assert np.array_equal(cols["phi"], baseline_tables.phi)
    assert np.array_equal(cols["m"], baseline_tables.m)


def test_columnar_matches_per_cell_writer(tmp_path, baseline_tables):
    arrays = [baseline_tables.r, baseline_tables.u, baseline_tables.phi,
              np.array([-0.0, np.inf, np.nan, -1e-300] * (baseline_tables.r.size // 4)
                       + [5e-324] * (baseline_tables.r.size % 4))]
    columns = ("r", "u", "phi", "odd")
    path = tmp_path / "table.txt"
    write_columnar(path, columns, arrays)
    expected = " ".join(columns) + "\n" + "".join(
        " ".join("%.17e" % a[i] for a in arrays) + "\n" for i in range(arrays[0].size)
    )
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("rows", [0, 2 * _ROWS + 1])
def test_blocked_columnar_matches_one_pass_writer(tmp_path, rows):
    rng = np.random.default_rng(20)
    arrays = [rng.standard_normal(rows), np.geomspace(1e-300, 1e300, rows), -np.arange(rows)]
    columns = ("a", "b", "c")
    path = tmp_path / "table.txt"
    write_columnar(path, columns, arrays)
    row = "%.17e %.17e %.17e\n"
    expected = "a b c\n" + "".join(row % cells for cells in zip(*(a.tolist() for a in arrays)))
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("rows", [0, 1, 3])
def test_columnar_roundtrip_two_columns(tmp_path, rows):
    # a header-only table once warned "input contained no data" and raised IndexError
    arrays = [np.arange(rows) / 3.0, -np.geomspace(1e-300, 1e300, rows)]
    path = tmp_path / "table.txt"
    write_columnar(path, ("a", "b"), arrays)
    header, cols = read_columnar(path)
    assert header == ["a", "b"]
    for name, a in zip(header, arrays):
        assert cols[name].shape == (rows,) and np.array_equal(cols[name], a)


def test_plot_data_matches_per_cell_writer(tmp_path):
    rows = tuple(SweepRow(h=h, eps=1e-2, mode="interior", s=0.6, R=None, norm=norm,
                          iterations=3, residual=0.0)
                 for h, norm in ((0.4, 2.8), (0.3, 1.0), (3e-300, 1e300), (0.12, 0.5)))
    for result in (SweepResult(rows=rows), SweepResult(rows=())):
        path = tmp_path / "plot.csv"
        write_plot_data(path, result)
        expected = "inv_h,ln_norm\n" + "".join(
            "%.17e,%.17e\n" % (1.0 / row.h, np.log(row.norm)) for row in result.rows)
        assert path.read_bytes() == expected.encode()


def test_weight_table_significant_digits(tmp_path, baseline_tables):
    path = tmp_path / "weights_table.txt"
    write_weight_table(path, baseline_tables)
    line = path.read_text().splitlines()[1]
    first = line.split()[0]
    mantissa = first.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) >= 15


def test_weight_report_fields(tmp_path, baseline_tables):
    payload = weight_report_dict(baseline_tables)
    for key in ("B", "R0", "R1", "c0", "h1", "C0", "g_sup", "residuals"):
        assert key in payload
    path = tmp_path / "weights_report.json"
    write_report(path, payload)
    assert read_report(path) == payload


def test_report_writes_are_deterministic(tmp_path, baseline_tables):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    payload = weight_report_dict(baseline_tables)
    write_report(a, payload)
    write_report(b, payload)
    assert a.read_bytes() == b.read_bytes()


def test_margin_report_serialization(tmp_path):
    # the baseline verify fails by design (exit 3) but still writes every report
    assert main(["verify", "--out", str(tmp_path)]) == 3
    data = json.loads((tmp_path / "margins_report.json").read_text())
    margin_keys = {"name", "min_margin", "argmin", "grid_size", "tolerance", "pass"}
    error_keys = {"name", "error", "pass"}
    assert len(data["reports"]) >= 9
    assert any(set(entry) == margin_keys for entry in data["reports"])
    for entry in data["reports"]:
        assert set(entry) in (margin_keys, error_keys)


def test_sweep_csv_and_plot_data(tmp_path):
    disc = BoxDiscretization(L=1.5, n=48)
    V = catalog_potential("zero", 0.4, disc)
    result = sweep_h(V, 1.0, 0.6, [0.4, 0.3], eps_rule=1e-2, modes=["interior"],
                     disc=disc)["interior"]
    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(csv_path, result)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "h,eps,mode,s,R,norm,iterations,residual"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "interior"
    assert lines[1].split(",")[4] == ""  # no exterior cutoff

    plot_path = tmp_path / "plot.csv"
    write_plot_data(plot_path, result)
    plines = plot_path.read_text().splitlines()
    assert plines[0] == "inv_h,ln_norm"
    inv_h = float(plines[1].split(",")[0])
    assert inv_h == pytest.approx(2.5)

    fits = fit_report_dict(result)
    assert set(fits) == {"exp", "poly"}
    assert set(fits["poly"]) == {"model", "slope", "intercept", "r_squared"}
