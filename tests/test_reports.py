import json
import tracemalloc

import numpy as np
import pytest

from carlab import BoxDiscretization, catalog_potential, reports, sweep_h
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


def _percent_table(columns, arrays):
    """The per-cell oracle: Python's own "%.17e" for every cell."""
    return (" ".join(columns) + "\n" + "".join(
        " ".join("%.17e" % v for v in cells) + "\n" for cells in zip(*(a.tolist() for a in arrays))
    )).encode()


def _powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    cells = [powers]
    for toward in (np.inf, 0.0):
        near = powers
        for _ in range(5):
            near = np.nextafter(near, toward)
            cells.append(near)
    cells = np.concatenate(cells)
    return np.concatenate([cells, -cells])


def _random_bit_patterns(rng, size):
    bits = rng.integers(0, 2 ** 64, size=size, dtype=np.uint64).view(np.float64)
    spread = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
    cells = np.where(rng.random(size) < 0.5, bits, spread)
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, tiny, -tiny,
               big, -big, 1e-280, 1e280, 9.999999999999999e279, 1.0000000000000001e-280, 1e100, 1e-100,
               9.9999999999999999e99, 1.23e-123, 4.56e256]
    cells[rng.choice(size, len(special), replace=False)] = special
    return cells


@pytest.mark.parametrize("case", ["powers_of_ten", "ties", "bit_patterns"])
def test_columnar_matches_percent_format_on_hard_cells(tmp_path, case):
    # powers of ten with +-1..5-ulp neighbours: the double nearest 1e-278 lies below 10^-278,
    # so an exponent taken from log10 alone prints 0.99999999999999994e-278 for it
    if case == "powers_of_ten":
        cells = _powers_of_ten_and_neighbours()
    elif case == "ties":  # odd/2^19 in [0.1, 1) scales to an exact half-integer: round half to even
        cells = np.arange(1, 2 ** 19, 2) / 2 ** 19
        cells = cells[cells >= 0.1]
    else:
        cells = _random_bit_patterns(np.random.default_rng(25), 3 * 4000)
    arrays = list(cells[: cells.size // 3 * 3].reshape(3, -1))
    path = tmp_path / "table.txt"
    write_columnar(path, ("a", "b", "c"), arrays)
    assert path.read_bytes() == _percent_table(("a", "b", "c"), arrays)


@pytest.mark.parametrize("rows", [0, 1, _ROWS - 1, _ROWS, _ROWS + 1])
def test_columnar_block_edges_match_percent_format(tmp_path, rows):
    arrays = list(_random_bit_patterns(np.random.default_rng(rows), 4 * max(rows, 6))[: 4 * rows]
                  .reshape(4, rows))
    path = tmp_path / "table.txt"
    write_columnar(path, ("a", "b", "c", "d"), arrays)
    assert path.read_bytes() == _percent_table(("a", "b", "c", "d"), arrays)


class _CountingFormat(str):
    calls = 0

    def __mod__(self, value):
        type(self).calls += 1
        return str.__mod__(self, value)


def test_columnar_falls_back_to_percent_format_only_where_needed(tmp_path, monkeypatch):
    # 0.5 + 2^-19 scales to an exact tie; inf and 1e-300 lie outside the fast range; the rest is fast
    monkeypatch.setattr(reports, "FLOAT_FMT", _CountingFormat("%.17e"))
    monkeypatch.setattr(_CountingFormat, "calls", 0)
    arrays = [np.array([0.5 + 2 ** -19, 0.1, -0.0, 1e-300]), np.array([np.inf, 2.5, 1e280 / 3, -7e-5])]
    path = tmp_path / "table.txt"
    write_columnar(path, ("a", "b"), arrays)
    assert path.read_bytes() == _percent_table(("a", "b"), arrays)
    assert _CountingFormat.calls == 3


@pytest.mark.parametrize("columns, arrays", [
    (("a", "b"), [np.zeros((2, 3)), np.zeros(6)]),
    (("a", "b", "c"), [np.zeros(4), np.zeros(4)]),
    (("a",), [np.zeros(4), np.zeros(4)]),
    (("a", "b"), [np.zeros(4), np.zeros(5)]),
    ((), []),
], ids=["2d-array-of-matching-size", "header-too-long", "header-too-short", "unequal-lengths", "no-columns"])
def test_columnar_rejects_malformed_tables_before_writing(tmp_path, columns, arrays):
    path = tmp_path / "table.txt"
    with pytest.raises(ValueError, match="1-D arrays of one length, one per column"):
        write_columnar(path, columns, arrays)
    assert not path.exists()


def test_columnar_memory_does_not_grow_with_rows(tmp_path):
    # one unblocked pass over 100k rows x 7 columns would hold 19.6 MB of cell bytes
    rng = np.random.default_rng(7)
    write_columnar(tmp_path / "warm.txt", ("a",), [np.ones(3)])  # first-call tables stay untraced
    for rows in (10_000, 100_000):
        arrays = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows) for _ in range(7)]
        tracemalloc.start()
        try:
            write_columnar(tmp_path / "table.txt", tuple("abcdefg"), arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6  # measured 0.88 MB at 10k rows and 0.76 MB at 100k


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
