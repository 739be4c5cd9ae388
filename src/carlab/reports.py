"""Deterministic serialization: columnar tables, key/value reports, CSV.

All floats are written as "%.17e", 18 significant digits, so reruns with the
same config and seed are byte-identical and round-trips are lossless.
"""

import json

import numpy as np

from .weights import continuity_residuals

FLOAT_FMT = "%.17e"

WEIGHT_COLUMNS = ("r", "psi", "u", "phi", "w", "wprime", "m")

# Rows formatted per block, so only one block's cells are Python floats at once.
_ROWS = 1024


def write_columnar(path, columns, arrays):
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("columnar arrays must share a length")
    row = " ".join([FLOAT_FMT] * len(arrays)) + "\n"
    with open(path, "w") as f:
        f.write(" ".join(columns) + "\n")
        for lo in range(0, n, _ROWS):
            block = (a[lo:lo + _ROWS].tolist() for a in arrays)
            f.writelines(row % cells for cells in zip(*block))


def read_columnar(path):
    """The header and its columns; a header-only table gives 0-length columns."""
    with open(path) as f:
        header = f.readline().split()
        rows = f.readlines()
    data = np.loadtxt(rows, ndmin=2) if rows else np.empty((0, len(header)))
    return header, {name: data[:, j] for j, name in enumerate(header)}


def write_weight_table(path, wt):
    write_columnar(
        path, WEIGHT_COLUMNS,
        [wt.r, wt.psi, wt.u, wt.phi, wt.w, wt.wprime, wt.m],
    )


def weight_report_dict(wt) -> dict:
    res0, res1 = continuity_residuals(wt.spec)
    return {
        "B": float(wt.spec.B),
        "R0": float(wt.spec.R0),
        "R1": float(wt.spec.R1),
        "delta": float(wt.spec.delta),
        "delta0": float(wt.spec.delta0),
        "E": float(wt.spec.E),
        "h": float(wt.h),
        "c0": float(wt.c0),
        "h1": float(wt.h1),
        "C0": float(wt.C0),
        "g_sup": float(wt.g_sup),
        "residuals": {
            "continuity_R0": float(res0),
            "continuity_R1": float(res1),
            "riccati": float(wt.riccati_resid),
            "w_jump_R0": 0.0,
            "wprime_jump_R0": float(wt.wprime_jump),
        },
        "grid": {
            "n": int(wt.r.size),
            "r_min": float(wt.r[0]),
            "r_max": float(wt.r[-1]),
        },
    }


def write_report(path, payload: dict):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def read_report(path) -> dict:
    with open(path) as f:
        return json.load(f)


SWEEP_HEADER = ("h", "eps", "mode", "s", "R", "norm", "iterations", "residual")


def write_sweep_csv(path, result):
    with open(path, "w") as f:
        f.write(",".join(SWEEP_HEADER) + "\n")
        for row in result.rows:
            f.write(
                ",".join([
                    FLOAT_FMT % row.h,
                    FLOAT_FMT % row.eps,
                    row.mode,
                    FLOAT_FMT % row.s,
                    FLOAT_FMT % row.R if row.R is not None else "",
                    FLOAT_FMT % row.norm,
                    str(row.iterations),
                    FLOAT_FMT % row.residual,
                ]) + "\n"
            )


def fit_report_dict(result) -> dict:
    out = {}
    for model in ("exp", "poly"):
        fit = result.fit(model)
        out[model] = {
            "model": fit.model,
            "slope": float(fit.slope),
            "intercept": float(fit.intercept),
            "r_squared": float(fit.r_squared),
        }
    return out


def write_plot_data(path, result):
    np.savetxt(path, result.plot_pairs(), fmt=FLOAT_FMT, delimiter=",", header="inv_h,ln_norm",
               comments="")
