"""Deterministic serialization: columnar tables, key/value reports, CSV.

All floats are written with 17 significant digits so reruns with the same
config and seed are byte-identical and round-trips are lossless.
"""

import json

import numpy as np

from .weights import continuity_residuals

FLOAT_FMT = "%.17e"

WEIGHT_COLUMNS = ("r", "psi", "u", "phi", "w", "wprime", "m")


def fnum(x) -> float:
    """Coerce numpy scalars for json."""
    return float(x)


def write_columnar(path, columns, arrays):
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("columnar arrays must share a length")
    row = " ".join([FLOAT_FMT] * len(arrays)) + "\n"
    with open(path, "w") as f:
        f.write(" ".join(columns) + "\n")
        f.writelines(row % cells for cells in zip(*(a.tolist() for a in arrays)))


def read_columnar(path):
    with open(path) as f:
        header = f.readline().split()
    data = np.loadtxt(path, skiprows=1, ndmin=2)
    return header, {name: data[:, j] for j, name in enumerate(header)}


def write_weight_table(path, wt):
    write_columnar(
        path, WEIGHT_COLUMNS,
        [wt.r, wt.psi, wt.u, wt.phi, wt.w, wt.wprime, wt.m],
    )


def weight_report_dict(wt) -> dict:
    res0, res1 = continuity_residuals(wt.spec)
    return {
        "B": fnum(wt.spec.B),
        "R0": fnum(wt.spec.R0),
        "R1": fnum(wt.spec.R1),
        "delta": fnum(wt.spec.delta),
        "delta0": fnum(wt.spec.delta0),
        "E": fnum(wt.spec.E),
        "h": fnum(wt.h),
        "c0": fnum(wt.c0),
        "h1": fnum(wt.h1),
        "C0": fnum(wt.C0),
        "g_sup": fnum(wt.g_sup),
        "residuals": {
            "continuity_R0": fnum(res0),
            "continuity_R1": fnum(res1),
            "riccati": fnum(wt.riccati_resid),
            "w_jump_R0": 0.0,
            "wprime_jump_R0": fnum(wt.wprime_jump),
        },
        "grid": {
            "n": int(wt.r.size),
            "r_min": fnum(wt.r[0]),
            "r_max": fnum(wt.r[-1]),
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
            "slope": fnum(fit.slope),
            "intercept": fnum(fit.intercept),
            "r_squared": fnum(fit.r_squared),
        }
    return out


def write_plot_data(path, result):
    pairs = result.plot_pairs()
    with open(path, "w") as f:
        f.write("inv_h,ln_norm\n")
        for ih, ln in pairs:
            f.write(f"{FLOAT_FMT % ih},{FLOAT_FMT % ln}\n")
