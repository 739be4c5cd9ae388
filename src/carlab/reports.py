"""Deterministic serialization: columnar tables, key/value reports, CSV.

All floats are written as "%.17e", 18 significant digits, so reruns with the
same config and seed are byte-identical and round-trips are lossless.
`write_columnar` makes Python's "%.17e" bytes in numpy. A finite 1e-280 < |x| < 1e280
becomes y = |x| 10^(17 - k) = s + t: Dekker's exact split product with hi plus |x| lo,
where hi + lo = 10^(17 - k) to 2^-106. No part overflows or leaves the normal range
there (|x| (2^27 + 1) < 1.4e288, hi (2^27 + 1) < 1.4e308), so y is off by at most
2^-106 y (the pair) + 2^-106 y (|x| lo) + 2^-105 y (adding the product's error) =
2^-104 y < 6e-14. k steps from floor(log10 |x|) until y is in [10^17, 10^18), tested
exactly: s - 10^m is exact (Sterbenz) or far above |t|. A cell out of range, not finite,
unsettled after two steps or within 1e-6 of a rounding tie takes Python's "%.17e".
"""

import functools
import json

import numpy as np

from .weights import continuity_residuals

FLOAT_FMT = "%.17e"

WEIGHT_COLUMNS = ("r", "psi", "u", "phi", "w", "wprime", "m")

# Rows formatted per block, so memory stays O(block) for any table length.
_ROWS = 512
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant


@functools.cache
def _pow10(q):
    """(hi, hi's Dekker halves, lo), hi + lo = 10^q to 2^-106, each correctly rounded."""
    n, d = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
    hi = n / d
    num, den = hi.as_integer_ratio()
    c = _SPLIT * hi
    return hi, c - (c - hi), hi - (c - (c - hi)), (n * den - num * d) / (d * den)


@functools.cache
def _words():
    """uint32 words of a cell, 0 bytes unprinted: 4-digit groups, "-d.d" at lead + 100 sign,
    and "e+ht", "u " at k + 400."""
    ascii_ = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
    lead = b"".join(b"%c%d.%d" % (sign, v // 10, v % 10) for sign in b"\0-" for v in range(100))
    exp = b"".join(b"e%c%c%02d \0\0" % (b"+-"[k < 0], b"\x001234"[abs(k) // 100], abs(k) % 100)
                   for k in range(-400, 400))
    return (ascii_.view(np.uint32).ravel(), np.frombuffer(lead, np.uint32),
            np.frombuffer(exp, np.uint32).reshape(-1, 2).T)


def _scaled(a, k):
    """a 10^(17 - k) as s + t, and k's step: -1 if s + t < 10^17, +1 if s + t >= 10^18, else 0."""
    q = 17 - k
    pw = np.array([_pow10(j) for j in range(q.min(), q.max() + 1)]).T
    hi, hi_hi, hi_lo, lo = np.take(pw, q - q.min(), axis=1)
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * hi
    t = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi + a_lo * hi_lo) + a * lo
    s = p + t
    t -= s - p
    return s, t, ((s - 1e18) + t >= 0) * 1 - ((s - 1e17) + t < 0)


def _spell(block):
    """The bytes of `block`'s rows as lines of space-separated "%.17e" cells."""
    x = block.ravel()
    a = np.abs(x)
    fast = (a > 1e-280) & (a < 1e280)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    s, t, step = _scaled(a, k)
    for _ in range(2):
        redo = np.flatnonzero(step)
        if redo.size:
            k[redo] += step[redo]
            s[redo], t[redo], step[redo] = _scaled(a[redo], k[redo])
    frac = t % 1
    fast = (fast | (x == 0)) & (step == 0) & (np.abs(frac - 0.5) > 1e-6)
    n = np.where(fast & (x != 0), s, 0).astype(np.int64) + (t // 1).astype(np.int64) + (frac > 0.5)
    k += n == 10 ** 18
    n[n == 10 ** 18] = 10 ** 17
    lead, rest = np.divmod(n, 10 ** 16)
    digits, lead_words, exp_words = _words()
    hi8, lo8 = np.divmod(rest, 10 ** 8)
    groups = np.column_stack(np.divmod(hi8, 10 ** 4) + np.divmod(lo8, 10 ** 4))
    words = np.column_stack((lead_words[lead + 100 * np.signbit(x)], digits[groups],
                             *np.take(exp_words, k + 400, axis=1)))
    cells = words.view(np.uint8)
    cells.reshape(block.shape + (28,))[:, -1, 25] = ord("\n")
    for i in np.flatnonzero(~fast).tolist():
        cells[i, :25] = np.frombuffer((FLOAT_FMT % x[i]).encode().ljust(25, b"\0"), np.uint8)
    return cells[cells != 0].tobytes()


def write_columnar(path, columns, arrays):
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if len(columns) != len(arrays) or len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
        raise ValueError("columnar tables take 1-D arrays of one length, one per column")
    with open(path, "wb") as f:
        f.write((" ".join(columns) + "\n").encode())
        for lo in range(0, arrays[0].size, _ROWS):
            f.write(_spell(np.column_stack([a[lo:lo + _ROWS] for a in arrays])))


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
