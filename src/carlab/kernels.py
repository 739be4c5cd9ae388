"""Hot numeric kernels.

u' = (u^2 - psi)/h is linear in z = (y, h y'), u = -h y'/y. Each backward step
is z's fourth-order Magnus step with psi at the two Gauss points (Iserles and
Norsett 1999), exact for constant psi, applied to u as a Moebius map. numpy
computes the coefficients of at most _CHUNK steps at a time and a lean Python
loop applies them, so memory is O(_CHUNK + nodes) whatever the step count.
"""

import math

import numpy as np

from .errors import ConstructionError

# Steps are built in blocks, so the cap bounds time (2**22: ~2 s on a 2-core Xeon).
MAX_STEPS = 2**22
TOL = 1e-12  # local error allowed per step, in units of u

# Steps per block: a block peaks near 0.6 MB, and its numpy calls cost little.
_CHUNK = 2048
_SPANS = 1024  # spans per block of the step-count estimate, three steps each

_GAUSS = math.sqrt(3.0) / 6.0  # Gauss points at lo + a (1/2 -+ _GAUSS)


def _gauss_points(lo, a):
    return np.concatenate([lo + (0.5 - _GAUSS) * a, lo + (0.5 + _GAUSS) * a])


def _coefficients(a, h, psi12):
    """(t d, 2 t c, t b, p) of the backward step over spans of width a.

    psi12 holds psi at the lower Gauss points, then at the upper ones. With
    b = a/h, d = a (psi1 + psi2)/(2h), c = sqrt(3) a^2 (psi1 - psi2)/(12 h^2),
    mu = hypot(c, sqrt(b d)), t = tanh(mu)/mu and p = 1 - t c (for mu >= 1 and
    c >= 0 without cancellation, as (b d/(mu + c) + c (1 - tanh mu))/mu), the
    step maps u to u + (t d + u (2 t c - t b u)) / (p + t b u). Raises
    ConstructionError unless every coefficient is finite and p > 0.
    """
    psi1, psi2 = np.split(psi12, 2)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore", under="ignore"):
        b = a / h
        d = 0.5 * b * (psi1 + psi2)
        c = (math.sqrt(3.0) / 12.0) * b * b * (psi1 - psi2)
        s = np.sqrt(b) * np.sqrt(d)
        mu = np.hypot(c, s)
        t = np.where(mu > 0.0, np.tanh(mu) / mu, 1.0)
        e = np.exp(-2.0 * mu)
        p = np.where((mu >= 1.0) & (c >= 0.0),
                     (s * (s / (mu + c)) + c * (2.0 * e / (1.0 + e))) / mu, 1.0 - t * c)
        coef = (t * d, 2.0 * t * c, t * b, p)
    if not (np.isfinite(coef).all() and (p > 0.0).all()):
        raise ConstructionError(f"h = {h:.3g} overflows the Riccati step coefficients")
    return coef


def _step(coef, u):
    td, tc2, tb, p = coef
    return u + (td + u * (tc2 - tb * u)) / (p + tb * u)


def riccati_backward(r, h, *, psi):
    """Integrate u' = (u^2 - psi(r))/h backward from u(r[-1]) = 0.

    r must be strictly increasing. psi maps a float array of radii to the
    array of profile values. The steps read it at Gauss points inside the
    spans only, so a kink of psi at a node is never straddled. Each span
    takes m = max(1, ceil((err/TOL)^(1/5))) equal steps, err being |one step
    - two half steps| at u = 0 and at u = sqrt(max psi on the nodes), the
    ends of the interval the backward flow keeps u in.

    Returns u at the nodes of r. Raises ConstructionError when a coefficient
    overflows, or, before building them, when steps exceed MAX_STEPS.
    """
    r = np.asarray(r, dtype=float)
    lo = r[-2::-1]  # spans in integration order: r[n-2]..r[n-1] first
    a = r[:0:-1] - lo
    top = math.sqrt(psi(lo).max(initial=0.0))
    whole, steps = np.empty((4, a.size)), np.empty(a.size)
    for s in (slice(i, i + _SPANS) for i in range(0, a.size, _SPANS)):
        half = 0.5 * a[s]
        widths = np.concatenate([a[s], half, half])  # whole spans, upper halves, lower halves
        vals = psi(_gauss_points(np.concatenate([lo[s], lo[s] + half, lo[s]]), widths))
        whole[:, s], upper, lower = np.split(np.array(_coefficients(widths, h, vals)), 3, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.fmax(*(np.abs(_step(whole[:, s], u0) - _step(lower, _step(upper, u0)))
                            for u0 in (0.0, top)))
            steps[s] = np.maximum(np.ceil((err / TOL) ** 0.2), 1.0)
    total = steps.sum()
    if not (np.isfinite(total) and total <= MAX_STEPS):
        raise ConstructionError(f"Riccati solve needs {total:.3g} steps, more than the "
                                f"{MAX_STEPS} allowed (raise h)")
    m = steps.astype(np.intp)
    done = np.cumsum(m)  # steps taken by the end of each span
    out = np.empty(a.size)
    uu = 0.0
    for k0 in range(0, int(total), _CHUNK):
        k = np.arange(k0, min(k0 + _CHUNK, int(total)))
        j = np.searchsorted(done, k, side="right")  # the span of each step
        left = done[j] - 1 - k  # steps still to take in span j after this one
        coef = [c[j] for c in whole]  # a span of one step takes its whole-span step
        split = m[j] > 1
        js = j[split]
        w = a[js] / m[js]
        refined = _coefficients(w, h, psi(_gauss_points(lo[js] + left[split] * w, w)))
        for c, cs in zip(coef, refined):
            c[split] = cs
        us = []
        for td, tc2, tb, p in zip(*(c.tolist() for c in coef)):
            uu = uu + (td + uu * (tc2 - tb * uu)) / (p + tb * uu)
            us.append(uu)
        ends = left == 0
        out[j[ends]] = np.array(us)[ends]
    return np.append(out[::-1], 0.0)
