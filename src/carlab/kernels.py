"""Hot numeric kernels.

The backward Riccati integration is a scalar RK4 recurrence over the radial
grid. Only the recurrence itself stays sequential: the RK4 abscissae of every
span and the profile psi at all of them are computed in numpy first, and a
lean Python loop then steps u through the precomputed values.
"""

from itertools import islice

import numpy as np

def _abscissae(start, dt, m):
    """Substep ends and midpoints of every span, in integration order.

    Span j takes m[j] steps of dt[j] from start[j]. Its ends are accumulated
    one step at a time, as rr = rr + dt in a scalar loop, and its midpoints
    are rr + 0.5 dt. Spans are batched by the binary order of m, so each
    batch is one 2D accumulate padded at most 2x.
    """
    first = np.cumsum(m + 1) - (m + 1)
    ends = np.empty(m.size + m.sum())
    order = np.frexp(m)[1]
    for e in np.unique(order):
        sel = np.flatnonzero(order == e)
        cols = np.arange(m[sel].max() + 1)
        block = np.repeat(dt[sel, None], cols.size, axis=1)
        block[:, 0] = start[sel]
        keep = cols <= m[sel, None]
        ends[(first[sel, None] + cols)[keep]] = np.add.accumulate(block, axis=1)[keep]
    mids = np.delete(ends, first + m) + np.repeat(0.5 * dt, m)
    return ends, mids


def riccati_backward(r, h, substep, psi):
    """Integrate u' = (u^2 - psi(r))/h backward from u(r[-1]) = 0.

    r must be strictly increasing; substep bounds the internal RK4 step, so
    the span r[i-1]..r[i] takes max(1, ceil(span/substep)) equal steps.
    psi maps a float array of radii to the array of profile values; it is
    called once on all substep ends and once on all midpoints, so substep
    abscissae see exact values, never interpolants.

    Returns u sampled at the nodes of r.
    """
    r = np.asarray(r, dtype=float)
    start = r[:0:-1]  # spans in integration order: r[n-1] down to r[n-2], ...
    span = start - r[-2::-1]
    m = np.maximum(np.ceil(span / substep), 1.0).astype(np.intp)
    dt = -span / m
    p_end, p_mid = (psi(x).tolist() for x in _abscissae(start, dt, m))
    out = []
    uu = 0.0
    ends_it, mids_it = iter(p_end), iter(p_mid)
    for mj, d in zip(m.tolist(), dt.tolist()):
        hd = 0.5 * d
        pa = next(ends_it)
        for pm, pe in zip(islice(mids_it, mj), islice(ends_it, mj)):
            k1 = (uu * uu - pa) / h
            v2 = uu + hd * k1
            k2 = (v2 * v2 - pm) / h
            v3 = uu + hd * k2
            k3 = (v3 * v3 - pm) / h
            v4 = uu + d * k3
            k4 = (v4 * v4 - pe) / h
            uu = uu + d * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            pa = pe
        out.append(uu)
    u = np.zeros(r.size)
    u[-2::-1] = out
    return u
