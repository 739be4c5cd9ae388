"""Hot numeric kernels.

The backward Riccati integration is a scalar RK4 recurrence over the radial
grid. Only the recurrence itself stays sequential: the RK4 abscissae and the
profile psi at them are computed in numpy one block of at most _CHUNK
substeps at a time, and a lean Python loop then steps u through each block's
precomputed values. Memory is O(_CHUNK + nodes), whatever the substep count.
"""

from itertools import islice

import numpy as np

from .errors import ConstructionError

# The abscissae and psi values live one block at a time, so memory does not
# grow with the substep count and this cap bounds time, not memory: 2**22
# substeps take about 2 s of the loop on a 2-core Xeon.  The finest tested
# solve takes 23,790.
MAX_SUBSTEPS = 2**22

# Substeps per block: a block's arrays and lists peak near 0.6 MB, and its
# few numpy calls cost little next to 4096 steps of the loop.
_CHUNK = 4096


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
    called on the substep ends and on the midpoints of each block of at most
    _CHUNK substeps, so substep abscissae see exact values, never
    interpolants.  A span split across blocks resumes from its last
    accumulated end, so the abscissae do not depend on _CHUNK.

    Returns u sampled at the nodes of r.  Raises ConstructionError, before
    allocating, when the substep count is not finite or above MAX_SUBSTEPS.
    """
    r = np.asarray(r, dtype=float)
    start = r[:0:-1]  # spans in integration order: r[n-1] down to r[n-2], ...
    span = start - r[-2::-1]
    steps = np.maximum(np.ceil(span / substep), 1.0)
    total = steps.sum()
    if not (np.isfinite(total) and total <= MAX_SUBSTEPS):
        raise ConstructionError(
            f"Riccati solve needs {total:.3g} RK4 substeps, more than the "
            f"{MAX_SUBSTEPS} allowed (raise h or lower substep_factor)"
        )
    m = steps.astype(np.intp)
    dt = -span / m
    done = np.cumsum(m)  # substeps taken by the end of each span
    out = []
    uu = 0.0
    for lo in range(0, int(m.sum()), _CHUNK):
        # the block takes substeps lo .. hi-1: spans j0 .. j1-1, the first and
        # the last of them possibly in part
        hi = lo + _CHUNK
        j0 = int(np.searchsorted(done, lo, side="right"))
        j1 = min(int(np.searchsorted(done, hi)) + 1, m.size)
        end, db = done[j0:j1], dt[j0:j1]
        mb = np.minimum(end, hi) - np.maximum(end - m[j0:j1], lo)
        sb = start[j0:j1].copy()
        if end[0] - m[j0] < lo:  # resume a span from its last accumulated end
            sb[0] = rr
        ends, mids = _abscissae(sb, db, mb)
        rr = ends[-1]
        ends_it, mids_it = iter(psi(ends).tolist()), iter(psi(mids).tolist())
        for mj, d in zip(mb.tolist(), db.tolist()):
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
        if end[-1] > hi:  # the last span goes on in the next block
            out.pop()
    u = np.zeros(r.size)
    u[-2::-1] = out
    return u
