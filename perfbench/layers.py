"""What the traced run wraps, and the per-layer metrics it derives.

Every metric is a mean per traced op unless it is a ratio.  A ``*_s``
metric is the inclusive time of its spans; ``*self_s`` subtracts the time
of child spans.  ``moves`` names the end-to-end metric and workload each
layer metric is expected to move; it is printed next to every value.
"""

import os
from collections import defaultdict

import numpy as np

from tracing import traced

SWEEPS = "sweep-ring64, sweep-free128"


class _TracedLU:
    """SuperLU stand-in whose solve is a span that counts columns and the
    bytes of factor data it streams (computed, not measured)."""

    def __init__(self, lu, fill, tracer):
        self._lu = lu
        self._fill = fill
        self.solve = traced(lu.solve, "resolvent.solve", tracer, self._solved)

    def _solved(self, tracer, args, kwargs, result):
        cols = result.shape[1] if result.ndim == 2 else 1
        tracer.add("solve_cols", cols)
        tracer.add("solve_bytes", cols * self._fill * 16)
        return result

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _lu_built(tracer, args, kwargs, lu):
    fill = int(lu.L.nnz + lu.U.nnz)
    tracer.add("lu_fill", fill)
    return _TracedLU(lu, fill, tracer)


def _norm_operator(tracer, args, kwargs, result):
    op = args[0] if args else kwargs.get("op")
    eps = args[1] if len(args) > 1 else kwargs.get("eps")
    h = getattr(op, "h", None)
    if h is not None and eps is not None:
        tracer.key_set("h_eps").add((float(h), float(eps)))
    return result


def _riccati_substeps(tracer, args, kwargs, result):
    # the kernel takes max(1, ceil(span / substep)) RK4 steps per interval
    if len(args) >= 3:
        spans = np.diff(np.asarray(args[0], dtype=float))
        tracer.add("riccati_substeps", int(np.maximum(np.ceil(spans / float(args[2])), 1).sum()))
    return result


def _margin_evals(tracer, args, kwargs, result):
    for report in result if isinstance(result, list) else [result]:
        per_h = getattr(report, "detail", {}).get("per_h_min") or [None]
        tracer.add("margin_evals", getattr(report, "grid_size", 0) * len(per_h))
    return result


def _bytes_written(tracer, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    if path is not None and os.path.isfile(path):
        tracer.add("report_bytes", os.path.getsize(path))
    return result


# (span name, "module:function", hook run after the span closes)
TARGETS = [
    ("cli.main", "carlab.cli:main", None),
    ("cli.config", "carlab.cli:load_config", None),
    ("resolvent.sweep", "carlab.resolvent:sweep_h", None),
    ("resolvent.assemble", "carlab.resolvent:assemble", None),
    ("resolvent.norm", "carlab.resolvent:weighted_resolvent_norm", _norm_operator),
    ("resolvent.factor", "scipy.sparse.linalg:splu", _lu_built),
    ("kernels.riccati", "carlab.kernels:riccati_backward", _riccati_substeps),
    ("weights.search", "carlab.weights:find_psi_constants", None),
    ("weights.psi_margin", "carlab.weights:psi_inequality_margin", None),
    ("weights.grid", "carlab.weights:radial_grid", None),
    ("weights.grid", "carlab.weights:margin_scan_nodes", None),
    ("weights.g_h1", "carlab.weights:compute_g_and_h1", None),
    ("weights.tables", "carlab.weights:build_weight_tables", None),
    ("weights.residual", "carlab.weights:riccati_residual", None),
    ("verify.margins", "carlab.verify:verify_psi_inequality", _margin_evals),
    ("verify.margins", "carlab.verify:verify_E4_inequality", _margin_evals),
    ("verify.margins", "carlab.verify:verify_barrier_facts", _margin_evals),
    ("verify.box", "carlab.verify:verify_shift_envelope", None),
    ("verify.box", "carlab.verify:gluing_constants", None),
    ("potentials.sample", "carlab.potentials:catalog_potential", None),
    ("potentials.sample", "carlab.potentials:catalog_radial", None),
    ("reports.write", "carlab.reports:write_weight_table", _bytes_written),
    ("reports.write", "carlab.reports:write_report", _bytes_written),
    ("reports.write", "carlab.reports:write_sweep_csv", _bytes_written),
    ("reports.write", "carlab.reports:write_plot_data", _bytes_written),
]

_COMMON = ("cli.main", "cli.config", "potentials.sample", "reports.write")
EXPECTED_SPANS = {
    "sweep": _COMMON + ("resolvent.sweep", "resolvent.assemble", "resolvent.norm",
                        "resolvent.factor", "resolvent.solve"),
    "construct-verify": _COMMON + ("weights.search", "weights.psi_margin", "weights.grid",
                                   "weights.g_h1", "weights.tables", "kernels.riccati",
                                   "weights.residual", "verify.margins", "verify.box"),
}


class Aggregate:
    """Span and counter totals over the traced ops."""

    def __init__(self, tracer, ops):
        self.ops = len(ops)
        self.count = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.search_candidates = 0
        for op, name, t0, t1, _, child, outermost in tracer.spans:
            if op not in ops:
                continue
            self.count[name] += 1
            if outermost:
                self.inclusive[name] += t1 - t0
            self.self_time[name] += t1 - t0 - child
        for span in tracer.spans:
            if span[0] in ops and span[1] == "weights.psi_margin" \
                    and tracer.parent_name(span) == "weights.search":
                self.search_candidates += 1
        for op in ops:
            for key, value in tracer.counters.get(op, {}).items():
                self.counters[key] += len(value) if isinstance(value, set) else value

    def per_op(self, value):
        return value / self.ops if self.ops else 0.0

    def ratio(self, num, den):
        return num / den if den else 0.0


def _t(name):
    return lambda a: a.per_op(a.inclusive[name])


def _n(name):
    return lambda a: a.per_op(a.count[name])


def _c(key):
    return lambda a: a.per_op(a.counters[key])


# name, unit, better, compute(Aggregate), which end-to-end metric it should move
METRICS = [
    ("resolvent.factor_s", "s", "lower", _t("resolvent.factor"),
     "op_p50_s, work_per_s on sweep-ring64"),
    ("resolvent.factorizations", "count", "lower", _n("resolvent.factor"),
     "op_p50_s, work_per_s on sweep-ring64"),
    ("resolvent.factor_reuse", "ratio", "higher",
     lambda a: a.ratio(a.counters["h_eps"], a.count["resolvent.factor"]),
     "op_p50_s, work_per_s on sweep-ring64"),
    ("resolvent.lu_fill_nnz", "count", "lower",
     lambda a: a.ratio(a.counters["lu_fill"], a.count["resolvent.factor"]),
     "op_p50_s, peak_rss_mb on sweep-free128"),
    ("resolvent.solve_s", "s", "lower", _t("resolvent.solve"),
     "op_p50_s, peak_rss_mb on sweep-free128"),
    ("resolvent.solve_cols", "count", "lower", _c("solve_cols"),
     "op_p50_s, peak_rss_mb on sweep-free128"),
    ("resolvent.solve_bytes_computed", "B", "lower", _c("solve_bytes"),
     "op_p50_s, peak_rss_mb on sweep-free128"),
    ("resolvent.norm_iterations", "count", "lower", _c("norm_iterations"),
     "op_p50_s on " + SWEEPS),
    ("resolvent.norm_self_s", "s", "lower",
     lambda a: a.per_op(a.self_time["resolvent.norm"]), "op_p50_s on " + SWEEPS),
    ("resolvent.assemble_s", "s", "lower", _t("resolvent.assemble"),
     "op_p50_s on " + SWEEPS + " (small share)"),
    ("resolvent.operators", "count", "lower", _n("resolvent.assemble"),
     "op_p50_s on " + SWEEPS + " (small share)"),
    ("kernels.riccati_s", "s", "lower", _t("kernels.riccati"), "op_p50_s on construct-verify"),
    ("kernels.riccati_substeps", "count", "lower", _c("riccati_substeps"),
     "op_p50_s on construct-verify"),
    ("weights.search_s", "s", "lower", _t("weights.search"), "op_p50_s on construct-verify"),
    ("weights.search_candidates", "count", "lower",
     lambda a: a.per_op(a.search_candidates), "op_p50_s on construct-verify"),
    ("weights.grid_s", "s", "lower", _t("weights.grid"), "op_p50_s on construct-verify"),
    ("weights.g_h1_s", "s", "lower", _t("weights.g_h1"), "op_p50_s on construct-verify"),
    ("weights.tables_s", "s", "lower", _t("weights.tables"), "op_p50_s on construct-verify"),
    ("weights.residual_s", "s", "lower", _t("weights.residual"), "op_p50_s on construct-verify"),
    ("verify.margins_s", "s", "lower", _t("verify.margins"), "op_p50_s on construct-verify"),
    ("verify.margin_evals", "count", "lower", _c("margin_evals"), "op_p50_s on construct-verify"),
    ("verify.box_s", "s", "lower", _t("verify.box"), "op_p50_s on construct-verify"),
    ("potentials.sample_s", "s", "lower", _t("potentials.sample"),
     "setup_s and op_p50_s on " + SWEEPS + " (a little)"),
    ("reports.write_s", "s", "lower", _t("reports.write"), "op_p50_s on construct-verify"),
    ("reports.bytes", "B", "lower", _c("report_bytes"), "op_p50_s on construct-verify"),
    ("cli.config_s", "s", "lower", _t("cli.config"), "op_p50_s on every workload"),
    ("cli.self_s", "s", "lower", lambda a: a.per_op(a.self_time["cli.main"]),
     "op_p50_s on every workload"),
]


def layer_metrics(tracer, ops):
    agg = Aggregate(tracer, ops)
    return {name: float(compute(agg)) for name, _, _, compute, _ in METRICS}, agg


def flags(agg, absent, kind):
    """Targets missing from the program and expected spans never entered."""
    out = [f"target absent: {spec}" for spec in absent]
    out += [f"expected span has zero count: {name}"
            for name in EXPECTED_SPANS[kind] if agg.count[name] == 0]
    return out
