"""One workload in a fresh process: set up, run ops for a time, check them.

Started by run.py, never by hand.  An op is one in-process pipeline of
``carlab.cli.main`` calls on one complete config; the program is imported
from ``src/`` of the checkout that holds this file.  The last line of
standard output is a JSON record for run.py.
"""

import argparse
import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
WORK = ROOT / ".perfbench_work"

# the CLI calls of one op, per kind of workload
PIPELINES = {
    "sweep": (["sweep", "--assert-fits"], ["report"]),
    "construct-verify": (["weights"], ["verify"], ["report"]),
}

# relative tolerances taken from the program's own gates: the solver
# tolerance 1e-8 certifies sigma far below 1e-6; psi constants are pinned by
# the continuity gate 1e-10, as is h1, a scan of closed-form values; C0
# integrates phi', which the Riccati gate pins only to residual_tol, so it
# gets ten times that; margins use the verify tolerance 1e-12 as absolute
# floor plus the continuity gate as relative part.
NORM_RTOL = 1e-6
CONST_RTOL = {"B": 1e-10, "R0": 1e-10, "R1": 1e-10, "h1": 1e-10}
C0_RTOL_PER_RESIDUAL_TOL = 10.0
CONTINUITY_TOL = 1e-10
MARGIN_ATOL = 1e-12
MARGIN_RTOL = 1e-10


def load_reference(workload):
    return json.loads((REFERENCE / f"{workload}.json").read_text())


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    from carlab import cli

    return cli


def write_configs(reference, seed, directory):
    """One complete JSON config per input; the workload seed is its seed."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for item in reference["inputs"]:
        config = copy.deepcopy(item["config"])
        config["seed"] = seed
        path = directory / f"{item['name']}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        paths[item["name"]] = path
    return paths


def run_pipeline(cli, pipeline, config, out):
    """Run the CLI calls of one op; returns (seconds, exit codes, error).

    The program's own stdout and stderr are captured so that they neither
    reach the result stream nor cost terminal time.
    """
    exits = {}
    error = None
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            for command, *extra in pipeline:
                exits[command] = cli.main([command, "--config", str(config), "--out", str(out), *extra])
        except Exception as exc:  # any raise is a failed op, reported by type
            error = f"{command} raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, exits, error


def artifact_hashes(out):
    if not out.is_dir():
        return {}
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _close(value, ref, rtol, atol=0.0):
    return abs(value - ref) <= atol + rtol * abs(ref)


def _read_json(path, problems):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable {path.name}: {exc}")
        return None


def check_sweep(out, expect, problems):
    """Norm rows against the reference; returns (rows checked, iterations)."""
    rows_ok = 0
    iterations = 0
    tol = expect["tol"]
    for mode, ref_rows in expect["rows"].items():
        path = out / f"sweep_{mode}.csv"
        try:
            with open(path, newline="") as f:
                rows = list(csv.DictReader(f))
        except OSError as exc:
            problems.append(f"missing {path.name}: {exc}")
            continue
        if len(rows) != len(ref_rows):
            problems.append(f"{mode}: {len(rows)} rows, reference has {len(ref_rows)}")
            continue
        for row, (h, eps, norm) in zip(rows, ref_rows):
            got_h, got_eps, got = float(row["h"]), float(row["eps"]), float(row["norm"])
            its, resid = int(row["iterations"]), float(row["residual"])
            iterations += its
            if not (_close(got_h, h, 1e-15) and _close(got_eps, eps, 1e-15)):
                problems.append(f"{mode}: row (h, eps) = ({got_h}, {got_eps}), reference ({h}, {eps})")
            elif not _close(got, norm, NORM_RTOL):
                problems.append(f"{mode} h={h}: norm {got!r} vs reference {norm!r}")
            elif not resid <= tol:
                problems.append(f"{mode} h={h}: residual {resid:.3e} above tol {tol:.1e}")
            elif not 1 <= its <= expect["max_iter"]:
                problems.append(f"{mode} h={h}: {its} iterations outside [1, max_iter]")
            else:
                rows_ok += 1
        if not (out / f"fits_{mode}.json").is_file():
            problems.append(f"missing fits_{mode}.json")
    summary = _read_json(out / "summary.json", problems)
    if summary is not None and not summary.get("present", {}).get("sweeps"):
        problems.append("summary.json does not list the sweeps")
    return rows_ok, iterations


def check_construct_verify(out, expect, residual_tol, problems):
    report = _read_json(out / "weights_report.json", problems)
    if report is not None:
        for key, ref in expect["constants"].items():
            rtol = CONST_RTOL.get(key, C0_RTOL_PER_RESIDUAL_TOL * residual_tol)
            got = report.get(key)
            if not isinstance(got, (int, float)) or not _close(got, ref, rtol):
                problems.append(f"constant {key} = {got!r}, reference {ref!r} (rtol {rtol:g})")
        res = report.get("residuals", {})
        if not res.get("riccati", float("inf")) <= residual_tol:
            problems.append(f"Riccati residual {res.get('riccati')!r} above {residual_tol:g}")
        for key in ("continuity_R0", "continuity_R1"):
            if not res.get(key, float("inf")) <= CONTINUITY_TOL:
                problems.append(f"{key} residual {res.get(key)!r} above {CONTINUITY_TOL:g}")
    margins = _read_json(out / "margins_report.json", problems)
    if margins is not None:
        got = {r["name"]: r for r in margins.get("reports", [])}
        if expect["margins_complete"] and sorted(got) != sorted(m[0] for m in expect["margins"]):
            problems.append(f"margin checks {sorted(got)} differ from the reference")
        for name, passed, min_margin in expect["margins"]:
            r = got.get(name)
            if r is None:
                problems.append(f"margin check {name} missing")
            elif r.get("pass") != passed:
                problems.append(f"{name}: pass = {r.get('pass')}, reference {passed}")
            elif min_margin is not None and not _close(r.get("min_margin", float("nan")), min_margin,
                                                       MARGIN_RTOL, MARGIN_ATOL):
                problems.append(f"{name}: min_margin {r.get('min_margin')!r}, reference {min_margin!r}")
        summary = _read_json(out / "summary.json", problems)
        all_pass = all(r.get("pass") for r in got.values())
        if summary is not None and summary.get("pass") != all_pass:
            problems.append(f"summary pass = {summary.get('pass')}, margins say {all_pass}")


def config_fingerprint(cli):
    defaults = getattr(cli, "DEFAULT_CONFIG", None)
    return None if defaults is None else json.dumps(defaults, sort_keys=True, default=repr)


class Workload:
    """Runs and checks ops of one workload in this process."""

    def __init__(self, cli, reference, configs, workdir):
        self.cli = cli
        self.kind = reference["kind"]
        self.pipeline = PIPELINES[self.kind]
        self.inputs = {item["name"]: item for item in reference["inputs"]}
        self.configs = configs
        self.workdir = workdir
        self.first_hashes = {}
        self.defaults_snapshot = copy.deepcopy(getattr(cli, "DEFAULT_CONFIG", None))
        self.fingerprint = config_fingerprint(cli)
        self.ops = 0

    def run(self, name, tracer=None):
        """One op; returns its record.  An op fails if it raises, returns
        another exit code than recorded, misses the reference, writes
        artifacts that differ from an earlier run of the same input, or
        changes the program's default config."""
        item = self.inputs[name]
        expect = item["expect"]
        self.ops += 1
        out = self.workdir / f"op{self.ops}"
        seconds, exits, error = run_pipeline(self.cli, self.pipeline, self.configs[name], out)
        problems = [error] if error else []
        for command, code in exits.items():
            if code != expect["exit"][command]:
                problems.append(f"{command} exited {code}, recorded {expect['exit'][command]}")
        work = 0
        if not error:
            if self.kind == "sweep":
                rows_ok, iterations = check_sweep(out, expect, problems)
                work = rows_ok
                if tracer is not None:
                    tracer.add("norm_iterations", iterations)
            else:
                residual_tol = item["config"]["weights"]["residual_tol"]
                check_construct_verify(out, expect, residual_tol, problems)
                work = 1
            hashes = artifact_hashes(out)
            first = self.first_hashes.setdefault(name, hashes)
            if hashes != first:
                changed = sorted(k for k in set(hashes) | set(first) if hashes.get(k) != first.get(k))
                problems.append(f"rerun artifacts differ: {', '.join(changed)}")
        if config_fingerprint(self.cli) != self.fingerprint:
            problems.append("DEFAULT_CONFIG changed during the op")
            self.cli.DEFAULT_CONFIG.clear()
            self.cli.DEFAULT_CONFIG.update(copy.deepcopy(self.defaults_snapshot))
        shutil.rmtree(out, ignore_errors=True)
        known = item.get("known_defect")
        return {
            "input": name,
            "seconds": seconds,
            "ok": not problems,
            "reason": "; ".join(problems),
            "known_defect": bool(problems) and known is not None
            and problems[0].startswith(known["reason_prefix"]),
            "work": work if not problems else 0,
            "traced": tracer is not None,
        }


def machine_facts():
    import importlib.util

    import numpy
    import scipy

    kernels = sys.modules.get("carlab.kernels")
    using = getattr(kernels, "using_numba", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel": ("numba" if using() else "python") if callable(using) else "unknown",
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="monotonic time the parent started us")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = WORK / f"{os.getpid()}"
    try:
        cli = import_program()
        reference = load_reference(args.workload)
        configs = write_configs(reference, args.seed, workdir / "configs")
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = {"setup_s": setup_s, "machine": machine_facts()}
        record.update(measure(cli, reference, configs, workdir, args))
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, reference, configs, workdir, args):
    """Whole passes over the inputs, in an order drawn from the seed, until
    --seconds have passed.  With tracing, even passes are traced and odd
    passes run bare, so the overhead is measured in the same process."""
    workload = Workload(cli, reference, configs, workdir)
    order = [item["name"] for item in reference["inputs"]]
    rng = random.Random(args.seed)
    ops = []
    tracer = restore = absent = None
    if args.trace:
        from layers import TARGETS
        from tracing import Tracer, install

        tracer = Tracer()
    start = time.perf_counter()
    passes = 0
    while (passes < (2 if args.trace else 1)
           or time.perf_counter() - start < args.seconds):
        rng.shuffle(order)
        traced = args.trace and passes % 2 == 0
        if traced:
            restore, absent = install(tracer, TARGETS)
        try:
            for name in order:
                if traced:
                    tracer.op = len(ops)
                ops.append(workload.run(name, tracer if traced else None))
        finally:
            if traced:
                restore()
        passes += 1
    out = {"ops": ops, "passes": passes}
    if args.trace:
        out.update(trace_summary(tracer, ops, absent, workload.kind))
    return out


def trace_summary(tracer, ops, absent, kind):
    from statistics import median

    from layers import METRICS, flags, layer_metrics

    traced_ops = {i for i, op in enumerate(ops) if op["traced"]}
    metrics, agg = layer_metrics(tracer, traced_ops)
    bare = [op["seconds"] for op in ops if not op["traced"]]
    with_trace = [ops[i]["seconds"] for i in sorted(traced_ops)]
    metrics["trace.overhead_s"] = median(with_trace) - median(bare)
    flagged = flags(agg, absent, kind)
    metrics["trace.flagged"] = float(len(flagged))
    spans = {name: {"count": agg.per_op(agg.count[name]),
                    "inclusive_s": agg.per_op(agg.inclusive[name]),
                    "self_s": agg.per_op(agg.self_time[name])}
             for name in sorted(agg.count) if agg.count[name]}
    moves = {name: move for name, _, _, _, move in METRICS}
    moves["trace.overhead_s"] = "nothing: traced minus bare op_p50_s in this process"
    moves["trace.flagged"] = "nothing: absent targets plus expected spans never entered"
    return {"layers": metrics, "flags": flagged, "spans": spans, "moves": moves,
            "traced_ops": len(traced_ops)}


if __name__ == "__main__":
    sys.exit(main())
