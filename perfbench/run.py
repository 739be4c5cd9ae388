"""carlab benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload sweep-ring64 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Set-up is timed in several fresh processes (interpreter start, importing
carlab with numpy and scipy, writing the workload configs) and the
workload then runs in one more fresh process, which also gives a set-up
sample.  The ops run one after another in that single process with the
BLAS pool pinned to one thread.  Human-readable lines come first; the last
line of standard output is the JSON result.  With --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 8       # extra set-up samples besides the workload process
DEADLINE_S = 170.0     # the whole call must end within 180 s
BLAS_THREADS = "1"
# two BLAS threads ran the ring64 sweep in 5.0 s against 1.6 s with one
# (2-core Xeon): the block iteration's small QR/GEMM calls lose to thread
# hand-off, so one thread is both the faster and the steadier setting
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tail(values):
    """The p90 op time, interpolated, and how many samples lie beyond it.

    The highest percentile with ten samples beyond it moves with the op
    count, and below 21 samples it falls under the median; a fixed p90
    stays comparable between runs and has at least ten samples beyond it
    on construct-verify.  The sweeps finish fewer ops, so their count
    beyond is printed with the value.
    """
    if len(values) < 2:
        return values[0], 0
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return p90, sum(v > p90 for v in values)


def worker(args, env, deadline, setup_only=False):
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def end_to_end(setups, record):
    ops = record["ops"]
    # latency of the ops that passed; if none did, of all (correct is false then)
    done = [op["seconds"] for op in ops if op["ok"]] or [op["seconds"] for op in ops]
    failed = sum(not op["ok"] for op in ops)
    total = sum(op["seconds"] for op in ops)
    tail_value, beyond = tail(done)
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(done),
        "op_tail_s": tail_value,
        "work_per_s": sum(op["work"] for op in ops) / total,
        "ok_frac": 1.0 - failed / len(ops),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "op_p50_s": f"median of {len(done)} ops",
        "op_tail_s": f"p90 of {len(done)} ops, {beyond} beyond it",
        "work_per_s": "norm rows or parameter points completed per second of op wall time",
        "ok_frac": f"{len(ops) - failed}/{len(ops)} ops passed (fail_frac {failed / len(ops):.4f})",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return values, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "carlab" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'carlab'} is missing", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    try:
        setups = [] if args.trace else [
            worker(args, env, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        record = worker(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    setups.append(record["setup_s"])

    facts = dict(record["machine"], nproc=len(os.sched_getaffinity(0)), cpu=cpu_model(),
                 blas_threads=BLAS_THREADS, seed=args.seed, workload=args.workload)
    print("machine: " + " ".join(f"{k}={v}" for k, v in sorted(facts.items())))
    ops = record["ops"]
    failed = [op for op in ops if not op["ok"]]
    unexpected = [op for op in failed if not op["known_defect"]]
    print(f"ops: {len(ops)} attempted, {len(failed)} failed, {record['passes']} passes")
    for reason in sorted({(op["input"], op["reason"], op["known_defect"]) for op in failed}):
        count = sum(1 for op in failed if (op["input"], op["reason"], op["known_defect"]) == reason)
        label = "known defect" if reason[2] else "FAILED"
        print(f"  {label} x{count}: {reason[0]}: {reason[1]}")

    metrics = {}
    if args.trace:
        for name, info in record["spans"].items():
            print(f"span {name}: {info['count']:.1f}/op, {info['inclusive_s']:.6f} s inclusive, "
                  f"{info['self_s']:.6f} s self")
        for flag in record["flags"]:
            print(f"flag: {flag}")
        for entry in bench["per_layer"]:
            value = record["layers"][entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"{entry['name']} = {value:.6g} {entry['unit']}"
                  f"  (moves {record['moves'].get(entry['name'], '-')}; {record['traced_ops']} traced ops)")
    else:
        values, notes = end_to_end(setups, record)
        for entry in bench["end_to_end"]:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
            print(f"{entry['name']} = {values[entry['name']]:.6g} {entry['unit']}"
                  f"  ({notes[entry['name']]})")
    print(json.dumps({"correct": not unexpected, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
