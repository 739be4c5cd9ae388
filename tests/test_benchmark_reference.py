import importlib.util
from pathlib import Path

import pytest

from carlab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = sorted(p.stem for p in (PERFBENCH / "reference").glob("*.json"))


def load_worker():
    """perfbench/worker.py as a module, imported without running its main."""
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_inputs_match_their_reference(tmp_path, workload):
    # each input once through the benchmark's own checker (exit codes, norms,
    # constants, margins, residuals, rerun bytes against the recorded outputs),
    # so a change that moves a pinned output fails here, not first in the benchmark
    worker = load_worker()
    reference = worker.load_reference(workload)
    configs = worker.write_configs(reference, 1, tmp_path / "configs")
    runner = worker.Workload(cli, reference, configs, tmp_path)
    records = [runner.run(item["name"]) for item in reference["inputs"]]
    assert [(r["input"], r["reason"]) for r in records if not (r["ok"] or r["known_defect"])] == []
