import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def trace_targets():
    """The "module:function" strings of perfbench's TARGETS list, read without running it."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [entry.elts[1].value for entry in node.value.elts]
    raise AssertionError("perfbench/layers.py defines no TARGETS list")


def test_every_traced_function_still_resolves():
    # the traced run silently drops a span whose target no longer exists, so a
    # rename or a deletion would hide that layer's time from the benchmark
    targets = trace_targets()
    assert len(targets) == 25
    missing = []
    for spec in targets:
        module, _, name = spec.partition(":")
        if not callable(getattr(importlib.import_module(module), name, None)):
            missing.append(spec)
    assert missing == []
