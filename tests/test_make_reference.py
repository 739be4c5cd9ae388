import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from carlab.weights import PsiSearch

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "make_reference.py"


def script():
    """perfbench/make_reference.py's syntax tree, read without running it."""
    return ast.parse(SCRIPT.read_text())


def carlab_names(tree):
    """{name: object or None} for the script's "from carlab... import" lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "carlab":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name, None)
    return names


def carlab_calls(tree, names):
    """(label, callable or None, call node) for each call of an imported name
    or of an attribute of one, such as PsiSpec.from_continuity."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            yield func.id, names[func.id], node
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in names:
            owner = names[func.value.id]
            yield f"{func.value.id}.{func.attr}", getattr(owner, func.attr, None), node


def test_every_imported_name_resolves():
    # the script regenerates the benchmark's reference but no test runs it, so
    # a rename or a deletion in carlab would surface only at that regeneration
    names = carlab_names(script())
    assert len(names) == 16
    assert [name for name, obj in names.items() if obj is None] == []


def test_every_keyword_passed_to_carlab_exists():
    tree = script()
    names = carlab_names(tree)
    passed, bad = set(), []
    for label, func, call in carlab_calls(tree, names):
        if func is None:
            bad.append(label)
            continue
        params = inspect.signature(func).parameters
        open_ended = any(p.kind is p.VAR_KEYWORD for p in params.values())
        for kw in call.keywords:
            if kw.arg is not None:  # a **mapping is checked by its keys below
                passed.add(kw.arg)
                if kw.arg not in params and not open_ended:
                    bad.append(f"{label}({kw.arg}=)")
    assert bad == []
    assert {"extra_nodes", "check_resolution", "n_inner", "n_mid", "n_outer"} <= passed


def test_search_settings_are_psi_search_fields():
    # the script passes these dicts as PsiSearch(**search) and as configs
    found = {}
    for node in script().body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and getattr(node.targets[0], "id", None) in ("CERTIFIED_SEARCH", "DEFAULT_SEARCH"):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    assert sorted(found) == ["CERTIFIED_SEARCH", "DEFAULT_SEARCH"]
    fields = {f.name for f in dataclasses.fields(PsiSearch)}
    assert {name: sorted(set(keys) - fields) for name, keys in found.items()} == \
        {"CERTIFIED_SEARCH": [], "DEFAULT_SEARCH": []}
