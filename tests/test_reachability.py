"""Every top-level function and class in the package is reached by a
command, the benchmark or a documented library entry point.

The roots are the package's own top-level code (the command table, the
schema, `python -m carlab`), every file under perfbench/ and the README's
"Library entry points" block; re-exports in __init__ are not roots.  A
function or class whose name a root mentions is reached, and so is every
name its own body mentions.  Code that only tests call belongs under tests/.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carlab"

# module.name: why it stays although nothing above reaches it
ALLOWED = {
    "__init__.__getattr__": "PEP 562 hook that loads the resolvent names lazily",
    "__init__.__dir__": "PEP 562 hook that lists the lazily loaded names",
    "reports.read_columnar": "the reader of the columnar format write_columnar defines",
}


def _mentions(tree, strings=False) -> set:
    """Every variable and attribute name a syntax tree uses, and with
    strings=True the words of its string constants too (perfbench names its
    trace targets as "carlab.module:function" strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
    return out


def _definitions():
    """{(module, name): definition node} and the mentions of each module's
    top-level code outside its definitions and imports."""
    defs, roots = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(module, node.name)] = node
            elif module != "__init__" and not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _mentions(node)
    return defs, roots


def _readme_entry_points() -> set:
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library entry points")[1].split("```python")[1].split("```")[0]
    return _mentions(ast.parse(block))


def unreached() -> list:
    defs, names = _definitions()
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        names |= _mentions(ast.parse(path.read_text()), strings=True)
    names |= _readme_entry_points()
    reached, frontier = set(), True
    while frontier:
        frontier = False
        for key, node in defs.items():
            if key not in reached and key[1] in names:
                reached.add(key)
                names |= _mentions(node)
                frontier = True
    return sorted(f"{m}.{n}" for (m, n) in defs if (m, n) not in reached)


def test_every_package_definition_is_reached():
    # the allowlist must not go stale either: each entry is still unreached
    assert unreached() == sorted(ALLOWED)
