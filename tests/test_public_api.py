"""No dead API in `src/vinbun`: every public top-level name is used by the
library, a demo or the benchmark, not only by the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vinbun"

# imported by the acceptance tests, which spell out the paper's checks
ALLOWED = {("arith", "alternative_moduli"), ("lefschetz", "lowering_kernel_reps")}


def top_level_names(tree):
    """(name, defining node) for each def, class and plain assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def references(tree):
    """How often the tree uses each name: as a name, an attribute, an
    import, or a dotted part of a string constant (so a `TRACED` entry
    such as "NormLedger.calibrated" counts)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def unreferenced_public_names():
    """(module, name) for each public top-level name of the package that
    nothing uses outside its own definition."""
    used = Counter()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").rglob("*.py"),
                 *(ROOT / "perfbench").rglob("*.py")]:
        used += references(ast.parse(path.read_text()))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in top_level_names(ast.parse(path.read_text())):
            if not name.startswith("_") and used[name] == references(node)[name]:
                dead.append((path.stem, name))
    return dead


def test_every_public_name_has_a_caller_outside_the_tests():
    assert [d for d in unreferenced_public_names() if d not in ALLOWED] == []


def test_the_allowlist_holds_only_unreferenced_names():
    assert ALLOWED <= set(unreferenced_public_names())
