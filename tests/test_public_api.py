"""No dead API in `src/vinbun`: every public top-level name, and every
public method or property of a public class, is used by the library, a
demo or the benchmark, not only by the tests.

A member counts as used when an attribute, or a dotted part of a string
constant, of its name appears outside its own definition.  The guard reads
names, not types: a member whose name another class also uses, such as a
`scale` or `twisted` beside the `Spec.scale` field or `KElement.twisted`,
is never flagged, and has to be checked by reading the code."""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vinbun"

def top_level_names(tree):
    """(name, defining node) for each def, class and plain assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def public_members(tree):
    """(class.member, name, defining node) for each public method and
    property of each public top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def string_parts(node):
    return (node.value.split(".")
            if isinstance(node, ast.Constant) and isinstance(node.value, str) else ())


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
        out.update(string_parts(node))
    return out


def attribute_references(tree):
    """How often the tree uses each name as an attribute or a dotted part
    of a string constant: the ways to reach a member."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        out.update(string_parts(node))
    return out


def user_trees():
    return [ast.parse(path.read_text())
            for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").rglob("*.py"),
                         *(ROOT / "perfbench").rglob("*.py")]]


def unreferenced_public_names():
    """(module, name) for each public top-level name of the package that
    nothing uses outside its own definition."""
    used = sum((references(tree) for tree in user_trees()), Counter())
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in top_level_names(ast.parse(path.read_text())):
            if not name.startswith("_") and used[name] == references(node)[name]:
                dead.append((path.stem, name))
    return dead


def unreferenced_public_members():
    """(module, class.member) for each public method or property that
    nothing reaches outside its own definition."""
    used = sum((attribute_references(tree) for tree in user_trees()), Counter())
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name, node in public_members(ast.parse(path.read_text())):
            if used[name] == attribute_references(node)[name]:
                dead.append((path.stem, qualname))
    return dead


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced_public_names() == []


def test_every_public_member_has_a_caller_outside_the_tests():
    assert unreferenced_public_members() == []


def perfbench_names(*names):
    """The values of the named assignments of perfbench/child.py, read off its
    source."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    values = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id in names}
    return [values[name] for name in names]


def resolve(module, qualname):
    obj = importlib.import_module("vinbun." + module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def test_perfbench_traces_and_caches_names_that_exist():
    traced, cached = perfbench_names("TRACED", "CACHED")
    for module, qualname, _ in traced:
        assert callable(resolve(module, qualname)), (module, qualname)
    for module, name in cached:
        assert hasattr(resolve(module, name), "cache_info"), (module, name)
