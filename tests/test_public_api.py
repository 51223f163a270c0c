"""No dead API in `src/vinbun`: every public top-level name, and every
public method or property of a public class, is used by the library, a
demo or the benchmark, not only by the tests.

A member counts as used when an attribute, or a dotted part of a string
constant, of its name appears outside its own definition.  The guard reads
names, not types: a member whose name another class also uses, such as a
`scale` or `twisted` beside the `Spec.scale` field or `KElement.twisted`,
is never flagged, and has to be checked by reading the code.

The call guard checks what runs, not what is named: a fixed list of CLI
argv goes through `cli.main` in-process under `sys.setprofile`, and the
public functions, methods and properties it never calls must be exactly
the pending names, each waiting on the ROADMAP item that gives it a
caller or takes it out of `src/`.  Demos do not count."""

import ast
import importlib
import inspect
import io
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

from test_controls import clear_vinbun_caches

from vinbun import cli

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


def test_every_cache_is_bounded():
    # the symmetric-group caches alone take 22,292 entries at
    # `character-table --k 14`, so no cache may grow without bound
    sizes = {}
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module("vinbun." + path.stem)
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                sizes[f"{path.stem}.{name}"] = value.cache_info().maxsize
    assert "arith._sieve" in sizes
    assert [name for name, size in sizes.items() if size is None] == []


# ---------------------------------------------------------------------------
# the call guard
# ---------------------------------------------------------------------------

# CLI argv run in-process, each of which exits 0.  plo over F_2000003 has no
# log tables, so its irreducibility test inverts by `PrimePowerField.pow`;
# only the minus sign of a parsed polynomial reaches `PrimePowerField.neg`
GUARD_ARGV = [
    ["verify"],
    ["verify", "--format", "csv"],
    ["verify", "--suites", "rankone", "--max-q", "2"],
    ["verify", "--suites", "nearby", "--max-n", "4", "--max-q", "3"],
    ["verify", "--budget", "10"],
    ["count", "--n", "2", "--q", "3"],
    ["count", "--n", "2,1", "--q", "4", "--d", "1"],
    *(["trace", "--object", obj, "--q", "3", "--divisor", "t^2+1:2,t:1"]
      for obj in ("plo", "omega", "grpsi", "kelement")),
    ["trace", "--object", "plo", "--q", "2000003", "--divisor", "t^2+1:2"],
    ["trace", "--object", "grpsi", "--q", "3", "--divisor", "t-1:1"],
    ["equations", "--n", "2,1"],
    ["schur-weyl", "--k", "3"],
    ["drinfeld", "--a1", "1", "--a2", "1", "--q", "3"],
    ["drinfeld", "--a1", "1", "--a2", "0", "--q", "3", "--histogram",
     "--include-nonunit-isos"],
    ["character-table", "--k", "4"],
]

# each public callable that no argv of GUARD_ARGV calls -> the ROADMAP item
# that gives it a caller or takes it out of `src/`
PENDING = {
    "localmodel.iter_factor_solutions": 2,
    "kcalc.ic_kernel_k_element": 6,
    "kcalc.NormLedger.calibrated": 1,
    "kcalc.NormLedger.c": 1,
    "arith.decompositions": 1,
    "arith.iter_decompositions": 1,
    "arith.compositions": 1,
    "arith.EffectiveDivisor.is_multiplicity_free": 1,
}


def public_callables():
    """(module, qualname) for each public function of the package, and each
    public method and property of a public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, node in top_level_names(tree):
            if isinstance(node, ast.FunctionDef) and not name.startswith("_"):
                yield path.stem, name
        for qualname, _, _ in public_members(tree):
            yield path.stem, qualname


def code_of(module, qualname):
    """The code object a call of the named callable runs: a property's
    getter, a classmethod's function, a cached function's wrapped one."""
    obj = resolve(module, qualname)
    obj = getattr(obj, "fget", None) or getattr(obj, "__func__", obj)
    return inspect.unwrap(obj).__code__


def test_every_public_callable_runs_under_the_cli():
    # every code object stays alive through the run, so its id is its own
    codes = {f"{module}.{qualname}": code_of(module, qualname)
             for module, qualname in public_callables()}
    clear_vinbun_caches()  # a warm cache would hide a call
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(id(frame.f_code))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with redirect_stdout(io.StringIO()):
            exits = [cli.main(argv) for argv in GUARD_ARGV]
    finally:
        sys.setprofile(previous)
    assert exits == [0] * len(GUARD_ARGV)
    uncalled = sorted(name for name, code in codes.items() if id(code) not in called)
    assert uncalled == sorted(PENDING)
