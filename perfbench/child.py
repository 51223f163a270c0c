"""One `vinbun` invocation in a fresh interpreter, as the benchmark runs it.

    python3 child.py run SRC ARGV...      the CLI, plus the import time
    python3 child.py trace SRC ARGV...    the CLI with layer calls traced
    python3 child.py imports SRC          import time of each module

SRC is the directory that holds the `vinbun` package.  `run` and `trace`
behave as the `vinbun` console script: same stdout, stderr and exit code.
They add one line to stderr that starts with MARKER and carries a JSON
object: `import_s` (time to import vinbun.cli) and, for `trace`, the span
and counter totals of the wrapped calls.
"""

import sys
import time

MARKER = "perfbench:"

# Modules in dependency order: each one's import time excludes the modules
# before it.  `budget` has no measurable import cost and rides with
# `localmodel`.
IMPORT_ORDER = ("arith", "symrep", "kcalc", "localmodel", "drinfeld", "lefschetz", "cli")

# (module, function or Class.method, kind) for every wrapped layer call.
# "call" times the call; "gen" materializes a generator inside one span, so
# a generator costs one span per call instead of one per yielded item.
TRACED = (
    ("arith", "build_field", "call"),
    ("arith", "enumerate_divisors", "call"),
    ("arith", "iter_decompositions", "gen"),
    ("arith", "decompositions", "call"),
    ("arith", "parse_divisor", "call"),
    ("arith", "format_divisor", "call"),
    ("symrep", "character_table", "call"),
    ("symrep", "decompose_class_function", "call"),
    ("lefschetz", "brute_force_schur_weyl", "call"),
    ("lefschetz", "predicted_schur_weyl", "call"),
    ("kcalc", "trace_gr_psi", "call"),
    ("kcalc", "trace_plo", "call"),
    ("kcalc", "trace_omega_tilde", "call"),
    ("kcalc", "boundary_stalk_trace", "call"),
    ("kcalc", "reconstruct_from_difference", "call"),
    ("kcalc", "trace_k_element", "call"),
    ("kcalc", "plo_k_element", "call"),
    ("kcalc", "NormLedger.calibrated", "call"),
    ("localmodel", "build_system", "call"),
    ("localmodel", "count_points", "call"),
    ("localmodel", "factor_d_table", "call"),
    ("localmodel", "strata_counts", "call"),
    ("localmodel", "expected_strata_counts", "call"),
    ("localmodel", "g_locus_count", "call"),
    ("localmodel", "per_fiber_uniformity", "call"),
    ("drinfeld", "drinfeld_value", "call"),
    ("drinfeld", "defect_divisor_of_hom", "call"),
    ("cli", "render_report", "call"),
)

# lru_cache'd functions whose hit ratio is reported.
CACHED = (("arith", "enumerate_divisors"), ("localmodel", "factor_d_table"))


class Tracer:
    """Calls, total time and self time per wrapped function.

    A span's self time is its duration minus the durations of the wrapped
    calls made inside it, so the self times of all spans add up to the time
    spent inside outermost wrapped calls (`top_s`).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> work counter
        self.top_s = 0.0
        self._child_s = []  # time of finished child spans, per open span

    def enter(self):
        self._child_s.append(0.0)
        return self.clock()

    def exit(self, name, start):
        duration = self.clock() - start
        child_s = self._child_s.pop()
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child_s
        if self._child_s:
            self._child_s[-1] += duration
        else:
            self.top_s += duration

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, kind="call", after=None):
        """A traced stand-in for fn.  after(result, args), if given, updates
        counters once the span has closed."""

        def traced(*args, **kwargs):
            start = self.enter()
            try:
                result = fn(*args, **kwargs)
                if kind == "gen":
                    result = list(result)
            finally:
                self.exit(name, start)
            if after is not None:
                after(result, args)
            return iter(result) if kind == "gen" else result

        traced.__wrapped__ = fn
        return traced


def replace_everywhere(original, replacement, namespaces):
    """Rebind every name in the given namespaces (module or class dicts) that
    holds `original`; modules that imported a function by name hold their
    own reference to it."""
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, replacement)


def _candidate_splittings(parts, k):
    """Candidate compositions iter_decompositions tries: C(m+k-1, k-1) per
    point of multiplicity m."""
    from math import comb

    total = 1
    for _, m in parts:
        total *= comb(m + k - 1, k - 1)
    return total


def install(tracer):
    """Wrap the TRACED functions and Laurent.__mul__ in every vinbun module."""
    modules = [m for name, m in sys.modules.items()
               if name == "vinbun" or name.startswith("vinbun.")]
    layer = {name: sys.modules["vinbun." + name] for name in IMPORT_ORDER}

    def cache_miss_counter(original, counter, size):
        seen = [original.cache_info().misses]

        def after(result, args):
            misses = original.cache_info().misses
            if misses != seen[0]:
                seen[0] = misses
                tracer.count(counter, size(result))
        return after

    def on_splittings(pieces, args):
        divisor, degrees = args[0], args[1]
        tracer.count("arith.splittings", len(pieces))
        tracer.count("arith.splitting_candidates",
                     _candidate_splittings(divisor.parts, len(degrees)))

    def on_strata(counts, args):
        tracer.count("localmodel.strata_points", sum(counts.values()))

    hom_space_dims = layer["drinfeld"].hom_space_dims

    def on_drinfeld(result, args):
        a1, a2, field = args[0], args[1], args[2]
        tracer.count("drinfeld.hom_matrices", field.q ** sum(hom_space_dims(a1, a2)))

    after = {
        "arith.iter_decompositions": on_splittings,
        "arith.enumerate_divisors": cache_miss_counter(
            layer["arith"].enumerate_divisors, "arith.divisors", len),
        "localmodel.factor_d_table": cache_miss_counter(
            layer["localmodel"].factor_d_table, "localmodel.points",
            lambda table: sum(table.values())),
        "localmodel.strata_counts": on_strata,
        "drinfeld.drinfeld_value": on_drinfeld,
    }

    for module, qualname, kind in TRACED:
        name = f"{module}.{qualname}"
        owner = layer[module]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(owner, cls_name)
            raw = vars(cls)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = tracer.wrap(name, fn, kind, after.get(name))
            setattr(cls, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            continue
        original = getattr(owner, qualname)
        replace_everywhere(original, tracer.wrap(name, original, kind, after.get(name)), modules)

    laurent = layer["arith"].Laurent
    mul = laurent.__mul__
    tally = [0]

    def counted_mul(self, other):
        tally[0] += 1
        return mul(self, other)

    replace_everywhere(mul, counted_mul, [laurent])
    return tally


def cache_stats():
    out = {}
    for module, name in CACHED:
        fn = getattr(sys.modules["vinbun." + module], name)
        info = getattr(fn, "__wrapped__", fn).cache_info()
        out[f"{module}.{name}"] = [info.hits, info.misses]
    return out


def _report(payload):
    import json

    sys.stderr.write(MARKER + json.dumps(payload) + "\n")
    sys.stderr.flush()


def time_imports(src):
    sys.path.insert(0, src)
    import importlib

    out = {}
    for name in IMPORT_ORDER:
        start = time.perf_counter()
        importlib.import_module("vinbun." + name)
        out[name] = time.perf_counter() - start
    return out


def main(argv):
    mode, src, cli_argv = argv[0], argv[1], argv[2:]
    if mode == "imports":
        _report({"imports": time_imports(src)})
        return 0
    sys.path.insert(0, src)
    start = time.perf_counter()
    import vinbun.cli

    import_s = time.perf_counter() - start
    if mode == "run":
        _report({"import_s": import_s})
        return vinbun.cli.main(cli_argv)
    if mode != "trace":
        raise SystemExit(f"unknown mode {mode!r}")
    tracer = Tracer()
    tally = install(tracer)
    startup_s = time.perf_counter() - start
    try:
        return vinbun.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.count("arith.laurent_mul", tally[0])
        _report({
            "import_s": import_s,
            "startup_s": startup_s,
            "top_s": tracer.top_s,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "caches": cache_stats(),
        })


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
