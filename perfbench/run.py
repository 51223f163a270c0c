"""End-to-end benchmark of the `vinbun` CLI, with an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation runs in a fresh interpreter, one at a time (a closed loop with
one client), in an environment without VINBUN_* and PYTHON* variables, and
without --budget or --jobs.  A pass runs every command of the workload once,
in an order shuffled by the seed; passes repeat while the next one is expected
to end within S seconds.  Every output is compared with the pinned output in
expected.json.

The end-to-end timings are probe-scaled.  A shared host's CPU speed moves by
a quarter within seconds and over minutes, so raw seconds do not repeat.  The
runner and its children share one CPU; the children run at the lowest
priority, and while one runs the runner times a small fixed loop (the probe)
every PROBE_PERIOD_S.  Each invocation's times are multiplied by
PROBE_NOMINAL_S over the probe's mean time during that invocation: the
seconds it would have taken on a CPU where the probe takes PROBE_NOMINAL_S.

The last stdout line is one JSON object: `correct`, `attempted` and `failed`
count invocations, and `metrics` holds the end-to-end metrics (--trace 0) or
the per-layer metrics (--trace 1).  The line before it records the machine,
the sample counts, the error ratio and every output mismatch.  See README.md.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import select
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIMEOUT_S = 120

# The probe: probe_work() takes 0.7 to 1 ms, about PROBE_NOMINAL_S, on a
# 2-core Xeon VM, and runs once every PROBE_PERIOD_S while a child runs,
# taking about 5% of the shared CPU from it.
PROBE_NOMINAL_S = 0.001
PROBE_ROUNDS = 1000
PROBE_PERIOD_S = 0.02

WORKLOADS = {
    "oneshot-cli": (
        ("count", "--n", "2,1", "--q", "4"),
        ("trace", "--object", "grpsi", "--q", "3", "--divisor", "t:2,t+1:1"),
        ("equations", "--n", "3,2"),
        ("schur-weyl", "--k", "4"),
        ("drinfeld", "--a1", "0", "--a2", "0", "--q", "3"),
        ("character-table", "--k", "4"),
    ),
    "verify-default": (("verify",),),
    "verify-traces": (
        ("verify", "--suites", "nearby", "--max-n", "5", "--max-q", "4", "--max-degree", "5"),
    ),
    "enumerate": (
        ("verify", "--suites", "omega,strata,uniformity,quadric,drinfeld",
         "--max-n", "4", "--max-q", "7"),
        ("count", "--n", "4", "--q", "7", "--d", "zero"),
        ("drinfeld", "--a1", "1", "--a2", "1", "--q", "7"),
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "checks_per_s": "1/s",
}

LAYERS = ("arith", "symrep", "lefschetz", "kcalc", "localmodel", "drinfeld")

# Per-layer metric -> unit.  Self times of single functions come from the
# span of that name; "<layer>.self_s" sums every span of the layer.
PER_LAYER_UNITS = {
    **{f"{m}.import_s": "s" for m in child.IMPORT_ORDER},
    **{f"{m}.self_s": "s" for m in LAYERS},
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "cli.render_report.self_s": "s",
    "cli.checks": "count",
    "arith.iter_decompositions.self_s": "s",
    "arith.splittings": "count",
    "arith.splitting_yield": "ratio",
    "arith.laurent_mul": "count",
    "arith.enumerate_divisors.self_s": "s",
    "arith.divisors": "count",
    "arith.enumerate_divisors.hit_ratio": "ratio",
    "arith.build_field.self_s": "s",
    "kcalc.trace_gr_psi.self_s": "s",
    "kcalc.trace_gr_psi.calls": "count",
    "kcalc.trace_plo.self_s": "s",
    "kcalc.trace_plo.calls": "count",
    "kcalc.boundary_stalk_trace.self_s": "s",
    "kcalc.reconstruct_from_difference.self_s": "s",
    "kcalc.reconstruct_from_difference.calls": "count",
    "localmodel.factor_d_table.self_s": "s",
    "localmodel.factor_d_table.hit_ratio": "ratio",
    "localmodel.points": "count",
    "localmodel.points_per_s": "1/s",
    "localmodel.strata_counts.self_s": "s",
    "localmodel.strata_points": "count",
    "localmodel.count_points.calls": "count",
    "drinfeld.drinfeld_value.self_s": "s",
    "drinfeld.hom_matrices": "count",
    "drinfeld.defect_divisor_of_hom.self_s": "s",
    "lefschetz.brute_force_schur_weyl.self_s": "s",
    "symrep.decompose_class_function.self_s": "s",
    "symrep.character_table.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def percentile(values, p):
    """The p-th percentile, interpolating linearly between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def command_key(argv):
    return " ".join(argv)


def report_summary(stdout):
    """The summary of a verify report, or None if stdout is not a report."""
    try:
        summary = json.loads(stdout)["summary"]
    except (ValueError, KeyError, TypeError):
        return None
    return summary if isinstance(summary, dict) else None


def compare_output(expected, stdout, returncode, summary=None):
    """Why an invocation failed, as a list of reasons (empty if it passed).

    `expected` is one entry of expected.json.  A "report" is a `verify`
    report, pinned by its SHA-256 digest and pass count, with no failed or
    skipped check; `summary` is its parsed summary, if the caller has it.
    A "count" is compared on every field except `elapsed`, which is a
    timing.  Anything else is compared byte for byte.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    kind = expected["kind"]
    if kind == "report":
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != expected["sha256"]:
            problems.append(f"report digest {digest[:12]} != {expected['sha256'][:12]}")
        summary = summary or report_summary(stdout)
        if summary is None:
            problems.append("report is not a JSON report")
        else:
            if summary.get("pass") != expected["pass"]:
                problems.append(f"pass count {summary.get('pass')} != {expected['pass']}")
            if summary.get("fail") or summary.get("skipped"):
                problems.append(f"fail {summary.get('fail')} skipped {summary.get('skipped')}")
    elif kind == "count":
        try:
            got = json.loads(stdout)
        except ValueError:
            got = None
        if not isinstance(got, dict):
            problems.append("count output is not a JSON object")
        else:
            got = {k: v for k, v in got.items() if k != "elapsed"}
            if got != expected["fields"]:
                problems.append(f"count fields {got} != {expected['fields']}")
    elif stdout != expected["stdout"]:
        problems.append("stdout differs from the pinned output")
    return problems


def probe_work(rounds=PROBE_ROUNDS):
    """Seconds taken by a fixed pure-Python loop of integer arithmetic, tuple
    keys and dict updates, the kind of work the vinbun layers do."""
    start = time.perf_counter()
    table = {}
    x = 0
    for i in range(rounds):
        x = (x * 31 + i) % 1000003
        key = (x % 4099, i & 7)
        table[key] = table.get(key, 0) + 1
    sorted(table.items())
    return time.perf_counter() - start


def probe_scale(samples):
    """The factor that turns seconds measured while the probe took `samples`
    into seconds on a CPU where it takes PROBE_NOMINAL_S.  The mean, not the
    median, so that time the host takes the CPU away counts."""
    return PROBE_NOMINAL_S * len(samples) / sum(samples)


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to one CPU, so that
    the probe runs on the CPU the child runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def lowest_priority():
    """Run in the child before it starts: at the lowest priority it cannot
    take the CPU back while a probe runs."""
    os.nice(19)


def child_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("PYTHON", "VINBUN_"))}


def invoke(mode, argv):
    """Run child.py once at the lowest priority, probing the CPU until it
    exits; returns its outputs, latency, CPU time and probe samples."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(SRC), *argv]
    samples = []
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    # Text mode reads with universal newlines, as subprocess's text=True does.
    with tempfile.TemporaryFile("w+", dir=HERE) as out, \
            tempfile.TemporaryFile("w+", dir=HERE) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                preexec_fn=lowest_priority)
        pidfd = os.pidfd_open(proc.pid)
        timed_out = False
        try:
            while True:
                samples.append(probe_work())
                if select.select([pidfd], [], [], PROBE_PERIOD_S)[0]:
                    break
                if time.perf_counter() - start > TIMEOUT_S:
                    timed_out = True
                    break
            latency = time.perf_counter() - start
        finally:
            os.close(pidfd)
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        out.seek(0)
        err.seek(0)
        stdout = out.read()
        stderr = err.read()
    payload = {}
    for line in stderr.splitlines():
        if line.startswith(child.MARKER):
            payload = json.loads(line[len(child.MARKER):])
    return {
        "argv": argv,
        "returncode": "timeout" if timed_out else proc.returncode,
        "stdout": "" if timed_out else stdout,
        "latency": latency,
        "cpu": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "probe": samples,
        "payload": payload,
    }


def run_pass(commands, mode, expected, rng):
    """Every command once, in a seeded order; each invocation is checked and
    gets probe-scaled timings (`scaled_latency`, `scaled_cpu`,
    `scaled_import`)."""
    invocations = []
    for argv in rng.sample(commands, len(commands)):
        inv = invoke(mode, list(argv))
        scale = probe_scale(inv["probe"])
        inv["scaled_latency"] = inv["latency"] * scale
        inv["scaled_cpu"] = inv["cpu"] * scale
        if "import_s" in inv["payload"]:
            inv["scaled_import"] = inv["payload"]["import_s"] * scale
        pinned = expected[command_key(argv)]
        summary = report_summary(inv["stdout"]) if pinned["kind"] == "report" else None
        inv["problems"] = compare_output(pinned, inv["stdout"], inv["returncode"], summary)
        summary = summary or {}
        inv["checks"] = summary.get("pass", 0)
        inv["report_size"] = sum(summary.get(k, 0) for k in ("pass", "fail", "skipped"))
        inv["stdout"] = None
        invocations.append(inv)
    return invocations


def repeat(deadline, one_round):
    """Call one_round() at least once, and again while another round is
    expected to end by the deadline."""
    rounds = []
    while True:
        start = time.perf_counter()
        rounds.append(one_round())
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return rounds


def checks_rate(invocations):
    """Passing checks per scaled second over the verify invocations of a
    pass.  A pass with no verify invocation counts each matched output as
    one check."""
    verify = [inv for inv in invocations if inv["argv"][0] == "verify"]
    if verify:
        return (sum(inv["checks"] for inv in verify)
                / sum(inv["scaled_latency"] for inv in verify))
    matched = sum(1 for inv in invocations if not inv["problems"])
    return matched / sum(inv["scaled_latency"] for inv in invocations)


def command_latency(invocations, p):
    """The p-th percentile of each command's scaled invocation latency, averaged
    over the workload's commands.  Pooling the invocations of different
    commands would put the percentile on whichever command sits at that
    rank, which depends on the number of passes."""
    by_command = {}
    for inv in invocations:
        by_command.setdefault(command_key(inv["argv"]), []).append(inv["scaled_latency"])
    return sum(percentile(v, p) for v in by_command.values()) / len(by_command)


def end_to_end(passes):
    """End-to-end metrics from the probe-scaled timings."""
    invocations = [inv for p in passes for inv in p]
    imports = [inv["scaled_import"] for inv in invocations if "scaled_import" in inv]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": median([sum(inv["scaled_latency"] for inv in p) for p in passes]),
        "cpu_s": median([sum(inv["scaled_cpu"] for inv in p) for p in passes]),
        "setup_s": median(imports) if imports else 0.0,
        "peak_rss_mb": peak_kb / 1024,
        "latency_p50_s": command_latency(invocations, 50),
        "latency_p90_s": command_latency(invocations, 90),
        "checks_per_s": median([checks_rate(p) for p in passes]),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(invocations):
    """Per-layer metrics of one traced pass."""
    spans, counts, caches = {}, {}, {}
    cli_self = startup = 0.0
    for inv in invocations:
        payload = inv["payload"]
        cli_self += inv["latency"] - payload.get("top_s", 0.0)
        startup += payload.get("startup_s", 0.0)
        for name, (calls, total, self_s) in payload.get("spans", {}).items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, value in payload.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
        for name, (hits, misses) in payload.get("caches", {}).items():
            rec = caches.setdefault(name, [0, 0])
            rec[0] += hits
            rec[1] += misses

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def hit_ratio(name):
        hits, misses = caches.get(name, [0, 0])
        return _ratio(hits, hits + misses)

    out = {f"{m}.self_s": sum(rec[2] for name, rec in spans.items()
                              if name.split(".")[0] == m) for m in LAYERS}
    out.update({
        "cli.self_s": cli_self,
        "cli.startup_s": startup,
        "cli.render_report.self_s": self_s("cli.render_report"),
        "cli.checks": sum(inv["report_size"] for inv in invocations),
        "arith.splittings": counts.get("arith.splittings", 0),
        "arith.splitting_yield": _ratio(counts.get("arith.splittings", 0),
                                        counts.get("arith.splitting_candidates", 0)),
        "arith.laurent_mul": counts.get("arith.laurent_mul", 0),
        "arith.divisors": counts.get("arith.divisors", 0),
        "arith.enumerate_divisors.hit_ratio": hit_ratio("arith.enumerate_divisors"),
        "localmodel.factor_d_table.hit_ratio": hit_ratio("localmodel.factor_d_table"),
        "localmodel.points": counts.get("localmodel.points", 0),
        "localmodel.points_per_s": _ratio(counts.get("localmodel.points", 0),
                                          self_s("localmodel.factor_d_table")),
        "localmodel.strata_points": counts.get("localmodel.strata_points", 0),
        "drinfeld.hom_matrices": counts.get("drinfeld.hom_matrices", 0),
        "trace.wall_s": sum(inv["latency"] for inv in invocations),
    })
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_s") and name not in out:
            out[name] = self_s(name[: -len(".self_s")])
        elif name.endswith(".calls"):
            out[name] = calls(name[: -len(".calls")])
    return out


def per_layer(import_samples, pairs):
    """Import medians, and the layer metrics of the traced pass with the
    median wall time (the lower one of two middle passes), so that its
    self times add up to its `trace.wall_s`."""
    plain = [p for p, _ in pairs]
    traced = sorted((layer_metrics(t) for _, t in pairs), key=lambda m: m["trace.wall_s"])
    out = {f"{m}.import_s": median([s[m] for s in import_samples])
           for m in child.IMPORT_ORDER}
    out.update(traced[(len(traced) - 1) // 2])
    out["trace.overhead_s"] = out["trace.wall_s"] - median(
        [sum(inv["latency"] for inv in p) for p in plain])
    return out


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "sympy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "cpu": cpu,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vinbun" / "cli.py").is_file():
        print(f"perfbench: no vinbun package under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    pin_to_one_cpu()
    # Warm-up: compiles bytecode and fails early if the package cannot load.
    warm = invoke("imports", [])
    if warm["returncode"] != 0 or "imports" not in warm["payload"]:
        print("perfbench: importing vinbun failed", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    commands = WORKLOADS[args.workload]
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        import_samples = [invoke("imports", [])["payload"]["imports"] for _ in range(3)]
        pairs = repeat(deadline, lambda: (run_pass(commands, "run", expected, rng),
                                          run_pass(commands, "trace", expected, rng)))
        passes = [p for pair in pairs for p in pair]
        metrics = per_layer(import_samples, pairs)
        units = PER_LAYER_UNITS
    else:
        passes = repeat(deadline, lambda: run_pass(commands, "run", expected, rng))
        metrics = end_to_end(passes)
        units = END_TO_END_UNITS

    invocations = [inv for p in passes for inv in p]
    failures = [{"argv": " ".join(inv["argv"]), "problems": inv["problems"]}
                for inv in invocations if inv["problems"]]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [sum(inv["latency"] for inv in p) for p in passes],
        "probe_s": {"nominal": PROBE_NOMINAL_S,
                    "mean": [sum(inv["probe"]) / len(inv["probe"]) for inv in invocations],
                    "samples": sum(len(inv["probe"]) for inv in invocations)},
        "invocations": len(invocations),
        "error_ratio": len(failures) / len(invocations),
        "mismatches": failures,
        "environment": environment(),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(invocations),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
