"""Tests of the benchmark's own helpers.  Run with
`python3 -m pytest perfbench/tests` from the repository root."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# --- percentile -------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)
    assert run.percentile([1, 2, 3, 4], 0) == 1
    assert run.percentile([1, 2, 3, 4], 100) == 4


def test_percentile_of_one_value_and_of_none():
    assert run.percentile([7.5], 90) == 7.5
    assert run.median([3, 1, 2]) == 2
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_latency_percentiles_are_taken_per_command_then_averaged():
    def inv(argv, latency):
        return {"argv": argv, "scaled_latency": latency}

    invocations = [inv(["count"], t) for t in (2.0, 2.2, 2.4)] + [
        inv(["verify"], t) for t in (6.0, 7.0, 8.0)]
    assert run.command_latency(invocations, 50) == (2.2 + 7.0) / 2
    assert run.command_latency(invocations[:3], 100) == 2.4


# --- probe scaling ----------------------------------------------------------


def test_probe_scale_uses_the_mean_probe_time():
    nominal = run.PROBE_NOMINAL_S
    assert run.probe_scale([nominal] * 3) == pytest.approx(1.0)
    # a probe twice as slow halves the scaled time, and one long sample (the
    # host took the CPU away) counts in full
    assert run.probe_scale([2 * nominal]) == pytest.approx(0.5)
    assert run.probe_scale([nominal, nominal, 4 * nominal]) == pytest.approx(0.5)


def test_probe_work_takes_time():
    assert run.probe_work(100) > 0


def test_invoke_reads_output_as_text_mode_would():
    # `character-table` writes CSV with \r\n line ends; the pin holds \n.
    expected = json.loads((HERE / "expected.json").read_text())
    argv = ["character-table", "--k", "4"]
    inv = run.invoke("run", argv)
    assert inv["returncode"] == 0
    assert inv["stdout"] == expected[run.command_key(argv)]["stdout"]
    assert inv["probe"] and inv["latency"] > 0
    assert inv["payload"]["import_s"] > 0


# --- spans and self time ----------------------------------------------------


def test_self_time_subtracts_nested_spans():
    # outer runs 0..10 and calls inner twice: 2..5 and 6..7; inner at 3..4
    # calls leaf.
    tracer = child.Tracer(clock=FakeClock(0, 2, 3, 4, 5, 6, 7, 10))
    outer = tracer.enter()
    first = tracer.enter()
    leaf = tracer.enter()
    tracer.exit("leaf", leaf)
    tracer.exit("inner", first)
    second = tracer.enter()
    tracer.exit("inner", second)
    tracer.exit("outer", outer)
    assert tracer.spans["leaf"] == [1, 1, 1]
    assert tracer.spans["inner"] == [2, 4, 3]
    assert tracer.spans["outer"] == [1, 10, 6]
    assert tracer.top_s == 10
    assert sum(rec[2] for rec in tracer.spans.values()) == tracer.top_s


def test_sibling_top_level_spans_add_up():
    tracer = child.Tracer(clock=FakeClock(0, 1, 5, 8))
    start = tracer.enter()
    tracer.exit("a", start)
    start = tracer.enter()
    tracer.exit("a", start)
    assert tracer.spans["a"] == [2, 4, 4]
    assert tracer.top_s == 4


def test_wrapped_generator_is_one_span_and_yields_everything():
    tracer = child.Tracer()
    seen = []

    def gen(n):
        yield from range(n)

    wrapped = tracer.wrap("g", gen, "gen", after=lambda items, args: seen.append(len(items)))
    assert list(wrapped(4)) == [0, 1, 2, 3]
    assert tracer.spans["g"][0] == 1
    assert seen == [4]


def test_span_closes_when_the_call_raises():
    tracer = child.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans["boom"][0] == 1
    assert tracer._child_s == []


def test_replace_everywhere_rebinds_names_imported_elsewhere():
    class Defining:
        pass

    class Importing:
        pass

    def f():
        return 1

    def g():
        return 2

    Defining.f = f
    Importing.alias = f
    Importing.other = g
    child.replace_everywhere(f, g, [Defining, Importing])
    assert Defining.f is g and Importing.alias is g and Importing.other is g


def test_layer_self_times_and_cli_self_account_for_the_traced_wall():
    def inv(latency, top_s, spans, counts=None):
        return {"latency": latency, "report_size": 0, "payload": {
            "top_s": top_s, "startup_s": 0.5, "spans": spans,
            "counts": counts or {}, "caches": {}}}

    invocations = [
        inv(3.0, 2.0, {"kcalc.trace_gr_psi": [1, 2.0, 0.5],
                       "kcalc.trace_plo": [4, 1.0, 1.0],
                       "arith.iter_decompositions": [1, 0.5, 0.5]}),
        inv(1.5, 0.25, {"cli.render_report": [1, 0.25, 0.25]}),
    ]
    m = run.layer_metrics(invocations)
    assert m["kcalc.self_s"] == 1.5
    assert m["arith.self_s"] == 0.5
    assert m["cli.self_s"] == (3.0 - 2.0) + (1.5 - 0.25)
    assert m["kcalc.trace_plo.calls"] == 4
    layers = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layers + m["cli.render_report.self_s"] + m["cli.self_s"] == m["trace.wall_s"]


def test_per_layer_reports_the_median_traced_pass_and_its_overhead():
    def one(latency):
        return [{"latency": latency, "report_size": 0, "payload": {}}]

    imports = [dict.fromkeys(child.IMPORT_ORDER, t) for t in (0.1, 0.3, 0.2)]
    pairs = [(one(1.0), one(4.0)), (one(2.0), one(3.0)), (one(1.5), one(5.0))]
    m = run.per_layer(imports, pairs)
    assert m["trace.wall_s"] == 4.0
    assert m["cli.self_s"] == 4.0
    assert m["trace.overhead_s"] == 4.0 - 1.5
    assert m["lefschetz.import_s"] == 0.2
    assert set(m) == set(run.PER_LAYER_UNITS)


# --- pinned outputs ---------------------------------------------------------


def _report(passed, failed=0, skipped=0):
    return json.dumps({"summary": {"pass": passed, "fail": failed, "skipped": skipped}})


def _pin_report(text, passed):
    return {"kind": "report", "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "pass": passed}


def test_report_passes_only_with_the_pinned_digest_and_counts():
    text = _report(5)
    assert run.compare_output(_pin_report(text, 5), text, 0) == []
    assert run.compare_output(_pin_report(text, 5), _report(5) + " ", 0)
    assert run.compare_output(_pin_report(text, 6), text, 0)
    assert run.compare_output(_pin_report(text, 5), text, 1) == ["exit code 1"]


def test_report_with_failed_or_skipped_checks_fails_even_if_pinned():
    for text in (_report(5, failed=1), _report(5, skipped=1)):
        assert run.compare_output(_pin_report(text, 5), text, 0)


def test_count_ignores_elapsed_only():
    pinned = {"kind": "count", "fields": {"count": 388}}
    assert run.compare_output(pinned, '{"count": 388, "elapsed": 0.0004}\n', 0) == []
    assert run.compare_output(pinned, '{"count": 388, "elapsed": 9.5}\n', 0) == []
    assert run.compare_output(pinned, '{"count": 389, "elapsed": 0.0004}\n', 0)
    assert run.compare_output(pinned, '{"count": 388, "extra": 1}\n', 0)
    assert run.compare_output(pinned, "not json", 0)
    assert run.compare_output(pinned, '{"count": 388, "elapsed": 0.1}\n', "timeout")


def test_text_output_compares_byte_for_byte():
    pinned = {"kind": "text", "stdout": "verdict : MATCH\n"}
    assert run.compare_output(pinned, "verdict : MATCH\n", 0) == []
    assert run.compare_output(pinned, "verdict : MATCH", 0)


# --- the benchmark's own definition -----------------------------------------


def test_every_command_has_a_pinned_output():
    expected = json.loads((HERE / "expected.json").read_text())
    keys = {run.command_key(argv) for cmds in run.WORKLOADS.values() for argv in cmds}
    assert keys == set(expected)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS

