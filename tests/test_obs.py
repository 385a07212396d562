"""The observability layer: Trace spans, counters, export, ambience."""

import json

import pytest

import repro
from repro import obs
from repro.obs import Trace, count, current_trace, span, tracing
from repro.workloads import kernel_by_id


def test_span_tree_nesting():
    trace = Trace("t")
    with trace.span("outer", color="red") as outer:
        with trace.span("inner") as inner:
            pass
    assert trace.root.children[0] is outer
    assert outer.children[0] is inner
    assert outer.attrs == {"color": "red"}
    assert outer.seconds >= inner.seconds >= 0.0


def test_counters_and_phase_seconds():
    trace = Trace("t")
    trace.count("hits")
    trace.count("hits", 2)
    trace.add_seconds("phase.a", 0.5)
    trace.add_seconds("phase.a", 0.25)
    summary = trace.summary()
    assert summary["counters"]["hits"] == 3
    assert summary["phases"]["phase.a"]["seconds"] == pytest.approx(0.75)
    assert summary["phases"]["phase.a"]["calls"] == 2


def test_merge_summary_accumulates():
    a = Trace("a")
    a.count("n", 1)
    a.add_seconds("p", 1.0)
    b = Trace("b")
    b.count("n", 2)
    b.add_seconds("p", 0.5)
    a.merge_summary(b.summary())
    merged = a.summary()
    assert merged["counters"]["n"] == 3
    assert merged["phases"]["p"]["seconds"] == pytest.approx(1.5)
    assert merged["phases"]["p"]["calls"] == 2


def test_ambient_tracing_contextvar():
    assert current_trace() is None
    trace = Trace("ambient")
    with tracing(trace):
        assert current_trace() is trace
        with span("step", k=1) as node:
            count("things", 4)
        assert node.attrs == {"k": 1}
    assert current_trace() is None
    assert trace.counters["things"] == 4
    assert [s.name for s in trace.root.children] == ["step"]


def test_span_is_noop_without_active_trace():
    # must not raise, must yield None
    with span("nothing") as node:
        assert node is None
    count("nothing", 5)  # no-op


def test_to_json_and_chrome_roundtrip(tmp_path):
    trace = Trace("export")
    with trace.span("a"):
        with trace.span("b"):
            pass
    trace.count("c", 7)

    plain = tmp_path / "t.json"
    chrome = tmp_path / "t.chrome.json"
    trace.write(str(plain), format="json")
    trace.write(str(chrome), format="chrome")

    doc = json.loads(plain.read_text())
    assert doc["counters"]["c"] == 7

    chrome_doc = json.loads(chrome.read_text())
    events = chrome_doc["traceEvents"]
    assert all(e["ph"] == "X" for e in events)
    names = {e["name"] for e in events}
    assert {"a", "b"} <= names
    assert chrome_doc["displayTimeUnit"] == "ms"
    # counters ride on the root event
    assert events[0]["args"]["counters"]["c"] == 7

    with pytest.raises(ValueError):
        trace.write(str(plain), format="xml")


PER_PASS_PHASES = (
    "compile_c",
    "frontend",
    "codegen",
    "codegen_function",
    "lower",
    "select",
    "strategy:ips",
    "allocate",
    "schedule[final]",
    "link",
)


def test_compile_records_spans_per_phase(process_recorder):
    trace = Trace("compile")
    with tracing(trace):
        repro.compile_c(
            "int f(int a) { return a * 2; }",
            "toyp",
            repro.CompileOptions(strategy="ips"),
        )
    phases = trace.summary()["phases"]
    for expected in PER_PASS_PHASES:
        assert expected in phases, expected
    # the function name rides on the span, not in the phase key
    (function_span,) = [
        s for s in trace.root.walk() if s.name == "codegen_function"
    ]
    assert function_span.attrs["function"] == "f"
    # the process recorder saw the same spans, as aggregates only
    recorded = process_recorder.summary()["phases"]
    for expected in PER_PASS_PHASES:
        assert recorded[expected]["calls"] == phases[expected]["calls"]
    assert process_recorder.root.children == []
    assert process_recorder.counters["scheduler.blocks"] > 0


def test_phase_keys_do_not_grow_with_function_names(process_recorder):
    """Per-function spans key their aggregate by pass, not by function
    name, so a long-running recorder stays bounded."""

    def compile_named(name):
        repro.compile_c(f"int {name}(int a) {{ return a + 1; }}", "toyp")

    compile_named("f0")
    one = set(process_recorder.summary()["phases"])
    for i in range(1, 50):
        compile_named(f"f{i}")
    assert set(process_recorder.summary()["phases"]) == one
    assert process_recorder.phase_calls["codegen_function"] == 50


def test_code_dag_counters_show_protection_edges(process_recorder):
    """The i860's temporal sequences cost protection edges; a machine
    without explicitly advanced pipelines records none."""
    source = kernel_by_id(8).source
    repro.compile_c(source, "toyp")
    toyp = dict(process_recorder.counters)
    assert toyp["codedag.edges"] > 0
    assert toyp.get("codedag.protection_edges", 0) == 0
    repro.compile_c(source, "i860")
    i860 = process_recorder.counters
    assert i860["codedag.protection_edges"] > 0
    assert i860["codedag.edges"] > toyp["codedag.edges"]


def test_simulate_records_span_and_stall_counters():
    exe = repro.compile_c(
        "int f(int a) { return a * a * a; }", "toyp", repro.CompileOptions()
    )
    trace = Trace("sim")
    with tracing(trace):
        result = repro.simulate(
            exe, "f", (3,), options=repro.SimOptions(trace=True)
        )
    assert result.return_value["int"] == 27
    phases = trace.summary()["phases"]
    assert phases["simulate"]["calls"] == 1
    (sim_span,) = [s for s in trace.root.walk() if s.name == "simulate"]
    assert sim_span.attrs["function"] == "f"
    counted = sum(
        amount
        for name, amount in trace.counters.items()
        if name.startswith("sim.stall.")
    )
    assert counted == result.stall_cycles


def test_process_recorder_aggregates_spans_counters_and_merges(
    process_recorder,
):
    assert obs.recorder() is process_recorder
    assert obs.enabled() and current_trace() is None
    with span("x", ignored="attr") as node:
        assert node is None  # no span tree without an ambient trace
    with span("x"):
        count("y", 2)
    summary = process_recorder.summary()
    assert summary["phases"]["x"]["calls"] == 2
    assert summary["counters"] == {"y": 2}
    assert process_recorder.root.children == []
    # a worker's per-unit summary folds in once, counters and phases
    worker = Trace("worker")
    worker.count("y", 3)
    worker.add_seconds("x", 0.5)
    process_recorder.merge_summary(worker.summary())
    merged = process_recorder.summary()
    assert merged["counters"]["y"] == 5
    assert merged["phases"]["x"]["calls"] == 3
    assert merged["phases"]["x"]["seconds"] >= 0.5
    # with an ambient trace active, both record the same span
    trace = Trace("both")
    with tracing(trace):
        with span("z") as node:
            count("w")
    assert node is trace.root.children[0]
    assert trace.counters["w"] == process_recorder.counters["w"] == 1
    assert process_recorder.phase_calls["z"] == trace.phase_calls["z"] == 1
    # off: nothing records anywhere
    obs.record(False)
    assert obs.recorder() is None and not obs.enabled()
    with span("off") as node:
        count("off")
    assert node is None
