"""End-to-end CLI smoke tests: ``python -m repro`` as a real subprocess.

The in-process CLI tests (``test_cli.py``) cover argument handling; these
runs prove the installed entry point works from a cold interpreter —
imports, argparse wiring, output encoding and exit codes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

SOURCE = """
int f(int a, int b) {
    int i;
    int s;
    s = 0;
    for (i = 0; i < a; i = i + 1) {
        s = s + b * i;
    }
    return s;
}
"""


@pytest.fixture(scope="module")
def c_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "prog.c"
    path.write_text(SOURCE)
    return str(path)


def repro_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        timeout=120,
    )


def test_compile_smoke(c_file):
    proc = repro_cli("compile", c_file, "--target", "r2000", "--strategy", "ips")
    assert proc.returncode == 0, proc.stderr
    assert "f:" in proc.stdout


def test_compile_explain_schedule(c_file):
    proc = repro_cli("compile", c_file, "--explain-schedule")
    assert proc.returncode == 0, proc.stderr
    assert "; @" in proc.stdout  # issue-cycle annotations
    assert "nop slots" in proc.stdout


def test_run_smoke(c_file):
    proc = repro_cli("run", c_file, "--entry", "f", "--args", "5", "3")
    assert proc.returncode == 0, proc.stderr
    assert "'int': 30" in proc.stdout
    assert "cycles:" in proc.stdout


def test_run_trace_json(c_file, tmp_path):
    out = tmp_path / "trace.json"
    proc = repro_cli(
        "run", c_file, "--entry", "f", "--args", "5", "3",
        "--trace", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "stalls:" in proc.stdout
    doc = json.loads(out.read_text())
    assert "spans" in doc
    stall_counters = {
        k: v for k, v in doc["counters"].items() if k.startswith("sim.stall.")
    }
    assert stall_counters
    phases = doc["phases"]
    assert "compile_c" in phases
    assert "simulate" in phases
    assert {"function": "f", "target": "r2000"}.items() <= _span_attrs(
        doc["spans"], "simulate"
    ).items()


def _span_attrs(span, name):
    """The attributes of the first span called ``name`` in a JSON span
    tree, depth-first."""
    if span["name"] == name:
        return span.get("attrs", {})
    for child in span.get("children", ()):
        found = _span_attrs(child, name)
        if found is not None:
            return found
    return None


def test_run_trace_chrome(c_file, tmp_path):
    out = tmp_path / "trace.chrome.json"
    proc = repro_cli(
        "run", c_file, "--entry", "f", "--args", "2", "2",
        "--trace", str(out), "--trace-format", "chrome",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    assert "counters" in events[0]["args"]


def test_targets_json():
    proc = repro_cli("targets", "--json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    names = {entry["name"] for entry in payload}
    assert {"toyp", "r2000", "m88000", "i860"} <= names
    for entry in payload:
        assert entry["instructions"] > 0
        assert entry["register_classes"]
        assert set(entry["description"]) == {
            "instructions",
            "clocks",
            "class_elements",
            "glue_transformations",
            "funcs",
        }


def test_targets_text():
    proc = repro_cli("targets")
    assert proc.returncode == 0, proc.stderr
    assert "r2000" in proc.stdout
