"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):
``compile-grid``, ``sim-steady``, ``run-cold`` and ``run-warm``.  Every
workload is a closed loop with one caller in one thread.  The timed
phase runs whole passes over the workload's op list, each in a fresh
seeded order, until ``--seconds`` have elapsed at the reference host
speed (``hostspeed.py``) and at least ``MIN_OPS`` ops completed.

``--trace 0`` prints the end-to-end metrics, with host times scaled to
a reference host speed (``hostspeed.py``); ``--trace 1`` runs one
discarded warm-up pass, then the same ops untraced and once more with
every layer entry point wrapped (``layers.py``), prints the per-layer
metrics and the tracing overhead, and checks that the last two passes
produced identical deterministic outputs.  Every metric's unit comes
from ``BENCHMARK.json``.  The last line of standard output is the result object; the
line before it holds the details (provenance, sample counts, failures).
``--quick`` runs a small slice (used by ``selftest.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import REF_PROBE_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
#: how many times setup rebuilds the four targets (setup_s takes the
#: median of those builds)
TARGET_BUILDS = 5


def _isolate_environment() -> None:
    """Run the program at its defaults: drop every ``REPRO_*`` switch
    (JIT, superblock, timing-chain, fast-timing, cache location...)
    before ``repro`` reads them at import."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def _provenance(args, passes: int, ops: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "passes": passes,
        "ops": ops,
    }


def _geomean(values) -> float:
    values = [v for v in values if v]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _declared_units() -> dict:
    """``metric name -> unit`` as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for kind in ("end_to_end", "per_layer")
        for metric in spec[kind]
    }


def _one_pass(workload, ops, speed, recorder=None):
    """Run ``ops`` once, in order, with a host-speed probe after every
    op, each op under a root span of ``recorder`` when one is given.
    Returns ``(results, wall_seconds)``; the wall time leaves out the
    probes and the workload's own checks."""
    workload.before_pass()
    results = []
    spent = speed.spent + workload.untimed_s
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if recorder is None:
            result = workload.run_op(op)
        else:
            result = recorder.op_span(f"t:{i}", workload.run_op, op)
        results.append(result)
        speed.probe(weight=result.seconds)
    untimed = speed.spent + workload.untimed_s - spent
    return results, time.perf_counter() - start - untimed


def _run_passes(workload, rng, seconds, min_ops, speed):
    """The timed phase: whole passes, each in a fresh seeded order,
    until ``seconds`` have passed at the reference host speed and
    ``min_ops`` ops ran.  Counting scaled seconds keeps the number of
    passes, and with it the share of first-pass work, the same on a slow
    host.  Returns ``(results, wall_seconds, passes)``."""
    results = []
    passes = 0
    wall = 0.0
    start = time.perf_counter()
    while True:
        ops = workload.ops(rng)
        rng.shuffle(ops)
        pass_results, pass_wall = _one_pass(workload, ops, speed)
        results += pass_results
        wall += pass_wall
        passes += 1
        # the cap on elapsed time bounds a run on a host far slower than
        # the reference, or one whose ops all fail at once
        scaled = wall * speed.factor()
        elapsed = time.perf_counter() - start
        if (scaled >= seconds or elapsed >= 4 * seconds) and (
            len(results) >= min_ops
        ):
            return results, wall, passes


def _end_to_end(workload, results, wall) -> dict:
    """``name -> (value, kind)``; ``kind`` says how host speed scales
    the value: ``"time"``, ``"rate"`` or ``None`` (a count)."""
    done = [r for r in results if r.error is None]
    latencies = [r.seconds * 1e3 for r in done]
    sims = cycle_runs = [r for r in done if r.cycles is not None]
    if not sims:
        # compile-grid simulates only in its functional check, at small
        # loop sizes outside the timed phase; the cycle geomean takes one
        # executable per cell, so a cell that compiled to several
        # variants across passes is not weighted up
        sims = [c for c in workload.checks if c.error is None]
        cycle_runs = list({c.op.cell: c for c in reversed(sims)}.values())
    sim_seconds = sum(r.sim_seconds for r in sims)
    return {
        "ops_per_s": (len(done) / wall, "rate"),
        "op_ms.p50": (_percentile(latencies, 50), "time"),
        "op_ms.p90": (_percentile(latencies, 90), "time"),
        "ok_frac": (len(done) / len(results), None),
        "sim_minstr_per_s": (
            sum(r.instructions for r in sims) / 1e6 / sim_seconds
            if sim_seconds else 0.0,
            "rate",
        ),
        "gen_cycles.geomean": (_geomean(r.cycles for r in cycle_runs), None),
        "gen_size.geomean": (_geomean(r.size for r in done), None),
    }


def _scaled(values: dict, factor: float) -> dict:
    """Host-time values at the reference host speed (``hostspeed``)."""
    scale = {"time": factor, "rate": 1 / factor, None: 1.0}
    return {
        name: value * scale[kind] for name, (value, kind) in values.items()
    }


def _failures(workload, results) -> list[dict]:
    """Every failed op and setup/check failure, grouped by cell."""
    grouped: dict[tuple, dict] = {}
    rows = [("op", r.op.cell, r.error) for r in results if r.error]
    rows += workload.failures
    for phase, cell, error in rows:
        key = (phase, cell.label, error)
        entry = grouped.setdefault(key, {
            "phase": phase, "cell": cell.label,
            "type": error.split(":", 1)[0], "message": error, "count": 0,
        })
        entry["count"] += 1
    return list(grouped.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    _isolate_environment()
    sys.path.insert(0, str(ROOT / "src"))

    setup_speed = HostSpeed()
    setup_speed.probe()
    setup_start = time.perf_counter()
    from repro import api
    import workloads
    import_s = time.perf_counter() - setup_start
    setup_speed.probe()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        return _bench(args, api, workloads, rng, workdir, import_s,
                      setup_speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _target_builds(api, workloads, speed=None) -> float:
    """Median seconds to CGG-build all four targets, uncached."""
    api.configure_cache(enabled=False)
    times = []
    for _ in range(TARGET_BUILDS):
        start = time.perf_counter()
        for name in workloads.TARGETS:
            api.load_target(name, fresh=True)
        times.append(time.perf_counter() - start)
        if speed is not None:
            speed.probe()
    return statistics.median(times)


def _bench(args, api, workloads, rng, workdir, import_s, setup_speed) -> int:
    workload = workloads.make(args.workload, workdir, quick=args.quick)
    min_ops = 1 if args.quick else workloads.MIN_OPS
    seconds = 0.0 if args.quick else args.seconds

    build_s = _target_builds(api, workloads, setup_speed)
    workload.step = setup_speed.probe
    spent = setup_speed.spent
    prep_start = time.perf_counter()
    workload.setup(rng)
    prep_s = time.perf_counter() - prep_start - (setup_speed.spent - spent)
    setup_speed.probe()
    workload.step = None
    setup_s = import_s + build_s + prep_s

    details: dict = {
        "setup": {"import_s": import_s, "target_builds_s": build_s,
                  "target_build_repeats": TARGET_BUILDS, "prep_s": prep_s},
    }
    problems: list[str] = []
    speed = HostSpeed()
    if args.trace:
        ops = workload.ops(rng)
        rng.shuffle(ops)
        # the warm-up pass takes the one-time costs; the untraced and the
        # traced pass then run the same ops back to back, and each wall
        # time is scaled by the host speed probed beside it
        _one_pass(workload, ops, HostSpeed())
        untraced_speed = HostSpeed()
        baseline, wall = _one_pass(workload, ops, untraced_speed)
        from layers import install, layer_metrics

        recorder = install()
        try:
            _target_builds(api, workloads)
            workload.caches.clear()
            traced, traced_wall = _one_pass(workload, ops, speed, recorder)
        finally:
            recorder.remove()
        passes = 3
        if [r.answer() for r in traced] != [r.answer() for r in baseline]:
            problems.append("traced results differ from the untraced pass")
        diffs = [
            {"cell": a.op.cell.label, "untraced": a.code(), "traced": b.code()}
            for a, b in zip(baseline, traced) if a.code() != b.code()
        ]
        details["output_diffs"] = diffs
        metrics = layer_metrics(recorder.spans)
        untraced_s = wall * untraced_speed.factor()
        overhead_s = traced_wall * speed.factor() - untraced_s
        metrics["trace.output_diffs"] = len(diffs)
        metrics["trace.overhead_s"] = overhead_s
        metrics["trace.overhead_frac"] = overhead_s / untraced_s
        values = metrics
        details["spans"] = len(recorder.spans)
        details["pass_wall_s"] = {"untraced": wall, "traced": traced_wall}
        details["host_speed"] = {
            "reference_probe_s": REF_PROBE_S,
            "untraced": untraced_speed.summary(),
            "traced": speed.summary(),
        }
        results = traced
    else:
        results, wall, passes = _run_passes(
            workload, rng, seconds, min_ops, speed
        )
        raw = _end_to_end(workload, results, wall)
        raw["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, None,
        )
        values = _scaled(raw, speed.factor())
        values["setup_s"] = setup_s * setup_speed.factor()
        raw["setup_s"] = (setup_s, "time")
        details["unscaled"] = {k: v[0] for k, v in raw.items()}
        details["host_speed"] = {
            "reference_probe_s": REF_PROBE_S,
            "setup": setup_speed.summary(),
            "timed": speed.summary(),
        }
        details["samples"] = {
            "op_ms": sum(1 for r in results if r.error is None),
            "sims": sum(1 for r in results if r.cycles is not None)
            or len(workload.checks),
        }

    intent = workload.cache_intent(results)
    if intent:
        problems.append(intent)
    errors = [r.error for r in results + workload.checks if r.error]
    errors += [error for _, _, error in workload.failures]
    mismatches = [e for e in errors if e.startswith("Mismatch")]
    if mismatches:
        problems.append(f"{len(mismatches)} result(s) differ from reference")
    failed = sum(1 for r in results if r.error is not None)
    details.update(
        provenance=_provenance(args, passes, len(results)),
        failures=_failures(workload, results),
        problems=problems,
        timed_wall_s=wall,
    )
    units = _declared_units()
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
