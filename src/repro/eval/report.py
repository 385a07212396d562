"""Run the whole evaluation and render a report.

``python -m repro.eval.report [--scale S] [--jobs N] [--timeout T]
[--resume JOURNAL]`` regenerates every table and figure (the content of
EXPERIMENTS.md) in one run.  Scaled-down problem sizes keep the full
sweep fast; pass ``--scale 1.0`` for the classic Livermore sizes.

The harness is performance-instrumented and fault-tolerant: independent
(kernel × strategy × target) work units fan out across a pluggable
execution backend (``--jobs``/``REPRO_JOBS`` over the local pool by
default; ``--jobs 1`` is the deterministic serial fallback — table
values and checksums are identical at any job count and backend),
each unit runs under an optional wall-clock budget
(``--timeout``/``REPRO_UNIT_TIMEOUT``), crashed workers are retried with
a rebuilt pool, and failed units render as FAILED cells instead of
aborting the run (the process still exits nonzero so CI notices).  With
``--resume JOURNAL`` (or ``REPRO_JOURNAL``) completed units checkpoint
into a JSONL journal and a re-run after an interruption re-executes only
the missing or failed units — the resumed tables are byte-identical to a
single-shot run.  A machine-readable ``BENCH_eval.json`` records wall
time per section, simulator throughput, target-cache hit counts and the
failure/retry/resume tallies so later PRs have a perf trajectory to
regress against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

from repro import obs
from repro.cache import configure as configure_cache, get_cache
from repro.eval.attribution import measure_stalls, render_stalls
from repro.eval.ablation import (
    ablation_delay_fill,
    ablation_heuristic,
    ablation_temporal,
    ablation_temporal_dual,
    render,
)
from repro.eval.claims import (
    claim_compile_time_ordering,
    claim_rase_vs_unscheduled,
    claim_strategy_speedup,
)
from repro.eval.common import shared_executables
from repro.eval.figure7 import figure7
from repro.eval.executors import Executor, LocalPoolExecutor, resolve_executor
from repro.eval.grid import (
    FailureCollector,
    GridFailure,
    GridOptions,
    resolve_jobs,
    resolve_timeout,
)
from repro.eval.journal import Journal
from repro.eval.table1 import table1
from repro.eval.table2 import table2
from repro.eval.table3 import table3
from repro.eval.table4 import measure as table4_measure
from repro.eval.table4 import render as table4_render
from repro.sim.simulator import jit_counters

#: the seed harness (serial, uncached, pre-optimization) measured at
#: scale 0.3 on this repository's reference runner — the denominator for
#: the speedup figure in BENCH_eval.json
SEED_SERIAL_SECONDS = 194.7
SEED_SCALE = 0.3

#: report sections whose body is wall-clock measurement (compile-time
#: tables) — legitimately different between otherwise identical runs,
#: so determinism comparisons (resume smoke, cold/warm cache smoke)
#: exclude them
NONDETERMINISTIC_SECTIONS = ("Table 3", "Claim C2")

_SECTION_SPLIT = re.compile(r"={72}\n(.+)\n={72}\n")


def deterministic_sections(text: str) -> dict[str, str]:
    """``{title: body}`` of a rendered report, with the wall-clock
    content (timing tables, the total-time footer) stripped — two runs
    over the same inputs must agree on exactly these."""
    text = re.sub(r"(?m)^total evaluation time: .*\n", "", text)
    parts = _SECTION_SPLIT.split(text)
    sections = dict(zip(parts[1::2], parts[2::2]))
    return {
        title: body
        for title, body in sections.items()
        if not title.startswith(NONDETERMINISTIC_SECTIONS)
    }


@dataclass
class ReportResult:
    """Everything one report run produced: the rendered text, the grid
    failures that degraded it (empty on a clean run), and the
    machine-readable benchmark payload."""

    text: str
    failures: list[GridFailure] = field(default_factory=list)
    bench: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        return self.text


def generate_report(
    scale: float = 0.3,
    jobs: int | None = None,
    bench_path: str | None = None,
    timeout: float | None = None,
    resume: str | None = None,
    executor: str | Executor | None = None,
    batch: int | None = None,
) -> ReportResult:
    """Run every experiment; never raises for a failed work unit.

    ``resume`` names a journal file: completed units are checkpointed
    there and reused by the next run.  ``timeout`` bounds each unit's
    wall clock.  ``executor`` picks the grid backend (a spec string,
    ``"local"`` or ``"inprocess"``, or a live Executor to reuse) — one
    backend serves every section, so its workers stay warm from table to
    table.  ``batch`` routes up to that many same-(target,
    strategy) units through one worker task (``None``: ``REPRO_BATCH``).
    Inspect ``.failures`` (and exit nonzero) on a degraded run.
    """
    jobs = resolve_jobs(jobs)
    timeout = resolve_timeout(timeout)
    journal = (
        Journal(resume, config={"scale": scale, "kind": "report"})
        if resume
        else None
    )
    owned_executor: Executor | None = None
    backend = executor
    if isinstance(backend, str):
        backend = owned_executor = resolve_executor(backend, jobs)
    elif backend is None and jobs > 1:
        # one pool for the whole report: workers persist across sections
        backend = owned_executor = LocalPoolExecutor(workers=jobs)
    collector = FailureCollector()
    options = GridOptions(
        jobs=jobs,
        timeout=timeout,
        failures="collect",
        journal=journal,
        executor=backend,
        collector=collector,
        batch=batch,
    )
    obs.record()
    # the whole report is one shared-executable scope: every unit — run
    # in-process or in a worker forked after this point — compiles
    # through the batch memo, so sections that revisit the same
    # (kernel, target, strategy) share one warmed executable instead of
    # unpickling and re-warming it per section
    memo_scope = shared_executables()
    memo_scope.__enter__()
    try:
        sections: list[str] = []
        section_seconds: dict[str, float] = {}

        def section(title: str, body_fn) -> None:
            start = time.time()
            body = body_fn()
            section_seconds[title.split(" — ")[0]] = time.time() - start
            sections.append(f"{'=' * 72}\n{title}\n{'=' * 72}\n{body}\n")

        start = time.time()
        section(
            "Table 1 — machine description statistics",
            lambda: table1(options=options),
        )
        section("Table 2 — system source code size", table2)
        section("Table 3 — compile time and dilation", lambda: table3(repeat=2))

        measure_start = time.time()
        table4_data = table4_measure(
            scale=scale, cache=True, options=options
        )
        measure_seconds = time.time() - measure_start
        section(
            f"Table 4 — Livermore Loops (scale={scale})",
            lambda: table4_render(table4_data),
        )
        section_seconds["Table 4"] += measure_seconds
        section("Figure 7 — i860 dual-operation schedule", figure7)

        stall_start = time.time()
        stall_data = measure_stalls(options=options)
        stall_seconds = time.time() - stall_start
        section(
            "Stall attribution — where the cycles go, per target",
            lambda: render_stalls(stall_data),
        )
        section_seconds["Stall attribution"] += stall_seconds

        def c1() -> str:
            claim = claim_strategy_speedup(scale=scale, options=options)
            lines = [
                f"  workload {kid or 'unrolled-hydro'}: postpass/ips={ips:.3f}  "
                f"postpass/rase={rase:.3f}"
                for kid, (ips, rase) in sorted(claim.per_kernel.items())
            ]
            lines += [
                f"  FAILED: {failure.summary()}" for failure in claim.failures
            ]
            return (
                "\n".join(lines)
                + f"\n  geomean: IPS {claim.ips_speedup:.3f}, "
                f"RASE {claim.rase_speedup:.3f}"
            )

        section("Claim C1 — IPS/RASE vs Postpass on computation-intensive code", c1)

        def c3() -> str:
            baseline_claim = claim_rase_vs_unscheduled(scale=scale, options=options)
            lines = [
                f"  K{kid}: {ratio:.3f}"
                for kid, ratio in sorted(baseline_claim.per_kernel.items())
            ]
            lines += [
                f"  FAILED: {failure.summary()}"
                for failure in baseline_claim.failures
            ]
            return (
                "\n".join(lines)
                + f"\n  geomean speedup: {baseline_claim.geomean_speedup:.3f}"
            )

        section("Claim C3 — RASE vs unscheduled (local-only) baseline", c3)

        def c2() -> str:
            compile_claim = claim_compile_time_ordering(repeat=2)
            return (
                f"  postpass {compile_claim.postpass_seconds:.3f}s < "
                f"ips {compile_claim.ips_seconds:.3f}s < "
                f"rase {compile_claim.rase_seconds:.3f}s : "
                f"{'holds' if compile_claim.ordering_holds else 'VIOLATED'}\n"
                f"  i860/r2000 total back-end time: {compile_claim.i860_slowdown:.2f}x"
            )

        section("Claim C2 — compile-time orderings", c2)

        def a1() -> str:
            dual = ablation_temporal_dual()
            rows = ablation_temporal(
                kernel_ids=(1, 3, 7), scale=scale, options=options
            )
            return (
                f"dual-operation-rich fragment: eap={dual.baseline_cycles} "
                f"monolithic={dual.variant_cycles} "
                f"(monolithic/eap={dual.ratio:.3f})\n"
                + render(rows, "per-kernel (kernel-loop cycles)", "monolithic")
            )

        section("Ablation A1 — temporal scheduling of EAP sub-operations", a1)

        section(
            "Ablation A2 — maximum-distance heuristic vs FIFO",
            lambda: render(
                ablation_heuristic(
                    kernel_ids=(1, 6, 7), scale=scale, options=options
                ),
                "kernel-loop cycles",
                "fifo",
            ),
        )

        section(
            "Ablation A3 — GH82 delay-slot filling vs nops",
            lambda: render(
                ablation_delay_fill(
                    kernel_ids=(1, 5, 12), scale=scale, options=options
                ),
                "kernel-loop cycles",
                "nops",
            ),
        )

        failures = collector.failures()
        if failures:
            lines = "\n".join(f"  {failure.summary()}" for failure in failures)
            sections.append(
                f"{'=' * 72}\nFailures — {len(failures)} work unit(s) did not "
                f"complete\n{'=' * 72}\n{lines}\n"
            )

        total_seconds = time.time() - start
        sections.append(
            f"total evaluation time: {total_seconds:.1f}s (jobs={jobs})\n"
        )

        grid_info = {
            "backend": backend.backend if backend is not None else "inprocess",
            "workers": jobs,
        }
        bench = _bench_payload(
            scale,
            jobs,
            total_seconds,
            section_seconds,
            table4_data,
            failures,
            stall_data,
            grid_info,
        )
        if bench_path:
            with open(bench_path, "w") as handle:
                json.dump(bench, handle, indent=2, sort_keys=True)
                handle.write("\n")
        if owned_executor is not None:
            owned_executor.close()
        if journal is not None:
            journal.close()
        return ReportResult(
            text="\n".join(sections), failures=failures, bench=bench
        )
    finally:
        memo_scope.__exit__(None, None, None)


def generate_cache_compare(
    scale: float = 0.3,
    jobs: int | None = None,
    bench_path: str | None = None,
    timeout: float | None = None,
    cache_root: str | None = None,
    executor: str | None = None,
) -> ReportResult:
    """Cold/warm artifact-cache comparison: the full report twice
    against one cache directory (a fresh tmpdir unless ``cache_root`` is
    given), with every in-process memo dropped in between so the warm
    run — and the workers it forks — must go through the disk.

    Returns the *warm* run's result; its bench payload gains a
    ``cache_compare`` section with both walls, and a table mismatch
    between the runs is surfaced as a failure (nonzero exit).
    """
    from repro.eval import ablation
    from repro.targets import clear_target_cache

    root = cache_root or tempfile.mkdtemp(prefix="repro-cache-compare-")
    configure_cache(root=root, enabled=True)
    # executor stays a *spec string* here: each run builds (and closes)
    # a fresh backend, so the warm run's workers cannot inherit the cold
    # run's in-process memos by fork
    cold = generate_report(
        scale=scale, jobs=jobs, bench_path=None, timeout=timeout,
        executor=executor,
    )
    clear_target_cache()
    ablation._I860_VARIANTS.clear()
    warm = generate_report(
        scale=scale, jobs=jobs, bench_path=None, timeout=timeout,
        executor=executor,
    )
    identical = deterministic_sections(cold.text) == deterministic_sections(
        warm.text
    )
    cold_wall = cold.bench["wall_seconds"]["total"]
    warm_wall = warm.bench["wall_seconds"]["total"]
    warm.bench["cache_compare"] = {
        "cache_root": str(root),
        "cold_wall_seconds": cold_wall,
        "warm_wall_seconds": warm_wall,
        "speedup": (
            round(cold_wall / warm_wall, 2) if warm_wall > 0 else None
        ),
        "identical_tables": identical,
        "warm_cgg_builds": warm.bench["compile"]["cgg_builds"],
        "warm_kernel_compiles": warm.bench["compile"]["compiled"],
    }
    warm.failures = cold.failures + warm.failures
    if bench_path:
        with open(bench_path, "w") as handle:
            json.dump(warm.bench, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return warm


def _stalls_payload(stall_data) -> dict:
    """BENCH schema v3's ``stalls`` section: per (target, strategy), the
    simulator hazard-kind cycle breakdown and the scheduler's stall-reason
    histogram, each with its conservation identity spelled out."""
    cells: dict = {}
    for (target, strategy), run in (stall_data or {}).items():
        if isinstance(run, GridFailure):
            cells.setdefault(target, {})[strategy] = {"failed": run.summary()}
            continue
        breakdown = run.cycle_breakdown or {}
        cells.setdefault(target, {})[strategy] = {
            "cycles": run.actual_cycles,
            "cycle_breakdown": dict(breakdown),
            "stall_cycles": run.stall_cycles,
            # every cycle of issue-point advance is attributed
            "sim_conserved": sum(breakdown.values()) == run.actual_cycles - 1,
            "sched_stall_reasons": dict(run.sched_stall_reasons),
            "sched_nop_slots": run.sched_nop_slots,
            "sched_conserved": (
                sum(run.sched_stall_reasons.values()) == run.sched_nop_slots
            ),
        }
    return cells


def _bench_payload(
    scale: float,
    jobs: int,
    total_seconds: float,
    section_seconds: dict[str, float],
    table4_data,
    failures: list[GridFailure],
    stall_data=None,
    grid_info: dict | None = None,
) -> dict:
    """The machine-readable BENCH_eval.json payload (schema v13)."""
    runs = [
        run
        for by_strategy in table4_data.runs.values()
        for run in by_strategy.values()
    ]
    sim_seconds = sum(run.sim_seconds for run in runs)
    sim_cycles = sum(run.actual_cycles for run in runs)
    summary = obs.recorder().summary()
    counter = Counter(summary["counters"])
    block_hits = counter["sim.block_cache.hit"]
    block_misses = counter["sim.block_cache.miss"]
    block_lookups = block_hits + block_misses
    store = get_cache()
    grid_info = dict(grid_info or {})
    payload = {
        "schema": 13,
        "scale": scale,
        "jobs": jobs,
        # schema v12: the host the wall-clock numbers were measured on
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "wall_seconds": {
            "total": round(total_seconds, 3),
            **{
                name: round(seconds, 3)
                for name, seconds in section_seconds.items()
            },
        },
        "table4": {
            "runs": len(runs),
            "cycles_simulated": sim_cycles,
            "sim_wall_seconds": round(sim_seconds, 3),
            "cycles_per_second": (
                round(sim_cycles / sim_seconds) if sim_seconds > 0 else None
            ),
            "compile_wall_seconds": round(
                sum(run.compile_seconds for run in runs), 3
            ),
            "unmatched_profile_blocks": table4_data.unmatched_blocks,
        },
        "sim": {
            # schema v13: the seconds of the one ``simulate`` phase
            "run_seconds": round(
                summary["phases"].get("simulate", {}).get("seconds", 0.0), 3
            ),
            "block_cache": {
                "hits": block_hits,
                "misses": block_misses,
                "hit_rate": (
                    round(block_hits / block_lookups, 4)
                    if block_lookups
                    else None
                ),
            },
            # schema v12: ``refused`` counts segment refusals by reason
            "jit": jit_counters(counter),
            # schema v10: the digest-free timing chain.  ``digests
            # _computed`` counts first-visit transition replays; a warm
            # run keeps ``digest_rate`` (digests / memo lookups) ≈ 0
            "timing": {
                "digests_computed": counter["sim.timing.digests_computed"],
                "digest_rate": (
                    round(
                        counter["sim.timing.digests_computed"]
                        / block_lookups,
                        6,
                    )
                    if block_lookups
                    else None
                ),
            },
            # schema v10: warm-simulation self-time breakdown from
            # ``scripts/bench_sim.py --profile-sim`` (None until a
            # profiled bench run is merged)
            "self_time": None,
            # schema v9: trace-superblock activity (traces compiled,
            # side exits taken back into the dispatch loop, preloaded
            # segment/trace payloads from the artifact cache)
            "superblock": {
                "traces": counter["sim.jit.superblocks"],
                "side_exits": counter["sim.jit.side_exits"],
                "demoted": counter["sim.jit.sb_demoted"],
                "preloaded_segments": counter["sim.jit.preloaded"],
                "preloaded_traces": counter["sim.jit.sb_preloaded"],
            },
        },
        # schema v9: batched-dispatch volume (units run inside composite
        # batch tasks; 0 with batching off)
        "batched_units": counter["grid.batched_units"],
        "target_cache": {
            "hits": counter["target_cache.hit"],
            "misses": counter["target_cache.miss"],
            "bypasses": counter["target_cache.bypass"],
            "disk_hits": counter["target_cache.disk_hit"],
        },
        "artifact_cache": {
            "enabled": store.enabled,
            "root": str(store.root),
            "hits": counter["cache.hit"],
            "misses": counter["cache.miss"],
            "writes": counter["cache.write"],
            "corrupt": counter["cache.corrupt"],
            "layers": {
                layer: {
                    "hits": counter[f"cache.{layer}.hit"],
                    "misses": counter[f"cache.{layer}.miss"],
                    "writes": counter[f"cache.{layer}.write"],
                }
                for layer in ("target", "exe", "jit", "timing")
            },
        },
        "compile": {
            "calls": counter["compile.calls"],
            "compiled": counter["compile.compiled"],
            "cgg_builds": counter["cgg.builds"],
        },
        "grid": {
            "backend": grid_info.get("backend", "inprocess"),
            "workers": grid_info.get("workers", jobs),
        },
        "fault_tolerance": {
            "failed_units": len(failures),
            "timeouts": counter["grid.timeouts"],
            "retried_units": counter["grid.retried_units"],
            "pool_rebuilds": counter["grid.pool_rebuilds"],
            "resumed_units": counter["grid.resumed_units"],
            "failed_keys": sorted(failure.key for failure in failures),
        },
        # schema v8: the service benchmark (loadgen latency distribution,
        # cold-vs-warm per-request compile walls, dedup credit).  None
        # until `repro report --serve-bench FILE` merges a loadgen run.
        "serve": None,
        "stalls": _stalls_payload(stall_data),
        "counters": summary["counters"],
        # schema v12: one entry per span name (per-pass compile spans,
        # target_build.<name>); schema v13: the per-function spans are
        # ``codegen_function`` and ``simulate``, with the function name an
        # attribute, so the keys no longer grow with the programs compiled
        "phases": summary["phases"],
        "baseline": {
            "seed_serial_seconds": SEED_SERIAL_SECONDS,
            "seed_scale": SEED_SCALE,
            "speedup_vs_seed": (
                round(SEED_SERIAL_SECONDS / total_seconds, 2)
                if scale == SEED_SCALE and total_seconds > 0
                else None
            ),
        },
    }
    return payload


def add_report_arguments(parser: argparse.ArgumentParser) -> None:
    """The report flags, shared by this module's CLI and ``repro report``."""
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel worker processes for the evaluation grid "
        "(default: REPRO_JOBS or cpu count; 1 = serial)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-unit wall-clock budget in seconds "
        "(default: REPRO_UNIT_TIMEOUT or unlimited)",
    )
    parser.add_argument(
        "--executor",
        default=None,
        metavar="SPEC",
        help="evaluation-grid backend: 'local' (process pool) or "
        "'inprocess' (serial); default: local pool for --jobs > 1",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="checkpoint completed units into this JSONL journal and "
        "reuse any units it already holds (default: REPRO_JOURNAL)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="route up to N same-(target, strategy) units through one "
        "worker task sharing a warmed executable memo "
        "(default: REPRO_BATCH or 1 = unbatched)",
    )
    parser.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="report output: rendered text tables, or one JSON document "
        "(the BENCH payload plus the rendered text and failure list)",
    )
    parser.add_argument(
        "--serve-bench",
        default="",
        metavar="FILE",
        help="merge a scripts/loadgen.py --bench-out document into the "
        "bench payload's 'serve' section (latency percentiles, "
        "throughput, cold-vs-warm compile walls, dedup credit)",
    )
    parser.add_argument(
        "--sim-bench",
        default="",
        metavar="FILE",
        help="merge a scripts/bench_sim.py --profile-sim --json document "
        "into the bench payload's 'sim.self_time' section (warm-"
        "simulation self-time breakdown: generated code, digest/replay, "
        "cache model, dispatch)",
    )
    parser.add_argument(
        "--cache-compare",
        action="store_true",
        help="run the report twice against a fresh artifact-cache "
        "directory (cold, then warm with in-process memos dropped) and "
        "record both walls in the bench payload; fails if the warm "
        "tables are not byte-identical",
    )


def run_report_command(arguments, bench_default: str | None) -> int:
    """Shared driver: run the report, print it, exit nonzero on failures."""
    import os

    resume = arguments.resume or os.environ.get("REPRO_JOURNAL") or None
    bench_out = getattr(arguments, "bench_out", bench_default)
    if getattr(arguments, "cache_compare", False):
        result = generate_cache_compare(
            scale=arguments.scale,
            jobs=arguments.jobs,
            bench_path=bench_out or None,
            timeout=arguments.timeout,
            executor=getattr(arguments, "executor", None),
        )
    else:
        result = generate_report(
            scale=arguments.scale,
            jobs=arguments.jobs,
            bench_path=bench_out or None,
            timeout=arguments.timeout,
            resume=resume,
            executor=getattr(arguments, "executor", None),
            batch=getattr(arguments, "batch", None),
        )
    serve_bench = getattr(arguments, "serve_bench", "")
    if serve_bench:
        with open(serve_bench) as handle:
            result.bench["serve"] = json.load(handle)
    sim_bench = getattr(arguments, "sim_bench", "")
    if sim_bench:
        with open(sim_bench) as handle:
            result.bench.setdefault("sim", {})["self_time"] = json.load(
                handle
            )
    if (serve_bench or sim_bench) and bench_out:
        # rewrite with the merged section(s) included
        with open(bench_out, "w") as handle:
            json.dump(result.bench, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if getattr(arguments, "format", "text") == "json":
        print(
            json.dumps(
                {
                    "ok": result.ok,
                    "bench": result.bench,
                    "failures": [
                        failure.summary() for failure in result.failures
                    ],
                    "text": result.text,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(result.text)
    if result.failures:
        print(
            f"report degraded: {len(result.failures)} work unit(s) failed",
            file=sys.stderr,
        )
        return 1
    compare = result.bench.get("cache_compare")
    if compare is not None and not compare["identical_tables"]:
        print(
            "cache-compare: warm tables differ from the cold run",
            file=sys.stderr,
        )
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_report_arguments(parser)
    parser.add_argument(
        "--bench-out",
        default="BENCH_eval.json",
        help="write the machine-readable benchmark record here "
        "('' to disable)",
    )
    arguments = parser.parse_args()
    return run_report_command(arguments, "BENCH_eval.json")


if __name__ == "__main__":
    sys.exit(main())
