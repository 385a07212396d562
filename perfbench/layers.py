"""Per-layer tracing for the benchmark's traced run.

:func:`install` wraps each layer's public entry point at the name its
caller looks up (a module global or a class attribute) and returns a
:class:`Recorder`; :meth:`Recorder.remove` puts the originals back.  A
wrapped call records one span: name, start, end, parent span, op id and
the counts read off its arguments and result.  Spans stay in memory;
:func:`layer_metrics` turns them into per-layer self time, counts and
ratios.  Nothing here is active in an untraced run.
"""

from __future__ import annotations

import os
import sys
import time

TARGETS = ("toyp", "r2000", "m88000", "i860")


class Recorder:
    def __init__(self):
        #: one ``[name, start, end, parent, op, counts]`` list per span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = "setup"

    def span(self, name: str, fn, counts=None):
        """``fn`` wrapped to record a span named ``name`` (a string, or a
        callable of the call's positional arguments)."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = len(spans)
            record = [label, clock(), 0.0, stack[-1] if stack else -1,
                      self.op, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if counts is not None:
                record[5] = counts(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name, counts=None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute)
        with its wrapped form."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, counts))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def op_span(self, op_id, fn, *args):
        """Run one op under a root span ``op`` (its self time is the
        part no wrapped layer covers)."""
        self.op = op_id
        try:
            return self.span("op", fn)(*args)
        finally:
            self.op = "setup"


def _file_size(store, layer, key) -> int:
    try:
        return os.path.getsize(store.store.path_for(layer, key))
    except OSError:
        return 0


def install() -> Recorder:
    """Wrap every layer entry point the benchmark reports on."""
    import repro
    from repro.backend import codegen
    from repro.backend.regalloc import GraphColoringAllocator
    from repro.backend.scheduler import ListScheduler
    from repro.backend.selector import Selector
    from repro.backend.strategies import (
        IPSStrategy, PostpassStrategy, RASEStrategy,
    )
    from repro.cache import ArtifactCache
    from repro.sim.jit import SegmentTranslator
    from repro.sim.simulator import Simulator

    rec = Recorder()
    for target in TARGETS:
        rec.patch(sys.modules[f"repro.targets.{target}"], "build_target", "cgg")
    rec.patch(repro, "compile_to_il", "frontend")
    rec.patch(repro, "link", "link")
    rec.patch(codegen, "lower_function", "lower")
    rec.patch(Selector, "select_function", "selector",
              lambda a, r: {"instrs": r.instruction_count()})
    for cls in (PostpassStrategy, IPSStrategy, RASEStrategy):
        rec.patch(cls, "run", f"strategy.{cls.name}",
                  lambda a, r: {"schedule_passes": r.schedule_passes})
    rec.patch(ListScheduler, "schedule_block", "scheduler",
              lambda a, r: {"instrs": len(a[1]), "nop_slots": r.nop_slots})
    rec.patch(GraphColoringAllocator, "allocate", "regalloc",
              lambda a, r: {"spilled": r.spilled_pseudos,
                            "iterations": r.iterations})
    rec.patch(ArtifactCache, "get", "cache.get",
              lambda a, r: {"hits": int(r is not None),
                            "misses": int(r is None),
                            "bytes_read": 0 if r is None
                            else _file_size(a[0], a[1], a[2])})
    rec.patch(ArtifactCache, "put", "cache.put",
              lambda a, r: {"writes": int(bool(r)),
                            "bytes_written": _file_size(a[0], a[1], a[2])
                            if r else 0})
    rec.patch(Simulator, "__init__", "sim.decode")
    rec.patch(Simulator, "run",
              lambda a: f"sim.run.{a[0].target.name}", _sim_counts)
    rec.patch(SegmentTranslator, "translate", "sim.jit.translate")
    rec.patch(SegmentTranslator, "translate_trace", "sim.jit.translate")
    return rec


def _sim_counts(args, result) -> dict:
    return {
        "instructions": result.instructions,
        "jit.segments": result.jit_segments,
        "jit.superblocks": result.jit_superblocks,
        "jit.deopts": result.jit_deopts,
        "jit.hits": result.jit_hits,
        "jit.side_exits": result.jit_side_exits,
        "jit.active_segments": result.jit_active_segments,
        "timing.digests": result.timing_digests,
        "timing.hits": result.block_cache_hits,
        "timing.misses": result.block_cache_misses,
        "dcache.hits": result.cache_hits,
        "dcache.misses": result.cache_misses,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self time, counts and ratios per layer, from one traced phase's
    spans (``op == "setup"`` spans only feed ``cgg.*``)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    for index, (name, start, end, parent, op, counts) in enumerate(spans):
        if op == "setup" and name != "cgg":
            continue
        if op != "setup" and name == "cgg":
            continue
        self_s[name] = self_s.get(name, 0.0) + end - start - child_time[index]
        total_s[name] = total_s.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        for key, value in (counts or {}).items():
            sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0.0) + value

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return sums.get(name, 0)

    runs = [f"sim.run.{target}" for target in TARGETS]

    def sim(key):
        return sum(n(f"{run}.{key}") for run in runs)

    builds = calls.get("cgg", 0)
    out = {
        # seconds per build of all four targets
        "cgg.build_s": _ratio(s("cgg"), builds / len(TARGETS)),
        "frontend.s": s("frontend"),
        "frontend.calls": calls.get("frontend", 0),
        "lower.s": s("lower"),
        "selector.s": s("selector"),
        "selector.instrs": n("selector.instrs"),
    }
    for strategy in ("postpass", "ips", "rase"):
        out[f"strategy.{strategy}.s"] = s(f"strategy.{strategy}")
        out[f"strategy.{strategy}.total_s"] = total_s.get(
            f"strategy.{strategy}", 0.0)
    out["strategy.schedule_passes"] = sum(
        n(f"strategy.{st}.schedule_passes") for st in ("postpass", "ips", "rase")
    )
    out.update({
        "scheduler.s": s("scheduler"),
        "scheduler.blocks": calls.get("scheduler", 0),
        "scheduler.instrs": n("scheduler.instrs"),
        "scheduler.nop_slots": n("scheduler.nop_slots"),
        "regalloc.s": s("regalloc"),
        "regalloc.calls": calls.get("regalloc", 0),
        "regalloc.spilled": n("regalloc.spilled"),
        "regalloc.iterations": n("regalloc.iterations"),
        "link.s": s("link"),
        "cache.get_s": s("cache.get"),
        "cache.hits": n("cache.get.hits"),
        "cache.misses": n("cache.get.misses"),
        "cache.hit_ratio": _ratio(n("cache.get.hits"), calls.get("cache.get", 0)),
        "cache.bytes_read": n("cache.get.bytes_read"),
        "cache.put_s": s("cache.put"),
        "cache.writes": n("cache.put.writes"),
        "cache.bytes_written": n("cache.put.bytes_written"),
        "sim.decode_s": s("sim.decode"),
        "sim.run_s": sum(s(r) for r in runs),
        "sim.instructions": sim("instructions"),
    })
    for target, run in zip(TARGETS, runs):
        out[f"sim.run_s.{target}"] = s(run)
        out[f"sim.minstr_per_s.{target}"] = _ratio(
            n(f"{run}.instructions") / 1e6, total_s.get(run, 0.0))
    out.update({
        "sim.jit.translate_s": s("sim.jit.translate"),
        "sim.jit.translations": calls.get("sim.jit.translate", 0),
        "sim.jit.segments": sim("jit.segments"),
        "sim.jit.superblocks": sim("jit.superblocks"),
        "sim.jit.deopts": sim("jit.deopts"),
        "sim.jit.deopts_per_segment": _ratio(
            sim("jit.deopts"), sim("jit.segments")),
        "sim.jit.hits": sim("jit.hits"),
        "sim.jit.side_exits": sim("jit.side_exits"),
        "sim.jit.active_segments": sim("jit.active_segments"),
        "sim.timing.digests": sim("timing.digests"),
        "sim.timing.hit_ratio": _ratio(
            sim("timing.hits"),
            sim("timing.hits") + sim("timing.misses")),
        "sim.dcache.hit_ratio": _ratio(
            sim("dcache.hits"),
            sim("dcache.hits") + sim("dcache.misses")),
        "unattributed.s": s("op"),
    })
    return out
