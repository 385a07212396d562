"""Structured observability: span traces, typed counters, stall taxonomy.

``repro.obs`` is the one measurement API of the system.  It has two
cooperating layers:

* :class:`~repro.obs.trace.Trace` — a **span tree** plus typed counters
  for one traced activity (a compile, a simulation, a whole report run).
  Traces nest through a :mod:`contextvars` variable, so concurrent
  activities (threads, or the fork-started workers of the evaluation
  grid) each see only their own trace.  A trace exports as plain JSON
  (:meth:`~repro.obs.trace.Trace.to_json`) or as the Chrome
  ``trace_event`` format (:meth:`~repro.obs.trace.Trace.to_chrome_json`)
  that ``chrome://tracing`` / Perfetto render as a flame chart.

* :mod:`repro.obs.stalls` — the **stall taxonomy**: reason codes the list
  scheduler attaches to every nop or issue delay it commits, and the
  hazard kinds the pipeline model charges each stall cycle to.

Instrumented code uses the module-level helpers, which no-op when
nothing records::

    from repro import obs

    with obs.span("codegen_function", function="main", strategy="rase"):
        ...
    obs.count("scheduler.blocks")

The same calls also feed the **process recorder**: ``obs.record()``
installs one process-wide :class:`Trace` that keeps phase aggregates and
counters but no span tree.  ``repro report``, ``repro serve`` and the
grid's pool workers turn it on; ``obs.recorder().summary()`` is what
``BENCH_eval.json`` and ``/v1/stats`` read, and what a worker ships back
for the parent to ``merge_summary``.
"""

from repro.obs.trace import (
    Span,
    Trace,
    count,
    current_trace,
    enabled,
    record,
    recorder,
    span,
    tracing,
)
from repro.obs import stalls

__all__ = [
    "Span",
    "Trace",
    "count",
    "current_trace",
    "enabled",
    "record",
    "recorder",
    "span",
    "stalls",
    "tracing",
]
