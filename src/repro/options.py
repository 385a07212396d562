"""Consolidated option records for the public API.

:class:`CompileOptions` replaces the keyword list that ``compile_c`` and
:class:`~repro.backend.codegen.CodeGenerator` had been accreting
(``strategy``, ``heuristic``, ``schedule``, ``fill_delay_slots``,
``memory_size``, ...).  It is frozen — an options value can be shared
between threads, used as a dict key, and journalled — and every layer of
the back end threads the *same* object through instead of re-plumbing
individual keywords.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import MarionError


@dataclass(frozen=True)
class CompileOptions:
    """Everything that shapes one compilation, in one frozen record.

    * ``strategy`` — code generation strategy: ``postpass``, ``ips`` or
      ``rase``;
    * ``heuristic`` — list scheduling priority: ``maxdist`` or ``fifo``;
    * ``schedule`` — ``False`` selects the unscheduled (local-only)
      baseline: program order, delay slots nop-filled;
    * ``fill_delay_slots`` — run the Gross-Hennessy delay-slot filling
      extension after the strategy;
    * ``memory_size`` — bytes of simulated memory the linker lays the
      program into.
    """

    strategy: str = "postpass"
    heuristic: str = "maxdist"
    schedule: bool = True
    fill_delay_slots: bool = False
    memory_size: int = 1 << 20

    def __post_init__(self) -> None:
        if self.strategy not in ("postpass", "ips", "rase"):
            raise MarionError(
                f"unknown strategy {self.strategy!r}; "
                "known: postpass, ips, rase"
            )
        if self.heuristic not in ("maxdist", "fifo"):
            # ValueError, matching the scheduler's own rejection of an
            # unknown heuristic name
            raise ValueError(
                f"unknown heuristic {self.heuristic!r}; known: maxdist, fifo"
            )

    def replace(self, **changes) -> "CompileOptions":
        """A copy with the given fields changed (frozen-friendly)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SimOptions:
    """Everything that shapes one simulation run, in one frozen record.

    * ``cache`` — data-cache model: ``None``/``False`` for no cache,
      ``True`` for a default-geometry
      :class:`~repro.sim.cache.DirectMappedCache`, or a ready-built cache
      instance (resolved inside the simulator, so this module stays
      import-light);
    * ``model_timing`` — run the cycle-level pipeline model (``False``
      executes functionally and reports instruction counts as cycles);
    * ``max_instructions`` — functional-execution fuse (infinite loops);
    * ``max_cycles`` — optional watchdog: the run raises
      :class:`~repro.errors.SimulationTimeout` past this cycle budget;
    * ``trace`` — use the accounting pipeline model, which attributes
      every stall cycle to a hazard kind and fills
      ``SimResult.cycle_breakdown``;
    * ``fast_timing`` — consult the pipeline model through the memoized
      block-timing cache (:mod:`repro.sim.blockcache`), which returns
      bit-identical cycle counts while skipping the per-instruction
      hazard walk for repeated basic blocks.  ``fast_timing=False``
      selects the reference interleaved path, the oracle the fast path
      is tested against.  The simulator also takes the reference path
      automatically whenever the run needs per-instruction timing: an
      armed ``max_cycles`` watchdog (its raise point is cycle-exact) or
      a ``watch=`` callback (it receives per-instruction issue cycles);
    * ``jit`` — compile hot straight-line segments to specialized Python
      (:mod:`repro.sim.jit`) once they cross the warmup threshold.
      Bit-identical to the interpreter (guarded deopt re-executes
      anything uncovered); only active on the fast-timing path, so runs
      that need per-instruction observation (``watch=``, ``max_cycles``)
      are automatically interpreted.  Hot multi-segment traces (loop
      nests, if-diamonds) are stitched into superblocks, and warm
      segment boundaries commit timing through the block-timing memo's
      inline transition tables.  ``jit=False`` is the JIT's own
      baseline: the closure interpreter on the same fast-timing loop.
    """

    cache: object = None
    model_timing: bool = True
    max_instructions: int = 50_000_000
    max_cycles: int | None = None
    trace: bool = False
    fast_timing: bool = True
    jit: bool = True

    def replace(self, **changes) -> "SimOptions":
        """A copy with the given fields changed (frozen-friendly)."""
        return dataclasses.replace(self, **changes)

