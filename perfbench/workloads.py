"""The four benchmark workloads: cell sets, op lists and the op bodies.

A *cell* is one (program, target, strategy) triple of the paper's grid:
the 19 programs (Livermore kernels 1-14 and the five suite programs) on
4 targets under 3 strategies, 228 cells in all.  Each workload runs a
fixed, seed-independent slice of that grid so that a run fits its time
budget and its deterministic metrics do not move with the seed; the
seed only shuffles the op order of every pass and, on ``run-cold`` /
``run-warm``, draws each op's reduced loop size.

Only the public API is used: ``compile_c``, ``simulate``,
``load_target`` and ``configure_cache``.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import time
from dataclasses import dataclass, field

from repro import api
from repro.workloads import LIVERMORE_KERNELS, PROGRAM_SUITE

TARGETS = ("toyp", "r2000", "m88000", "i860")
STRATEGIES = ("postpass", "ips", "rase")

#: every timed phase runs whole passes until ``--seconds`` have elapsed
#: (at the reference host speed) *and* this many ops completed, so
#: ``op_ms.p90`` has at least ten samples beyond it
MIN_OPS = 110


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    entry: str
    args: tuple
    reference: object


PROGRAMS = [
    Program(f"K{k.id}", k.source, "bench", k.args, k.reference)
    for k in LIVERMORE_KERNELS
] + [
    Program(p.name, p.source, p.entry, p.args, p.reference)
    for p in PROGRAM_SUITE
]


@dataclass(frozen=True)
class Cell:
    program: int
    target: str
    strategy: str

    @property
    def label(self) -> str:
        return f"{self.target}/{self.strategy}/{PROGRAMS[self.program].name}"


def grid(rule) -> list[Cell]:
    """The cells ``(i, t, s)`` (program, target, strategy indices) that
    satisfy ``rule``; every rule below keeps all programs, targets and
    strategies and the known ``i860/rase/K8`` cell."""
    return [
        Cell(i, target, strategy)
        for i in range(len(PROGRAMS))
        for t, target in enumerate(TARGETS)
        for s, strategy in enumerate(STRATEGIES)
        if rule(i, t, s)
    ]


def small_args(program: Program) -> tuple:
    """The loop size of the post-timing functional check."""
    if program.entry == "bench":
        loop, n = program.args
        return (loop, min(n, 16))
    return (min(program.args[0], 8),)


def reduced_args(program: Program, rng: random.Random) -> tuple:
    """A seeded reduced loop size: 20-25% of the McMahon / suite size."""
    fraction = rng.uniform(0.20, 0.25)
    if program.entry == "bench":
        loop, n = program.args
        return (loop, max(4, round(n * fraction)))
    return (max(4, round(program.args[0] * fraction)),)


def matches(program: Program, args: tuple, value: dict, refs: dict) -> bool:
    """The simulated return value against the program's Python reference
    (computed once per distinct ``(program, args)``)."""
    key = (program.name, args)
    expected = refs.get(key)
    if expected is None:
        expected = refs[key] = program.reference(*args)
    if isinstance(expected, float):
        return math.isclose(
            value["double"], expected, rel_tol=1e-9, abs_tol=1e-9
        )
    return value["int"] == expected


@dataclass
class Op:
    cell: Cell
    args: tuple = ()


@dataclass
class OpResult:
    """What one op produced; ``error`` is ``None`` for a completed op."""

    op: Op
    seconds: float = 0.0
    sim_seconds: float = 0.0
    size: int | None = None
    value: dict | None = None
    cycles: int | None = None
    instructions: int = 0
    error: str | None = None

    def answer(self) -> tuple:
        """What the program computed (or the error it raised)."""
        value = None
        if self.value is not None:
            value = tuple(sorted((k, repr(v)) for k, v in self.value.items()))
        return self.op.cell, self.op.args, value, self.error

    def code(self) -> tuple:
        """The deterministic measurements of the generated code."""
        return self.size, self.cycles, self.instructions


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class Workload:
    """One workload: untimed :meth:`setup`, one pass's op list and the
    op body."""

    name: str
    cells: list[Cell]
    #: scratch directory for cache roots (removed by the caller)
    workdir: object = None
    refs: dict = field(default_factory=dict)
    #: failures outside the timed ops (setup)
    failures: list = field(default_factory=list)
    #: sims of the functional check (compile-grid only)
    checks: list = field(default_factory=list)
    targets: dict = field(default_factory=dict)
    #: every enabled ``ArtifactCache`` the workload configured
    caches: list = field(default_factory=list)
    #: called between the cells of a long setup (a host-speed probe)
    step: object = None
    #: seconds ``run_op`` spent on checks, to leave out of the wall time
    untimed_s: float = 0.0

    #: whether the ops run with an artifact cache (rooted in ``workdir``)
    uses_cache = False

    def configure(self, root=None) -> None:
        if self.uses_cache:
            self.caches.append(api.configure_cache(root=root, enabled=True))
        else:
            api.configure_cache(enabled=False)

    def load_targets(self) -> None:
        """Targets for the timed phase, loaded under the workload's own
        cache configuration (a cached target carries the content key the
        exe/jit/timing layers derive from)."""
        self.configure(self._root("targets"))
        self.targets = {name: api.load_target(name) for name in TARGETS}

    def _step(self) -> None:
        if self.step is not None:
            self.step()

    def _root(self, name: str):
        return self.workdir / name

    def setup(self, rng: random.Random) -> None:
        self.load_targets()

    def ops(self, rng: random.Random) -> list[Op]:
        return [Op(cell) for cell in self.cells]

    def before_pass(self) -> None:
        pass

    def run_op(self, op: Op) -> OpResult:
        raise NotImplementedError

    def cache_intent(self, results: list[OpResult]) -> str | None:
        """``None`` when the artifact-cache counters show the workload's
        intent held, else why not.  A cache-off workload holds it by
        construction: ``configure`` disabled the cache."""
        return None

    # shared op bodies ---------------------------------------------------

    def _compile(self, cell: Cell):
        program = PROGRAMS[cell.program]
        return api.compile_c(
            program.source,
            self.targets[cell.target],
            api.CompileOptions(strategy=cell.strategy),
        )

    def _compile_and_run(self, op: Op) -> OpResult:
        """``repro run``: compile, then one timed simulation."""
        program = PROGRAMS[op.cell.program]
        out = OpResult(op)
        start = time.perf_counter()
        try:
            exe = self._compile(op.cell)
            sim_start = time.perf_counter()
            result = api.simulate(
                exe, program.entry, op.args,
                options=api.SimOptions(cache=True),
            )
            end = time.perf_counter()
        except Exception as exc:  # an op failure is data, not a crash
            out.seconds = time.perf_counter() - start
            out.error = _describe(exc)
            return out
        out.seconds = end - start
        out.sim_seconds = end - sim_start
        self._record(out, program, exe, result)
        return out

    def _record(self, out: OpResult, program, exe, result) -> None:
        out.size = exe.instruction_count()
        out.value = result.return_value
        out.cycles = result.cycles
        out.instructions = result.instructions
        if not matches(program, out.op.args, result.return_value, self.refs):
            out.error = (
                f"Mismatch: {program.name}{out.op.args} returned "
                f"{result.return_value}"
            )


class CompileGrid(Workload):
    """``compile_c`` of every cell, artifact cache off.  Each distinct
    compiled executable is checked functionally right after the op that
    produced it, outside the op's latency and the phase's wall time, and
    then dropped: holding every executable to the end would grow the
    heap, and with it the collector's share of later compiles."""

    def setup(self, rng):
        super().setup(rng)
        #: (cell, sha256 of the code) -> check verdict; a cell can
        #: compile to different code across passes
        self._verdicts: dict[tuple, str | None] = {}
        for cell in self.cells:
            program = PROGRAMS[cell.program]
            args = small_args(program)
            self.refs[(program.name, args)] = program.reference(*args)

    def run_op(self, op):
        out = OpResult(op)
        start = time.perf_counter()
        try:
            exe = self._compile(op.cell)
        except Exception as exc:
            out.seconds = time.perf_counter() - start
            out.error = _describe(exc)
            return out
        end = time.perf_counter()
        out.seconds = end - start
        out.size = exe.instruction_count()
        code = "\n".join(map(str, exe.instrs)).encode()
        key = (op.cell, hashlib.sha256(code).hexdigest())
        if key not in self._verdicts:
            self._verdicts[key] = self._check(op.cell, exe)
        out.error = self._verdicts[key]
        self.untimed_s += time.perf_counter() - end
        return out

    def _check(self, cell: Cell, exe) -> str | None:
        """One run at a small loop size, with the same data cache and
        pipeline timing as every other workload's simulations."""
        program = PROGRAMS[cell.program]
        args = small_args(program)
        check = OpResult(Op(cell, args))
        start = time.perf_counter()
        try:
            result = api.simulate(
                exe, program.entry, args,
                options=api.SimOptions(cache=True),
            )
        except Exception as exc:
            check.error = _describe(exc)
        else:
            check.sim_seconds = time.perf_counter() - start
            self._record(check, program, exe, result)
        self.checks.append(check)
        return check.error


class SimSteady(Workload):
    """Warm re-simulation of executables compiled and run once in setup.
    A cell whose setup compile or first run failed stays in the op list:
    each of its ops fails with the setup error."""

    def setup(self, rng):
        super().setup(rng)
        self.exes: dict[Cell, object] = {}
        self.setup_errors: dict[Cell, str] = {}
        for cell in self.cells:
            self._step()
            program = PROGRAMS[cell.program]
            first = OpResult(Op(cell, program.args))
            try:
                exe = self._compile(cell)
                result = api.simulate(
                    exe, program.entry, program.args,
                    options=api.SimOptions(cache=True),
                )
            except Exception as exc:
                first.error = _describe(exc)
            else:
                self._record(first, program, exe, result)
            if first.error is None:
                self.exes[cell] = exe
            else:
                self.setup_errors[cell] = first.error
                self.failures.append(("setup", cell, first.error))

    def ops(self, rng):
        return [Op(cell, PROGRAMS[cell.program].args) for cell in self.cells]

    def run_op(self, op):
        error = self.setup_errors.get(op.cell)
        if error is not None:
            return OpResult(op, error=error)
        program = PROGRAMS[op.cell.program]
        exe = self.exes[op.cell]
        out = OpResult(op)
        start = time.perf_counter()
        try:
            result = api.simulate(
                exe, program.entry, op.args,
                options=api.SimOptions(cache=True),
            )
        except Exception as exc:
            out.seconds = time.perf_counter() - start
            out.error = _describe(exc)
            return out
        out.seconds = out.sim_seconds = time.perf_counter() - start
        self._record(out, program, exe, result)
        return out


class RunCold(Workload):
    """``repro run`` against an empty artifact cache: every pass gets a
    fresh cache root, and no cell repeats within a pass."""

    uses_cache = True

    def setup(self, rng):
        super().setup(rng)
        self.op_list = [
            Op(cell, reduced_args(PROGRAMS[cell.program], rng))
            for cell in self.cells
        ]
        for op in self.op_list:
            program = PROGRAMS[op.cell.program]
            self.refs[(program.name, op.args)] = program.reference(*op.args)
        self._passes = 0

    def ops(self, rng):
        return list(self.op_list)

    def before_pass(self):
        self._passes += 1
        root = self._root(f"cold-{self._passes}")
        shutil.rmtree(root, ignore_errors=True)
        self.configure(root)

    def run_op(self, op):
        return self._compile_and_run(op)

    def cache_intent(self, results):
        hits = sum(c.hits for c in self.caches)
        return f"cold run hit the artifact cache {hits} times" if hits else None


class RunWarm(RunCold):
    """``repro run`` against a store that setup populated from the same
    op list: exe, JIT and timing payloads all come from disk."""

    def setup(self, rng):
        super().setup(rng)
        self.configure(self._root("store"))
        for op in self.op_list:
            self._step()
            out = self._compile_and_run(op)
            if out.error is not None:
                self.failures.append(("setup", op.cell, out.error))
        self.caches.clear()

    def before_pass(self):
        # a fresh ArtifactCache over the same store, so the counters
        # describe the timed phase only
        self.configure(self._root("store"))

    def cache_intent(self, results):
        failed_ops = sum(1 for r in results if r.error is not None)
        misses = {
            layer: sum(
                c.layer_counters.get(layer, {}).get("misses", 0)
                for c in self.caches
            )
            for layer in ("exe", "jit", "timing")
        }
        if misses["jit"] or misses["timing"] or misses["exe"] > failed_ops:
            return f"warm run missed the store: {misses}"
        return None


WORKLOADS = {
    # 38 (program, target) pairs x all 3 strategies = 114 cells
    "compile-grid": (CompileGrid, lambda i, t, s: (i + t) % 2 == 0),
    # 38 cells, every strategy on ~13
    "sim-steady": (SimSteady, lambda i, t, s: (i + t + s) % 6 == 0),
    # 57 cells, every strategy on 19
    "run-cold": (RunCold, lambda i, t, s: (i + t + s) % 4 == 0),
    "run-warm": (RunWarm, lambda i, t, s: (i + t + s) % 4 == 0),
}


def make(name: str, workdir, quick: bool = False) -> Workload:
    cls, rule = WORKLOADS[name]
    cells = grid(rule)
    if quick:
        # six cells spread over the grid
        cells = cells[:: max(1, len(cells) // 6)][:6]
    return cls(name, cells, workdir)
