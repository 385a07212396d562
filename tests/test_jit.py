"""Cross-validation and unit tests for the segment JIT.

The JIT path (:mod:`repro.sim.jit`) must be *bit-identical* to the
closure interpreter — cycles, checksums, memory/cache statistics and
dynamic block counts, not approximately equal.  The sweep here checks
the ``jit=False`` run of every cell in the shared differential harness
(:mod:`tests.differential`) against the reference timing path and, for
the memo counters, against the JIT-on default run; the rest of the file
covers warmup, refusal, deopt and blacklist.
"""

import pytest

import repro
from repro.errors import MarionError, SchedulingError, SimulationError
from repro.sim.cache import DirectMappedCache
from repro.obs import Trace, tracing
from repro.sim.jit import (
    MAX_DEOPTS,
    SegmentJIT,
    SegmentTranslator,
    Uncompilable,
)
from repro.workloads import LIVERMORE_KERNELS, PROGRAM_SUITE, kernel_by_id

from tests.differential import STRATEGIES, TARGETS, check_against_reference

#: low warmup so the scaled-down test kernels still compile their loops
WARMUP = 2


def _compile(spec, target, strategy):
    try:
        return repro.compile_c(
            spec.source, target, repro.CompileOptions(strategy=strategy)
        )
    except MarionError as error:
        pytest.skip(f"{target}/{strategy} does not compile K{spec.id}: {error}")


def _simulate(executable, spec, *, jit, scale=0.03, cache=True, **extra):
    loop, n = spec.args
    n = max(4, int(n * scale))
    options = repro.SimOptions(
        cache=DirectMappedCache() if cache else None, jit=jit, **extra
    )
    return repro.simulate(executable, "bench", args=(loop, n), options=options)


# -- cross-validation ---------------------------------------------------------


def _check_interpreted(kernel, target, strategy="postpass", **variant):
    """The ``jit=False`` run matches the reference and the JIT-on run;
    only the JIT-on run executed compiled segments."""
    interpreted = check_against_reference(
        "interpreted", kernel, target, strategy, **variant
    )
    assert interpreted.jit_hits == interpreted.jit_segments == 0
    return interpreted


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("target", TARGETS)
def test_jit_bit_identical_k1(target, strategy):
    _check_interpreted(1, target, strategy)


@pytest.mark.parametrize("target", ("r2000", "i860"))
def test_jit_bit_identical_k7(target):
    # K7 (equation of state) has a wider loop body than K1: more views
    # per segment, and on i860 temporal (EAP) sub-operations whose
    # latches the translator holds in locals
    _check_interpreted(7, target)


@pytest.mark.parametrize("target", ("toyp", "i860"))
def test_jit_bit_identical_without_cache(target):
    # the no-cache table elides the access()/miss-mask bookkeeping, so
    # it is a distinct generated function that needs its own validation
    _check_interpreted(1, target, cache=False)


@pytest.mark.parametrize("target", ("r2000", "m88000"))
def test_jit_bit_identical_with_timing_off(target):
    # model_timing=False runs share the fast loop (and the JIT) with the
    # block close stubbed out; cycles must equal the instruction count
    # exactly as on the reference path
    off = _check_interpreted(1, target, model_timing=False)
    assert off.cycles == off.instructions


def test_i860_temporal_segments_compile():
    # temporal registers live in generated-code locals: every hot i860
    # segment compiles, and no entry pins to the interpreter
    spec = kernel_by_id(7)
    executable = _compile(spec, "i860", "postpass")
    executable._segment_jit = SegmentJIT(executable, warmup=WARMUP)
    result = _simulate(executable, spec, jit=True)
    jit = executable._segment_jit
    assert jit.uncompilable == 0
    assert jit.stats["refused"] == {}
    assert result.jit_refused == {}
    assert None not in jit.functions(True).values()
    assert any(
        "tp = state.temporal" in record[0]._jit_source
        for record in jit.functions(True).values()
    )


# -- totality -----------------------------------------------------------------


def _i860_cells():
    programs = [(f"K{k.id}", k.source) for k in LIVERMORE_KERNELS] + [
        (program.name, program.source) for program in PROGRAM_SUITE
    ]
    for name, source in programs:
        for strategy in STRATEGIES:
            marks = ()
            if (name, strategy) == ("K8", "rase"):
                # the known i860 x RASE temporal deadlock: this turns red
                # (XPASS) once the scheduler compiles the cell
                marks = pytest.mark.xfail(strict=True, raises=SchedulingError)
            yield pytest.param(
                source, strategy, id=f"{strategy}-{name}", marks=marks
            )


@pytest.mark.parametrize("source, strategy", _i860_cells())
def test_i860_every_block_start_translates(source, strategy):
    # the translator is total on the i860: no block start of any grid
    # cell is refused, for either data-cache table
    executable = repro.compile_c(
        source, "i860", repro.CompileOptions(strategy=strategy)
    )
    translator = SegmentTranslator(executable)
    for entry in sorted(translator.block_starts):
        for cached in (False, True):
            translator.translate(entry, cached)


def test_mixed_kind_temporal_is_refused(monkeypatch):
    # an i860 variant whose M2 latches an int into the double-typed m2:
    # a tm_m2 local would then hold a Python int under a double static
    # type, so every segment touching m2 stays interpreted — and the run
    # still matches the interpreter exactly
    import repro.targets.i860 as i860

    monkeypatch.setattr(
        i860, "I860_MARIL",
        i860.I860_MARIL.replace("{m2 = m1;}", "{m2 = int(m1);}"),
    )
    spec = kernel_by_id(7)
    executable = repro.compile_c(
        spec.source, i860.build_i860(), repro.CompileOptions()
    )
    jit = executable._segment_jit = SegmentJIT(executable, warmup=WARMUP)
    assert jit.translator.mixed_temporals == {"m2"}
    compiled = _simulate(executable, spec, jit=True)
    assert compiled.jit_refused.get("temporal-type", 0) > 0
    assert jit.compiled > 0
    interpreted = _simulate(executable, spec, jit=False)
    assert compiled.cycles == interpreted.cycles
    assert compiled.return_value == interpreted.return_value
    assert compiled.block_counts == interpreted.block_counts


def test_refusal_reasons_are_counted_and_traced(process_recorder):
    # every refusal is counted under its reason slug: in the JIT's stats,
    # in the run's result, as a sim.jit.refused.<reason> trace counter
    # and, through the process recorder, in BENCH and /v1/stats
    from repro.serve import ServeOptions, serve_app
    from repro.sim.simulator import jit_counters

    spec = kernel_by_id(1)
    executable = _compile(spec, "r2000", "postpass")
    jit = executable._segment_jit = SegmentJIT(executable, warmup=WARMUP)

    def refuse(entry, cached):
        raise Uncompilable("operator", "forced")

    jit.translator.translate = refuse
    trace = Trace("sim")
    with tracing(trace):
        result = _simulate(executable, spec, jit=True)
    refused = jit.uncompilable
    assert refused > 0
    assert jit.stats["refused"] == {"operator": refused}
    assert result.jit_refused == {"operator": refused}
    assert trace.counters["sim.jit.refused.operator"] == refused
    assert process_recorder.counters["sim.jit.refused.operator"] == refused
    assert jit_counters(process_recorder.counters)["refused"] == {
        "operator": refused
    }
    _status, stats = serve_app(ServeOptions(executor="inprocess")).stats()
    assert stats["sim"]["jit"]["refused"] == {"operator": refused}
    # a run reports only the refusals it decided itself
    again = _simulate(executable, spec, jit=True)
    assert sum(again.jit_refused.values()) == jit.uncompilable - refused


# -- deopt paths --------------------------------------------------------------

DIV_TRAP = """
int divloop(int n, int m) {
  int s; int i;
  s = 0;
  for (i = 0; i < n; i = i + 1) {
    s = s + 100 / (m - i);
  }
  return s;
}
"""

#: the division lives in a hot *callee*: a non-looping segment (entry
#: to ret) whose guard can still deopt.  The self-loop in DIV_TRAP is
#: chained in-function, so its guard raises the interpreter's error
#: inline instead (see test_chained_loop_raises_inline).
DIV_TRAP_CALL = """
int divide(int a, int b) { return a / b; }
int divcall(int n, int m) {
  int s; int i;
  s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + divide(100, m - i); }
  return s;
}
"""


def _compile_source(source, target="r2000"):
    return repro.compile_c(source, target, repro.CompileOptions())


def _run_divloop(executable, n, m, jit):
    return repro.simulate(
        executable, "divloop", args=(n, m),
        options=repro.SimOptions(jit=jit),
    )


def test_div_by_zero_deopts_with_identical_error():
    # the divisor hits zero long after warmup: the compiled callee's
    # guard trips before any side effect, the deopt re-executes the
    # segment interpreted, and the error the caller sees is exactly the
    # interpreter's
    executable = _compile_source(DIV_TRAP_CALL)
    executable._segment_jit = SegmentJIT(executable, warmup=WARMUP)
    with pytest.raises(SimulationError, match="integer division by zero"):
        repro.simulate(
            executable, "divcall", args=(50, 30),
            options=repro.SimOptions(jit=True),
        )
    assert executable._segment_jit.deopts >= 1
    reference = _compile_source(DIV_TRAP_CALL)
    with pytest.raises(SimulationError, match="integer division by zero"):
        repro.simulate(
            reference, "divcall", args=(50, 30),
            options=repro.SimOptions(jit=False),
        )


def test_chained_loop_raises_inline():
    # a self-loop segment is chained in-function, so its division guard
    # raises the interpreter's exact error inline, without deopting
    executable = _compile_source(DIV_TRAP)
    executable._segment_jit = SegmentJIT(executable, warmup=WARMUP)
    with pytest.raises(SimulationError, match="integer division by zero"):
        _run_divloop(executable, 50, 30, True)
    assert executable._segment_jit.deopts == 0
    reference = _compile_source(DIV_TRAP)
    with pytest.raises(SimulationError, match="integer division by zero"):
        _run_divloop(reference, 50, 30, False)


def test_deopt_undoes_partial_block_counts():
    # a divisor that never hits zero: the guard stays quiet and the JIT
    # agrees with the interpreter on dynamic block counts and the result
    executable = _compile_source(DIV_TRAP)
    reference = _run_divloop(executable, 40, 100, False)
    executable._segment_jit = SegmentJIT(executable, warmup=WARMUP)
    jitted = _run_divloop(executable, 40, 100, True)
    assert jitted.jit_hits > 0
    assert jitted.block_counts == reference.block_counts
    assert jitted.return_value == reference.return_value


def test_repeated_deopts_blacklist_the_entry():
    # five calls per run keep every loop edge below SUPERBLOCK_WARMUP
    # across all the runs, so no trace is promoted (a trace would raise
    # inline instead of deopting): this is the plain-segment path
    executable = _compile_source(DIV_TRAP_CALL)
    executable._segment_jit = SegmentJIT(executable, warmup=1)
    jit = executable._segment_jit

    def run():
        return repro.simulate(
            executable, "divcall", args=(30, 5),
            options=repro.SimOptions(jit=True),
        )

    for _ in range(MAX_DEOPTS):
        with pytest.raises(SimulationError):
            run()
    assert jit.deopts == MAX_DEOPTS
    assert None in jit.functions(False).values()
    # blacklisted: further runs stay interpreted, same error, no growth
    with pytest.raises(SimulationError, match="integer division by zero"):
        run()
    assert jit.deopts == MAX_DEOPTS
    assert jit.superblocks == 0


# -- warmup threshold ---------------------------------------------------------

HOT_LOOP = """
int hot(int n) {
  int s; int i;
  s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + i; }
  return s;
}
"""


def _run_hot(executable, n, **extra):
    return repro.simulate(
        executable, "hot", args=(n,),
        options=repro.SimOptions(jit=True, **extra),
    )


def test_cold_entries_are_not_compiled():
    executable = _compile_source(HOT_LOOP)
    executable._segment_jit = SegmentJIT(executable, warmup=1000)
    result = _run_hot(executable, 100)
    assert result.jit_segments == 0
    assert result.jit_hits == 0


def test_entries_compile_at_the_threshold():
    executable = _compile_source(HOT_LOOP)
    executable._segment_jit = SegmentJIT(executable, warmup=5)
    result = _run_hot(executable, 100)
    assert result.jit_segments > 0
    assert result.jit_hits > 0


def test_warmup_accumulates_across_runs():
    # the SegmentJIT lives on the executable: dispatch counts from one
    # run carry into the next, so repeated short runs still warm up
    executable = _compile_source(HOT_LOOP)
    executable._segment_jit = SegmentJIT(executable, warmup=25)
    first = _run_hot(executable, 15)
    assert first.jit_segments == 0
    second = _run_hot(executable, 15)
    assert second.jit_segments > 0
    # and compiled code persists: a third run dispatches straight into it
    third = _run_hot(executable, 15)
    assert third.jit_segments == 0
    assert third.jit_hits > 0


# -- interaction with other simulator modes -----------------------------------


def test_jit_inactive_on_the_reference_timing_path():
    # the JIT is a fast-path feature: reference interleaved timing
    # (fast_timing=False) never dispatches it
    executable = _compile_source(HOT_LOOP)
    executable._segment_jit = SegmentJIT(executable, warmup=1)
    result = _run_hot(executable, 100, fast_timing=False)
    assert result.jit_segments == 0
    assert result.jit_hits == 0


def test_jit_active_under_trace():
    # trace=True no longer forces the reference path: memo records carry
    # per-hazard stall deltas, so traced runs keep the JIT and agree
    # with an untraced run on the cycle count
    executable = _compile_source(HOT_LOOP)
    executable._segment_jit = SegmentJIT(executable, warmup=1)
    traced = _run_hot(executable, 100, trace=True)
    assert traced.jit_hits > 0
    assert traced.cycle_breakdown is not None
    assert sum(traced.cycle_breakdown.values()) == traced.cycles - 1
    plain = _run_hot(executable, 100)
    assert plain.cycles == traced.cycles


def test_jit_off_reports_zero_counters():
    executable = _compile_source(HOT_LOOP)
    result = repro.simulate(
        executable, "hot", args=(100,),
        options=repro.SimOptions(jit=False),
    )
    assert result.jit_segments == result.jit_hits == result.jit_deopts == 0
