"""Tests for the digest-free timing transition chain.

Generated code receives the block-timing memo's per-segment transition
tables, so warm boundaries commit timing with one integer-tuple dict
lookup.  The sweep here checks, through the shared differential harness
(:mod:`tests.differential`), that chained runs — and the memoized stall
attribution of ``trace=True`` runs — are *bit-identical* to the
reference interleaved model.  The remaining tests pin the chain's
contracts: steady state computes no digests, trace and plain runs share
one memo, and the tables ``close()`` fills are the ones generated code
probes.
"""

import pytest

from repro.backend.insts import Imm, Reg
from repro.errors import MarionError
from repro.machine.registers import PhysReg
from repro.sim.blockcache import BlockTimingCache
from repro.sim.cache import DirectMappedCache

from tests.differential import (
    STRATEGIES,
    TARGETS,
    check_against_reference,
    run,
)
from tests.helpers import build as instr

import repro
from repro.workloads import kernel_by_id


def _compile(spec, target, strategy):
    try:
        return repro.compile_c(
            spec.source, target, repro.CompileOptions(strategy=strategy)
        )
    except MarionError as error:
        pytest.skip(f"{target}/{strategy} does not compile K{spec.id}: {error}")


def _check_traced(kernel, target, strategy="postpass"):
    """The ``trace=True`` fast run matches the reference on every
    observable and reproduces the reference accounting model's
    breakdown exactly."""
    traced = check_against_reference("traced", kernel, target, strategy)
    reference = run(kernel, target, strategy, "reference_traced")
    assert reference.cycles == run(kernel, target, strategy, "reference").cycles
    assert traced.cycle_breakdown == reference.cycle_breakdown
    # the accounting identity survives memoization
    assert sum(traced.cycle_breakdown.values()) == traced.cycles - 1
    # ...and the run really consulted the memo
    assert traced.block_cache_hits + traced.block_cache_misses > 0


# -- differential sweep -------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("target", TARGETS)
def test_chain_bit_identical_grid(target, strategy):
    _check_traced(1, target, strategy)


def test_k7_wide_loop_bit_identical():
    # K7 (equation of state) carries more live producers across the back
    # edge — a harder digest/transition case than K1.  Its chained
    # (JIT-on) boundaries must credit memo hits exactly like the
    # interpreter's close() calls.
    chained = check_against_reference("default", 7, "r2000")
    check_against_reference("interpreted", 7, "r2000")
    assert chained.block_cache_hits > 0


@pytest.mark.parametrize("target", ("r2000", "i860"))
def test_trace_breakdown_rides_fast_path_bit_identical(target):
    """``trace=True`` runs take the fast path (records memoize their
    per-hazard stall deltas) on the wide K7 loop too."""
    _check_traced(7, target, "ips")


# -- steady state is digest-free ----------------------------------------------


def test_warm_run_computes_no_digests():
    """The tentpole's proof obligation: a second run over the same
    executable re-derives no pipeline digests at all."""
    spec = kernel_by_id(1)
    executable = _compile(spec, "r2000", "postpass")
    loop, n = spec.args
    n = max(4, int(n * 0.05))
    options = repro.SimOptions(cache=DirectMappedCache())
    first = repro.simulate(executable, "bench", args=(loop, n), options=options)
    second = repro.simulate(executable, "bench", args=(loop, n), options=options)
    assert first.timing_digests > 0
    assert second.timing_digests == 0
    assert second.cycles == first.cycles
    # ...and well under the 1% acceptance ceiling even on the cold run
    lookups = first.block_cache_hits + first.block_cache_misses
    assert first.timing_digests <= max(1, lookups * 0.01)


def test_digest_counter_counts_first_visits_only(toyp):
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    cache = BlockTimingCache(toyp, [nop_like], None)
    delta, exit_id, _ = cache.close(0, 0, -1, 0, [], cache.EMPTY_ID, 0)
    assert cache.digests_computed == 1
    # the same transition again: a pure table hit, no digest
    again = cache.close(0, 0, -1, 0, [], cache.EMPTY_ID, delta + 1)
    assert again[:2] == (delta, exit_id)
    assert cache.digests_computed == 1
    assert (cache.hits, cache.misses) == (1, 1)


# -- memoized stall attribution -----------------------------------------------


def test_warm_trace_run_computes_no_digests():
    """Stall attribution is digest-free at steady state too: a second
    trace run over the same executable replays nothing."""
    spec = kernel_by_id(1)
    executable = _compile(spec, "r2000", "postpass")
    loop, n = spec.args
    n = max(4, int(n * 0.05))
    options = repro.SimOptions(cache=DirectMappedCache(), trace=True)
    first = repro.simulate(executable, "bench", args=(loop, n), options=options)
    second = repro.simulate(executable, "bench", args=(loop, n), options=options)
    assert second.timing_digests == 0
    assert second.cycles == first.cycles
    assert second.cycle_breakdown == first.cycle_breakdown


def test_trace_and_plain_runs_share_one_memo():
    """Trace and non-trace runs hit the same transition records — a
    memo warmed by a plain run leaves a following trace run nothing to
    replay, and vice versa."""
    spec = kernel_by_id(1)
    executable = _compile(spec, "r2000", "postpass")
    loop, n = spec.args
    n = max(4, int(n * 0.05))
    plain = repro.simulate(
        executable, "bench", args=(loop, n),
        options=repro.SimOptions(cache=DirectMappedCache()),
    )
    traced = repro.simulate(
        executable, "bench", args=(loop, n),
        options=repro.SimOptions(cache=DirectMappedCache(), trace=True),
    )
    assert plain.timing_digests > 0
    assert traced.timing_digests == 0
    assert traced.cycles == plain.cycles


# -- transition tables --------------------------------------------------------


def test_transitions_accessor_is_live(toyp):
    """``transitions()`` hands out the same dict ``close()`` updates in
    place — the contract generated code relies on when it binds a
    table's ``.get`` once per call."""
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    cache = BlockTimingCache(toyp, [nop_like], None)
    table = cache.transitions(0, 0, -1)
    assert table == {}
    delta, exit_id, _ = cache.close(0, 0, -1, 0, [], cache.EMPTY_ID, 0)
    assert table[(cache.EMPTY_ID, 0)][:2] == (delta, exit_id)
    assert cache.transitions(0, 0, -1) is table


def test_chained_exit_id_is_next_entry_id(toyp):
    """The chain's soundness hinge: the exit id ``close()`` returns keys
    the next boundary's lookup directly."""
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    cache = BlockTimingCache(toyp, [nop_like, nop_like], None)
    delta, mid_id, _ = cache.close(0, 0, -1, 0, [], cache.EMPTY_ID, 0)
    cache.close(1, 1, -1, 0, [], mid_id, delta)
    # the second segment's record is keyed by the first one's exit id
    assert (mid_id, 0) in cache.transitions(1, 1, -1)


def test_export_preload_round_trip(toyp):
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    cache = BlockTimingCache(toyp, [nop_like, nop_like], None)
    delta, mid_id, _ = cache.close(0, 0, -1, 0, [], cache.EMPTY_ID, 0)
    cache.close(1, 1, -1, 0, [], mid_id, delta)
    snapshot = cache.export()

    fresh = BlockTimingCache(toyp, [nop_like, nop_like], None)
    assert fresh.preload(snapshot)
    assert fresh.digests == cache.digests
    assert fresh.segments == cache.segments
    assert fresh.entries == cache.entries
    # a preloaded transition is a pure hit: no replay, no digest
    again = fresh.close(0, 0, -1, 0, [], fresh.EMPTY_ID, 0)
    assert again[:2] == (delta, mid_id)
    assert fresh.digests_computed == 0
    assert (fresh.hits, fresh.misses) == (1, 0)


def test_preload_rejects_malformed_payloads(toyp):
    nop_like = instr(
        toyp, "addi", Reg(PhysReg("r", 2)), Reg(PhysReg("r", 6)), Imm(1)
    )
    good = BlockTimingCache(toyp, [nop_like], None)
    record = good.close(0, 0, -1, 0, [], good.EMPTY_ID, 0)
    snapshot = good.export()

    # a record pointing past the digest list must be rejected wholesale
    bad = {
        "digests": list(snapshot["digests"]),
        "segments": {(0, 0, -1): {(0, 0): (record[0], 999, record[2])}},
    }
    fresh = BlockTimingCache(toyp, [nop_like], None)
    assert not fresh.preload(bad)
    assert fresh.segments == {} and fresh.entries == 0

    # ...as must a record without its stall-delta tuple
    bad["segments"] = {(0, 0, -1): {(0, 0): record[:2]}}
    fresh = BlockTimingCache(toyp, [nop_like], None)
    assert not fresh.preload(bad)
    assert fresh.segments == {} and fresh.entries == 0

    # ...as must a payload missing its digest list entirely
    fresh = BlockTimingCache(toyp, [nop_like], None)
    assert not fresh.preload({"segments": {}})

    # a warmed cache refuses any preload
    assert not good.preload(snapshot)
