"""The simulator's one differential harness.

The fast path (:mod:`repro.sim.blockcache` timing, the segment JIT with
its trace superblocks and inline transition-table probes) must be
*bit-identical* to the reference interleaved execute+time loop
(``SimOptions(fast_timing=False)``) — not approximately equal.  A cell
(kernel × target × strategy, plus the cache / timing variant) is
simulated on the reference path and under three fast configurations —
the default, ``jit=False`` (the closure interpreter on the fast loop)
and ``trace=True`` (memoized stall attribution).

Each run is made once per session and shared: ``test_block_timing``
checks the default configuration, ``test_jit`` the interpreted one and
``test_timing_chain`` the traced one, so the sweep costs one pass over
the cells however many modules inspect it.
"""

import functools

import pytest

import repro
from repro.errors import MarionError
from repro.sim.cache import DirectMappedCache
from repro.sim.jit import SegmentJIT
from repro.workloads import kernel_by_id

TARGETS = ("toyp", "r2000", "m88000", "i860")
STRATEGIES = ("postpass", "ips", "rase")

#: every observable a fast run must reproduce bit-for-bit.  The memo
#: counters are compared among the fast configurations only (the
#: reference path never touches the memo): a compiled boundary counts its
#: hit inside generated code, an interpreted one inside ``close()``, and
#: the totals must still agree exactly.
COMPARED_FIELDS = (
    "cycles",
    "instructions",
    "loads",
    "stores",
    "cache_hits",
    "cache_misses",
    "block_counts",
    "return_value",
    "block_cache_hits",
    "block_cache_misses",
)

#: the fast configurations checked against the reference
FAST_CONFIGS = {
    "default": {},
    "interpreted": {"jit": False},
    "traced": {"trace": True},
}

#: low JIT warmup so the scaled-down test kernels still compile their loops
WARMUP = 2

SCALE = 0.03


@functools.lru_cache(maxsize=None)
def _executable(kernel, target, strategy):
    spec = kernel_by_id(kernel)
    try:
        return repro.compile_c(
            spec.source, target, repro.CompileOptions(strategy=strategy)
        )
    except MarionError as error:
        return f"{target}/{strategy} does not compile K{kernel}: {error}"


@functools.lru_cache(maxsize=None)
def run(kernel, target, strategy, config, cache=True, model_timing=True):
    """Simulate one cell under ``config`` — a :data:`FAST_CONFIGS` name,
    ``"reference"`` or ``"reference_traced"``; the result is shared."""
    executable = _executable(kernel, target, strategy)
    if isinstance(executable, str):
        pytest.skip(executable)
    if config.startswith("reference"):
        extra = {"fast_timing": False, "trace": config == "reference_traced"}
    else:
        # each fast configuration starts from a cold timing memo and a
        # fresh low-warmup JIT, so memo counters are comparable across them
        executable.__dict__.pop("_block_timing", None)
        executable._segment_jit = SegmentJIT(executable, warmup=WARMUP)
        extra = dict(FAST_CONFIGS[config], fast_timing=True)
    loop, n = kernel_by_id(kernel).args
    options = repro.SimOptions(
        cache=DirectMappedCache() if cache else None,
        model_timing=model_timing,
        **extra,
    )
    return repro.simulate(
        executable, "bench", args=(loop, max(4, int(n * SCALE))), options=options
    )


def check_against_reference(
    config, kernel, target, strategy="postpass", *, cache=True,
    model_timing=True, fields=COMPARED_FIELDS,
):
    """Assert the ``config`` run of one cell agrees with the reference on
    every field in ``fields``; return the run."""
    cell = (kernel, target, strategy)
    variant = {"cache": cache, "model_timing": model_timing}
    reference = run(*cell, "reference", **variant)
    assert reference.block_cache_hits == reference.block_cache_misses == 0
    assert reference.jit_hits == reference.jit_segments == 0
    fast = run(*cell, config, **variant)
    default = run(*cell, "default", **variant)
    # the memo counters, and with timing off the data-cache counters
    # (only the reference pipeline model consults the cache), have no
    # reference value: those fields are compared against the default run
    fast_only = {"block_cache_hits", "block_cache_misses"}
    if not model_timing:
        fast_only |= {"cache_hits", "cache_misses"}
    mismatches = [
        field
        for field in fields
        if getattr(fast, field)
        != getattr(default if field in fast_only else reference, field)
    ]
    assert mismatches == []
    # the default run really took the fast path and ran compiled code
    if model_timing:
        assert default.block_cache_hits + default.block_cache_misses > 0
    assert default.jit_hits > 0 and default.jit_segments > 0
    return fast
