"""The consolidated :class:`repro.CompileOptions` record, and the removed
pre-1.1 keyword spellings raising :class:`TypeError`."""

import dataclasses

import pytest

import repro
from repro.backend.codegen import CodeGenerator
from repro.backend.strategies import get_strategy
from repro.options import CompileOptions

SOURCE = """
int bench(int n) {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < n; i = i + 1) {
        acc = acc + i * i;
    }
    return acc;
}
"""


# -- the record itself -----------------------------------------------------


def test_defaults():
    options = CompileOptions()
    assert options.strategy == "postpass"
    assert options.heuristic == "maxdist"
    assert options.schedule is True
    assert options.fill_delay_slots is False
    assert options.memory_size == 1 << 20


def test_frozen_and_hashable():
    options = CompileOptions(strategy="ips")
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.strategy = "rase"
    assert options == CompileOptions(strategy="ips")
    assert {options: "same"}[CompileOptions(strategy="ips")] == "same"


def test_replace_returns_new_record():
    base = CompileOptions()
    changed = base.replace(strategy="rase", schedule=False)
    assert changed.strategy == "rase" and changed.schedule is False
    assert base.strategy == "postpass"  # original untouched


def test_validation():
    with pytest.raises(repro.MarionError, match="unknown strategy"):
        CompileOptions(strategy="magic")
    with pytest.raises(ValueError, match="heuristic"):
        CompileOptions(heuristic="bogus")


def test_exported_at_top_level():
    assert repro.CompileOptions is CompileOptions


# -- the removed legacy spellings --------------------------------------------


def test_compile_c_positional_strategy_string_raises():
    with pytest.raises(
        TypeError, match="options must be a CompileOptions, not str"
    ):
        repro.compile_c(SOURCE, "r2000", "ips")


def test_compile_c_rejects_options_plus_legacy_kwargs():
    with pytest.raises(TypeError, match="strategy"):
        repro.compile_c(SOURCE, "r2000", CompileOptions(), strategy="rase")


def test_compile_c_modern_call_does_not_warn(recwarn):
    repro.compile_c(SOURCE, "r2000", CompileOptions())
    assert not [
        w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
    ]


def test_codegen_threads_options_through():
    target = repro.load_target("r2000")
    options = CompileOptions(
        strategy="ips", heuristic="fifo", fill_delay_slots=True
    )
    generator = CodeGenerator(target, options)
    assert generator.options is options
    assert generator.strategy_name == "ips"
    assert generator.fill_delay_slots is True
    assert generator.strategy.options is options
    assert generator.strategy.heuristic == "fifo"


def test_codegen_legacy_kwargs_raise():
    target = repro.load_target("r2000")
    with pytest.raises(TypeError, match="CodeGenerator.*strategy"):
        CodeGenerator(target, strategy="rase")


def test_get_strategy_builds_options_when_missing():
    strategy = get_strategy("rase", heuristic="fifo", schedule=False)
    assert strategy.options == CompileOptions(
        strategy="rase", heuristic="fifo", schedule=False
    )
    assert strategy.heuristic == "fifo"
    assert strategy.schedule_enabled is False


def test_memory_size_reaches_the_linker():
    small = repro.compile_c(
        SOURCE, "r2000", CompileOptions(memory_size=1 << 16)
    )
    assert small.memory_size == 1 << 16
