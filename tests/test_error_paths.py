"""Error-path and robustness tests across the stack."""

import pytest

import repro
from repro.cgg import build_target
from repro.errors import (
    AllocationError,
    CSemanticError,
    CSyntaxError,
    MarilSemanticError,
    MarilSyntaxError,
    MarionError,
    SchedulingError,
    SelectionError,
    SourceLocation,
    error_payload,
    reconstruct_error,
)


def test_source_location_renders():
    location = SourceLocation("file.c", 3, 9)
    assert str(location) == "file.c:3:9"
    error = CSyntaxError("boom", location)
    assert "file.c:3:9" in str(error)
    assert error.message == "boom"


def test_error_hierarchy():
    for cls in (
        MarilSyntaxError,
        MarilSemanticError,
        CSyntaxError,
        CSemanticError,
        SelectionError,
        AllocationError,
    ):
        assert issubclass(cls, MarionError)


def test_selection_error_names_target_and_node():
    # TOYP has no float support at all
    src = "float f(float x) { return x; }"
    with pytest.raises((SelectionError, MarionError)):
        repro.compile_c(src, "toyp")


def test_too_many_int_arguments_rejected():
    src = """
    int g(int a, int b, int c) { return a + b + c; }
    int f(void) { return g(1, 2, 3); }
    """
    with pytest.raises(SelectionError, match="argument register"):
        repro.compile_c(src, "toyp")  # TOYP passes two ints


def test_missing_nop_reported():
    description = """
    declare {
        %reg r[0:3] (int);
        %resource EX;
        %def c [-8:7];
        %label lab [-8:7] +relative;
        %memory m[0:255];
    }
    cwvm { %general (int) r; %sp r[3]; %fp r[2]; %hard r[0] 0; }
    instr {
        %instr add r, r, r (int) {$1 = $2 + $3;} [EX] (1,1,0);
    }
    """
    target = build_target(description)
    with pytest.raises(MarionError, match="nop"):
        target.nop


def test_unknown_instruction_lookup(toyp):
    with pytest.raises(MarionError, match="frobnicate"):
        toyp.instruction("frobnicate")
    with pytest.raises(MarionError, match="label"):
        toyp.instruction_by_label("no.such.label")


def test_unknown_move_set(toyp):
    with pytest.raises(MarionError, match="%move"):
        toyp.move_for_set("zz")


def test_unknown_simulated_function():
    exe = repro.compile_c("int f(void) { return 1; }", "toyp")
    with pytest.raises(MarionError, match="no function"):
        repro.simulate(exe, "ghost")


def test_glue_depth_limit_terminates():
    """A pathological self-growing glue rule must not hang selection."""
    description = """
    declare {
        %reg r[0:7] (int);
        %resource EX;
        %def c16 [-32768:32767];
        %label lab [-64:63] +relative;
        %label flab [-64:63] +abs;
        %memory m[0:255];
    }
    cwvm {
        %general (int) r;
        %allocable r[1:5];
        %sp r[7]; %fp r[6]; %retaddr r[1]; %hard r[0] 0;
        %arg (int) r[2] 1; %result r[2] (int);
    }
    instr {
        %instr li r, r[0], #c16 (int) {$1 = $3;} [EX] (1,1,0);
        %instr add r, r, r (int) {$1 = $2 + $3;} [EX] (1,1,0);
        %instr jmp #lab {goto $1;} [EX] (1,1,0);
        %instr call #flab {call $1;} [EX] (1,1,0);
        %instr ret {ret;} [EX] (1,1,0);
        %instr nop {;} [EX] (1,1,0);
        %move [mv] add r, r, r[0] {$1 = $2;} [EX] (1,1,0);
        /* no subtraction instruction; this rule only grows the tree */
        %glue r, r {($1 - $2) ==> (($1 - $2) - 0);};
    }
    """
    target = build_target(description)
    from repro.backend.codegen import CodeGenerator
    from repro.frontend import compile_to_il

    source = "int f(int a) { return a - 3; }"
    with pytest.raises(SelectionError):
        CodeGenerator(target).compile_il(compile_to_il(source))


def test_allocation_error_when_no_registers():
    """A target with one allocable register cannot hold two live doubles."""
    description = """
    declare {
        %reg r[0:7] (int);
        %resource EX;
        %def c16 [-32768:32767];
        %label lab [-64:63] +relative;
        %label flab [-64:63] +abs;
        %memory m[0:65535];
    }
    cwvm {
        %general (int) r;
        %allocable r[1:1];
        %sp r[7]; %fp r[6]; %retaddr r[5]; %hard r[0] 0;
        %arg (int) r[2] 1; %result r[2] (int);
    }
    instr {
        %instr li r, r[0], #c16 (int) {$1 = $3;} [EX] (1,1,0);
        %instr add r, r, r (int) {$1 = $2 + $3;} [EX] (1,1,0);
        %instr mul r, r, r (int) {$1 = $2 * $3;} [EX] (1,2,0);
        %instr jmp #lab {goto $1;} [EX] (1,1,0);
        %instr call #flab {call $1;} [EX] (1,1,0);
        %instr ret {ret;} [EX] (1,1,0);
        %instr nop {;} [EX] (1,1,0);
        %move [mv] add r, r, r[0] {$1 = $2;} [EX] (1,1,0);
    }
    """
    target = build_target(description)
    # no load/store instructions -> spill code cannot be generated, and one
    # register cannot hold two simultaneously live values
    source = "int f(int a) { return (a + 1) * (a + 2); }"
    from repro.backend.codegen import CodeGenerator
    from repro.frontend import compile_to_il

    with pytest.raises(MarionError):
        CodeGenerator(target).compile_il(compile_to_il(source))


def test_simulator_pc_bounds():
    from repro.errors import SimulationError

    exe = repro.compile_c("void f(void) { }", "toyp")
    sim = repro.Simulator(exe)
    # corrupting the return address sends the pc out of the program
    result = sim.run("f")  # normal run is fine
    assert result.instructions >= 1


def test_scheduling_error_explains_the_stuck_block():
    # the one known trigger: RASE's tight-limit estimate pass on K8/i860
    # (the deadlock itself is pinned by the xfail cell in test_jit.py)
    from repro.workloads import kernel_by_id

    with pytest.raises(SchedulingError) as caught:
        repro.compile_c(
            kernel_by_id(8).source,
            "i860",
            repro.CompileOptions(strategy="rase"),
        )
    error = caught.value
    details = error.details
    assert details["remaining"] > 0
    assert details["cycle"] > 0
    assert details["register_limit"] == 4
    assert details["live"] >= 0
    assert 0 < len(details["unscheduled"]) <= details["remaining"]
    assert all(isinstance(text, str) for text in details["unscheduled"])
    assert details["temporal_groups"]
    assert f"{details['remaining']} instructions remain" in str(error)
    # the fields survive the grid's cross-process payload round trip
    payload = error_payload(error)
    assert payload["type"] == "SchedulingError"
    for name, value in details.items():
        assert payload["details"][name] == value
    rebuilt = reconstruct_error(payload)
    assert isinstance(rebuilt, SchedulingError)
    assert rebuilt.remaining == details["remaining"]
    assert rebuilt.temporal_groups == details["temporal_groups"]
