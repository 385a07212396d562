"""Build a :class:`TargetMachine` from a Maril description.

This is the heart of the code generator generator: one pass over the
description compiles registers into the unit-aliasing model, resources into
bitmask vectors, and instructions into descriptors with analysed semantics
and selection patterns.  The pattern list preserves description order —
"the matcher examines the patterns in the order given" (paper section 2.1).
"""

from __future__ import annotations

from repro.cgg.patterns import compile_pattern
from repro.errors import MarilSemanticError
from repro.machine.instruction import InstrDesc, OperandDesc, OperandMode, analyze_semantics
from repro.machine.registers import UNIT_BITS, PhysReg, RegisterModel, RegisterSet
from repro.machine.resources import ResourceTable
from repro.machine.target import AuxRule, CallingConvention, TargetMachine
from repro.maril import ast
from repro.maril.parser import parse_maril
from repro import obs


def build_target(description: ast.Description | str, name: str = "target") -> TargetMachine:
    """Compile a (parsed or textual) Maril description into a target."""
    obs.count("cgg.builds")
    if isinstance(description, str):
        description = parse_maril(description, filename=f"<{name}>")
    return _Generator(description, name).build()


class _Generator:
    def __init__(self, description: ast.Description, name: str):
        self.d = description
        self.name = name

    def build(self) -> TargetMachine:
        registers = self._build_registers()
        resources = self._build_resources()
        target = TargetMachine(
            name=self.name,
            registers=registers,
            resources=resources,
            description=self.d,
        )
        for decl in self.d.declarations(ast.MemoryDecl):
            target.memories[decl.name] = (decl.lo, decl.hi)
        for decl in self.d.element_decls():
            target.elements.extend(decl.names)
        for decl in self.d.declarations(ast.ClockDecl):
            target.clocks.append(decl.name)
        self._build_cwvm(target)
        self._build_instructions(target)
        self._build_aux(target)
        target.glue_rules = list(self.d.glue_decls())
        return target

    # -- registers ---------------------------------------------------------

    def _build_registers(self) -> RegisterModel:
        model = RegisterModel()
        decls = self.d.declarations(ast.RegDecl)
        for decl in decls:
            model.sets[decl.name] = RegisterSet(
                name=decl.name,
                lo=decl.lo,
                hi=decl.hi,
                types=decl.types,
                clock=decl.clock,
                is_temporal=decl.is_temporal,
            )

        # group sets into files via %equiv (union-find over set names)
        parent = {name: name for name in model.sets}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        equivs = self.d.declarations(ast.EquivDecl)
        for decl in equivs:
            a, b = find(decl.wide.set_name), find(decl.narrow.set_name)
            if a != b:
                parent[a] = b

        file_ids: dict[str, int] = {}
        for name in model.sets:
            root = find(name)
            if root not in file_ids:
                file_ids[root] = len(file_ids)
            model.sets[name].file_id = file_ids[root]

        # units per register and offsets within the file
        for rset in model.sets.values():
            rset.units_per_reg = max(1, rset.size_bits // UNIT_BITS)
            rset.unit_offset = 0

        for decl in equivs:
            wide_set = model.sets[decl.wide.set_name]
            narrow_set = model.sets[decl.narrow.set_name]
            if wide_set.size_bits < narrow_set.size_bits:
                wide_set, narrow_set = narrow_set, wide_set
                wide_ref, narrow_ref = decl.narrow, decl.wide
            else:
                wide_ref, narrow_ref = decl.wide, decl.narrow
            # wide[wide_ref.index] starts at narrow[narrow_ref.index]
            narrow_unit = (
                narrow_set.unit_offset
                + (narrow_ref.index - narrow_set.lo) * narrow_set.units_per_reg
            )
            wide_set.unit_offset = narrow_unit - (
                (wide_ref.index - wide_set.lo) * wide_set.units_per_reg
            )
            if wide_set.unit_offset < 0:
                raise MarilSemanticError(
                    f"%equiv {decl.wide} {decl.narrow} places "
                    f"{wide_set.name} before the start of its file",
                    decl.location,
                )

        for rset in model.sets.values():
            top = rset.unit_offset + rset.count * rset.units_per_reg
            model.file_sizes[rset.file_id] = max(
                model.file_sizes.get(rset.file_id, 0), top
            )
        return model

    # -- resources ---------------------------------------------------------

    def _build_resources(self) -> ResourceTable:
        table = ResourceTable()
        for decl in self.d.declarations(ast.ResourceDecl):
            for index, resource in enumerate(decl.names):
                table.declare(resource, capacity=decl.capacity_of(index))
        return table

    # -- cwvm ---------------------------------------------------------------

    def _build_cwvm(self, target: TargetMachine) -> None:
        cwvm = target.cwvm
        arg_lists: dict[str, list[tuple[int, PhysReg]]] = {}
        for decl in self.d.cwvm:
            if isinstance(decl, ast.GeneralDecl):
                cwvm.general[decl.type] = decl.set_name
            elif isinstance(decl, ast.AllocableDecl):
                cwvm.allocable.extend(self._expand_ranges(decl.ranges, target))
            elif isinstance(decl, ast.CalleeSaveDecl):
                cwvm.callee_save.extend(self._expand_ranges(decl.ranges, target))
            elif isinstance(decl, ast.PointerDecl):
                reg = PhysReg(decl.ref.set_name, decl.ref.index)
                if decl.which == "sp":
                    cwvm.sp = reg
                    cwvm.stack_grows_down = "down" in decl.flags
                elif decl.which == "fp":
                    cwvm.fp = reg
                else:
                    cwvm.gp = reg
            elif isinstance(decl, ast.RetAddrDecl):
                cwvm.retaddr = PhysReg(decl.ref.set_name, decl.ref.index)
            elif isinstance(decl, ast.HardDecl):
                cwvm.hard_registers[PhysReg(decl.ref.set_name, decl.ref.index)] = (
                    decl.value
                )
            elif isinstance(decl, ast.ArgDecl):
                arg_lists.setdefault(decl.type, []).append(
                    (decl.index, PhysReg(decl.ref.set_name, decl.ref.index))
                )
            elif isinstance(decl, ast.ResultDecl):
                cwvm.results[decl.type] = PhysReg(decl.ref.set_name, decl.ref.index)
        for type_name, entries in arg_lists.items():
            cwvm.args[type_name] = [reg for _, reg in sorted(entries)]

    def _expand_ranges(self, ranges, target: TargetMachine) -> list[PhysReg]:
        registers: list[PhysReg] = []
        for rng in ranges:
            rset = target.registers.set(rng.set_name)
            lo = rset.lo if rng.lo is None else rng.lo
            hi = rset.hi if rng.hi is None else rng.hi
            registers.extend(PhysReg(rng.set_name, i) for i in range(lo, hi + 1))
        return registers

    # -- instructions -------------------------------------------------------

    def _build_instructions(self, target: TargetMachine) -> None:
        temporal_names = frozenset(
            s.name for s in target.registers.temporal_sets()
        )
        defs = {d.name: d for d in self.d.declarations(ast.DefDecl)}
        labels = {d.name: d for d in self.d.declarations(ast.LabelDecl)}

        for decl in self.d.instr_decls():
            operands = tuple(
                self._compile_operand(op, defs, labels) for op in decl.operands
            )
            desc = InstrDesc(
                mnemonic=decl.mnemonic,
                operands=operands,
                semantics=decl.semantics,
                resource_vector=target.resources.vector(decl.resources),
                cost=decl.cost,
                latency=decl.latency,
                slots=decl.slots,
                type=decl.type,
                clock=decl.clock,
                classes=frozenset(decl.classes),
                label=decl.label,
                func=decl.func,
                is_move=decl.is_move,
            )
            analyze_semantics(desc, temporal_names)
            if desc.mnemonic in target.instructions:
                # several directives may share a mnemonic (e.g. `add` with a
                # register form and an immediate form); keep them distinct by
                # suffixing an internal discriminator.
                discriminator = 2
                base = desc.mnemonic
                while f"{base}@{discriminator}" in target.instructions:
                    discriminator += 1
                desc_key = f"{base}@{discriminator}"
            else:
                desc_key = desc.mnemonic
            target.instructions[desc_key] = desc
            pattern = compile_pattern(desc, temporal_names)
            if pattern is not None:
                desc.patterns.append(pattern)
                target.pattern_order.append(pattern)

    def _compile_operand(self, spec, defs, labels) -> OperandDesc:
        if isinstance(spec, ast.RegOperand):
            if spec.index is None:
                return OperandDesc(OperandMode.REG, set_name=spec.set_name)
            return OperandDesc(
                OperandMode.FIXED_REG, set_name=spec.set_name, reg_index=spec.index
            )
        assert isinstance(spec, ast.ImmOperand)
        if spec.def_name in defs:
            decl = defs[spec.def_name]
            return OperandDesc(
                OperandMode.IMM,
                def_name=decl.name,
                lo=decl.lo,
                hi=decl.hi,
                absolute="abs" in decl.flags,
            )
        decl = labels[spec.def_name]
        return OperandDesc(
            OperandMode.LABEL,
            def_name=decl.name,
            lo=decl.lo,
            hi=decl.hi,
            absolute="abs" in decl.flags,
        )

    # -- aux latencies -------------------------------------------------------

    def _build_aux(self, target: TargetMachine) -> None:
        for decl in self.d.aux_decls():
            rule = AuxRule(
                first=decl.first,
                second=decl.second,
                first_operand=decl.first_operand,
                second_operand=decl.second_operand,
                latency=decl.latency,
            )
            target.aux_rules[(decl.first, decl.second)] = rule
