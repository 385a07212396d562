"""Unit tests for code DAG construction (edge types, aux latencies,
protection edges)."""

import random

import pytest

import repro
from repro.backend import codedag, scheduler
from repro.backend.codedag import build_code_dag
from repro.backend.insts import Imm, Reg, make_instr
from repro.errors import SchedulingError
from repro.il.node import PseudoReg
from repro.machine.registers import PhysReg
from repro.workloads import kernel_by_id


from tests.helpers import build as _build


def instr(target, mnemonic, *operands):
    return _build(target, mnemonic, *operands)


def edge_between(dag, i, j):
    for edge in dag.nodes[i].succs:
        if edge.dst is dag.nodes[j]:
            return edge
    return None


@pytest.fixture()
def regs():
    return {
        "a": PseudoReg("int", "a"),
        "b": PseudoReg("int", "b"),
        "c": PseudoReg("int", "c"),
        "p": PseudoReg("int", "p"),
    }


def test_true_dependence_labelled_with_latency(toyp, regs):
    a, b, c, p = regs["a"], regs["b"], regs["c"], regs["p"]
    instrs = [
        instr(toyp, "ld", Reg(a), Reg(p), Imm(0)),  # ld latency 3
        instr(toyp, "addi", Reg(b), Reg(a), Imm(1)),
    ]
    dag = build_code_dag(instrs, toyp)
    edge = edge_between(dag, 0, 1)
    assert edge is not None
    assert edge.kind == 1
    assert edge.latency == 3


def test_independent_instructions_have_no_edge(toyp, regs):
    a, b = regs["a"], regs["b"]
    instrs = [
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(1)),
        instr(toyp, "addi", Reg(b), Reg(regs["p"]), Imm(2)),
    ]
    dag = build_code_dag(instrs, toyp)
    assert edge_between(dag, 0, 1) is None


def test_memory_ordering_edges(toyp, regs):
    a, p = regs["a"], regs["p"]
    instrs = [
        instr(toyp, "st", Reg(a), Reg(p), Imm(0)),
        instr(toyp, "ld", Reg(regs["b"]), Reg(p), Imm(8)),
        instr(toyp, "st", Reg(a), Reg(p), Imm(16)),
    ]
    dag = build_code_dag(instrs, toyp)
    assert edge_between(dag, 0, 1).kind == 2  # load after store
    assert edge_between(dag, 1, 2).kind == 2  # store after load
    assert edge_between(dag, 0, 2).kind == 2  # store after store


def test_anti_dependence_edges(toyp, regs):
    a, b = regs["a"], regs["b"]
    instrs = [
        instr(toyp, "addi", Reg(b), Reg(a), Imm(1)),  # uses a
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(2)),  # redefines a
    ]
    dag = build_code_dag(instrs, toyp)
    edge = edge_between(dag, 0, 1)
    assert edge.kind == 3
    assert edge.latency == 0


def test_output_dependence_edges(toyp, regs):
    a = regs["a"]
    instrs = [
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(1)),
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(2)),
    ]
    dag = build_code_dag(instrs, toyp)
    edge = edge_between(dag, 0, 1)
    assert edge.kind == 3
    assert edge.latency == 1


def test_anti_edges_can_be_excluded(toyp, regs):
    a, b = regs["a"], regs["b"]
    instrs = [
        instr(toyp, "addi", Reg(b), Reg(a), Imm(1)),
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(2)),
    ]
    dag = build_code_dag(instrs, toyp, include_anti=False)
    assert edge_between(dag, 0, 1) is None


def test_physical_register_aliasing_dependence(toyp):
    """d[1] overlays r[2]/r[3]: writing d[1] then reading r[2] is a true
    dependence through the shared unit."""
    d1 = PhysReg("d", 1)
    r2 = PhysReg("r", 2)
    dst = PseudoReg("int", "t")
    instrs = [
        instr(toyp, "fmov.d", Reg(d1), Reg(PhysReg("d", 2))),
        instr(toyp, "addi", Reg(dst), Reg(r2), Imm(0)),
    ]
    dag = build_code_dag(instrs, toyp)
    edge = edge_between(dag, 0, 1)
    assert edge is not None
    assert edge.kind == 1


def test_aux_latency_override(toyp):
    d1, d2, d3 = PhysReg("d", 1), PhysReg("d", 2), PhysReg("d", 3)
    base = PseudoReg("int", "base")
    instrs = [
        instr(toyp, "fadd.d", Reg(d1), Reg(d2), Reg(d3)),
        instr(toyp, "st.d", Reg(d1), Reg(base), Imm(0)),
    ]
    dag = build_code_dag(instrs, toyp)
    assert edge_between(dag, 0, 1).latency == 7  # %aux overrides 6


def test_aux_requires_matching_operands(toyp):
    d1, d2, d3 = PhysReg("d", 1), PhysReg("d", 2), PhysReg("d", 3)
    base = PseudoReg("int", "base")
    instrs = [
        instr(toyp, "fadd.d", Reg(d1), Reg(d2), Reg(d3)),
        instr(toyp, "st.d", Reg(d2), Reg(base), Imm(0)),  # stores d2, not d1
    ]
    dag = build_code_dag(instrs, toyp)
    # no register dependence d1->store; only a type-2/3 relationship may
    # exist, so check the true-dep latency is NOT applied anywhere
    edge = edge_between(dag, 0, 1)
    assert edge is None or edge.latency != 7


def test_priorities_reflect_longest_path(toyp, regs):
    a, b, c, p = regs["a"], regs["b"], regs["c"], regs["p"]
    instrs = [
        instr(toyp, "ld", Reg(a), Reg(p), Imm(0)),  # latency 3
        instr(toyp, "addi", Reg(b), Reg(a), Imm(1)),  # latency 1
        instr(toyp, "addi", Reg(c), Reg(b), Imm(1)),  # leaf
    ]
    dag = build_code_dag(instrs, toyp)
    assert dag.nodes[2].priority == 1
    assert dag.nodes[1].priority == 2
    assert dag.nodes[0].priority == 5


def test_code_thread_is_topological(toyp, regs):
    a, b = regs["a"], regs["b"]
    instrs = [
        instr(toyp, "addi", Reg(a), Reg(regs["p"]), Imm(1)),
        instr(toyp, "addi", Reg(b), Reg(a), Imm(1)),
        instr(toyp, "st", Reg(b), Reg(regs["p"]), Imm(0)),
    ]
    dag = build_code_dag(instrs, toyp)
    for node in dag.nodes:
        for edge in node.succs:
            assert edge.src.index < edge.dst.index


def test_temporal_edges_marked_with_clock(i860):
    d4, d5, d6 = PhysReg("d", 4), PhysReg("d", 5), PhysReg("d", 6)
    instrs = [
        instr(i860, "M1", Reg(d4), Reg(d5)),
        instr(i860, "M2"),
        instr(i860, "M3"),
        instr(i860, "FWBM", Reg(d6)),
    ]
    dag = build_code_dag(instrs, i860)
    edge = edge_between(dag, 0, 1)
    assert edge.is_temporal
    assert edge.clock == "clk_m"
    assert dag.sequence_head(dag.nodes[3], "clk_m") is dag.nodes[0]
    assert dag.sequence_of(dag.nodes[0], "clk_m") == set(dag.nodes)


def test_protection_edge_added_for_alternate_entry(i860):
    """Figure 6: p affects clk_m and feeds r (an alternate entry into the
    temporal sequence); a protection edge p -> head must exist."""
    d4, d5, d6, d7, d8 = (PhysReg("d", i) for i in range(4, 9))
    # q-sequence: M1a (head) -> M2 -> M3 -> FWBM
    # p: a separate M-launching sub-op whose result feeds... we model the
    # paper's shape with A1M (reads m3, in add pipe) fed by a multiply:
    instrs = [
        instr(i860, "M1", Reg(d4), Reg(d5)),  # q (head of sequence)
        instr(i860, "M2"),
        instr(i860, "M3"),
        instr(i860, "FWBM", Reg(d6)),  # r's alternate entry producer below
        instr(i860, "A1", Reg(d6), Reg(d7)),  # alternate entry into a-pipe
        instr(i860, "A2"),
        instr(i860, "A3"),
        instr(i860, "FWBA", Reg(d8)),
    ]
    dag = build_code_dag(instrs, i860)
    # the A1 node's sequence on clk_a has an alternate entry from FWBM whose
    # ancestors affect clk_m -- but not clk_a, so no protection edge is
    # required; the DAG must simply be acyclic and schedulable
    for node in dag.nodes:
        for edge in node.succs:
            assert edge.src is not edge.dst


# -- protection edges against the reference search ---------------------------


def reference_protection_edges(dag, add_edge):
    """The section 4.6 search as first written: a DFS over the ancestors
    of every alternate entry, and a DFS from the head for every
    candidate.  Quadratic, but obviously the paper's rule; the bitset
    builder must add exactly the edges this adds."""
    added = 0
    for clock in sorted({e.clock for n in dag.nodes for e in n.succs if e.is_temporal}):
        members: dict[int, set] = {}
        for node in dag.nodes:
            if not any(e.is_temporal and e.clock == clock for e in node.preds):
                continue
            alternates = [
                e for e in node.preds if not (e.is_temporal and e.clock == clock)
            ]
            if not alternates:
                continue
            head = dag.sequence_head(node, clock)
            sequence = members.setdefault(head.index, dag.sequence_of(head, clock))
            for entry in alternates:
                for ancestor in _walk(entry.src, "preds", "src"):
                    if ancestor in sequence:
                        continue
                    if ancestor.instr.desc.affects_clock == clock and not any(
                        n is ancestor for n in _walk(head, "succs", "dst")
                    ):
                        added += add_edge(ancestor, head, 0, 4)
    return added


def _walk(node, edges, end):
    """``node`` and everything reachable from it along ``edges``."""
    seen = {id(node)}
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for edge in getattr(current, edges):
            nxt = getattr(edge, end)
            if id(nxt) not in seen:
                seen.add(id(nxt))
                stack.append(nxt)


def edge_tuples(dag, kind=None):
    return {
        (e.src.index, e.dst.index, e.latency, e.kind)
        for n in dag.nodes
        for e in n.succs
        if kind is None or e.kind == kind
    }


def reference_dag(monkeypatch, instrs, target, include_anti=True):
    with monkeypatch.context() as patch:
        patch.setattr(codedag, "_add_protection_edges", reference_protection_edges)
        return codedag.build_code_dag(instrs, target, include_anti)


def assert_acyclic(dag):
    indegree = {n: len(n.preds) for n in dag.nodes}
    ready = [n for n in dag.nodes if not indegree[n]]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for edge in node.succs:
            indegree[edge.dst] -= 1
            if not indegree[edge.dst]:
                ready.append(edge.dst)
    assert seen == len(dag.nodes)


def test_protection_edges_match_reference_on_i860_kernels(i860, monkeypatch):
    """Every block the i860 schedules for K7 and K8, under all three
    strategies, gets the reference search's protection edges."""
    blocks = []
    build = scheduler.build_code_dag

    def capture(instrs, target, include_anti=True):
        dag = build(instrs, target, include_anti)
        # compare now: allocation rewrites these instructions in place
        oracle = reference_dag(monkeypatch, instrs, target, include_anti)
        blocks.append((edge_tuples(dag), edge_tuples(oracle), edge_tuples(dag, 4)))
        return dag

    monkeypatch.setattr(scheduler, "build_code_dag", capture)
    for kernel in (kernel_by_id(7), kernel_by_id(8)):
        for strategy in ("postpass", "ips", "rase"):
            try:
                repro.compile_c(
                    kernel.source, i860, repro.CompileOptions(strategy=strategy)
                )
            except SchedulingError:
                # K8 under RASE: the blocks before the stuck one still count
                assert (kernel.id, strategy) == (8, "rase")
    assert len(blocks) > 50
    assert sum(len(protection) for _, _, protection in blocks) > 0
    for ours, oracle, _ in blocks:
        assert ours == oracle


def test_protection_edge_update_sees_earlier_edges(i860, monkeypatch):
    """An edge added for one sequence can make a later sequence's head
    reach a candidate ancestor.  Here M3/FWBM (head 0) and M1/M2 (head 1)
    are two clk_m sequences with crossed anti-dependences.  Entering M2
    from M3 adds 0 -> 1; then, entering FWBM from M1, head 0 reaches M1
    through that new edge, so 1 -> 0 must not be added (it would close a
    cycle).  Reachability that ignored the first edge would add it."""
    d4 = Reg(PhysReg("d", 4))
    instrs = [
        instr(i860, "M3"),
        instr(i860, "M1", d4, d4),
        instr(i860, "M2"),
        instr(i860, "FWBM", d4),
    ]
    dag = build_code_dag(instrs, i860)
    assert edge_tuples(dag, 4) == {(0, 1, 0, 4)}
    assert edge_between(dag, 1, 0) is None
    assert_acyclic(dag)
    assert edge_tuples(dag) == edge_tuples(reference_dag(monkeypatch, instrs, i860))


def test_protection_edges_match_reference_on_random_blocks(i860, monkeypatch):
    """Random straight-line mixes of the i860's pipeline sub-operations,
    over few registers so that sequences cross and entries abound."""
    rng = random.Random(1991)
    shapes = {
        "M1": 2, "M2": 0, "M3": 0, "FWBM": 1,
        "A1": 2, "A2": 0, "A3": 0, "FWBA": 1, "A1M": 1,
    }
    protected = 0
    for _ in range(300):
        regs = [Reg(PhysReg("d", 4 + 2 * i)) for i in range(rng.randrange(1, 4))]
        spec = [
            (op, [rng.choice(regs) for _ in range(shapes[op])])
            for op in (rng.choice(sorted(shapes)) for _ in range(rng.randrange(4, 14)))
        ]
        dag = build_code_dag([instr(i860, op, *ops) for op, ops in spec], i860)
        oracle = reference_dag(
            monkeypatch, [instr(i860, op, *ops) for op, ops in spec], i860
        )
        assert edge_tuples(dag) == edge_tuples(oracle), spec
        assert_acyclic(dag)
        protected += len(edge_tuples(dag, 4))
    assert protected > 0
