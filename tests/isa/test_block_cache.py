"""Differential tests: the trace-JIT tier vs the interpreter.

The executor has two tiers: the interpreter (``trace_jit=False``, the
reference semantics) and the block loop, which runs hot superblocks
(:mod:`repro.isa.blockcache`) as compiled trace-JIT code
(:mod:`repro.isa.tracejit`) and interprets cold ones.  The correctness
contract is strict *observational equivalence*: every architectural
outcome — golden traces, register files, retired-instruction stats, bus
counters, modelled cycles, trap causes and messages, even the cycle
count an MMIO device reads mid-run — must be bit-identical to the
interpreter.  These tests pin that contract across the CoreMark
workalike (both cores, all configs), the assembly compartment switcher
(the machinery the allocation benchmark models), a seeded
fault-injection campaign slice, and randomized looping programs; plus
the cache-management machinery itself (invalidation on code-region
stores, chained-block invalidation under self-modifying code,
deoptimization under observers, exact step budgets).

Every differential runs both tiers in :data:`TIER_CONFIGS`.  Classes
marked with the ``early_jit`` fixture compile every block on its first
execution, so hand-written programs reach compiled code; the randomized
differential keeps the real promotion threshold.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import make_roots
from repro.isa import CPU, ExecutionMode, Trap, TrapCause, assemble, tracejit
from repro.isa.timer import ClintTimer
from repro.isa.trace import ExecutionTrace
from repro.memory import SystemBus, TaggedMemory
from repro.pipeline import CoreKind, make_core_model

CODE_BASE = 0x2000_0000
DATA_BASE = 0x2000_8000
DATA_SIZE = 0x100


#: The two execution tiers, as CPU kwargs (interpreter first).
TIER_CONFIGS = (
    ("interp", dict(trace_jit=False)),
    ("jit", dict(trace_jit=True)),
)


@pytest.fixture(scope="class")
def early_jit():
    """Compile every block on its first execution."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracejit, "JIT_THRESHOLD", 1)
        yield


def _fresh_cpu(**tier_kwargs):
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
    roots = make_roots()
    cpu = CPU(bus, ExecutionMode.CHERIOT, **tier_kwargs)
    cpu.timing = make_core_model(CoreKind.IBEX)
    return cpu, roots


def _load(cpu, roots, program):
    cpu.load_program(program, CODE_BASE, pcc=roots.executable)
    data = roots.memory.set_address(DATA_BASE).set_bounds(DATA_SIZE)
    cpu.regs.write(8, data)


def _state(cpu):
    """Full observable state: registers, stats, bus counters, cycles."""
    stats = tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats))
    bus_stats = tuple(
        getattr(cpu.bus.stats, f.name) for f in fields(cpu.bus.stats)
    )
    timing = cpu.timing
    cycles = (timing.cycles, timing.stats.stall_cycles, timing.stats.bus_beats)
    return cpu.regs.snapshot(), stats, bus_stats, cpu.pc, cycles


def _run_all(source, max_steps=100_000):
    """Run one program under both tiers; return (states, cpus), in
    :data:`TIER_CONFIGS` order (interpreter first)."""
    program = assemble(source)
    states, cpus = [], []
    for _name, cfg in TIER_CONFIGS:
        cpu, roots = _fresh_cpu(**cfg)
        _load(cpu, roots, program)
        cpu.run(max_steps=max_steps)
        states.append(_state(cpu))
        cpus.append(cpu)
    return states, cpus


@pytest.mark.usefixtures("early_jit")
class TestStraightLineEquivalence:
    def test_mem_loop_bit_identical(self):
        source = """
            li a0, 200
            li a1, 0
        loop:
            sw a1, 0(s0)
            lw a2, 0(s0)
            add a1, a1, a2
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        states, cpus = _run_all(source)
        assert states[1] == states[0]
        # The compiled tier actually ran (this is not a vacuous pass).
        assert cpus[1].jit_stats.compiles > 0
        assert cpus[1].jit_stats.executions > 0

    def test_cap_ops_and_cap_memory_bit_identical(self):
        source = """
            li a0, 50
        loop:
            csc c8, 0(s0)
            clc c9, 0(s0)
            cgetlen a2, s1
            cincaddrimm s1, s0, 8
            csetaddr s1, s1, a2
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        states, cpus = _run_all(source)
        assert states[1] == states[0]
        assert cpus[1].jit_stats.executions > 0

    def test_load_use_hazard_window_identical(self):
        # Back-to-back load/consume pairs at the block entry, interior,
        # and exit: the batch charge must reproduce every stall.
        source = """
            li a0, 40
        loop:
            lw a1, 0(s0)
            add a2, a1, a1
            lw a3, 4(s0)
            addi a0, a0, -1
            bnez a0, loop
            add a4, a3, a3
            halt
        """
        states, _ = _run_all(source)
        assert states[1] == states[0]

    def test_division_and_multiply_costs_identical(self):
        source = """
            li a0, 30
            li a1, 7
        loop:
            mul a2, a0, a1
            div a3, a2, a1
            rem a4, a2, a1
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        states, _ = _run_all(source)
        assert states[1] == states[0]


@pytest.mark.usefixtures("early_jit")
class TestFaultEquivalence:
    def test_unvectored_mid_block_fault_identical(self):
        # The lw faults (out of s0's bounds) in the middle of a compiled
        # block; the prefix must be accounted exactly and the Trap must
        # carry the same cause, pc and message.
        source = """
            li a0, 1
            li a1, 2
            lw a2, 0x7FC(s0)
            li a3, 4
            halt
        """
        program = assemble(source)
        outcomes = []
        for _name, cfg in TIER_CONFIGS:
            cpu, roots = _fresh_cpu(**cfg)
            _load(cpu, roots, program)
            with pytest.raises(Trap) as excinfo:
                cpu.run()
            trap = excinfo.value
            outcomes.append(
                (trap.cause, trap.pc, str(trap), _state(cpu))
            )
        assert outcomes[1] == outcomes[0]

    def test_vectored_mid_block_fault_identical(self):
        source = """
            li a0, 42
            li a1, 1
            lw a2, 0x7FC(s0)
            li a0, 99
            halt
        handler:
            li a3, 7
            halt
        """
        program = assemble(source)
        states = []
        for _name, cfg in TIER_CONFIGS:
            cpu, roots = _fresh_cpu(**cfg)
            _load(cpu, roots, program)
            handler_pc = CODE_BASE + 4 * program.entry("handler")
            cpu.regs.write_scr("mtcc", roots.executable.set_address(handler_pc))
            cpu.run()
            states.append(_state(cpu))
        assert states[1] == states[0]
        regs = states[1][0]
        assert regs[13].address == 7  # the handler ran
        assert regs[10].address == 42  # pre-fault value preserved

    def _trap_outcomes(self, program):
        outcomes = []
        for _name, cfg in TIER_CONFIGS:
            cpu, roots = _fresh_cpu(**cfg)
            _load(cpu, roots, program)
            with pytest.raises(Trap) as excinfo:
                cpu.run()
            trap = excinfo.value
            outcomes.append((trap.cause, trap.pc, str(trap), _state(cpu)))
        assert outcomes[1] == outcomes[0]
        return outcomes[0]

    def test_illegal_mnemonic_traps_identically(self):
        # An instruction without semantics traps when it executes, here
        # as the interpreted terminator of a compiled block.
        from repro.isa.assembler import Program
        from repro.isa.instructions import Instruction

        program = Program(
            instructions=(
                Instruction("addi", (10, 0, 5), text="addi a0, zero, 5"),
                Instruction("frobnicate", (), text="frobnicate"),
            ),
            labels={},
        )
        cause, pc, message, _ = self._trap_outcomes(program)
        assert cause is TrapCause.ILLEGAL_INSTRUCTION
        assert pc == CODE_BASE + 4
        assert "frobnicate" in message

    def test_running_off_the_end_identical(self):
        cause, pc, _, _ = self._trap_outcomes(assemble("li a0, 5\nnop\n"))
        assert cause is TrapCause.CHERI_BOUNDS
        assert pc == CODE_BASE + 8

    def test_step_budget_boundary_identical(self):
        source = """
            li a0, 10
        loop:
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        program = assemble(source)
        cpu, roots = _fresh_cpu(trace_jit=False)
        _load(cpu, roots, program)
        cpu.run()
        retired = cpu.stats.instructions

        # One step short must raise the same RuntimeError (message
        # includes pc and retired count — pinning exact accounting);
        # exactly enough must halt with identical stats.
        for budget, expect_halt in ((retired - 1, False), (retired, True)):
            outcomes = []
            for _name, cfg in TIER_CONFIGS:
                cpu, roots = _fresh_cpu(**cfg)
                _load(cpu, roots, program)
                try:
                    cpu.run(max_steps=budget)
                    outcomes.append(("halted", _state(cpu)))
                except RuntimeError as exc:
                    outcomes.append(("exceeded", str(exc), _state(cpu)))
            assert outcomes[1] == outcomes[0]
            assert (outcomes[0][0] == "halted") is expect_halt


@pytest.mark.usefixtures("early_jit")
class TestDeoptimization:
    def test_retire_hooks_force_single_stepping(self):
        # An attached trace (retire hook) must see the identical
        # per-instruction stream — the block loop never engages.
        source = """
            li a0, 20
        loop:
            sw a0, 0(s0)
            lw a1, 0(s0)
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        program = assemble(source)
        traces, states = [], []
        for _name, cfg in TIER_CONFIGS:
            cpu, roots = _fresh_cpu(**cfg)
            _load(cpu, roots, program)
            trace = ExecutionTrace(code_base=CODE_BASE).attach(cpu)
            cpu.run()
            traces.append(trace.entries)
            states.append(_state(cpu))
            assert cpu.block_stats.translations == 0
            assert cpu.jit_stats.executions == 0
        assert traces[1] == traces[0]
        assert states[1] == states[0]

    def test_pre_step_hook_forces_single_stepping(self):
        source = "li a0, 5\nloop:\naddi a0, a0, -1\nbnez a0, loop\nhalt\n"
        program = assemble(source)
        cpu, roots = _fresh_cpu()
        _load(cpu, roots, program)
        seen = []
        cpu.pre_step_hook = lambda c: seen.append(c.pc)
        cpu.run()
        assert cpu.block_stats.translations == 0
        assert cpu.jit_stats.executions == 0
        # The hook saw every step, in order.
        assert len(seen) == cpu.stats.instructions

    def test_block_cache_disabled_never_fuses(self):
        # ``trace_jit=False`` is the interpreter alone: no block is ever
        # translated, let alone compiled.
        source = "li a0, 5\nloop:\naddi a0, a0, -1\nbnez a0, loop\nhalt\n"
        program = assemble(source)
        cpu, roots = _fresh_cpu(trace_jit=False)
        _load(cpu, roots, program)
        cpu.run()
        assert cpu.block_stats.translations == 0
        assert cpu.jit_stats.compiles == 0


@pytest.mark.usefixtures("early_jit")
class TestInvalidation:
    SOURCE = """
        li t0, 3
    loop1:
        addi t0, t0, -1
        bnez t0, loop1
        halt
    """

    def test_store_into_code_region_invalidates_and_retranslates(self):
        program = assemble(self.SOURCE)
        cpu, roots = _fresh_cpu()
        _load(cpu, roots, program)
        cpu.run()
        translations_before = cpu.block_stats.translations
        assert translations_before > 0
        assert cpu.block_stats.invalidations == 0

        # A write into the cached code range must drop the overlapping
        # blocks...
        cpu.bus.write_word(CODE_BASE + 4, 0x0000_0013)
        assert cpu.block_stats.invalidations >= 1

        # ...and re-execution must re-translate, not reuse stale blocks.
        cpu.pc = CODE_BASE
        cpu.run()
        assert cpu.block_stats.translations > translations_before

    def test_in_program_store_to_code_invalidates(self):
        # The program itself stores into its own code range mid-run —
        # the architectural results must still match single-stepping,
        # and the cached run must notice the dirty range.
        source = """
            li t0, 3
        loop1:
            addi t0, t0, -1
            bnez t0, loop1
            bnez a2, done
            li a2, 1
            sw a3, 4(s1)
            li t0, 3
            j loop1
        done:
            halt
        """
        program = assemble(source)
        states, counters = [], []
        for _name, cfg in TIER_CONFIGS:
            cpu, roots = _fresh_cpu(**cfg)
            _load(cpu, roots, program)
            # s1: write authority over the code region (loop1's range).
            cpu.regs.write(
                9, roots.memory.set_address(CODE_BASE).set_bounds(0x100)
            )
            cpu.run()
            states.append(_state(cpu))
            counters.append(cpu.block_stats.invalidations)
        assert states[1] == states[0]
        assert counters[1] >= 1  # the block loop saw the dirty store

    def test_store_outside_code_region_does_not_invalidate(self):
        source = """
            li t0, 3
        loop1:
            sw t0, 0(s0)
            addi t0, t0, -1
            bnez t0, loop1
            halt
        """
        program = assemble(source)
        cpu, roots = _fresh_cpu()
        _load(cpu, roots, program)
        cpu.run()
        assert cpu.block_stats.translations > 0
        assert cpu.block_stats.invalidations == 0


@pytest.mark.usefixtures("early_jit")
class TestSuccessorBlockInvalidation:
    """Self-modifying code rewriting a *successor* block while its
    predecessor's compiled trace is mid-execution.

    The predecessor is a hot self-loop (a compiled trace) whose body stores into the code range of the
    block that executes after the loop exits.  The dirty-range hooks
    must drop the successor's translation (and compiled code) on every
    such store — while the predecessor keeps looping — and the
    architectural outcome must stay bit-identical to single-stepping.
    The decoded program image is fixed at load time (the simulator's
    decode-once contract), so the observable effects are the bus/stat
    stream and the invalidation counters, not new instruction bytes.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        loops=st.integers(min_value=3, max_value=40),
        victim_word=st.integers(min_value=0, max_value=2),
        value=st.integers(min_value=0, max_value=0xFFFF_FFFF),
    )
    def test_trace_loop_rewrites_successor(self, loops, victim_word, value):
        # Two rounds: round 1 executes (and caches) the successor block
        # at label succ, and compiles loop1; in round 2 the compiled trace's store drops succ's translation
        # mid-loop.  The store hits the victim word inside succ.
        source = f"""
            li a5, 2
            li a3, {value}
        round:
            li t0, {loops}
        loop1:
            sw a3, 0(s1)
            addi t0, t0, -1
            bnez t0, loop1
        succ:
            li a1, 11
            addi a1, a1, 3
            add a2, a1, a1
            addi a5, a5, -1
            bnez a5, round
            halt
        """
        program = assemble(source)
        succ_pc = CODE_BASE + 4 * program.entry("succ")
        states, counters = [], []
        for _name, cfg in TIER_CONFIGS:
            cpu, roots = _fresh_cpu(**cfg)
            _load(cpu, roots, program)
            # s1: write authority aimed at the victim word of succ.
            cpu.regs.write(
                9,
                roots.memory.set_address(succ_pc + 4 * victim_word)
                .set_bounds(4),
            )
            cpu.run()
            states.append(_state(cpu))
            counters.append(
                (cpu.block_stats.invalidations, cpu.jit_stats.invalidations)
            )
        assert states[1] == states[0]
        # The block loop saw the successor's range go dirty.
        assert counters[1][0] >= 1

    @settings(max_examples=25, deadline=None)
    @given(
        loops=st.integers(min_value=3, max_value=30),
        value=st.integers(min_value=0, max_value=0xFFFF_FFFF),
    )
    def test_chained_blocks_rewrite_each_other(self, loops, value):
        # Two blocks chained by compiled ``j`` terminators: A stores
        # into B's range every round while the executor's chained
        # dispatch alternates A -> B -> A.  B must be dropped and
        # re-translated (and re-compiled once hot again) every round.
        source = f"""
            li t0, {loops}
            li a3, {value}
        blockA:
            sw a3, 0(s1)
            addi t0, t0, -1
            beqz t0, done
            j blockB
        blockB:
            addi a2, a2, 1
            j blockA
        done:
            li a1, 5
            halt
        """
        program = assemble(source)
        victim_pc = CODE_BASE + 4 * program.entry("blockB")
        states, counters = [], []
        for _name, cfg in TIER_CONFIGS:
            cpu, roots = _fresh_cpu(**cfg)
            _load(cpu, roots, program)
            cpu.regs.write(
                9, roots.memory.set_address(victim_pc).set_bounds(4)
            )
            cpu.run()
            states.append(_state(cpu))
            counters.append(cpu.block_stats.invalidations)
        assert states[1] == states[0]
        # Every store dropped the successor: one invalidation per round.
        assert counters[1] >= loops - 1


@pytest.mark.usefixtures("early_jit")
class TestMMIOCycleExactness:
    def test_mtime_reads_mid_block_identical(self):
        # A compiled block that loads the CLINT's mtime must observe the
        # same cycle counts single-stepping would: the executor streams
        # cycle charges ahead of every memory operation.
        source = """
            li a0, 6
            li a2, 0
        loop:
            lw a1, 4(s0)
            add a2, a2, a1
            addi a0, a0, -1
            bnez a0, loop
            halt
        """
        program = assemble(source)
        timer_base = 0x4000_0000
        sums, states = [], []
        for name, cfg in TIER_CONFIGS:
            bus = SystemBus()
            bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
            core_model = make_core_model(CoreKind.IBEX)
            bus.attach_device(timer_base, 0x100, ClintTimer(core_model))
            cpu = CPU(bus, ExecutionMode.RV32E, **cfg)
            cpu.timing = core_model
            cpu.load_program(program, CODE_BASE)
            cpu.regs.write_int(8, timer_base)
            cpu.run()
            sums.append(cpu.regs.read_int(12))
            states.append(
                (
                    tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats)),
                    core_model.cycles,
                    bus.stats.mmio_reads,
                )
            )
            if name != "interp":
                assert cpu.jit_stats.executions > 0
        assert sums[1] == sums[0]
        assert states[1] == states[0]
        assert sums[0] > 0  # mtime actually advanced during the run


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("core", [CoreKind.FLUTE, CoreKind.IBEX])
    @pytest.mark.parametrize(
        "config", ["rv32e", "cheriot", "cheriot+filter"]
    )
    def test_coremark_bit_identical(self, core, config):
        from repro.workloads.coremark import run_coremark

        ref = run_coremark(core, config, iterations=1, trace_jit=False)
        new = run_coremark(core, config, iterations=1)
        assert (new.cycles, new.instructions, new.crc) == (
            ref.cycles,
            ref.instructions,
            ref.crc,
        )

    def test_asm_switcher_bit_identical(self):
        # The assembly compartment switcher: sentries, trusted-stack
        # manipulation, stack zeroing, CSR access — the machinery the
        # allocation benchmark's cross-compartment calls model.
        from repro.rtos.asm_switcher import build_image

        from tests.integration.test_asm_switcher import CALLEE, CALLER

        states = []
        for _name, cfg in TIER_CONFIGS:
            image = build_image(CALLEE, CALLER, **cfg)
            image.cpu.run()
            states.append(_state_no_timing(image.cpu))
        assert states[1] == states[0]
        assert states[1][1][0] > 50  # the full call/return path ran
        assert states[1][0][10].address == 42  # callee's result in a0

    def test_fault_campaign_slice_bit_identical(self, monkeypatch):
        # 1000 seeded injections: every scenario, outcome, detail and
        # wrong-result flag must match across both tiers.  (Injection
        # hooks deoptimize per-step; hook-free phases run in the block
        # loop.)
        from repro.faultinject import engine as engine_mod
        from repro.faultinject.campaign import run_campaign

        real_cpu = engine_mod.CPU
        records = []
        for _name, cfg in TIER_CONFIGS:

            def tiered_cpu(*args, _cfg=cfg, **kwargs):
                for key, value in _cfg.items():
                    kwargs.setdefault(key, value)
                return real_cpu(*args, **kwargs)

            monkeypatch.setattr(engine_mod, "CPU", tiered_cpu)
            records.append(run_campaign(1000).records)
        assert records[1] == records[0]


def _state_no_timing(cpu):
    stats = tuple(getattr(cpu.stats, f.name) for f in fields(cpu.stats))
    bus_stats = tuple(
        getattr(cpu.bus.stats, f.name) for f in fields(cpu.bus.stats)
    )
    return cpu.regs.snapshot(), stats, bus_stats, cpu.pc


_REGS = ["t0", "t1", "t2", "s1", "a0", "a1", "a2", "a3"]
_ALU_RR = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt",
           "sltu", "mul", "mulh", "mulhu", "div", "divu", "rem", "remu"]
_ALU_RI = ["addi", "andi", "ori", "xori", "slti", "sltiu", "slli", "srli",
           "srai"]
_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]
_MEM = ["lw", "sw", "lh", "lhu", "sh", "lb", "lbu", "sb"]
_MEM_SCALE = {"lw": 4, "sw": 4, "lh": 2, "lhu": 2, "sh": 2}

regs = st.sampled_from(_REGS)
imms = st.integers(min_value=-2048, max_value=2047)
#: Register values, with the sign and carry boundaries drawn often.
words = st.one_of(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.sampled_from([0x80000000, 0xFFFFFFFF, 0x7FFFFFFF, 0xFFFF8000, 1]),
)
# Offsets deliberately straddle the data capability's bounds so some
# accesses fault — fault behaviour must match too.
mem_offsets = st.sampled_from([0, 4, 8, 64, DATA_SIZE - 4, DATA_SIZE, 0x7FC])


#: Capability derivations (the bounds the trace-JIT constant-folds).
_CAP_RR = ["cincaddr", "csetaddr", "csetbounds", "csetboundsexact", "candperm"]
_CAP_RI = ["cincaddrimm", "csetboundsimm"]
_CAP_GET = ["cgetaddr", "cgetbase", "cgettop", "cgetlen", "cgetperm",
            "cgettag", "cgettype"]
_SENTRIES = ["inherit", "disable", "enable", "ret_dis", "ret_en"]
cap_imms = st.sampled_from([-8, 0, 4, 8, 16, 64, DATA_SIZE])

#: Registers outside ``_REGS``, so generated code never clobbers them:
#: the loop counter, the sealing authority (otype ``_OTYPE``), an
#: executable capability for ``csealentry``, and the trap handler's
#: scratch register.
_COUNTER, _SEALER, _CODE_CAP, _SCRATCH = "a4", "gp", "tp", "a5"
_OTYPE = 6
#: Placeholder branch target, resolved by ``mixed_program``.
_SKIP = "skip"


@st.composite
def body_line(draw, derived=()):
    """One loop-body instruction.  Capability operands come mostly from
    ``s0`` (the data capability), otherwise from ``derived``: registers
    an earlier capability op wrote."""
    kind = draw(st.integers(min_value=0, max_value=10))
    rd, rs, rt = draw(regs), draw(regs), draw(regs)
    cap = draw(st.sampled_from(("s0", "s0") + tuple(derived)))
    if kind == 0:
        return f"{draw(st.sampled_from(_ALU_RR))} {rd}, {rs}, {rt}"
    if kind == 1:
        return f"{draw(st.sampled_from(_ALU_RI))} {rd}, {rs}, {draw(imms)}"
    if kind == 2:
        return f"li {rd}, {draw(words)}"
    if kind == 3:
        op = draw(st.sampled_from(_MEM))
        scale = _MEM_SCALE.get(op, 1)
        offset = draw(mem_offsets) // scale * scale
        return f"{op} {rd}, {offset}({cap})"
    if kind == 4:
        op = draw(st.sampled_from(["clc", "csc"]))
        offset = draw(mem_offsets) // 8 * 8
        return f"{op} {rd}, {offset}({cap})"
    if kind == 5:
        # Forward over the next line (``mixed_program`` places the
        # label): taken or not, the branch stays inside the loop and
        # skips at most one instruction.
        return f"{draw(st.sampled_from(_BRANCHES))} {rs}, {rt}, {_SKIP}"
    if kind == 6:
        return f"{draw(st.sampled_from(_CAP_RR))} {rd}, {cap}, {rt}"
    if kind == 7:
        op = draw(st.sampled_from(_CAP_RI))
        return f"{op} {rd}, {cap}, {draw(cap_imms)}"
    if kind == 8:
        op = draw(st.sampled_from(_CAP_GET + ["cmove"]))
        return f"{op} {rd}, {cap}"
    if kind == 9:
        return f"{draw(st.sampled_from(['cseal', 'cunseal']))} {rd}, {cap}, {_SEALER}"
    target = draw(st.sampled_from((_CODE_CAP, cap)))
    return f"csealentry {rd}, {target}, {draw(st.sampled_from(_SENTRIES))}"


#: Ops whose destination then holds a (possibly tagged) capability.
_CAP_RESULTS = frozenset(
    _CAP_RR + _CAP_RI + ["cmove", "clc", "cseal", "cunseal", "csealentry"]
)
#: Ops that write no register.
_NO_DEST = frozenset(["sw", "sh", "sb", "csc"] + _BRANCHES)

#: Loop iterations of every randomized program: enough for the loop
#: head to reach the promotion threshold and run compiled twice.
_ITERATIONS = tracejit.JIT_THRESHOLD + 2


@st.composite
def mixed_program(draw):
    """A counted loop around a random body, after random initial values
    for ``_REGS``.  The head decrements the counter, so the block
    starting there runs every iteration and the trace-JIT promotes it;
    faults vector to a handler that skips the faulting instruction and
    returns into the loop."""
    n = draw(st.integers(min_value=1, max_value=24))
    init = [f"li {reg}, {draw(words)}" for reg in _REGS]
    lines, derived, pending = [], [], []
    for i in range(n):
        line = draw(body_line(tuple(derived)))
        op, rd = line.split()[0], line.split()[1].rstrip(",")
        if op in _BRANCHES:
            line = line.replace(_SKIP, f"{_SKIP}{i}")
        lines.append(line)
        # Land earlier branches after this line.
        lines.extend(f"{label}:" for label in pending)
        pending = [f"{_SKIP}{i}"] if op in _BRANCHES else []
        if op in _CAP_RESULTS and rd not in derived:
            derived.append(rd)
        elif op not in _CAP_RESULTS and op not in _NO_DEST:
            derived = [reg for reg in derived if reg != rd]
    lines.extend(f"{label}:" for label in pending)
    return "\n".join(
        init
        + [f"li {_COUNTER}, {_ITERATIONS}", "loop:", f"addi {_COUNTER}, {_COUNTER}, -1"]
        + lines
        + [
            "next:",
            f"bnez {_COUNTER}, loop",
            "halt",
            "handler:",
            f"cspecialrw {_SCRATCH}, mepcc, c0",
            f"cincaddrimm {_SCRATCH}, {_SCRATCH}, 4",
            f"cspecialrw c0, mepcc, {_SCRATCH}",
            "mret",
        ]
    ) + "\n"


def _load_mixed(cpu, roots, program):
    _load(cpu, roots, program)
    handler_pc = CODE_BASE + 4 * program.entry("handler")
    cpu.regs.write_scr("mtcc", roots.executable.set_address(handler_pc))
    cpu.regs.write(3, roots.sealing.set_address(_OTYPE))
    cpu.regs.write(4, roots.executable.set_address(CODE_BASE))


class TestRandomizedEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(mixed_program())
    def test_run_outcome_identical(self, source):
        # Drives cpu.run() with the real promotion threshold, so cold
        # interpreted blocks, their promotion, compiled blocks, guard
        # bails and vectored faults all engage.
        program = assemble(source)
        outcomes = []
        for _name, cfg in TIER_CONFIGS:
            cpu, roots = _fresh_cpu(**cfg)
            _load_mixed(cpu, roots, program)
            try:
                cpu.run(max_steps=_ITERATIONS * 200)
                outcomes.append(("halted", _state(cpu)))
            except Trap as trap:
                outcomes.append(
                    ("trap", trap.cause, trap.pc, str(trap), _state(cpu))
                )
            except RuntimeError as exc:
                outcomes.append(("exceeded", str(exc), _state(cpu)))
        assert outcomes[1] == outcomes[0]
        if outcomes[1][0] == "halted":
            # The loop ran all its iterations, past the threshold: the
            # differential reached compiled code.
            assert cpu.jit_stats.instructions > 0
