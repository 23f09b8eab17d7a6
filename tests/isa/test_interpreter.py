"""The interpreter's own checks: the cached PCC fetch window and the
no-program guard.

``CPU._step_fast`` authorizes instruction fetch with two comparisons
against a window precomputed when the PCC is installed, and falls back
to the architectural ``set_address`` + ``check_access`` sequence on a
miss.  The property below pins that shortcut to the full check over
PCCs that vary in tag, seal, ``EX`` and bounds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import Permission, SentryType, make_roots
from repro.capability.errors import CapabilityError
from repro.isa import (
    CPU,
    ExecutionMode,
    Trap,
    assemble,
    trap_from_capability_fault,
)
from repro.memory import SystemBus, TaggedMemory

CODE_BASE = 0x2000_0000
N_INSTRUCTIONS = 32
PROGRAM = assemble("nop\n" * N_INSTRUCTIONS)


@st.composite
def pccs(draw):
    """Executable-derived capabilities around the code region: bounds
    that cover all, part or none of it, with ``EX`` possibly dropped,
    possibly sealed (as a sentry or with a software otype), possibly
    untagged."""
    roots = make_roots()
    code_bytes = 4 * N_INSTRUCTIONS
    if draw(st.booleans()):  # around the whole program
        base = CODE_BASE - draw(st.integers(min_value=0, max_value=16))
        length = code_bytes + draw(st.integers(min_value=-8, max_value=32))
    else:
        base = CODE_BASE + draw(st.integers(min_value=-16, max_value=code_bytes + 16))
        length = draw(st.integers(min_value=0, max_value=code_bytes + 32))
    cap = roots.executable.set_address(base).set_bounds(length)
    if draw(st.integers(min_value=0, max_value=3)) == 3:
        cap = cap.and_perms(cap.perms - {Permission.EX})
    seal = draw(st.sampled_from(["none"] * 4 + ["sentry", "otype"]))
    if seal == "sentry" and Permission.EX in cap.perms:
        cap = cap.seal_sentry(SentryType.INHERIT)
    elif seal == "otype":
        cap = cap.seal(roots.sealing.set_address(6))
    if draw(st.integers(min_value=0, max_value=7)) == 7:
        cap = cap.untagged()
    return cap


def _cpu():
    bus = SystemBus()
    bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
    cpu = CPU(bus, ExecutionMode.CHERIOT)
    cpu.load_program(PROGRAM, CODE_BASE, pcc=make_roots().executable)
    return cpu


class TestFetchWindow:
    @settings(max_examples=300, deadline=None)
    @given(pcc=pccs(), index=st.integers(min_value=0, max_value=N_INSTRUCTIONS - 1))
    def test_window_agrees_with_the_architectural_check(self, pcc, index):
        pc = CODE_BASE + 4 * index
        try:
            pcc.set_address(pc).check_access(pc, 4, (Permission.EX,))
            expected = None
        except CapabilityError as fault:
            expected = trap_from_capability_fault(fault, pc)
        cpu = _cpu()
        cpu.pcc = pcc
        if cpu._fetch_lo <= pc <= cpu._fetch_hi:
            # A window hit skips the check, so the check must pass.
            assert expected is None
        cpu.pc = pc
        if expected is None:
            cpu.step()
            assert cpu.pc == pc + 4
        else:
            # A miss runs the check and traps exactly as it faults.
            with pytest.raises(Trap) as excinfo:
                cpu.step()
            trap = excinfo.value
            assert (trap.cause, trap.pc, str(trap)) == (
                expected.cause, expected.pc, str(expected)
            )


class TestNoProgram:
    @pytest.mark.parametrize("trace_jit", [False, True])
    @pytest.mark.parametrize("entry", ["step", "run"])
    def test_raises_no_program_loaded(self, entry, trace_jit):
        bus = SystemBus()
        bus.attach_sram(TaggedMemory(CODE_BASE, 0x1_0000))
        cpu = CPU(bus, ExecutionMode.CHERIOT, trace_jit=trace_jit)
        with pytest.raises(RuntimeError, match="no program loaded"):
            getattr(cpu, entry)()
