"""Superblock translation: straight-line runs as the trace-JIT's input.

The executor's block loop walks the program as :class:`Block` objects:
maximal *straight-line runs* of pre-decoded instructions (at most
:data:`MAX_BLOCK_INSTRUCTIONS`) plus the *terminator* — the branch,
jump, compartment call, CSR access or system instruction that ends the
run.  Translation resolves, once per block,

* the run's ``(operands, pc, info, pre)`` entries with static
  retire infos (destination/source registers, load destinations),
  which the code generator of :mod:`repro.isa.tracejit` compiles;
* the pre-classified cost vector (:meth:`repro.pipeline.CoreModel.precompute_block`)
  that compiled code batch-charges in one ``charge_block`` call, and
  the per-instruction pre-flush amounts streamed ahead of each memory
  operation;
* the PC range, so the whole block's fetch is checked against the PCC
  window once, and stores into the range invalidate it.

Blocks never change observable architectural behaviour: a cold or
uncompilable block is stepped by the interpreter, a fault inside
compiled code replays the retired prefix through the ordinary
``retire()`` path before converting the fault exactly like a single
step would, and the executor refuses the block loop entirely (per step)
whenever an observer is attached — a ``pre_step_hook`` (fault
injection), retire hooks (tracing/profiling) or a polled timer — so
those consumers see the same per-instruction stream as always.

A *fusable* instruction (one that may sit inside a straight-line run)
cannot redirect control flow, never reads the program counter outside of
fault construction, and cannot change the interrupt posture or trap
plumbing.  Memory and capability instructions *are* fusable even though
they can fault: compiled code keeps ``cpu.pc`` current through the
block precisely so a mid-block fault carries the right PC.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

from repro._compat import DATACLASS_SLOTS

from .instructions import (
    ALU,
    CAP,
    CLOAD,
    CSTORE,
    DIV,
    INSTRUCTION_SPECS,
    LOAD,
    MUL,
    STORE,
)

#: Timing classes whose instructions are straight-line by construction.
_FUSABLE_CLASSES = frozenset((ALU, MUL, DIV, LOAD, STORE, CLOAD, CSTORE, CAP))

#: Mnemonics excluded even though their timing class is fusable:
#: ``auipcc`` reads the live PC outside a fault path, and ``cspecialrw``
#: reaches into the trap plumbing (``mtcc``/``mepcc``) mid-run.
_FUSABLE_EXCLUDED = frozenset(("auipcc", "cspecialrw"))

#: The fusable mnemonic set, derived from the instruction table so a
#: new mnemonic is never silently fused by accident.
FUSABLE_MNEMONICS = frozenset(
    name
    for name, spec in INSTRUCTION_SPECS.items()
    if spec.timing_class in _FUSABLE_CLASSES and name not in _FUSABLE_EXCLUDED
)

#: Cap on straight-line run length; long unrolled runs split into
#: chained blocks rather than translating unboundedly.
MAX_BLOCK_INSTRUCTIONS = 128


@dataclass(**DATACLASS_SLOTS)
class BlockCacheStats:
    """Translation-cache observability counters (host-side only)."""

    #: Blocks translated (including re-translations after invalidation).
    translations: int = 0
    #: Instructions the block loop retired outside compiled code: cold
    #: or uncompilable blocks stepped by the interpreter, and the
    #: terminators compiled code leaves to the interpreter.
    instructions: int = 0
    #: Cached blocks dropped by stores into their code range.
    invalidations: int = 0

    def reset(self) -> None:
        # Field-derived so a new counter can never miss the reset.
        for f in fields(self):
            setattr(self, f.name, 0)


class Block:
    """One translated superblock.

    ``entries`` are the straight-line run the code generator compiles;
    their static retire infos also replay a faulting block's retired
    prefix.  ``term`` is the optional terminator, compiled when simple
    and otherwise executed with full per-instruction semantics.
    """

    __slots__ = (
        "start_index",
        "end_index",
        "start_pc",
        "last_pc",
        "length",
        "steps",
        "entries",
        "term",
        "term_bails",
        "charge",
        "timing",
        "jit",
        "jit_failed",
        "jit_source",
    )

    def __init__(
        self,
        start_index: int,
        end_index: int,
        start_pc: int,
        last_pc: int,
        entries: Tuple[tuple, ...],
        term: Optional[tuple],
        term_bails: bool,
        charge,
        timing,
    ) -> None:
        self.start_index = start_index
        #: Last decoded index covered (terminator included) — the
        #: invalidation overlap test spans ``[start_index, end_index]``.
        self.end_index = end_index
        self.start_pc = start_pc
        #: PC of the last covered instruction: the whole block fetches
        #: legally iff ``start_pc`` and ``last_pc`` sit in the window.
        self.last_pc = last_pc
        self.length = len(entries)
        #: Step-budget debit of a full execution (straight line plus
        #: terminator, matching what single-stepping would consume).
        self.steps = self.length + (1 if term is not None else 0)
        self.entries = entries
        self.term = term
        #: True when the terminator can run arbitrary host Python (an
        #: ``ecall`` into the CPU's ``ecall_handler``) that may install
        #: hooks, swap the timing model or reload the program — the
        #: executor's chained dispatch returns to the run loop after
        #: such a block so the eligibility check re-runs immediately.
        self.term_bails = term_bails
        #: Pre-classified cost vector for ``timing`` (None when the CPU
        #: has no timing model attached at translation time).
        self.charge = charge
        #: The timing model the charge was classified for; the executor
        #: re-translates if the CPU's model is swapped out.
        self.timing = timing
        #: :class:`repro.isa.tracejit.CompiledBlock` once promoted.  Lost
        #: on re-translation (invalidation or timing swap), so compiled
        #: code is always rebuilt from the current decoded table and cost
        #: vector.
        self.jit = None
        #: True when the code generator refused this block (unsupported
        #: construct); the interpreter steps it permanently.
        self.jit_failed = False
        #: ``(source, consumed, handles_term, self_loop)`` generated on
        #: the block's first execution; the source keys the promotion
        #: counter and the shared code cache.
        self.jit_source = None


def translate_block(cpu, index: int) -> Optional[Block]:
    """Translate the straight-line run starting at ``index``, or return
    ``None`` when the instruction there is not fusable.

    Builds static retire infos (destination/source registers, load
    destinations) at translation time so the cost vector can be
    pre-classified and compiled code never allocates per instruction.
    """
    from .executor import _RetireInfo  # circular at import time only

    decoded = cpu._decoded
    code_base = cpu.code_base
    i = index
    limit = min(len(decoded), index + MAX_BLOCK_INSTRUCTIONS)
    entries: List[tuple] = []
    pairs: List[tuple] = []
    while i < limit:
        _handler, operands, instr, dest, srcs = decoded[i]
        if instr.mnemonic not in FUSABLE_MNEMONICS:
            break
        pc = code_base + 4 * i
        info = _RetireInfo(instr, pc, dest_reg=dest, source_regs=srcs)
        cls = instr.timing_class
        if cls is LOAD or cls is CLOAD:
            # What the handler would record at retire time, known
            # statically: the load's destination register arms the
            # hazard window the cost vector models.
            info.mem_dest = operands[0]
            if cls is CLOAD:
                info.cap_load = True
        entries.append((operands, pc, info))
        pairs.append((instr, info))
        i += 1
    if i == index:
        return None
    term = None
    term_bails = False
    end_index = i - 1
    last_pc = code_base + 4 * end_index
    if i < len(decoded):
        handler, operands, instr, dest, srcs = decoded[i]
        term_pc = code_base + 4 * i
        tinfo = _RetireInfo(instr, term_pc, dest_reg=dest, source_regs=srcs)
        term = (handler, operands, instr, tinfo, term_pc)
        term_bails = instr.mnemonic == "ecall"
        end_index = i
        last_pc = term_pc
    timing = cpu.timing
    charge = timing.precompute_block(pairs) if timing is not None else None
    # Pre-flush amounts: cycles compiled code streams into the timing
    # stats *before* each memory operation, so host code reachable from
    # inside the block (MMIO device reads, store snoopers) observes the
    # exact cycle count single-stepping would have shown it.  ALU-only
    # blocks keep all-zero pre-flushes and charge once at the end.
    pres = [0] * len(pairs)
    if charge is not None:
        prefix = charge.prefix_cycles
        streamed = 0
        for k in range(1, len(pairs)):
            cls = pairs[k][0].timing_class
            if cls is LOAD or cls is STORE or cls is CLOAD or cls is CSTORE:
                pres[k] = prefix[k - 1] - streamed
                streamed += pres[k]
    return Block(
        start_index=index,
        end_index=end_index,
        start_pc=code_base + 4 * index,
        last_pc=last_pc,
        entries=tuple(e + (pre,) for e, pre in zip(entries, pres)),
        term=term,
        term_bails=term_bails,
        charge=charge,
        timing=timing,
    )
