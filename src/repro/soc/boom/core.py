"""The BOOM-like out-of-order core: timed interpreter with OoO structures.

Models the microarchitectural skeleton that matters for condition coverage:
fetch buffer, return-address stack, register renaming (free list / WAW
remap), issue-queue and ROB occupancy, a load/store queue with
store-to-load forwarding, plus caches and a branch predictor.  Instruction
semantics come from the golden executor, as for Rocket.

No bugs are injected here: the paper's bug findings are on RocketCore; BOOM
carries the fast-saturating coverage claim (97.02% in 49 minutes).
"""

from __future__ import annotations

from repro.golden.exceptions import Trap
from repro.golden.executor import execute
from repro.golden.memory import SparseMemory
from repro.golden.simulator import trap_handler_image
from repro.golden.state import ArchState
from repro.golden.trace import CommitTrace, TraceEntry
from repro.isa.decoder import decode
from repro.isa.spec import (
    DRAM_BASE,
    EXC_ILLEGAL_INSTRUCTION,
    EXC_INSTR_ACCESS_FAULT,
    PRV_M,
    PRV_U,
    TRAP_VECTOR,
    WORD_MASK,
)
from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module
from repro.rtl.report import CoverageReport
from repro.soc.boom.params import BoomParams
from repro.soc.caches import SetAssocCache
from repro.soc.predictor import BranchPredictor

_CAUSE_CONDITIONS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 11)

#: Debug-module conditions: present in the netlist, never exercised by
#: instruction fuzzing.  These are BOOM's small unreachable residue (~2.5%
#: of arms — the paper's 97.02% plateau implies ~3% unreachable).
_DEBUG_CONDITIONS = ("dm.halt_req", "dm.single_step")


class BoomRunState:
    """Loop state of one :meth:`BoomCore.run` — the per-cycle step hook's
    working set.

    Mirrors :class:`repro.soc.rocket.core.RunState`: everything the scalar
    run loop used to keep in locals lives here so that
    :meth:`BoomCore.step_cycle` can execute exactly one loop iteration at a
    time.  That is the shared per-instruction step hook the batched engine
    (``repro.soc.batch_boom``) peels hard lanes to: the batch side splices
    lane state into a :class:`BoomRunState`, steps the retained scalar
    core, and splices the result back — hard-case semantics keep one
    implementation.
    """

    __slots__ = (
        "memory", "state", "trace", "handler_lo", "handler_hi",
        "iterations", "cycles", "traps_taken", "ras", "busy_phys",
        "renamed", "rob_occupancy", "iq_occupancy", "ldq", "stq",
        "retired_since_drain", "prev_rd", "last_stall",
    )


class BoomCore(Module):
    """Out-of-order RV64IMA_Zicsr core model with condition coverage."""

    def __init__(self, params: BoomParams | None = None) -> None:
        cov = ConditionCoverage()
        super().__init__("boom", cov)
        self.params = params or BoomParams()
        p = self.params

        self.icache = self.child(
            SetAssocCache("boom.icache", cov, ways=p.icache_ways,
                          sets=p.icache_sets, line_bytes=p.line_bytes,
                          miss_penalty=p.icache_miss_penalty,
                          writable=False)
        )
        self.dcache = self.child(
            SetAssocCache("boom.dcache", cov, ways=p.dcache_ways,
                          sets=p.dcache_sets, line_bytes=p.line_bytes,
                          miss_penalty=p.dcache_miss_penalty)
        )
        self.predictor = self.child(BranchPredictor("boom.bpu", cov))

        self.conditions(
            # frontend
            "frontend.fetch_fault",
            "frontend.fb_full",
            "frontend.fb_empty",
            "frontend.ras_push",
            "frontend.ras_pop",
            "frontend.ras_underflow",
            "frontend.ras_overflow",
            # decode / rename
            "decode.illegal",
            "decode.is_load",
            "decode.is_store",
            "decode.is_branch",
            "decode.is_jump",
            "decode.is_amo",
            "decode.is_muldiv",
            "decode.is_csr",
            "decode.is_system",
            "decode.is_fence",
            "rename.stall_freelist",
            "rename.waw_remap",
            "rename.rd_x0",
            "rename.freelist_low",
            # issue
            "issue.iq_full",
            "issue.iq_empty",
            "issue.rs1_ready",
            "issue.rs2_ready",
            "issue.wakeup_bypass",
            # ROB
            "rob.full",
            "rob.empty",
            "rob.commit_two",
            "rob.exception_at_head",
            "rob.flush",
            # LSU
            "lsu.ldq_full",
            "lsu.stq_full",
            "lsu.stl_forward",
            "lsu.misaligned",
            "lsu.access_fault",
            "lsu.reservation_set",
            "lsu.sc_success",
            # execute
            "execute.br_taken",
            "execute.br_backward",
            "execute.div_by_zero",
            "execute.mul_high",
            "execute.result_zero",
            # CSR / traps
            "csr.trap_taken",
            *[f"csr.cause_is_{c}" for c in _CAUSE_CONDITIONS],
            "csr.write",
            "csr.in_user_mode",
            "csr.mret",
            "csr.wfi",
            # unreachable residue
            *_DEBUG_CONDITIONS,
        )
        cov.freeze()

        # Memoized group masks (see RocketCore): the decode condition group
        # is a pure function of the instruction word, the trap-comparator
        # group of the cause — each folds to one record_mask per evaluation.
        self._decode_mask_cache: dict[int, int] = {}
        self._trap_mask_cache: dict[int, int] = {}

    # ------------------------------------------------------------------ run --

    def run(self, program: list[int], base: int = DRAM_BASE) -> tuple[CommitTrace, CoverageReport]:
        """Simulate one test program; returns (commit trace, coverage report)."""
        rs = self.begin_run(program, base)
        while self.step_cycle(rs):
            pass
        return self.finish_run(rs)

    def begin_run(self, program: list[int], base: int = DRAM_BASE,
                  memory: SparseMemory | None = None) -> BoomRunState:
        """Reset the core and build the loop state for one run.

        ``memory`` lets the batched engine substitute a lane-arena-backed
        view; the default builds a fresh :class:`SparseMemory` with the
        program and trap handler loaded.
        """
        self.reset()
        self.cov.begin_run()

        rs = BoomRunState()
        if memory is None:
            memory = SparseMemory()
            memory.load_program(program, base)
            memory.load_program(trap_handler_image(), TRAP_VECTOR)
        rs.memory = memory
        rs.state = ArchState(pc=base)
        rs.trace = CommitTrace()

        rs.handler_lo = TRAP_VECTOR
        rs.handler_hi = TRAP_VECTOR + 4 * len(trap_handler_image())

        rs.iterations = 0
        rs.cycles = 0
        rs.traps_taken = 0
        rs.ras = []
        # physical registers still "in flight"; models free-list pressure.
        rs.busy_phys = 0
        # architectural -> renamed flag, for WAW detection.
        rs.renamed = set()
        rs.rob_occupancy = 0
        rs.iq_occupancy = 0
        rs.ldq = 0
        rs.stq = 0
        rs.retired_since_drain = 0
        rs.prev_rd = None
        # stall cycles of the previous instruction: while the backend waits
        # on a miss or a long op, the frontend keeps filling the window.
        rs.last_stall = 0
        return rs

    def finish_run(self, rs: BoomRunState) -> tuple[CommitTrace, CoverageReport]:
        """Seal a finished run into (commit trace, coverage report)."""
        rs.trace.cycles = rs.cycles
        return rs.trace, CoverageReport.from_coverage(self.cov, rs.cycles)

    def step_cycle(self, rs: BoomRunState) -> bool:
        """Execute exactly one run-loop iteration (the shared step hook).

        Returns True while the run should continue; False once a stop
        reason has been recorded on ``rs.trace``.  One iteration is one
        fetch attempt: a retired instruction, or a trap entry.
        """
        p = self.params
        if rs.iterations >= p.max_steps:
            rs.trace.stop_reason = "max_steps"
            return False
        rs.iterations += 1

        state = rs.state
        memory = rs.memory
        trace = rs.trace
        pc = state.pc
        in_handler = rs.handler_lo <= pc < rs.handler_hi
        instr_start_cycles = rs.cycles

        # Two-wide machine: occupancies drain every other instruction,
        # but a stalled backend lets the in-flight window fill up.
        rs.retired_since_drain += 1
        rs.rob_occupancy = min(p.rob_entries,
                               rs.rob_occupancy + rs.last_stall // 2)
        rs.iq_occupancy = min(p.issue_queue_entries,
                              rs.iq_occupancy + rs.last_stall // 4)
        rs.busy_phys = min(p.phys_regs - 32, rs.busy_phys + rs.last_stall // 4)
        if rs.retired_since_drain >= 2:
            rs.retired_since_drain = 0
            rs.cycles += 1
            rs.rob_occupancy = max(0, rs.rob_occupancy - 2)
            rs.iq_occupancy = max(0, rs.iq_occupancy - 2)
            rs.ldq = max(0, rs.ldq - 1)
            rs.stq = max(0, rs.stq - 1)
            rs.busy_phys = max(0, rs.busy_phys - 2)

        # ---------------- fetch -----------------------------------------
        if not memory.is_mapped(pc, 4):
            self.cond("frontend.fetch_fault", True)
            rs.cycles += p.mispredict_penalty
            rs.traps_taken += 1
            self._trap_conditions(EXC_INSTR_ACCESS_FAULT)
            trace.append(TraceEntry(pc=pc, instr=0, priv=state.priv,
                                    trap_cause=EXC_INSTR_ACCESS_FAULT,
                                    trap_tval=pc))
            state.reservation = None
            state.pc = state.csr.enter_trap(
                EXC_INSTR_ACCESS_FAULT, pc, pc, state.priv)
            state.priv = PRV_M
            state.csr.tick()
            if rs.traps_taken >= p.max_traps:
                trace.stop_reason = "max_traps"
                return False
            return True
        self.cond("frontend.fetch_fault", False)
        if self.icache.lookup(pc) is None:
            self.icache.refill(pc, memory.read_bytes)
            rs.cycles += self.icache.miss_penalty
            self.cond("frontend.fb_empty", True)
        else:
            self.cond("frontend.fb_empty", False)
        self.cond("frontend.fb_full", rs.rob_occupancy >= p.rob_entries - 2)
        word = memory.load(pc, 4)  # BOOM's I$ snoops stores: always fresh

        # ---------------- decode / rename --------------------------------
        instr = decode(word)
        self._decode_conditions(instr, word)
        if instr is None:
            rs.cycles += p.mispredict_penalty
            rs.traps_taken += 1
            self._trap_conditions(EXC_ILLEGAL_INSTRUCTION)
            trace.append(TraceEntry(pc=pc, instr=word, priv=state.priv,
                                    trap_cause=EXC_ILLEGAL_INSTRUCTION,
                                    trap_tval=word))
            state.reservation = None
            state.pc = state.csr.enter_trap(
                EXC_ILLEGAL_INSTRUCTION, pc, word, state.priv)
            state.priv = PRV_M
            state.csr.tick()
            if rs.traps_taken >= p.max_traps:
                trace.stop_reason = "max_traps"
                return False
            return True
        spec = instr.spec
        m = spec.mnemonic

        if spec.writes_rd:
            self.cond("rename.rd_x0", instr.rd == 0)
            if instr.rd != 0:
                self.cond("rename.waw_remap", instr.rd in rs.renamed)
                rs.renamed.add(instr.rd)
                rs.busy_phys += 1
        free = self.params.phys_regs - 32 - rs.busy_phys
        self.cond("rename.freelist_low", free <= 4)
        self.cond("rename.stall_freelist", free <= 0)
        if free <= 0:
            rs.cycles += 2
            rs.busy_phys = max(0, rs.busy_phys - 4)

        # ---------------- issue ------------------------------------------
        rs.iq_occupancy += 1
        self.cond("issue.iq_full", rs.iq_occupancy >= p.issue_queue_entries)
        self.cond("issue.iq_empty", rs.iq_occupancy <= 1)
        if rs.iq_occupancy >= p.issue_queue_entries:
            rs.cycles += 1
            rs.iq_occupancy -= 2
        rs1_dep = spec.reads_rs1 and instr.rs1 != 0 and instr.rs1 == rs.prev_rd
        rs2_dep = spec.reads_rs2 and instr.rs2 != 0 and instr.rs2 == rs.prev_rd
        self.cond("issue.rs1_ready", not rs1_dep)
        self.cond("issue.rs2_ready", not rs2_dep)
        self.cond("issue.wakeup_bypass", rs1_dep or rs2_dep)

        rs.rob_occupancy += 1
        self.cond("rob.full", rs.rob_occupancy >= p.rob_entries)
        self.cond("rob.empty", rs.rob_occupancy <= 1)
        self.cond("rob.commit_two", rs.retired_since_drain == 0)
        if rs.rob_occupancy >= p.rob_entries:
            rs.cycles += 1
            rs.rob_occupancy -= 2

        # RAS: calls push, returns pop.
        is_call = spec.is_jump and instr.rd == 1
        is_ret = m == "jalr" and instr.rd == 0 and instr.rs1 == 1
        self.cond("frontend.ras_push", is_call)
        self.cond("frontend.ras_pop", is_ret)
        if is_call:
            self.cond("frontend.ras_overflow", len(rs.ras) >= p.ras_entries)
            rs.ras.append((pc + 4) & WORD_MASK)
            del rs.ras[: max(0, len(rs.ras) - p.ras_entries)]
        if is_ret:
            self.cond("frontend.ras_underflow", not rs.ras)
            if rs.ras:
                rs.ras.pop()

        # ---------------- execute ----------------------------------------
        predicted = False
        if spec.is_branch:
            predicted = self.predictor.predict(pc)
        prv_before = state.priv
        self.cond("csr.in_user_mode", state.priv == PRV_U)
        try:
            result = execute(state, memory, instr, pc)
        except Trap as trap:
            rs.cycles += p.mispredict_penalty
            rs.traps_taken += 1
            self._trap_conditions(trap.cause)
            self.cond("rob.exception_at_head", True)
            self.cond("rob.flush", True)
            if spec.is_memory:
                self.cond("lsu.misaligned", trap.cause in (4, 6))
                self.cond("lsu.access_fault", trap.cause in (5, 7))
            trace.append(TraceEntry(pc=pc, instr=word, priv=prv_before,
                                    trap_cause=trap.cause,
                                    trap_tval=trap.tval))
            state.reservation = None
            rs.rob_occupancy = 0
            rs.iq_occupancy = 0
            state.pc = state.csr.enter_trap(trap.cause, pc, trap.tval, prv_before)
            state.priv = PRV_M
            state.csr.tick()
            rs.prev_rd = None
            if rs.traps_taken >= p.max_traps:
                trace.stop_reason = "max_traps"
                return False
            return True
        self.cond("csr.trap_taken", False)
        self.cond("rob.exception_at_head", False)

        if spec.is_branch:
            taken = result.next_pc != (pc + 4) & WORD_MASK
            self.cond("execute.br_taken", taken)
            self.cond("execute.br_backward", instr.imm < 0)
            self.predictor.update(pc, taken, predicted)
            mispredicted = taken != predicted
            self.cond("rob.flush", mispredicted)
            if mispredicted:
                rs.cycles += p.mispredict_penalty
                rs.rob_occupancy = 0
                rs.iq_occupancy = 0
        if spec.is_muldiv:
            divlike = m.startswith(("div", "rem"))
            if divlike:
                self.cond("execute.div_by_zero",
                          state.read_reg(instr.rs2) == 0)
                rs.cycles += p.div_latency
            else:
                self.cond("execute.mul_high", m in ("mulh", "mulhsu", "mulhu"))
                rs.cycles += p.mul_latency
        if result.rd is not None and result.rd != 0:
            self.cond("execute.result_zero", result.rd_value == 0)

        # ---------------- LSU ---------------------------------------------
        if result.mem is not None:
            addr = result.mem.addr
            if result.mem.is_store:
                rs.stq += 1
                self.cond("lsu.stq_full", rs.stq >= p.stq_entries)
                if rs.stq >= p.stq_entries:
                    rs.cycles += 1
                    rs.stq -= 1
            else:
                rs.ldq += 1
                self.cond("lsu.ldq_full", rs.ldq >= p.ldq_entries)
                self.cond("lsu.stl_forward", rs.stq > 0 and not spec.is_amo)
                if rs.ldq >= p.ldq_entries:
                    rs.cycles += 1
                    rs.ldq -= 1
            self.cond("lsu.misaligned", False)
            self.cond("lsu.access_fault", False)
            self.cond("lsu.reservation_set", m.startswith("lr."))
            if m.startswith("sc."):
                self.cond("lsu.sc_success", result.rd_value == 0)
            if self.dcache.lookup(addr) is None:
                self.dcache.refill(addr, memory.read_bytes)
                rs.cycles += self.dcache.miss_penalty
            if result.mem.is_store:
                data = result.mem.data.to_bytes(result.mem.size, "little")
                self.dcache.update_stored_line(addr, data)

        self.cond("csr.write", result.csr_write is not None)
        self.cond("csr.mret", m == "mret")
        self.cond("csr.wfi", result.halt)

        # ---------------- retire -------------------------------------------
        if not in_handler:
            rd = result.rd if result.rd not in (None, 0) else None
            trace.append(TraceEntry(
                pc=pc, instr=word, priv=prv_before, rd=rd,
                rd_value=result.rd_value if rd is not None else 0,
                mem=result.mem, csr_write=result.csr_write,
            ))
        rs.prev_rd = result.rd if result.rd else None
        rs.last_stall = rs.cycles - instr_start_cycles
        state.pc = result.next_pc & WORD_MASK
        state.csr.tick()
        if result.halt:
            trace.stop_reason = "wfi"
            return False
        return True

    def _decode_conditions(self, instr, word: int) -> None:
        """Record the decode-stage condition group — one OR per instruction."""
        self.record_keyed_group(self._decode_mask_cache, word,
                                self._decode_mask, instr)

    def _decode_mask(self, instr) -> int:
        arm = self.arm_bit
        mask = arm("decode.illegal", instr is None)
        if instr is None:
            # The illegal path traps before reaching the class conditions,
            # which therefore go unevaluated — exactly the old behaviour.
            return mask
        spec = instr.spec
        mask |= arm("decode.is_load", spec.is_load)
        mask |= arm("decode.is_store", spec.is_store)
        mask |= arm("decode.is_branch", spec.is_branch)
        mask |= arm("decode.is_jump", spec.is_jump)
        mask |= arm("decode.is_amo", spec.is_amo)
        mask |= arm("decode.is_muldiv", spec.is_muldiv)
        mask |= arm("decode.is_csr", spec.is_csr)
        mask |= arm("decode.is_system", spec.is_system)
        mask |= arm("decode.is_fence", spec.is_fence)
        return mask

    def _trap_conditions(self, cause: int) -> None:
        """Record the trap-entry condition group — mask memoized per cause."""
        self.record_keyed_group(self._trap_mask_cache, cause,
                                self._trap_mask, cause)

    def _trap_mask(self, cause: int) -> int:
        mask = self.arm_bit("csr.trap_taken", True)
        for c in _CAUSE_CONDITIONS:
            mask |= self.arm_bit(f"csr.cause_is_{c}", cause == c)
        return mask
