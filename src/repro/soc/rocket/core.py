"""The RocketCore model: an in-order timed interpreter with full condition
coverage instrumentation.

Instruction *semantics* are delegated to the golden executor
(:func:`repro.golden.executor.execute`); everything microarchitectural —
I$/D$ behaviour, branch prediction, hazards, the store buffer, trap entry,
the commit tracer and the timing model — is modelled here and is the source
of both the condition coverage points and the injected paper behaviours
(Bug1 and Finding1 live in this file; Bug2/Finding2/Finding3 in the tracer).
"""

from __future__ import annotations

from repro.golden.exceptions import Trap
from repro.golden.executor import execute
from repro.golden.memory import SparseMemory
from repro.golden.simulator import trap_handler_image
from repro.golden.state import ArchState
from repro.golden.trace import CommitTrace, trace_entry
from repro.isa.decoder import decode
from repro.isa.spec import (
    CSR_CYCLE,
    CSR_INSTRET,
    CSR_MCYCLE,
    CSR_MEPC,
    CSR_MSTATUS,
    CSR_TIME,
    DRAM_BASE,
    EXC_ILLEGAL_INSTRUCTION,
    EXC_INSTR_ACCESS_FAULT,
    EXC_LOAD_ACCESS_FAULT,
    EXC_LOAD_MISALIGNED,
    EXC_STORE_ACCESS_FAULT,
    EXC_STORE_MISALIGNED,
    PRV_M,
    PRV_U,
    TRAP_VECTOR,
    WORD_MASK,
    csr_is_read_only,
    csr_min_privilege,
)
from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module
from repro.rtl.report import CoverageReport
from repro.soc.caches import SetAssocCache
from repro.soc.predictor import BranchPredictor
from repro.soc.rocket.params import RocketParams
from repro.soc.rocket.tracer import Tracer
from repro.soc.rocket.uncore import DebugUnit, InterruptController

_LOAD_SIZE = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4, "ld": 8}
_STORE_SIZE = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

#: mcause codes that have a dedicated comparator condition in the CSR unit.
_CAUSE_CONDITIONS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 11)


class RunState:
    """Loop state of one :meth:`RocketCore.run` — the per-cycle step hook's
    working set.

    Everything the scalar run loop used to keep in locals lives here so
    that :meth:`RocketCore.step_cycle` can execute exactly one loop
    iteration at a time.  That is the shared per-instruction step hook the
    batched engine (``repro.soc.batch``) peels hard lanes to, exactly as
    ``golden.batch`` peels to ``step_instruction``: the batch side splices
    lane state into a :class:`RunState`, steps the retained scalar core,
    and splices the result back — hard-case semantics keep one
    implementation.
    """

    __slots__ = (
        "memory", "state", "trace", "handler_lo", "handler_hi",
        "iterations", "cycles", "traps_taken", "prev1", "prev2",
        "muldiv_busy_until", "store_buffer", "dep_chain", "prev_wrote_sp",
        "branch_taken_counts", "link_stack", "ra_saved", "branch_outcomes",
        "csrs_written", "last_muldiv_was_mul", "prev_was_cmp_rd",
    )


class RocketCore(Module):
    """In-order RV64IMA_Zicsr core with condition coverage (see module doc)."""

    def __init__(self, params: RocketParams | None = None) -> None:
        cov = ConditionCoverage()
        super().__init__("rocket", cov)
        self.params = params or RocketParams()
        p = self.params

        self.icache = self.child(
            SetAssocCache(
                "rocket.icache", cov,
                ways=p.icache_ways, sets=p.icache_sets, line_bytes=p.line_bytes,
                miss_penalty=p.icache_miss_penalty,
                writable=False,  # read-only port: no dirty-path conditions
            )
        )
        self.dcache = self.child(
            SetAssocCache(
                "rocket.dcache", cov,
                ways=p.dcache_ways, sets=p.dcache_sets, line_bytes=p.line_bytes,
                miss_penalty=p.dcache_miss_penalty,
            )
        )
        self.predictor = self.child(BranchPredictor("rocket.frontend.bpu", cov))
        self.tracer = self.child(Tracer("rocket.tracer", cov, p))
        self.debug = self.child(DebugUnit("rocket.dm", cov))
        self.irq = self.child(InterruptController("rocket.clint", cov))

        self._hit_streak = 0
        self._last_line: int | None = None

        self.conditions(
            # frontend
            "frontend.fetch_fault",
            "frontend.redirect",
            "frontend.line_cross",
            # decode
            "decode.is_alu_reg",
            "decode.is_alu_imm",
            "decode.is_lui",
            "decode.is_auipc",
            "decode.is_load",
            "decode.is_store",
            "decode.is_branch",
            "decode.is_jal",
            "decode.is_jalr",
            "decode.is_amo",
            "decode.is_lr",
            "decode.is_sc",
            "decode.is_muldiv",
            "decode.is_csr",
            "decode.is_system",
            "decode.is_fence",
            "decode.is_fencei",
            "decode.illegal",
            "decode.rd_x0",
            "decode.rs1_x0",
            "decode.word_op",
            # hazards / bypass network
            "hazard.raw_rs1_ex",
            "hazard.raw_rs2_ex",
            "hazard.raw_rs1_mem",
            "hazard.raw_rs2_mem",
            "hazard.load_use_stall",
            "hazard.muldiv_busy",
            "hazard.chain3",          # >=3-deep dependency chain in flight
            "hazard.chain5",          # >=5-deep dependency chain
            "hazard.sp_update_use",   # sp consumed right after an sp update
            "hazard.load_use_after_miss",  # load-use stall on a missing load
            # execute
            "execute.br_taken",
            "execute.br_backward",
            "execute.result_zero",
            "execute.result_negative",
            "execute.div_by_zero",
            "execute.div_overflow",
            "execute.mul_high",
            "execute.shift_zero_amount",
            "execute.beq_taken",       # equality branch actually taken
            "execute.link_reg_used",   # jal/jalr writing ra (call idiom)
            "execute.muldiv_chain",    # muldiv consuming a muldiv result
            "execute.div_after_mul",   # div issued in a mul's shadow
            "execute.branch_after_cmp",  # slt/sltu result branched on
            # CSR dataflow
            "csr.write_read_roundtrip",  # read of a CSR written this test
            "csr.mepc_user_write",       # explicit mepc write (not handler)
            "csr.mstatus_mpp_clear",     # mstatus write dropping MPP
            # memory unit
            "mem.misaligned",
            "mem.access_fault",
            "mem.is_amo_op",
            "mem.sc_success",
            "mem.reservation_set",
            "mem.storebuf_forward",
            "mem.storebuf_full",
            "mem.fencei_flush",
            "mem.fencei_dirty",
            "mem.base_is_sp",          # frame-pointer addressing idioms
            "mem.base_is_gp_tp",
            "mem.frame_access",        # sp-relative, small positive offset
            "mem.neg_offset_store",    # push-style store
            "mem.hit_streak4",         # >=4 consecutive D$ hits (locality)
            "mem.same_line_reuse",     # access to the line touched last
            # deep cache-controller FSM states: these need specific address
            # sequences (locality, conflict, spill/reload patterns) that
            # random instruction streams almost never form — the paper's
            # "hard-to-reach critical components"
            "mem.line_reuse3",         # same line touched 3+ times
            "mem.set_thrash",          # two lines of one set each touched 2+
            "mem.victim_revisit",      # access to a line evicted this test
            "mem.redirty",             # store to an already-dirty line
            "mem.coalesce",            # consecutive stores, same address
            "mem.cross_line_pair",     # adjacent-line streaming pair
            "mem.forward_depth2",      # store-buffer forward from older entry
            "mem.spill_reload",        # sp-slot store later reloaded
            "mem.sc_after_store_fail", # reservation broken by own store
            "mem.amo_chain",           # AMO result feeding the next AMO
            "mem.lr_replay",           # LR replacing a live reservation
            # frontend loop/call behaviour
            "frontend.loop_iteration",  # same branch PC taken twice
            "frontend.tight_loop",      # short backward taken branch
            "frontend.branch_both_ways",  # same branch seen taken AND not
            "frontend.call_return_pair",  # return to the live call link
            "frontend.call_depth2",       # nested call with ra spilled
            "frontend.jalr_to_link",      # indirect jump through a live link
            # CSR unit / trap logic
            "csr.trap_taken",
            *[f"csr.cause_is_{c}" for c in _CAUSE_CONDITIONS],
            "csr.write",
            "csr.read_only_violation",
            "csr.priv_violation",
            "csr.counter_read",
            "csr.mret",
            "csr.in_user_mode",
            "csr.enter_user",
            "csr.wfi",
        )
        cov.freeze()

        # Memoized group masks: the decode conditions are a pure function of
        # the instruction word and the trap-cause comparators of the cause,
        # so each group collapses to one packed-bitmap OR per evaluation
        # (ConditionCoverage.record_mask) after the first sighting.
        self._decode_mask_cache: dict[int, int] = {}
        self._trap_mask_cache: dict[int, int] = {}
        # The always-on hazard conditions are data-dependent (no memoizing),
        # but their per-arm bits can be prebound as (false_bit, true_bit)
        # pairs: the run loop indexes each pair with the condition's bool and
        # folds the whole group into one record_mask.
        self._hazard_pairs = tuple(
            (self.arm_bit(name, False), self.arm_bit(name, True))
            for name in (
                "hazard.raw_rs1_ex", "hazard.raw_rs2_ex",
                "hazard.raw_rs1_mem", "hazard.raw_rs2_mem",
                "hazard.load_use_stall", "hazard.muldiv_busy",
                "hazard.chain3", "hazard.chain5",
                "hazard.sp_update_use", "hazard.load_use_after_miss",
            )
        )

    # ------------------------------------------------------------------ run --

    def run(self, program: list[int], base: int = DRAM_BASE) -> tuple[CommitTrace, CoverageReport]:
        """Simulate one test program; returns (commit trace, coverage report)."""
        rs = self.begin_run(program, base)
        while self.step_cycle(rs):
            pass
        return self.finish_run(rs)

    def begin_run(self, program: list[int], base: int = DRAM_BASE,
                  memory: SparseMemory | None = None) -> RunState:
        """Reset the core and build the loop state for one run.

        ``memory`` lets the batched engine substitute a lane-arena-backed
        view; the default builds a fresh :class:`SparseMemory` with the
        program and trap handler loaded.
        """
        self.reset()
        self.cov.begin_run()

        rs = RunState()
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
        # (rd, was_load, was_muldiv) of the previous two retired instructions.
        rs.prev1 = (None, False, False)
        rs.prev2 = (None, False, False)
        rs.muldiv_busy_until = 0
        rs.store_buffer = []
        rs.dep_chain = 0
        rs.prev_wrote_sp = False
        rs.branch_taken_counts = {}
        self._hit_streak = 0
        self._last_line: int | None = None
        # Deep-FSM trackers (see the condition block in __init__).
        self._line_touches: dict[int, int] = {}
        self._evicted_lines: set[int] = set()
        self._last_store_addr: int | None = None
        self._sp_slots: set[int] = set()
        self._resv_addr: int | None = None
        self._resv_broken = False
        self._amo_rd: int | None = None
        self._amo_age = 0
        self._prev_load_missed = False
        rs.link_stack = []
        rs.ra_saved = False
        rs.branch_outcomes = {}
        rs.csrs_written = set()
        rs.last_muldiv_was_mul = False
        rs.prev_was_cmp_rd = None
        return rs

    def finish_run(self, rs: RunState) -> tuple[CommitTrace, CoverageReport]:
        """Seal a finished run into (commit trace, coverage report)."""
        rs.trace.cycles = rs.cycles
        return rs.trace, CoverageReport.from_coverage(self.cov, rs.cycles)

    def step_cycle(self, rs: RunState) -> bool:
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

        self.irq.poll()
        rs.cycles += 1  # base CPI of 1

        # ---------------- fetch (through the I$: Bug1 lives here) -------
        word, fetch_cycles, fault = self._fetch(pc, memory)
        rs.cycles += fetch_cycles
        if fault:
            rs.cycles += p.trap_penalty
            rs.traps_taken += 1
            self._trap_conditions(EXC_INSTR_ACCESS_FAULT)
            trace.append(trace_entry(pc, 0, state.priv, None, 0, None,
                                     EXC_INSTR_ACCESS_FAULT, pc))
            state.reservation = None
            state.pc = state.csr.enter_trap(
                EXC_INSTR_ACCESS_FAULT, pc, pc, state.priv)
            state.priv = PRV_M
            state.csr.tick()
            if rs.traps_taken >= p.max_traps:
                trace.stop_reason = "max_traps"
                return False
            return True

        # ---------------- decode ----------------------------------------
        instr = decode(word)
        self._decode_conditions(instr, word)
        if instr is None:
            rs.cycles += p.trap_penalty
            rs.traps_taken += 1
            self._trap_conditions(EXC_ILLEGAL_INSTRUCTION)
            trace.append(trace_entry(pc, word, state.priv, None, 0, None,
                                     EXC_ILLEGAL_INSTRUCTION, word))
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
        pairs = self._pairs

        # ---------------- hazards ---------------------------------------
        # Condition values are computed up front, the timing bookkeeping
        # runs on them, and every observation of the cycle is ORed into
        # ``mask``, retired with one record_mask before the trap path and
        # one at the end (recording has no side effects, so ordering is
        # free).
        rs1 = instr.rs1 if spec.reads_rs1 else None
        rs2 = instr.rs2 if spec.reads_rs2 else None
        raw1_ex = rs1 is not None and rs1 != 0 and rs1 == rs.prev1[0]
        raw2_ex = rs2 is not None and rs2 != 0 and rs2 == rs.prev1[0]
        load_use = (raw1_ex or raw2_ex) and rs.prev1[1]
        if load_use:
            rs.cycles += 1
        muldiv_stall = spec.is_muldiv and rs.cycles < rs.muldiv_busy_until
        if muldiv_stall:
            rs.cycles = rs.muldiv_busy_until
        if raw1_ex or raw2_ex:
            rs.dep_chain += 1
        else:
            rs.dep_chain = 1 if spec.writes_rd else 0
        (p_raw1_ex, p_raw2_ex, p_raw1_mem, p_raw2_mem, p_load_use,
         p_muldiv, p_chain3, p_chain5, p_sp_use, p_lu_miss,
         ) = self._hazard_pairs
        mask = (
            p_raw1_ex[raw1_ex]
            | p_raw2_ex[raw2_ex]
            | p_raw1_mem[rs1 is not None and rs1 != 0 and rs1 == rs.prev2[0]]
            | p_raw2_mem[rs2 is not None and rs2 != 0 and rs2 == rs.prev2[0]]
            | p_load_use[load_use]
            | p_muldiv[muldiv_stall]
            | p_chain3[rs.dep_chain >= 3]
            | p_chain5[rs.dep_chain >= 5]
            | p_sp_use[bool(rs.prev_wrote_sp and rs1 == 2)]
            | p_lu_miss[bool(load_use and self._prev_load_missed)]
            | pairs["csr.in_user_mode"][state.priv == PRV_U]
        )
        rs.prev_wrote_sp = spec.writes_rd and instr.rd == 2
        if spec.is_muldiv:
            divlike_now = m.startswith(("div", "rem"))
            mask |= (
                pairs["execute.muldiv_chain"][
                    bool((raw1_ex or raw2_ex) and rs.prev1[2])]
                | pairs["execute.div_after_mul"][
                    bool(divlike_now and rs.last_muldiv_was_mul
                         and rs.cycles < rs.muldiv_busy_until + p.mul_latency)]
            )
            rs.last_muldiv_was_mul = not divlike_now

        # CSR-unit pre-checks (access legality conditions).
        if spec.is_csr:
            mask |= (
                pairs["csr.read_only_violation"][
                    csr_is_read_only(instr.csr)
                    and not (m in ("csrrs", "csrrc") and instr.rs1 == 0)
                    and not (m in ("csrrsi", "csrrci") and instr.zimm == 0)]
                | pairs["csr.priv_violation"][
                    state.priv < csr_min_privilege(instr.csr)]
                | pairs["csr.counter_read"][
                    instr.csr in (CSR_CYCLE, CSR_TIME, CSR_INSTRET)]
            )

        # ---------------- execute ---------------------------------------
        predicted = False
        if spec.is_branch:
            predicted = self.predictor.predict(pc)
        prv_before = state.priv
        try:
            result = execute(state, memory, instr, pc)
        except Trap as trap:
            self.cov.record_mask(mask)
            trap = self._adjust_trap_priority(trap, instr, memory)
            rs.cycles += p.trap_penalty
            rs.traps_taken += 1
            self._trap_conditions(trap.cause)
            self._mem_fault_conditions(instr, trap)
            trace.append(trace_entry(pc, word, prv_before, None, 0, None,
                                     trap.cause, trap.tval))
            state.reservation = None
            rs.store_buffer.clear()
            state.pc = state.csr.enter_trap(trap.cause, pc, trap.tval, prv_before)
            state.priv = PRV_M
            state.csr.tick()
            rs.prev1, rs.prev2 = (None, False, False), rs.prev1
            if rs.traps_taken >= p.max_traps:
                trace.stop_reason = "max_traps"
                return False
            return True

        rs.cycles += self._execute_conditions(instr, result, state, pc)
        rs.cycles += self._memory_model(instr, result, memory, rs.store_buffer)

        redirect = result.next_pc != (pc + 4) & WORD_MASK
        mask |= (
            pairs["csr.trap_taken"][False]
            | pairs["frontend.redirect"][redirect]
            | pairs["csr.mret"][m == "mret"]
            | pairs["csr.enter_user"][m == "mret" and state.priv == PRV_U]
            | pairs["csr.wfi"][bool(result.halt)]
            | pairs["csr.write"][result.csr_write is not None]
        )
        if spec.is_branch:
            taken = redirect
            self.predictor.update(pc, taken, predicted)
            if taken != predicted:
                rs.cycles += p.mispredict_penalty
            if taken:
                rs.branch_taken_counts[pc] = rs.branch_taken_counts.get(pc, 0) + 1
            outcomes = rs.branch_outcomes.setdefault(pc, set())
            outcomes.add(taken)
            mask |= (
                pairs["frontend.loop_iteration"][
                    taken and rs.branch_taken_counts.get(pc, 0) >= 2]
                | pairs["frontend.tight_loop"][taken and -64 <= instr.imm < 0]
                | pairs["execute.beq_taken"][m == "beq" and taken]
                | pairs["frontend.branch_both_ways"][len(outcomes) == 2]
                | pairs["execute.branch_after_cmp"][
                    rs.prev_was_cmp_rd is not None
                    and rs.prev_was_cmp_rd in (instr.rs1, instr.rs2)]
            )
        if spec.is_jump:
            mask |= pairs["execute.link_reg_used"][instr.rd == 1]
            if m == "jal" and instr.rd == 1:
                mask |= pairs["frontend.call_depth2"][
                    rs.ra_saved and bool(rs.link_stack)]
                rs.link_stack.append((pc + 4) & WORD_MASK)
                del rs.link_stack[:-8]
            if m == "jalr":
                via_link = instr.rs1 == 1 and bool(rs.link_stack)
                is_return = bool(
                    via_link and instr.rd == 0
                    and rs.link_stack and result.next_pc == rs.link_stack[-1]
                )
                mask |= (pairs["frontend.jalr_to_link"][via_link]
                         | pairs["frontend.call_return_pair"][is_return])
                if is_return:
                    rs.link_stack.pop()
        rs.prev_was_cmp_rd = (
            instr.rd
            if m in ("slt", "sltu", "slti", "sltiu") and instr.rd
            else None
        )
        if spec.is_store and instr.rs2 == 1:
            rs.ra_saved = True
        elif spec.is_load and instr.rd == 1:
            rs.ra_saved = False
        if spec.is_csr:
            will_write = result.csr_write is not None
            mask |= (
                pairs["csr.write_read_roundtrip"][
                    not in_handler and instr.csr in rs.csrs_written]
                | pairs["csr.mepc_user_write"][
                    not in_handler and will_write and instr.csr == CSR_MEPC]
                | pairs["csr.mstatus_mpp_clear"][
                    will_write and instr.csr == CSR_MSTATUS
                    and result.csr_write[1] & 0x1800 == 0]
            )
            if will_write and not in_handler:
                rs.csrs_written.add(instr.csr)

        if m == "fence.i":
            dirty = any(
                line.dirty for ways in self.dcache.lines for line in ways
            )
            mask |= (pairs["mem.fencei_flush"][True]
                     | pairs["mem.fencei_dirty"][dirty])
            self.icache.invalidate_all()
            rs.cycles += p.fencei_penalty
        elif spec.is_fence:
            mask |= pairs["mem.fencei_flush"][False]
        self.cov.record_mask(mask)

        # ---------------- retire ----------------------------------------
        if not in_handler:
            trace.append(self.tracer.retire(pc, instr, prv_before, result))
        if spec.is_muldiv:
            latency = (
                p.div_latency if m.startswith(("div", "rem"))
                else p.mul_latency
            )
            rs.muldiv_busy_until = rs.cycles + latency
        rs.prev1, rs.prev2 = (
            (result.rd if result.rd else None, spec.is_load, spec.is_muldiv),
            rs.prev1,
        )
        state.pc = result.next_pc & WORD_MASK
        state.csr.tick()
        if p.timed_counter_csr:
            # Expose the timed cycle count through mcycle — realistic,
            # but a false-positive source vs. the untimed golden model.
            delta = rs.cycles - state.csr.raw_read(CSR_MCYCLE)
            if delta > 0:
                state.csr.tick(cycles=delta, instret=0)
        if result.halt:
            trace.stop_reason = "wfi"
            return False
        return True

    # ---------------------------------------------------------------- fetch --

    def _fetch(self, pc: int, memory: SparseMemory) -> tuple[int, int, bool]:
        """Fetch through the I$. Returns (word, extra_cycles, fault).

        With ``bug1_fencei`` enabled, a cached line is served even when the
        backing memory has since been modified — the stale-instruction
        behaviour behind CWE-1202.
        """
        pairs = self._pairs
        if not memory.is_mapped(pc, 4):
            self.cov.record_mask(pairs["frontend.fetch_fault"][True])
            return 0, 0, True
        icache = self.icache
        offset = pc & (icache.line_bytes - 1)
        self.cov.record_mask(
            pairs["frontend.fetch_fault"][False]
            | pairs["frontend.line_cross"][offset == icache.line_bytes - 4])
        line = icache.lookup(pc)
        extra = 0
        if line is None:
            line = icache.refill(pc, memory.read_bytes)
            extra = icache.miss_penalty
        elif not self.params.bug1_fencei:
            # Clean core: I$ snoops stores, so always serve fresh memory.
            return memory.fetch(pc), 0, False
        return int.from_bytes(line.data[offset:offset + 4], "little"), extra, False

    # ------------------------------------------------------------- conditions --

    def _decode_conditions(self, instr, word: int) -> None:
        """Record the decode-stage condition group — one OR per instruction.

        All 23 decode conditions are a pure function of the fetched word, so
        the group's packed arm mask is built once per distinct word and then
        folded with a single ``record_mask``.
        """
        self.record_keyed_group(self._decode_mask_cache, word,
                                self._decode_mask, instr)

    def _decode_mask(self, instr) -> int:
        spec = instr.spec if instr is not None else None
        m = spec.mnemonic if spec else ""
        arm = self.arm_bit
        mask = arm("decode.illegal", instr is None)
        mask |= arm("decode.is_alu_reg", spec is not None and spec.fmt == "R"
                    and not spec.is_muldiv)
        mask |= arm("decode.is_alu_imm", spec is not None
                    and spec.fmt in ("I", "I_SHIFT64", "I_SHIFT32")
                    and not (spec.is_load or spec.is_jump))
        mask |= arm("decode.is_lui", m == "lui")
        mask |= arm("decode.is_auipc", m == "auipc")
        mask |= arm("decode.is_load", spec is not None and spec.is_load)
        mask |= arm("decode.is_store", spec is not None and spec.is_store)
        mask |= arm("decode.is_branch", spec is not None and spec.is_branch)
        mask |= arm("decode.is_jal", m == "jal")
        mask |= arm("decode.is_jalr", m == "jalr")
        mask |= arm("decode.is_amo", spec is not None and spec.is_amo
                    and not m.startswith(("lr.", "sc.")))
        mask |= arm("decode.is_lr", m.startswith("lr."))
        mask |= arm("decode.is_sc", m.startswith("sc."))
        mask |= arm("decode.is_muldiv", spec is not None and spec.is_muldiv)
        mask |= arm("decode.is_csr", spec is not None and spec.is_csr)
        mask |= arm("decode.is_system", spec is not None and spec.is_system)
        mask |= arm("decode.is_fence", m == "fence")
        mask |= arm("decode.is_fencei", m == "fence.i")
        mask |= arm("decode.rd_x0", spec is not None and spec.writes_rd
                    and instr.rd == 0)
        mask |= arm("decode.rs1_x0", spec is not None and spec.reads_rs1
                    and instr.rs1 == 0)
        word_op = spec is not None and (
            (m.endswith("w") and m not in ("lw", "sw", "lwu", "lhu"))
            or m.endswith(".w")
        )
        mask |= arm("decode.word_op", word_op)
        return mask

    def _execute_conditions(self, instr, result, state, pc: int) -> int:
        """Record execute-stage conditions; returns extra cycles."""
        spec = instr.spec
        pairs = self._pairs
        mask = 0
        extra = 0
        if spec.is_branch:
            mask = (pairs["execute.br_taken"][
                        result.next_pc != (pc + 4) & WORD_MASK]
                    | pairs["execute.br_backward"][instr.imm < 0])
        if result.rd:
            mask |= (pairs["execute.result_zero"][result.rd_value == 0]
                     | pairs["execute.result_negative"][
                         bool(result.rd_value >> 63)])
        if spec.is_muldiv:
            m = spec.mnemonic
            divlike = m.startswith(("div", "rem"))
            if divlike:
                divisor = state.read_reg(instr.rs2)
                dividend = state.read_reg(instr.rs1)
                mask |= (pairs["execute.div_by_zero"][divisor == 0]
                         | pairs["execute.div_overflow"][
                             divisor == WORD_MASK and dividend == 1 << 63])
                extra += self.params.div_latency
            else:
                mask |= pairs["execute.mul_high"][
                    m in ("mulh", "mulhsu", "mulhu")]
                extra += self.params.mul_latency
        if spec.fmt in ("I_SHIFT64", "I_SHIFT32"):
            mask |= pairs["execute.shift_zero_amount"][instr.shamt == 0]
        self.cov.record_mask(mask)
        return extra

    def _memory_model(self, instr, result, memory, store_buffer: list[int]) -> int:
        """D$-side modelling for a successfully executed instruction."""
        spec = instr.spec
        m = spec.mnemonic
        pairs = self._pairs
        mask = 0
        # SC conditions must also fire for *failed* SCs, which perform no
        # memory operation at all.
        if m.startswith("sc."):
            failed = result.rd_value != 0
            mask = (pairs["mem.sc_success"][not failed]
                    | pairs["mem.sc_after_store_fail"][
                        failed and self._resv_broken])
            self._resv_addr = None
            self._resv_broken = False
        mem = result.mem
        if mem is None:
            if mask:
                self.cov.record_mask(mask)
            return 0
        extra = 0
        addr = mem.addr
        dcache = self.dcache
        # Addressing-idiom and locality conditions.
        imm = instr.imm if not spec.is_amo else 0
        is_store = mem.is_store
        base_sp = instr.rs1 == 2
        line_key = addr // dcache.line_bytes
        last_line = self._last_line
        mask |= (
            pairs["mem.misaligned"][False]
            | pairs["mem.access_fault"][False]
            | pairs["mem.is_amo_op"][spec.is_amo]
            | pairs["mem.reservation_set"][m.startswith("lr.")]
            | pairs["mem.base_is_sp"][base_sp]
            | pairs["mem.base_is_gp_tp"][instr.rs1 in (3, 4)]
            | pairs["mem.frame_access"][base_sp and 0 <= imm < 64]
            | pairs["mem.neg_offset_store"][is_store and imm < 0]
            | pairs["mem.same_line_reuse"][line_key == last_line]
            | pairs["mem.cross_line_pair"][
                last_line is not None and abs(line_key - last_line) == 1]
        )
        self._last_line = line_key

        # Line-reuse / conflict FSM tracking.  A line key's set is its low
        # index bits.
        touches = self._line_touches
        count = touches[line_key] = touches.get(line_key, 0) + 1
        index_mask = dcache._index_mask
        set_idx = line_key & index_mask
        mask |= (
            pairs["mem.line_reuse3"][count >= 3]
            | pairs["mem.set_thrash"][
                count >= 2 and sum(
                    1 for key, n in touches.items()
                    if n >= 2 and key & index_mask == set_idx) >= 2]
            | pairs["mem.victim_revisit"][line_key in self._evicted_lines]
            | pairs["mem.redirty"][is_store and dcache.is_dirty(addr)]
            | pairs["mem.coalesce"][is_store and addr == self._last_store_addr]
        )
        if is_store:
            self._last_store_addr = addr

        # Spill/reload: sp-relative store slot later loaded back.
        if base_sp and not spec.is_amo:
            if is_store:
                self._sp_slots.add(addr)
                mask |= pairs["mem.spill_reload"][False]
            else:
                mask |= pairs["mem.spill_reload"][addr in self._sp_slots]

        # LR reservation FSM (the SC side is handled above, before the
        # early-return, so failed SCs participate too).
        if m.startswith("lr."):
            mask |= pairs["mem.lr_replay"][self._resv_addr is not None]
            self._resv_addr = addr
            self._resv_broken = False
        elif is_store and not m.startswith("sc.") and addr == self._resv_addr:
            self._resv_broken = True
            self._resv_addr = None

        # Chained atomics.
        if spec.is_amo and not m.startswith(("lr.", "sc.")):
            mask |= pairs["mem.amo_chain"][
                self._amo_rd is not None and self._amo_age <= 4
                and self._amo_rd in (instr.rs1, instr.rs2)]
            if result.rd:
                self._amo_rd = result.rd
                self._amo_age = 0
        self._amo_age += 1

        line = dcache.lookup(addr)
        if line is not None:
            self._hit_streak += 1
        else:
            self._hit_streak = 0
        mask |= pairs["mem.hit_streak4"][self._hit_streak >= 4]
        if line is None:
            dcache.refill(addr, memory.read_bytes)
            if dcache.last_evicted is not None:
                self._evicted_lines.add(dcache.last_evicted)
            extra += dcache.miss_penalty
        self._prev_load_missed = spec.is_load and line is None
        if is_store:
            dcache.update_stored_line(
                addr, mem.data.to_bytes(mem.size, "little"))
            full = len(store_buffer) >= self.params.store_buffer_depth
            mask |= pairs["mem.storebuf_full"][full]
            if full:
                extra += 1
                store_buffer.pop(0)
            store_buffer.append(addr)
        else:
            mask |= pairs["mem.storebuf_forward"][addr in store_buffer]
            if store_buffer:
                store_buffer.pop(0)
        self.cov.record_mask(mask)
        return extra

    def _trap_conditions(self, cause: int) -> None:
        """Record the trap-entry condition group — mask memoized per cause."""
        self.record_keyed_group(self._trap_mask_cache, cause,
                                self._trap_mask, cause)

    def _trap_mask(self, cause: int) -> int:
        mask = self.arm_bit("csr.trap_taken", True)
        for c in _CAUSE_CONDITIONS:
            mask |= self.arm_bit(f"csr.cause_is_{c}", cause == c)
        return mask

    def _mem_fault_conditions(self, instr, trap: Trap) -> None:
        if instr is None or not instr.spec.is_memory:
            return
        pairs = self._pairs
        self.cov.record_mask(
            pairs["mem.misaligned"][
                trap.cause in (EXC_LOAD_MISALIGNED, EXC_STORE_MISALIGNED)]
            | pairs["mem.access_fault"][
                trap.cause in (EXC_LOAD_ACCESS_FAULT, EXC_STORE_ACCESS_FAULT)])

    # ----------------------------------------------------------- Finding1 ----

    def _adjust_trap_priority(self, trap: Trap, instr, memory: SparseMemory) -> Trap:
        """Finding1: report access-fault when an access is misaligned *and*
        unmapped (the spec — and golden model — prioritise misaligned)."""
        if not self.params.finding1_trap_priority or instr is None:
            return trap
        spec = instr.spec
        if not spec.is_memory:
            return trap
        if trap.cause == EXC_LOAD_MISALIGNED:
            size = _LOAD_SIZE.get(spec.mnemonic, 4 if spec.mnemonic.endswith(".w") else 8)
            if not memory.is_mapped(trap.tval, size):
                return Trap(EXC_LOAD_ACCESS_FAULT, tval=trap.tval)
        elif trap.cause == EXC_STORE_MISALIGNED:
            size = _STORE_SIZE.get(spec.mnemonic, 4 if spec.mnemonic.endswith(".w") else 8)
            if not memory.is_mapped(trap.tval, size):
                return Trap(EXC_STORE_ACCESS_FAULT, tval=trap.tval)
        return trap
