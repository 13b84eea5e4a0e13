#!/usr/bin/env python3
"""Quickstart: assemble a program, run it differentially, read the coverage.

This walks the three layers a new user meets first:

1. the ISA layer (assemble / disassemble),
2. the differential harness (golden ISS vs. the RocketCore model),
3. condition coverage and the mismatch detector.

Run:  python examples/quickstart.py
"""

from repro.fuzzing.mismatch import compare_traces
from repro.isa import Assembler, Disassembler
from repro.isa.spec import DRAM_BASE
from repro.soc.harness import make_harness, preamble_words

# ---------------------------------------------------------------------------
# 1. Write a small test program.  The harness preamble initialises sp/s0/gp
#    to valid data addresses and points ra at the terminating wfi.
# ---------------------------------------------------------------------------
body_base = DRAM_BASE + 4 * (len(preamble_words()) + 2)
body = Assembler(base=body_base).assemble("""
    li   a0, 6
    li   a1, 7
    mul  a2, a0, a1        # 42 — Bug2: Rocket's tracer drops this write-back
    sd   a2, 0(s0)
    ld   a3, 0(s0)
loop:
    addi a0, a0, -1
    bnez a0, loop          # trains the branch predictor
    amoor.d x0, a1, (s0)   # Finding2: trace shows data arriving at x0
    ecall                  # takes a trap; the handler skips it
""")

print("=== program ===")
print(Disassembler().listing(body, base=body_base))

# ---------------------------------------------------------------------------
# 2. Run it on the RocketCore model (with the paper's bugs injected) and on
#    the golden ISS.
# ---------------------------------------------------------------------------
harness = make_harness("rocket")
dut_trace, golden_trace, report = harness.run_differential(body)

print("\n=== DUT commit trace (first 12 retired instructions) ===")
print(dut_trace.render(limit=12))

# ---------------------------------------------------------------------------
# 3. Coverage + mismatches — the two feedback signals ChatFuzz runs on.
# ---------------------------------------------------------------------------
print(f"\ncondition coverage: {report.standalone_count}/{report.total_arms} "
      f"arms = {100 * report.standalone_fraction:.1f}% "
      f"in {report.cycles} cycles")

mismatches = compare_traces(dut_trace, golden_trace)
print(f"\n=== {len(mismatches)} mismatches vs. golden model ===")
for mismatch in mismatches:
    print(" ", mismatch)

from repro.analysis.bugs import classify_mismatch  # noqa: E402

print("\n=== classified against the paper's findings ===")
for mismatch in mismatches:
    match = classify_mismatch(mismatch)
    if match is not None:
        print(f"  {match.bug_id} ({match.cwe or 'spec deviation'}): "
              f"{match.description}")
