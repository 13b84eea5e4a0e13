#!/usr/bin/env python3
"""BOOM exploration: reproduce the fast coverage saturation (paper §V-A).

"ChatFuzz accomplishes a remarkable 97.02% condition coverage in 49 minutes"
on BOOM.  This example fuzzes the BOOM model and shows which condition arms
remain uncovered — on BOOM that residue is essentially the debug logic.

Run:  python examples/explore_boom.py [--golden-lanes N] [--dut-lanes N]

Lane widths are pure perf knobs (``BoomBatchSimulator`` is bit-identical
to the scalar core): the coverage numbers below are the same at any
width; only wall-clock changes.
"""

import argparse

from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.ml.lm_training import LMTrainConfig
from repro.ml.pipeline import ChatFuzzPipeline, PipelineConfig
from repro.ml.transformer import GPT2Config
from repro.soc.harness import make_harness

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--golden-lanes", type=int, default=0, metavar="N",
                    help="batched golden engine lane width "
                         "(0 = scalar golden, the default)")
parser.add_argument("--dut-lanes", type=int, default=0, metavar="N",
                    help="batched BOOM DUT engine lane width "
                         "(0 = scalar DUT, the default)")
args = parser.parse_args()

print("training ChatFuzz...")
pipeline = ChatFuzzPipeline(PipelineConfig(
    corpus_functions=180,
    model=GPT2Config(dim=48, n_layers=2, n_heads=2, max_seq=80),
    lm=LMTrainConfig(steps=300, batch_size=12, lr=2e-3),
    step2_steps=4, step3_steps=2, ppo_batch_size=12,
    response_instructions=20,
))
pipeline.run_all(make_harness("rocket"))

print("fuzzing the BOOM model...")
harness = make_harness("boom", golden_lanes=args.golden_lanes,
                       dut_lanes=args.dut_lanes)
loop = FuzzLoop(pipeline.make_generator(seed=21), harness, batch_size=20)
result = Campaign(loop, "chatfuzz-boom").run_tests(250)

print(f"\n{result.summary()}")
print(f"paper: 97.02% in 49 minutes; "
      f"measured: {result.final_coverage_percent:.2f}% in "
      f"{result.sim_hours * 60:.0f} simulated minutes")

print("\ncoverage trajectory:")
for point in result.curve[:: max(1, len(result.curve) // 8)]:
    bar = "#" * int(point.coverage_percent / 2)
    print(f"  {point.tests:5d} tests  {point.coverage_percent:6.2f}%  {bar}")

cov = harness.core.cov
missed = sorted(
    cov.arm_name(arm) for arm in loop.calculator.cumulative.missing()
)
print(f"\nuncovered arms ({len(missed)}):")
for name in missed:
    print("  ", name)
print("\n(the boom.dm.* debug-module arms are unreachable by instruction "
      "fuzzing — they are BOOM's ~3% residue, as in the paper)")
