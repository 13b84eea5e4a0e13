#!/usr/bin/env python3
"""Train the full three-step ChatFuzz pipeline (paper Figure 1b) and inspect
every stage's telemetry.

Scale is controlled by one knob so the script runs in a couple of minutes on
a laptop; raise SCALE for better models.

Run:  python examples/train_pipeline.py
"""

import time

import numpy as np

from repro.ml.lm_training import LMTrainConfig
from repro.ml.pipeline import ChatFuzzPipeline, PipelineConfig
from repro.ml.rewards import DisassemblerReward
from repro.ml.transformer import GPT2Config
from repro.soc.harness import make_harness

SCALE = 1.0

config = PipelineConfig(
    corpus_functions=int(200 * SCALE),
    tokenizer_max_vocab=2048,
    model=GPT2Config(dim=48, n_layers=2, n_heads=2, max_seq=80),
    lm=LMTrainConfig(steps=int(350 * SCALE), batch_size=12, lr=2e-3),
    step2_steps=int(6 * SCALE),       # paper: 30 epochs
    step3_steps=int(3 * SCALE),       # paper: 15 epochs
    ppo_batch_size=12,
    response_instructions=20,
)

t0 = time.time()
pipeline = ChatFuzzPipeline(config)
print(f"corpus: {len(pipeline.corpus)} functions, "
      f"{pipeline.corpus.total_instructions()} instructions")
print(f"tokenizer: {pipeline.tokenizer.vocab_size} half-word tokens")
print(f"model: {pipeline.model.num_parameters():,} parameters\n")

probe = DisassemblerReward()


def validity() -> float:
    bodies = pipeline.make_generator(seed=99).generate_batch(16)
    return float(np.mean([probe.validity_rate(b) for b in bodies]))


# -- step 1: unsupervised machine-language modelling -------------------------
lm = pipeline.run_step1()
print(f"[step1] LM loss {lm.initial_loss:.3f} -> {lm.final_loss:.3f} "
      f"({time.time() - t0:.0f}s)")
print(f"[step1] generation validity: {validity():.1%}")

# -- step 2: PPO clean-up with the disassembler reward (Eq. 1) ---------------
step2 = pipeline.run_step2()
print(f"[step2] mean reward {step2.mean_rewards[0]:+.3f} -> "
      f"{step2.mean_rewards[-1]:+.3f}, |KL| {abs(step2.kls[-1]):.4f} "
      f"({time.time() - t0:.0f}s)")
print(f"[step2] generation validity: {validity():.1%}")

# -- step 3: PPO against RTL-simulation coverage -----------------------------
harness = make_harness("rocket")
step3 = pipeline.run_step3(harness)
print(f"[step3] coverage reward {step3.mean_rewards[0]:+.3f} -> "
      f"{step3.mean_rewards[-1]:+.3f}; campaign coverage "
      f"{pipeline.result.step3_coverage_percent:.2f}% "
      f"({time.time() - t0:.0f}s)")

# -- the product: an input generator for the fuzzing loop --------------------
from repro.isa import Disassembler  # noqa: E402

generator = pipeline.make_generator(seed=7)
body = generator.generate_batch(1)[0]
print(f"\nsample generated test ({len(body)} instructions):")
print(Disassembler().listing(body))
