"""E-TRAIN — training-pipeline telemetry (paper §IV-C).

The paper monitors, per PPO step, "the PPO algorithm's loss, the
Kullback-Leibler divergence between optimization policies, and the mean
rewards assigned at each step"; step 2's purpose is raising the validity of
generations (fewer illegal instructions burnt in RTL simulation).  The bench
runs the three-step pipeline from scratch at a reduced scale and reports the
step-1 loss drop, the step-2 validity improvement and reward trend, and the
step-3 coverage-reward telemetry.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.ml.lm_training import LMTrainConfig
from repro.ml.pipeline import ChatFuzzPipeline, PipelineConfig
from repro.ml.rewards import DisassemblerReward
from repro.ml.transformer import GPT2Config
from repro.soc.harness import make_harness


def _validity(pipeline, seed):
    reward = DisassemblerReward()
    bodies = pipeline.make_generator(seed=seed).generate_batch(16)
    return float(np.mean([reward.validity_rate(b) for b in bodies]))


def _run():
    pipeline = ChatFuzzPipeline(PipelineConfig(
        corpus_functions=150,
        tokenizer_max_vocab=2048,
        model=GPT2Config(dim=48, n_layers=2, n_heads=2, max_seq=80),
        lm=LMTrainConfig(steps=300, batch_size=12, lr=2e-3),
        step2_steps=5,
        step3_steps=3,
        ppo_batch_size=12,
        response_instructions=16,
    ))
    lm_result = pipeline.run_step1()
    validity_after_1 = _validity(pipeline, seed=61)
    step2 = pipeline.run_step2()
    validity_after_2 = _validity(pipeline, seed=61)
    step3 = pipeline.run_step3(make_harness("rocket"))
    return pipeline, lm_result, step2, step3, validity_after_1, validity_after_2


def test_training_pipeline_telemetry(benchmark):
    (pipeline, lm_result, step2, step3,
     validity_after_1, validity_after_2) = benchmark.pedantic(
        _run, rounds=1, iterations=1)
    rows = [
        ["step1 LM loss", f"{lm_result.initial_loss:.2f} -> {lm_result.final_loss:.2f}",
         "decreasing"],
        ["step2 mean reward", f"{step2.mean_rewards[0]:+.2f} -> {step2.mean_rewards[-1]:+.2f}",
         "increasing (Eq.1)"],
        ["step2 |KL| final", f"{abs(step2.kls[-1]):.4f}", "monitored"],
        ["validity after step1", f"{validity_after_1:.2%}", "-"],
        ["validity after step2", f"{validity_after_2:.2%}", "improves"],
        ["step3 coverage reward", f"{step3.mean_rewards[0]:+.2f} -> {step3.mean_rewards[-1]:+.2f}",
         "monitored"],
        ["step3 campaign coverage", f"{pipeline.result.step3_coverage_percent:.2f}%",
         "grows during training"],
    ]
    emit(format_table(["telemetry", "measured", "paper expectation"], rows,
                      title="E-TRAIN: three-step pipeline telemetry"))
    assert lm_result.final_loss < lm_result.initial_loss * 0.5
    assert validity_after_2 >= validity_after_1 - 0.05
    assert len(step2.losses) == 5
    assert all(np.isfinite(step2.losses))
    assert pipeline.result.step3_coverage_percent > 0
