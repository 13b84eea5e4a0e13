"""Pipelined FuzzLoop: parity with the synchronous path, the one-batch
feedback-lag contract, drain/close lifecycle, and state-capture guards.

The pipelined mode overlaps generation of batch N+1 with execution of
batch N.  The load-bearing guarantees:

- results are folded whole-batch, in submission order, so for a
  feedback-free generator the pipelined loop is byte-identical to the
  synchronous one (serial or sharded executor alike);
- feedback-driven generators see ``observe`` calls in submission order but
  lagged one batch behind generation — pinned explicitly below;
- close is idempotent and safe with a prefetched batch in flight (no
  hangs, no leaked workers, no half-folded state);
- ``state_dict`` refuses to snapshot around an in-flight batch.
"""

from __future__ import annotations

import pytest

from repro.baselines.random_regression import RandomRegressionGenerator
from repro.baselines.thehuzz import TheHuzzGenerator
from repro.fuzzing import Campaign, FuzzLoop
from repro.fuzzing.pool import ShardedExecutor
from repro.soc.harness import harness_factory

BATCH = 8


def _loop(pipeline: bool, executor=None, generator=None) -> FuzzLoop:
    return FuzzLoop(
        generator if generator is not None
        else RandomRegressionGenerator(body_instructions=8, seed=3),
        harness_factory("rocket"),
        batch_size=BATCH,
        pipeline=pipeline,
        executor=executor,
    )


def _state_fingerprint(loop: FuzzLoop) -> tuple:
    return (
        loop.tests_run,
        loop.total_percent,
        loop.clock.seconds,
        loop.detector.raw_count,
        loop.detector.unique_count,
        loop.calculator.cumulative.hits,
    )


class TestPipelinedParity:
    def test_serial_pipelined_matches_sync(self):
        """SerialExecutor degenerates: same folds, same state, batch for
        batch (the executor defers to collect time)."""
        sync = _loop(pipeline=False)
        outcomes_sync = [sync.run_batch() for _ in range(4)]
        piped = _loop(pipeline=True)
        outcomes_piped = [piped.run_batch() for _ in range(3)]
        outcomes_piped.append(piped.drain())  # fold the in-flight batch
        for a, b in zip(outcomes_piped, outcomes_sync):
            assert [i.words for i in a.inputs] == [i.words for i in b.inputs]
            assert a.scores == b.scores
            assert a.coverages == b.coverages
            assert a.mismatch_count == b.mismatch_count
            assert a.total_percent == b.total_percent
        assert _state_fingerprint(piped) == _state_fingerprint(sync)

    def test_sharded_pipelined_matches_sync(self):
        sync = _loop(pipeline=False)
        for _ in range(4):
            sync.run_batch()
        piped = _loop(pipeline=True, executor=ShardedExecutor(n_workers=2))
        with piped:
            for _ in range(3):
                piped.run_batch()
            piped.drain()
            assert _state_fingerprint(piped) == _state_fingerprint(sync)

    def test_each_run_batch_folds_exactly_one_batch(self):
        piped = _loop(pipeline=True)
        assert piped.run_batch().inputs  # first call submits then folds
        assert piped.tests_run == BATCH
        piped.run_batch()
        assert piped.tests_run == 2 * BATCH
        piped.close()


class TestFeedbackLagContract:
    def test_observe_in_order_but_one_batch_behind_generation(self):
        """Generation of batch N+1 happens before observe(batch N); the
        observe stream itself stays whole-batch and in submission order."""
        events: list[tuple[str, int]] = []

        class Recording(RandomRegressionGenerator):
            def generate_batch(self, n):
                events.append(("generate", len([e for e in events
                                                if e[0] == "generate"]) + 1))
                return super().generate_batch(n)

            def observe(self, inputs, coverages, scores, reports=None):
                events.append(("observe", len([e for e in events
                                               if e[0] == "observe"]) + 1))

        loop = _loop(pipeline=True,
                     generator=Recording(body_instructions=8, seed=3))
        for _ in range(2):
            loop.run_batch()
        loop.drain()
        # 3 folds need 3 generates; pipelining keeps one extra prefetched
        # only *between* calls — drain folds it without generating more.
        assert events == [
            ("generate", 1), ("generate", 2), ("observe", 1),
            ("generate", 3), ("observe", 2), ("observe", 3),
        ]

    def test_feedback_driven_generator_runs_but_streams_differ(self):
        """TheHuzz uses observe for corpus selection, so the pipelined
        stream legitimately diverges from sync after the first batch — the
        documented one-batch lag, not a bug.  Totals still account."""
        sync = _loop(pipeline=False,
                     generator=TheHuzzGenerator(body_instructions=8, seed=5))
        piped = _loop(pipeline=True,
                      generator=TheHuzzGenerator(body_instructions=8, seed=5))
        first_sync = sync.run_batch()
        first_piped = piped.run_batch()
        # Batch 1 predates any feedback: identical in both modes.
        assert ([i.words for i in first_piped.inputs]
                == [i.words for i in first_sync.inputs])
        sync.run_batch()
        piped.run_batch()
        piped.drain()
        assert piped.tests_run == 3 * BATCH
        piped.close()


class TestLifecycle:
    def test_drain_without_prefetch_returns_none(self):
        piped = _loop(pipeline=True)
        assert piped.drain() is None
        sync = _loop(pipeline=False)
        sync.run_batch()
        assert sync.drain() is None  # sync loops never hold a prefetch

    def test_close_is_idempotent_and_discards_prefetch(self):
        piped = _loop(pipeline=True)
        piped.run_batch()
        assert piped._inflight is not None
        piped.close()
        assert piped._inflight is None
        piped.close()  # double close must not raise
        assert piped.tests_run == BATCH  # the discarded prefetch never folded

    def test_close_with_inflight_sharded_batch_reaps_workers(self):
        piped = _loop(pipeline=True, executor=ShardedExecutor(n_workers=2))
        piped.run_batch()
        piped.close()  # must return (no hang) and shut the pool down
        piped.close()
        assert piped.executor._pool is None

    def test_state_dict_refuses_inflight_then_works_after_drain(self):
        piped = _loop(pipeline=True)
        piped.run_batch()
        with pytest.raises(RuntimeError, match="drain"):
            piped.state_dict()
        piped.drain()
        sync = _loop(pipeline=False)
        sync.run_batch()
        sync.run_batch()
        snapshot, expected = piped.state_dict(), sync.state_dict()
        for key in ("coverage", "clock_seconds", "clock_started", "tests_run"):
            assert snapshot[key] == expected[key]

    def test_campaign_context_manager_with_pipelined_loop(self):
        sync_result = Campaign(_loop(pipeline=False), "c").run_tests(24)
        with Campaign(_loop(pipeline=True), "c") as campaign:
            result = campaign.run_tests(24)
        assert result.tests_run == sync_result.tests_run
        assert result.final_coverage == sync_result.final_coverage
        assert result.curve == sync_result.curve
