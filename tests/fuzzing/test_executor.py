"""Harness executors: serial/sharded parity, ordering, failure modes.

The load-bearing guarantee is that :class:`ShardedExecutor` is externally
indistinguishable from :class:`SerialExecutor` — same results, same order —
so the coverage calculator, mismatch detector and generator feedback see
byte-identical streams (the same way PR 1 pinned cached vs uncached
decoding).
"""

from __future__ import annotations

import multiprocessing
import os

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.baselines.thehuzz import TheHuzzGenerator
from repro.fuzzing import Campaign, FuzzLoop
from repro.fuzzing.executor import (
    DeferredBatch,
    DifferentialResult,
    SerialExecutor,
)
from repro.fuzzing.pool import ShardedExecutor, SubmittedBatch
from repro.golden.trace import CommitTrace
from repro.isa.encoder import encode
from repro.rtl.report import CoverageReport
from repro.soc.harness import harness_factory, make_harness

#: Worker-crash style exercised by the failure-mode tests below.
POISON_RAISE = 0xDEAD_BEEF
POISON_EXIT = 0xDEAD_0E1F

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="factory classes defined in a test module need fork to reach workers",
)


def _bodies(n: int, start: int = 1) -> list[list[int]]:
    """Distinct single-instruction bodies (rd value identifies the test)."""
    return [[encode("addi", rd=10, rs1=0, imm=start + i)] for i in range(n)]


class ExplodingHarness:
    """Stand-in harness whose behaviour is selected by the test body."""

    total_arms = 8

    def run_differential(self, body, base=0):
        if body and body[0] == POISON_RAISE:
            raise ValueError("injected harness fault")
        if body and body[0] == POISON_EXIT:
            os._exit(3)
        trace = CommitTrace(stop_reason="wfi")
        report = CoverageReport(hits=frozenset({body[0] % 8} if body else ()),
                                total_arms=self.total_arms)
        return trace, trace, report


def exploding_factory() -> ExplodingHarness:
    return ExplodingHarness()


class TestSerialExecutor:
    def test_accepts_live_harness(self):
        executor = SerialExecutor(make_harness("rocket"))
        results = executor.run_batch(_bodies(2))
        assert len(results) == 2
        assert all(isinstance(r, DifferentialResult) for r in results)

    def test_accepts_factory_and_builds_lazily(self):
        executor = SerialExecutor(harness_factory("rocket"))
        assert executor._harness is None
        assert executor.total_arms > 0
        assert executor.harness is executor.harness  # built once, reused

    def test_matches_direct_harness_calls(self):
        harness = make_harness("rocket")
        results = SerialExecutor(harness_factory("rocket")).run_batch(_bodies(3))
        for body, res in zip(_bodies(3), results):
            dut, gold, report = harness.run_differential(body)
            assert (res.dut_trace, res.golden_trace, res.report) == \
                (dut, gold, report)

    def test_unbound_raises(self):
        with pytest.raises(RuntimeError, match="not bound"):
            SerialExecutor().run_batch(_bodies(1))


class TestShardedExecutor:
    def test_rejects_live_harness(self):
        with pytest.raises(TypeError, match="factory"):
            ShardedExecutor(make_harness("rocket"))
        with pytest.raises(TypeError, match="factory"):
            ShardedExecutor().bind(make_harness("rocket"))

    def test_total_arms_matches_serial(self):
        factory = harness_factory("rocket")
        with ShardedExecutor(factory, n_workers=2) as executor:
            assert executor.total_arms == SerialExecutor(factory).total_arms

    def test_results_in_submission_order(self):
        bodies = _bodies(13)
        serial = SerialExecutor(harness_factory("rocket")).run_batch(bodies)
        with ShardedExecutor(harness_factory("rocket"), n_workers=4) as executor:
            sharded = executor.run_batch(bodies)
        assert sharded == serial

    def test_chunking_and_worker_reuse_across_batches(self):
        with ShardedExecutor(harness_factory("rocket"), n_workers=2,
                             chunk_size=1) as executor:
            executor.run_batch(_bodies(5))
            pool = executor._pool
            executor.run_batch(_bodies(3, start=100))
            assert executor._pool is pool  # same processes, no respawn
            assert executor.stats.batches == 2
            assert executor.stats.tests == 8
            assert executor.stats.chunks == 8  # chunk_size=1 -> one per body

    def test_default_chunking_is_one_chunk_per_worker(self):
        with ShardedExecutor(harness_factory("rocket"), n_workers=4) as executor:
            executor.run_batch(_bodies(10))
            assert executor.stats.chunks == 4  # ceil(10/4)=3 -> 3,3,3,1

    def test_default_chunking_never_splits_below_lane_width(self):
        # Even-split would give ceil(64/4)=16-body chunks, starving the
        # 32-lane engines; auto-sizing must widen to max(lanes, even_split).
        executor = ShardedExecutor(
            harness_factory("rocket", golden_lanes=32, dut_lanes=8), n_workers=4)
        chunks = executor._chunks(_bodies(64))
        assert [len(c) for c in chunks] == [32, 32]
        # Larger batches keep the even split once it exceeds the lane width.
        assert [len(c) for c in executor._chunks(_bodies(256))] == [64] * 4
        executor.close()

    def test_explicit_chunk_size_overrides_lane_width(self):
        executor = ShardedExecutor(
            harness_factory("rocket", golden_lanes=32), n_workers=4,
            chunk_size=8)
        assert [len(c) for c in executor._chunks(_bodies(32))] == [8] * 4
        executor.close()

    def test_laneless_factories_keep_plain_even_split(self):
        executor = ShardedExecutor(harness_factory("rocket"), n_workers=4)
        assert [len(c) for c in executor._chunks(_bodies(10))] == [3, 3, 3, 1]
        executor.close()

    def test_empty_batch(self):
        with ShardedExecutor(harness_factory("rocket"), n_workers=2) as executor:
            assert executor.run_batch([]) == []
            assert executor.stats.batches == 0

    def test_close_is_idempotent_and_final(self):
        executor = ShardedExecutor(harness_factory("rocket"), n_workers=2)
        executor.run_batch(_bodies(2))
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.run_batch(_bodies(1))

    def test_invalid_worker_count(self):
        for bad in (0, -2):
            with pytest.raises(ValueError):
                ShardedExecutor(harness_factory("rocket"), n_workers=bad)


class TestSubmitCollectSplit:
    """The asynchronous submit_batch/collect pair that pipelined loops use.

    Serial executors must *defer* (no work until collect — the synchronous
    degenerate path); the sharded executor must dispatch immediately and
    support several outstanding handles.
    """

    def test_serial_submit_defers_execution(self):
        executor = SerialExecutor(harness_factory("rocket"))
        handle = executor.submit_batch(_bodies(3))
        assert isinstance(handle, DeferredBatch)
        assert executor._harness is None  # nothing ran at submit time
        results = executor.collect(handle)
        assert results == SerialExecutor(
            harness_factory("rocket")).run_batch(_bodies(3))

    def test_handles_are_single_use(self):
        executor = SerialExecutor(harness_factory("rocket"))
        handle = executor.submit_batch(_bodies(1))
        executor.collect(handle)
        with pytest.raises(RuntimeError, match="already collected"):
            executor.collect(handle)

    def test_foreign_handle_rejected(self):
        executor = SerialExecutor(harness_factory("rocket"))
        with pytest.raises(TypeError, match="submit_batch"):
            executor.collect(object())

    def test_sharded_outstanding_handles_collect_in_any_order(self):
        first_bodies, second_bodies = _bodies(5), _bodies(5, start=100)
        serial = SerialExecutor(harness_factory("rocket"))
        expected_first = serial.run_batch(first_bodies)
        expected_second = serial.run_batch(second_bodies)
        with ShardedExecutor(harness_factory("rocket"), n_workers=2) as executor:
            first = executor.submit_batch(first_bodies)
            second = executor.submit_batch(second_bodies)
            assert isinstance(first, SubmittedBatch)
            # Collect out of submission order: handles are independent.
            assert executor.collect(second) == expected_second
            assert executor.collect(first) == expected_first
            assert executor.stats.batches == 2
            assert executor.stats.tests == 10

    def test_sharded_run_batch_equals_submit_collect(self):
        bodies = _bodies(7)
        with ShardedExecutor(harness_factory("rocket"), n_workers=2) as executor:
            via_split = executor.collect(executor.submit_batch(bodies))
            via_run = executor.run_batch(bodies)
        assert via_split == via_run

    def test_sharded_double_collect_rejected(self):
        with ShardedExecutor(harness_factory("rocket"), n_workers=2) as executor:
            handle = executor.submit_batch(_bodies(2))
            executor.collect(handle)
            with pytest.raises(RuntimeError, match="already collected"):
                executor.collect(handle)

    def test_empty_submit_collects_to_empty(self):
        with ShardedExecutor(harness_factory("rocket"), n_workers=2) as executor:
            assert executor.collect(executor.submit_batch([])) == []
            assert executor.stats.batches == 0

    def test_collect_after_close_raises_not_hangs(self):
        executor = ShardedExecutor(harness_factory("rocket"), n_workers=2)
        handle = executor.submit_batch(_bodies(4))
        executor.close()  # cancels/drains in-flight chunks, reaps workers
        with pytest.raises(RuntimeError, match="closed"):
            executor.collect(handle)


@fork_only
class TestFailureModes:
    """A worker failing mid-batch must not deadlock or corrupt state."""

    def test_worker_exception_surfaces_and_pool_survives(self):
        bodies = _bodies(6)
        bodies[3] = [POISON_RAISE]
        with ShardedExecutor(exploding_factory, n_workers=2,
                             chunk_size=1) as executor:
            with pytest.raises(ValueError, match="injected harness fault"):
                executor.run_batch(bodies)
            # The pool is still usable for the next batch.
            results = executor.run_batch(_bodies(4))
            assert len(results) == 4

    def test_failed_batch_leaves_loop_state_consistent(self):
        class PoisonOnceGenerator:
            def __init__(self):
                self.calls = 0

            def generate_batch(self, n):
                self.calls += 1
                batch = _bodies(n)
                if self.calls == 1:
                    batch[n // 2] = [POISON_RAISE]
                return batch

        loop = FuzzLoop(PoisonOnceGenerator(), exploding_factory,
                        batch_size=4,
                        executor=ShardedExecutor(n_workers=2, chunk_size=1))
        with loop:
            with pytest.raises(ValueError):
                loop.run_batch()
            assert loop.tests_run == 0
            assert loop.total_percent == 0.0
            assert loop.detector.raw_count == 0
            assert loop.clock.seconds == 0.0
            # The next (clean) batch proceeds normally on the same pool.
            outcome = loop.run_batch()
            assert loop.tests_run == 4
            assert len(outcome.scores) == 4

    def test_worker_death_raises_broken_pool_not_deadlock(self):
        bodies = _bodies(4)
        bodies[1] = [POISON_EXIT]
        executor = ShardedExecutor(exploding_factory, n_workers=2,
                                   chunk_size=1)
        try:
            with pytest.raises(BrokenProcessPool):
                executor.run_batch(bodies)
        finally:
            executor.close()  # must return, not hang, on a broken pool


class TestShardedSerialParity:
    """Acceptance pin: fixed-seed campaign, ShardedExecutor(4) == serial."""

    BATCHES = 4
    BATCH_SIZE = 8

    def _run(self, executor):
        loop = FuzzLoop(
            TheHuzzGenerator(body_instructions=16, seed=5),
            harness_factory("rocket"),
            batch_size=self.BATCH_SIZE,
            executor=executor,
        )
        with loop:
            outcomes = [loop.run_batch() for _ in range(self.BATCHES)]
        return loop, outcomes

    def test_outcome_streams_identical(self):
        serial_loop, serial_out = self._run(None)
        sharded_loop, sharded_out = self._run(ShardedExecutor(n_workers=4))
        for ser, shd in zip(serial_out, sharded_out):
            assert shd.scores == ser.scores
            assert shd.coverages == ser.coverages
            assert shd.mismatch_count == ser.mismatch_count
            assert shd.total_percent == ser.total_percent
            assert [i.words for i in shd.inputs] == [i.words for i in ser.inputs]
        assert sharded_loop.detector.raw_count == serial_loop.detector.raw_count
        assert sharded_loop.detector.by_kind == serial_loop.detector.by_kind
        assert (set(sharded_loop.detector.unique)
                == set(serial_loop.detector.unique))
        assert sharded_loop.total_percent == serial_loop.total_percent

    def test_campaign_curves_identical(self):
        def campaign(executor):
            loop = FuzzLoop(
                TheHuzzGenerator(body_instructions=16, seed=9),
                harness_factory("rocket"),
                batch_size=self.BATCH_SIZE,
                executor=executor,
            )
            with Campaign(loop, "parity") as camp:
                return camp.run_tests(self.BATCHES * self.BATCH_SIZE)

        serial = campaign(None)
        sharded = campaign(ShardedExecutor(n_workers=4))
        assert sharded.curve == serial.curve
        assert sharded.tests_run == serial.tests_run
        assert sharded.sim_hours == serial.sim_hours
        assert sharded.final_coverage_percent == serial.final_coverage_percent
        assert sharded.raw_mismatches == serial.raw_mismatches
        assert sharded.unique_mismatches == serial.unique_mismatches


class TestBatchedGoldenParity:
    """The batched golden engine must be invisible to everything downstream:
    an executor over a ``golden_lanes > 0`` harness produces byte-identical
    result streams to the scalar-golden executor, serially and sharded."""

    def test_serial_executor_routes_batched_golden(self):
        gen = TheHuzzGenerator(body_instructions=20, seed=7)
        bodies = [t.words for t in gen.generate_batch(16)]
        with SerialExecutor(harness_factory("rocket")) as scalar_ex, \
                SerialExecutor(
                    harness_factory("rocket", golden_lanes=8)) as batched_ex:
            assert batched_ex.harness._golden_batch is not None
            scalar_results = scalar_ex.run_batch(bodies)
            batched_results = batched_ex.run_batch(bodies)
        assert len(batched_results) == len(scalar_results)
        for ref, out in zip(scalar_results, batched_results):
            assert out.golden_trace.entries == ref.golden_trace.entries
            assert out.golden_trace.stop_reason == ref.golden_trace.stop_reason
            assert out.dut_trace.entries == ref.dut_trace.entries
            assert out.report.hits == ref.report.hits

    def test_fuzz_loop_outcomes_identical(self):
        def run(golden_lanes):
            loop = FuzzLoop(
                TheHuzzGenerator(body_instructions=16, seed=5),
                harness_factory("rocket", golden_lanes=golden_lanes),
                batch_size=8,
            )
            with loop:
                return [loop.run_batch() for _ in range(3)]

        for ref, out in zip(run(0), run(16)):
            assert out.scores == ref.scores
            assert out.coverages == ref.coverages
            assert out.mismatch_count == ref.mismatch_count
            assert out.total_percent == ref.total_percent

    def test_sharded_chunks_ride_batched_golden(self):
        gen = TheHuzzGenerator(body_instructions=16, seed=3)
        bodies = [t.words for t in gen.generate_batch(16)]
        with SerialExecutor(harness_factory("rocket")) as serial_ex:
            expected = serial_ex.run_batch(bodies)
        with ShardedExecutor(harness_factory("rocket", golden_lanes=8),
                             n_workers=2) as sharded_ex:
            got = sharded_ex.run_batch(bodies)
        for ref, out in zip(expected, got):
            assert out.golden_trace.entries == ref.golden_trace.entries
            assert out.report.hits == ref.report.hits


class TestBatchedDutParity:
    """Same invisibility contract for the batched DUT engine: with
    ``dut_lanes > 0`` (alone or stacked with ``golden_lanes``) the result
    stream — DUT traces *and* coverage reports — is byte-identical."""

    def test_serial_executor_routes_batched_dut(self):
        gen = TheHuzzGenerator(body_instructions=20, seed=7)
        bodies = [t.words for t in gen.generate_batch(16)]
        with SerialExecutor(harness_factory("rocket")) as scalar_ex, \
                SerialExecutor(
                    harness_factory("rocket", dut_lanes=8)) as batched_ex:
            assert batched_ex.harness._dut_batch is not None
            scalar_results = scalar_ex.run_batch(bodies)
            batched_results = batched_ex.run_batch(bodies)
        assert len(batched_results) == len(scalar_results)
        for ref, out in zip(scalar_results, batched_results):
            assert out.dut_trace.entries == ref.dut_trace.entries
            assert out.dut_trace.stop_reason == ref.dut_trace.stop_reason
            assert out.golden_trace.entries == ref.golden_trace.entries
            assert out.report.hits == ref.report.hits
            assert out.report.cycles == ref.report.cycles

    def test_fuzz_loop_outcomes_identical_both_lanes(self):
        def run(golden_lanes, dut_lanes):
            loop = FuzzLoop(
                TheHuzzGenerator(body_instructions=16, seed=5),
                harness_factory("rocket", golden_lanes=golden_lanes,
                                dut_lanes=dut_lanes),
                batch_size=8,
            )
            with loop:
                return [loop.run_batch() for _ in range(3)]

        for ref, out in zip(run(0, 0), run(16, 16)):
            assert out.scores == ref.scores
            assert out.coverages == ref.coverages
            assert out.mismatch_count == ref.mismatch_count
            assert out.total_percent == ref.total_percent

    def test_sharded_chunks_ride_batched_dut(self):
        gen = TheHuzzGenerator(body_instructions=16, seed=3)
        bodies = [t.words for t in gen.generate_batch(16)]
        with SerialExecutor(harness_factory("rocket")) as serial_ex:
            expected = serial_ex.run_batch(bodies)
        with ShardedExecutor(harness_factory("rocket", golden_lanes=8,
                                             dut_lanes=8),
                             n_workers=2) as sharded_ex:
            got = sharded_ex.run_batch(bodies)
        for ref, out in zip(expected, got):
            assert out.dut_trace.entries == ref.dut_trace.entries
            assert out.golden_trace.entries == ref.golden_trace.entries
            assert out.report.hits == ref.report.hits
