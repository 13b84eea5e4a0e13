"""Simulated clock calibration and campaign drivers."""

import pytest

from repro.baselines.random_regression import RandomRegressionGenerator
from repro.fuzzing.campaign import Campaign, CampaignResult, CurvePoint
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.fuzzing.simclock import SimClock
from repro.soc.harness import make_harness


class TestSimClock:
    def test_anchor_1800_tests_is_52_minutes(self):
        """The paper: ChatFuzz hits 74.96% within 1.8K tests ≈ 52 min."""
        clock = SimClock()
        clock.charge_tests(1800)
        assert clock.minutes == pytest.approx(52, abs=1.0)

    def test_anchor_199k_tests_is_24_hours(self):
        clock = SimClock()
        clock.charge_tests(199_000)
        assert clock.hours == pytest.approx(24, abs=0.1)

    def test_elaboration_charged_once(self):
        clock = SimClock()
        clock.start()
        clock.start()
        assert clock.seconds == clock.elab_seconds

    def test_incremental_charging(self):
        clock = SimClock()
        clock.charge_tests(10)
        clock.charge_tests(10)
        expected = clock.elab_seconds + 20 * clock.per_test_seconds
        assert clock.seconds == pytest.approx(expected)


class TestCampaign:
    @pytest.fixture()
    def loop(self):
        return FuzzLoop(
            RandomRegressionGenerator(body_instructions=8, seed=1),
            make_harness("rocket"),
            batch_size=8,
        )

    def test_run_tests_budget(self, loop):
        result = Campaign(loop, "t").run_tests(24)
        assert result.tests_run == 24
        assert result.final_coverage_percent > 0
        assert result.curve[-1].coverage_percent == result.final_coverage_percent

    def test_curve_is_monotone(self, loop):
        result = Campaign(loop, "t").run_tests(32)
        percents = [p.coverage_percent for p in result.curve]
        assert percents == sorted(percents)

    def test_run_sim_hours(self, loop):
        result = Campaign(loop, "t").run_sim_hours(0.67, max_tests=64)
        assert result.sim_hours >= 0.655  # elaboration alone is ~0.65 h
        assert result.tests_run > 0

    def test_run_to_coverage(self, loop):
        result = Campaign(loop, "t").run_to_coverage(10.0, max_tests=64)
        assert result.final_coverage_percent >= 10.0

    def test_consistent_sim_hours_epoch_across_entry_points(self):
        """All three drivers charge elaboration before the first snapshot.

        run_sim_hours always did; run_tests and run_to_coverage used to
        snapshot at 0.0 sim-hours and only charge elaboration with the first
        batch, so CurvePoint time axes disagreed between entry points.
        """
        def fresh_loop():
            return FuzzLoop(
                RandomRegressionGenerator(body_instructions=8, seed=1),
                make_harness("rocket"),
                batch_size=8,
            )

        results = [
            Campaign(fresh_loop(), "a").run_tests(8),
            Campaign(fresh_loop(), "b").run_sim_hours(0.66, max_tests=8),
            Campaign(fresh_loop(), "c").run_to_coverage(1.0, max_tests=8),
        ]
        elab_hours = SimClock().elab_seconds / 3600.0
        for result in results:
            assert result.curve[0].sim_hours == pytest.approx(elab_hours)
        # Equal test counts => equal elapsed time, whatever the entry point.
        assert len({result.curve[1].sim_hours for result in results}) == 1

    def test_coverage_at_tests_lookup(self):
        result = CampaignResult(name="x", curve=[
            CurvePoint(0, 0.0, 0.0),
            CurvePoint(10, 0.1, 40.0),
            CurvePoint(20, 0.2, 50.0),
        ])
        assert result.coverage_at_tests(15) == 40.0
        assert result.coverage_at_tests(20) == 50.0

    def test_time_to_coverage_lookup(self):
        result = CampaignResult(name="x", curve=[
            CurvePoint(0, 0.0, 0.0),
            CurvePoint(10, 0.5, 60.0),
        ])
        assert result.time_to_coverage(55.0) == 0.5
        assert result.time_to_coverage(99.0) is None


class TestFuzzLoopFeedback:
    def test_observe_called_with_reports(self):
        calls = []

        class Spy:
            def generate_batch(self, n):
                return [[0x13]] * n

            def observe(self, inputs, coverages, scores, reports):
                calls.append((len(inputs), len(coverages), len(scores),
                              len(reports)))

        loop = FuzzLoop(Spy(), make_harness("rocket"), batch_size=4)
        loop.run_batch()
        assert calls == [(4, 4, 4, 4)]

    def test_mismatches_counted_on_buggy_core(self):
        from repro.isa.encoder import encode

        class MulDiv:
            def generate_batch(self, n):
                return [[encode("mul", rd=5, rs1=10, rs2=11)]] * n

        loop = FuzzLoop(MulDiv(), make_harness("rocket"), batch_size=2)
        outcome = loop.run_batch()
        assert outcome.mismatch_count > 0  # Bug2 fires on every mul
        assert loop.detector.unique_count >= 1
