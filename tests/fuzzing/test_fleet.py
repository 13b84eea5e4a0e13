"""Campaign fleets: spec building, slice API, fleet-vs-serial parity,
scheduling acceptance, checkpoint/resume equality, aggregation.

The load-bearing guarantees (ISSUE acceptance):

- a ``FleetRunner`` over N single-campaign specs produces the same unioned
  coverage bitmap and deduped mismatch set as running the N campaigns
  serially (and the union matches the retained set-based reference engine
  over the concatenated test stream);
- ``BanditScheduler`` reaches a fixed coverage target in no more total
  tests than ``RoundRobin`` on the standard rocket config;
- checkpoint → kill → resume yields a result equal to an uninterrupted run.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.baselines.thehuzz import TheHuzzGenerator
from repro.coverage.reference import SetCoverageReport, SetCumulativeCoverage
from repro.fuzzing import Campaign, FuzzLoop
from repro.fuzzing.campaign import CampaignResult, CurvePoint
from repro.fuzzing.executor import SerialExecutor
from repro.fuzzing.fleet import (
    CampaignSpec,
    FleetRunner,
    FleetStats,
    register_generator,
)
from repro.fuzzing.scheduler import BanditScheduler, RoundRobin
from repro.rtl.bitset import Bitset
from repro.soc.harness import harness_factory, make_harness


def spec_pair(budget: int = 24) -> list[CampaignSpec]:
    """Two small real-DUT campaign arms (TheHuzz + random, fixed seeds)."""
    return [
        CampaignSpec("thehuzz-0", fuzzer="thehuzz",
                     fuzzer_config={"body_instructions": 16}, seed=5,
                     batch_size=8, budget_tests=budget),
        CampaignSpec("random-0", fuzzer="random",
                     fuzzer_config={"body_instructions": 16}, seed=2,
                     batch_size=8, budget_tests=budget),
    ]


class TestCampaignSpec:
    def test_spec_is_picklable(self):
        for spec in spec_pair():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec

    def test_unknown_fuzzer_kind(self):
        with pytest.raises(ValueError, match="unknown fuzzer kind"):
            CampaignSpec("x", fuzzer="nope").build_generator()

    def test_register_generator(self):
        class Scripted:
            def __init__(self, seed=0):
                self.seed = seed

            def generate_batch(self, n):
                return [[0x13]] * n

        register_generator("scripted-test", Scripted)
        try:
            generator = CampaignSpec(
                "x", fuzzer="scripted-test", seed=3
            ).build_generator()
            assert isinstance(generator, Scripted) and generator.seed == 3
        finally:
            from repro.fuzzing.fleet import GENERATOR_KINDS

            del GENERATOR_KINDS["scripted-test"]

    def test_harness_kind_string(self):
        factory = CampaignSpec("x", harness="rocket").harness_factory()
        assert factory.kind == "rocket"
        # Invalid harnesses fail at spec construction, not in a worker.
        with pytest.raises(ValueError, match="unknown harness kind"):
            CampaignSpec("x", harness="vax")
        with pytest.raises(TypeError, match="factory or kind"):
            CampaignSpec("x", harness=42)

    def test_build_campaign_forces_serial_executor(self):
        """Nested-pool caveat: spec-built campaigns never own a pool."""
        campaign = spec_pair()[0].build_campaign()
        assert isinstance(campaign.loop.executor, SerialExecutor)

    def test_prebuilt_generator_is_copied_per_build(self):
        from repro.baselines.thehuzz import TheHuzzGenerator

        generator = TheHuzzGenerator(body_instructions=8, seed=1)
        spec = CampaignSpec("x", generator=generator, batch_size=4,
                            budget_tests=4)
        a = spec.build_generator()
        b = spec.build_generator()
        assert a is not generator and a is not b
        a.pool.append([1])  # mutating one build must not leak to the next
        assert spec.build_generator().pool == []

    def test_fingerprint_stable_and_discriminating(self):
        one, two = spec_pair()
        assert one.fingerprint() == spec_pair()[0].fingerprint()
        assert one.fingerprint() != two.fingerprint()
        reseeded = CampaignSpec("thehuzz-0", fuzzer="thehuzz",
                                fuzzer_config={"body_instructions": 16},
                                seed=6, batch_size=8, budget_tests=24)
        assert reseeded.fingerprint() != one.fingerprint()


class TestRunSlice:
    def _loop(self):
        return FuzzLoop(
            TheHuzzGenerator(body_instructions=16, seed=5),
            harness_factory("rocket"),
            batch_size=8,
        )

    def test_slices_equal_one_run_tests(self):
        """Two 8-test slices are indistinguishable from run_tests(16)."""
        sliced = Campaign(self._loop(), "c")
        sliced.run_slice(8)
        result = sliced.run_slice(8)
        whole = Campaign(self._loop(), "c").run_tests(16)
        assert result == whole

    def test_result_property_tracks_accumulation(self):
        campaign = Campaign(self._loop(), "c")
        assert campaign.result is None
        first = campaign.run_slice(8)
        assert campaign.result is first
        second = campaign.run_slice(8)
        assert second is first  # same accumulating object
        assert second.tests_run == 16
        assert [p.tests for p in second.curve] == [0, 8, 16]

    def test_state_roundtrip_reproduces_future(self):
        campaign = Campaign(self._loop(), "c")
        campaign.run_slice(8)
        frozen = pickle.dumps(campaign.state_dict())
        expected = campaign.run_slice(8)
        clone = Campaign(self._loop(), "c")
        clone.load_state_dict(pickle.loads(frozen))
        assert clone.run_slice(8) == expected


class TestFleetVsSerialParity:
    """Acceptance pin: fleet == N serial campaigns, bit for bit."""

    def _serial_results(self, specs):
        return [spec.build_campaign().run_slice(spec.budget_tests)
                for spec in specs]

    def test_in_process_fleet_matches_serial(self):
        specs = spec_pair()
        serial = self._serial_results(specs)
        with FleetRunner(specs, n_workers=0) as fleet:
            result = fleet.run()
        assert result.campaigns == serial
        union = Bitset(
            serial[0].final_coverage.to_int()
            | serial[1].final_coverage.to_int(),
            serial[0].total_arms,
        )
        assert result.union_coverage() == union
        assert result.unique_signatures == {
            m.signature for r in serial for m in r.mismatches
        }

    def test_pooled_fleet_matches_serial(self):
        specs = spec_pair()
        serial = self._serial_results(specs)
        with FleetRunner(specs, n_workers=2) as fleet:
            result = fleet.run()
        assert result.campaigns == serial

    def test_scheduled_fleet_matches_whole_budget_run(self):
        """Slicing the budget changes nothing about the final state."""
        specs = spec_pair()
        with FleetRunner(specs, n_workers=0) as fleet:
            whole = fleet.run()
        with FleetRunner(specs, n_workers=0) as fleet:
            sliced = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        for a, b in zip(sliced.campaigns, whole.campaigns):
            assert a.final_coverage == b.final_coverage
            assert a.tests_run == b.tests_run
            assert {m.signature for m in a.mismatches} == \
                {m.signature for m in b.mismatches}

    def test_union_matches_reference_engine_over_concatenated_stream(self):
        """Satellite pin: cross-campaign bitmap union == the set-based
        reference engine run serially over the concatenated test stream,
        in whole-budget, rounds-scheduled and streaming-scheduled modes
        alike.

        Feedback-free generators, so the replayed serial stream is
        guaranteed identical to what the campaigns generated (a mutation
        fuzzer's stream depends on loop feedback the replay below skips).
        """
        specs = [
            CampaignSpec("random-a", fuzzer="random",
                         fuzzer_config={"body_instructions": 16}, seed=3,
                         batch_size=8, budget_tests=16),
            CampaignSpec("random-b", fuzzer="random",
                         fuzzer_config={"body_instructions": 16}, seed=4,
                         batch_size=8, budget_tests=16),
        ]
        with FleetRunner(specs, n_workers=0) as fleet:
            result = fleet.run()

        harness = make_harness("rocket")
        reference = SetCumulativeCoverage(total_arms=harness.total_arms)
        for spec in specs:
            generator = spec.build_generator()
            consumed = 0
            while consumed < spec.budget_tests:
                for test in generator.generate_batch(spec.batch_size):
                    _, _, report = harness.run_differential(list(test.words))
                    reference.merge(SetCoverageReport(
                        hits=frozenset(report.hits),
                        total_arms=report.total_arms,
                    ))
                consumed += spec.batch_size

        assert result.union_coverage() == reference.hits
        assert result.union_percent == pytest.approx(reference.percent)

        for mode in ("rounds", "streaming"):
            with FleetRunner(specs, n_workers=0) as fleet:
                scheduled = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                                mode=mode)
            assert scheduled.union_coverage() == reference.hits


class TestStreamingMode:
    """The event-driven dispatch loop: parity with rounds, stats, modes."""

    def _run(self, mode, n_workers=0, scheduler=None, **kwargs):
        with FleetRunner(spec_pair(budget=24), n_workers=n_workers) as fleet:
            result = fleet.run_scheduled(
                scheduler if scheduler is not None else RoundRobin(),
                slice_tests=8, mode=mode, **kwargs,
            )
            return result, fleet.last_stats

    def test_streaming_matches_rounds_in_process(self):
        """Full per-arm budgets: streaming == rounds, campaign for
        campaign (the tentpole's fleet-union parity acceptance pin)."""
        rounds, _ = self._run("rounds")
        streaming, _ = self._run("streaming")
        assert streaming.campaigns == rounds.campaigns
        assert streaming.union_coverage() == rounds.union_coverage()

    def test_pooled_streaming_matches_rounds(self):
        """Interleaving may differ on a pool, but per-campaign
        trajectories are deterministic, so final results agree."""
        rounds, _ = self._run("rounds")
        pooled, stats = self._run("streaming", n_workers=2)
        assert pooled.campaigns == rounds.campaigns
        assert stats.mode == "streaming" and stats.n_workers == 2

    def test_streaming_with_bandit(self):
        rounds, _ = self._run("rounds", scheduler=BanditScheduler())
        streaming, _ = self._run("streaming", scheduler=BanditScheduler())
        assert streaming.campaigns == rounds.campaigns

    def test_streaming_respects_per_arm_budgets(self):
        result, stats = self._run("streaming")
        assert [c.tests_run for c in result.campaigns] == [24, 24]
        assert stats.slices == 6  # 2 arms x 24 tests / 8-test slices

    def test_streaming_respects_total_tests_cap(self):
        result, _ = self._run("streaming", total_tests=16)
        assert result.total_tests == 16

    def test_streaming_respects_target_percent(self):
        result, _ = self._run("streaming", target_percent=30.0)
        assert result.union_percent >= 30.0
        full, _ = self._run("streaming")
        assert result.total_tests < full.total_tests

    def test_invalid_mode_rejected(self):
        with FleetRunner(spec_pair(), n_workers=0) as fleet:
            with pytest.raises(ValueError, match="rounds.*streaming"):
                fleet.run_scheduled(mode="async")

    def test_stats_account_wall_busy_and_utilisation(self):
        result, stats = self._run("streaming")
        assert isinstance(stats, FleetStats)
        assert stats.wall_seconds > 0
        assert 0 < stats.busy_seconds <= stats.wall_seconds * 1.05
        assert stats.tests == result.total_tests
        assert 0.0 < stats.utilisation <= 1.05
        assert stats.worker_slots == 1  # in-process

    def test_whole_budget_run_records_stats(self):
        with FleetRunner(spec_pair(budget=16), n_workers=0) as fleet:
            result = fleet.run()
            stats = fleet.last_stats
        assert stats.mode == "whole-budget"
        assert stats.slices == 2
        assert stats.tests == result.total_tests

    def test_streaming_closed_runner_refuses_work(self):
        runner = FleetRunner(spec_pair(), n_workers=0)
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            runner.run_scheduled(mode="streaming")


class TestMixedArmFleet:
    """Heterogeneous fleet: one Rocket arm + one BOOM arm, both riding
    their kind's batch engines (``golden_lanes=dut_lanes=8``)."""

    def _specs(self, golden_lanes=0, dut_lanes=0):
        return [
            CampaignSpec("rocket-arm", fuzzer="thehuzz",
                         fuzzer_config={"body_instructions": 16}, seed=5,
                         harness="rocket", golden_lanes=golden_lanes,
                         dut_lanes=dut_lanes, batch_size=8, budget_tests=24),
            CampaignSpec("boom-arm", fuzzer="random",
                         fuzzer_config={"body_instructions": 16}, seed=2,
                         harness="boom", golden_lanes=golden_lanes,
                         dut_lanes=dut_lanes, batch_size=8, budget_tests=24),
        ]

    def test_streaming_lanes_bit_identical_to_scalar(self):
        """Vector lanes are a pure perf knob fleet-wide: every arm's
        trace stream, curve and final coverage bitmap — hence any union
        taken over them — must equal the all-scalar fleet's exactly."""
        def run(**lanes):
            with FleetRunner(self._specs(**lanes)) as fleet:
                return fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                           mode="streaming")

        scalar = run()
        vector = run(golden_lanes=8, dut_lanes=8)
        assert vector.campaigns == scalar.campaigns
        for got, ref in zip(vector.campaigns, scalar.campaigns):
            assert got.final_coverage == ref.final_coverage
            assert got.mismatches == ref.mismatches


class TestScheduling:
    def _arms(self, budget=160):
        """One strong arm and two weak ones (2-instruction random bodies
        plateau almost immediately) on the standard rocket config."""
        weak = {"body_instructions": 2}
        return [
            CampaignSpec("thehuzz", fuzzer="thehuzz",
                         fuzzer_config={"body_instructions": 16}, seed=5,
                         batch_size=8, budget_tests=budget),
            CampaignSpec("weak-a", fuzzer="random", fuzzer_config=dict(weak),
                         seed=1, batch_size=8, budget_tests=budget),
            CampaignSpec("weak-b", fuzzer="random", fuzzer_config=dict(weak),
                         seed=7, batch_size=8, budget_tests=budget),
        ]

    def test_bandit_no_worse_than_round_robin_to_target(self):
        """Acceptance pin: UCB1 reaches the coverage target within the
        round-robin test spend (it exploits the productive arm instead of
        feeding exhausted ones)."""
        target = 66.0
        with FleetRunner(self._arms(), n_workers=0) as fleet:
            rr = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                     target_percent=target)
        with FleetRunner(self._arms(), n_workers=0) as fleet:
            bandit = fleet.run_scheduled(
                BanditScheduler(exploration=0.05), slice_tests=8,
                target_percent=target,
            )
        assert rr.union_percent >= target
        assert bandit.union_percent >= target
        assert bandit.total_tests <= rr.total_tests

    def test_total_tests_cap_stops_the_fleet(self):
        with FleetRunner(self._arms(budget=64), n_workers=0) as fleet:
            result = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                         total_tests=24)
        assert result.total_tests == 24

    def test_pooled_scheduled_matches_in_process_at_same_concurrency(self):
        """Placement independence: slices carry their state, so a worker
        pool changes wall-clock only, never the scheduled results."""
        def arms():
            return [
                CampaignSpec(name, fuzzer="random",
                             fuzzer_config={"body_instructions": 8},
                             seed=seed, batch_size=8, budget_tests=16)
                for name, seed in (("a", 1), ("b", 2), ("c", 3))
            ]

        with FleetRunner(arms(), n_workers=2) as fleet:
            pooled = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        with FleetRunner(arms(), n_workers=0) as fleet:
            local = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                        concurrent_slices=2)
        assert pooled.campaigns == local.campaigns

    def test_per_arm_budgets_are_respected(self):
        specs = spec_pair(budget=16)
        with FleetRunner(specs, n_workers=0) as fleet:
            result = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        assert [c.tests_run for c in result.campaigns] == [16, 16]


class TestCheckpointResume:
    def test_kill_and_resume_equals_uninterrupted(self, tmp_path):
        """Acceptance pin: checkpoint → kill → resume == one clean run."""
        specs = spec_pair(budget=40)
        with FleetRunner(specs, n_workers=0) as fleet:
            uninterrupted = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        # "Kill" after 16 tests, then resume from the checkpoint with a
        # fresh runner (fresh scheduler instance, fresh worker shells).
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            fleet.run_scheduled(RoundRobin(), slice_tests=8, total_tests=16)
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            resumed = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        assert resumed.campaigns == uninterrupted.campaigns

    def test_streaming_kill_and_resume_equals_uninterrupted(self, tmp_path):
        """Satellite pin: incremental (per-slice) checkpoints resume to the
        same final state as an uninterrupted streaming run.  In-process
        streaming is fully deterministic, so equality is exact."""
        specs = spec_pair(budget=40)
        with FleetRunner(specs, n_workers=0) as fleet:
            uninterrupted = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                                mode="streaming")
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                mode="streaming", total_tests=16)
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            resumed = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                          mode="streaming")
        assert resumed.campaigns == uninterrupted.campaigns

    def test_streaming_checkpoint_resumes_into_rounds_and_back(self, tmp_path):
        """Incremental checkpoints are mode-agnostic: a fleet killed in
        streaming mode can resume in round mode (and vice versa) because
        the snapshot format is identical — with full per-arm budgets the
        final result matches either mode's uninterrupted run."""
        specs = spec_pair(budget=40)
        with FleetRunner(specs, n_workers=0) as fleet:
            uninterrupted = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                mode="streaming", total_tests=16)
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            resumed = fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                          mode="rounds")
        assert resumed.campaigns == uninterrupted.campaigns

    def test_streaming_checkpoints_are_per_slice(self, tmp_path):
        """The incremental contract itself: after a single-slice cap, the
        checkpoint holds exactly that slice — not a round barrier's worth
        of arms."""
        specs = spec_pair(budget=40)
        with FleetRunner(specs, n_workers=0,
                         checkpoint_dir=tmp_path) as fleet:
            fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                mode="streaming", total_tests=8)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["arms"] == {"0": {"tests_run": 8}}
        assert (tmp_path / "campaign_0.json").exists()
        assert not (tmp_path / "campaign_1.json").exists()

    def test_whole_budget_resume_skips_completed_arms(self, tmp_path):
        specs = spec_pair(budget=16)
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            first = fleet.run()
        # A fresh runner over the same checkpoint re-runs nothing: results
        # are rebuilt from the snapshot, bit-identical.
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            second = fleet.run()
        assert second.campaigns == first.campaigns

    def test_checkpoint_files_are_json_plus_bitmap(self, tmp_path):
        specs = spec_pair(budget=16)
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            result = fleet.run()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [int(k) for k in manifest["arms"]] == [0, 1]
        for index, campaign in enumerate(result.campaigns):
            document = json.loads(
                (tmp_path / f"campaign_{index}.json").read_text()
            )
            assert document["name"] == campaign.name
            assert document["tests_run"] == campaign.tests_run
            assert document["covered_arms"] == len(campaign.final_coverage)
            cov = (tmp_path / f"campaign_{index}.cov").read_bytes()
            assert cov == campaign.final_coverage.to_bytes()
            assert (tmp_path / f"campaign_{index}.pkl").exists()

    def test_torn_checkpoint_is_detected(self, tmp_path):
        """A kill can interleave files from different rounds; every arm
        artifact carries the round's test count, so the mix is refused."""
        specs = spec_pair(budget=16)
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            fleet.run()
        pkl_path = tmp_path / "campaign_0.pkl"
        opaque = pickle.loads(pkl_path.read_bytes())
        opaque["tests_run"] += 8  # .pkl from a newer round than manifest/json
        pkl_path.write_bytes(pickle.dumps(opaque))
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            with pytest.raises(ValueError, match="torn checkpoint"):
                fleet.run()

    def test_foreign_checkpoint_is_rejected(self, tmp_path):
        specs = spec_pair(budget=16)
        with FleetRunner(specs, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            fleet.run()
        other = [CampaignSpec("thehuzz-0", fuzzer="thehuzz", seed=99,
                              batch_size=8, budget_tests=16),
                 specs[1]]
        with FleetRunner(other, n_workers=0, checkpoint_dir=tmp_path) as fleet:
            with pytest.raises(ValueError, match="different campaign specs"):
                fleet.run()


class TestFleetRunnerValidation:
    def test_needs_specs(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetRunner([])

    def test_unique_names(self):
        spec = spec_pair()[0]
        with pytest.raises(ValueError, match="unique"):
            FleetRunner([spec, spec])

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            FleetRunner(spec_pair(), n_workers=-1)

    def test_closed_runner_refuses_work(self):
        runner = FleetRunner(spec_pair(), n_workers=0)
        runner.close()
        runner.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            runner.run()


class TestFleetResultAggregation:
    """Pure aggregation logic on hand-built campaign results (no DUT)."""

    def _campaign(self, name, arms, universe=16, tests=10, hours=1.0):
        hits = Bitset.from_iterable(arms, universe)
        return CampaignResult(
            name=name,
            curve=[CurvePoint(0, 0.5, 0.0, Bitset(0, universe)),
                   CurvePoint(tests, hours,
                              100.0 * len(hits) / universe, hits)],
            tests_run=tests,
            sim_hours=hours,
            final_coverage_percent=100.0 * len(hits) / universe,
            final_coverage=hits,
        )

    def test_union_and_percent(self):
        from repro.fuzzing.fleet import FleetResult

        result = FleetResult([
            self._campaign("a", {0, 1, 2}),
            self._campaign("b", {2, 3}),
        ])
        assert result.union_coverage() == {0, 1, 2, 3}
        assert result.union_percent == pytest.approx(100.0 * 4 / 16)
        assert result.total_tests == 20

    def test_mixed_universes_are_rejected(self):
        from repro.fuzzing.fleet import FleetResult

        result = FleetResult([
            self._campaign("rocket", {0, 1}, universe=16),
            self._campaign("boom", {0, 1}, universe=32),
        ])
        with pytest.raises(ValueError, match="different DUT universes"):
            result.union_coverage()

    def test_merged_curve_unions_on_shared_epoch(self):
        from repro.fuzzing.fleet import FleetResult

        result = FleetResult([
            self._campaign("a", {0, 1}, tests=10, hours=1.0),
            self._campaign("b", {1, 2, 3}, tests=20, hours=2.0),
        ])
        merged = result.merged_curve()
        # Distinct times: 0.5 (both initial snapshots), 1.0, 2.0.
        assert [point.sim_hours for point in merged] == [0.5, 1.0, 2.0]
        assert merged[0].coverage_percent == 0.0
        assert merged[1].hits == {0, 1}          # only campaign a has run
        assert merged[2].hits == {0, 1, 2, 3}    # union of both
        assert merged[-1].tests == 30
        percents = [point.coverage_percent for point in merged]
        assert percents == sorted(percents)
        assert merged[-1].coverage_percent == pytest.approx(
            result.union_percent
        )

    def test_summary_names_every_campaign(self):
        from repro.fuzzing.fleet import FleetResult

        result = FleetResult([self._campaign("alpha", {0}),
                              self._campaign("beta", {1})])
        summary = result.summary()
        assert "alpha" in summary and "beta" in summary
        assert "2 campaigns" in summary
