"""Results store: durable round-trips, torn-tail recovery, deterministic
multi-writer linearisation, and the two acceptance pins — instrumented runs
stay bit-identical to uninstrumented ones, and a killed + resumed fleet's
store aggregates to the same numbers as an uninterrupted run's."""

from __future__ import annotations

import json

from repro.analysis.report import store_report
from repro.fuzzing.fleet import CampaignSpec, FleetRunner
from repro.fuzzing.scheduler import RoundRobin
from repro.obs.events import Event, ListSink, WorkerIdentity
from repro.obs.store import (
    ResultsStore,
    StoreAggregates,
    downsample,
    linearize_events,
)
from repro.rtl.bitset import Bitset


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


def fingerprint(result):
    """Everything the acceptance criterion calls "bit-identical"."""
    return (
        [c.curve for c in result.campaigns],
        [c.final_coverage.to_bytes() for c in result.campaigns],
        result.union_percent,
        result.unique_signatures,
    )


class TestStoreRoundTrip:
    def test_events_and_coverage_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        bitmap = Bitset.from_iterable((0, 3, 11), nbits=12)
        with store.sink() as sink:
            sink.emit("fleet_started", mode="rounds", worker_slots=1)
            sink.emit("coverage_point", campaign="a", tests=8,
                      sim_hours=0.1, coverage_percent=25.0)
            sink.save_coverage("00_a", bitmap)

        events = store.read_events()
        assert [e.kind for e in events] == [
            "worker_started", "fleet_started", "coverage_point"]
        assert events[0].data["identity"]["pid"] == sink.identity.pid
        assert events[2].data["tests"] == 8
        # One writer, contiguous per-writer sequence numbers.
        assert [e.seq for e in events] == [0, 1, 2]
        assert len({e.writer for e in events}) == 1

        bitmaps = store.load_coverage()
        assert bitmaps["00_a"].nbits == 12
        assert bitmaps["00_a"].to_bytes() == bitmap.to_bytes()

    def test_reopen_is_not_create(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        again = ResultsStore(store.directory, create=False)
        assert again.meta_path.exists()
        meta = json.loads(store.meta_path.read_text())
        assert "version" in meta and "created" in meta

    def test_closed_sink_drops_late_emissions(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        sink = store.sink()
        sink.close()
        sink.close()  # idempotent
        sink.emit("fleet_started", mode="rounds")  # must not raise
        assert [e.kind for e in store.read_events()] == ["worker_started"]


class TestTornTail:
    def test_torn_final_line_keeps_intact_prefix(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        with store.sink() as sink:
            sink.emit("fleet_started", mode="rounds")
            sink.emit("coverage_point", campaign="a", tests=8)
        # Simulate a kill mid-append: a half-written final record.
        with sink.path.open("a", encoding="utf-8") as fh:
            fh.write('{"v":1,"kind":"slice_com')
        events = store.read_events()
        assert [e.kind for e in events] == [
            "worker_started", "fleet_started", "coverage_point"]

    def test_garbage_segment_yields_empty_prefix(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        store.events_dir.mkdir(parents=True, exist_ok=True)
        (store.events_dir / "rogue.jsonl").write_text("not json at all\n")
        assert store.read_segments()["rogue"] == []
        assert store.read_events() == []

    def test_aggregate_of_empty_store(self, tmp_path):
        agg = ResultsStore(tmp_path / "store").aggregate()
        assert agg.arms == [] and agg.runs == 0 and agg.live is False
        assert agg.union_percent == 0.0
        assert isinstance(agg.as_dict(), dict)


class TestLinearize:
    def segments(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        store.events_dir.mkdir(parents=True, exist_ok=True)
        alpha = [Event("coverage_point", {"campaign": "a", "tests": n},
                       t=10.0 + n, seq=n, writer="alpha")
                 for n in range(3)]
        # beta's wall clock interleaves with alpha's, and one event ties
        # exactly on t — the (t, writer, seq) key must still be total.
        beta = [Event("coverage_point", {"campaign": "b", "tests": 0},
                      t=10.5, seq=0, writer="beta"),
                Event("coverage_point", {"campaign": "b", "tests": 1},
                      t=11.0, seq=1, writer="beta")]
        for name, events in (("alpha", alpha), ("beta", beta)):
            (store.events_dir / f"{name}.jsonl").write_text(
                "".join(e.to_json() + "\n" for e in events))
        return store, alpha, beta

    def test_merge_is_deterministic_function_of_contents(self, tmp_path):
        store, alpha, beta = self.segments(tmp_path)
        merged = store.read_events()
        assert merged == [alpha[0], beta[0], alpha[1], beta[1], alpha[2]]
        # Pure function of the event set: any input order linearizes the
        # same (pinned under PYTHONHASHSEED=0 by CI's observability job).
        shuffled = [alpha[2], beta[1], alpha[0], beta[0], alpha[1]]
        assert linearize_events(shuffled) == merged

    def test_tie_on_t_breaks_by_writer_then_seq(self):
        tie = [Event("fleet_started", {}, t=5.0, seq=1, writer="b"),
               Event("fleet_started", {}, t=5.0, seq=0, writer="b"),
               Event("fleet_started", {}, t=5.0, seq=9, writer="a")]
        assert [(e.writer, e.seq) for e in linearize_events(tie)] == [
            ("a", 9), ("b", 0), ("b", 1)]


class TestDownsample:
    def test_short_curves_pass_through(self):
        points = [[n, 0.0, 0.0] for n in range(10)]
        assert downsample(points, cap=256) == points

    def test_long_curves_keep_last_point(self):
        points = [[n, 0.0, 0.0] for n in range(1000)]
        thinned = downsample(points, cap=256)
        assert len(thinned) <= 257
        assert thinned[0] == points[0]
        assert thinned[-1] == points[-1]

    def test_no_cap(self):
        points = [[n, 0.0, 0.0] for n in range(10)]
        assert downsample(points, cap=0) == points


class TestFleetWithStore:
    def test_store_sink_run_is_bit_identical(self, tmp_path):
        """Acceptance pin: telemetry observes, never perturbs — a run with
        a StoreSink attached equals the uninstrumented run bit for bit."""
        with FleetRunner(spec_pair(16), n_workers=0) as fleet:
            reference = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        store = ResultsStore(tmp_path / "store")
        with store.sink() as sink:
            with FleetRunner(spec_pair(16), n_workers=0,
                             sink=sink) as fleet:
                observed = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        assert fingerprint(observed) == fingerprint(reference)

    def test_store_aggregates_match_fleet_result(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        with store.sink() as sink:
            with FleetRunner(spec_pair(16), n_workers=0,
                             sink=sink) as fleet:
                result = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        agg = store.aggregate()
        assert agg.runs == 1 and agg.live is False
        assert agg.mode == "rounds"
        assert agg.union_percent == result.union_percent
        assert agg.total_tests == sum(c.tests_run for c in result.campaigns)
        names = [row["name"] for row in agg.arms]
        assert names == sorted(c.name for c in result.campaigns)
        for row, campaign in zip(
                agg.arms, sorted(result.campaigns, key=lambda c: c.name)):
            assert row["tests"] == campaign.tests_run
            assert row["curve"][-1][2] == campaign.curve[-1].coverage_percent
        # Phase timers accounted every batch somewhere.
        assert agg.phases["execution_seconds"] > 0.0
        assert agg.utilisation > 0.0
        # Deduped mismatch signatures match the fleet's.
        stored = {tuple(_as_tuple(m["signature"])) for m in agg.mismatches}
        assert stored == result.unique_signatures

    def test_mixed_kind_store_reports_one_union_per_universe(self, tmp_path):
        """A Rocket + BOOM store aggregates one union per DUT universe, as
        the fleet result does, and no single cross-universe percent."""
        specs = [
            CampaignSpec("rocket-0", fuzzer="thehuzz",
                         fuzzer_config={"body_instructions": 16}, seed=5,
                         harness="rocket", batch_size=8, budget_tests=16),
            CampaignSpec("boom-0", fuzzer="random",
                         fuzzer_config={"body_instructions": 16}, seed=2,
                         harness="boom", batch_size=8, budget_tests=16),
        ]
        store = ResultsStore(tmp_path / "store")
        with store.sink() as sink:
            with FleetRunner(specs, n_workers=0, sink=sink) as fleet:
                result = fleet.run_scheduled(RoundRobin(), slice_tests=8)
        agg = store.aggregate()
        assert len(agg.union_percents) == 2
        assert agg.union_percents == result.union_percents()
        assert agg.union_percent is None and agg.universe == 0
        report = store_report(agg)
        assert ", ".join(f"{percent:.2f}% of {universe}" for universe, percent
                         in result.union_percents().items()) in report
        # The dashboard's JSON payload renders the same way.
        assert store_report(json.loads(json.dumps(agg.as_dict()))) == report

    def test_kill_and_resume_store_equals_uninterrupted(self, tmp_path):
        """Acceptance pin: a killed fleet's store, reopened by the resumed
        run with a fresh writer segment, aggregates to the same arms as an
        uninterrupted run — completed slices are never duplicated."""
        clean_store = ResultsStore(tmp_path / "clean")
        with clean_store.sink() as sink:
            with FleetRunner(spec_pair(), n_workers=0, sink=sink) as fleet:
                fleet.run_scheduled(RoundRobin(), slice_tests=8)

        killed_store = ResultsStore(tmp_path / "killed")
        with killed_store.sink() as sink:
            with FleetRunner(spec_pair(), n_workers=0, sink=sink,
                             checkpoint_dir=tmp_path / "ckpt") as fleet:
                fleet.run_scheduled(RoundRobin(), slice_tests=8,
                                    total_tests=16)
        with killed_store.sink() as sink:  # resumed run: new segment
            with FleetRunner(spec_pair(), n_workers=0, sink=sink,
                             checkpoint_dir=tmp_path / "ckpt") as fleet:
                fleet.run_scheduled(RoundRobin(), slice_tests=8)

        assert len(list(killed_store.events_dir.glob("*.jsonl"))) == 2
        clean, resumed = clean_store.aggregate(), killed_store.aggregate()
        assert resumed.runs == 2 and clean.runs == 1
        strip = lambda rows: [
            {k: v for k, v in row.items() if k not in ("busy_seconds",
                                                       "phases")}
            for row in rows
        ]
        assert strip(resumed.arms) == strip(clean.arms)
        assert resumed.union_percent == clean.union_percent
        assert resumed.total_tests == clean.total_tests

    def test_pooled_relay_matches_in_process(self, tmp_path):
        """Worker-relayed events aggregate like locally-emitted ones."""
        local_store = ResultsStore(tmp_path / "local")
        with local_store.sink() as sink:
            with FleetRunner(spec_pair(16), n_workers=0, sink=sink) as fleet:
                fleet.run_scheduled(RoundRobin(), slice_tests=8)
        pooled_store = ResultsStore(tmp_path / "pooled")
        with pooled_store.sink() as sink:
            with FleetRunner(spec_pair(16), n_workers=2, sink=sink) as fleet:
                fleet.run_scheduled(RoundRobin(), slice_tests=8)
        local, pooled = local_store.aggregate(), pooled_store.aggregate()
        strip = lambda rows: [
            {k: v for k, v in row.items() if k not in ("busy_seconds",
                                                       "phases")}
            for row in rows
        ]
        assert strip(pooled.arms) == strip(local.arms)
        assert pooled.union_percent == local.union_percent
        # Exactly one writer segment: workers relay through the parent.
        assert len(list(pooled_store.events_dir.glob("*.jsonl"))) == 1


class TestAggregatesFromSynthetic:
    def test_slice_dedup_by_cumulative_tests(self):
        # The one legitimately re-run slice after a kill (completed, event
        # written, checkpoint pre-empted) must not double-count.
        twice = [
            Event("slice_completed",
                  {"name": "a", "tests": 8, "busy_seconds": 1.0,
                   "coverage_percent": 10.0}, t=1.0, seq=0, writer="w1"),
            Event("slice_completed",
                  {"name": "a", "tests": 8, "busy_seconds": 1.0,
                   "coverage_percent": 10.0}, t=2.0, seq=0, writer="w2"),
        ]
        agg = StoreAggregates.build(twice, {})
        assert agg.arms[0]["slices"] == 1
        assert agg.arms[0]["busy_seconds"] == 1.0

    def test_union_per_universe(self):
        one = StoreAggregates.build([], {"a": Bitset(0b0011, 4),
                                         "b": Bitset(0b0110, 4)})
        assert (one.union_percent, one.universe) == (75.0, 4)
        assert one.union_percents == {4: 75.0}
        mixed = StoreAggregates.build([], {"a": Bitset(0b0011, 4),
                                           "b": Bitset(0b0110, 4),
                                           "c": Bitset(0b1, 8)})
        assert mixed.union_percents == {4: 75.0, 8: 12.5}
        assert mixed.union_percent is None and mixed.universe == 0

    def test_live_run_detected_from_unmatched_start(self):
        events = [
            Event("fleet_started", {"mode": "rounds", "worker_slots": 2},
                  t=100.0, seq=0, writer="w"),
            Event("coverage_point", {"campaign": "a", "tests": 8},
                  t=130.0, seq=1, writer="w"),
        ]
        agg = StoreAggregates.build(events, {})
        assert agg.live is True
        assert agg.wall_seconds == 30.0
        assert agg.worker_slots == 2

    def test_health_counters_and_quarantine(self):
        events = [
            Event("slice_timeout", {"name": "a"}, t=1.0, seq=0, writer="w"),
            Event("slice_retried", {"name": "a"}, t=2.0, seq=1, writer="w"),
            Event("pool_rebuilt", {"layer": "fleet"}, t=3.0, seq=2,
                  writer="w"),
            Event("arm_quarantined",
                  {"name": "a", "error": "boom", "retries": 2,
                   "tests_run": 16}, t=4.0, seq=3, writer="w"),
        ]
        agg = StoreAggregates.build(events, {})
        assert agg.health["timeouts"] == 1
        assert agg.health["retries"] == 1
        assert agg.health["pool_rebuilds"] == 1
        assert agg.health["quarantined"][0]["name"] == "a"
        assert agg.arms[0]["quarantined"] is True

    def test_mismatch_dedup_with_attribution(self):
        def found(writer, campaign, t):
            return Event("mismatch_found",
                         {"campaign": campaign, "kind": "rd_missing",
                          "signature": ["rd_missing", "mul"], "pc": 4},
                         t=t, seq=0, writer=writer)

        agg = StoreAggregates.build(
            [found("w1", "a", 1.0), found("w2", "b", 2.0),
             found("w1", "a", 3.0)], {})
        assert len(agg.mismatches) == 1
        assert agg.mismatches[0]["campaigns"] == ["a", "b"]


def _as_tuple(value):
    if isinstance(value, list):
        return tuple(_as_tuple(item) for item in value)
    return value
