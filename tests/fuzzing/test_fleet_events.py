"""Event-stream pin: the exact telemetry order of each fleet entry mode.

An in-process fleet (two arms, ``n_workers=0``, checkpointing on) is run
three ways — ``run()``, ``run_scheduled(mode="rounds")`` and
``run_scheduled(mode="streaming")`` — into a
:class:`~repro.obs.events.ListSink`, and each event is reduced to its
``(kind, arm, ordinal, attempt)`` record (``None`` where the payload has
no such key).  The records are compared against literal recordings:

- fault-free, the whole fleet-wide sequence must match exactly;
- with one injected ``raise`` fault, each arm's own subsequence must
  match (the retry shows up as ``slice_retried`` plus a second
  ``slice_dispatched`` at attempt 1).

Runs of identical records are collapsed into one row with a trailing
repeat count, so a row reads ``(kind, arm, ordinal, attempt, count)``.
The checkpoint cadence (``rounds`` and ``dirty`` of every
``checkpoint_written``) and each kind's payload keys are pinned too.
In-process dispatch is fully deterministic, so any difference here is a
change to the observable dispatch protocol, not noise.

A mixed Rocket + BOOM fleet (two coverage universes) must finish in every
entry mode, with ``union_percent=None`` on ``fleet_finished`` and one
union per universe in the summary.
"""

from __future__ import annotations

import itertools

import pytest

from repro.fuzzing.faults import FaultPlan, FaultPoint
from repro.fuzzing.fleet import CampaignSpec, FleetRunner
from repro.fuzzing.scheduler import BanditScheduler
from repro.obs.events import ListSink

MODES = ("whole-budget", "rounds", "streaming")


def pin_specs() -> list[CampaignSpec]:
    return [
        CampaignSpec("thehuzz-0", fuzzer="thehuzz",
                     fuzzer_config={"body_instructions": 16}, seed=5,
                     batch_size=8, budget_tests=16),
        CampaignSpec("random-0", fuzzer="random",
                     fuzzer_config={"body_instructions": 16}, seed=2,
                     batch_size=8, budget_tests=16),
    ]


def run_fleet(mode: str, tmp_path, fault_plan=None) -> list:
    """Events of one in-process fleet run in ``mode``."""
    sink = ListSink()
    with FleetRunner(pin_specs(), n_workers=0, checkpoint_dir=tmp_path,
                     retry_backoff=0.0, fault_plan=fault_plan,
                     sink=sink) as fleet:
        if mode == "whole-budget":
            fleet.run()
        else:
            fleet.run_scheduled(BanditScheduler(), slice_tests=8, mode=mode,
                                concurrent_slices=2)
    return sink.events


def record(event) -> tuple:
    data = event.data
    return (event.kind, data.get("arm"), data.get("ordinal"),
            data.get("attempt"))


def collapse(records) -> list[tuple]:
    return [key + (len(list(run)),)
            for key, run in itertools.groupby(records)]


EXPECTED = {
    'whole-budget': [
        ('fleet_started', None, None, None, 1),
        ('slice_dispatched', 0, 0, 0, 1),
        ('coverage_point', 0, None, None, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 13),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 1),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('slice_completed', 0, None, None, 1),
        ('checkpoint_written', None, None, None, 1),
        ('slice_dispatched', 1, 0, 0, 1),
        ('coverage_point', 1, None, None, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 11),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 9),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('slice_completed', 1, None, None, 1),
        ('checkpoint_written', None, None, None, 1),
        ('fleet_finished', None, None, None, 1),
    ],
    'rounds': [
        ('fleet_started', None, None, None, 1),
        ('slice_dispatched', 0, 0, 0, 1),
        ('slice_dispatched', 1, 0, 0, 1),
        ('coverage_point', 0, None, None, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 13),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('slice_completed', 0, None, None, 1),
        ('arm_reward', 0, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 11),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('slice_completed', 1, None, None, 1),
        ('arm_reward', 1, None, None, 1),
        ('checkpoint_written', None, None, None, 1),
        ('slice_dispatched', 0, 1, 0, 1),
        ('slice_dispatched', 1, 1, 0, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 1),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('slice_completed', 0, None, None, 1),
        ('arm_reward', 0, None, None, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 9),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('slice_completed', 1, None, None, 1),
        ('arm_reward', 1, None, None, 1),
        ('checkpoint_written', None, None, None, 1),
        ('fleet_finished', None, None, None, 1),
    ],
    'streaming': [
        ('fleet_started', None, None, None, 1),
        ('slice_dispatched', 0, 0, 0, 1),
        ('coverage_point', 0, None, None, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 13),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('slice_completed', 0, None, None, 1),
        ('arm_reward', 0, None, None, 1),
        ('checkpoint_written', None, None, None, 1),
        ('slice_dispatched', 1, 0, 0, 1),
        ('coverage_point', 1, None, None, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 11),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('slice_completed', 1, None, None, 1),
        ('arm_reward', 1, None, None, 1),
        ('checkpoint_written', None, None, None, 1),
        ('slice_dispatched', 0, 1, 0, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 1),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('slice_completed', 0, None, None, 1),
        ('arm_reward', 0, None, None, 1),
        ('checkpoint_written', None, None, None, 1),
        ('slice_dispatched', 1, 1, 0, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 9),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('slice_completed', 1, None, None, 1),
        ('arm_reward', 1, None, None, 1),
        ('checkpoint_written', None, None, None, 1),
        ('fleet_finished', None, None, None, 1),
    ],
}

EXPECTED_FAULTED = {
    ('whole-budget', 0): [
        ('slice_dispatched', 0, 0, 0, 1),
        ('slice_retried', 0, 0, 1, 1),
        ('slice_dispatched', 0, 0, 1, 1),
        ('coverage_point', 0, None, None, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 13),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 1),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('slice_completed', 0, None, None, 1),
    ],
    ('whole-budget', 1): [
        ('slice_dispatched', 1, 0, 0, 1),
        ('coverage_point', 1, None, None, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 11),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 9),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('slice_completed', 1, None, None, 1),
    ],
    ('rounds', 0): [
        ('slice_dispatched', 0, 0, 0, 1),
        ('slice_retried', 0, 0, 1, 1),
        ('slice_dispatched', 0, 0, 1, 1),
        ('coverage_point', 0, None, None, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 13),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('slice_completed', 0, None, None, 1),
        ('arm_reward', 0, None, None, 1),
        ('slice_dispatched', 0, 1, 0, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 1),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('slice_completed', 0, None, None, 1),
        ('arm_reward', 0, None, None, 1),
    ],
    ('rounds', 1): [
        ('slice_dispatched', 1, 0, 0, 1),
        ('coverage_point', 1, None, None, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 11),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('slice_completed', 1, None, None, 1),
        ('arm_reward', 1, None, None, 1),
        ('slice_dispatched', 1, 1, 0, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 9),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('slice_completed', 1, None, None, 1),
        ('arm_reward', 1, None, None, 1),
    ],
    ('streaming', 0): [
        ('slice_dispatched', 0, 0, 0, 1),
        ('slice_retried', 0, 0, 1, 1),
        ('slice_dispatched', 0, 0, 1, 1),
        ('coverage_point', 0, None, None, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 13),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('slice_completed', 0, None, None, 1),
        ('arm_reward', 0, None, None, 1),
        ('slice_dispatched', 0, 1, 0, 1),
        ('batch_generated', 0, None, None, 1),
        ('batch_executed', 0, None, None, 1),
        ('mismatch_found', 0, None, None, 1),
        ('batch_folded', 0, None, None, 1),
        ('coverage_point', 0, None, None, 1),
        ('slice_completed', 0, None, None, 1),
        ('arm_reward', 0, None, None, 1),
    ],
    ('streaming', 1): [
        ('slice_dispatched', 1, 0, 0, 1),
        ('coverage_point', 1, None, None, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 11),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('slice_completed', 1, None, None, 1),
        ('arm_reward', 1, None, None, 1),
        ('slice_dispatched', 1, 1, 0, 1),
        ('batch_generated', 1, None, None, 1),
        ('batch_executed', 1, None, None, 1),
        ('mismatch_found', 1, None, None, 9),
        ('batch_folded', 1, None, None, 1),
        ('coverage_point', 1, None, None, 1),
        ('slice_completed', 1, None, None, 1),
        ('arm_reward', 1, None, None, 1),
    ],
}

EXPECTED_CHECKPOINTS = {'whole-budget': [(1, [0]), (2, [1])], 'rounds': [(1, [0, 1]), (2, [0, 1])], 'streaming': [(1, [0]), (2, [1]), (3, [0]), (4, [1])]}


SCHEDULED_START_KEYS = ("arms", "mode", "n_workers", "resumed_tests",
                        "scheduler", "worker_slots")

PAYLOAD_KEYS = {
    "fleet_finished": ("busy_seconds", "mode", "slices", "tests",
                       "union_percent", "wall_seconds"),
    "slice_dispatched": ("arm", "attempt", "n_tests", "name", "ordinal"),
    "slice_completed": ("arm", "busy_seconds", "coverage_percent", "name",
                        "ran", "tests"),
    "slice_retried": ("arm", "attempt", "error", "name", "ordinal"),
    "checkpoint_written": ("dirty", "rounds"),
    "arm_reward": ("arm", "count", "mean", "reward", "tests", "total"),
    "batch_generated": ("arm", "n", "name", "seconds"),
    "batch_executed": ("arm", "n", "name", "seconds"),
    "batch_folded": ("arm", "mismatches", "n", "name", "seconds"),
    "coverage_point": ("arm", "campaign", "coverage_percent", "name",
                       "sim_hours", "tests"),
    "mismatch_found": ("arm", "detail", "kind", "name", "pc", "signature"),
}


@pytest.mark.parametrize("mode", MODES)
def test_fault_free_event_sequence(mode, tmp_path):
    events = run_fleet(mode, tmp_path)
    assert collapse(record(e) for e in events) == EXPECTED[mode]
    assert [(e.data["rounds"], e.data["dirty"]) for e in events
            if e.kind == "checkpoint_written"] == EXPECTED_CHECKPOINTS[mode]


@pytest.mark.parametrize("mode", MODES)
def test_faulted_per_arm_event_sequence(mode, tmp_path):
    plan = FaultPlan([FaultPoint(arm=0, ordinal=0, kind="raise")])
    events = run_fleet(mode, tmp_path, fault_plan=plan)
    for arm in (0, 1):
        got = collapse(record(e) for e in events if e.data.get("arm") == arm)
        assert got == EXPECTED_FAULTED[(mode, arm)], f"arm {arm}"


@pytest.mark.parametrize("mode", MODES)
def test_payload_keys(mode, tmp_path):
    plan = FaultPlan([FaultPoint(arm=0, ordinal=0, kind="raise")])
    events = run_fleet(mode, tmp_path, fault_plan=plan)
    start_keys = (SCHEDULED_START_KEYS if mode != "whole-budget" else
                  tuple(k for k in SCHEDULED_START_KEYS if k != "scheduler"))
    expected = dict(PAYLOAD_KEYS, fleet_started=start_keys)
    for event in events:
        assert tuple(sorted(event.data)) == expected[event.kind], event.kind


def mixed_kind_specs() -> list[CampaignSpec]:
    """One Rocket arm and one BOOM arm: two coverage universes."""
    return [
        CampaignSpec("rocket-arm", fuzzer="thehuzz",
                     fuzzer_config={"body_instructions": 16}, seed=5,
                     harness="rocket", batch_size=8, budget_tests=16),
        CampaignSpec("boom-arm", fuzzer="random",
                     fuzzer_config={"body_instructions": 16}, seed=2,
                     harness="boom", batch_size=8, budget_tests=16),
    ]


@pytest.mark.parametrize("mode", MODES)
def test_mixed_kind_fleet_finishes_with_per_universe_unions(mode):
    """A Rocket + BOOM fleet has no single union: ``fleet_finished``
    reports ``union_percent=None`` and the summary lists one union per
    universe, in every entry mode, instead of failing the run."""
    sink = ListSink()
    with FleetRunner(mixed_kind_specs(), n_workers=0, sink=sink) as fleet:
        if mode == "whole-budget":
            result = fleet.run()
        else:
            result = fleet.run_scheduled(BanditScheduler(), slice_tests=8,
                                         mode=mode, concurrent_slices=2)
    assert [c.tests_run for c in result.campaigns] == [16, 16]
    rocket, boom = result.campaigns
    assert rocket.total_arms != boom.total_arms
    finished = [e for e in sink.events if e.kind == "fleet_finished"]
    assert len(finished) == 1
    assert finished[0].data["union_percent"] is None

    percents = result.union_percents()
    assert percents == {
        c.total_arms: pytest.approx(c.final_coverage_percent)
        for c in result.campaigns
    }
    summary = result.summary()
    for universe, percent in percents.items():
        assert f"{percent:.2f}% of {universe} arms" in summary
    with pytest.raises(ValueError, match="different DUT universes"):
        result.union_percent


def test_single_universe_fleet_reports_its_union(tmp_path):
    events = run_fleet("streaming", tmp_path)
    finished = [e for e in events if e.kind == "fleet_finished"]
    assert finished[0].data["union_percent"] > 0.0
