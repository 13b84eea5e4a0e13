"""Budget schedulers: which campaign arm gets the next slice of tests.

A fleet (``repro.fuzzing.fleet``) spends one shared test budget across many
campaign *arms* — different fuzzers, seeds or SoC configs.  A static split
wastes budget on arms that stopped discovering coverage; MABFuzz (Gohil et
al., 2023) shows that treating the fuzzers as a multi-armed bandit and
allocating successive budget slices by observed reward beats static splits
on processor-fuzzing workloads.

Two policies are provided behind one small protocol:

- :class:`RoundRobin` — the static-split baseline: cycle through the
  eligible arms in order.
- :class:`BanditScheduler` — UCB1: play each arm once, then pick the arm
  maximising ``mean_reward + c * sqrt(2 ln N / n_i)``.  The fleet's reward
  for a slice is the *new* coverage it contributed to the fleet-wide union
  (an incremental :class:`~repro.rtl.bitset.Bitset` delta, normalised by
  the universe size), so arms exploring already-covered ground decay
  towards pure exploration terms and the budget flows to whichever fuzzer
  is still finding new arms.

The protocol is *event-driven*: the fleet runner asks
:meth:`BudgetScheduler.next_campaign` whenever a worker frees up and
reports each finished slice through
:meth:`BudgetScheduler.on_slice_complete` — the moment it completes in
streaming fleets, in pick order at the round barrier in round-mode
fleets.  No round barrier is implied by the interface, so one policy
implementation serves both modes with identical state evolution.

Schedulers are deterministic (ties break to the lowest arm index) and
checkpointable (:meth:`BudgetScheduler.state_dict`), so a resumed fleet
continues the exact allocation sequence of an uninterrupted one.  In
streaming mode the *completion order* of concurrent slices feeds
``on_slice_complete``, so a pooled streaming fleet's allocation sequence
can vary run-to-run — see the determinism contract on
:meth:`repro.fuzzing.fleet.FleetRunner.run_scheduled`.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.obs.events import NULL_SINK, EventSink


class BudgetScheduler:
    """Protocol for slice-allocation policies (event-driven).

    Lifecycle: :meth:`bind` once with the number of arms, then the fleet
    runner calls :meth:`next_campaign` each time a worker slot frees up
    and :meth:`on_slice_complete` as each slice finishes.  Both must be
    deterministic given the call history — fleet checkpoint/resume
    equality depends on it.  One round of barrier-synchronised picks is
    just N ``next_campaign`` calls whose completions happen to be reported
    together.
    """

    n_arms: int = 0
    #: Telemetry sink (:mod:`repro.obs.events`); the fleet runner attaches
    #: its own via :meth:`attach_sink`.  Policies emit *observations* of
    #: their internal state (e.g. per-arm reward trajectories) — sinks
    #: must never influence scheduling, and the sink is excluded from
    #: :meth:`state_dict` (telemetry is an observer, not policy state).
    sink: EventSink = NULL_SINK

    def bind(self, n_arms: int) -> None:
        """Declare the arm universe; called once by the fleet runner."""
        if n_arms < 1:
            raise ValueError(f"need at least one arm, got {n_arms}")
        self.n_arms = n_arms

    def attach_sink(self, sink: EventSink) -> None:
        """Route this policy's telemetry to ``sink`` (the runner's)."""
        self.sink = sink

    # -- event-driven interface (override these) -------------------------------

    def next_campaign(self, eligible: Sequence[int]) -> int:
        """Choose the campaign for a freed worker from the (sorted)
        eligible indices (arms under budget and not already in flight)."""
        raise NotImplementedError

    def on_slice_complete(self, arm: int, tests: int, reward: float) -> None:
        """Fold one completed slice on ``arm`` into policy state (no-op by
        default).  Called the moment the slice finishes — in streaming
        fleets that is completion order, not dispatch order."""

    def on_arm_quarantined(self, arm: int) -> None:
        """The fleet removed ``arm`` from scheduling after it exhausted
        its retries (see ``repro.fuzzing.fleet``).  No-op by default —
        the runner already drops the arm from every future ``eligible``
        set, so policies only need this hook to rebalance internal state
        (e.g. redistribute a static split).  The arm never returns."""

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Picklable/JSON-able policy state for fleet checkpoints."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output."""


class RoundRobin(BudgetScheduler):
    """Static budget split: cycle through eligible arms in index order."""

    def __init__(self) -> None:
        self._cursor = 0

    def next_campaign(self, eligible: Sequence[int]) -> int:
        if not eligible:
            raise ValueError("no eligible arms to schedule")
        pool = set(eligible)
        for offset in range(max(self.n_arms, max(pool) + 1)):
            arm = (self._cursor + offset) % max(self.n_arms, 1)
            if arm in pool:
                self._cursor = arm + 1
                return arm
        raise ValueError(f"eligible arms {sorted(pool)} outside universe")

    def state_dict(self) -> dict:
        return {"cursor": self._cursor}

    def load_state_dict(self, state: dict) -> None:
        self._cursor = int(state["cursor"])


class BanditScheduler(BudgetScheduler):
    """UCB1 over campaign arms, rewarded by new fleet-union coverage.

    Parameters
    ----------
    exploration:
        Multiplier ``c`` on the confidence-bound term.  The default 1.0 is
        classic UCB1; lower values commit to the best-looking arm sooner
        (coverage rewards are far below 1, so a small ``c`` is usually the
        better fit — MABFuzz tunes the equivalent knob the same way).
    """

    def __init__(self, exploration: float = 1.0) -> None:
        self.exploration = exploration
        self.counts: list[int] = []
        self.totals: list[float] = []

    def bind(self, n_arms: int) -> None:
        super().bind(n_arms)
        if len(self.counts) != n_arms:
            self.counts = [0] * n_arms
            self.totals = [0.0] * n_arms

    def next_campaign(self, eligible: Sequence[int]) -> int:
        if not eligible:
            raise ValueError("no eligible arms to schedule")
        unplayed = [arm for arm in eligible if self.counts[arm] == 0]
        if unplayed:
            return min(unplayed)
        plays = max(1, sum(self.counts))
        return max(
            sorted(eligible),
            key=lambda arm: (
                self.totals[arm] / self.counts[arm]
                + self.exploration
                * math.sqrt(2.0 * math.log(plays) / self.counts[arm]),
                -arm,  # deterministic tie-break: lowest index wins
            ),
        )

    def on_slice_complete(self, arm: int, tests: int, reward: float) -> None:
        self.counts[arm] += 1
        self.totals[arm] += reward
        if self.sink.enabled:
            # The MABFuzz debuggability hook: the allocation trajectory
            # (per-arm plays and running mean reward) as first-class data
            # rather than state buried inside the policy.
            self.sink.emit(
                "arm_reward", arm=arm, tests=tests, reward=reward,
                count=self.counts[arm],
                mean=self.totals[arm] / self.counts[arm],
                total=self.totals[arm],
            )

    def state_dict(self) -> dict:
        return {"counts": list(self.counts), "totals": list(self.totals)}

    def load_state_dict(self, state: dict) -> None:
        self.counts = [int(c) for c in state["counts"]]
        self.totals = [float(t) for t in state["totals"]]
