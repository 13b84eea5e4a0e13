"""Budget schedulers: round-robin cycling, UCB1 math, checkpoint state,
and the event-driven interface (next_campaign/on_slice_complete)."""

import math

import pytest

from repro.fuzzing.scheduler import BanditScheduler, BudgetScheduler, RoundRobin


class TestRoundRobin:
    def test_cycles_in_index_order(self):
        rr = RoundRobin()
        rr.bind(3)
        picks = [rr.next_campaign([0, 1, 2]) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_ineligible_arms(self):
        rr = RoundRobin()
        rr.bind(4)
        assert rr.next_campaign([0, 1, 2, 3]) == 0
        # Arm 1 exhausted its budget: the cursor passes over it.
        assert rr.next_campaign([0, 2, 3]) == 2
        assert rr.next_campaign([0, 2, 3]) == 3
        assert rr.next_campaign([0, 2, 3]) == 0

    def test_empty_eligible_raises(self):
        rr = RoundRobin()
        rr.bind(2)
        with pytest.raises(ValueError, match="no eligible"):
            rr.next_campaign([])

    def test_state_roundtrip_continues_sequence(self):
        rr = RoundRobin()
        rr.bind(3)
        rr.next_campaign([0, 1, 2])
        clone = RoundRobin()
        clone.bind(3)
        clone.load_state_dict(rr.state_dict())
        assert clone.next_campaign([0, 1, 2]) == rr.next_campaign([0, 1, 2])


class TestBanditScheduler:
    def make(self, rewards, exploration=1.0):
        """A bound bandit that has already observed one pull per arm."""
        bandit = BanditScheduler(exploration=exploration)
        bandit.bind(len(rewards))
        for arm, reward in enumerate(rewards):
            bandit.on_slice_complete(arm, tests=1, reward=reward)
        return bandit

    def test_plays_every_arm_once_first(self):
        bandit = BanditScheduler()
        bandit.bind(3)
        picks = []
        for _ in range(3):
            arm = bandit.next_campaign([0, 1, 2])
            picks.append(arm)
            bandit.on_slice_complete(arm, tests=1, reward=0.0)
        assert picks == [0, 1, 2]

    def test_exploits_the_best_arm(self):
        bandit = self.make([0.1, 0.9, 0.1], exploration=0.1)
        assert bandit.next_campaign([0, 1, 2]) == 1

    def test_ucb_formula(self):
        bandit = self.make([0.2, 0.8])
        plays = sum(bandit.counts)
        scores = [
            bandit.totals[a] / bandit.counts[a]
            + math.sqrt(2 * math.log(plays) / bandit.counts[a])
            for a in (0, 1)
        ]
        assert bandit.next_campaign([0, 1]) == scores.index(max(scores))

    def test_exploration_term_revisits_starved_arms(self):
        # Arm 0 looks best but has been pulled many times; with a large
        # exploration constant the confidence bound sends us back to arm 1.
        bandit = self.make([0.5, 0.4], exploration=5.0)
        for _ in range(20):
            bandit.on_slice_complete(0, tests=1, reward=0.5)
        assert bandit.next_campaign([0, 1]) == 1

    def test_tie_breaks_to_lowest_index(self):
        bandit = self.make([0.3, 0.3, 0.3])
        assert bandit.next_campaign([0, 1, 2]) == 0
        assert bandit.next_campaign([1, 2]) == 1

    def test_respects_eligibility(self):
        bandit = self.make([0.1, 0.9, 0.5], exploration=0.1)
        assert bandit.next_campaign([0, 2]) == 2

    def test_state_roundtrip(self):
        bandit = self.make([0.2, 0.7])
        clone = BanditScheduler()
        clone.bind(2)
        clone.load_state_dict(bandit.state_dict())
        assert clone.counts == bandit.counts
        assert clone.totals == bandit.totals
        assert clone.next_campaign([0, 1]) == bandit.next_campaign([0, 1])

    def test_state_dict_is_json_compatible(self):
        import json

        bandit = self.make([0.2, 0.7])
        assert json.loads(json.dumps(bandit.state_dict())) == \
            bandit.state_dict()

    def test_bind_validates(self):
        with pytest.raises(ValueError):
            BanditScheduler().bind(0)

    def test_base_protocol_defaults(self):
        scheduler = BudgetScheduler()
        scheduler.bind(2)
        scheduler.on_slice_complete(0, tests=1, reward=0.5)  # no-op
        scheduler.load_state_dict(scheduler.state_dict())
        with pytest.raises(NotImplementedError):
            scheduler.next_campaign([0, 1])


class TestEventDrivenInterface:
    """Both fleet modes drive policies through next_campaign and
    on_slice_complete only."""

    def test_round_robin_event_driven_cycling(self):
        rr = RoundRobin()
        rr.bind(3)
        picks = [rr.next_campaign([0, 1, 2]) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_ucb1_state_roundtrip_through_event_interface(self):
        """Satellite pin: UCB1 state survives a checkpoint round-trip when
        driven purely through the event-driven interface."""
        bandit = BanditScheduler(exploration=0.3)
        bandit.bind(3)
        rewards = iter([0.4, 0.9, 0.1, 0.7, 0.2, 0.6])
        for _ in range(3):  # one initial play per arm, then exploitation
            arm = bandit.next_campaign([0, 1, 2])
            bandit.on_slice_complete(arm, tests=8, reward=next(rewards))
        clone = BanditScheduler(exploration=0.3)
        clone.bind(3)
        clone.load_state_dict(bandit.state_dict())
        for _ in range(3):
            reward = next(rewards)
            arm = bandit.next_campaign([0, 1, 2])
            clone_arm = clone.next_campaign([0, 1, 2])
            assert clone_arm == arm
            bandit.on_slice_complete(arm, tests=8, reward=reward)
            clone.on_slice_complete(clone_arm, tests=8, reward=reward)
        assert clone.state_dict() == bandit.state_dict()

    def test_base_on_slice_complete_is_noop(self):
        scheduler = BudgetScheduler()
        scheduler.bind(2)
        scheduler.on_slice_complete(0, tests=8, reward=0.5)
        with pytest.raises(NotImplementedError):
            scheduler.next_campaign([0, 1])
