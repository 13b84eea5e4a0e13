"""Bitset engine vs the retained set engine: bit-for-bit parity.

The packed-bitset coverage engine (``repro.rtl.coverage`` /
``repro.rtl.report`` / ``repro.coverage.calculator``) must be
observationally identical to the original hash-set implementation retained
in ``repro.coverage.reference``.  These tests drive both with identical
observation streams — synthetic pseudo-random streams and real reports from
a RocketCore run — and assert equal hits, counts, increments, totals,
percents and scores in both calculator modes, through both the scalar and
the vectorised batch paths.
"""

import random

import pytest

from repro.coverage.calculator import CoverageCalculator
from repro.coverage.reference import (
    SetConditionCoverage,
    SetCoverageCalculator,
    SetCoverageReport,
)
from repro.coverage.scoring import CoverageScorer, ScoreWeights
from repro.rtl.coverage import ConditionCoverage
from repro.rtl.report import CoverageReport
from repro.soc.harness import make_harness

N_CONDITIONS = 150


def build_engines(n=N_CONDITIONS):
    bit_cov, set_cov = ConditionCoverage(), SetConditionCoverage()
    for i in range(n):
        assert bit_cov.declare(f"c{i}") == set_cov.declare(f"c{i}")
    bit_cov.freeze()
    set_cov.freeze()
    return bit_cov, set_cov


def record_stream(bit_cov, set_cov, rng, n_obs):
    """Drive both engines with one identical observation stream.

    The bitset engine exercises both record paths: scalar ``record`` and
    the memoized-group ``record_mask`` (as the cores use for decode/trap/IRQ
    condition groups).
    """
    for _ in range(n_obs):
        if rng.random() < 0.3:
            # A correlated group, folded as one mask on the bitset side.
            group = [(rng.randrange(N_CONDITIONS), rng.random() < 0.5)
                     for _ in range(rng.randrange(1, 12))]
            mask = 0
            for handle, value in group:
                mask |= bit_cov.arm_bit(handle, value)
                set_cov.record(handle, value)
            bit_cov.record_mask(mask)
        else:
            handle, value = rng.randrange(N_CONDITIONS), rng.random() < 0.5
            assert bit_cov.record(handle, value) == set_cov.record(handle, value)


def make_report_pair(bit_cov, set_cov, rng, n_obs=120):
    bit_cov.begin_run()
    set_cov.begin_run()
    record_stream(bit_cov, set_cov, rng, n_obs)
    bit_report = CoverageReport.from_coverage(bit_cov)
    set_report = SetCoverageReport.from_coverage(set_cov)
    assert bit_report.hits == set_report.hits
    return bit_report, set_report


class TestRecordingParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_hits_identical(self, seed):
        bit_cov, set_cov = build_engines()
        rng = random.Random(seed)
        record_stream(bit_cov, set_cov, rng, 400)
        assert set(bit_cov.run_hits) == set_cov.run_hits
        assert len(bit_cov.run_hits) == len(set_cov.run_hits)

    def test_begin_run_resets_both(self):
        bit_cov, set_cov = build_engines()
        record_stream(bit_cov, set_cov, random.Random(3), 50)
        bit_cov.begin_run()
        set_cov.begin_run()
        assert bit_cov.run_hits == set() == set_cov.run_hits


@pytest.mark.parametrize("batch_mode", [True, False])
@pytest.mark.parametrize("seed", [0, 7])
class TestCalculatorParity:
    def test_observe_stream(self, batch_mode, seed):
        """Scalar observes, interleaved with begin_batch, match exactly."""
        bit_cov, set_cov = build_engines()
        rng = random.Random(seed)
        bit_calc = CoverageCalculator(bit_cov.total_arms, batch_mode=batch_mode)
        set_calc = SetCoverageCalculator(set_cov.total_arms, batch_mode=batch_mode)
        for step in range(30):
            if step % 10 == 0:
                bit_calc.begin_batch()
                set_calc.begin_batch()
            bit_report, set_report = make_report_pair(bit_cov, set_cov, rng)
            assert bit_calc.observe(bit_report) == set_calc.observe(set_report)
        assert bit_calc.total_percent == set_calc.total_percent
        assert set(bit_calc.cumulative.hits) == set_calc.cumulative.hits

    def test_observe_batch_vectorised(self, batch_mode, seed):
        """The numpy batch sweep equals the reference per-report loop."""
        bit_cov, set_cov = build_engines()
        rng = random.Random(seed)
        bit_calc = CoverageCalculator(bit_cov.total_arms, batch_mode=batch_mode)
        set_calc = SetCoverageCalculator(set_cov.total_arms, batch_mode=batch_mode)
        for _ in range(4):  # several batches: baselines evolve between them
            pairs = [make_report_pair(bit_cov, set_cov, rng) for _ in range(16)]
            bit_out = bit_calc.observe_batch([p[0] for p in pairs])
            set_out = set_calc.observe_batch([p[1] for p in pairs])
            assert bit_out == set_out
        assert bit_calc.total_percent == set_calc.total_percent

    def test_vectorised_equals_scalar_path(self, batch_mode, seed):
        """observe_batch == begin_batch + observe loop on the same engine."""
        bit_cov, set_cov = build_engines()
        rng = random.Random(seed)
        vec = CoverageCalculator(bit_cov.total_arms, batch_mode=batch_mode)
        scalar = CoverageCalculator(bit_cov.total_arms, batch_mode=batch_mode)
        reports = [make_report_pair(bit_cov, set_cov, rng)[0] for _ in range(16)]
        vec_out = vec.observe_batch(reports)
        scalar.begin_batch()
        scalar_out = [scalar.observe(r) for r in reports]
        assert vec_out == scalar_out
        assert vec.cumulative.count == scalar.cumulative.count


class TestScoringParity:
    @pytest.mark.parametrize("weights", [None, ScoreWeights(
        standalone_weight=1.5, incremental_weight=12.0, improvement_bonus=0.5,
        stagnation_penalty=2.0, exploration_weight=3.0)])
    def test_score_batch_matches_scalar(self, weights):
        bit_cov, set_cov = build_engines()
        rng = random.Random(11)
        calc = CoverageCalculator(bit_cov.total_arms)
        reports = [make_report_pair(bit_cov, set_cov, rng)[0] for _ in range(32)]
        coverages = calc.observe_batch(reports)
        scorer = CoverageScorer(weights)
        assert scorer.score_batch(coverages) == [
            scorer.score(c) for c in coverages
        ]


class TestRealHarnessParity:
    def test_rocket_reports_feed_both_calculators_identically(self):
        """Real DUT coverage reports: the retained set calculator scores the
        same curve as the bitset one (fixed bodies, fixed seed)."""
        harness = make_harness("rocket")
        from repro.baselines.mutations import MutationEngine

        engine = MutationEngine(seed=5)
        bodies = [engine.random_body(16) for _ in range(12)]
        reports = [harness.run_dut(body)[1] for body in bodies]

        bit_calc = CoverageCalculator(harness.total_arms)
        set_calc = SetCoverageCalculator(harness.total_arms)
        scorer = CoverageScorer()
        bit_out = bit_calc.observe_batch(reports)
        set_out = set_calc.observe_batch([
            SetCoverageReport(hits=frozenset(r.hits), total_arms=r.total_arms,
                              cycles=r.cycles)
            for r in reports
        ])
        assert bit_out == set_out
        assert scorer.score_batch(bit_out) == scorer.score_batch(set_out)
        assert bit_calc.total_percent == set_calc.total_percent
