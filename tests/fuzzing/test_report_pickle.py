"""Coverage reports across the process pool: payload size and equality.

The sharded executor's workers ship every test's ``DifferentialResult``
(traces + coverage report) back through the result pipe; the bitset engine
exists partly to shrink that payload.  These tests pin the pickle contract:
packed reports round-trip exactly (same hits, same arm names), the wire
payload is an order of magnitude below the frozenset encoding it replaced,
and a report that actually crossed a worker-process boundary equals its
parent-side twin.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor

from repro.coverage.reference import SetConditionCoverage, SetCoverageReport
from repro.rtl.bitset import Bitset
from repro.rtl.coverage import ConditionCoverage
from repro.rtl.report import CoverageReport
from repro.soc.harness import make_harness


def make_report(n_conditions=200, stride=3) -> CoverageReport:
    cov = ConditionCoverage()
    handles = [cov.declare(f"unit.c{i}") for i in range(n_conditions)]
    cov.freeze()
    for handle in handles[::stride]:
        cov.record(handle, True)
        cov.record(handle, handle % 2)
    return CoverageReport.from_coverage(cov, cycles=99)


class TestPickleRoundtrip:
    def test_equality_and_fields(self):
        report = make_report()
        again = pickle.loads(pickle.dumps(report))
        assert again == report
        assert again.hits == report.hits
        assert again.total_arms == report.total_arms
        assert again.cycles == 99
        assert again.standalone_count == report.standalone_count

    def test_payload_order_of_magnitude_below_frozenset(self):
        """A result chunk of packed reports (the sharded executor's wire
        shape) beats the set-based encoding by >= 5x at RocketCore scale
        (~hundreds of arms)."""
        total_arms = 400
        packed_chunk, legacy_chunk = [], []
        for shift in range(16):  # 16 distinct, realistically dense reports
            hits = {(a + shift) % total_arms for a in range(0, total_arms, 2)}
            packed_chunk.append(CoverageReport(hits=hits, total_arms=total_arms))
            legacy_chunk.append(SetCoverageReport(
                hits=frozenset(hits), total_arms=total_arms))
        packed_size = len(pickle.dumps(packed_chunk))
        legacy_size = len(pickle.dumps(legacy_chunk))
        assert packed_size * 5 < legacy_size


def _identity(report: CoverageReport) -> CoverageReport:
    return report


class TestAcrossProcessPool:
    def test_report_survives_worker_boundary(self):
        report = make_report()
        with ProcessPoolExecutor(max_workers=1) as pool:
            returned = pool.submit(_identity, report).result()
        assert returned == report
        assert isinstance(returned.hits, Bitset)
        assert set(returned.hits) == set(report.hits)

    def test_real_dut_report_arm_names_stable_across_pool(self):
        """Every set bit of a pool-crossed report still resolves to the same
        declared arm name on the parent's coverage database."""
        harness = make_harness("rocket")
        _, report = harness.run_dut([0x00000013] * 4)  # nops
        with ProcessPoolExecutor(max_workers=1) as pool:
            returned = pool.submit(_identity, report).result()
        cov = harness.core.cov
        assert {cov.arm_name(a) for a in returned.hits} == {
            cov.arm_name(a) for a in report.hits
        }
