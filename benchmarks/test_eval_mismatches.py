"""E-MISM — mismatch volumes and automated unique filtering (paper §V-B).

"ChatFuzz effectively identified **5,866** instances of disparities …
these identified mismatches underwent a secondary filtration process,
separating more than **100 unique** mismatches.  This filtration process was
executed in an automated fashion."

The bench fuzzes the buggy RocketCore (with the realistic timed counter CSR
enabled, so the counter-read false-positive class exists) and reports raw
mismatches, filter suppressions, and unique signatures.  Absolute counts
scale with the test budget; the paper property is the successive reduction:
raw >> unique.
"""

from benchmarks.conftest import emit, scaled
from repro.analysis.report import format_table
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.chatfuzz import FuzzLoop
from repro.soc.harness import make_harness
from repro.soc.rocket import RocketParams


def _run(chatfuzz, n_tests):
    harness = make_harness("rocket", RocketParams(timed_counter_csr=True))
    loop = FuzzLoop(chatfuzz.generator(seed=141), harness, batch_size=20)
    result = Campaign(loop, "mismatches").run_tests(n_tests)
    return result, loop.detector


def test_mismatch_filtering(benchmark, chatfuzz):
    n_tests = scaled(400)
    result, detector = benchmark.pedantic(
        _run, args=(chatfuzz, n_tests), rounds=1, iterations=1
    )
    emit(format_table(
        ["metric", "measured", "paper (199K tests)"],
        [
            ["tests", str(result.tests_run), "199,000"],
            ["raw mismatches", str(detector.raw_count), "5,866"],
            ["filtered false positives", str(detector.filtered_count), "(majority)"],
            ["unique mismatches", str(detector.unique_count), ">100"],
            ["raw / unique ratio", f"{detector.raw_count / max(1, detector.unique_count):.0f}x", "~58x"],
        ],
        title="E-MISM: mismatch detection and automated unique filtering",
    ))
    assert detector.raw_count > detector.unique_count * 5
    assert detector.unique_count >= 5
