"""The benchmark's workloads: the ChatFuzz differential loop and a fleet.

Each workload function sets the program up, runs a fixed amount of work
derived from ``--seed`` and ``--seconds``, checks the outputs, and returns
one measurement dict (see ``run.py`` for how it is reported).

The program is driven only through public entry points
(``LLMInputGenerator`` / ``TheHuzzGenerator`` via ``CampaignSpec``,
``make_harness``, ``FuzzLoop``, ``FleetRunner.run_scheduled``,
``FleetCheckpoint``, ``StoreSink`` / ``ResultsStore``).  ``repro`` is
imported inside the set-up functions, not at module level, because import
time is part of the set-up time being measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

from tracing import STEP, Tracer, self_times

#: Every way a simulator may legitimately stop a test.
KNOWN_STOPS = frozenset({"wfi", "max_steps", "max_traps", "pc_escape"})

WORKLOADS = ("chatfuzz-rocket", "thehuzz-fleet")


# -- output checks and workload descriptors -----------------------------------


class Observed:
    """Per-test output checks and descriptors, fed from the executor.

    Every differential result must carry a coverage report whose bitmap is
    exactly the harness's ``total_arms`` wide, and both traces must stop
    for a known reason.  The same pass collects the workload descriptors
    (golden ``instret``, stop reasons, DUT cycles, body lengths).
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.checked = 0
        self.bad = 0
        self.errors: list[str] = []
        self.instret: list[int] = []
        self.stops: Counter = Counter()
        self.cycles = 0
        self.body_len: list[int] = []

    def record(self, args, kwargs, results) -> None:
        executor, bodies = args[0], args[1]
        total_arms = executor.harness.total_arms
        for body, res in zip(bodies, results):
            self.checked += 1
            problems = []
            if (res.report.total_arms != total_arms
                    or res.report.hits.nbits != total_arms):
                problems.append(
                    f"report is {res.report.hits.nbits} bits, "
                    f"universe {total_arms}")
            for side, trace in (("dut", res.dut_trace),
                                ("golden", res.golden_trace)):
                if trace.stop_reason not in KNOWN_STOPS:
                    problems.append(f"{side} stop {trace.stop_reason!r}")
            if problems:
                self.bad += 1
                if len(self.errors) < 5:
                    self.errors.append("; ".join(problems))
            self.instret.append(res.golden_trace.instret)
            self.stops[res.golden_trace.stop_reason] += 1
            self.cycles += res.dut_trace.cycles
            self.body_len.append(len(body))
        if len(results) != len(bodies):
            self.bad += len(bodies) - len(results)
            self.errors.append(f"{len(results)} results for "
                               f"{len(bodies)} bodies")

    def merge(self, other: dict) -> None:
        self.checked += other["checked"]
        self.bad += other["bad"]
        self.errors += other["errors"][: max(0, 5 - len(self.errors))]
        self.instret += other["instret"]
        self.stops.update(other["stops"])
        self.cycles += other["cycles"]
        self.body_len += other["body_len"]

    def as_dict(self) -> dict:
        return {"checked": self.checked, "bad": self.bad,
                "errors": self.errors, "instret": self.instret,
                "stops": dict(self.stops), "cycles": self.cycles,
                "body_len": self.body_len}

    def descriptors(self, raw_mismatches: int) -> dict:
        """What the workload looked like (recorded, never gated)."""
        instret = sorted(self.instret) or [0]
        return {
            "golden_instret_p50": instret[len(instret) // 2],
            "golden_instret_p90": instret[min(len(instret) - 1,
                                              int(0.9 * len(instret)))],
            "golden_instret_sum": sum(instret),
            "stop_reasons": dict(sorted(self.stops.items())),
            "mean_body_len": (statistics.fmean(self.body_len)
                              if self.body_len else 0.0),
            "raw_mismatches": raw_mismatches,
        }


def sim_digest(coverage: list[tuple[int, int]], signatures, tests: int,
               instret: int, cycles: int) -> str:
    """Digest of everything a run simulated: the final coverage bitmaps
    (``(bits, nbits)`` per universe), the sorted unique mismatch
    signatures, the test count, summed golden ``instret`` and DUT cycles."""
    payload = json.dumps({
        "coverage": [f"{nbits}:{bits:x}" for bits, nbits in coverage],
        "signatures": sorted(repr(sig) for sig in signatures),
        "tests": tests, "instret": instret, "cycles": cycles,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def step_stats(steps: list[float]) -> dict:
    """Median and tail of the step times.

    The tail is the highest whole percentile with at least ten steps
    beyond it (nearest rank).  Below 20 steps no percentile above the
    median has ten steps beyond it, and the tail is the maximum.
    """
    ordered = sorted(steps)
    n = len(ordered)
    pct = 100
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        while n - math.ceil(pct * n / 100) < 10:
            pct -= 1
    rank = max(1, math.ceil(pct * n / 100))
    return {"p50": statistics.median(ordered), "tail": ordered[rank - 1],
            "tail_pct": pct, "steps": n}


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, plus the largest reaped child if asked."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


# -- set-up ---------------------------------------------------------------------


def load_chatfuzz(root: Path) -> tuple:
    """The tracked ChatFuzz model, tokenizer and corpus, loaded read-only.

    Never retrains: a missing file is an error, because retraining would
    take minutes and land inside the set-up time.
    """
    from repro.dataset.corpus import Corpus
    from repro.ml.tokenizer import HalfwordTokenizer
    from repro.ml.transformer import GPT2LMModel

    cache = root / ".bench_cache"
    paths = [cache / "model.npz", cache / "tokenizer.json",
             cache / "corpus.json"]
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise FileNotFoundError(
            f"ChatFuzz model files missing: {', '.join(missing)}; the "
            "benchmark does not retrain")
    return (GPT2LMModel.load(paths[0]), HalfwordTokenizer.load(paths[1]),
            Corpus.load(paths[2]))


def setup_chatfuzz(root: Path, cfg: dict) -> dict:
    """Cold set-up of a loop workload, timed phase by phase: imports,
    model/tokenizer/corpus load, harness elaboration, ready to generate."""
    t0 = time.perf_counter()
    from repro.fuzzing.chatfuzz import FuzzLoop
    from repro.ml.pipeline import LLMInputGenerator
    from repro.soc.harness import make_harness

    t1 = time.perf_counter()
    model, tokenizer, corpus = load_chatfuzz(root)
    t2 = time.perf_counter()
    harness = make_harness("rocket")
    generator = LLMInputGenerator(
        model, tokenizer, corpus, prompt_bounds=tuple(cfg["prompt_bounds"]),
        response_instructions=cfg["response_instructions"], seed=0)
    FuzzLoop(generator, harness, batch_size=cfg["batch_size"])
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "imports_s": t1 - t0, "load_s": t2 - t1,
            "harness_s": t3 - t2, "pool_s": 0.0,
            "_state": (model, tokenizer, corpus, harness)}


def fleet_specs(cfg: dict, kind: str, seed: int, budget: int) -> list:
    from repro.fuzzing.fleet import CampaignSpec

    return [
        CampaignSpec(f"TheHuzz48-{kind}#{k}", fuzzer="thehuzz",
                     fuzzer_config={"body_instructions":
                                    cfg["body_instructions"]},
                     seed=seed * 1000 + k, batch_size=cfg["batch_size"],
                     budget_tests=budget, harness=kind)
        for k in range(cfg["arms_per_kind"])
    ]


def fleet_budget(cfg: dict, seconds: int) -> int:
    """Per-arm test budget: a whole number of slices sized from
    ``--seconds`` at a fixed nominal rate (never from measured speed, so
    the work is the same on every host)."""
    arms = len(cfg["kinds"]) * cfg["arms_per_kind"]
    slices = round(0.85 * seconds * cfg["sizing_tests_per_s"]
                   / arms / cfg["slice_tests"])
    return max(1, slices) * cfg["slice_tests"]


def setup_fleet(root: Path, cfg: dict, seed: int, seconds: int,
                workdir: Path) -> dict:
    """Cold set-up of the fleet: imports, arm specs (``harness_s``: spec
    construction resolves and validates each core kind; workers elaborate
    their own harness), results stores and sinks, checkpointed runners.
    Worker pools start lazily on the first dispatch; that start is timed
    separately (``pool_s``).

    The worker count is fixed in the config, not taken from the host: with
    one worker the parent and the worker never contend for a core on a
    two-core host, and every host runs the same dispatch."""
    t0 = time.perf_counter()
    from repro.fuzzing.fleet import FleetRunner
    from repro.obs.store import ResultsStore

    t1 = time.perf_counter()
    budget = fleet_budget(cfg, seconds)
    specs = {kind: fleet_specs(cfg, kind, seed, budget)
             for kind in cfg["kinds"]}
    t2 = time.perf_counter()
    fleets = {}
    for kind in cfg["kinds"]:
        store = ResultsStore(workdir / f"store-{kind}")
        sink = store.sink()
        runner = FleetRunner(specs[kind], n_workers=cfg["n_workers"],
                             checkpoint_dir=workdir / f"ckpt-{kind}",
                             sink=sink)
        fleets[kind] = (store, sink, runner)
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "imports_s": t1 - t0, "load_s": 0.0,
            "harness_s": t2 - t1, "pool_s": 0.0,
            "_state": (specs, fleets, budget)}


def close_fleets(fleets: dict) -> None:
    for _store, sink, runner in fleets.values():
        runner.close()
        sink.close()


def setup_probe(root: Path, cfg: dict, workload: str, seed: int,
                seconds: int, workdir: Path) -> dict:
    """One cold set-up, as run in a fresh interpreter by ``--setup-probe``."""
    if workload == "chatfuzz-rocket":
        timing = setup_chatfuzz(root, cfg["chatfuzz"])
    else:
        timing = setup_fleet(root, cfg["fleet"], seed, seconds, workdir)
        close_fleets(timing["_state"][1])
    del timing["_state"]
    return timing


# -- layer wrappers ---------------------------------------------------------------


def install_checks(tracer: Tracer, observed: Observed) -> None:
    """Output checks on every executed batch (traced and untraced runs)."""
    from repro.fuzzing.executor import SerialExecutor

    tracer.wrap(SerialExecutor, "run_batch", "executor",
                after=observed.record)


def install_layer_spans(tracer: Tracer, counts: Counter) -> None:
    """Spans around the public calls of every simulated layer."""
    import repro.soc.harness as harness_mod
    from repro.baselines.thehuzz import TheHuzzGenerator
    from repro.coverage.calculator import CoverageCalculator
    from repro.coverage.scoring import CoverageScorer
    from repro.fuzzing.mismatch import MismatchDetector
    from repro.ml.pipeline import LLMInputGenerator
    from repro.ml.tokenizer import HalfwordTokenizer
    from repro.ml.transformer import GPT2LMModel
    from repro.soc.harness import DutHarness

    def golden_done(args, kwargs, traces):
        counts["golden.tests"] += len(traces)
        counts["golden.instret"] += sum(t.instret for t in traces)
        counts["golden.max_steps"] += sum(
            t.stop_reason == "max_steps" for t in traces)

    def dut_done(args, kwargs, pairs):
        counts["dut.cycles"] += sum(trace.cycles for trace, _ in pairs)

    def prefilled(args, kwargs, result):
        counts["ml.tokens"] += result[0].shape[0]

    def decoded(args, kwargs, probs):
        counts["ml.tokens"] += probs.shape[0]

    tracer.wrap(LLMInputGenerator, "generate_batch", "ml.generate")
    tracer.wrap(GPT2LMModel, "prefill", "ml.prefill", after=prefilled)
    tracer.wrap(GPT2LMModel, "decode_step", "ml.decode", after=decoded)
    tracer.wrap(HalfwordTokenizer, "decode_tokens", "ml.detok")
    tracer.wrap(TheHuzzGenerator, "generate_batch", "mutate")
    tracer.wrap(TheHuzzGenerator, "observe", "feedback")
    tracer.wrap(harness_mod, "build_program", "harness.build")
    tracer.wrap(DutHarness, "run_golden_batch", "golden", after=golden_done)
    tracer.wrap(DutHarness, "run_dut_batch", "dut", after=dut_done)
    tracer.wrap(MismatchDetector, "observe", "mismatch")
    tracer.wrap(CoverageCalculator, "observe_batch", "coverage.fold")
    tracer.wrap(CoverageScorer, "score_batch", "coverage.score")


def layer_metrics(selfs: dict, spans_by_name: Counter, counts: Counter,
                  raw: int, unique: int, new_arms: int) -> dict:
    """The per-layer metrics every traced run reports (0 where a layer is
    absent from the workload)."""
    golden_s = selfs.get("golden", 0.0)
    dut_s = selfs.get("dut", 0.0)
    generate_total = counts["ml.generate_total_s"]
    return {
        "ml.generate_s": selfs.get("ml.generate", 0.0),
        "ml.prefill_s": selfs.get("ml.prefill", 0.0),
        "ml.decode_s": selfs.get("ml.decode", 0.0),
        "ml.decode_calls": spans_by_name["ml.decode"],
        "ml.tokens_per_s": (counts["ml.tokens"] / generate_total
                            if generate_total else 0.0),
        "ml.detok_s": selfs.get("ml.detok", 0.0),
        "harness.build_s": selfs.get("harness.build", 0.0),
        "harness.build_calls": spans_by_name["harness.build"],
        "golden.busy_s": golden_s,
        "golden.instret": counts["golden.instret"],
        "golden.instret_per_s": (counts["golden.instret"] / golden_s
                                 if golden_s else 0.0),
        "golden.max_steps_frac": (counts["golden.max_steps"]
                                  / counts["golden.tests"]
                                  if counts["golden.tests"] else 0.0),
        "dut.busy_s": dut_s,
        "dut.cycles": counts["dut.cycles"],
        "dut.cycles_per_s": counts["dut.cycles"] / dut_s if dut_s else 0.0,
        "mismatch.busy_s": selfs.get("mismatch", 0.0),
        "mismatch.raw": raw,
        "mismatch.unique_ratio": unique / raw if raw else 0.0,
        "coverage.fold_s": (selfs.get("coverage.fold", 0.0)
                            + selfs.get("coverage.score", 0.0)),
        "coverage.new_arms": new_arms,
        "feedback.busy_s": selfs.get("feedback", 0.0),
        "loop.self_s": (selfs.get("loop.step", 0.0)
                        + selfs.get("executor", 0.0)
                        + selfs.get("fleet.slice", 0.0)),
    }


# -- chatfuzz loop workloads ------------------------------------------------------


def chatfuzz_plan(cfg: dict, seconds: int) -> int:
    """Campaign count, sized from ``--seconds`` at a fixed nominal rate
    (never from measured speed, so the work is the same on every host)."""
    return max(1, round(0.85 * seconds * cfg["sizing_tests_per_s"]
                        / cfg["campaign_tests"]))


def run_campaigns(state: tuple, cfg: dict, seeds: list[int],
                  observed: Observed, harness=None) -> list[dict]:
    """Run one fresh ``FuzzLoop`` campaign per generator seed, each to the
    fixed ``campaign_tests`` budget; per campaign: step times, time to the
    coverage target, and what it simulated (in full, and after its first
    batch, under ``"first"``)."""
    from repro.fuzzing.chatfuzz import FuzzLoop
    from repro.ml.pipeline import LLMInputGenerator

    model, tokenizer, corpus, default_harness = state
    harness = harness or default_harness
    campaigns = []
    for seed in seeds:
        generator = LLMInputGenerator(
            model, tokenizer, corpus,
            prompt_bounds=tuple(cfg["prompt_bounds"]),
            response_instructions=cfg["response_instructions"], seed=seed)
        loop = FuzzLoop(generator, harness, batch_size=cfg["batch_size"])
        instret0, cycles0 = sum(observed.instret), observed.cycles

        def simulated() -> dict:
            return {"tests": loop.tests_run,
                    "coverage": loop.calculator.cumulative.bits(),
                    "total_arms": loop.calculator.total_arms,
                    "signatures": set(loop.detector.unique),
                    "instret": sum(observed.instret) - instret0,
                    "cycles": observed.cycles - cycles0}

        steps = []
        to_target = None
        first = None
        while loop.tests_run < cfg["campaign_tests"]:
            start = time.perf_counter()
            loop.run_batch()
            steps.append(time.perf_counter() - start)
            if first is None:
                first = simulated()
            if to_target is None and loop.total_percent >= cfg["target_pct"]:
                to_target = sum(steps)
        campaigns.append({"seed": seed, "steps": steps,
                          "to_target": to_target,
                          "raw": loop.detector.raw_count, "first": first,
                          **simulated()})
    return campaigns


def campaigns_union(campaigns: list[dict]) -> tuple[int, set]:
    """Union coverage bitmap and unique mismatch signatures."""
    bits = 0
    signatures = set()
    for campaign in campaigns:
        bits |= campaign["coverage"]
        signatures |= campaign["signatures"]
    return bits, signatures


def campaigns_digest(campaigns: list[dict]) -> str:
    bits, signatures = campaigns_union(campaigns)
    return sim_digest([(bits, campaigns[0]["total_arms"])], signatures,
                      sum(c["tests"] for c in campaigns),
                      sum(c["instret"] for c in campaigns),
                      sum(c["cycles"] for c in campaigns))


def run_chatfuzz(root: Path, cfg: dict, seed: int, seconds: int,
                 trace: bool) -> dict:
    setup = setup_chatfuzz(root, cfg)
    state = setup.pop("_state")
    n_campaigns = chatfuzz_plan(cfg, seconds)
    seeds = [seed * 1000 + c for c in range(n_campaigns)]
    observed = Observed()
    check_hooks = Tracer()
    install_checks(check_hooks, observed)
    out = {"setup": setup, "checks": [], "record": {}}

    from repro.fuzzing.chatfuzz import FuzzLoop

    # One untimed batch first: a process's first batch runs slower (lazy
    # imports, interpreter and allocator warm-up), a cost users pay once
    # per process rather than per batch.
    warm_start = time.perf_counter()
    warm = cfg["batch_size"] // 4
    run_campaigns(state, dict(cfg, campaign_tests=warm, batch_size=warm),
                  [seed * 1000 + 999], observed)
    out["record"]["warmup_s"] = time.perf_counter() - warm_start
    observed.reset()

    tracer = None
    counts: Counter = Counter()
    if trace:
        # An untraced twin of the first campaigns, for trace.overhead.
        twin = run_campaigns(state, cfg, seeds[:3], observed)
        tracer = Tracer()
        step_ids = iter(range(1 << 30))
        tracer.wrap(FuzzLoop, "run_batch", "loop.step",
                    step=lambda args, kwargs: next(step_ids))
        install_layer_spans(tracer, counts)
    observed.reset()
    campaigns = run_campaigns(state, cfg, seeds, observed)
    out["peak_rss_mb"] = peak_rss_mb(children=False)
    if tracer is not None:
        tracer.restore()
    check_hooks.restore()

    steps = [s for c in campaigns for s in c["steps"]]
    tests = sum(c["tests"] for c in campaigns)
    bits, signatures = campaigns_union(campaigns)
    total_arms = campaigns[0]["total_arms"]
    raw = sum(c["raw"] for c in campaigns)
    # The mean, not the median, over campaigns: a campaign reaches the
    # target after its 2nd or its 3rd batch, and a median jumps between
    # the two from seed to seed where a mean moves by a fraction.
    to_target = [c["to_target"] if c["to_target"] is not None
                 else sum(c["steps"]) for c in campaigns]
    out.update({
        "attempted": n_campaigns * cfg["campaign_tests"],
        "tests": tests,
        "wall_s": sum(steps),
        "steps": steps,
        "time_to_target_s": statistics.fmean(to_target),
        "target_missed": sum(c["to_target"] is None for c in campaigns),
        "to_target_all": to_target,
        "coverage_pct": 100.0 * bits.bit_count() / total_arms,
        "unique_mismatches": len(signatures),
        "observed": observed,
        "descriptors": observed.descriptors(raw),
        "digest": campaigns_digest(campaigns),
        "ledger": {},
    })
    out["ledger"][f"chatfuzz|b{cfg['batch_size']}|n{cfg['campaign_tests']}"
                  f"|s{seed}|c{n_campaigns}"] = out["digest"]

    # Lanes are a pure speed knob: campaign 0's first batch replayed on the
    # golden and Rocket lane engines (lanes = batch size) must simulate bit
    # for bit what the scalar engines did.  Its speed is recorded as a
    # finding, not a metric: a lane batch's time is set by how many runaway
    # bodies it holds, which varies too much between seeds to carry a bound.
    from repro.soc.harness import make_harness

    lanes = cfg["batch_size"]
    replay = Observed()
    check_hooks = Tracer()
    install_checks(check_hooks, replay)
    try:
        lane_run = run_campaigns(
            state, dict(cfg, campaign_tests=lanes), seeds[:1], replay,
            harness=make_harness("rocket", golden_lanes=lanes,
                                 dut_lanes=lanes))
    finally:
        check_hooks.restore()
    lane_digest = campaigns_digest(lane_run)
    scalar_digest = campaigns_digest([campaigns[0]["first"]])
    out["checks"] += [f"lane engines: {e}" for e in replay.errors]
    if lane_digest != scalar_digest:
        out["checks"].append(f"lane-engine digest {lane_digest[:12]} != "
                             f"scalar {scalar_digest[:12]} (campaign 0, "
                             "first batch)")
    lane_tps = lane_run[0]["tests"] / sum(lane_run[0]["steps"])
    scalar_tps = campaigns[0]["first"]["tests"] / campaigns[0]["steps"][0]
    out["record"]["lanes"] = {
        "lanes": lanes, "digest_equal": lane_digest == scalar_digest,
        "tests_per_s": lane_tps, "scalar_tests_per_s": scalar_tps,
        "ratio": lane_tps / scalar_tps, "step_times_s": lane_run[0]["steps"]}
    if tracer is not None:
        out["spans"] = {tracer.token: tracer.spans}
        spans_by_name = Counter(span[1] for span in tracer.spans)
        selfs = self_times(tracer.spans)
        counts["ml.generate_total_s"] = sum(
            span[5] - span[4] for span in tracer.spans
            if span[1] == "ml.generate")
        new_arms = sum(c["coverage"].bit_count() for c in campaigns)
        layers = layer_metrics(selfs, spans_by_name, counts, raw,
                               len(signatures), new_arms)
        untraced_s = sum(sum(c["steps"]) for c in twin)
        traced_s = sum(sum(c["steps"]) for c in campaigns[:len(twin)])
        n_steps = sum(len(c["steps"]) for c in twin)
        sums = self_times(tracer.spans, key=STEP)
        # Same tests on both sides, so the tests/s ratio is a time ratio.
        layers["trace.overhead"] = traced_s / untraced_s
        layers["trace.self_cover"] = (sum(sums[i] for i in range(n_steps))
                                      / untraced_s)
        out["layers"] = layers
    return out


# -- fleet workload ------------------------------------------------------------------


def run_fleet(root: Path, cfg: dict, seed: int, seconds: int, trace: bool,
              workdir: Path) -> dict:
    setup = setup_fleet(root, cfg, seed, seconds, workdir)
    specs, fleets, budget = setup.pop("_state")
    import repro.fuzzing.fleet as fleet_mod
    from repro.fuzzing.campaign import Campaign
    from repro.fuzzing.fleet import FleetCheckpoint, FleetRunner
    from repro.fuzzing.scheduler import BanditScheduler
    from repro.obs.store import ResultsStore, StoreSink

    def run_kind(kind: str, runner):
        result = runner.run_scheduled(
            BanditScheduler(exploration=cfg["exploration"]),
            slice_tests=cfg["slice_tests"], mode="streaming")
        stats = runner.last_stats
        runner.close()
        return result, stats

    twin = None
    if trace:
        # An untraced twin of the first kind's fleet, for trace.overhead.
        kind = cfg["kinds"][0]
        store = ResultsStore(workdir / "twin-store")
        sink = store.sink()
        with FleetRunner(specs[kind], n_workers=cfg["n_workers"],
                         checkpoint_dir=workdir / "twin-ckpt",
                         sink=sink) as runner:
            twin = run_kind(kind, runner)
        sink.close()

    worker_dir = workdir / "workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    observed = Observed()
    tracer = Tracer()
    counts: Counter = Counter()
    install_checks(tracer, observed)
    if trace:
        install_layer_spans(tracer, counts)

    def slice_step(args, kwargs):
        observed.reset()
        counts.clear()
        return None

    def slice_done(args, kwargs, result):
        # Runs in the worker process: hand this slice's spans, checks and
        # counts to the parent through a per-process file.  The step id is
        # the arm and its test count once the slice is done.
        step = f"{args[0].name}@{result.tests_run}"
        record = {"process": tracer.token, "observed": observed.as_dict(),
                  "counts": dict(counts),
                  "spans": ([[s[0], s[1], step, s[3], s[4], s[5]]
                             for s in tracer.spans] if trace else [])}
        with open(worker_dir / f"{tracer.token}.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        tracer.spans.clear()

    tracer.wrap(Campaign, "run_slice", "fleet.slice", step=slice_step,
                after=slice_done)

    parent = Tracer()
    if trace:
        def emitting(args, kwargs):
            # Parent-side spans take the step of the last completed slice.
            if args[1] == "slice_completed":
                parent.step = f"{kwargs.get('name')}@{kwargs.get('tests')}"
            return parent.step

        parent.wrap(StoreSink, "emit", "obs.emit", step=emitting)
        parent.wrap(StoreSink, "save_coverage", "obs.save_coverage")
        parent.wrap(FleetCheckpoint, "save_arm", "checkpoint.save")

    pool_starts: list[float] = []
    base_pool = fleet_mod.ProcessPoolExecutor

    class TimedPool(base_pool):
        """The fleet's pool, with its start (construction plus the first
        submit, which forks the workers) timed."""

        def __init__(self, *args, **kwargs):
            self._created = time.perf_counter()
            self._started = False
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            if not self._started:
                self._started = True
                pool_starts.append(time.perf_counter() - self._created)
            return future

    fleet_mod.ProcessPoolExecutor = TimedPool
    runs = {}
    try:
        for kind in cfg["kinds"]:
            runs[kind] = run_kind(kind, fleets[kind][2])
    finally:
        fleet_mod.ProcessPoolExecutor = base_pool
        close_fleets(fleets)
        parent.restore()
        tracer.restore()
    peak = peak_rss_mb(children=True)

    # Everything the workers handed back.
    spans_by_process: dict[str, list] = {}
    worker_counts: Counter = Counter()
    merged = Observed()
    for path in sorted(worker_dir.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            merged.merge(record["observed"])
            worker_counts.update(record["counts"])
            spans_by_process.setdefault(record["process"], []).extend(
                record["spans"])
    if trace:
        spans_by_process[parent.token] = parent.spans

    setup["pool_s"] = statistics.median(pool_starts) if pool_starts else 0.0
    out = {"setup": setup, "checks": [], "record": {}, "peak_rss_mb": peak,
           "ledger": {}}
    steps: list[float] = []
    to_target: list[float] = []
    missed = 0
    tests = attempted = raw = unique = arm_covered = 0
    coverage = []
    covered = universe = 0
    signatures = set()
    wall = busy = slot_s = 0.0
    slices = retries = events = 0
    phases: Counter = Counter()
    for kind in cfg["kinds"]:
        store = fleets[kind][0]
        result, stat = runs[kind]
        attempted += budget * len(specs[kind])
        tests += result.total_tests
        kind_bits = nbits = 0
        for campaign in result.campaigns:
            kind_bits |= campaign.final_coverage.to_int()
            nbits = max(nbits, campaign.final_coverage.nbits)
            arm_covered += len(campaign.final_coverage)
            raw += campaign.raw_mismatches
        coverage.append((kind_bits, nbits))
        covered += kind_bits.bit_count()
        universe += nbits
        kind_signatures = result.unique_signatures
        unique += len(kind_signatures)
        signatures |= {(kind, sig) for sig in kind_signatures}
        wall += stat.wall_seconds
        busy += stat.busy_seconds
        slot_s += stat.wall_seconds * stat.worker_slots
        slices += stat.slices
        retries += stat.health.retries
        if not stat.health.healthy:
            out["checks"].append(f"{kind} fleet degraded: "
                                 f"{stat.health.summary()}")
        agg = store.aggregate()
        phases.update(agg.phases)
        events += agg.events
        kind_steps, arm_targets, curves = fleet_timeline(
            store.read_events(), result, cfg["target_pct"][kind])
        out["record"][f"{kind}_curves"] = curves
        steps += kind_steps
        missed += arm_targets.count(None)
        to_target += [stat.wall_seconds if t is None else t
                      for t in arm_targets]

    if merged.checked != tests:
        out["checks"].append(f"workers checked {merged.checked} results "
                             f"for {tests} tests")
    # Pool start is set-up, not fleet throughput.
    wall -= sum(pool_starts)
    out.update({
        "attempted": attempted,
        "tests": tests,
        "wall_s": wall,
        "steps": steps,
        "time_to_target_s": statistics.fmean(to_target),
        "target_missed": missed,
        "to_target_all": to_target,
        "coverage_pct": 100.0 * covered / universe,
        "unique_mismatches": unique,
        "observed": merged,
        "descriptors": merged.descriptors(raw),
        "digest": sim_digest(coverage, signatures, tests,
                             sum(merged.instret), merged.cycles),
    })
    out["ledger"][f"fleet|b{budget}|s{seed}"] = out["digest"]
    out["record"]["fleet"] = {"budget_per_arm": budget,
                              "pool_starts_s": pool_starts,
                              "store_events": events}
    if trace:
        out["spans"] = spans_by_process
        selfs: Counter = Counter()
        spans_by_name: Counter = Counter()
        for spans in spans_by_process.values():
            selfs.update(self_times(spans))
            spans_by_name.update(span[1] for span in spans)
        layers = layer_metrics(selfs, spans_by_name, worker_counts, raw,
                               unique, arm_covered)
        first = cfg["kinds"][0]
        twin_tps = twin[0].total_tests / twin[1].wall_seconds
        traced_tps = (runs[first][0].total_tests
                      / runs[first][1].wall_seconds)
        layers.update({
            "fleet.utilisation": busy / slot_s if slot_s else 0.0,
            "fleet.idle_slot_s": slot_s - busy,
            "fleet.slices": slices,
            "fleet.retries": retries,
            "fleet.gen_s": phases["generation_seconds"],
            "fleet.exec_s": phases["execution_seconds"],
            "fleet.fold_s": phases["fold_seconds"],
            "checkpoint.save_s": selfs["checkpoint.save"],
            "checkpoint.saves": spans_by_name["checkpoint.save"],
            "obs.emit_s": selfs["obs.emit"] + selfs["obs.save_coverage"],
            "obs.events": spans_by_name["obs.emit"],
            "obs.events_per_test": spans_by_name["obs.emit"] / tests,
            "trace.overhead": twin_tps / traced_tps,
        })
        out["record"]["overhead_twin"] = {
            "kind": first, "untraced_tests_per_s": twin_tps,
            "traced_tests_per_s": traced_tps}
        out["layers"] = layers
    return out


def fleet_timeline(events, result, target_pct: float):
    """From the results store's event log and the campaigns' curves: slice
    step times (dispatch to completion), each arm's seconds from its first
    dispatch until its own coverage reached the target (None if it never
    did), and the union and per-arm coverage curves (seconds from fleet
    start)."""
    hits = {}
    for arm, campaign in enumerate(result.campaigns):
        for point in campaign.curve:
            hits[(arm, point.tests)] = point.hits
    started = None
    dispatched: dict[int, float] = {}
    first_dispatch: dict[int, float] = {}
    reached = dict.fromkeys(range(len(result.campaigns)))
    steps = []
    union = 0
    curve = []
    arm_curves: dict[int, list] = {}
    for event in events:
        data = event.data
        if event.kind == "fleet_started":
            started = event.t
        elif event.kind == "slice_dispatched":
            dispatched.setdefault(data["arm"], event.t)
            first_dispatch.setdefault(data["arm"], event.t)
        elif event.kind == "slice_completed":
            arm = data["arm"]
            steps.append(event.t - dispatched.pop(arm))
            if (reached[arm] is None
                    and data["coverage_percent"] >= target_pct):
                reached[arm] = event.t - first_dispatch[arm]
            arm_curves.setdefault(arm, []).append(
                (event.t - started, data["coverage_percent"]))
            bitmap = hits[(arm, data["tests"])]
            union |= bitmap.to_int()
            curve.append((event.t - started,
                          100.0 * union.bit_count() / bitmap.nbits))
    return steps, list(reached.values()), {"union": curve,
                                           "arms": arm_curves}
