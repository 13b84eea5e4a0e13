#!/usr/bin/env python3
"""End-to-end benchmark of the ChatFuzz differential fuzzing loop.

Run from the repository root::

    python3 e2ebench/run.py --workload chatfuzz-rocket --seed 1 \\
        --seconds 30 --trace 0

Workloads (rationales in ``BENCHMARK.json``, sizes, targets and seeds in
``config.json``):

- ``chatfuzz-rocket``: the paper's loop -- ``LLMInputGenerator`` on the
  tracked ``.bench_cache/`` model, ``FuzzLoop`` with the serial executor,
  ``make_harness("rocket")`` on the scalar engines, as several fresh
  campaigns of a fixed test budget.  The first batch of campaign 0 is
  replayed on the lane engines (``golden_lanes = dut_lanes = batch
  size``): its simulation digest must equal the scalar one, and its speed
  is recorded.
- ``thehuzz-fleet``: TheHuzz 48-instruction mutational arms on Rocket and
  on BOOM, one fleet per core kind, ``run_scheduled(mode="streaming")``
  with a UCB1 bandit over a fixed number of worker processes (config.json,
  not the host's core count, so every host runs the same dispatch), per-arm
  budgets as the only stop condition, checkpoints and a ``StoreSink``
  results store.  Many short arms rather than a few long ones: an arm's
  share of trapping and looping bodies drifts over its campaign, so a few
  long arms make a run's cost depend on its seed.

``--seed`` makes the inputs (generator seeds), ``--seconds`` sizes the work
at a fixed nominal rate (so the work is identical on every host), and
``--trace 1`` wraps the program's public layer calls with spans and
reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Each run also leaves a
record (machine context, workload descriptors, digests, step times) and,
when traced, its spans under ``.e2ebench/runs/``.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on sys.path)

STATE_DIR = ROOT / ".e2ebench"


def fail(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def require_checkout() -> tuple[dict, dict]:
    """The benchmark's definition and config; the program under ``src/``
    must be present (it is never imported from anywhere else)."""
    if not (ROOT / "src" / "repro" / "fuzzing" / "chatfuzz.py").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        definition = json.loads((ROOT / "BENCHMARK.json").read_text())
        config = json.loads((HERE / "config.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read the benchmark definition: {exc}")
    return definition, config


def src_hash() -> str:
    """Content hash of the program sources (scopes the digest ledger)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_ledger(entries: dict[str, str]) -> list[str]:
    """Repeated runs of one seed on the same sources must simulate the
    same thing: compare each digest with the one an earlier run recorded,
    and record new ones."""
    path = STATE_DIR / "digests.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    scope = src_hash()
    problems = []
    for key, digest in entries.items():
        scoped = f"{scope}|{key}"
        known = ledger.setdefault(scoped, digest)
        if known != digest:
            problems.append(f"{key}: digest {digest[:12]} differs from an "
                            f"earlier run's {known[:12]}")
    STATE_DIR.mkdir(exist_ok=True)
    temp = path.with_name(path.name + f".{os.getpid()}.tmp")
    temp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    os.replace(temp, path)
    return problems


def setup_probes(args, count: int) -> list[dict]:
    """Cold set-ups, each in a fresh interpreter (imports included)."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def host_speed_s() -> float:
    """Seconds for a fixed pure-Python loop: taken before and after the run
    so that a slow or contended host shows in the record."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - start


def machine_context() -> dict:
    return {
        "host_speed_s": host_speed_s(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: config.json's)")
    parser.add_argument("--seconds", type=int, default=30,
                        help="sizes the measured work (nominal seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    definition, config = require_checkout()
    if args.seed is None:
        args.seed = config["default_seed"]
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    STATE_DIR.mkdir(exist_ok=True)
    workdir = STATE_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            timing = workloads.setup_probe(ROOT, config, args.workload,
                                           args.seed, args.seconds, workdir)
            print(json.dumps(timing))
            return 0
        return measure(args, definition, config, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, definition: dict, config: dict, workdir: Path) -> int:
    machine = machine_context()
    started = time.time()
    trace = bool(args.trace)
    if args.workload == "chatfuzz-rocket":
        out = workloads.run_chatfuzz(ROOT, config["chatfuzz"], args.seed,
                                     args.seconds, trace)
    else:
        out = workloads.run_fleet(ROOT, config["fleet"], args.seed,
                                  args.seconds, trace, workdir)
    # Probes run after the measured work, so the fleet's child-RSS peak
    # above only saw its own workers.
    samples = [out["setup"]] + setup_probes(args,
                                             config["setup_probes"] - 1)
    checks = list(out["checks"]) + check_ledger(out["ledger"])

    import numpy

    machine["numpy"] = numpy.__version__
    machine["loadavg_after"] = list(os.getloadavg())
    machine["host_speed_after_s"] = host_speed_s()
    observed = out["observed"]
    attempted = out["attempted"]
    if checks:
        failed = attempted
    else:
        failed = max(0, attempted - observed.checked) + observed.bad
    steps = workloads.step_stats(out["steps"])
    pool_s = out["setup"]["pool_s"]
    setup = {key: statistics.median(s[key] for s in samples)
             for key in ("setup_s", "imports_s", "load_s", "harness_s")}
    values = {
        "tests_per_s": out["tests"] / out["wall_s"],
        "time_to_target_s": out["time_to_target_s"],
        "step_s_p50": steps["p50"],
        "step_s_tail": steps["tail"],
        "coverage_pct": out["coverage_pct"],
        "unique_mismatches": out["unique_mismatches"],
        "setup_s": setup["setup_s"] + pool_s,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    if trace:
        values = dict(out["layers"])
        values.update({"setup.load_s": setup["load_s"],
                       "setup.harness_s": setup["harness_s"],
                       "setup.pool_s": pool_s})
    section = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]}
               for m in definition[section]}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "started": started,
        "machine": machine, "metrics": metrics,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "checks": checks + observed.errors,
        "sim_digest": out["digest"], "ledger": out["ledger"],
        "step_tail_pct": steps["tail_pct"], "steps": steps["steps"],
        "step_times_s": out["steps"],
        "setup_samples": samples,
        "time_to_target_each_s": out["to_target_all"],
        "target_missed": out["target_missed"],
        "descriptors": out["descriptors"],
        **out["record"],
    }
    runs = STATE_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{int(started)}-{os.getpid()}")
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        with open(runs / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for process, spans in out["spans"].items():
                for span in spans:
                    fh.write(json.dumps(dict(zip(
                        ("id", "name", "step", "parent", "start", "end"),
                        span), process=process)) + "\n")

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={machine['nproc']} "
          f"python={machine['python']} numpy={machine['numpy']} "
          f"loadavg={machine['loadavg'][0]:.2f}->"
          f"{machine['loadavg_after'][0]:.2f} host_speed="
          f"{machine['host_speed_s']:.3f}->"
          f"{machine['host_speed_after_s']:.3f}s")
    for name, metric in metrics.items():
        print(f"  {name:<24} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  steps={steps['steps']} tail=p{steps['tail_pct']} "
          f"digest={out['digest'][:16]} "
          f"descriptors={json.dumps(out['descriptors'])}")
    for problem in record["checks"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  record: {runs / stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
