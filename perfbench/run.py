"""The repository benchmark: seeded scenario workloads through the harness.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh process (perfbench/rep.py), because the
crypto memo tables and WireDecoder caches would leave a second run in the
same interpreter warm, while every real `blocklace run` starts cold.

--trace 0 makes repetitions under PYTHONHASHSEED=0 for S seconds (at least
MIN_REPS) and reports every end-to-end metric: set-up time and peak memory
as the median over repetitions, simulated-time and count metrics exactly.
It also prints sim_s and verify_s with their quartiles.

--trace 1 first makes one repetition under another PYTHONHASHSEED, then
alternates an untraced and a traced repetition under PYTHONHASHSEED=0 for
S seconds (at least one pair).  It reports every per-layer metric, times as
the median over repetitions: sim_s and verify_s from the untraced ones, the
layers' times from the traced ones; tracing.overhead_s is traced minus
untraced sim_s.

sim_s and verify_s are host times for Runner.run and for trace.text() +
parse_trace + evaluate.  They are per-layer metrics, which carry no bound,
because on a shared host they vary by more than the largest bound a
metric may carry (0.25): the host's own CPU speed drifts by 20% and more
within minutes, for a plain Python loop as much as for a run.

Every repetition must pass every oracle, deliver every required (recipient,
utterance) pair, and produce the same trace sha256, whatever its hash seed
and whether traced or not; otherwise the result says correct=false.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "blocklace").is_dir():
    raise SystemExit(f"no program sources at {SRC}: run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

TIMED_HASHSEED = "0"
CHECK_HASHSEED = "4242"
MIN_REPS = 3
# Stop starting repetitions this long after start, so a run always ends
# within its 180 s limit.
DEADLINE_S = 150.0


def repetition(workload: str, seed: int, hashseed: str, traced: bool, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "rep.py"), workload, str(seed)]
    if traced:
        command.append("--traced")
    env = {**os.environ, "PYTHONHASHSEED": hashseed}
    done = subprocess.run(
        command,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"repetition failed with exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def check(reps: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over the given repetitions."""
    problems = []
    attempted = failed = 0
    reference = reps[0]
    for i, rep in enumerate(reps):
        attempted += rep["pairs"]
        bad = [name for name, verdict in rep["verdicts"].items() if verdict != "PASS"]
        if bad:
            problems.append(f"repetition {i}: oracles not PASS: {bad}")
            failed += rep["pairs"]
        else:
            failed += rep["undelivered"]
        if rep["undelivered"]:
            problems.append(f"repetition {i}: {rep['undelivered']} pairs undelivered")
        if rep["utterances"] != rep["scripted_utterances"]:
            problems.append(
                f"repetition {i}: {rep['utterances']} of "
                f"{rep['scripted_utterances']} utterances on the wire"
            )
        # Equal traces make every trace-derived figure equal too.
        if rep["sha256"] != reference["sha256"]:
            problems.append(f"repetition {i}: trace sha256 differs from repetition 0")
    layer_counts = [
        {name: value for name, value in rep["layers"].items() if not name.endswith("_s")}
        for rep in reps
        if "layers" in rep
    ]
    if any(counts != layer_counts[0] for counts in layer_counts):
        problems.append("per-layer counts differ between traced repetitions")
    if attempted == 0:
        problems.append("no required (recipient, utterance) pairs")
        attempted = 1
    return not problems, attempted, failed, problems


def end_to_end(workload: str, seed: int, seconds: float, started: float) -> tuple[list, dict]:
    deadline = started + DEADLINE_S
    timed: list[dict] = []
    begin = time.monotonic()
    while len(timed) < MIN_REPS or time.monotonic() - begin < seconds:
        rep_start = time.monotonic()
        timed.append(repetition(workload, seed, TIMED_HASHSEED, False, deadline))
        if time.monotonic() + (time.monotonic() - rep_start) > deadline:
            break
    samples = {
        "setup_s": [s for rep in timed for s in rep["setup_s"]],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in timed],
        "sim_s": [rep["sim_s"] for rep in timed],
        "verify_s": [rep["verify_s"] for rep in timed],
    }
    first = timed[0]
    quiescence = first["quiescence_tick"]
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "datagrams": first["datagrams"],
        "datagrams_per_pair": first["datagrams"] / max(1, first["pairs"]),
        "trace_mb": first["trace_mb"],
        "delivery_p50_ticks": first["delivery_p50_ticks"],
        "delivery_p95_ticks": first["delivery_p95_ticks"],
        "quiescence_tick": first["last_tick"] if quiescence is None else quiescence,
    }
    print(f"{workload} seed={seed}: {len(timed)} repetitions, PYTHONHASHSEED={TIMED_HASHSEED}")
    for name, values in samples.items():
        q1, q2, q3 = quartiles(values)
        print(f"  {name:<20} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    print(
        f"  delivery over {first['pairs']} (recipient, utterance) pairs: "
        f"p50 {first['delivery_p50_ticks']:g} ticks, p95 {first['delivery_p95_ticks']:g} ticks"
    )
    print(f"  trace sha256 {first['sha256']}")
    return timed, metrics


def per_layer(workload: str, seed: int, seconds: float, started: float) -> tuple[list, dict]:
    deadline = started + DEADLINE_S
    hash_check = repetition(workload, seed, CHECK_HASHSEED, False, deadline)
    untraced: list[dict] = []
    traced: list[dict] = []
    begin = time.monotonic()
    while not traced or time.monotonic() - begin < seconds:
        pair_start = time.monotonic()
        untraced.append(repetition(workload, seed, TIMED_HASHSEED, False, deadline))
        traced.append(repetition(workload, seed, TIMED_HASHSEED, True, deadline))
        if time.monotonic() + (time.monotonic() - pair_start) > deadline:
            break
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        if name.endswith("_s")
        else value
        for name, value in traced[0]["layers"].items()
    }
    untraced_sim_s = statistics.median(rep["sim_s"] for rep in untraced)
    metrics["sim_s"] = untraced_sim_s
    metrics["verify_s"] = statistics.median(rep["verify_s"] for rep in untraced)
    metrics["tracing.overhead_s"] = (
        statistics.median(rep["sim_s"] for rep in traced) - untraced_sim_s
    )
    print(f"{workload} seed={seed}: {len(traced)} traced and {len(untraced)} untraced repetitions")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g}")
    return [hash_check] + untraced + traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        reps, values = per_layer(args.workload, args.seed, args.seconds, started)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        reps, values = end_to_end(args.workload, args.seed, args.seconds, started)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(values) != set(units):
        raise SystemExit(f"metrics do not match BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    correct, attempted, failed, problems = check(reps)
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
