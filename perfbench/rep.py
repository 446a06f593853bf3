"""One repetition of a workload, run in a fresh process by run.py.

Usage: python3 perfbench/rep.py WORKLOAD SEED [--traced]

Builds the scenario and its Runner SETUPS times (the set-up time is taken
from each), runs the last Runner to quiescence or its tick budget, then
verifies the trace as `blocklace run` does after a run.  Prints one JSON
object with the host times, the peak resident memory of this process, the
trace's sha256 and the trace-derived figures.  With --traced the per-layer
wrappers are installed first and their figures are added.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import derive  # noqa: E402
import probe as probe_mod  # noqa: E402
import workloads  # noqa: E402

SETUPS = 20


def main(argv: list[str]) -> dict:
    name, seed, traced = argv[0], int(argv[1]), "--traced" in argv[2:]
    probe = probe_mod.install() if traced else None
    from blocklace.harness import oracles
    from blocklace.harness.runner import Runner

    clock = time.perf_counter
    setup_s = []
    for _ in range(SETUPS):
        start = clock()
        scenario = workloads.build(name, seed)
        runner = Runner(scenario)
        setup_s.append(clock() - start)

    start = clock()
    quiescence_tick, last_tick = runner.run()
    sim_s = clock() - start

    start = clock()
    text = runner.trace.text()
    results = oracles.evaluate(scenario, oracles.parse_trace(text))
    verify_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    del runner
    data = text.encode("utf-8")
    delivered = derive.delivery(text, derive.required_recipients(scenario))
    out = {
        "setup_s": setup_s,
        "sim_s": sim_s,
        "verify_s": verify_s,
        "peak_rss_mb": peak_rss_mb,
        "sha256": hashlib.sha256(data).hexdigest(),
        "trace_mb": len(data) / 1e6,
        "verdicts": {r.name: r.verdict for r in results},
        "quiescence_tick": quiescence_tick,
        "last_tick": last_tick,
        "scripted_utterances": derive.scripted_utterances(scenario),
        "utterances": delivered.utterances,
        "datagrams": delivered.datagrams,
        "pairs": delivered.pairs,
        "undelivered": delivered.undelivered,
        "delivery_p50_ticks": delivered.percentile(50),
        "delivery_p95_ticks": delivered.percentile(95),
    }
    if probe is not None:
        out["layers"] = probe_mod.layer_metrics(probe)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
