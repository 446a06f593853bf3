"""Command-line entry point.

    blocklace run SCENARIO.json [--seed N] [--ticks N] [--trace P] [--report P]
    blocklace verify TRACE SCENARIO.json
    blocklace demo {tl,wl} [--seed N]
    blocklace export NAME --out PATH

Exit code 0 iff every oracle passes.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..blocks import Say
from . import canned, oracles
from .runner import run_scenario
from .scenario import ScenarioError, load_scenario, parse_scenario


def _print_results(results) -> bool:
    ok = True
    for result in results:
        marker = {"PASS": "ok", "FAIL": "FAIL", "PRECONDITION_UNSATISFIED": "n/a"}[
            result.verdict
        ]
        print(f"[{marker:>4}] {result.name}: {result.verdict}  {result.detail}")
        for line in result.witness[:10]:
            print(f"        witness: {line}")
        ok = ok and result.verdict == "PASS"
    return ok


def cmd_run(args) -> int:
    overrides = {
        key: value
        for key, value in (("seed", args.seed), ("ticks", args.ticks))
        if value is not None
    }
    try:
        scenario = load_scenario(args.scenario)
        if overrides:
            # The overrides pass the checks the file's own fields pass.
            scenario = parse_scenario({**scenario.to_dict(), **overrides})
        # Running raises it too: a rebind to an address another agent holds.
        result = run_scenario(scenario, trace_path=args.trace, report_path=args.report)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    print(
        f"ran '{args.scenario}' seed={scenario.seed} "
        f"quiescence={result.quiescence_tick} last_tick={result.report['last_tick']}"
    )
    return 0 if _print_results(result.oracle_results) else 1


def cmd_verify(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            data = oracles.parse_trace(handle.read())
    except OSError as exc:
        print(f"invalid trace: {args.trace}: cannot read ({exc.strerror})", file=sys.stderr)
        return 2
    except ValueError as exc:
        # UnicodeDecodeError is a ValueError too.
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 2
    recorded = data.meta.get("scenario")
    if recorded != scenario.digest():
        print(
            f"trace was produced by a different scenario "
            f"(trace {recorded}, file {scenario.digest()})",
            file=sys.stderr,
        )
        return 2
    results = oracles.evaluate(scenario, data)
    return 0 if _print_results(results) else 1


def cmd_demo(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.protocol == "tl":
        scenario = canned.tl_line(seed=seed, utterances=6)
        result = run_scenario(scenario)
        author = result.wrappers["a"].inner
        print("== feeds of author 'a' as seen by each agent ==")
        for name, wrapper in result.wrappers.items():
            feed = wrapper.inner.feed(author.agent_id)
            texts = [
                blk.payload.text.decode() for blk in feed if isinstance(blk.payload, Say)
            ]
            print(f"  {name}: {texts}")
    else:
        scenario = canned.wl_group(seed=seed, utterances=8)
        result = run_scenario(scenario)
        founder = result.wrappers["f"].inner
        gid = founder.groups()[0]
        print("== group transcript as seen by each member ==")
        for name, wrapper in result.wrappers.items():
            agent = wrapper.inner
            if gid in agent.group_keys:
                lines = [
                    f"{'ok' if sig_ok else '??'} {text.decode()}"
                    for _, text, sig_ok in agent.transcript(gid)
                ]
                print(f"  {name}: {lines}")
    print(f"(quiescence at tick {result.quiescence_tick})")
    return 0 if _print_results(result.oracle_results) else 1


def cmd_export(args) -> int:
    builder = canned.CANNED.get(args.name)
    if builder is None:
        print(f"unknown canned scenario {args.name!r}; "
              f"choose from {sorted(canned.CANNED)}", file=sys.stderr)
        return 2
    scenario = builder(seed=args.seed if args.seed is not None else 0)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(scenario.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blocklace",
        description="Peer-to-peer social protocol simulator over an unreliable network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and evaluate its oracles")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--ticks", type=int)
    p_run.add_argument("--trace")
    p_run.add_argument("--report")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="re-check oracles offline on a saved trace")
    p_verify.add_argument("trace")
    p_verify.add_argument("scenario")
    p_verify.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="run a canned scenario and pretty-print feeds")
    p_demo.add_argument("protocol", choices=["tl", "wl"])
    p_demo.add_argument("--seed", type=int)
    p_demo.set_defaults(func=cmd_demo)

    p_export = sub.add_parser("export", help="write a canned scenario to a JSON file")
    p_export.add_argument("name")
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--seed", type=int)
    p_export.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
