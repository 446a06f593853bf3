"""Command-line entry point.

    blocklace run SCENARIO.json [--seed N] [--ticks N] [--trace P] [--report P]
    blocklace verify TRACE SCENARIO.json
    blocklace demo {tl,wl} [--seed N]
    blocklace export NAME --out PATH
    blocklace sweep NAME... --seeds A-B [--quiesce NAME...] [--against TABLE]

Exit code 0 iff every oracle passes (and, for `sweep`, every run of a
`--quiesce` scenario quiesces and every row matches TABLE's row for the
same scenario and seed).
"""

from __future__ import annotations

import argparse
import hashlib
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


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"invalid output: {path}: cannot write ({exc.strerror})", file=sys.stderr)
    return 2


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
        for path in filter(None, (args.trace, args.report)):
            # Opened now, without truncating, so that a path that cannot be
            # written fails before the run rather than after it.
            try:
                open(path, "a", encoding="utf-8").close()
            except OSError as exc:
                return _cannot_write(path, exc)
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
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(scenario.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        return _cannot_write(args.out, exc)
    print(f"wrote {args.out}")
    return 0


def _seed_range(text: str) -> range:
    """`A-B` as the seeds A to B, both included."""
    first, sep, last = text.partition("-")
    if sep and first.isdigit() and last.isdigit() and int(first) <= int(last):
        return range(int(first), int(last) + 1)
    raise argparse.ArgumentTypeError(f"not a seed range A-B with 0 <= A <= B: {text!r}")


def _sweep_table(path: str) -> dict[tuple[str, str], str]:
    """The rows of a saved sweep's output, by (scenario, `seed=N`)."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = [line.rstrip("\n") for line in handle if line.strip()]
    return {tuple(row.split(" ", 2)[:2]): row for row in rows}


def cmd_sweep(args) -> int:
    """Run each canned scenario at each seed in this process and print one
    row per run: scenario, seed, quiescence tick (None when the run did
    not quiesce), SUBMIT records, trace sha256, then each oracle's verdict.
    A row depends only on the (scenario, seed) pair, so a table of rows
    saved from one tree checks another (`--against`): each row that
    differs from the table's row for its scenario and seed, or that the
    table lacks, is a failure."""
    unknown = sorted(set(args.names + args.quiesce) - set(canned.CANNED))
    if unknown:
        print(f"unknown canned scenario {unknown[0]!r}; "
              f"choose from {sorted(canned.CANNED)}", file=sys.stderr)
        return 2
    unswept = sorted(set(args.quiesce) - set(args.names))
    if unswept:
        print(f"--quiesce names {unswept[0]!r}, which is not swept", file=sys.stderr)
        return 2
    table = None
    if args.against is not None:
        try:
            table = _sweep_table(args.against)
        except OSError as exc:
            print(f"invalid table: {args.against}: cannot read ({exc.strerror})",
                  file=sys.stderr)
            return 2
        except ValueError as exc:
            # UnicodeDecodeError is a ValueError too.
            print(f"invalid table: {args.against}: {exc}", file=sys.stderr)
            return 2
    failures = 0
    for name in args.names:
        for seed in args.seeds:
            result = run_scenario(canned.CANNED[name](seed=seed))
            text = result.trace_text
            submits = text.count("\tSUBMIT\t")
            sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
            verdicts = " ".join(f"{r.name}={r.verdict}" for r in result.oracle_results)
            row = (
                f"{name} seed={seed} quiescence={result.quiescence_tick} "
                f"submits={submits} sha256={sha256} {verdicts}"
            )
            print(row)
            if table is not None:
                saved = table.get((name, f"seed={seed}"))
                if saved != row:
                    failures += 1
                    how = "missing from" if saved is None else "differs from"
                    print(f"{how} {args.against}: {row}", file=sys.stderr)
            if not result.all_pass():
                failures += 1
                print(f"{name} failed at seed {seed}", file=sys.stderr)
            if name in args.quiesce and result.quiescence_tick is None:
                failures += 1
                print(f"{name} did not quiesce at seed {seed}", file=sys.stderr)
    return 1 if failures else 0


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

    p_sweep = sub.add_parser(
        "sweep", help="run canned scenarios over a seed range and print one row per run"
    )
    p_sweep.add_argument("names", nargs="+", metavar="NAME")
    p_sweep.add_argument("--seeds", type=_seed_range, required=True, metavar="A-B")
    p_sweep.add_argument(
        "--quiesce",
        nargs="+",
        default=[],
        metavar="NAME",
        help="swept scenarios whose every run must quiesce",
    )
    p_sweep.add_argument(
        "--against",
        metavar="TABLE",
        help="a saved sweep output that every row must match",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
