"""Golden trace hashes: every canned scenario at seed 1 must keep producing
exactly these trace bytes.  A change that alters a trace on purpose must
say so and update the hash here; any other change must leave them alone.

The trace is written in the v4 encoding: each datagram is one `SUBMIT`
record whose `net=` field names its fate at the network, an agent round
writes a `TICK` only when it sends, a repeated payload is a `*N`
back-reference and every block id is an `#M` back-reference.
`GOLDEN_V4_SHA256` pins those bytes.  `GOLDEN_V3_SHA256` pins the v3 bytes
of the same runs (`DROP_LOSS` and `DUP` records, and a `TICK` for every
round), `GOLDEN_V2_SHA256` the v2 bytes (ids spelled out as hex) and
`GOLDEN_SHA256` the v1 bytes (repeated payloads spelled out too):
expanding each v4 trace to v3, on to v2 and on to v1 must reproduce them.
So a change to the encoding alone moves only the table of its own
version, while a change to what the agents send moves all four.
`GOLDEN_METRICS_SHA256` pins each run's per-agent counters
(`Runner.metrics_report`), which the trace does not show, such as
`resent`."""

import dataclasses
import hashlib
import json

import pytest

from blocklace.harness import canned
from blocklace.harness.cli import main as cli_main
from blocklace.harness.oracles import TraceEvent, evaluate, parse_trace
from blocklace.harness.runner import Runner, run_scenario

GOLDEN_SEED = 1
GOLDEN_SHA256 = {
    "tl_line": "21ba86046ffbeabae53614db7d7c46a010fc0072a5e6fdb0c0c20bad36d48bd4",
    "tl_star": "95031b2c7bd95ee53eb3629a22bffd1eea7b26c39665342f5513dc3c5b60f772",
    "tl_ring": "2098ca028be7efbaa58521c37a0397183784e0627cf5500521c3443d3db4e632",
    "tl_line_broken": "3e9a087a3157b0b8b98d5162d5c88ed6de5d0eb9afb67aff05cdf41c33049f2f",
    "tl_churn": "9bbe6d3b42cec8743a8a617c85ab53c70428e0616e9bf7ae7272b38923b0c5d6",
    "tl_forgery": "c559452f2a79566fb98e1fb08d874b2bccd36ae49bf5b7e08bac125f3559f83d",
    "wl_group": "36c76f6316e10bc4e51b50caf9d054cd4ef8060b1f025b458d6702cbdb777736",
    "wl_crowd": "adf08ab383f49c9d1db2f63ab7bf8f2772291d18bc01bab925033c6f4e95cdcd",
    "wl_dropper": "bcf8fc004284dacd225c73c6eb24404b5277885be02ca6cb0ef9cca7b1ac5969",
    "wl_solo": "aab51e780ebebfac0984023a9e8241f218f10605facfbcb031a971338b244e44",
    "wl_churn": "1fee8ed418c106b9886414aca2619a25ef4603b119802a1bf17ced4d21de6705",
    "wl_equivocation": "267e79de83165430638f58d89a6dc93ee8426e82a0079a81876e7e1427102627",
    "wl_equivocation_crowd": "66285e01bf3a1e4e9cae6d966bfbe825340dee203d75621683e79f989e013a57",
    "wl_privacy": "e1af9caf04788f48d1201a6203c3ac1a95fd0c514a4c459eefc8aba3e3b51852",
    "wl_partitions": "2b92d29486e7c58d2d7d5e5ae55c1aaeaf1bfacbb31b21a98897c340715f8dc2",
    "wl_founder_moves": "00f50de2d1bc21da0ba9e06c3bd8d2e8132ef7dec808b7b5729a550d2192f1dc",
    "wl_founder_quits": "9e2ea7bfb275837395e32f2363277555eeba883cbc7d24a08bea68d814c3209f",
    "wl_crowd_orphans": "cdedab134808361c6405f84b8a9020760cbfdc31c28dfba9012e03f79a44686c",
}
GOLDEN_V4_SHA256 = {
    "tl_line": "692dc9f8e4eb19bc548956b14efe4dfdad312a715f1aab912a1d1efa7df98e3e",
    "tl_star": "ede573fc21656f23b0cb49677e524bfaac3d899300623b6a056c623d36644dd4",
    "tl_ring": "a2496b10d3cc1a9656f36cffaf39108cbb48375deac48f3b84c5f4b7701edeca",
    "tl_line_broken": "da1d97c2d7f3aee8100c49adfc5ddf731e00b39f5dd3512cfe45fffcd10a6096",
    "tl_churn": "7d31da160358762c4e1f25fdc532c122d8f1c0842abb5c7840be0ffa55045097",
    "tl_forgery": "b77ae51bf42d9192ba3a0dc9406d537995a52bcfc84ac0c021a0f58f7fa368e3",
    "wl_group": "190a9fb50951c28caaa80a1d1896266b15fcaae378cdf99f87580a17ac7628be",
    "wl_crowd": "90e59c5ee4fe1359f16b72945608902a1cbbfa1cf262b99d101f4a8240f8ffe8",
    "wl_founder_moves": "3b2af887e7d6e9037947e8f2b0eee697068fc9b32a9d636bd5eb9556ac1ff643",
    "wl_founder_quits": "c0ae8ddb7eb39fb456a2092783f164629c30636d0f19108cce3ed4084ad3d906",
    "wl_crowd_orphans": "c1aacfa37d5ced18626869ecc7ecf04494c7769f56f7fc4abbba1f615aab355e",
    "wl_dropper": "1fffc99b26733c65d113f1c3c41904f2268febff6d9a8daa10bb18a4f48433e2",
    "wl_solo": "a461968f404cb642b3c6b10b9da1faaebca84a0ca5489968723c915aeaecf646",
    "wl_churn": "01e788d65a7131f9ac961c56586f114f5d040b78c257c35b169fab457cd0f2b6",
    "wl_equivocation": "a721f482f2de8f5507e47165a7dfa5b2d39108297d1622161b24f8f2f624c700",
    "wl_equivocation_crowd": "6edea43fd1d5482b99d501473f9f0416f1ded71c19baf6da0e79d88e6f5b659d",
    "wl_privacy": "5d7eb9135663f9a42a56ab5864a2a7e42178396f4f0cc2a8b2680881d73e6ee8",
    "wl_partitions": "172f5462eef7de4a64c9dfa513bb25ec0fee38b805091df0c3e729b346721b9c",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "ab4fc3331934a1e7e19fdf8cfe6e46bf3459b56cfbf3b497da64e9648ecf8f95",
    "tl_star": "f72baab8ecf03450ababb6149e14da904cdc764c958d93a5f9d4d02f95c13849",
    "tl_ring": "19dbbe8dd42822ee6653498743a5bd03be4fc4c8308aa8ba537e658061250ff5",
    "tl_line_broken": "0011d2ca576d2ba6639e37c23676d0f161e066b1e0af2f788990e152c8c89014",
    "tl_churn": "76078955f21a85184d300e3494fb8567f8cd41244300c9b639ab42d3d31792de",
    "tl_forgery": "05474af210c8e3e4906e9d50c04cc22fbfb116f37ef14a7fa52a9ced89b53eff",
    "wl_group": "65f8ed99082555871d08a6c04c3e783a74bcaec60679f531f41f446e67cc13b2",
    "wl_crowd": "f5a6c768ca559a6125efca5e50c6919863c708787479d05f68ca12228df74810",
    "wl_dropper": "ddff246b204dfc96c2cc815235fb84b7cf0eaa3c8b9de4ac7f951256ebd22661",
    "wl_solo": "07f923bdc0c4529ac452250d65bedb3811294fbacbce1c1d534a894eb9248a59",
    "wl_churn": "aced6b23e36d03ce51aff10d7a3f1e6af72dd9de11a089dc676e24929d66d8ef",
    "wl_equivocation": "4fa2e222aa2168e2db4b6641fed95b34b6364fe5cfd47c5a701c6f74b71d7932",
    "wl_equivocation_crowd": "3229647423ffd022f1771bfd4b38c4714fbf923c37dea7eca7318f746ad3e039",
    "wl_privacy": "1bbc71923a13a5b76f114f5d207b83447b06984e59143cd33577274a1fd82c2e",
    "wl_partitions": "7b29202eb341a880bfbb4ffa5505dd5ae805b24e6d4b8f5ecc783f4cf1a614c2",
    "wl_founder_moves": "6054d42febc3a5cf53a8fc22a913e5163aae780e1519cc8d33a2bc3f17d2d385",
    "wl_founder_quits": "46e2d3f2109ca838d6dac437382edd26ba6fe89a87d365a71d63a6906f0333a2",
    "wl_crowd_orphans": "d315e3178eeb4afb370451faa5c257fd08ea981e0340257b2501221eb65f5253",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "183c0ab6d176ddda2435807d231a2af1bde735e0e34c694027ea1e57675587c6",
    "tl_star": "d0884913dd5bcd6a774293d6e7ff62fafc6327961d102ecc9c195106c3430da2",
    "tl_ring": "3de4c5831b33a75f3a273ad49c16cd32434776ece5f50f50d636c1d33e82a4a0",
    "tl_line_broken": "b4dc1fce95c639374eedcf8f58727cda8d0fd95ea2c44f355065e733934bdad7",
    "tl_churn": "aff035e2c345612e02e305283bee56b598b16b385a27ff142b2d2c5a0fd62bc8",
    "tl_forgery": "3266fe577a94a06d4b612b5c60e53bca044d8200dc398ba97186ec5998cbb1bc",
    "wl_group": "b98cc1d2d953d8455b50b332e562fead486b847e4111e7cbc4a75d92b6b941ea",
    "wl_crowd": "da14db65cbb8943a37ff8f2db7b73f86ab2edcbc80a515043d52ca2b1eb863bd",
    "wl_dropper": "d71e94557c99016bc8632f3a7fd691332e76b1ad347ad38ac1295fb3e68af6a6",
    "wl_solo": "4125efff59761c666f07a8e457860cce0438482024c52927b6bed04f252c3c75",
    "wl_churn": "1bb0c067499669777328479ba06b1b13828cabc32b058d42c2ce3cb0081a499d",
    "wl_equivocation": "28f38ff91e793c88dd0166ceed61cb230c16f105534265c7776519effe6bdc46",
    "wl_equivocation_crowd": "2c7f039870d9592abaa4fc4da4effefad9612eb362b519b558b849f610163c38",
    "wl_privacy": "3515d00cad74258f8881e636ab69fd3f6c609bb93331f66f36f2b98e834eaef3",
    "wl_partitions": "b9b32538910c1f51a6d9a015c1fbef47aee45fbd354dd445807d417db366a3f6",
    "wl_founder_moves": "17f55affb8b7ab066489e362b126506cc79a6ab200deb3947459ae26bdafabc9",
    "wl_founder_quits": "e21e86db1b2dd6d3dca42cb17a27b8a772c40062ac1180d8d6977b946d9e5e68",
    "wl_crowd_orphans": "a642cb3f71576f7061ef906399298a9407c06def5fbc58cac43814c8ad83fcc3",
}

# sha256 of `json.dumps(runner.metrics_report(), sort_keys=True)` for the
# same runs.
GOLDEN_METRICS_SHA256 = {
    "tl_line": "dc3428e700ab2f0bb76f60ada7d035a14cb1bb7b6ae3b4debaeaf2457e23ed9b",
    "tl_star": "15d6e78fa41178f57a71ee0c25311b497bdedf85791da8850f7aebbacec9fcac",
    "tl_ring": "530bf66c436d24e5fe16effb6a0a0b09a3e4a9cf38d64798bdc3317f92071b17",
    "tl_line_broken": "64ef97bc0be19990b26b2878b79837e2f859d10bf9bb58bfc0670fd0725f34b6",
    "tl_churn": "ff503ecb66adccda7e893e2c38ea3383d63685879de2bc1c271e591d9901679c",
    "tl_forgery": "4b672c58ba7fe94fe386fd0121f89fd113f14f0dee825160aad3f2be785fae0d",
    "wl_group": "3bc463cbd10e08632783c1b052f1c610a39eb290725c792c2bb441a7b7a669aa",
    "wl_crowd": "4dd8bbf5389bf5d535c8850ffce1444beb4eeccdc9fc461a0fa013942700be39",
    "wl_dropper": "c3547ea47d6fe38eb1d0f501ac5133c552f3fd20759acaac44715192078c795d",
    "wl_solo": "f025de3690468d406189d9fad3382ab2a3abc9ee2845e0c5a2440501d3669228",
    "wl_churn": "f9a8970aedee79891db285247f5e4697a70743a3a92b3deaa41d7852fcf404fe",
    "wl_equivocation": "aa91817b59d42183e1a54c9ca9d407218fc197435206781c6899ef06f313206b",
    "wl_equivocation_crowd": "554631031ffd61d2bdfc96d7e206005cdc23c23f375cdf12f8850780aafefa6b",
    "wl_privacy": "2dcfcdc84e0ead577210ff995be3ffd8d627ed0aded4bf340373c7923e7b8077",
    "wl_partitions": "45632888cd36fa004de166f570a3551c6191ddfe5f389aadb15d4283d6eb30da",
    "wl_founder_moves": "b431860810bd2c18fa42085640845f19306c3165e211e05a5d0132d72e162e0a",
    "wl_founder_quits": "8d9a05bc586ef16a71af573737505fb1b828c03a0453168d34c368f31ac7aa37",
    "wl_crowd_orphans": "a1f1f1c3eab91010267675b4dcdfcf9531550faf4d68c1fbb9edf7f013399df1",
}


def _digest_hex(payload_hex: str) -> str:
    """The second length-prefixed field of wire bytes given as hex (a
    block's digest), or "invalid" when the bytes end before it does."""
    end = 0
    for _ in range(2):
        start = end + 8
        if start > len(payload_hex):
            return "invalid"
        end = start + 2 * int(payload_hex[start - 8 : start], 16)
        if end > len(payload_hex):
            return "invalid"
    return payload_hex[start:end]


def _expand_fate(line: str) -> list[str]:
    """A v4 record line as v3 lines: a `SUBMIT` loses its `net=` fate
    field and is followed by a `DROP_LOSS` record when the fate names
    `lost` and a `DUP` record when it names `dup`."""
    parts = line.split("\t")
    if parts[1] != "SUBMIT" or not parts[-1].startswith("net="):
        return [line]
    fates = parts.pop()[len("net="):].split("+")
    fields = dict(part.split("=", 1) for part in parts[2:])
    where = "\t".join(f"{key}={fields[key]}" for key in ("src", "dst", "id"))
    out = ["\t".join(parts)]
    if "lost" in fates:
        out.append(f"{parts[0]}\tDROP_LOSS\t{where}")
    if "dup" in fates:
        out.append(f"{parts[0]}\tDUP\t{where}")
    return out


def _with_idle_ticks(tick: int, lines: list[str], roster: list[str]) -> list[str]:
    """One round tick's v4 record lines, with `TICK agent=X sends=0` for
    each agent whose round wrote no `TICK`.  The round follows the
    events, deliveries and acks and precedes the monitors' `VIOLATION`
    records and the `FINAL`s; each `TICK` it wrote heads the agent's
    `SUBMIT`s."""
    kinds = [line.split("\t")[1] for line in lines]
    after = [i for i, kind in enumerate(kinds) if kind in ("VIOLATION", "FINAL")]
    end = after[0] if after else len(lines)
    start = next((i for i in range(end) if kinds[i] == "TICK"), end)
    sent: dict[str, list[str]] = {}
    for line, kind in zip(lines[start:end], kinds[start:end]):
        if kind == "TICK":
            agent = line.split("\tagent=", 1)[1].split("\t", 1)[0]
            sent[agent] = []
        sent[agent].append(line)
    round_lines = [
        line
        for name in roster
        for line in sent.get(name, [f"{tick}\tTICK\tagent={name}\tsends=0"])
    ]
    return lines[:start] + round_lines + lines[end:]


def to_v3(text: str, tick_interval: int, last_tick: int) -> str:
    """The v3 text of a v4 trace of a run that ran ticks 0 to `last_tick`
    with agent rounds every `tick_interval` ticks: the header names v3,
    each `SUBMIT`'s `net=` fate becomes the `DROP_LOSS` and `DUP` records
    after it (`_expand_fate`), and each round writes a `TICK` for every
    agent, in roster order (`_with_idle_ticks`).  Written apart from
    `parse_trace` and the runner so the readings of the format check each
    other."""
    lines = text.split("\n")
    head = [line for line in lines if line.startswith("#")]
    roster = [
        line.split(" name=", 1)[1].split(" ", 1)[0]
        for line in head
        if line.startswith("# agent ")
    ]
    by_tick: dict[int, list[str]] = {}
    for line in lines:
        if line and not line.startswith("#"):
            by_tick.setdefault(int(line.split("\t", 1)[0]), []).append(line)
    rounds = range(0, last_tick + 1, tick_interval)
    out = ["# blocklace-trace v3" if line == "# blocklace-trace v4" else line for line in head]
    for tick in sorted(by_tick.keys() | set(rounds)):
        records = by_tick.get(tick, [])
        if tick in rounds:
            records = _with_idle_ticks(tick, records, roster)
        out.extend(expanded for line in records for expanded in _expand_fate(line))
    return "\n".join(out) + "\n"


def to_v2(text: str) -> str:
    """The v2 text of a v3 trace: the header names v2 and every `id=#M`
    is replaced by the digest of the payload on the record where `#M`
    first appears.  Written apart from `parse_trace` so the two readings
    of the format check each other."""
    payloads: list[str] = []
    ids: list[str] = []
    lines = []
    for line in text.split("\n"):
        if line == "# blocklace-trace v3":
            line = "# blocklace-trace v2"
        elif line and not line.startswith("#"):
            parts = line.split("\t")
            fields = dict(part.split("=", 1) for part in parts[2:])
            for key in ("bytes", "hex"):
                value = fields.get(key)
                if value is None:
                    continue
                if value.startswith("*"):
                    fields[key] = payloads[int(value[1:])]
                else:
                    payloads.append(value)
            if "id" in fields:
                ordinal = int(fields["id"][1:])
                if ordinal == len(ids):
                    ids.append(_digest_hex(fields["bytes"]))
                at = next(i for i, part in enumerate(parts) if part.startswith("id="))
                parts[at] = f"id={ids[ordinal]}"
            line = "\t".join(parts)
        lines.append(line)
    return "\n".join(lines)


def to_v1(text: str) -> str:
    """The v1 text of a v2 trace: the header names v1 and every `*N`
    payload reference is replaced by the hex it refers to.  Written apart
    from `parse_trace` so the two readings of the format check each other."""
    payloads: list[str] = []
    lines = []
    for line in text.split("\n"):
        if line == "# blocklace-trace v2":
            line = "# blocklace-trace v1"
        elif line and not line.startswith("#"):
            parts = line.split("\t")
            for i in range(2, len(parts)):
                key, value = parts[i].split("=", 1)
                if key not in ("bytes", "hex"):
                    continue
                if value.startswith("*"):
                    parts[i] = f"{key}={payloads[int(value[1:])]}"
                else:
                    payloads.append(value)
            line = "\t".join(parts)
        lines.append(line)
    return "\n".join(lines)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_covers_every_canned_scenario():
    assert (
        set(GOLDEN_SHA256)
        == set(GOLDEN_V2_SHA256)
        == set(GOLDEN_V4_SHA256)
        == set(GOLDEN_V3_SHA256)
        == set(GOLDEN_METRICS_SHA256)
        == set(canned.CANNED)
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_trace_bytes_unchanged(name):
    scenario = canned.CANNED[name](seed=GOLDEN_SEED)
    runner = Runner(scenario)
    _, last_tick = runner.run()
    text = runner.trace.text()
    assert _sha256(text) == GOLDEN_V4_SHA256[name]
    v3_text = to_v3(text, scenario.tick_interval, last_tick)
    assert _sha256(v3_text) == GOLDEN_V3_SHA256[name]
    v2_text = to_v2(v3_text)
    assert _sha256(v2_text) == GOLDEN_V2_SHA256[name]
    assert _sha256(to_v1(v2_text)) == GOLDEN_SHA256[name]
    metrics = json.dumps(runner.metrics_report(), sort_keys=True)
    assert _sha256(metrics) == GOLDEN_METRICS_SHA256[name]


def _run_v4_v3(scenario):
    """A run, its v4 trace and that trace's v3 expansion."""
    result = run_scenario(scenario)
    text = result.trace_text
    return result, text, to_v3(text, scenario.tick_interval, result.report["last_tick"])


def _without_v4_fate(event):
    """A v4 event as v3 writes it: a `SUBMIT` without its `net` field."""
    fields = event.fields
    if event.type != "SUBMIT" or fields.pop("net", None) is None:
        return event
    return TraceEvent(event.tick, event.type, tuple(fields), tuple(fields.values()))


def _v3_only(event) -> bool:
    """Whether v4 leaves `event` out: a `DROP_LOSS`, a `DUP` or an idle
    round's `TICK`."""
    if event.type == "TICK":
        return event.fields["sends"] == "0"
    return event.type in ("DROP_LOSS", "DUP")


@pytest.mark.parametrize("name", ["tl_forgery", "wl_privacy"])
def test_parse_trace_reads_v4_as_v3(name):
    scenario = canned.CANNED[name](seed=GOLDEN_SEED)
    result, text, v3_text = _run_v4_v3(scenario)
    assert text.startswith("# blocklace-trace v4\n")
    assert "\tnet=" in text and "\tnet=" not in v3_text
    v4, v3 = parse_trace(text), parse_trace(v3_text)
    assert [_without_v4_fate(e) for e in v4.events] == [
        e for e in v3.events if not _v3_only(e)
    ]
    assert len(v3.events) > len(v4.events)
    assert v4.finals == v3.finals
    assert v4.agents == v3.agents
    assert v4.meta == v3.meta
    assert evaluate(scenario, v4) == evaluate(scenario, v3) == result.oracle_results


@pytest.mark.parametrize("tick_interval", [1, 3])
def test_v3_expansion_ticks_every_agent_every_round(tick_interval):
    scenario = dataclasses.replace(
        canned.tl_line(seed=GOLDEN_SEED, utterances=3), tick_interval=tick_interval
    )
    result, text, v3_text = _run_v4_v3(scenario)
    roster = [spec.name for spec in scenario.agents]
    rounds = range(0, result.report["last_tick"] + 1, tick_interval)
    ticks = parse_trace(v3_text).events_of("TICK")
    assert [(e.tick, e.fields["agent"]) for e in ticks] == [
        (tick, name) for tick in rounds for name in roster
    ]
    sent = [e for e in ticks if e.fields["sends"] != "0"]
    assert sent == parse_trace(text).events_of("TICK")
    assert sent and len(sent) < len(ticks)


@pytest.mark.parametrize("name", ["tl_forgery", "wl_privacy"])
def test_parse_trace_reads_v3_as_v2(name):
    _, _, text = _run_v4_v3(canned.CANNED[name](seed=GOLDEN_SEED))
    v2_text = to_v2(text)
    assert "\tid=#" in text and "\tid=#" not in v2_text
    v3, v2 = parse_trace(text), parse_trace(v2_text)
    assert v3.events == v2.events
    assert v3.finals == v2.finals
    assert v3.agents == v2.agents
    assert v3.meta == v2.meta


@pytest.mark.parametrize("name", ["tl_forgery", "wl_privacy"])
def test_parse_trace_reads_v1_as_v2(name):
    _, _, v3_text = _run_v4_v3(canned.CANNED[name](seed=GOLDEN_SEED))
    text = to_v2(v3_text)
    v1_text = to_v1(text)
    assert "=*" not in v1_text and "=*" in text
    v1, v2 = parse_trace(v1_text), parse_trace(text)
    assert v1.events == v2.events
    assert v1.finals == v2.finals
    assert v1.agents == v2.agents
    assert v1.meta == v2.meta


def _cli_verifies_saved(tmp_path, version: str, expand) -> int:
    """`blocklace verify` on a saved trace: a small `tl_line` run's v3
    expansion, expanded on to `version` by `expand`."""
    scenario = canned.tl_line(seed=GOLDEN_SEED, utterances=3)
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(scenario.to_dict()))
    trace_path = tmp_path / f"{version}.trace"
    _, _, v3_text = _run_v4_v3(scenario)
    trace_path.write_text(expand(v3_text))
    assert trace_path.read_text().startswith(f"# blocklace-trace {version}\n")
    return cli_main(["verify", str(trace_path), str(scenario_path)])


def test_cli_verifies_saved_v1_trace(tmp_path):
    assert _cli_verifies_saved(tmp_path, "v1", lambda text: to_v1(to_v2(text))) == 0


def test_cli_verifies_saved_v2_trace(tmp_path):
    assert _cli_verifies_saved(tmp_path, "v2", to_v2) == 0


def test_cli_verifies_saved_v3_trace(tmp_path):
    assert _cli_verifies_saved(tmp_path, "v3", lambda text: text) == 0
