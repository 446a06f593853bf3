import dataclasses
import hashlib
import json

import pytest

from blocklace import blocks as b
from blocklace import crypto
from blocklace.harness import canned
from blocklace.harness.cli import main as cli_main
from blocklace.harness.adversaries import AgentWrapper, EquivocatorWrapper
from blocklace.harness.oracles import evaluate, oracle_attribution, parse_trace
from blocklace.harness.runner import Runner, run_scenario
from blocklace.harness.scenario import AgentSpec, Event, OracleSpec, Scenario
from blocklace.wl import is_genesis


def test_trace_has_required_event_vocabulary():
    scenario = canned.tl_churn(seed=1)
    result = run_scenario(scenario)
    kinds = {line.split("\t")[1] for line in result.trace_text.splitlines() if not line.startswith("#")}
    for required in ("SUBMIT", "DELIVER", "REBIND", "TICK", "FINAL"):
        assert required in kinds, required
    # A lost copy is a SUBMIT's fate field, not a record of its own.
    assert not kinds & {"DROP_LOSS", "DUP"}
    assert "\tnet=lost" in result.trace_text


_COPIES = {None: 1, "lost": 0, "dup": 2, "lost+dup": 1}


@pytest.mark.parametrize("name", sorted(canned.CANNED))
def test_every_datagram_copy_meets_its_fate(name):
    """Each (destination, block) pair's copies, as its SUBMITs' fate
    fields count them, are each delivered or dropped as stale; in a run
    that stops at its tick budget, some may still be in flight."""
    result = run_scenario(canned.CANNED[name](seed=1))
    data = parse_trace(result.trace_text)
    sent: dict[tuple[str, str], int] = {}
    met: dict[tuple[str, str], int] = {}
    for event in data.events:
        fields = event.fields
        key = (fields.get("dst"), fields.get("id"))
        if event.type == "SUBMIT":
            sent[key] = sent.get(key, 0) + _COPIES[fields.get("net")]
        elif event.type in ("DELIVER", "DROP_STALE"):
            met[key] = met.get(key, 0) + 1
    assert sent.keys() >= met.keys()
    if result.quiescence_tick is not None:
        assert {key: n for key, n in sent.items() if n} == met
    else:
        assert all(sent[key] >= n for key, n in met.items())


def test_trace_header_carries_identity():
    scenario = canned.tl_line(seed=2, utterances=2)
    result = run_scenario(scenario)
    data = parse_trace(result.trace_text)
    assert data.meta["scenario"] == scenario.digest()
    assert data.meta["seed"] == "2"
    assert set(data.agents) == {a.name for a in scenario.agents}
    assert len(data.agent_id("a")) == 64


def test_finals_reconstruct_agent_state():
    scenario = canned.tl_line(seed=3, utterances=3)
    result = run_scenario(scenario)
    # Older traces also carry each agent's received acks as
    # `FINAL kind=acks` records; such a trace still parses and verifies.
    acks = {
        name: b.new_block(
            w.inner.kp,
            w.inner.current_address,
            b.Ack(frozenset(tip.digest for tip in w.inner.lace.tip_ids())),
        )
        for name, w in result.wrappers.items()
    }
    with_acks = result.trace_text + "".join(
        f"{result.report['last_tick']}\tFINAL\tagent={name}\tkind=acks"
        f"\thex={b.encode_block(ack).hex()}\n"
        for name, ack in acks.items()
    )
    verdicts = [r.verdict for r in result.oracle_results]
    for text in (result.trace_text, with_acks):
        data = parse_trace(text)
        for name, wrapper in result.wrappers.items():
            lace, bad = data.lace_of(name)
            assert not bad
            assert {blk.id for blk in lace.blocks()} == {
                blk.id for blk in wrapper.inner.lace.blocks()
            }
        assert [r.verdict for r in evaluate(scenario, data)] == verdicts
    for name, ack in acks.items():
        assert data.final_blocks(name, "acks") == [ack]


def test_parse_trace_shares_payloads_and_final_blocks():
    result = run_scenario(canned.wl_group(seed=1, utterances=3))
    data = parse_trace(result.trace_text)
    for key, types in (("bytes", ("SUBMIT",)), ("id", ("SUBMIT", "DELIVER"))):
        first: dict[str, str] = {}
        values = [e.fields[key] for e in data.events_of(*types)]
        assert len(set(values)) < len(values)
        for value in values:
            assert first.setdefault(value, value) is value
    finals = [
        block
        for kinds in data.finals.values()
        for blocks_list in kinds.values()
        for block in blocks_list
    ]
    assert len({id(block) for block in finals}) == len(
        {b.encode_block(block) for block in finals}
    ) < len(finals)


@pytest.mark.parametrize("name", ["tl_churn", "tl_forgery", "wl_equivocation", "wl_partitions"])
def test_trace_event_fields_match_record_lines(name):
    text = run_scenario(getattr(canned, name)(seed=1)).trace_text
    events = iter(parse_trace(text).events)
    payloads: list[str] = []
    ids: list[str] = []
    types = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        tick, kind, *parts = line.split("\t")
        fields = dict(part.split("=", 1) for part in parts)
        for key in fields.keys() & {"bytes", "hex"}:
            if fields[key].startswith("*"):
                fields[key] = payloads[int(fields[key][1:])]
            else:
                payloads.append(fields[key])
        if "id" in fields:
            ordinal = int(fields["id"].removeprefix("#"))
            if ordinal == len(ids):
                ids.append(b.peek_digest_hex(bytes.fromhex(fields["bytes"])))
            fields["id"] = ids[ordinal]
        if kind == "FINAL":
            continue
        event = next(events)
        assert (event.tick, event.type, event.fields) == (int(tick), kind, fields)
        types.add(kind)
    assert next(events, None) is None
    assert {"SUBMIT", "DELIVER", "TICK"} <= types


def test_trace_events_compare_by_tick_type_and_fields():
    def event(line: str):
        (parsed,) = parse_trace(line + "\n").events
        return parsed

    one = event("3\tDELIVER\tdst=a/0\tagent=a\tid=ff")
    assert one.fields == {"dst": "a/0", "agent": "a", "id": "ff"}
    assert one == event("3\tDELIVER\tdst=a/0\tagent=a\tid=ff")
    assert one == event("3\tDELIVER\tagent=a\tid=ff\tdst=a/0")
    assert one != event("4\tDELIVER\tdst=a/0\tagent=a\tid=ff")
    assert one != event("3\tDUP\tdst=a/0\tagent=a\tid=ff")
    assert one != event("3\tDELIVER\tdst=a/0\tagent=b\tid=ff")
    assert one != event("3\tDELIVER\tdst=a/0\tagent=a")


def test_receivers_of_the_same_bytes_hold_one_block():
    result = run_scenario(canned.wl_group(seed=1, utterances=3))
    agents = [wrapper.inner for wrapper in result.wrappers.values()]
    shared = 0
    for creator in agents:
        for block in creator.lace.by_creator(creator.agent_id):
            held = [a.lace.get(block.id) for a in agents if a is not creator]
            held = [h for h in held if h is not None]
            assert all(h is held[0] for h in held)
            shared += len(held) - 1
    assert shared > 0


def test_parse_trace_ignores_trailing_newline_blank_and_comment_lines():
    text = run_scenario(canned.tl_line(seed=1, utterances=2)).trace_text
    lines = text.splitlines()
    padded = "\n".join(
        line + "\n\n#\n# no fields here" if i % 50 == 0 else line
        for i, line in enumerate(lines)
    )
    reference = parse_trace(text)
    for variant in (text.rstrip("\n"), padded, padded + "\n"):
        data = parse_trace(variant)
        assert data.events == reference.events
        assert data.finals == reference.finals
        assert data.meta == reference.meta
        assert data.agents == reference.agents


@pytest.mark.parametrize(
    "records, line_no",
    [
        (["0\tSUBMIT\tbytes=01", "", "1\tSUBMIT\tbytes=*1"], 4),
        (["0\tSUBMIT\tbytes=01", "1\tFINAL\tagent=a\tkind=lace\thex=*-1"], 3),
        (["0\tFINAL\tagent=a\tkind=lace\thex=*0", "1\tSUBMIT\tbytes=01"], 2),
        (["0\tSUBMIT\tbytes=01", "1\tFORGE\tbytes=*x"], 3),
    ],
)
def test_parse_trace_rejects_unresolved_payload_reference(records, line_no):
    text = "\n".join(["# blocklace-trace v2", *records]) + "\n"
    with pytest.raises(ValueError, match=rf"^trace line {line_no}: "):
        parse_trace(text)


# Wire bytes, as hex, whose digest field (the second length-prefixed
# field) is "01".
WIRE_01 = "0000000163" "0000000101"
UNRESOLVED_ID_TRACES = [
    pytest.param(
        ["0\tSUBMIT\tid=#0\tbytes=" + WIRE_01, "1\tDELIVER\tagent=a\tid=#7"],
        3,
        "neither an earlier id nor #1",
        id="dangling",
    ),
    pytest.param(
        ["0\tSUBMIT\tid=#1\tbytes=" + WIRE_01],
        2,
        "neither an earlier id nor #0",
        id="forward",
    ),
    pytest.param(
        ["0\tDELIVER\tagent=a\tid=#0", "0\tSUBMIT\tid=#0\tbytes=" + WIRE_01],
        2,
        "new id=#0 on a record without a hex bytes= payload",
        id="no_payload",
    ),
]


@pytest.mark.parametrize("version", ["v0", "v5", "v10", "v", "3", "v3.1"])
def test_parse_trace_rejects_a_version_it_does_not_read(version):
    text = f"# blocklace-trace {version}\n0\tTICK\tagent=a\tsends=1\n"
    with pytest.raises(ValueError, match=r"^trace line 1: header .* \(v1 to v4\)$"):
        parse_trace(text)


@pytest.mark.parametrize("header", ["# blocklace-trace v1\n", "# blocklace-trace v4\n", ""])
def test_parse_trace_reads_known_versions_and_bare_records(header):
    (event,) = parse_trace(header + "0\tTICK\tagent=a\tsends=1\n").events
    assert event.fields == {"agent": "a", "sends": "1"}


def test_cli_verify_rejects_a_version_it_does_not_read(tmp_path, capsys):
    scenario = canned.tl_line(seed=1, utterances=2)
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(scenario.to_dict()))
    trace_path = tmp_path / "t.trace"
    text = run_scenario(scenario).trace_text
    trace_path.write_text(text.replace("# blocklace-trace v4\n", "# blocklace-trace v5\n", 1))
    assert run_cli("verify", str(trace_path), str(scenario_path)) == 2
    assert "invalid trace: trace line 1: header " in capsys.readouterr().err


def test_parse_trace_resolves_id_from_first_payload():
    text = "\n".join(
        [
            "# blocklace-trace v3",
            "0\tSUBMIT\tid=#0\tbytes=" + WIRE_01,
            "1\tSUBMIT\tid=#1\tbytes=ff",
            "2\tDELIVER\tagent=a\tid=#0",
        ]
    )
    assert [e.fields["id"] for e in parse_trace(text).events] == ["01", "invalid", "01"]


@pytest.mark.parametrize("records, line_no, problem", UNRESOLVED_ID_TRACES)
def test_parse_trace_rejects_unresolved_id_reference(records, line_no, problem):
    text = "\n".join(["# blocklace-trace v3", *records]) + "\n"
    with pytest.raises(ValueError, match=rf"^trace line {line_no}: .*{problem}"):
        parse_trace(text)


@pytest.mark.parametrize("records, line_no, problem", UNRESOLVED_ID_TRACES)
def test_cli_verify_rejects_unresolved_id_reference(tmp_path, capsys, records, line_no, problem):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(canned.tl_line(seed=1, utterances=2).to_dict()))
    trace_path = tmp_path / "t.trace"
    trace_path.write_text("\n".join(["# blocklace-trace v3", *records]) + "\n")
    assert run_cli("verify", str(trace_path), str(scenario_path)) == 2
    assert f"invalid trace: trace line {line_no}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, problem",
    [
        ("5\n", "record has no event type"),
        ("x\tSUBMIT\n", "tick 'x' is not an integer"),
        ("5\tSUBMIT\tsrc\n", "field 'src' has no '='"),
    ],
)
def test_parse_trace_rejects_malformed_record_line(text, problem):
    with pytest.raises(ValueError, match=rf"^trace line 1: {problem}$"):
        parse_trace(text)


MALFORMED_FINAL_AND_HEADER_LINES = [
    ("0\tFINAL\tagent=a\tkind=lace\thex=00\n", "FINAL block does not decode: truncated"),
    ("0\tFINAL\tagent=a\tkind=lace\thex=zz\n", "FINAL block does not decode: .*"),
    ("0\tFINAL\tagent=a\tkind=lace\n", "FINAL record has no hex="),
    ("0\tFINAL\tkind=lace\thex=00\n", "FINAL record has no agent="),
    ("# agent name\n", "agent field 'name' has no '='"),
    ("# agent id=00\n", "agent line has no name="),
]


@pytest.mark.parametrize("text, problem", MALFORMED_FINAL_AND_HEADER_LINES)
def test_parse_trace_rejects_malformed_final_and_agent_lines(text, problem):
    with pytest.raises(ValueError, match=rf"^trace line 1: {problem}$"):
        parse_trace(text)


def test_cli_verify_rejects_record_line_without_tab(tmp_path):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(canned.tl_line(seed=1, utterances=2).to_dict()))
    trace_path = tmp_path / "t.trace"
    trace_path.write_text("# blocklace-trace v2\n5\n")
    assert run_cli("verify", str(trace_path), str(scenario_path)) == 2


@pytest.mark.parametrize("line", [text for text, _ in MALFORMED_FINAL_AND_HEADER_LINES])
def test_cli_verify_rejects_malformed_final_and_agent_lines(tmp_path, capsys, line):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(canned.tl_line(seed=1, utterances=2).to_dict()))
    trace_path = tmp_path / "t.trace"
    trace_path.write_text("# blocklace-trace v2\n" + line)
    assert run_cli("verify", str(trace_path), str(scenario_path)) == 2
    assert "invalid trace: trace line 2: " in capsys.readouterr().err


def test_cli_verify_rejects_trace_that_is_not_utf8(tmp_path, capsys):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(canned.tl_line(seed=1, utterances=2).to_dict()))
    trace_path = tmp_path / "t.trace"
    trace_path.write_bytes(b"# blocklace-trace v3\n0\tTICK\tagent=\xff\n")
    assert run_cli("verify", str(trace_path), str(scenario_path)) == 2
    assert "invalid trace: " in capsys.readouterr().err


def test_cli_verify_rejects_trace_path_that_names_no_file(tmp_path, capsys):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(canned.tl_line(seed=1, utterances=2).to_dict()))
    for path in (tmp_path / "nope.txt", tmp_path):
        assert run_cli("verify", str(path), str(scenario_path)) == 2
        assert "invalid trace: " in capsys.readouterr().err


def test_cli_verify_rejects_unresolved_payload_reference(tmp_path):
    scenario = canned.tl_line(seed=1, utterances=2)
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(scenario.to_dict()))
    text = run_scenario(scenario).trace_text
    trace_path = tmp_path / "t.trace"
    broken = text.replace("=*0\n", "=*99999\n", 1)
    assert broken != text
    trace_path.write_text(broken)
    assert run_cli("verify", str(trace_path), str(scenario_path)) == 2


def test_wrapper_encodes_each_block_once_per_signature():
    scenario = canned.tl_line(seed=1, utterances=1)
    result = run_scenario(scenario)
    wrapper = AgentWrapper("a2", result.wrappers["a"].inner)
    block = next(iter(wrapper.inner.lace.blocks()))
    resigned = dataclasses.replace(
        block, id=dataclasses.replace(block.id, signature=bytes(64))
    )
    assert resigned == block
    (_, one), (_, two), (_, other) = wrapper._out(
        [("x/0", block), ("y/0", block), ("x/0", resigned)]
    )
    assert one is two and one == b.encode_block(block)
    assert other == b.encode_block(resigned) != one


def test_rerun_is_byte_identical():
    scenario = canned.wl_privacy(seed=4)
    one = run_scenario(scenario)
    two = run_scenario(scenario)
    assert one.trace_text == two.trace_text
    assert one.report == two.report


def test_different_seeds_differ():
    one = run_scenario(canned.tl_line(seed=0, utterances=3))
    two = run_scenario(canned.tl_line(seed=1, utterances=3))
    assert one.trace_text != two.trace_text


def test_offline_oracles_reproduce_verdicts(tmp_path):
    scenario = canned.wl_group(seed=5, utterances=10)
    trace_path = tmp_path / "run.trace"
    report_path = tmp_path / "run.json"
    result = run_scenario(scenario, trace_path=str(trace_path), report_path=str(report_path))
    data = parse_trace(trace_path.read_text())
    offline = evaluate(scenario, data)
    assert [(r.name, r.verdict) for r in offline] == [
        (r.name, r.verdict) for r in result.oracle_results
    ]
    report = json.loads(report_path.read_text())
    assert report["scenario"] == scenario.digest()
    assert {o["name"] for o in report["oracles"]} == {o.name for o in scenario.oracles}


def partition_integrity(scenario, text):
    results = evaluate(scenario, parse_trace(text))
    (result,) = [r for r in results if r.name == "partition_integrity"]
    return result


def test_partition_integrity_fails_on_a_violation_record():
    scenario = canned.wl_partitions(seed=1)
    text = run_scenario(scenario).trace_text
    assert partition_integrity(scenario, text).verdict == "PASS"
    result = partition_integrity(scenario, text + "7\tVIOLATION\tagent=m2\tkind=closure\n")
    assert result.verdict == "FAIL"
    assert result.witness == ["violation at tick 7: m2 closure"]


def test_partition_integrity_fails_on_a_merge_block_in_a_final_lace():
    scenario = canned.wl_partitions(seed=1)
    result = run_scenario(scenario)
    data = parse_trace(result.trace_text)
    # m2 is in groups alpha and beta, so it holds two geneses to merge.
    lace, _ = data.lace_of("m2")
    geneses = [blk.id for blk in lace.blocks() if is_genesis(blk)]
    assert len(geneses) >= 2
    m2 = result.wrappers["m2"].inner
    merge = b.new_block(m2.kp, m2.current_address, b.Say(b"bridge"), geneses[:2])
    final = f"0\tFINAL\tagent=m2\tkind=lace\thex={b.encode_block(merge).hex()}\n"
    failed = partition_integrity(scenario, result.trace_text + final)
    assert failed.verdict == "FAIL"
    assert failed.witness == [f"final blocklace of m2: partition:{merge.id.hex()}"]


def test_attribution_flags_only_the_copy_whose_signature_fails():
    scenario = canned.tl_line(seed=1, utterances=2)
    text = run_scenario(scenario).trace_text
    held = parse_trace(text).final_blocks("b")
    at = next(i for i, blk in enumerate(held) if isinstance(blk.payload, b.Say))
    said = held[at]
    # b's record of the Say is its `at`-th FINAL lace line.  It refers to an
    # earlier payload (`*N`), so dropping it renumbers no other reference,
    # and the copy with one signature byte flipped goes last.
    lines = text.splitlines(keepends=True)
    line = [x for x in lines if x.split("\t")[1:4] == ["FINAL", "agent=b", "kind=lace"]][at]
    assert "\thex=*" in line
    tampered = bytearray(b.encode_block(said))
    tampered[4 + crypto.AGENT_ID_LEN + 4 + crypto.DIGEST_LEN + 4] ^= 1
    assert b.decode_block(bytes(tampered)) == said  # a Block's equality ignores signatures
    tick = line.split("\t", 1)[0]
    lines.remove(line)
    lines.append(f"{tick}\tFINAL\tagent=b\tkind=lace\thex={tampered.hex()}\n")
    data = parse_trace("".join(lines))
    (result,) = [r for r in evaluate(scenario, data) if r.name == "attribution"]
    assert result.verdict == "FAIL"
    assert result.witness == [f"b stored unverifiable block {said.id.hex()}"]
    for name in ("a", "c", "d", "e"):
        lace, bad = data.lace_of(name)
        assert bad == [] and said.id in lace


def test_attribution_decodes_each_forged_payload_once(monkeypatch):
    # tl_forgery's forger sends some payloads more than once; the oracle
    # judges each distinct payload once and still counts every forgery.
    scenario = canned.tl_forgery(seed=1)
    data = parse_trace(run_scenario(scenario).trace_text)
    forged = len(data.events_of("FORGE"))
    distinct = len(data.distinct_field("bytes", "FORGE"))
    assert forged > distinct
    oracle_attribution(scenario, data, {})  # warms the WireDecoder memo
    decoded = []
    decode_block = b.decode_block

    def counted(raw):
        decoded.append(raw)
        return decode_block(raw)

    monkeypatch.setattr(b, "decode_block", counted)
    result = oracle_attribution(scenario, data, {})
    assert result.verdict == "PASS"
    assert result.detail == f"{forged} forgeries, none inserted"
    assert len(decoded) <= distinct


def test_verification_checks_each_final_block_once(monkeypatch):
    scenario = canned.wl_group(seed=1, utterances=3)
    text = run_scenario(scenario).trace_text
    monkeypatch.setattr(b.WireDecoder, "_cache", {})
    calls = []
    verify = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or verify(*args))
    data = parse_trace(text)
    assert all(r.verdict == "PASS" for r in evaluate(scenario, data))
    distinct = {
        b.encode_block(blk)
        for kinds in data.finals.values()
        for blocks_list in kinds.values()
        for blk in blocks_list
    }
    assert 0 < len(calls) <= len(distinct)


def test_report_enumerates_every_oracle():
    scenario = canned.wl_partitions(seed=1)
    result = run_scenario(scenario)
    assert [o.name for o in result.oracle_results] == [o.name for o in scenario.oracles]


def test_quiescence_reported():
    result = run_scenario(canned.tl_line(seed=0, utterances=3))
    assert result.quiescence_tick is not None
    assert result.report["quiescence_tick"] == result.quiescence_tick
    assert result.report["last_tick"] == result.quiescence_tick


def test_monotonic_growth_during_run():
    # Replay knob: lace sizes never shrink across ticks (checked coarsely
    # by rerunning with a smaller budget and comparing prefixes).
    scenario = canned.tl_line(seed=6, utterances=4)
    full = run_scenario(scenario)
    shorter = dataclasses.replace(scenario, ticks=40)
    partial = run_scenario(shorter)
    for name in (a.name for a in scenario.agents):
        partial_ids = {blk.id for blk in partial.wrappers[name].inner.lace.blocks()}
        full_ids = {blk.id for blk in full.wrappers[name].inner.lace.blocks()}
        assert partial_ids <= full_ids


def test_deferred_events_eventually_run():
    scenario = canned.wl_group(seed=7, utterances=6)
    result = run_scenario(scenario)
    assert result.report["unexecuted_events"] == []


def test_equivocate_trace_record():
    result = run_scenario(canned.wl_equivocation(seed=1))
    events = [line for line in result.trace_text.splitlines() if "\tEQUIVOCATE\t" in line]
    assert len(events) == 1
    fields = dict(part.split("=", 1) for part in events[0].split("\t")[2:])
    for key in ("id_a", "id_b"):
        int(fields[key], 16)  # full hex, not an `#N` reference


@pytest.mark.parametrize("seed", [26, 34])
def test_equivocator_sends_each_fork_only_to_its_recipients(seed):
    # At these seeds each fork was once sent a single time and lost to
    # both of its recipients, so no member ever saw the equivocation.
    # Muted, the equivocator lets through only a fork's copies to that
    # fork's own recipients, on its agent's RACED schedule.
    result = run_scenario(canned.wl_equivocation(seed=seed))
    verdicts = {r.name: r.verdict for r in result.oracle_results}
    assert verdicts["equivocation_visibility"] == "PASS"
    assert verdicts["wl_liveness"] == "PASS"
    data = parse_trace(result.trace_text)
    (equivocate,) = data.events_of("EQUIVOCATE")
    address = {name: fields["address"] for name, fields in data.agents.items()}
    recipients = {
        equivocate.fields["id_a"]: ["f", "m1"],
        equivocate.fields["id_b"]: ["m2", "m3"],
    }
    sent = [
        (e.fields["dst"], e.fields["id"])
        for e in data.events_of("SUBMIT")
        if e.fields["src"] == address["x"] and e.tick >= equivocate.tick
    ]
    assert sent
    assert all(dst in {address[n] for n in recipients.get(fork, ())} for dst, fork in sent)
    for fork, names in recipients.items():
        for name in names:
            held = {blk.id.hex() for blk in result.wrappers[name].inner.lace.blocks()}
            assert fork in held, (fork, name)


def test_equivocator_stores_its_forks(monkeypatch):
    # Its forks in its own lace, every later Say, which points only at
    # them, lands at the equivocator: none waits in its pending buffer or
    # draws a nack that its muted wrapper would drop.  Before the fork it
    # is a correct member, whose nacks go out.
    nacks_at_fork = []
    equivocate = EquivocatorWrapper._cmd_equivocate

    def counted(self, command, ctx):
        sends = equivocate(self, command, ctx)
        nacks_at_fork.append(self.inner.metrics.nacks_sent)
        return sends

    monkeypatch.setattr(EquivocatorWrapper, "_cmd_equivocate", counted)
    result = run_scenario(canned.wl_equivocation(seed=1))
    (equivocate,) = parse_trace(result.trace_text).events_of("EQUIVOCATE")
    x = result.wrappers["x"].inner
    held = {blk.id.hex() for blk in x.lace.blocks()}
    assert {equivocate.fields["id_a"], equivocate.fields["id_b"]} <= held
    assert x.pending_blocks() == []
    (nacks_before_fork,) = nacks_at_fork
    assert x.metrics.nacks_sent == nacks_before_fork


def test_forge_trace_records_match_count():
    result = run_scenario(canned.tl_forgery(seed=1, garbage=20, tampered=20))
    forged = [line for line in result.trace_text.splitlines() if "\tFORGE\t" in line]
    assert len(forged) == 40


def test_forged_garbage_fails_only_its_signature():
    # A garbage forgery's digest is the victim's digest of its body
    # (`blocks.block_digest`), so it is rejected for its signature alone.
    result = run_scenario(canned.tl_forgery(seed=1, garbage=20, tampered=0))
    data = parse_trace(result.trace_text)
    garbage = [
        b.decode_block(bytes.fromhex(e.fields["bytes"]))
        for e in data.events_of("FORGE")
        if e.fields["mode"] == "garbage"
    ]
    assert len(garbage) == 20
    for block in garbage:
        body = b.canonical_encode(block.address, block.payload, block.pointers)
        assert block.id.digest == b.block_digest(block.creator, body)
        assert block.creator == data.agent_id("victim")
        assert not b.verify_block(block)


def test_forger_tampers_only_blocks_in_its_own_lace():
    # Each tampered copy keeps the (creator, digest) of a victim block the
    # forger stored, never of an ack, which no agent stores.
    result = run_scenario(canned.tl_forgery(seed=1))
    data = parse_trace(result.trace_text)
    stored = {(blk.id.creator, blk.id.digest) for blk in data.final_blocks("mallory")}
    tampered = [
        b.decode_block(bytes.fromhex(e.fields["bytes"])).id
        for e in data.events_of("FORGE")
        if e.fields["mode"] == "tamper"
    ]
    assert len(tampered) == 100
    assert all((ident.creator, ident.digest) in stored for ident in tampered)


def test_silent_agent_never_sends():
    scenario = canned.tl_line_broken(seed=1)
    result = run_scenario(scenario)
    silent_address = next(
        spec.initial_address() for spec in scenario.agents if spec.role == "silent"
    )
    for line in result.trace_text.splitlines():
        if "\tSUBMIT\t" in line:
            assert f"src={silent_address}" not in line


def test_muted_agent_sends_nothing_from_its_mute_on():
    result = run_scenario(canned.wl_founder_quits(seed=1))
    sent_at = [
        event.tick for event in parse_trace(result.trace_text).events_of("SUBMIT")
        if event.fields["src"] == "f/0"
    ]
    assert sent_at and max(sent_at) < 40
    founder = result.wrappers["f"]
    assert founder.muted and founder.inner.metrics.received > 0


def test_eavesdropper_receives_copies_but_stays_silent():
    scenario = canned.wl_privacy(seed=2)
    result = run_scenario(scenario)
    eve = result.wrappers["eve"].inner
    assert eve.metrics.received > 0
    eve_address = next(s.initial_address() for s in scenario.agents if s.name == "eve")
    assert not any(
        f"src={eve_address}" in line
        for line in result.trace_text.splitlines()
        if "\tSUBMIT\t" in line
    )


def test_eavesdropper_tap_sends_no_ack():
    # Eve is in no group and holds no invite, so an ack of a tap would name
    # nothing: the runner drains eve's acks with every other agent's, but
    # none is built (`WlAgent._ack_pointers`), and none reaches the network.
    scenario = canned.wl_privacy(seed=2)
    runner = Runner(scenario)
    eve = runner.wrappers["eve"].inner
    flush, drawn = eve.flush_acks, []

    def flush_acks():
        acks = flush()
        drawn.extend(acks)
        return acks

    eve.flush_acks = flush_acks
    runner.run()
    assert eve.metrics.received > 0
    assert drawn == [] and eve.metrics.acks_sent == 0
    eve_address = next(s.initial_address() for s in scenario.agents if s.name == "eve")
    assert f"src={eve_address}" not in runner.trace.text()


def test_sybil_identities_gain_nothing():
    # Extra identities that nobody follows receive no feed traffic: correct
    # agents only ever send to friends and offer targets.
    agents = [AgentSpec("a"), AgentSpec("b"), AgentSpec("syb1"), AgentSpec("syb2")]
    events = [
        Event(0, "a", {"cmd": "follow", "target": "b"}),
        Event(0, "b", {"cmd": "follow", "target": "a"}),
        Event(1, "syb1", {"cmd": "follow", "target": "a"}),
        Event(1, "syb2", {"cmd": "follow", "target": "a"}),
        Event(2, "a", {"cmd": "say", "text": "members only"}),
    ]
    scenario = Scenario(
        protocol="tl",
        agents=agents,
        events=events,
        oracles=[OracleSpec("attribution")],
        bootstrap=[("a", "b"), ("b", "a"), ("syb1", "a"), ("syb2", "a")],
        seed=0,
        ticks=150,
        loss_prob=0.1,
    )
    result = run_scenario(scenario)
    for sybil in ("syb1", "syb2"):
        lace = result.wrappers[sybil].inner.lace
        assert not any(isinstance(blk.payload, b.Say) for blk in lace.blocks())


def test_tl_liveness_across_topologies():
    # line, star, ring: the liveness condition is about the path shape,
    # not one lucky topology.
    for builder in (canned.tl_line, canned.tl_star, canned.tl_ring):
        for seed in (0, 1, 2):
            result = run_scenario(builder(seed=seed))
            verdicts = {r.name: r.verdict for r in result.oracle_results}
            assert verdicts["tl_liveness"] == "PASS", (builder.__name__, seed)


def test_tl_liveness_survives_heavy_loss():
    scenario = canned.tl_line(seed=0, utterances=6, loss=0.5)
    result = run_scenario(scenario)
    assert {r.name: r.verdict for r in result.oracle_results}["tl_liveness"] == "PASS"


def test_wl_liveness_with_silent_dropper():
    for seed in (0, 1):
        result = run_scenario(canned.wl_dropper(seed=seed))
        (liveness,) = result.oracle_results
        assert liveness.verdict == "PASS", liveness.witness[:3]
        hole = result.wrappers["hole"].inner
        assert hole.metrics.received > 0  # it heard things, said nothing


def test_wl_single_member_group_trivially_live():
    result = run_scenario(canned.wl_solo(seed=0))
    (liveness,) = result.oracle_results
    assert liveness.verdict == "PASS"


def three_way_fork(scenario):
    """Give the scenario's equivocation a third fork, to m4."""
    for event in scenario.events:
        if event.command["cmd"] == "equivocate":
            event.command["text_c"] = "fork-gamma"
            event.command["recipients_c"] = ["m4"]
    return scenario


def test_three_way_fork_reported_as_three_pairs():
    result = run_scenario(three_way_fork(canned.wl_equivocation(seed=0)))
    verdicts = {r.name: r for r in result.oracle_results}
    assert verdicts["equivocation_visibility"].verdict == "PASS"
    culprit = result.wrappers["x"].inner.agent_id
    for name in ("f", "m1", "m2", "m3", "m4"):
        pairs = result.wrappers[name].inner.lace.detect_equivocations(culprit)
        assert len(pairs) == 3, name


def test_privacy_oracle_reads_the_third_fork():
    # Sent in the clear, every fork's plaintext is on the wire, the third
    # one too.
    scenario = three_way_fork(canned.wl_equivocation(seed=0))
    scenario.wl_encrypt = False
    scenario.oracles = [OracleSpec("privacy", {"founder": "f", "group_name": "forked"})]
    (privacy,) = run_scenario(scenario).oracle_results
    assert privacy.verdict == "FAIL"
    assert any("fork-gamma" in line for line in privacy.witness)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 269])
def test_tl_fork_resends_hold_the_run_open(seed):
    # The muted equivocator resends its forks on its agent's PACED
    # schedule until it knows the hub holds them, and it owes them in
    # between, so no round before then is quiet.  At seed 3 the copies
    # sent at tick 40 bring both forks to the hub, so nothing is resent.
    # At seed 269 one fork's three copies at tick 40 and its resends at
    # ticks 46 and 50 are all lost: a run that counted only the resends
    # quiesced at tick 52, before the hub held it.
    scenario = canned.tl_star(seed, utterances=4)
    scenario.ticks = 400
    scenario.agents = [
        AgentSpec(a.name, "equivocator" if a.name == "author" else a.role)
        for a in scenario.agents
    ]
    fork = {
        "cmd": "equivocate",
        "text_a": "fork-alpha",
        "text_b": "fork-beta",
        "recipients_a": ["hub"],
        "recipients_b": ["hub"],
    }
    scenario.events.append(Event(40, "author", fork))
    result = run_scenario(scenario)
    assert result.quiescence_tick is not None
    culprit = result.wrappers["author"].inner.agent_id
    for name in ("hub", "l1", "l2"):
        pairs = result.wrappers[name].inner.lace.detect_equivocations(culprit)
        assert len(pairs) == 1, name


def test_equivocation_oracle_trivial_on_honest_run():
    from blocklace.harness.oracles import oracle_equivocation_visibility

    scenario = canned.wl_group(seed=3, utterances=6)
    result = run_scenario(scenario)
    data = parse_trace(result.trace_text)
    verdict = oracle_equivocation_visibility(
        scenario, data, {"culprit": "m1", "founder": "f", "group_name": "team"}
    )
    assert verdict.verdict == "PASS"
    assert "none reported" in verdict.detail


def test_privacy_oracle_vacuous_without_utterances():
    from blocklace.harness.oracles import oracle_privacy

    scenario = canned.wl_group(seed=3, utterances=6)
    result = run_scenario(scenario)
    data = parse_trace(result.trace_text)
    # "team" has utterances, but scanning an utterance-free group is vacuous
    solo = canned.wl_solo(seed=0)
    solo.events = solo.events[:1]  # keep only the create_group
    solo_result = run_scenario(solo)
    verdict = oracle_privacy(
        solo, parse_trace(solo_result.trace_text), {"founder": "f", "group_name": "diary"}
    )
    assert verdict.verdict == "PASS"


def test_scripted_respond_defers_until_referent_arrives():
    # b's reply references a label of a block that still has to reach b
    # through a lossy network; the runner retries the event until it can run.
    agents = [AgentSpec("a"), AgentSpec("b")]
    events = [
        Event(0, "a", {"cmd": "follow", "target": "b"}),
        Event(0, "b", {"cmd": "follow", "target": "a"}),
        Event(3, "a", {"cmd": "say", "text": "prompt", "label": "p"}),
        Event(4, "b", {"cmd": "respond", "re": "p", "text": "echo", "label": "r"}),
    ]
    scenario = Scenario(
        protocol="tl",
        agents=agents,
        events=events,
        oracles=[
            OracleSpec("tl_liveness", {"author": "b", "follower": "a"}),
            OracleSpec("attribution"),
        ],
        bootstrap=[("a", "b"), ("b", "a")],
        seed=2,
        ticks=400,
        loss_prob=0.3,
    )
    result = run_scenario(scenario)
    assert result.report["unexecuted_events"] == []
    assert result.all_pass()
    reply = next(
        blk
        for blk in result.wrappers["a"].inner.lace.blocks()
        if isinstance(blk.payload, b.Respond)
    )
    prompt = result.wrappers["a"].inner.lace.get(reply.payload.re)
    assert prompt.payload == b.Say(b"prompt")


def test_empty_event_list_vacuous_pass():
    scenario = Scenario(
        protocol="tl",
        agents=[AgentSpec("a"), AgentSpec("b")],
        events=[],
        oracles=[OracleSpec("attribution")],
        seed=0,
        ticks=20,
    )
    result = run_scenario(scenario)
    assert result.all_pass()
    assert result.quiescence_tick is not None


def run_cli(*argv):
    return cli_main(list(argv))


def test_cli_run_verify_cycle(tmp_path):
    scenario_path = tmp_path / "s.json"
    trace_path = tmp_path / "t.trace"
    report_path = tmp_path / "r.json"
    scenario = canned.tl_line(seed=1, utterances=3)
    scenario_path.write_text(json.dumps(scenario.to_dict()))
    code = run_cli(
        "run", str(scenario_path), "--trace", str(trace_path), "--report", str(report_path)
    )
    assert code == 0
    assert trace_path.exists() and report_path.exists()
    assert run_cli("verify", str(trace_path), str(scenario_path)) == 0


def test_cli_seed_override_changes_trace(tmp_path):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(canned.tl_line(seed=1, utterances=2).to_dict()))
    t1, t2 = tmp_path / "a.trace", tmp_path / "b.trace"
    run_cli("run", str(scenario_path), "--trace", str(t1))
    run_cli("run", str(scenario_path), "--seed", "9", "--trace", str(t2))
    assert t1.read_text() != t2.read_text()


def test_cli_verify_rejects_mismatched_scenario(tmp_path):
    scenario_path = tmp_path / "s.json"
    other_path = tmp_path / "o.json"
    trace_path = tmp_path / "t.trace"
    scenario_path.write_text(json.dumps(canned.tl_line(seed=1, utterances=2).to_dict()))
    other_path.write_text(json.dumps(canned.tl_line(seed=2, utterances=2).to_dict()))
    run_cli("run", str(scenario_path), "--trace", str(trace_path))
    assert run_cli("verify", str(trace_path), str(other_path)) == 2


def test_cli_rejects_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    one_agent = {"protocol": "tl", "agents": [{"name": "a"}]}
    for raw, flags in (
        ({"protocol": "tl", "agents": []}, ()),
        ({**one_agent, "net": {"tick_interval": 0}}, ()),
        ({**one_agent, "net": {"loss": 1.5}}, ()),
        # An override must pass the checks the file's own field passes.
        (one_agent, ("--ticks", "0")),
        (one_agent, ("--ticks", "-3")),
    ):
        bad.write_text(json.dumps(raw))
        assert run_cli("run", str(bad), *flags) == 2
        assert "invalid scenario" in capsys.readouterr().err
    bad.write_bytes(b'{"protocol": "tl\xff"}')
    for argv in (("run", str(bad)), ("verify", str(tmp_path / "t.trace"), str(bad))):
        assert run_cli(*argv) == 2
        assert "invalid scenario: " in capsys.readouterr().err
    # A path that names no file, or a directory.
    for path in (tmp_path / "nope.json", tmp_path):
        assert run_cli("run", str(path)) == 2
        assert "invalid scenario: " in capsys.readouterr().err


def test_cli_rejects_output_path_that_names_a_directory(tmp_path, capsys):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(canned.tl_line(seed=1, utterances=2).to_dict()))
    for argv in (
        ("run", str(scenario_path), "--trace", str(tmp_path)),
        ("run", str(scenario_path), "--report", str(tmp_path)),
        ("export", "tl_line", "--out", str(tmp_path)),
    ):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        # Refused before the run: nothing ran, so no oracle line printed.
        assert captured.out == ""
        assert captured.err.startswith(f"invalid output: {tmp_path}: cannot write")


def test_cli_rejects_rebind_to_an_address_another_agent_holds(tmp_path, capsys):
    # A deferred event delays the rebind after it, so the clash is found
    # only when the rebind comes due.
    path = tmp_path / "s.json"
    assert run_cli("export", "tl_churn", "--out", str(path)) == 0
    raw = json.loads(path.read_text())
    (rebind,) = [e for e in raw["events"] if e["cmd"] == "rebind"]
    rebind["address"] = "a/0"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert run_cli("run", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario: ") and "'a/0'" in err


def test_cli_failing_oracle_nonzero_exit(tmp_path):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(canned.wl_privacy(seed=0, encrypt=False).to_dict()))
    assert run_cli("run", str(scenario_path)) == 1


def test_cli_sweep_rows_match_run_scenario(capsys):
    # One row per (scenario, seed), in argument order, each read off the
    # run that `run_scenario` makes of the canned scenario.
    argv = ("sweep", "wl_group", "tl_line", "--seeds", "1-2", "--quiesce", "wl_group", "tl_line")
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = []
    for name in ("wl_group", "tl_line"):
        for seed in (1, 2):
            result = run_scenario(canned.CANNED[name](seed=seed))
            submits = len(parse_trace(result.trace_text).events_of("SUBMIT"))
            sha256 = hashlib.sha256(result.trace_text.encode("utf-8")).hexdigest()
            verdicts = [f"{r.name}={r.verdict}" for r in result.oracle_results]
            expected.append(
                " ".join(
                    [name, f"seed={seed}", f"quiescence={result.quiescence_tick}",
                     f"submits={submits}", f"sha256={sha256}", *verdicts]
                )
            )
    assert captured.out.splitlines() == expected


def test_cli_sweep_exits_1_on_a_failing_run(capsys):
    # A verdict other than PASS, and a run of a --quiesce scenario that
    # does not quiesce, each fail the sweep; the other rows still print.
    assert run_cli("sweep", "tl_line_broken", "--seeds", "0-0") == 1
    assert capsys.readouterr().err == "tl_line_broken failed at seed 0\n"
    argv = ("sweep", "wl_solo", "wl_dropper", "--seeds", "0-0", "--quiesce", "wl_dropper")
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert [row.split()[0] for row in captured.out.splitlines()] == ["wl_solo", "wl_dropper"]
    assert captured.err == "wl_dropper did not quiesce at seed 0\n"
    assert run_cli("sweep", "wl_dropper", "--seeds", "0-0") == 0
    capsys.readouterr()
    assert run_cli("sweep", "wl_solo", "--seeds", "0-0", "--quiesce", "wl_group") == 2
    assert run_cli("sweep", "no_such", "--seeds", "0-0") == 2
    for seeds in ("3-1", "0", "-1-2", "a-b"):
        with pytest.raises(SystemExit):
            run_cli("sweep", "wl_solo", "--seeds", seeds)


def test_cli_sweep_against_a_saved_table(tmp_path, capsys):
    # A sweep's own output is a table that the same sweep matches.  A row
    # that differs from the table's row for its scenario and seed, or that
    # the table lacks, is printed on standard error and fails the sweep.
    argv = ("sweep", "wl_solo", "tl_line", "--seeds", "0-1")
    assert run_cli(*argv) == 0
    rows = capsys.readouterr().out.splitlines()
    table = tmp_path / "table.txt"
    table.write_text("\n".join(rows) + "\n")
    assert run_cli(*argv, "--against", str(table)) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == rows and captured.err == ""
    # A table of more runs than the sweep makes is fine.
    assert run_cli("sweep", "tl_line", "--seeds", "1-1", "--against", str(table)) == 0
    capsys.readouterr()
    edited = rows[1].replace("quiescence=2 ", "quiescence=3 ")
    assert edited != rows[1]
    table.write_text("\n".join([rows[0], edited, *rows[3:]]) + "\n")
    assert run_cli(*argv, "--against", str(table)) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == rows
    assert captured.err.splitlines() == [
        f"differs from {table}: {rows[1]}",
        f"missing from {table}: {rows[2]}",
    ]
    for bad in (tmp_path / "nope.txt", tmp_path):
        assert run_cli(*argv, "--against", str(bad)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"invalid table: {bad}: cannot read")


def test_cli_export_then_run(tmp_path):
    out = tmp_path / "exported.json"
    assert run_cli("export", "wl_churn", "--out", str(out)) == 0
    assert run_cli("run", str(out)) == 0


def test_cli_demo_smoke(capsys):
    assert run_cli("demo", "tl") == 0
    output = capsys.readouterr().out
    assert "feeds of author" in output
    assert run_cli("demo", "wl") == 0
    output = capsys.readouterr().out
    assert "transcript" in output
