import dataclasses
import json

import pytest

from blocklace import blocks as b
from blocklace.harness import canned
from blocklace.harness.cli import main as cli_main
from blocklace.harness.adversaries import AgentWrapper
from blocklace.harness.oracles import evaluate, parse_trace
from blocklace.harness.runner import run_scenario
from blocklace.harness.scenario import AgentSpec, Event, OracleSpec, Scenario
from blocklace.wl import is_genesis


def test_trace_has_required_event_vocabulary():
    scenario = canned.tl_churn(seed=1)
    result = run_scenario(scenario)
    kinds = {line.split("\t")[1] for line in result.trace_text.splitlines() if not line.startswith("#")}
    for required in ("SUBMIT", "DROP_LOSS", "DELIVER", "REBIND", "TICK", "FINAL"):
        assert required in kinds, required


def test_trace_header_carries_identity():
    scenario = canned.tl_line(seed=2, utterances=2)
    result = run_scenario(scenario)
    data = parse_trace(result.trace_text)
    assert data.meta["scenario"] == scenario.digest()
    assert data.meta["seed"] == "2"
    assert set(data.agents) == set(scenario.agent_names())
    assert len(data.agent_id("a")) == 64


def test_finals_reconstruct_agent_state():
    scenario = canned.tl_line(seed=3, utterances=3)
    result = run_scenario(scenario)
    # Older traces also carry each agent's received acks as
    # `FINAL kind=acks` records; such a trace still parses and verifies.
    acks = {
        name: b.new_block(w.inner.kp, w.inner.current_address, b.Ack(), w.inner.lace.tip_ids())
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
            assert lace.ids() == wrapper.inner.lace.ids()
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
    assert {"SUBMIT", "DROP_LOSS", "DELIVER", "TICK"} <= types


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
    shorter = scenario.with_seed(scenario.seed)
    shorter.ticks = 40
    partial = run_scenario(shorter)
    for name in scenario.agent_names():
        partial_ids = partial.wrappers[name].inner.lace.ids()
        full_ids = full.wrappers[name].inner.lace.ids()
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
def test_equivocator_resends_each_fork_until_acked(seed):
    # At these seeds each fork was once sent a single time and lost to
    # both of its recipients, so no member ever saw the equivocation.
    result = run_scenario(canned.wl_equivocation(seed=seed))
    verdicts = {r.name: r.verdict for r in result.oracle_results}
    assert verdicts["equivocation_visibility"] == "PASS"
    data = parse_trace(result.trace_text)
    (equivocate,) = data.events_of("EQUIVOCATE")
    address = {name: fields["address"] for name, fields in data.agents.items()}
    recipients = {
        equivocate.fields["id_a"]: {address["f"], address["m1"]},
        equivocate.fields["id_b"]: {address["m2"], address["m3"]},
    }
    after = [
        e
        for e in data.events_of("SUBMIT")
        if e.fields["src"] == address["x"] and e.tick >= equivocate.tick
    ]
    sent = [(e.tick, e.fields["dst"], e.fields["id"]) for e in after]
    assert all(dst in recipients[fork] for _, dst, fork in sent)
    assert len(set(sent)) == len(sent)  # at most once per tick
    assert len(sent) > 4  # a lost fork was sent again
    assert max(tick for tick, _, _ in sent) < result.report["last_tick"]


def test_forge_trace_records_match_count():
    result = run_scenario(canned.tl_forgery(seed=1, garbage=20, tampered=20))
    forged = [line for line in result.trace_text.splitlines() if "\tFORGE\t" in line]
    assert len(forged) == 40


def test_silent_agent_never_sends():
    scenario = canned.tl_line_broken(seed=1)
    result = run_scenario(scenario)
    silent_address = next(
        spec.initial_address() for spec in scenario.agents if spec.role == "silent"
    )
    for line in result.trace_text.splitlines():
        if "\tSUBMIT\t" in line:
            assert f"src={silent_address}" not in line


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


def test_three_way_fork_reported_as_three_pairs():
    scenario = canned.wl_equivocation(seed=0)
    for event in scenario.events:
        if event.command["cmd"] == "equivocate":
            event.command["text_c"] = "fork-gamma"
            event.command["recipients_c"] = ["m4"]
    result = run_scenario(scenario)
    verdicts = {r.name: r for r in result.oracle_results}
    assert verdicts["equivocation_visibility"].verdict == "PASS"
    culprit = result.wrappers["x"].inner.agent_id
    for name in ("f", "m1", "m2", "m3", "m4"):
        pairs = result.wrappers[name].inner.lace.detect_equivocations(culprit)
        assert len(pairs) == 3, name


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
