"""The benchmark's own derivations: trace-derived metrics on hand-built
traces, self-time arithmetic, and the metric names BENCHMARK.json lists.

Run with: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
from pathlib import Path

import derive
import probe as probe_mod
import pytest
import workloads
from blocklace import blocks, crypto
from blocklace.blocks import Ack, Follow, Group, Respond, Say
from blocklace.harness import canned

KEYS = {name: crypto.keygen(f"derive-test:{name}") for name in "abc"}


def _block(author, payload, pointers=()):
    return blocks.new_block(KEYS[author], f"{author}/0", payload, pointers)


def _header():
    lines = ["# blocklace-trace v1", "# seed=0", "# protocol=wl"]
    lines += [
        f"# agent name={n} role=correct id={kp.agent_id.hex()} address={n}/0"
        for n, kp in KEYS.items()
    ]
    return lines


def _submit(tick, src, dst, block):
    wire = blocks.encode_block(block)
    return f"{tick}\tSUBMIT\tsrc={src}/0\tdst={dst}/0\tid={block.id.hex()}\tbytes={wire.hex()}"


def _deliver(tick, dst, block):
    return f"{tick}\tDELIVER\tdst={dst}/0\tagent={dst}\tid={block.id.hex()}"


@pytest.mark.parametrize(
    "payload, utterance",
    [
        (Say(b"hello"), True),
        (Respond(b"re", blocks.BlockId(KEYS["b"].agent_id, b"\x01" * 32)), True),
        (Ack(), False),
        (Follow(KEYS["b"].agent_id), False),
        (Group(b"g"), False),
    ],
)
def test_utterance_detection_matches_the_codec(payload, utterance):
    wire = blocks.encode_block(_block("a", payload)).hex()
    expected = KEYS["a"].agent_id.hex() if utterance else None
    assert derive._utterance_creator(wire) == expected


def test_delivery_latency_pairs_and_redundancy():
    first = _block("a", Say(b"one"))
    second = _block("a", Say(b"two"), [first.id])
    ack = _block("b", Ack(), [first.id])
    lines = _header() + [
        _submit(10, "a", "b", first),
        _submit(10, "a", "c", first),
        "10\tDROP_LOSS\tsrc=a/0\tdst=c/0\tid=" + first.id.hex(),
        _submit(11, "a", "c", first),
        _deliver(12, "b", first),
        _submit(12, "b", "a", ack),
        _deliver(14, "a", ack),
        _deliver(15, "c", first),
        _deliver(16, "c", first),
        _submit(20, "a", "b", second),
        _deliver(21, "b", second),
        "21\tTICK\tagent=a\tsends=0",
    ]
    result = derive.delivery("\n".join(lines) + "\n", {"a": ["b", "c"], "b": ["a"]})
    assert result.datagrams == 5
    assert result.utterances == 2
    assert result.pairs == 4
    assert result.undelivered == 1
    assert sorted(result.latencies) == [1, 2, 5]


def test_grouped_percentile():
    def pct(latencies, p):
        return derive.Delivery(0, 0, 0, 0, latencies).percentile(p)

    assert pct([2, 2, 2, 2], 50) == 2.0
    assert pct([1, 2, 3, 4], 50) == 2.5
    assert pct([1, 1, 1, 3], 95) == pytest.approx(3.3)
    assert pct([], 50) == 0.0


def test_required_recipients_and_scripted_utterances():
    wl = workloads.wl_group(members=3, utterances=4, loss=0.3, dup=0.0, seed=0)
    assert derive.required_recipients(wl) == {
        "f": ["m1", "m2"],
        "m1": ["f", "m2"],
        "m2": ["f", "m1"],
    }
    assert derive.scripted_utterances(wl) == 4
    tl = canned.tl_line(utterances=3)
    assert derive.required_recipients(tl)["a"] == ["b", "c", "d", "e"]
    assert derive.scripted_utterances(tl) == 3


def test_self_time_excludes_nested_timed_calls():
    probe = probe_mod.Probe()
    probe.clock = iter(range(100)).__next__
    inner = probe.timed("inner", lambda: None)
    outer = probe.timed("outer", lambda: inner())
    outer()
    # outer runs from 0 to 3 and inner, inside it, from 1 to 2.
    assert probe.self_s == {"inner": 1, "outer": 2}
    assert probe.calls == {"inner": 1, "outer": 1}


ROOT = Path(__file__).resolve().parents[2]


def test_layer_metrics_match_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(probe_mod.layer_metrics(probe_mod.Probe()))
    names |= {"sim_s", "verify_s", "tracing.overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_context_agrees_with_workloads_and_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    context = json.loads((ROOT / "perfbench" / "context.json").read_text())
    for name, workload in workloads.WORKLOADS.items():
        assert context["workloads"][name]["params"] == dataclasses.asdict(workload)
    assert set(context["per_layer_moves"]) == {m["name"] for m in spec["per_layer"]}
