"""Golden trace hashes: every canned scenario at seed 1 must keep producing
exactly these trace bytes.  A change that alters a trace on purpose must
say so and update the hash here; any other change must leave them alone.

The trace is written in the v2 encoding, where a repeated payload is a
`*N` back-reference.  `GOLDEN_SHA256` pins the v1 bytes of the same runs:
expanding each v2 trace back to v1 must reproduce them, so a change to the
encoding alone moves only `GOLDEN_V2_SHA256`, while a change to what the
agents send moves both."""

import hashlib
import json

import pytest

from blocklace.harness import canned
from blocklace.harness.cli import main as cli_main
from blocklace.harness.oracles import parse_trace
from blocklace.harness.runner import Runner, run_scenario

GOLDEN_SEED = 1
GOLDEN_SHA256 = {
    "tl_line": "d37de1d77f6c0721c07f11671b14b9e7af8778e21451ede2d4abba733a0f6599",
    "tl_star": "e8e900e718de7811fbffe099cb2e4a191adc2128f5143ed4a01b7024c92b5661",
    "tl_ring": "ffd38d86478b1dbaf12c58b30471c890c561c6b95947280472f68ea3193e04f2",
    "tl_line_broken": "6ff50899e9c2774347bb6eccbad45d03930b150a986e6aceaacd1561193198f9",
    "tl_churn": "23f0c952aa48b837885c1a0126aa74b00883d1321c25edade8264e2a7c05e5e2",
    "tl_forgery": "7583b58b94187d0c82c1258c5030d33e226d0aab00b4bc59c7e46894bb6eb36e",
    "wl_group": "2d3307f1aaa737fbc6b76225519d94b6b38c0de479530c50ff196d9263f6c5c3",
    "wl_dropper": "d6fddf83dfbe36524886395b8d881d666052c2a4b3568dddf22be5dedcc1baac",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "8802107b96d879e58d29019d5b45f9741a565ba73df3e4defe93fc73e7267787",
    "wl_equivocation": "6aa12e5e52bd68fb30c1b7f751365d8487bf6756ecedb00aeca9992222964034",
    "wl_privacy": "294e4b341a2080f1c20dc150388dc94a34623c1c491b23b65aee676697a6b357",
    "wl_partitions": "f13ce942f0588c3617252927ba52a85d7ac380eb069d4d0e61dec4ef87128cda",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "348669f965f33ffafe88e0921c20c81b531d78b9561ead046d2f58323cfcef97",
    "tl_star": "2b143f77e89cf811f7330eccb866394901ba5933d8856dd39585f7d4b52159ea",
    "tl_ring": "505ba3d01e5c621b6fa2ad9fa575890dd4dcab8b46ed820002638f510a72426e",
    "tl_line_broken": "6350e5a198796875363ce7edc5cdf60b95626835a23c629d9561d9d3a823c17b",
    "tl_churn": "80ab34d36fae57d682a2a43b720e32f50537204d3b41fc8b1350315df6ba759a",
    "tl_forgery": "f13147177dc8ab742df75ea7d135de00a4c1ba79c9666deb2b254a0f0dfd0d72",
    "wl_group": "2eb9dc08530e9bbd28bb4d05597f8ea2d502ccaa3494930b76d3df01becbc561",
    "wl_dropper": "9e57f6ad27e122a2dfacd048a8483523eb504786ff00ba50130bc9922304710f",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "1b00f43e6113ce64826e2faff5c8b8d3cd64054311b59b5f646168e62634d2b0",
    "wl_equivocation": "2f6f1a1e830d7727185e3f5dcf0ae1723c24f8a1c4bc5a92422069bec1a28769",
    "wl_privacy": "f198f9153b12225f991247350e0ad24a6bc8c9f31fe649fdd4bb93d4afa52d6d",
    "wl_partitions": "434bac33e5bbf99e73dcd8983b2426ee461d98467bd6dbba7ef8cab96d99b543",
}


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
    assert set(GOLDEN_SHA256) == set(GOLDEN_V2_SHA256) == set(canned.CANNED)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_trace_bytes_unchanged(name):
    runner = Runner(canned.CANNED[name](seed=GOLDEN_SEED))
    runner.run()
    text = runner.trace.text()
    assert _sha256(text) == GOLDEN_V2_SHA256[name]
    assert _sha256(to_v1(text)) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", ["tl_forgery", "wl_privacy"])
def test_parse_trace_reads_v1_as_v2(name):
    text = run_scenario(canned.CANNED[name](seed=GOLDEN_SEED)).trace_text
    v1_text = to_v1(text)
    assert "=*" not in v1_text and "=*" in text
    v1, v2 = parse_trace(v1_text), parse_trace(text)
    assert v1.events == v2.events
    assert v1.finals == v2.finals
    assert v1.agents == v2.agents
    assert v1.meta == v2.meta


def test_cli_verifies_saved_v1_trace(tmp_path):
    scenario = canned.tl_line(seed=GOLDEN_SEED, utterances=3)
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(scenario.to_dict()))
    trace_path = tmp_path / "v1.trace"
    trace_path.write_text(to_v1(run_scenario(scenario).trace_text))
    assert trace_path.read_text().startswith("# blocklace-trace v1\n")
    assert cli_main(["verify", str(trace_path), str(scenario_path)]) == 0
