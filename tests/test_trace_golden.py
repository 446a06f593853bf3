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
    "wl_group": "e801e6a4335a374f27540b42a31422e8aad7ad9c54872518233870def694babe",
    "wl_dropper": "d288ec8490688ff31f9678a428301d74da2cd0c9e7581780472a51f64c67f508",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "6aaa68bb559c2c95b87da9eb025ad3f83108d770336002b56d2e4fde21409939",
    "wl_equivocation": "e8b26cf15950879877c6773eb9f04fb46eaf26b803352d684d0bcf1620a61852",
    "wl_privacy": "dda191e82b99e05d28d0b4aa38ecb07525387ec4423579b3e9a70b031606cceb",
    "wl_partitions": "bd8eb2aeaa238824cb5bc2f77ca250bdc32e9a9ddda8535612d978eec2b4101d",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "348669f965f33ffafe88e0921c20c81b531d78b9561ead046d2f58323cfcef97",
    "tl_star": "2b143f77e89cf811f7330eccb866394901ba5933d8856dd39585f7d4b52159ea",
    "tl_ring": "505ba3d01e5c621b6fa2ad9fa575890dd4dcab8b46ed820002638f510a72426e",
    "tl_line_broken": "6350e5a198796875363ce7edc5cdf60b95626835a23c629d9561d9d3a823c17b",
    "tl_churn": "80ab34d36fae57d682a2a43b720e32f50537204d3b41fc8b1350315df6ba759a",
    "tl_forgery": "f13147177dc8ab742df75ea7d135de00a4c1ba79c9666deb2b254a0f0dfd0d72",
    "wl_group": "c4ae2c980b2c6fb5dad7c4fef1a9a76e452d97e3e772b3355f5b2a36a68ac1ce",
    "wl_dropper": "802540e3f550653de48dee02cf2e9d5df1c0b3637bb4e5d52b79dda366c0028d",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "7348143bf8a66f6dd3a31a4fb771a05ecaf6e0a9f85ef76502dc71b599a43ea7",
    "wl_equivocation": "03ce91a5523eec7f0a0dc91969cb41d8978156d7a101f88eb73a6ef36d887ef8",
    "wl_privacy": "a50fe5a76cf2a283f1fe45e4265843847a8ffa03cdb0975f0098303c8b0bafb1",
    "wl_partitions": "3699b7f14a3eccc1b6714cda91ee62f0308e30c46cc2c8ea5fda02e618fcadba",
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
