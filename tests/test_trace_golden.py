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
    "tl_line": "a72610958fa568f8e34ab884b4d6ff5a39252189cdefd9bcd5cabbe97a316956",
    "tl_star": "092dd7e24a1ac0f09e8421a62cdc294bf463cdf2a313f49400cf3a861c859d1c",
    "tl_ring": "ba697b33ca7522cea3f0c90ef5f8b85d8e742d782a37119ea7109168a2528acd",
    "tl_line_broken": "88b1cec7bb024078fc4e842b8bea4a96729aff6fc188d74ca9c9e90406fc6802",
    "tl_churn": "0ccc31006fc2b626a32c7ee8a8a82869554dd34f015696d93b67c4e4f92134a8",
    "tl_forgery": "4a02d4e6a109fbe66b3f4225f32b32f759e0cc1952ad6df5f50ad193c3cdf85f",
    "wl_group": "441cff3bf483e8326e4ca8011af7b9da8818040a826ebfcf8f4321340461ac5f",
    "wl_dropper": "3795d1c8ed366e7408549b2731feb1e90d1ac2445c1f46d7b4de5783617a8eb7",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "434c1ab645006f5097eaeaab856993e291dc42634a2c0637f88930439c6dfb32",
    "wl_equivocation": "876f7c34b48fedbb215cedd681b01d6c7a1a2a6f49fd0c1197997887b36f9870",
    "wl_privacy": "06a68c5293ba68c30d4bdc6cf92e4666cfc5d5734e682911f21d93c6a9896952",
    "wl_partitions": "ab97c9e051124f7d1bcc108dbda009994d9ddd1a3d14e8abf490a63792f55284",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "a661370d53c6ff9a841e0f4e3c42fdcd0a4f4bb6771752760dbca458a570008b",
    "tl_star": "55eff7289e54a5cfca6884d836a833f50a4c88c43e824acd3fd20852d12ec1e7",
    "tl_ring": "88082df1849b8dff3e9a58acbf4ffe39088464300bdfab52c1997297a8a73805",
    "tl_line_broken": "538aea0b3c0f7bce38934b764e9fc7bf51e50a9430dab48c45501a1801f1ca57",
    "tl_churn": "8d8ccb76988396f3a777cd42e6b77015ff845ef2c984364dc14c6983785a341f",
    "tl_forgery": "b3e77afc68d4463db10ea10fffa09f7e8c27810e18d8f6f38e9cbf633218b5b1",
    "wl_group": "4c0f4d767e60dba703630c01df58add024aab829d46ff13cb8466d4bd283ed86",
    "wl_dropper": "f152456f41b39486cee7104071cb63e58467aa29672853337081c0b20fda3c85",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "928b040bd1cfcaad001b2dc794da7e15b2292a66750d74d3ed014d770dc0877a",
    "wl_equivocation": "9e0c0a2a12ae2ed0b830475cb5e504068bd565fc8467a5474e5ee08f52fc88f1",
    "wl_privacy": "9eee8a9aa51c80fb996a958dfaa977d4b5910141bb079796cf815e819c9c64fa",
    "wl_partitions": "56dfd77b33586e14597a4d8697dafaeb904de60fb3d6823329c5fbfe40f5dc45",
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
