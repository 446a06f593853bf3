"""Golden trace hashes: every canned scenario at seed 1 must keep producing
exactly these trace bytes.  A change that alters a trace on purpose must
say so and update the hash here; any other change must leave them alone.

The trace is written in the v3 encoding, where a repeated payload is a
`*N` back-reference and every block id is an `#M` back-reference.
`GOLDEN_V3_SHA256` pins those bytes.  `GOLDEN_V2_SHA256` pins the v2 bytes
of the same runs (ids spelled out as hex) and `GOLDEN_SHA256` the v1 bytes
(repeated payloads spelled out too): expanding each v3 trace to v2 and on
to v1 must reproduce them.  So a change to the encoding alone moves only
the table of its own version, while a change to what the agents send
moves all three."""

import hashlib
import json

import pytest

from blocklace.harness import canned
from blocklace.harness.cli import main as cli_main
from blocklace.harness.oracles import parse_trace
from blocklace.harness.runner import Runner, run_scenario

GOLDEN_SEED = 1
GOLDEN_SHA256 = {
    "tl_line": "3f2ad101295dfe7bf3f84001d046d8a92d91766b3390fb051641dcdbbb501528",
    "tl_star": "c0873097423033dbda3459cff140104dca4b4e9db873bb0ae22746db85a54beb",
    "tl_ring": "6102b871bc09692899f33c1129df374f430120600bc2a97ee7fb5f8811128801",
    "tl_line_broken": "d131208732e032d315cb28081b6197ba480b4e6b7a3909031c37456aa60d7911",
    "tl_churn": "271ca1ba1e2e87035f018590e72037f8ac0bebd6dffda17bcbb4241939f3c4ec",
    "tl_forgery": "5f6b2d2a2791f541cd995723713b844053c7341cd6c4ec9138515b05013ea274",
    "wl_group": "2fbe8071c88cde5e1aee151d2608c46849beeda5677d7d2d5a16bc6444c69e45",
    "wl_dropper": "66947857f66f2a905b5df7aee0a83e5cafcca795b7703d2660fcc138716706b9",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "60d76f23249b9f65a13bdc0d84feb47e414f0d26adf01da0d5cebe158ec852b6",
    "wl_equivocation": "5a121f48bce870808a7f9a90256f00c14c50e9499a317e0db613e69ec5d6516e",
    "wl_privacy": "804528fd2479f29d42396309cdabc07d765a10610d855662da4cf90016b23b37",
    "wl_partitions": "33e011fd9a151bc661591dff1cc0da030a059d23ed5c32ee04e2a712aacc56ce",
    "wl_founder_moves": "82d0f6bc5eaecbad085d39c69cc523a5633842d8ee95f4196eacef3bbe794a96",
    "wl_founder_quits": "845a67c6d7ffd4f407e30a19f36c2a51e7ecd1877acfe61bcb1c889b89245a7d",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "d0fe55a34255c64b754107da7025de474d16b7400b85655974785ff688b9793b",
    "tl_star": "f13bd0e7ac3fc7c79745d9741eab8c6a800e9e0a90c707d4e69d6a03d9de15b0",
    "tl_ring": "6e027796d06260ebbea379d6c1d1823b74090bf22f6d1f1311db454291529fce",
    "tl_line_broken": "14ef1e450d205864c89cd60c9ccbccea4549dadb996ca18b1541f29d2f871ae5",
    "tl_churn": "c15f768f7ac44f802e75b588988021aebe4871bbf074d4e1247d1e2c060bb3a6",
    "tl_forgery": "31641d9150e384a7998022c302eea7288347c559942155ab13cf1023ea739e35",
    "wl_group": "34a29510063d434ecc926fae2af955b62201fcd7fcee0d76a1afca7b243e4806",
    "wl_dropper": "80efeba8f4a6fc0f5af2d99dd2bd0bd63e3eddf8a19d77e0dc505d97494d04be",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "5879b914e7451bb3e96932bc60323a68d71cd5ec6c173da501101d5f01047031",
    "wl_equivocation": "2897f76add69a4517bbad75ddf0fc971b0905caaac4ff5a5c95ee45d106ad390",
    "wl_privacy": "ab1b1757b1f9b4a6861e0e06410a40c49e799b504b5d9fa827de584816eec181",
    "wl_partitions": "8e2df340acbad51b196f55fbd3f8bde92574a971e1377f839e09652ef47d93fa",
    "wl_founder_moves": "ff45225490f330135daea5ef820dcd31174bbd93c88e89ff2ee6cf1c9f93edb3",
    "wl_founder_quits": "c14fa994213265b26c37f4728e73252c762c5d168df904e390ca32e8670b1243",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "c7a8ad751db3d6dd10c286f052000e1dcd3e3fbefff54cfecc802d654c8cd8cf",
    "tl_star": "f5fc1ca01d87e27e03872cd53b321a1cf208d4cba688001efa2aa0e895b1e393",
    "tl_ring": "e70eb73f35ec971ce5cb2def6ca35de9ccf435912dfaa21757631d8fc0048cfa",
    "tl_line_broken": "6e15bb1da3a214174a83d339b4dd168a14253d4a8b5039b0b7ee2da7db36233b",
    "tl_churn": "200452f7e9d4f6d1be692b98f3a1aea2ad2208e953359522d83f497ceb908a4a",
    "tl_forgery": "43d390f1fe14f83b7538813427e5e4693ff102ee0c02cf8961694b7420254cac",
    "wl_group": "87efb2343d0652d915fbf3f229f397893faec447d57a24d00461c473adb0040b",
    "wl_dropper": "1bf5e9be325e0bff4ad1ad26f8b1ecbd7eb27eed48e19d8660cffce009e35342",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "6e3215865900394e3ec1bd52e563e83aeeab6903ae567fa30497ea697f26ea2d",
    "wl_equivocation": "048f7a1fafd29f1f6827c5dba73c525fd3914c99b32f807cd745b992423cc25c",
    "wl_privacy": "3935996163552e37ef4ea5002799397a7092550d262b61ec0eec0593b744e670",
    "wl_partitions": "e0a04e0d732a3e51cfcf7f6ed912dd3186159860ab48f4c7a4eb6c04d6f82cfa",
    "wl_founder_moves": "260a8595749865f2a1b6513c381008f67ddfeaecd1b63e08caa46e3397db782b",
    "wl_founder_quits": "cb2de2f05b03dba4fb61abfe4e0a5a524921c3b0a8aa0e586562877095b98b35",
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
        == set(GOLDEN_V3_SHA256)
        == set(canned.CANNED)
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_trace_bytes_unchanged(name):
    runner = Runner(canned.CANNED[name](seed=GOLDEN_SEED))
    runner.run()
    text = runner.trace.text()
    assert _sha256(text) == GOLDEN_V3_SHA256[name]
    v2_text = to_v2(text)
    assert _sha256(v2_text) == GOLDEN_V2_SHA256[name]
    assert _sha256(to_v1(v2_text)) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", ["tl_forgery", "wl_privacy"])
def test_parse_trace_reads_v3_as_v2(name):
    text = run_scenario(canned.CANNED[name](seed=GOLDEN_SEED)).trace_text
    v2_text = to_v2(text)
    assert "\tid=#" in text and "\tid=#" not in v2_text
    v3, v2 = parse_trace(text), parse_trace(v2_text)
    assert v3.events == v2.events
    assert v3.finals == v2.finals
    assert v3.agents == v2.agents
    assert v3.meta == v2.meta


@pytest.mark.parametrize("name", ["tl_forgery", "wl_privacy"])
def test_parse_trace_reads_v1_as_v2(name):
    text = to_v2(run_scenario(canned.CANNED[name](seed=GOLDEN_SEED)).trace_text)
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
    trace_path.write_text(to_v1(to_v2(run_scenario(scenario).trace_text)))
    assert trace_path.read_text().startswith("# blocklace-trace v1\n")
    assert cli_main(["verify", str(trace_path), str(scenario_path)]) == 0


def test_cli_verifies_saved_v2_trace(tmp_path):
    scenario = canned.tl_line(seed=GOLDEN_SEED, utterances=3)
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(scenario.to_dict()))
    trace_path = tmp_path / "v2.trace"
    trace_path.write_text(to_v2(run_scenario(scenario).trace_text))
    assert trace_path.read_text().startswith("# blocklace-trace v2\n")
    assert cli_main(["verify", str(trace_path), str(scenario_path)]) == 0
