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
moves all three.  `GOLDEN_METRICS_SHA256` pins each run's per-agent
counters (`Runner.metrics_report`), which the trace does not show, such
as `resent`."""

import hashlib
import json

import pytest

from blocklace.harness import canned
from blocklace.harness.cli import main as cli_main
from blocklace.harness.oracles import parse_trace
from blocklace.harness.runner import Runner, run_scenario

GOLDEN_SEED = 1
GOLDEN_SHA256 = {
    "tl_line": "cbd7ed85f24381a566b8bc91ebb5c6d39b7af78671abcaa736c2a3bc73b5b26e",
    "tl_star": "5f5983bf394337214e7aca03c23dfbba917a6c578a4c9a5f095ec63cd5a62963",
    "tl_ring": "35272cda2ae9052a0c8854c71b919f62ff3c350b4cb07d268270f24d544a9473",
    "tl_line_broken": "7e56bc0732d3629a1844fe643875d7814428527a98cc1e9d746747f5bed7c6d5",
    "tl_churn": "7c47c08ec02f0a5f8f218b80a7df66789789dbc05735d4206bbb51cb7dbec713",
    "tl_forgery": "dec29fc4e80f70b1c82049a136e1981cc2973e5721a72d013effab83fd320532",
    "wl_group": "a320105b9594ecd93c433adea6b1159528a526bfc8ebb08e5bbdae30c997c041",
    "wl_crowd": "675e21cee43ac045b2e2572fb473d68fdcbff55c6f4305910c421a1c9fe6c9d9",
    "wl_dropper": "94e92647f59936d53a8b1394daa875109fd5992b165b9f8dfe00ca08888a694f",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "47eec014cf643b7835aa8177ce07eadc98677513625f591e0631f20529bd134f",
    "wl_equivocation": "81804b778a34df73558f6d443335e7ff51b033b81e68223ff4b262332ccc5914",
    "wl_equivocation_crowd": "2c0abfb9b28071fb9f9d7fabb9c1f0f2594fca3d1fb2832a0b58cc456174b5a8",
    "wl_privacy": "9d7996bfdc9dc94e3c1594598c73d39b36a1b85176cef7b13704c9e9cf09c6ac",
    "wl_partitions": "99eba620d0b8a11c344ac8db8638672fa4c6e1faa4e1364861466d386bbe72b3",
    "wl_founder_moves": "dd471ed7c0c1259772cf3da3cc23a8bbf6de62dde678c39865ac855fcc969218",
    "wl_founder_quits": "5b0bf2e9f64c40c96a6e2fd594252fa3fc137955fa97c8048c38f3bd21f62216",
    "wl_crowd_orphans": "b3267744713695b0db0c140ff2def29e815dfae80fd6a3068598eafe2f6e6949",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "bc0d3b5a959108542280372fe99d7e66d64ab021c3a1564a632fa3547e63fae6",
    "tl_star": "aa0088c6bee81d520639beb2ea7f75476db38776d6d88114987604e9039f3ec2",
    "tl_ring": "e5490c8ac73c5e4c421c779cdc16a70e0de38d053fb9d2f0d3911d5bed725d5f",
    "tl_line_broken": "c97c7d821c95a741cbca4ce70f712497118f3aa086af94939159cb569ca1fbf6",
    "tl_churn": "6d7ae7b4a3ecfbcf9d2918e3f3ec6d2d7e5bf414a53194613959b4516008f683",
    "tl_forgery": "970df4b203d656e3208c3e90561ed672b34370da1d1734fcfa5cafcf1a2762bc",
    "wl_group": "0b1a730faf58d54da5ac03c13441a59ebf23c518bac06d15a07dac9da2c1ef79",
    "wl_crowd": "1ba300a9416820cae81d01c9773e264603a36a89bba72fc2652947b1e7b5310c",
    "wl_dropper": "edf51ed49b34c1788ffeccae54d5af739d91074b2b3ae9bcc229368d9e5dfa1b",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "a99a9fcad29dbda15920731bbb42d62464221af828c0333a0185a6fb3c1a85cb",
    "wl_equivocation": "3285e76c174acdc275db1cc389419c812fe4bc23d6339dacbfc06934e91a0ec8",
    "wl_equivocation_crowd": "93bbff02eccc5555354d72c061382337fdf0c71cc81973163ddb75cf3e1bec61",
    "wl_privacy": "34280ff06440529b74677135f0bfa1a11a787f56ac71d7bd532dfdb17dac455f",
    "wl_partitions": "d22ee50947019171c3257f5c41749c1d70b1462d71f7e2377891293a35c19771",
    "wl_founder_moves": "6b1c493118924eef4b22a9260f9cd1656e09060909cc173ab589b65d77fb7cf7",
    "wl_founder_quits": "ff0630a34e1ddc169654421392cccd0ae8db9f332c0b50ca2095b8263bb7e050",
    "wl_crowd_orphans": "225ad21c557a56be5ae29836eda5b7e1aba78deec42e085f0c01b8b80bc0dbe4",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "26ff14a9714435472fa2a96d59d9e95c494869c65c76df1cc505f7ce060e3e44",
    "tl_star": "6cf229f2eafaf540580f72fa6eb2e7976b2a1ffea4b8917da0fdef40642bdd27",
    "tl_ring": "b2654ca5b46a2746b71bbc301c765d33a3c329701b7b19723fee8ce6c620671e",
    "tl_line_broken": "521f8e1696aedc15f6f40091980d45a26bae277b6d0f6d7a21be35fb9968f2bf",
    "tl_churn": "1578a28f32827499477af796f8df7fd984467e0fc49de665b1b6264e9c9d963c",
    "tl_forgery": "860aa1bf565dcd42ae1ac49ee392985acbf4c74ba2299513560cea23cc89a8d0",
    "wl_group": "ed926426be6d8ac6b8ff4300e96d1fafa2183635991b0222a9cd9ecdd4874248",
    "wl_crowd": "48b03bd252e75b890911c7b8cb9f71cbe273dd01b648682840b3d6be9b42c9ef",
    "wl_dropper": "a1f359e5ee941a0012378e94a283b6aba71cebb121d44a7769965229813ef73e",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "6e59568c5fb9e18baacfaa79f3bcb2dcbc8f3b6eab9c192c4e0c367d396483c1",
    "wl_equivocation": "e6b6d9ad7950dd0c024d6877e22c1ffcb560dd7dff99004f890bee68348b478f",
    "wl_equivocation_crowd": "f725b8d477be4cf181c66dc7c46e6130537d1511dcd508f2d6fdd4f95606a4b8",
    "wl_privacy": "3c434393bfbe335795be8e52e6d535dbe6c9b5896e7dc6f2a22a1e69294f18c9",
    "wl_partitions": "01f4d54fd3445c9ce4b80d3914c9fd2fb5ff4c06914626d2e1fdb8077d88e99e",
    "wl_founder_moves": "5a438a8a33cd2527014158b9406357cf404ed512d9b191f2b55f7cbe8c06ae2b",
    "wl_founder_quits": "9673e585e15c6a9c94688c9d15190dcf65de9b7e790ae174938b86c3440a8437",
    "wl_crowd_orphans": "14ec68d422dfb1bad61d92a74511d9e672c3ed2c9d91021f7060824e7264bb74",
}

# sha256 of `json.dumps(runner.metrics_report(), sort_keys=True)` for the
# same runs.
GOLDEN_METRICS_SHA256 = {
    "tl_line": "0da921ad2a1365814c14c643d3c5d793cf3eea861da710451cd3da7c1336c46c",
    "tl_star": "425a24660d734cbe41bb0bdea1c76e334929b333ae8b381fa0032d8b4242cd72",
    "tl_ring": "78f8f2a89fdad0b3cc514d074de8a09d797322b71bf050f84810bae523686e49",
    "tl_line_broken": "fc84dcd5096b9af7a06d83bb650f9e6dbb1811f1bad6eb1435466d45207575ec",
    "tl_churn": "c4dae637ada0f2443b694069afd059c5a83994a61f142273f260246e46fb32ca",
    "tl_forgery": "805f408d7c323ae0adc7ba3e6df357599cbdfc2b00a084ae8e110523ccedc4c5",
    "wl_group": "5309169b1550b6b481adfd14bd1adedaaecfc085b22a8ebab101e918e526c9fe",
    "wl_crowd": "8e94a74d710494704743d90c7a01ae311dbe0924d5aa44a6510095e0cba314c4",
    "wl_dropper": "fb94d2c47e478fd8fa78af00ce6f4fad5af5e833963ac778290b24b7258efd16",
    "wl_solo": "f025de3690468d406189d9fad3382ab2a3abc9ee2845e0c5a2440501d3669228",
    "wl_churn": "f9a8970aedee79891db285247f5e4697a70743a3a92b3deaa41d7852fcf404fe",
    "wl_equivocation": "308193f956d115b3efb32b9bb613192a251235587c931e645533bcbd7de13007",
    "wl_equivocation_crowd": "f587657723ee09b5c212bde2065c4b3a62dd5d18cce5d7ab6289a097d7b19ca6",
    "wl_privacy": "2dcfcdc84e0ead577210ff995be3ffd8d627ed0aded4bf340373c7923e7b8077",
    "wl_partitions": "873ed2a0b1dfe7f2079f5605a005a56cad60d504aeecba2c2637f367b6a646b3",
    "wl_founder_moves": "f862a39113841f44f5aceaefdc2aa41638021c18ffe9a115296b7e5febd1091d",
    "wl_founder_quits": "016398beb9c5770364c62bbf47fa48c587dafaaa7ce3db86c9d91e3a3a1b49e2",
    "wl_crowd_orphans": "1c4e9101283604d5e8a8236e2c892171e282fe85a59e96cab62cd6983205a5be",
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
        == set(GOLDEN_METRICS_SHA256)
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
    metrics = json.dumps(runner.metrics_report(), sort_keys=True)
    assert _sha256(metrics) == GOLDEN_METRICS_SHA256[name]


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
