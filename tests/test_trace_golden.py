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
    "tl_line": "d37de1d77f6c0721c07f11671b14b9e7af8778e21451ede2d4abba733a0f6599",
    "tl_star": "e8e900e718de7811fbffe099cb2e4a191adc2128f5143ed4a01b7024c92b5661",
    "tl_ring": "ffd38d86478b1dbaf12c58b30471c890c561c6b95947280472f68ea3193e04f2",
    "tl_line_broken": "6ff50899e9c2774347bb6eccbad45d03930b150a986e6aceaacd1561193198f9",
    "tl_churn": "23f0c952aa48b837885c1a0126aa74b00883d1321c25edade8264e2a7c05e5e2",
    "tl_forgery": "7583b58b94187d0c82c1258c5030d33e226d0aab00b4bc59c7e46894bb6eb36e",
    "wl_group": "3c491df2e56faf5bc1315160df7020f6f6621a664fd8ac305003356df8817469",
    "wl_dropper": "b4b488993e95261ce72a538f167a2aca61548dbe7ad4455abe06166d733a05c4",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "210b514a9c72597393be0151bae733262f7580b0235fa604ab5a19b59db36faf",
    "wl_equivocation": "c43bd42c47711a4c64137064ba84ee4dd340d1b5f0a1bfa80f1d02282ca2c70f",
    "wl_privacy": "e4148d280eb7c9356a647a8be9ac1fad52e1742a32b23ff73c3e17e83e9f55f2",
    "wl_partitions": "26c08b732698e86a714636f1a576587e682a0a8239acc93fc799aa57a43643b6",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "bf2cc6c344280cb7087d0b758db05c3cc9d8bdb620997ea8bd84d639e69626b3",
    "tl_star": "790f891559416dbc47143ac0e704b3265a311390484d4f0733bb39ce069efaa4",
    "tl_ring": "a080b3e4bebde5ea3ab113ce2e225820bae24e3e2f974df51e596c8b54c3a708",
    "tl_line_broken": "4b892ffc1725d7c638543ef0e6d37c09fa246e2f20f02617136c1db472dc9847",
    "tl_churn": "2ed51dc40b92aeb8b0292374103c9f8bc69c762dcdb2dec06c212579ecadd32c",
    "tl_forgery": "7967b4b8b77b3b6008f154155f7394a9210f42f81ebc2070c36e66a98b8bf84c",
    "wl_group": "d217d773ad4f7f74e5e543c4d65804be39c5e2355c13dec8e563184a9b3ca6ea",
    "wl_dropper": "2f831f4461ae8d5cbbbd9834b59673916ca1153fe734137df2c7da6cc11b69b4",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "52facd3cf4d6dab216ef0d96b78ffe6b23149432c094f815d657d21b08f8a8e3",
    "wl_equivocation": "9594769a5301d70684422102f8b2dc8e36b8d7bd1f132b93b2170cb877dbc1bb",
    "wl_privacy": "ddffdc2a70639f11bdfb47f4b27f2738b7d36a6f7235cef286120e5b4df80c58",
    "wl_partitions": "d5eefcc6270c6c8fd2e893f2086801f053fcd5f2df2a7c6b6fa8fc68a32a8d0c",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "348669f965f33ffafe88e0921c20c81b531d78b9561ead046d2f58323cfcef97",
    "tl_star": "2b143f77e89cf811f7330eccb866394901ba5933d8856dd39585f7d4b52159ea",
    "tl_ring": "505ba3d01e5c621b6fa2ad9fa575890dd4dcab8b46ed820002638f510a72426e",
    "tl_line_broken": "6350e5a198796875363ce7edc5cdf60b95626835a23c629d9561d9d3a823c17b",
    "tl_churn": "80ab34d36fae57d682a2a43b720e32f50537204d3b41fc8b1350315df6ba759a",
    "tl_forgery": "f13147177dc8ab742df75ea7d135de00a4c1ba79c9666deb2b254a0f0dfd0d72",
    "wl_group": "5cc9486ebfd39828fbc24600503b25af30106373e7461b7e07ae858bdaa9a908",
    "wl_dropper": "f3d6b1ea588a27c9847ad55898d2f2ebd0582f32ceefa6e99b58626105ae51cc",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "9f24df7ffb90bc5215046f7cf02bbd284af00952bff387cb6f1af02254fbeb09",
    "wl_equivocation": "9b61798532188e096e3dbc4cbe7763cecba592fd5dc467fe75d3bd9c84c49f1a",
    "wl_privacy": "5a8c6fc7c4bcfb1147f30ebbdb009461a5abae294c591c32f6efdb3dfba4dc60",
    "wl_partitions": "b04321bd550d3cac57f5a7dc85c2c9ced2b12a603b1c31295ece44298a903940",
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
