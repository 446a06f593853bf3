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
    "wl_group": "7724754694d1ae0af02e5735401715f0b8c898ce7b8a9343ac4bc1939dc03788",
    "wl_dropper": "4b553395645d63ff518b4fb4a1d923d3d24df7ea1f8433cc91884d635d5111ca",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "69ae7397ee4fe503e672d75136f3ce0121ec7ed3e5b7e802cabc2b73e2316722",
    "wl_equivocation": "0274b46f1216dc1a4127861e56e63e862f987d54a8a9f362d537dea3cf1ce16a",
    "wl_privacy": "a8c96a9fefa755b5725c5a6ca5623eb1aa2823a27aae561ccd25badb253dbafb",
    "wl_partitions": "c916d10bf6233162b416306b017321e2e9687651fa907887d626f9782fc9739e",
    "wl_founder_moves": "a981ec968f60a89d94577180081edf8cb9ecc2d0ac5607f1ded4ba7b17b97d96",
    "wl_founder_quits": "cb51f1f3046aa41e3e9322afc53313f5f7d9076e6b316377a382626fe57b97f6",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "d0fe55a34255c64b754107da7025de474d16b7400b85655974785ff688b9793b",
    "tl_star": "f13bd0e7ac3fc7c79745d9741eab8c6a800e9e0a90c707d4e69d6a03d9de15b0",
    "tl_ring": "6e027796d06260ebbea379d6c1d1823b74090bf22f6d1f1311db454291529fce",
    "tl_line_broken": "14ef1e450d205864c89cd60c9ccbccea4549dadb996ca18b1541f29d2f871ae5",
    "tl_churn": "c15f768f7ac44f802e75b588988021aebe4871bbf074d4e1247d1e2c060bb3a6",
    "tl_forgery": "31641d9150e384a7998022c302eea7288347c559942155ab13cf1023ea739e35",
    "wl_group": "d52c59965cc39ea6e47e19ba0743756e8ec8be21ec1c985a0a30c7f2f29d04ad",
    "wl_dropper": "1a5011830869352d2ef9822bf61d53a2f17f348b3537b44fda049075d7ac0858",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "2270a49b87ba0fe704098d28824b5adcff4bf5c60befe34df5403d0ba55d256d",
    "wl_equivocation": "10b94ef39d7f1ef1c06bad8862022c03dc15c87ed807559e9414f8a3718f369b",
    "wl_privacy": "83cefe7918d7aad7792e1825d38c5c2edf701e8a76cae8bd6ab3009b818b87d6",
    "wl_partitions": "7101eb129594d02c6ed52baf6cb7e079c5ea5d09f46420cb09d1ec3734212637",
    "wl_founder_moves": "e8918998387b32966192bccfea506e6ebe828c9a8333148e537738ad0ac38d5b",
    "wl_founder_quits": "8caf88606255d9728b0f99c1375ec9668ed6eb2478b3b924ac0905d95bf1ceb0",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "c7a8ad751db3d6dd10c286f052000e1dcd3e3fbefff54cfecc802d654c8cd8cf",
    "tl_star": "f5fc1ca01d87e27e03872cd53b321a1cf208d4cba688001efa2aa0e895b1e393",
    "tl_ring": "e70eb73f35ec971ce5cb2def6ca35de9ccf435912dfaa21757631d8fc0048cfa",
    "tl_line_broken": "6e15bb1da3a214174a83d339b4dd168a14253d4a8b5039b0b7ee2da7db36233b",
    "tl_churn": "200452f7e9d4f6d1be692b98f3a1aea2ad2208e953359522d83f497ceb908a4a",
    "tl_forgery": "43d390f1fe14f83b7538813427e5e4693ff102ee0c02cf8961694b7420254cac",
    "wl_group": "6483f0f10485e803a400320b99578bf72c745d7992ea82715a7cb9e778301130",
    "wl_dropper": "e103f206e772ff002dac118d3e5f9490569e55e70760bb2df91e421fa85d1113",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "9e47ccce0a7e46f3ac8bbaa965af6c10aa538b5539d863e262f41e58b56fe5a9",
    "wl_equivocation": "92185d4d9f7cee132af0bd6a35d357cbf61ea0eadbd07ebbc2613f0dc8a3d47c",
    "wl_privacy": "b9f4341d84ada052dc2211e905ecd0626583b5080d0b6e8ef502709f7148a418",
    "wl_partitions": "58eb117e626d9683d15d595a903663cbd2a14a2d558a21563da9fed0b7deb45e",
    "wl_founder_moves": "150ef95b9b7db92febc2268983ec3c0e340629ea1bc85714ba8520e39979ffed",
    "wl_founder_quits": "b57a3dbbffcb104288571bd5dd6c16bf4e17a9e48d26c9334be76c736dea1d7f",
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
