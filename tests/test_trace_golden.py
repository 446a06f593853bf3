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
    "tl_line": "f2aaa77da5366f334b8decfc05552814cc925b28beb83cbcd2c63ae58868071f",
    "tl_star": "6601a89d8a417fbc33408623d30f28f6b1b7cfc32ea31794b2757c31f63d54d0",
    "tl_ring": "7952b3c72f0247ba2e116f721cd492ca948eb1b88d7cfd68287f60da9f614aea",
    "tl_line_broken": "0a039f4d99a6f357ed6da316e7e234bea6ecf43cd13c4f0afaf05347f5bc8b33",
    "tl_churn": "6210da14ee2ee105d850d5dd1998d5564e4ab271811f195d50bd57576274942f",
    "tl_forgery": "afd46e289c149cbae3bd949d30f06c565738f71b21f6c56d5ad73dc3d20ab852",
    "wl_group": "5fa1a6f1367c18fe247e158a165d4004e4d119a2835013d62452e79145105c90",
    "wl_crowd": "75b61771c308352cab3464b165184ed8e09427a5e61a4fab2258572d4623d04b",
    "wl_dropper": "92c04d6d49376aa7209071a9eb90d41d863e9ba7a1e1b06e64a7d57d2445cef9",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "47eec014cf643b7835aa8177ce07eadc98677513625f591e0631f20529bd134f",
    "wl_equivocation": "48c4213de54c6316ad1fa6bd4b17da556b86713d7629fe33c4534648475a8c85",
    "wl_equivocation_crowd": "9fd1a9447ac965500452b633ac1edeee03413aa142c18da8782a652a47a38cbd",
    "wl_privacy": "9d7996bfdc9dc94e3c1594598c73d39b36a1b85176cef7b13704c9e9cf09c6ac",
    "wl_partitions": "c5b0e296bda200ce5c973f7a085db856b43d8cb0e825a48bb6ac438747eb9718",
    "wl_founder_moves": "953fef675ffee912cbdd696a52ed003db0df7b2a78cf7733e528fd6297122bfc",
    "wl_founder_quits": "7a177dd24726347e85f3b14622547088717f472143229a97ae0bd0fc4e683e2c",
    "wl_crowd_orphans": "a076fa29237f5c23273586f7a13c6b1c72d714c45ce3c24e892438508d7cd26d",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "2c9b2324993648b36d608a72a4c966e8c9490e808944f4cc6c29bce82e119a82",
    "tl_star": "ff2ceb619041db3a8230e44ec81a6e691d0af72ed6498262677af42db3ecf60c",
    "tl_ring": "82f1f1e9c986f30f4c05a5fec461636e01713960e551155e0341c65fc5f97f0f",
    "tl_line_broken": "050a0fb51d312315692c9db5137cfa655a1d45e7c4256464dec9474506814569",
    "tl_churn": "956edfd8134d9e1c0031d8a1f39bfc769c4e185fab668929f9acf01ce45c08e0",
    "tl_forgery": "b0fd6f3954f60784b72ddb56bb4c8d62addeafeefff90003f53153fb5b6b15d3",
    "wl_group": "fe2b31e7999e89b751e738fae18092f48fe61ebcf43d6869e4c804f9e9b23000",
    "wl_crowd": "94a2df907e9baca9e157f3cd75ecc50d6e031264f896f4497051c82a0095efe2",
    "wl_dropper": "d7d14780dae2b3cfc834c1b5f13144ecab9b8849932ff58066bbf9dc433c5c81",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "a99a9fcad29dbda15920731bbb42d62464221af828c0333a0185a6fb3c1a85cb",
    "wl_equivocation": "5fd95420c80b45faa6c81c79cea7388d6d801bcc6cff4118287c9500b799ac7c",
    "wl_equivocation_crowd": "85680807b3b23c3b8cc4979b1dc04e06c313a9cb2a644536939363404af46e35",
    "wl_privacy": "34280ff06440529b74677135f0bfa1a11a787f56ac71d7bd532dfdb17dac455f",
    "wl_partitions": "314a8efb5996172a57808b48c47a8dc619037ccb40d964afc4d4a9fa1cdd2aa7",
    "wl_founder_moves": "3cb6319f92b020776510f9c150f836e712331ef0b675a79a8ca231eb1ac1120d",
    "wl_founder_quits": "038b9d8d628c42076caf3b60d34d27df270bd16ff7fcbd59fdd99808f3538f6e",
    "wl_crowd_orphans": "b8c5a580ae63bc31db7e05c11ac1461ef6c057079bb7f3fbced275f91aeae681",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "95f82490d9911db8d9f8a2fd5460dce1c36cf51702a99ead89fb77a4ba2c908a",
    "tl_star": "274358ee83cf5d4eba9268427b23c33325397609d17bc923f7d5530802cc9535",
    "tl_ring": "74c2d79eb431cf9ab7a8eb4b94afaadb27ca90b16f2fa4e1d0f96176b59d00c8",
    "tl_line_broken": "60bee870ab6e4b34ce30755d4599b473352df6ca6c885a8df903a658cb287646",
    "tl_churn": "979eac7bdfd4fe09fb5dfdab24342b3619183ca8299a28162963b7286ba70820",
    "tl_forgery": "3878c894aa1e9d60fe04bff9731bb842f3820639abb8a5be16fde8bb7ac8d248",
    "wl_group": "c48910adc4d76d024be1b1d0db60ed8e71de6aea41497e0a1dc5894fd3d8d32f",
    "wl_crowd": "6d9035b00c4bcc69bf90222297a1693f3179f0d839e113eca030450554414634",
    "wl_dropper": "bb952b913cf268c6b5afbffcd553ac0a2b37f6abdf93da23d8806a155ee9578d",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "6e59568c5fb9e18baacfaa79f3bcb2dcbc8f3b6eab9c192c4e0c367d396483c1",
    "wl_equivocation": "981e8b632833aca30a00685616e4a92946c5985e48ffb179e4bd0ed3f3db2965",
    "wl_equivocation_crowd": "b07f06f8287f4e5a1ae615f0b1e0f140fd89fb41b75c303d33aa31e63f846a9e",
    "wl_privacy": "3c434393bfbe335795be8e52e6d535dbe6c9b5896e7dc6f2a22a1e69294f18c9",
    "wl_partitions": "a31380ef1d370b1f028849ab9e7de28d39ecae6adc06d8e5e8028ce31ed69886",
    "wl_founder_moves": "a1f83bc2c5a29ff58382a580ce3c512515560c6fcbf87742ad1071d6f7c82d11",
    "wl_founder_quits": "08f473c0042546946584331079539abda43c17dcf452a3ba7860a293dd0d791a",
    "wl_crowd_orphans": "6705cbc4d30ec5505994f9efd5778dbb4ad3b563f94fa2a6b12404fb9b1c10ba",
}

# sha256 of `json.dumps(runner.metrics_report(), sort_keys=True)` for the
# same runs.
GOLDEN_METRICS_SHA256 = {
    "tl_line": "dc3428e700ab2f0bb76f60ada7d035a14cb1bb7b6ae3b4debaeaf2457e23ed9b",
    "tl_star": "15d6e78fa41178f57a71ee0c25311b497bdedf85791da8850f7aebbacec9fcac",
    "tl_ring": "530bf66c436d24e5fe16effb6a0a0b09a3e4a9cf38d64798bdc3317f92071b17",
    "tl_line_broken": "64ef97bc0be19990b26b2878b79837e2f859d10bf9bb58bfc0670fd0725f34b6",
    "tl_churn": "ff503ecb66adccda7e893e2c38ea3383d63685879de2bc1c271e591d9901679c",
    "tl_forgery": "4b672c58ba7fe94fe386fd0121f89fd113f14f0dee825160aad3f2be785fae0d",
    "wl_group": "eef8a36056fd0f6793b3fb466aa87e7c3892e5e9c9b6ce61931730a7335be0f4",
    "wl_crowd": "c32eba93e6f26b8c92f0d475c4959ebf13149006854ba2cd9241dbee10b3093d",
    "wl_dropper": "ea5b5096aa841c2e424bcfcab20b225da1f87a0adc747ff8b28a43a492bbdd6d",
    "wl_solo": "f025de3690468d406189d9fad3382ab2a3abc9ee2845e0c5a2440501d3669228",
    "wl_churn": "f9a8970aedee79891db285247f5e4697a70743a3a92b3deaa41d7852fcf404fe",
    "wl_equivocation": "3897a2640f616ebbd939ef580c55846242630aec74748fcd9fc59237d405d108",
    "wl_equivocation_crowd": "65d7f3653295a6b4b5569abf06a3afd4e4442fa0e453e88b2056e6ffe4f0d36c",
    "wl_privacy": "2dcfcdc84e0ead577210ff995be3ffd8d627ed0aded4bf340373c7923e7b8077",
    "wl_partitions": "45632888cd36fa004de166f570a3551c6191ddfe5f389aadb15d4283d6eb30da",
    "wl_founder_moves": "f84ee2bbc8cc61d33a05d0273082a13c7417b3cd1845553c9f116756c245a52c",
    "wl_founder_quits": "1f9362d5bd92ff45b6ed272eb9bb8cabfb23f6e4cdf829764f42cc536094dcd8",
    "wl_crowd_orphans": "5136a4c389b509486f6f1a6cd9e634f70b3826c0b4005c7a865c62cd49651d16",
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
