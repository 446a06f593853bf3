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
    "tl_line": "3a756e57932dbf6eac196be30eed39a454a1b78207eaaff521bff7a3436efc3f",
    "tl_star": "1675437309799aea3fa4e8c2aad4396a667174c50a1addd883b0a0f63724ac58",
    "tl_ring": "00a89527e1959d8533ed0f7ecddf87ad2b047e8ecd51d4fdae70c6fa10e2746b",
    "tl_line_broken": "60592867ffa3b4ff55beee56f1e9d10f1d00b60281b1fadc41212ff8be516db2",
    "tl_churn": "f62211e79955ebd6dbc1950c219912aa7ba42a5e3221648b985f97921739a7ca",
    "tl_forgery": "eeffe2560ecd838977d3bbe767c1a57a9075c90573aa2ae79ea043315ecd24fb",
    "wl_group": "27deab7111b4c62c670d5ec66a6642ed48008d1532e5cdf4973258960375533b",
    "wl_crowd": "9bffd7f64ede485773bfdef2d0ce95568fce1d24e97c2dae35e8b77d26935f66",
    "wl_dropper": "fd5a94248f9b4c9c5e3179fc6fb58d90461dfcd935be1edff034abb9ff85f26c",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "0dbc1c9d1bc1ee36581fad6ce2629ea632c24bbb7ace2a5fe3239250b0a99568",
    "wl_equivocation": "525a51edd42cbf0b0cebfe8186fd7c324f1b735d45e7f6a41e669f3f915be549",
    "wl_equivocation_crowd": "2e936f9c153f557a9f41dba58324f14c9c3d96fe8341d63ec1a4488d2e478212",
    "wl_privacy": "0365c7425aaf1870a932ae1f27ed0d2d783635e63324c44c4fff28fabf397678",
    "wl_partitions": "371fab09b64bf96f4d86aed66b9af9f046d815fbb167ea1e429c6bfd66ae6fa1",
    "wl_founder_moves": "f6944371c354e5327a7ff811a5745e7f0a5f0fd237dad909dbf4bb25f6dc4734",
    "wl_founder_quits": "f404c1eca6bba76fb02f5cd8e04eda0b120154ba48270b545d0b054b3a904949",
    "wl_crowd_orphans": "0a504d2e6145f6f2e8f2dbc8169d10f28ee41f6d5f79dc21eb3de9cfdb3cf413",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "b0c5c1b17d5c1a5d023f69319be79b1fa55ab39913d26ffa81bde322b8181a02",
    "tl_star": "b7d6b1ca94a0f66de4fa60566478427293fc11919f98429cd221584d3d3be99a",
    "tl_ring": "711bb91ea50ab9a4f57b04470d067084d9fd34c424194739fb4e105b7fe0c3a3",
    "tl_line_broken": "8b05aa8a9ab10e2107d511489af03c10277ac71272d32760c22aa4f68a7afe70",
    "tl_churn": "3377661738c36305369d2ad097a2cc8d60ee24c5126e35a6a91d02d7c6e0c1a6",
    "tl_forgery": "12473b0773c5b6e1424931ceaf5849fe40552f7469c31bfe14648e027fbbadc4",
    "wl_group": "f1f3573681f0749c7870ff08573d2b5b2c57398afd9ef6e636ab64f045509b9a",
    "wl_crowd": "4681660850a4e2128a449672b1af2ea1091f27ca24524a5a74a9b37b4369a0ac",
    "wl_dropper": "a3101a6f1a57158cced64235ed6323db76383ffc566ed081fd9a5f70b4eb0446",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "9b228aa1eb3911860d8558b78c396e4d5f17bf88f60ebf335cc3098b72f483b7",
    "wl_equivocation": "1c84fd26d8d9157d47993375026b0b238f4c1818a296105017db9054813215e3",
    "wl_equivocation_crowd": "1c6ad6b397df9e36b19fe7a9a09e590eeb96c3f4e33f911436b92065f2e0f1ca",
    "wl_privacy": "8195df4ccf6d82d5150f9d9269767e1491a703b68c203abf617ad29b26ad122f",
    "wl_partitions": "dde3d5e2c3f6d0c3dc9ef146fbec4842140ea588b6c954c778afc19996526d76",
    "wl_founder_moves": "19768ef186cfaf549e628418c81917add87ee81bbe954a47da507773a0c5d91d",
    "wl_founder_quits": "044deac3c2b3254a138b73a4795587bfdd5ff38b9739d3539bbf09be7013209e",
    "wl_crowd_orphans": "a7d3261eb02235c97c78e125842c51510e3489810347b11d26f5ed712be60e98",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "e495cd2269504ae2c25dfa472c65e5d40e0d688b4e24a2497863a19c028ac03f",
    "tl_star": "644406ac15d608da3867f0cf24326b098f2929f9f840108a1097a14c2565364c",
    "tl_ring": "f1359f259487a2b789b40c46c318908d002b79916dad1e43ae25c069f0c85628",
    "tl_line_broken": "97913c2246a98233ab54d7b9bc376114920a409930c2d56a6b39035b4c87ce1c",
    "tl_churn": "8b20af3a92aabb85090b9e71b903ff774f45b9751c10740388faf61bd319afbd",
    "tl_forgery": "d90d10020d086cda4134f398ac67d8fc1d8018b68cd15af63ef75a87e0715839",
    "wl_group": "563f1cc3af0bfdce1fa2ad3bb6b4ad4bc85823ccdc6ca6864d3e327b93e88c8c",
    "wl_crowd": "6f079103c49725ca99d5e5c335bf086318022a30a6edb8739523a464e9bd55b3",
    "wl_dropper": "3e85562d9ee28dfbadb83955ee01fe3bb9b67f2e051b89d6dd0f8698c22bc860",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "30222ee00ddca1c2187ca9903a97b9d3b22378ddebd0e503f62f9e4db6c3c394",
    "wl_equivocation": "bbfb26430ee8caf53654909b85520da0791c3f8d522e4f2a4df077f77f62fac3",
    "wl_equivocation_crowd": "9ea01ea3248e2a9d2a3b1c35dd2510f7f68b416a02bdd6db495e0758d6410e21",
    "wl_privacy": "06110338d35402c486afcb80e528c9782960e55f11b803deb09e3eda94aca6c0",
    "wl_partitions": "97482cd9afd33c54f313d8451a34f33fbbb5adc2e29b3dc36ec0b2121847a597",
    "wl_founder_moves": "bddf2838bd24076b0577579e95b12727152a315580e28d85a21b238fefa07485",
    "wl_founder_quits": "459d1d86ede557c6b26925817dab16104a8f44bebc8e69195f25d02bba611a12",
    "wl_crowd_orphans": "cdb22bdbfd5673b548b69a11e1942e8d3a73dbf1a83e2c052c5312d57c5e10a3",
}

# sha256 of `json.dumps(runner.metrics_report(), sort_keys=True)` for the
# same runs.
GOLDEN_METRICS_SHA256 = {
    "tl_line": "265c6e5216b5e2a7100a29c57bfa4d765a68d4bd14a2125aa6c663dddb723183",
    "tl_star": "891e3cc472567dc868b9162935ba93a582a681177175a7618b32b45d6a4e8b0f",
    "tl_ring": "24c3b6ee60f20e6de0cf214ca23c0942a44c2d72873a11e4343e581cafd2d34e",
    "tl_line_broken": "a53f937c456dfce0c741fbe3968b350c39b982e4f4e7ea62ae4cd349b8ce6095",
    "tl_churn": "9126b70fa0cdc566b00826d8dd79924842cc8fa2483f66b1606436529978ea2d",
    "tl_forgery": "5619c7fd2d8c46fe5bb94c355fecc66c962beb6ef32b956942a5152e51fbfed5",
    "wl_group": "d675db425e924fec258a67fe0806197e8279bddd5204f0b5577c56907dede241",
    "wl_crowd": "0bbb17cbb9bc7aa3b1512fe35157905d77a7a32eb245418f22f975ffa4af048d",
    "wl_dropper": "dea3c72034f25d56ace3e1bd9591d0c85cecd96e0a2605db9a3437114ace34b4",
    "wl_solo": "f025de3690468d406189d9fad3382ab2a3abc9ee2845e0c5a2440501d3669228",
    "wl_churn": "bfb39b5efd1d219bfff938947906a12aa18ddef4f644742fb9f18792228694e0",
    "wl_equivocation": "43ec02a7d3feab486f93c2a3ccafa0d67465745edc156b94dbebaf7213610196",
    "wl_equivocation_crowd": "1911f6d125451b3e39e3ff2dd005ef5cb8afac21e8caf82b724b7e302a78846d",
    "wl_privacy": "661783e4bcc2b0b0a437562c049a63c200a0797fec07b0b08f2d657e7551c088",
    "wl_partitions": "7e400f80a62a97c05738cc43e227fd89db3efc656472553fa2b0b99e170d7e01",
    "wl_founder_moves": "8ff9b009fade9cb7282108dd40228c7d890c279d9602b92c1148fce942ce8e6c",
    "wl_founder_quits": "51d3c9fe1ec8aab3793d13dd9ce919c4dcf51f7df8504f83efcc64d9e6823d24",
    "wl_crowd_orphans": "45ac6d2d9000c5b81403e5388a99efe05d42ba790ae79f5759cb6e0bd21511a5",
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
