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
    "wl_group": "40d46ab0bba8777262b0269e0dca3a8355752ebd24fa74bc60dc8b5282a8f3fd",
    "wl_crowd": "8bcdb6e99da9554852a15198935cd3f2004f2f9377d98833f3f97fdc69221c62",
    "wl_dropper": "00d7e83eccf7fbae402022a567e52220d78981df55f5fd374d03c83e35e55b8a",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "68799473966a832c9c8eb1c2c71bf47a5e7a4ea2ada5fa71c3921cdbd1bce2a0",
    "wl_equivocation": "a06cb4a71998be4c6533c3d33e9a1f2b706d4e6d9894b4e97782c66716fd65a2",
    "wl_equivocation_crowd": "c0febc54dc60d67a0f9f9598293acfaaef63e1e0bdb4a4f77500143b33f12fac",
    "wl_privacy": "d790902f308c434eb18c20bf31d6b75ee5b150f20c0866f6581fc5a788f47e5f",
    "wl_partitions": "338966570024ad78513c4cbed118d94114c770af9310a2654f092f39e23fd9f7",
    "wl_founder_moves": "a62906a673b4e1f2744c442dd0b018a66dab9c3a6e174f27547ff5b7401beb1b",
    "wl_founder_quits": "91fb68656fa4375bd94c7e753f477bc8cd8791d92da63da86cbe442a6bf48c2d",
    "wl_crowd_orphans": "976f2ac3f771c198444490de9e231e30c5e85eeae5b01c824e137e18c1fe4002",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "b0c5c1b17d5c1a5d023f69319be79b1fa55ab39913d26ffa81bde322b8181a02",
    "tl_star": "b7d6b1ca94a0f66de4fa60566478427293fc11919f98429cd221584d3d3be99a",
    "tl_ring": "711bb91ea50ab9a4f57b04470d067084d9fd34c424194739fb4e105b7fe0c3a3",
    "tl_line_broken": "8b05aa8a9ab10e2107d511489af03c10277ac71272d32760c22aa4f68a7afe70",
    "tl_churn": "3377661738c36305369d2ad097a2cc8d60ee24c5126e35a6a91d02d7c6e0c1a6",
    "tl_forgery": "12473b0773c5b6e1424931ceaf5849fe40552f7469c31bfe14648e027fbbadc4",
    "wl_group": "eaec1be56ae92ca2c9dd5f54f146e22daf32442bca835ffbe57b19118d1a7ba3",
    "wl_crowd": "ae2e78ef159963a5a4e6559a79ddf8d3407697f3b2baa4b109e17f8588f1fc0c",
    "wl_dropper": "a3ce2d41f146c211a082f03f4313664e3756a3b94db6369bd8f959c34cbfbc7a",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "b9bad30586ce909a6124555bb62c175ec1af3b82b7f587873fc239142298dddd",
    "wl_equivocation": "7948ab91ba4cc9be774bdfd78f41a803670d960b7b03f565f15b190d38be0228",
    "wl_equivocation_crowd": "5ee6a2259ae073453c0ff283a9bac62d6dfeb06203e0e5b40a2ec1e8f0edf2ab",
    "wl_privacy": "b9f970eba723c8921349d372c798370a256a99d99cdd8dd26e2839630957e4aa",
    "wl_partitions": "32d0f2966bd61a8e692de4df2783ee2a8d641c2a0597fe737e8d4a7d574f6081",
    "wl_founder_moves": "43f05ea9fca479c1cd65b509f6f4d0c28806e5bee0520ac7d224479692f46c55",
    "wl_founder_quits": "08ec459925b30739aeb6927c16a9e2d63ec8903fd330ef6b19602a537cd35c65",
    "wl_crowd_orphans": "e541f63e54814c2c99470305315d231a3fbe1188be437cf2e1cc1fce2966f2ef",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "e495cd2269504ae2c25dfa472c65e5d40e0d688b4e24a2497863a19c028ac03f",
    "tl_star": "644406ac15d608da3867f0cf24326b098f2929f9f840108a1097a14c2565364c",
    "tl_ring": "f1359f259487a2b789b40c46c318908d002b79916dad1e43ae25c069f0c85628",
    "tl_line_broken": "97913c2246a98233ab54d7b9bc376114920a409930c2d56a6b39035b4c87ce1c",
    "tl_churn": "8b20af3a92aabb85090b9e71b903ff774f45b9751c10740388faf61bd319afbd",
    "tl_forgery": "d90d10020d086cda4134f398ac67d8fc1d8018b68cd15af63ef75a87e0715839",
    "wl_group": "3e98e1f2b1b730f9034dbc975455985be5c9af8f99f1bef1b260ce6802db6eaf",
    "wl_crowd": "9fcd7a673f0db9702b37919ebacfcb19a53daa3982890aa4db7c1c6299fc1016",
    "wl_dropper": "5c7b70bf632b61229eb161f0f16596e929b4b9042bf737de45c779eb816090b7",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "d64aecbabfdc1d6f24500355283583ee0b3342220a91e230998d9f4b3435803b",
    "wl_equivocation": "33e67a304520aa2d18493662dd587a8148000b87b43c7762b6479b303354637b",
    "wl_equivocation_crowd": "56ba2c1d95d41cceb413ea081b8d1f54ccb5fed1ce117645adedc4102382f67b",
    "wl_privacy": "c1fb81692178b41eb0f4aa10416bb5afe44c99aa15840ef801e704afca280847",
    "wl_partitions": "24e89d49b93e81c8554ddd6d22dd45ee77aced329eaff8eab0e148c2fb36ef7b",
    "wl_founder_moves": "a54facc943959279acf8dad3e450ae95369abccbd3a720f40ec8e9115b4a9056",
    "wl_founder_quits": "b45e2fc38f8ab9d884adcc625ac9c86f15cdc9e77eb2be0aa12bd26b6afda07b",
    "wl_crowd_orphans": "874cf3d04c8c7e4cb4ac0330cc459ddd1651aef9ad637ca08bddca403a0f5169",
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
    "wl_group": "a2c762abaf647e422563a9125d18d895cd96afc5e854121575d64c282998d012",
    "wl_crowd": "ff469c24adf1f69aecf3aa7ba3ba48e6b26fdd2c3bdaba3f43c47b3956538491",
    "wl_dropper": "de6502aaeacfc014013126261d32f99a1e914a6957ec1aa688034c462ab8e9a6",
    "wl_solo": "f025de3690468d406189d9fad3382ab2a3abc9ee2845e0c5a2440501d3669228",
    "wl_churn": "3383ac2376e813047521547bf3f0373763e7bd9a2ae8259cc101229d9ca61619",
    "wl_equivocation": "6849da2d63ed802fc49c1f78cd9deaff8e11ec1adc8c97918fb7c6d6221fec4a",
    "wl_equivocation_crowd": "6f961fb191fac9c7003316caae387ae0ab633eebd49629a4c2e1113a7806fbc6",
    "wl_privacy": "8d42f0fc77237d567c813f87101c04fa2040865270153ec9952f56ef8b34410b",
    "wl_partitions": "7c3910d0da15eaa0e9e50ce8d19980854e3d2abdb58939898997c3595df3926a",
    "wl_founder_moves": "08ce0873e5578e3e2a98b0dbceabe1ae783cedd737a8370102a5f577634b27a7",
    "wl_founder_quits": "3dbc394abc270dff8145e0a023fe6d8a559f157208a63f546e0191a13296272a",
    "wl_crowd_orphans": "0f5167be6a2bc89b6a09983fa65e460870df242e29e0edd8c42cd27b349a16a4",
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
