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
    "tl_line": "d18859498e68351e2e8c54585e8de80c067f1e196baaac12d36e137b1a387cb8",
    "tl_star": "a2f6b69505dd819f22e578aae9fa1314216838748fcac04d2580c5d167e1f5e2",
    "tl_ring": "a9f12f145536530ddbf4e19171886783f53a816f923bb2f8df8c5bce8d74a930",
    "tl_line_broken": "de0023684ee494b2b8ef532bf90485f43b4826ee1392f4d4b0b7e929de550949",
    "tl_churn": "2288b29a06f6c319d2ec975217dc662f48fbc9d7f2b02bf47c623f8f6169884f",
    "tl_forgery": "dcd7a906e9bba9835cf58a8a462d79beb793328340fcbf998aabecea1d2f933b",
    "wl_group": "8db1b418048d89838a76a92f0d7fca2303da02e4b00f3d3965f470e342241c72",
    "wl_crowd": "c9621d6e5b64a0932bcdeae00ce179117e6696d410600fba496b8dbad9aac532",
    "wl_dropper": "15cc53e060e6b8c355b3524387a1f50e72c799e7753b652e28cb80e44e059f32",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "d144b55b7150585b6d0083332f9fb12f8a1e41e35c3145ea3aa4a1138217fb51",
    "wl_equivocation": "7cf8647c3cdb9efdc8d91272b8f92001631841de8bab9b7498faa2110483850e",
    "wl_equivocation_crowd": "61c1d77a8987a722f0652ca1fccbc5e65e5c91c0fe93b83a8d6fe6a1c6c32b22",
    "wl_privacy": "e5ccc0244e50609acade9681776038df989e3a9dff5668188c879fb60dec0e8b",
    "wl_partitions": "df3c9587b08e0392d4c8e7da8ef173dc17d13f4e85d59c0c7c55b6a318670964",
    "wl_founder_moves": "0e6b30f754ecfef8c076703bb5fc5ae04e333770056f98b88c625a63b46a9fbb",
    "wl_founder_quits": "8db2e9f9075b54c17316abc7c91d4acfe2ece101c7885924271c11ee8627d23c",
    "wl_crowd_orphans": "b488103d02e28ce2d058911e6105b7092a23bb13bef9b5dddad3fcde16c9a3b6",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "a7f4a8c355d0eea254c712431d53d48c2fa3f4ea62ea45ec23e780460134e47c",
    "tl_star": "3895cc5c2ca72e8395861b3c5375f5669738f2d5b06e00ce66aefc093a21d096",
    "tl_ring": "b1282cb8e96076be0fd6a992b89d3a15db5bd80eb031edd933d995a72c1d5911",
    "tl_line_broken": "b76282fdc93a8d7607b17a9a39e5ee79bb22f78e67ce918fb78820facda290b5",
    "tl_churn": "bdd4761a578290cbc8f1ddca93429587e874cfda900cf0514674adaf0aeaabf5",
    "tl_forgery": "5987282ff66815fd757c38829ab37a1cc58e9bb36959b7c19fcf85747c6a1232",
    "wl_group": "2bec7c5e9173609d285ca063d4993a43edfeb9c674c3759d70507f20db372121",
    "wl_crowd": "87a3fb5286db895d840dafa7c8264e42b43cc3369ed886843af27028eef62942",
    "wl_dropper": "ebca3345ed45e765b78dd856b289eb7577a1452a994d7d90d3cd0b200ab54de7",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "ec49b9b101b7b3766e41d58d0aa7bdd9e8d27cca68ab86d984bedc88ceb3aace",
    "wl_equivocation": "7f0b9a9bbcd09a20d6deb09bfadbed68b980f565aab40f01672affbaf2d3628e",
    "wl_equivocation_crowd": "410d3912002b30821ba59d020c56021ac00d3ad8b4dfa0a9a2c1dc6b6ff45463",
    "wl_privacy": "093117fd50b7371c7e8efacdce8973bb0e5ecbec9544385869b05d4d558b9586",
    "wl_partitions": "62bfdffd7176118e272b10bf2a0564daae931bc07c8bdbab98aa658f8736f66c",
    "wl_founder_moves": "9f00e88553827b5029584a8da8319574205b736cdf0a162b552fb925bf5a9682",
    "wl_founder_quits": "9e6a13ae06c2be122c2a18878b38eb810cbb73cee590c27f2ba717ef9d931748",
    "wl_crowd_orphans": "d41ecb62fb226c914c42100addbb8b525452053da41c33ac9dba400c2d575ea4",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "3c32498f2f1624473c7f5e6c464a24c84eb6ba4cac60c9751df7edd4a95fb41a",
    "tl_star": "cec3477848772f5140b7dd0870a543e63040502ddbe1da0ebed6d1f5cb2ccc2e",
    "tl_ring": "a3e295109f8bcda9c2f30c2e9a18b9af3a7d9e4b09d2c16c966d2d3b54cf5050",
    "tl_line_broken": "d670c7b629bc7b97d2a5eb91f7ff71e75c6a77a0accca90b8cda55bc33ac456d",
    "tl_churn": "83ec9cf67aa083ec44c2ba7a35493d2bf360dad0b16ba0a21f998b651b0c0547",
    "tl_forgery": "9e78d7fde1a18fe40edf0c82447e5eba2f61ad9446fadd7603024c9d1fc48cc8",
    "wl_group": "7e2cde501057d92072b6b8e59e8408214cd774442b66807012f6ff7ebbce6aae",
    "wl_crowd": "4ff90715bd7539309617bddfa0684da0fdfc329c5caa13967b1b91452855c883",
    "wl_dropper": "d0756cf81eadd1263e3a83db186e8d4a11a07612343733d248dc12feb83c83a3",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "574125efc4c529c063fefc70df440a12924be84110d013b30f3feb8fcd9b9c51",
    "wl_equivocation": "6143c6e907dd0320300367290c52b07059b4ff611e125ea5c9034f2c3b08e72b",
    "wl_equivocation_crowd": "5f6253c9d9776f7ffe32c251359058dc9d253bb3d4affe9281ca796f7750f00c",
    "wl_privacy": "41357f4612775fc833d36980aef7f64331c2a685963d6e0fe1037383b76401f3",
    "wl_partitions": "bfcc40b9451f9780a28dc18dcaac4d9c5447a81f842b5d915db072af45190293",
    "wl_founder_moves": "da03af1a515a48acd035104c6538ebb8ffbd5d323b01e01f429d1e4e8293d807",
    "wl_founder_quits": "2cf82507da01fee05d531b11d404419ff58ebae7e74db2fc3cb429d0d010b422",
    "wl_crowd_orphans": "a6773f779dd1b01fced32ea8697b2f55f1c39a9980218d83ceea40d30ad5d78c",
}

# sha256 of `json.dumps(runner.metrics_report(), sort_keys=True)` for the
# same runs.
GOLDEN_METRICS_SHA256 = {
    "tl_line": "866812a271aa7105731127c6a6a96e553a0b950a8389635d074064d85ffc4eff",
    "tl_star": "67141a4b5cbce903272318797e50673b8707bc232e0d8ad7a0da211daa3c6715",
    "tl_ring": "acc595b690de9ccb4afcfc5fa400813833b82952f37adc0b6a7663c430c8190c",
    "tl_line_broken": "0600d2a37fb83b4f8fd524ea52deb05ec1f115c67c3fb4ab2166c9c250c00018",
    "tl_churn": "2e8331993eb2b74e184500f57d66935e01c1a21bbc0e3f7ca39bddfb133ff704",
    "tl_forgery": "96348515a36e654b04b93b56c795e165e81eba1a555f2d45324e64dd175f49b0",
    "wl_group": "15824cfa842a6018734dd06db57d1e2f4fd85a2b6fc96ab80643b9047918d7d3",
    "wl_crowd": "527da1b921af33cf3b516c4a5578f631c32a2fcc51e506581b1e9a48691adef6",
    "wl_dropper": "9d405340d53c6bf84b8a05f1cc8ede63af9cd20ba68b77d7ee8ce55919b87118",
    "wl_solo": "f025de3690468d406189d9fad3382ab2a3abc9ee2845e0c5a2440501d3669228",
    "wl_churn": "7cd4a287c9bc09678324d6b198f17ab66dce1f782734cef03b9b37d7c286b924",
    "wl_equivocation": "fa6453db4ad67b219825577f8e7395ccb7d20098b578452d389011ca1af40a41",
    "wl_equivocation_crowd": "422e3ad2c36e37059c9fedf7205836da0c0378f1d581d081763cc1ad4a5fb376",
    "wl_privacy": "317ba39c0f31dd81761785757a1f6db34996636fdea64441a5a272a56925b8c2",
    "wl_partitions": "a7cb5fc862d7fdc90985010a9447236472e0c751953e8a40a8f0de6fae6968aa",
    "wl_founder_moves": "f21c12335d0d925415470c8b607c906111bd223aebcad49abbaf953d6ff1ff5e",
    "wl_founder_quits": "3dea6ed324e57369955bce36840bdf10912ac807bbaf5e71b37ec20a92ce0b93",
    "wl_crowd_orphans": "15afc9d15ec24bd5f0b9968e9f703fc7ef58e7e939c906e7d9db41330c623136",
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
