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
    "wl_group": "4c9fb0530ab66f8d62c3a7cccf48030bea96a20e1da212f2074a5e99761fe95f",
    "wl_crowd": "65d6deb35c86ec5b80be85ba50379bad98c00448b5ab252f3906bd21cf1a01b8",
    "wl_dropper": "253f07c79eedec58ae88af0f4f7e4bedd86b88f953041ff8a738b7d082576696",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "4b93bb70719d22bd53be9912f3e41e05841c9fc0225ed6c6ea6e64354095f04f",
    "wl_equivocation": "65fd4f41c3b30826ca7e3aba439ae8f270c24a63bc44bfe1342e0f77ffcdfe9a",
    "wl_equivocation_crowd": "c58b702106b2ca08ae6320496fbbb009d633ec9c1a92a490b0b389ad2201cdf6",
    "wl_privacy": "2b888202a4d31f3ab6d2b5eaf77fabd797dcfd04421a4b3ab2191667e2748a0a",
    "wl_partitions": "5f40757f1278a06365c2153ac8ba84670908023265aafe576ce504f7490edfec",
    "wl_founder_moves": "b6f6cacef1dd4f3fb83d46fcd42da1f5d80e82283f55317f714430af2fe6b695",
    "wl_founder_quits": "17f72f889ab1f04c42a7d996a10ac8fc660fe7db9d9e1b8591ead45b28685408",
    "wl_crowd_orphans": "84933f3cdbfc7fdd7d0fd324508f6869da6478e384767e76f8ea5b53710cf1d1",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "a7f4a8c355d0eea254c712431d53d48c2fa3f4ea62ea45ec23e780460134e47c",
    "tl_star": "3895cc5c2ca72e8395861b3c5375f5669738f2d5b06e00ce66aefc093a21d096",
    "tl_ring": "b1282cb8e96076be0fd6a992b89d3a15db5bd80eb031edd933d995a72c1d5911",
    "tl_line_broken": "b76282fdc93a8d7607b17a9a39e5ee79bb22f78e67ce918fb78820facda290b5",
    "tl_churn": "bdd4761a578290cbc8f1ddca93429587e874cfda900cf0514674adaf0aeaabf5",
    "tl_forgery": "5987282ff66815fd757c38829ab37a1cc58e9bb36959b7c19fcf85747c6a1232",
    "wl_group": "f7894cee95bb3fb24193d16a87c0342129d56f83f4e946ada5aea7cbb0791303",
    "wl_crowd": "6e38d991e159dc17f372b5058d499f4d8552d16dd53be12f72714a7d92f019f9",
    "wl_dropper": "514f0699ac02848fe1becb543e844f9b07a99e67485d96f7ac8a4498e8217ba7",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "eea0087686b5647ae7f94e4a228c25cbee955f566501d65ea9a083edc4e27add",
    "wl_equivocation": "e4285a71c305108e504d383220a2c7a477085ead850025dbe4a1b54da2c2ed3d",
    "wl_equivocation_crowd": "b95721566f6c3938744a9c6afa01dc8ad093e2b605fbf2ae1b322321394cc8b1",
    "wl_privacy": "14635c8a543050b2c5b59bfffb4a348af603dae82d50fc2b6f087738490ca2bd",
    "wl_partitions": "0e3972dbf17021b9902828af516ce6b27dd5dd87fe6da9552f952fccbd7db01d",
    "wl_founder_moves": "7d8e4602ba9980142fdfbcf7d807741ff1873c61438f4cc2508f39c485789640",
    "wl_founder_quits": "a5474ac6e77de42a4f0f032719ec9acb3c31ed1c7f0c03e01669de033b4c43b7",
    "wl_crowd_orphans": "d895d9388601e4025605d9002427ea5a42c30d2a63b7eb9531778436934f053f",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "3c32498f2f1624473c7f5e6c464a24c84eb6ba4cac60c9751df7edd4a95fb41a",
    "tl_star": "cec3477848772f5140b7dd0870a543e63040502ddbe1da0ebed6d1f5cb2ccc2e",
    "tl_ring": "a3e295109f8bcda9c2f30c2e9a18b9af3a7d9e4b09d2c16c966d2d3b54cf5050",
    "tl_line_broken": "d670c7b629bc7b97d2a5eb91f7ff71e75c6a77a0accca90b8cda55bc33ac456d",
    "tl_churn": "83ec9cf67aa083ec44c2ba7a35493d2bf360dad0b16ba0a21f998b651b0c0547",
    "tl_forgery": "9e78d7fde1a18fe40edf0c82447e5eba2f61ad9446fadd7603024c9d1fc48cc8",
    "wl_group": "49da9970b0619effcc88d9524a78037358c38d2231d7fdafbcc557f57cbe01f9",
    "wl_crowd": "89debc331793dab0576074488b21f0c2d09b0a8521102db11199a67183c19e06",
    "wl_dropper": "f9c5d9644ece7ff838c850994d425b4922ce076d1a36a8a489717b260b7ae6d7",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "d42c4a60a839ca116fb45af8560a040b4fe3872f5b47ca8811b522fd1a9ea038",
    "wl_equivocation": "489d662fad4d37b174666b9e24c30424d14cf3510c66c4247705b7ab35a3ee69",
    "wl_equivocation_crowd": "23ba5d1addb245d79a61ffaf1593c5f9978864fa7f9590a464fdabafd9ef7ac7",
    "wl_privacy": "f72cb37a76af7606889898fc0969856cb177d5393e4d015466a82b99dfc7862e",
    "wl_partitions": "11a68aeb2d78ddcf56440b72a67b24d86502642081aa5f4240db54cabfc9b78c",
    "wl_founder_moves": "43de0153ccd3c9119a0dac01d1ab8c3955cbf7d4b7825238f26091992829e365",
    "wl_founder_quits": "90ad2fd7833400916e47ca1fe51f71fa057c879322bfb63da9a9335e459de692",
    "wl_crowd_orphans": "86755761884b80cf96ea3ef0ca56f291e23b2272852bc73586d6a13529c219b4",
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
    "wl_group": "fa36220ce242bf45227096d10e126a682280dca7854f223799d2054fb3e01bb8",
    "wl_crowd": "a663a2a3b6d6729734a39212ee738adff499c975124ff47e6d2d2699de9f5036",
    "wl_dropper": "07ccb457d710cc8de6f0797e3bcb34799436bcf448ecf30466209310813742a0",
    "wl_solo": "f025de3690468d406189d9fad3382ab2a3abc9ee2845e0c5a2440501d3669228",
    "wl_churn": "1a61e41ce52d4eea722129712cc50f51c2caed54da3bb03b9c87fc6c95b39c9d",
    "wl_equivocation": "67eeef97824cb1a88764cb91982af4e40dfd7ea1ae59eb073dae6dc7133222ff",
    "wl_equivocation_crowd": "6f04ed705512c2971d65147361eed80d5aa92dde33a1fadfbc901e8c846b39b7",
    "wl_privacy": "fa95e63b1b583ce81dc1d823a70559516bfb95ed483b8e7984d22978e556d0a9",
    "wl_partitions": "09b19e99573d74fce21166060e663548f1d9fe237cad0a074205b7b843aedcda",
    "wl_founder_moves": "a06d1cc101bd3e8873b038a18f0ef98ec1cdb01c85fadadc7fbd805e6594e29d",
    "wl_founder_quits": "e53c8bc239c67e6d07288250710d1b606b33422681674348fc6373f8c7ed6325",
    "wl_crowd_orphans": "d0e0b850df366aea882a9e10d750e01f2d91eee1f3f0260c306ec55308c73466",
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
