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
    "wl_group": "adb65dbf047b8edb4f50996cb26d415854f5ef053377457c0e50599ac9ed12f0",
    "wl_crowd": "c4d7e00e275633a06ac13321b7187ac59b4a7cbab936f58abd2556d1f29298c3",
    "wl_dropper": "4d0d28e5c95fd0062f4470ceca032f35671b2a09b972bfda2159c410b40f8f0e",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "cff41521c751daaf6a3584b8c79ea06d35ff58946e3a3dbcfbd297678ea9170c",
    "wl_equivocation": "fc70885cb0ca8c8d968186ede9fdfd069765b6aa118a94066142c07e5f6affbc",
    "wl_privacy": "fed0af75872562cdb636b18f2257a5ab3fcd230a43568e583f693de7a692f9a5",
    "wl_partitions": "856f1dab31f022515b34f177a0e55fc4a33b895d479bbecf9174d9a247bab412",
    "wl_founder_moves": "5236dd11f3e34872388361a73af007f9692e2bc2582632a1dcbde091254baec6",
    "wl_founder_quits": "d0a199a6a6199d6875fdb844d638f83b5a093677ac8f287b8f28a1925da253fe",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "a7f4a8c355d0eea254c712431d53d48c2fa3f4ea62ea45ec23e780460134e47c",
    "tl_star": "3895cc5c2ca72e8395861b3c5375f5669738f2d5b06e00ce66aefc093a21d096",
    "tl_ring": "b1282cb8e96076be0fd6a992b89d3a15db5bd80eb031edd933d995a72c1d5911",
    "tl_line_broken": "b76282fdc93a8d7607b17a9a39e5ee79bb22f78e67ce918fb78820facda290b5",
    "tl_churn": "bdd4761a578290cbc8f1ddca93429587e874cfda900cf0514674adaf0aeaabf5",
    "tl_forgery": "5987282ff66815fd757c38829ab37a1cc58e9bb36959b7c19fcf85747c6a1232",
    "wl_group": "2950369aa4a892f1c793b7be7576622c92f5a8964319e4edcbc07858adcab612",
    "wl_crowd": "c6e89532be82a7c6f3e76496f236c136331206d42183334ea0dc8029a7577f7f",
    "wl_dropper": "c5d7c5854a4099e957258ee0eef0832c492dc93cec1c4358c78d8bd9be5d34ec",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "2487d472bd5f929e56f1e6d64a184a82a7c991b2e1cf7bdcd5a8877da48aecf0",
    "wl_equivocation": "15ce1f49930b4b7404be33a21e525b825e8320ecbd593c40b2c35109c4e372ca",
    "wl_privacy": "21bc37a890a997313c283531da3b2fc4a53b3fe3a13358c1ed621813ae329085",
    "wl_partitions": "47b57cd4a907724ac2209dbb62b1d2e3365bfd25dd15a87840e9787b00db913c",
    "wl_founder_moves": "ca5664ab03aa63d411f896dd4ea5f311192be9fc41abbb5381e9d4cef8a70ee3",
    "wl_founder_quits": "e8f306c0bcecf6070343848a029d37198abf30ab2813c48682f23e641777c541",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "3c32498f2f1624473c7f5e6c464a24c84eb6ba4cac60c9751df7edd4a95fb41a",
    "tl_star": "cec3477848772f5140b7dd0870a543e63040502ddbe1da0ebed6d1f5cb2ccc2e",
    "tl_ring": "a3e295109f8bcda9c2f30c2e9a18b9af3a7d9e4b09d2c16c966d2d3b54cf5050",
    "tl_line_broken": "d670c7b629bc7b97d2a5eb91f7ff71e75c6a77a0accca90b8cda55bc33ac456d",
    "tl_churn": "83ec9cf67aa083ec44c2ba7a35493d2bf360dad0b16ba0a21f998b651b0c0547",
    "tl_forgery": "9e78d7fde1a18fe40edf0c82447e5eba2f61ad9446fadd7603024c9d1fc48cc8",
    "wl_group": "1b763cbd2a30c85d3d9db613dca92f8414cbc0e4da547ee2b94531f113117b49",
    "wl_crowd": "a40f2be407f652b58ceb196c93b2b88b244a9a75c2a0fad1da985f5936572133",
    "wl_dropper": "97c49765adfb0a2ff1412f91cd7b8ec7ddf5a7667d7725be08865ed5fab351a4",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "8885ec867f026075a23bb12e92413d47ddff317346bd8f7be2588b9080be8cc9",
    "wl_equivocation": "a7ad0f4bbfb5e53923fa4b3c7ee0af2ee17c88751be4c8cebae873785e07da6c",
    "wl_privacy": "da13e48c286717e23b7121bddce385e144c1a8ba84c8840bb43090dc6ddecd24",
    "wl_partitions": "4648fbb799695762c9de39bbca4091a480ebbdab8522481af38a927579691783",
    "wl_founder_moves": "dc873211aa8acb6e1bb08f7158c48c0672bd532ee19f0254bc909bb3b42becd9",
    "wl_founder_quits": "94a5b735509a93ad91490a2ce28e9de2350d065a32a567f4bb89585562a29c9a",
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
    "wl_group": "81434af663d9e42774669e11375af195b9903d72d66da4c2788568ddf4cfbf35",
    "wl_crowd": "29ec3220a52ef8f3a2be22bfdb57cbd3eaba921672426cb557583d86f497a0a9",
    "wl_dropper": "3fb6fe882bd0feacaeb498644e76dcaa55b1d2761be53970912f66c04e41eca4",
    "wl_solo": "f025de3690468d406189d9fad3382ab2a3abc9ee2845e0c5a2440501d3669228",
    "wl_churn": "f9abd61aa39a607e202abe1190cf0ec0ea8e6cdfade62c1985fcae58f06ce43f",
    "wl_equivocation": "af56bd4800eeefdc9c058459ff311e6623d8a01fe63c8dec364310b491cf55aa",
    "wl_privacy": "cfe15b5ae80b1a4db0983b4f128ded1354f5bba11e6348d28340c9f6550cf2ce",
    "wl_partitions": "8d7cc9d0547eb9adb7de239d29d19e524ab2181eb218f5b6e9b151b2a61b8441",
    "wl_founder_moves": "771871b2d7d223766af65eec2d90efb5f3e37d05074c0f244bbaa3df329f7f2f",
    "wl_founder_quits": "1c3491bd8d4e691dc901217452100daf763bd580791e5e6498007ac7bb072f07",
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
