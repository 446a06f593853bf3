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
    "tl_line": "26d0f3e6a542da88530bb56488f7eab7410080d1e50e7075d60a99d1fd9fb2fc",
    "tl_star": "16ff1e410b9e6173bddd79e10f480bd8e3e3b07751a2eaee842992345ff9e203",
    "tl_ring": "f1cda44ecd23e9f3d0db9a8583998a7d02f73f662d1b487d14a9713483f3f201",
    "tl_line_broken": "041ae13de0c42331ee9b5a7f9ffaa1cc710a3d963768963b3dd3bad988da5404",
    "tl_churn": "330a6edc6ca4e7e3c4aa5b25fe6613541f300540811e9c58f4318477978928b7",
    "tl_forgery": "49d8ec6aa915a6f8c4d3cc6ead4ba1fc4c433dec07e60b641cdb4d70934f0a46",
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
    "tl_line": "e5396e60aadb3936aa0e095e17f29017f89ec6295879b0f3ab375f9de445a8a9",
    "tl_star": "f2c9a3725d31defa832958d342d9d2a348535fe4edbd238097e9ff74206bf66e",
    "tl_ring": "681eeb59233faf2b9ac8e63ab3d6070d73db8ddc363606c7f18d0598b0059767",
    "tl_line_broken": "943e15b2bac6b1de3198bfa5ad4319a13d2cf1ecc161b054837cdd42f9d4c0e2",
    "tl_churn": "9408f4aa8abdd43d1ea7988d3028b07d918d2d437ccf4db9e85c42e618724c37",
    "tl_forgery": "2cd37456303ddf72733e5a3e09cb5f856aee9589c30225cae1a0b54b0cbd3774",
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
    "tl_line": "11410788e945205847240a37d2ac21c407c1eec751a30186a1b2c4a7e8dd813f",
    "tl_star": "7727168270b4c1aa1cac480da0c0deae2665d24bb1040913d56a3fa1a72f90fe",
    "tl_ring": "394b73123069e38301da7469ccaa81ea974293db19985b87cd3ea165152f1923",
    "tl_line_broken": "2322fdd1edcb3a476ce9c0080172dc2fc8550a580bcb7fb8c1be804fe6a0f3d9",
    "tl_churn": "fb80228119fa4f981a6bd55697e2fbb0622a58beaac40f2ef68a2de94132ae89",
    "tl_forgery": "3fcd4d5d47a2d6e1e2f3f285f8311531960c77a6404d65c1a28273b83975dc32",
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
    "tl_line": "f21f80692d05f7c9f5203534b3531e066a32c45ced19beeb259c1c57b6c56181",
    "tl_star": "fa19d3e87ee65f020426023cb725a78f3133b078fadcab51240b98e88b5ffcf4",
    "tl_ring": "d2910366becb4079c7ac4d9a678a1bb6ab1d1bc91efb4a0ddfbdcadc793dac88",
    "tl_line_broken": "981f6a1d8688f612adf4b55f0283c7cec085bb80f6f1b98128d9163fb44f25d8",
    "tl_churn": "5a6503de270a360e9c8853c1cb3e63989f7023c5bdeec458cc9b893e759f1e07",
    "tl_forgery": "f0291ab9184162b9e09b4f2afd943b111c5d349d0362da368dee02ddf2fe200d",
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
