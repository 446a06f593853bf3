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
    "wl_group": "5f42645e780b856034ccaa7d3bb7f7fb0274da7d377e1a011b0ad83d3c1255a2",
    "wl_crowd": "d4a652092a627eeec0d1a7fec6281f9b0a04a4db9205cb2ba6cb0af57dca06fc",
    "wl_dropper": "6fbc8d5ccd8a73209a5c5208fabfa2ac37e522292891a9f1955b69b9b1cdd578",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "5169152fee4edb9f6b017492b6625ce217e9cb1c06d4a284f47fe8a7ccba80cc",
    "wl_equivocation": "134383a7c114980f7e85e78cbaacc74503954d9f3b800cdaabe218af7124869f",
    "wl_privacy": "c070e870c9629e52a8b26993ee7e0429f3249e28a79d8c0bc23332b4b111f464",
    "wl_partitions": "40de39ff72e0b36a58b5fb1c1c6c5855dc2bc04ce69e62d0059488324857c6d4",
    "wl_founder_moves": "f71af1acbbf4d8011c15d779db243eb5a4558f9e78349345e06ff6595b1aa24e",
    "wl_founder_quits": "2a71398ae08499fd05df096cc3422a9a5ef53188e48383bf0f334298b2b7f3be",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "e5396e60aadb3936aa0e095e17f29017f89ec6295879b0f3ab375f9de445a8a9",
    "tl_star": "f2c9a3725d31defa832958d342d9d2a348535fe4edbd238097e9ff74206bf66e",
    "tl_ring": "681eeb59233faf2b9ac8e63ab3d6070d73db8ddc363606c7f18d0598b0059767",
    "tl_line_broken": "943e15b2bac6b1de3198bfa5ad4319a13d2cf1ecc161b054837cdd42f9d4c0e2",
    "tl_churn": "9408f4aa8abdd43d1ea7988d3028b07d918d2d437ccf4db9e85c42e618724c37",
    "tl_forgery": "2cd37456303ddf72733e5a3e09cb5f856aee9589c30225cae1a0b54b0cbd3774",
    "wl_group": "803bb93a89ad86d23390c7bec1464e7fef4e8f652f85ba8c6acf2955a3c8d41a",
    "wl_crowd": "ebbbaa5c9f4207e61e5ebb7ebead402f9f14c8b726d166447aaff753eb4de8bf",
    "wl_dropper": "7badd677d98350260aa2c0bbcdfc61e54c47d978ea063daf68f5e5b05fa2439a",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "64c50cc438e63cf6ea49c47af44e9229590372f9a59391462546b68dc096ea1e",
    "wl_equivocation": "fdace14a28585f375f576b93e73928b77dbb7230338735c1e7f5a628707e62b1",
    "wl_privacy": "0442869927350897dcd9ba155a3ec883c0f1194cef899eaed6c00178f3733c7d",
    "wl_partitions": "1515ac2a318c72f92eec45b35a38c0b43cdd8249cbe44511da4430f543ebd281",
    "wl_founder_moves": "4a6802f0e2563d6c6c07178e4b2df6219fd2ac147f499f5bd4ee29ad4fd713e8",
    "wl_founder_quits": "6c8dc0d1d4350fbcda8588e47a8173e5d7088b36687b955adddb236359be85c0",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "11410788e945205847240a37d2ac21c407c1eec751a30186a1b2c4a7e8dd813f",
    "tl_star": "7727168270b4c1aa1cac480da0c0deae2665d24bb1040913d56a3fa1a72f90fe",
    "tl_ring": "394b73123069e38301da7469ccaa81ea974293db19985b87cd3ea165152f1923",
    "tl_line_broken": "2322fdd1edcb3a476ce9c0080172dc2fc8550a580bcb7fb8c1be804fe6a0f3d9",
    "tl_churn": "fb80228119fa4f981a6bd55697e2fbb0622a58beaac40f2ef68a2de94132ae89",
    "tl_forgery": "3fcd4d5d47a2d6e1e2f3f285f8311531960c77a6404d65c1a28273b83975dc32",
    "wl_group": "262064aa05bc1efb87e6d00cd6eb7f1e024ccbd01da5cd0e602af9af372b3dc3",
    "wl_crowd": "a5129e576322b595ee1d8012ced2655e8c0489620ec0faa4489d1cc5b0329bf7",
    "wl_dropper": "30cb763f72357f8f78a783cade58eb12a6eddecabf13f28c93e9c890d6febc10",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "2518a10512b4065e1de07da31077fb5987532363e263549478b6adcabca098c4",
    "wl_equivocation": "074c812a4ca5b2b2409137d78966032ae00e10130fd0a445305adb8268d1dc08",
    "wl_privacy": "9f11e917a8c05c31ba4bc3038579e15e82094a1bf79a2d910224408a7b2810df",
    "wl_partitions": "e4649769e5c8989f4caa06cf685f019dc960c1d947f918e21e7d41f61886eda6",
    "wl_founder_moves": "7088d51ae6957f4bc6b3f0708e5fa17b2b556845b1c11976fc7d98da959c23c3",
    "wl_founder_quits": "3e8e26105e0ffff2876a89ef64d9253e18a520d0cdb9e2b012635f4c6b019790",
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
    "wl_group": "0d7667228fee8cff1dfcd6d5122dff4bd8ad5c272b000284a4ee5c76731c44ab",
    "wl_crowd": "fea215e7015cc001f8700b901492c837863d64cf9050fb6510c287b3a2ce9921",
    "wl_dropper": "97ae7b056bc4fa3b79ef22fb7650a07b90942b4d1692687b01d1cddb9c61e2ac",
    "wl_solo": "f025de3690468d406189d9fad3382ab2a3abc9ee2845e0c5a2440501d3669228",
    "wl_churn": "7d850704298de5d0d9ec7bf9446af357d2f2ce6d01915b93688c16cc4954bb9f",
    "wl_equivocation": "a0a3bfe682929d9b89e55a2a8cfae54aeeeb18c1c41eaaa27c89b8c151affe23",
    "wl_privacy": "c7714ba92e8fc31debc65e6e069aa4a8ba986240bea22899e287168cb7360e8e",
    "wl_partitions": "16994b9b99f8080e01f279088d2f9d8a8cc21a44fa5d694726ae20d7c814e50f",
    "wl_founder_moves": "edaf715847375bae20e6b07f00c724bb8d4883051054c696e3911c96d3372136",
    "wl_founder_quits": "50847ccf542adeecfbaf92d0aac5ef79aaf61037f4dcf6e07994a486e92cfbc8",
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
