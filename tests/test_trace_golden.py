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
    "tl_line": "c270ad31189d1f7286bfe094a90782a72796dc713560ba07f3bce29aa4126620",
    "tl_star": "c681e6ec8871c9c8c65bb800d5eff8f549f0c3655c8f5405ef3cf3dd7486b020",
    "tl_ring": "ccba0ad20fd7a31212956b99645fe67e2dfe4e891a78e5156973773a512518a3",
    "tl_line_broken": "aa16458d8874bce3e689d4c5d06a8ab8d27777bee08c43c36afc709b19940def",
    "tl_churn": "38cb396a71b82f8656539aef2a0962b8f0048fd60fd1dc2c55a92703a993afc4",
    "tl_forgery": "859f88e094277e71446b41abb6a58f038b742fe381157650e3a60992d33ea16c",
    "wl_group": "fcca30a961d60e1aec5a4cd5ac9d21496eaccb19d533377e4dbb80a65126a4aa",
    "wl_crowd": "69fb4c2fed3b9e6f398f4883c3b8ff99663fcf060a0fcdaf52ce78a93d412a58",
    "wl_dropper": "7b4530ba120c8146b5d03929fd0c3fba4f85d07a2e1fd68aa2b7fa480a5a1c8e",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "6e47609c0e7cc33e4dd08af95762576cc2751808f31c123f03434a75cd720293",
    "wl_equivocation": "e0b545decc55a4f0cb337fccf7710d57e3769bf4bfa251fb4f087ec549673e53",
    "wl_privacy": "42b7fee3f564344c49413cbb3c97c441d65bb5f358ad860abda9c79716f7de5e",
    "wl_partitions": "329ddb62867988a6cba575ae14ec298119cc505eeb4e8a2e7514011c3d8204f5",
    "wl_founder_moves": "117d4430cbcd6204a88cc914a27ef505a2b4e7808c28f886166cc5582e0822bd",
    "wl_founder_quits": "4453dcaac0ecda6f5b67814e9f77663c474d25f1ebef53a5ceb4b416c1d9b19f",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "0194142b36fe1d83833cc883c581a6bc9ada4f117105492534a0610a41515238",
    "tl_star": "80f93727062de1cd66b9417b6df7965d9ba228b13c19cd7afcfe3502c5735025",
    "tl_ring": "c123c94529300ea9652fae8ef97bcd5a130aeac19b382e6e765022c250ee29bc",
    "tl_line_broken": "14d4a5c02d2351f3a6a1392a9fb7eab7697c5055bfd6c650d0f2e533bf129525",
    "tl_churn": "19c8023c74b381f3095acc5ecd9ee8ba3b2217381dc57e11e06c8ea415134b95",
    "tl_forgery": "3cd6ada2377bd2016ab5d3c5fee54b5742887f654491c5204a93aed3abb4735f",
    "wl_group": "04bb82d58ddc8206b914541979c421443c48b872f6799e2396e54540c5609e71",
    "wl_crowd": "d84c5d5964b39b8d90ec6c3e5a69e2508d3b58b228346c71e4c9497caa7f7313",
    "wl_dropper": "4257e1793a2f79febd55a6d99365ea739d70a34fbe6a0e5fffcf3141afd339e0",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "067beedc50d7b392ab265c62a8aa7e23346806ee5c14b629e2234cceed6c2962",
    "wl_equivocation": "1f88ea607a469181af39fa3eda4f57711ca72b39b400ebf9e80000c8374888e9",
    "wl_privacy": "8ab84ba44c052b3f90abd7645311aa6a88a8c54612c70a45633277c5c2e08e8d",
    "wl_partitions": "0fbd20661aff026b0539471fbc2f33255b9c68394267a63f9ebaa9fd5f0e2c92",
    "wl_founder_moves": "e1aca5642c6d9f6b573b9af56248ac84d43856f549b8192a3b673885d71a499b",
    "wl_founder_quits": "da3237634f151d8b9b21180adcc670728875d00d582ac59d691c1c99e7db1ba4",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "c2deedb82e8e13b74eb84bf893735ec1cb8c2bb19502a196c5df653ca30cfe52",
    "tl_star": "8020dafa0913fc12846920ea2ddf8fc691da658d8e47a806647d3042d6703f70",
    "tl_ring": "985c334bd025ca8946d2d3b0d1f4d48721047f52edc11f30335e240b172c6f47",
    "tl_line_broken": "e7087d74fb57da8c6d5b59d572d1b6b8167e5968437aeaa9eca5fc0ef730936d",
    "tl_churn": "b9feceff2c38a80fb7f670a5e7c859e7a5c7991ec4557badcf3017c0d9fe7b27",
    "tl_forgery": "4b4d6c4166afdab4c7eb72bee756187b4f8dfc2eb15a12f264adfad1fb2ad221",
    "wl_group": "1dc89eb39276936cd681b9712e3c79ba8e19dce9271d7131f34f151d1d304607",
    "wl_crowd": "cce304f43459795937cf1d2985fda358aff150f6330898dbb887dd25de59fac3",
    "wl_dropper": "10d7a9bcec03d57dd1b3466a89680dae1d819e7ea0a9677dcc9f9b22aa312ceb",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "71b29f52b384bb368360f93ae327534b63f042a3668a56afed48c9e70b1190bf",
    "wl_equivocation": "e03e9eea6dcd674eb3d71092c522587d6548376bb361ed6862b3c86370191804",
    "wl_privacy": "52e7436e66ffe01a7bdfc35e94ba838c4a27e823410c20ed1f9b01b438fb6cdc",
    "wl_partitions": "35c7187a2ce8187e970c3a1e54a5da526d594fd1ae5328bd086d36d992a95ecb",
    "wl_founder_moves": "054801095e33155d1a4010bcb0c6adf8793c8f3c2760b610be73105985b04f38",
    "wl_founder_quits": "024e0fe7d5e4e44e6571af5c9ee2376f01f710f7ffa58b8cf4516ce9e2e200da",
}

# sha256 of `json.dumps(runner.metrics_report(), sort_keys=True)` for the
# same runs.
GOLDEN_METRICS_SHA256 = {
    "tl_line": "9105aa298f4579d29ea581378ff9ef7f7db3583e2a77d9369e79eb6e9b73e678",
    "tl_star": "20df325407a42509bb37db01c3586467521430744a6b3d52a8a1372693d4ee25",
    "tl_ring": "217a878e5d1e351af3d9d2125b30d8db42ac34b8fc66bc575944eef8f79816d2",
    "tl_line_broken": "5f3758d4bf9ad1ace8cafd309ba8c4505e61c8e8dfbc5e74f8001b3c0f952878",
    "tl_churn": "ddcd7834cd6490136b8122181c045d53897090ffbe0039d96fb880b909126486",
    "tl_forgery": "85c98b97b5f1318c21f6c8598e7c5698bde0deb3883457c1cbf53b6c1dd8217a",
    "wl_group": "4b0a0e3eefb62eb7c2968e9a0b17c35680e88fca9a142555c0d6bda34048a5be",
    "wl_crowd": "68db00045e62fb784620d62fdb913a7e52b4001c31e01857de0491d45bc20d3d",
    "wl_dropper": "f60d405986f1577a3213125812a5a06e74748e6b4c429f2e81d2376ac3246c31",
    "wl_solo": "f025de3690468d406189d9fad3382ab2a3abc9ee2845e0c5a2440501d3669228",
    "wl_churn": "95e5a2f683f8fb9155fcfd58279145f7d9c856d669bd46b48e888b4be9dff99f",
    "wl_equivocation": "e12d7a8b0edf4557787853791174ad88e72e7e064556894fb6c07a066db1a4f3",
    "wl_privacy": "546f90e6f7645d7a73274e19f3f7839e3d9566342092902034b750e0ae88c720",
    "wl_partitions": "cda55366b2cea521a1f7eac6f6b49dd6fac94f286ea1ef4781fd0803595bd13d",
    "wl_founder_moves": "dd95c162ed74b19fdb515e46d55cc46474dad7fcec28b1e7e58561dd2c35765f",
    "wl_founder_quits": "5194a165e7a6064c3f32ee8cf1862fe5c254616d58bc380b4fac541882abc5fe",
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
