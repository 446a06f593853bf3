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
    "tl_line": "837dbb818862b46bb1ed1e7c0a00d3bb528feb4253577d8a3f55fdc9fdf96565",
    "tl_star": "dddeb34d9f9ca8983bea8ff08ff5c6c90766c57c9d964b0eb4d3158cc6686254",
    "tl_ring": "16fb49c4e27e89801bf57ceafd59fed05d815a60df1e1843b1a0edb998bf0021",
    "tl_line_broken": "ab1b81c3818f9823573adedecb349fbee095a0bda63d4c5a234d5408f980391d",
    "tl_churn": "19c4387a6186847f1214ecad851db0174586f8bbe17a3bac9c176f82a9613815",
    "tl_forgery": "c1a6f0e4ba628428373b5e122445f090c4014a54e49912b9d0a9530d32016a36",
    "wl_group": "da534d15e3fa1a42c7b08d58973accddcef265e3ea3986b1c807711a153623cd",
    "wl_crowd": "0a68dc5db5d75c3beb5749a1beb834cf06f735481e1b828b868d1c895aeefeca",
    "wl_dropper": "3ceabeeb1567af407d1e7783e4eb2ede3783a5170db23b4ef65e909e8c15ed8a",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "b750e36fdf7177ab5d37f94fe6bbf1e189c840e39090fc1cc70638e92a196f25",
    "wl_equivocation": "22686848844ee2b119f46fccf3a6b28571301d83955ba6e5be45d9a5e2f5b312",
    "wl_equivocation_crowd": "6b92ace91f889f7aebfb501abd06cceef8821f3a84908572bf6718b9040aa821",
    "wl_privacy": "6570a13fb156986d1f3861fa9633870d6f15c7aea2cb493ca407a10f1e89160f",
    "wl_partitions": "c647e1546ccc61dd144a087dead63d771467112c17856ab2dd9b64ebd6f2b340",
    "wl_founder_moves": "4988c67733c7777586f072b445f4e19c1a1a395e7adc703d7f09ff8f75586626",
    "wl_founder_quits": "ac5a64f34b4e5a022cb8420f119f44c1123c7cb0e3977ffcb702b48f3592c4a6",
    "wl_crowd_orphans": "7cb39490092328034e83f589015d77e3628eab4b84c9cba20b17b545b282c07e",
}
GOLDEN_V3_SHA256 = {
    "tl_line": "36d56c6b4301dd250b52c5779d4e24fd9f46ef4824ffdb1a569b4091411ff3e4",
    "tl_star": "383cb61d65fe656b334b04b7793c39911e584f3c7dbf09b3446811101785b281",
    "tl_ring": "6f51fc609674510aefe8b50ee3d01d1e79101200ae837d7e01121ed1c163e4e4",
    "tl_line_broken": "b6d3f3919cae4c5aea675627b9bd321c1a409f04251fb1629b1f9610f3760d87",
    "tl_churn": "840910910d0620c7e7134ca84efdd29d0e46f3fd55d753b8c7e922f2ceca52b5",
    "tl_forgery": "ee06fbd295d73f37df2944a3585d3775b0da37a3fdb53d78f78af449e4af355c",
    "wl_group": "2686cebfee23f86930b27a9833ed4cb4772928480c9626b049c7f746f944c728",
    "wl_crowd": "c19c026103b531ec51bebdba56f3f2d9d41319a2863a5279b418478722ef594d",
    "wl_dropper": "ad3057c1f4babd2f74031ed5111544ce0238a8c76185eccb417783acfbfe3ebf",
    "wl_solo": "c7b7d616d8c7a3c6af70d90e1040cb8bc3e1701c691781f88cef3e544d1a26f5",
    "wl_churn": "fdab743f3c41d8d0ccb549840b9197ed9c8090276fa1c723ec21518900f05e96",
    "wl_equivocation": "8617b9042f4643fd981a6d20a94d816fbddd3cc02fb267a30050fbced65811a8",
    "wl_equivocation_crowd": "c910a31b77969d0c3ce7a423230885531475a397bcacf0829e6d312296309e34",
    "wl_privacy": "7852cf4716e66efe4b040ff105db42da97e9aa1dcf4b92d87f850462439fd80b",
    "wl_partitions": "3e1511bd25b33ad0fef93105c818d631c203e5417af4f122a09a2f86fd642601",
    "wl_founder_moves": "6f476ef61a97ac258b71dfa58b2e5027b28039148c160a3510fe490642523dc5",
    "wl_founder_quits": "c24a84139eff12139e073a6ac3aa89c7716e231ede035b856739153ff436c402",
    "wl_crowd_orphans": "adb44ce054235432b6f7bcfd443a3cce6f0a751b02d2201a51aff916a7c8a7b5",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "2c32e56b46375294b997fa8f17a3f1aefb99e7484e924fc515b9faeaf95772be",
    "tl_star": "6e58632dae923331e886673e868f5c46bc90349c65686d8bdd4178486876712d",
    "tl_ring": "001f5aa9214219302dff0e950c8319f78558ce41a6a63640ae2d83244a9c4939",
    "tl_line_broken": "eeee4a20ac4fb9bc7594b1d6d430448444ef8fd92ac61eb977d337762e0c3e16",
    "tl_churn": "cd5976eec983fcb6073d942c1a30601bb32348c8b55bc9fd11e38aadc973adbf",
    "tl_forgery": "164678334971c7dab776edcdc9c1a40b6262e44d97b125d0ed32670c3bb84597",
    "wl_group": "6e04d2c79bbc899d1e9a8fbfd89c4430665ab54f652198a78903d7154fdfc74e",
    "wl_crowd": "7d7947e30f522128de0cc4d33f8aafc3b40db985699c28f709f22bef6f15066f",
    "wl_dropper": "4986a9bc3429a2c7b5cdc671c80e8644b85527ab6bd45283f364c008569178a2",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "cd4128415b9a49b5bd0b595625e850c077a2f7e1d1e6e653cf4267bad5208e86",
    "wl_equivocation": "275f14ab46169e1af20183af8ba483afa7bc71462efa95abc9d5d818bef6902b",
    "wl_equivocation_crowd": "75c94bd461e576ffcbcaf77101a76a83b8f5f9ecda66dbdc92c3f20ee9297c0b",
    "wl_privacy": "ccd5f0ff5ef75c81aa5617549adad4f465567d7e74a43c43c8aa59bcfdeced44",
    "wl_partitions": "253f456d88e7c47c8a95c1a924b076610a9a881110dbff633fa3580d83044c2c",
    "wl_founder_moves": "09b1c2be7a69498179c8b5eda450f1b884b69f064a0dda2ba70f7735951dd942",
    "wl_founder_quits": "1866771a03550ee74c0ed43d5663261a25b96d4b70d21486dd3d23146eed1d05",
    "wl_crowd_orphans": "756c10437363804a990d1e38609fdd8b3d4c0a6bd842958b1291653b6d41af07",
}

# sha256 of `json.dumps(runner.metrics_report(), sort_keys=True)` for the
# same runs.
GOLDEN_METRICS_SHA256 = {
    "tl_line": "6d9ab64cc94e63abbaac707cef4a8bf4bc5adc03362a1d01467e8b50769bf97c",
    "tl_star": "cdf33022c876bfcd90e5084eb38d04b85ba8e9f87c69e07be76bae97a7a3f376",
    "tl_ring": "8687e1ea979b81698d218b908d16419be99de0a1e7e87b25aca4a6ac61e03f2c",
    "tl_line_broken": "94323e0e870acaff292309bb1bb1818df86e147cf60f8374aa8fe1a6efb22f45",
    "tl_churn": "61815ced6f51e3a9e61abefaf14c7ba2e024a1e6c26c2cd13d998e2ffdbbc7ec",
    "tl_forgery": "00bcf7b3431a04eb1564adf9ba1a767f8093d16198a68166153274fef931bb94",
    "wl_group": "f688dfd687fad57a94ab39cc49bf28c2a458a778412816c6121f329260ea49da",
    "wl_crowd": "2fbff0333e58f70217eff051fe52444c2d1e83329b9d497a99afe75dac07bd5b",
    "wl_dropper": "646126301a66dd808259f14f29e864c1e2e0854cca5e0dd539c7d00943c923cf",
    "wl_solo": "f025de3690468d406189d9fad3382ab2a3abc9ee2845e0c5a2440501d3669228",
    "wl_churn": "0f6febee2cb2ed7a0e86542e9fb50ec01b08f2217b3b49e0ee3bd49b19bd24db",
    "wl_equivocation": "f8d9635b87ddd2519243e84a0be248253834fbda0f129381e464eadcf2cf3c01",
    "wl_equivocation_crowd": "a29371208e251e9240992bd0ca29273e0d16133d35b9af4e0d4c9fc77902da07",
    "wl_privacy": "b9a4e03cbecbb200cbe83b511633978c97d3f0aa99e00c4cc4d62eb8853626df",
    "wl_partitions": "2d4c4980c6da84f88b4a2d1172f12e57fbdebae264bac5da9cc17432a55e08af",
    "wl_founder_moves": "2cf61d7ca40e721b139e50a611aba0af7d2789a3ac7b90494a8506b390132dda",
    "wl_founder_quits": "8280486128c4e578fb06b59df7fd50dab4fc931c30211a9cc7fe15eed6f66a37",
    "wl_crowd_orphans": "992c89d13ac01fda48a0e13322fb5e7e70d46b3c5214bb171f7d880c6767885a",
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
