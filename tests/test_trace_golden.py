"""Golden trace hashes: every canned scenario at seed 1 must keep producing
exactly these trace bytes.  A change that alters a trace on purpose must
say so and update the hash here; any other change must leave them alone.

The trace is written in the v2 encoding, where a repeated payload is a
`*N` back-reference.  `GOLDEN_SHA256` pins the v1 bytes of the same runs,
from before that encoding existed: expanding each v2 trace back to v1 must
reproduce them, so the v2 encoding is checked to change nothing but the
encoding."""

import hashlib
import json

import pytest

from blocklace.harness import canned
from blocklace.harness.cli import main as cli_main
from blocklace.harness.oracles import parse_trace
from blocklace.harness.runner import Runner, run_scenario

GOLDEN_SEED = 1
GOLDEN_SHA256 = {
    "tl_line": "4e92a7789447d7375d9e1c88c93a95e32ec521f736e1af1012663f0013ff5e64",
    "tl_star": "3cbcb16232a6dbfb838e6a3424ba33d6137ad9abc7a39f2c4a693132d7302316",
    "tl_ring": "e43ac5ec96bca4d7a04c58f62d34fcf0af24ae3f1f96255d89aa55b42454d081",
    "tl_line_broken": "ca9ccc095906939ec336645ebcdfaabed45c3cd03b15b22e97b727c2843b5364",
    "tl_churn": "ec90196e942e87a41a843030df01b0d3f948dabfb92c32e0944415d9d2e2a8d6",
    "tl_forgery": "19b88ecd99cccf4f69683cff85f1d7e6163741a3098fe5b9f8d34ef32c7f81e8",
    "wl_group": "7a4750e047b5435ac2b25308ddee769662deedba542ae300c2fdc991da47c389",
    "wl_dropper": "d9577eb62757cc0d2384aeb10ba9839a9b2a1981fd7ee3120de0f2cc09c44bbe",
    "wl_solo": "8db6db78fa20b8c94258db4095c878fc613bc6e905840e6501aa2a9985c8013e",
    "wl_churn": "e63957aaa583a0f15858ab8a77d5d6df2409fb016ac643b5d6f822b7a1ccbd61",
    "wl_equivocation": "f121fd085d0a15ee705c0eabac6d8f7a669d8f2d6b29350011b03833343396be",
    "wl_privacy": "24309f49a8f17cd343943cfbf89b991df340c2e69e99fc6c160b76f46bd09a4e",
    "wl_partitions": "67cea011799b5fc9d6e5e17e7591d70b4571b6fd1459a1e51cda915cc7140a3c",
}
GOLDEN_V2_SHA256 = {
    "tl_line": "b079a669e0a05e3e9bd75f3b825cb799c54cfb75516e5606528e945d5fe69465",
    "tl_star": "e910e671d3361e7ef02b46b92bfb3e9502dc254582318fec71f3c59a62a53f8f",
    "tl_ring": "518c0c01789cb8f2e027292c5e07b2f799b5e265c588803ca85ec8f9c7196cab",
    "tl_line_broken": "5ad2acf2aaca72c7e0ecb7120411abe37c5271549474ae9bee750d16b91f50d5",
    "tl_churn": "228f3415997fed2507c898592be68419ded2f45b02651337390d1b3a2aaa89e0",
    "tl_forgery": "ef44dda0e7b9674cbd51429fe632c811451475533745e62c31cc558fdb4f37bd",
    "wl_group": "fa20bd05f422b29787034c06d44adc3e9c194cb8fba980679fc548e7d0a42524",
    "wl_dropper": "842220fce09954019ad72d3ef6c1217be6d5f73b17411ef0e2dbc31e6b19fe50",
    "wl_solo": "507d4ce76a4f24a1ad8893c5c7cb9cbe1241603309783b0275d5cc581b0d7a23",
    "wl_churn": "eaa7bf1458c60a8ac360b7f972c9808a1eca913f7053d49806163140feb3b3aa",
    "wl_equivocation": "ac41e214e1b37e2274c22ab41a884627cb03cfea9d2205007e1076a00a610026",
    "wl_privacy": "0c09bb71ff08d098cbdcc7abc6a9046f4b4819e1ef11abcf0092e27019e6acd2",
    "wl_partitions": "97d4c8ea0bec72d858c56845e8d0f1b604b7dc92ff498e92a64e8e652f10b907",
}


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
    assert set(GOLDEN_SHA256) == set(GOLDEN_V2_SHA256) == set(canned.CANNED)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_trace_bytes_unchanged(name):
    runner = Runner(canned.CANNED[name](seed=GOLDEN_SEED))
    runner.run()
    text = runner.trace.text()
    assert _sha256(text) == GOLDEN_V2_SHA256[name]
    assert _sha256(to_v1(text)) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", ["tl_forgery", "wl_privacy"])
def test_parse_trace_reads_v1_as_v2(name):
    text = run_scenario(canned.CANNED[name](seed=GOLDEN_SEED)).trace_text
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
    trace_path.write_text(to_v1(run_scenario(scenario).trace_text))
    assert trace_path.read_text().startswith("# blocklace-trace v1\n")
    assert cli_main(["verify", str(trace_path), str(scenario_path)]) == 0
