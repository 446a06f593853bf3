"""Golden trace hashes: every canned scenario at seed 1 must keep producing
exactly these trace bytes.  A change that alters a trace on purpose must
say so and update the hash here; any other change must leave them alone."""

import hashlib

import pytest

from blocklace.harness import canned
from blocklace.harness.runner import Runner

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


def test_golden_covers_every_canned_scenario():
    assert set(GOLDEN_SHA256) == set(canned.CANNED)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_trace_bytes_unchanged(name):
    runner = Runner(canned.CANNED[name](seed=GOLDEN_SEED))
    runner.run()
    digest = hashlib.sha256(runner.trace.text().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[name]
