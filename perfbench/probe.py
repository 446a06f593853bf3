"""Per-layer tracing, installed from outside the program.

`install()` rebinds public functions and methods of the blocklace modules
to wrappers that count calls and time them; nothing under src/ changes.
Names are rebound where callers look them up: module attributes for calls
made through the module (`crypto.sign`, `blocks.decode_block`, which
`WireDecoder` reaches through its module's globals), class attributes for
methods, and the runner's own `from ... import encode_block` binding.

Timed calls nest strictly, since a run is single-threaded.  Each open call
keeps the time covered by the timed calls made inside it, so when it ends
its self time is its duration minus that covered part, and its whole
duration counts as covered in the call that encloses it.  Only sums per
name are kept, so memory stays bounded at millions of calls per run.  Hot
calls that are only counted (`mask_of`, `encode_block`) leave their time
in the enclosing call's self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Probe:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sends: dict[str, int] = defaultdict(int)
        self.out_of_order = 0
        self.decode_verified_hits = 0
        self.encoded_digests: set[bytes] = set()
        self.clock = time.perf_counter
        # Time covered by timed calls inside each open call; the bottom
        # entry collects calls made outside any other.
        self._covered = [0.0]

    def timed(self, name: str, fn):
        covered = self._covered
        calls = self.calls
        self_s = self.self_s
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            covered.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - covered.pop()
                covered[-1] += duration
                calls[name] += 1

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def sending(self, name: str, fn):
        """Time `fn` and add the length of the send list it returns."""
        timed = self.timed(name, fn)
        sends = self.sends

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            sends[name] += len(out)
            return out

        return wrapper


def install() -> Probe:
    """Wrap the program's layers for the rest of this process."""
    from blocklace import blocks, crypto, lace, simnet, tl, wl
    from blocklace.harness import oracles, runner

    probe = Probe()

    for module, names in (
        (crypto, ("sign", "verify")),
        (blocks, ("decode_block",)),
        (oracles, ("parse_trace", "evaluate")),
    ):
        for name in names:
            original = getattr(module, name)
            layer = module.__name__.rsplit(".", 1)[-1]
            setattr(module, name, probe.timed(f"{layer}.{name}", original))
    for name in ("encrypt", "decrypt", "seal", "open_sealed"):
        setattr(crypto, name, probe.counted("crypto.aead", getattr(crypto, name)))

    encode_block = probe.counted("blocks.encode_block", blocks.encode_block)
    digests = probe.encoded_digests

    def encode_distinct(block):
        digests.add(block.id.digest)
        return encode_block(block)

    blocks.encode_block = encode_distinct
    runner.encode_block = encode_distinct

    decode_verified = blocks.WireDecoder.decode_verified

    def decode_verified_probe(self, data):
        before = probe.calls["blocks.decode_block"]
        out = decode_verified(self, data)
        probe.calls["blocks.decode_verified"] += 1
        if probe.calls["blocks.decode_block"] == before:
            probe.decode_verified_hits += 1
        return out

    blocks.WireDecoder.decode_verified = decode_verified_probe

    insert = probe.timed("lace.insert", lace.Blocklace.insert)

    def insert_probe(self, block, verified=False):
        out_of_order = block.id not in self and any(p not in self for p in block.pointers)
        inserted = insert(self, block, verified)
        if inserted and out_of_order:
            probe.out_of_order += 1
        return inserted

    lace.Blocklace.insert = insert_probe
    for name in ("mask_of", "blocks_of_mask"):
        setattr(
            lace.Blocklace, name, probe.counted(f"lace.{name}", getattr(lace.Blocklace, name))
        )

    for cls, layer in ((wl.WlAgent, "wl"), (tl.TlAgent, "tl")):
        cls.receive = probe.timed(f"{layer}.receive", cls.receive)
        cls.disseminate = probe.sending(f"{layer}.disseminate", cls.disseminate)

    simnet.SimNet.submit = probe.timed("simnet.submit", simnet.SimNet.submit)
    simnet.SimNet.step = probe.timed("simnet.step", simnet.SimNet.step)
    simnet.AddressTable.owner_at = probe.timed(
        "simnet.owner_at", simnet.AddressTable.owner_at
    )
    simnet.Trace.record = probe.timed("simnet.trace_record", simnet.Trace.record)
    runner.Runner.run = probe.timed("runner.run", runner.Runner.run)

    rebuild = "oracles.lace_rebuild"
    oracles.TraceData.lace_of = probe.timed(rebuild, oracles.TraceData.lace_of)
    oracles.TraceData.union_lace = probe.timed(rebuild, oracles.TraceData.union_lace)
    return probe


def layer_metrics(probe: Probe) -> dict[str, float]:
    """The per-layer figures of one traced repetition, by metric name."""
    calls, self_s = probe.calls, probe.self_s
    decode_verified = calls["blocks.decode_verified"]
    distinct = len(probe.encoded_digests)
    return {
        "wl.disseminate.calls": calls["wl.disseminate"],
        "tl.disseminate.calls": calls["tl.disseminate"],
        "agent.disseminate.self_s": self_s["wl.disseminate"] + self_s["tl.disseminate"],
        "agent.receive.self_s": self_s["wl.receive"] + self_s["tl.receive"],
        "wl.disseminate.sends": probe.sends["wl.disseminate"],
        "tl.disseminate.sends": probe.sends["tl.disseminate"],
        "lace.mask_of.calls": calls["lace.mask_of"],
        "lace.blocks_of_mask.calls": calls["lace.blocks_of_mask"],
        "lace.insert.calls": calls["lace.insert"],
        "lace.insert.self_s": self_s["lace.insert"],
        "lace.insert.out_of_order": probe.out_of_order,
        "blocks.encode_block.calls": calls["blocks.encode_block"],
        "blocks.encode_block.per_distinct": calls["blocks.encode_block"] / distinct
        if distinct
        else 0.0,
        "blocks.decode_block.calls": calls["blocks.decode_block"],
        "blocks.decode_block.self_s": self_s["blocks.decode_block"],
        "blocks.decode_verified.hit_ratio": probe.decode_verified_hits / decode_verified
        if decode_verified
        else 0.0,
        "crypto.sign.calls": calls["crypto.sign"],
        "crypto.sign.self_s": self_s["crypto.sign"],
        "crypto.verify.calls": calls["crypto.verify"],
        "crypto.verify.self_s": self_s["crypto.verify"],
        "crypto.aead.calls": calls["crypto.aead"],
        "simnet.submit.calls": calls["simnet.submit"],
        "simnet.submit.self_s": self_s["simnet.submit"],
        "simnet.step.self_s": self_s["simnet.step"],
        "simnet.owner_at.calls": calls["simnet.owner_at"],
        "simnet.owner_at.self_s": self_s["simnet.owner_at"],
        "simnet.trace_record.calls": calls["simnet.trace_record"],
        "simnet.trace_record.self_s": self_s["simnet.trace_record"],
        "runner.run.self_s": self_s["runner.run"],
        "oracles.parse_trace.self_s": self_s["oracles.parse_trace"],
        "oracles.evaluate.self_s": self_s["oracles.evaluate"],
        "oracles.lace_rebuild.self_s": self_s["oracles.lace_rebuild"],
    }
