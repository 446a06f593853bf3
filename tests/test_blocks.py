import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklace import blocks as b
from blocklace import crypto

from conftest import KEYPAIRS, make_block


def test_canonical_encode_deterministic(kp):
    x = make_block(kp, b.Say(b"hi"))
    enc = lambda: b.canonical_encode(x.address, x.payload, x.pointers)
    assert enc() == enc()


def test_canonical_encode_pointer_order_irrelevant(kp, kp2):
    a = make_block(kp)
    c = make_block(kp2)
    one = b.canonical_encode("x", b.Empty(), [a.id, c.id])
    other = b.canonical_encode("x", b.Empty(), [c.id, a.id])
    assert one == other


def test_canonical_encode_field_order_golden():
    # Body layout is (address, payload, pointers), each length-prefixed;
    # pinned so the wire format never drifts silently.
    assert b.canonical_encode("a", b.Empty(), ()).hex() == "0000000161000000010000000000"


def test_block_digest_golden():
    # The digest is H(creator || body) (`blocks.block_digest`).
    kp = crypto.keygen(1)
    blk = b.new_block(kp, "golden/0", b.Say(b"golden"), ())
    assert (
        blk.id.digest.hex()
        == "5eccf3db4f32f1d55da4df688976779f37d16fc2dd25de75f38b8f0a65f74470"
    )
    assert (
        crypto.hash_bytes(b.encode_block(blk)).hex()
        == "1ccd728f3fba0a4897c2bd1012fa0ae576650801084589fb0c1fb9b03127319b"
    )


def test_digest_binds_the_creator(kp, kp2):
    # A second key that signs a body identical to the victim's gets a
    # different digest, so a digest names one creator's block.
    victim = make_block(kp, b.Say(b"same words"))
    impostor = make_block(kp2, b.Say(b"same words"))
    body = lambda blk: b.canonical_encode(blk.address, blk.payload, blk.pointers)
    assert body(victim) == body(impostor)
    assert victim.id.digest != impostor.id.digest
    assert b.verify_block(victim) and b.verify_block(impostor)
    assert victim.id.digest == b.block_digest(kp.agent_id, body(victim))


def _digest(i):
    return bytes([i]) * crypto.DIGEST_LEN


def test_ack_encoding_golden():
    # An ack's payload is its tag, a 4-byte count and the named digests,
    # ascending; it carries no pointers.
    def ack_body(*named):
        return b.canonical_encode("a", b.Ack(frozenset(map(_digest, named))), ()).hex()

    assert ack_body() == "000000016100000005040000000000000000"
    assert ack_body(1) == "0000000161000000250400000001" + "01" * 32 + "00000000"
    assert ack_body(3, 1, 2) == (
        "0000000161000000650400000003" + "01" * 32 + "02" * 32 + "03" * 32 + "00000000"
    )


def test_ack_costs_one_digest_per_named_block(kp):
    empty = len(b.encode_block(b.new_block(kp, "addr/0", b.Ack())))
    for k in (1, 2, 5, 40):
        ack = b.new_block(kp, "addr/0", b.Ack(frozenset(map(_digest, range(k)))))
        assert len(b.encode_block(ack)) == empty + crypto.DIGEST_LEN * k


def test_ack_rejects_names_that_are_not_digests(kp):
    with pytest.raises(ValueError):
        b.new_block(kp, "addr/0", b.Ack(frozenset([b"short"])))


def _wire_with_payload(blk, payload, pointers=()):
    """blk's id and address with these payload bytes and pointers."""
    parts = [
        b._lp(blk.id.creator),
        b._lp(blk.id.digest),
        b._lp(blk.id.signature),
        b._lp(blk.address.encode("utf-8")),
        b._lp(payload),
        len(pointers).to_bytes(4, "big"),
    ]
    parts.extend(b._lp(ptr.creator) + b._lp(ptr.digest) for ptr in pointers)
    return b"".join(parts)


def test_decode_rejects_other_encodings_of_an_ack(kp):
    blk = b.new_block(kp, "addr/0", b.Ack(frozenset([_digest(1), _digest(2)])))
    tag = b._TAG_OF[b.Ack]
    count = lambda n: n.to_bytes(4, "big")
    assert _wire_with_payload(blk, tag + count(2) + _digest(1) + _digest(2)) == b.encode_block(blk)
    for payload, error in (
        (tag + count(2) + _digest(2) + _digest(1), "ascending"),
        (tag + count(2) + _digest(1) + _digest(1), "ascending"),
        (tag + count(1) + _digest(1)[:-1], "truncated"),
        (tag + count(1) + _digest(1) + b"\x01", "trailing"),
        (tag + count(2) + _digest(1), "truncated"),
    ):
        with pytest.raises(b.WireError, match=error):
            b.decode_block(_wire_with_payload(blk, payload))


def test_decode_rejects_an_ack_with_pointers(kp):
    parent = make_block(kp)
    blk = b.new_block(kp, "addr/0", b.Ack(frozenset([parent.id.digest])), [parent.id])
    assert b.verify_block(blk)
    with pytest.raises(b.WireError, match="ack with pointers"):
        b.decode_block(b.encode_block(blk))


def test_length_prefix_prevents_field_bleed(kp):
    one = b.canonical_encode("x", b.Say(b"ab"), ())
    other = b.canonical_encode("xa", b.Say(b"b"), ())
    assert one != other


def test_new_block_verifies_and_is_deterministic(kp):
    one = make_block(kp, b.Say(b"hello"))
    two = make_block(kp, b.Say(b"hello"))
    assert b.verify_block(one)
    assert one.id == two.id
    assert one.creator == kp.agent_id


def test_initial_block(kp):
    blk = make_block(kp)
    assert not blk.pointers
    child = make_block(kp, pointers=[blk.id])
    assert child.pointers


def test_verify_rejects_wrong_key(kp, kp2):
    blk = make_block(kp, b.Say(b"mine"))
    forged = b.Block(
        id=b.BlockId(kp2.agent_id, blk.id.digest, blk.id.signature),
        address=blk.address,
        payload=blk.payload,
        pointers=blk.pointers,
    )
    assert not b.verify_block(forged)


def test_verify_rejects_payload_change(kp):
    blk = make_block(kp, b.Say(b"original"))
    tampered = b.Block(
        id=blk.id, address=blk.address, payload=b.Say(b"originaX"), pointers=blk.pointers
    )
    assert not b.verify_block(tampered)


def test_block_id_identity_ignores_signature(kp):
    blk = make_block(kp)
    twin = b.BlockId(blk.id.creator, blk.id.digest, b"\x00" * 64)
    assert twin == blk.id
    assert hash(twin) == hash(blk.id)
    assert not (twin < blk.id) and not (blk.id < twin)


def _all_payloads(kp, kp2):
    ref = make_block(kp)
    parent = make_block(kp, b.Say(b"parent"))
    sealed = crypto.seal(crypto.group_keygen(1), kp2.agent_id)
    return [
        b.Empty(),
        b.Follow(kp2.agent_id),
        b.Say(b"text \x00 with nulls"),
        b.Respond(b"re-text", ref.id),
        b.Ack(),
        b.Ack(frozenset([ref.id.digest, parent.id.digest])),
        b.Group(b"group-name"),
        b.Invite(kp2.agent_id, sealed),
        b.Accept(),
    ]


def test_wire_roundtrip_every_payload(kp, kp2):
    parent = make_block(kp)
    for payload in _all_payloads(kp, kp2):
        # An ack names blocks in its payload and carries no pointers.
        pointers = [] if isinstance(payload, b.Ack) else [parent.id]
        blk = b.new_block(kp, "addr/1", payload, pointers)
        decoded = b.decode_block(b.encode_block(blk))
        assert decoded == blk
        assert b.verify_block(decoded)
        assert b.encode_block(decoded) == b.encode_block(blk)


def test_decode_garbage_raises():
    for bad in (b"", b"\x00", b"\xff" * 40, b"\x00\x00\x00\x99" + b"\x01" * 3):
        with pytest.raises(b.WireError):
            b.decode_block(bad)


def test_decode_unknown_payload_tag_raises(kp):
    # Tag 8 was a payload no agent produced; it is no longer on the wire.
    body = b._lp(b"addr/1") + b._lp(bytes([8])) + (0).to_bytes(4, "big")
    wire = (
        b._lp(kp.agent_id)
        + b._lp(bytes(crypto.DIGEST_LEN))
        + b._lp(bytes(crypto.SIGNATURE_LEN))
        + body
    )
    with pytest.raises(b.WireError, match="tag 8"):
        b.decode_block(wire)


def test_decode_trailing_bytes_raises(kp):
    wire = b.encode_block(make_block(kp))
    with pytest.raises(b.WireError):
        b.decode_block(wire + b"\x00")


def _wire_with_pointers(blk, pointers):
    """blk's wire bytes with its pointer list written as given."""
    return _wire_with_payload(blk, b._encode_payload(blk.payload), pointers)


def test_decode_rejects_permuted_pointers(kp, kp2):
    # The digest covers the sorted pointer set, so a permuted list would
    # verify: one block would have many wire encodings.
    low, high = sorted([make_block(kp).id, make_block(kp2).id])
    blk = b.new_block(kp, "addr/3", b.Say(b"x"), [low, high])
    assert _wire_with_pointers(blk, [low, high]) == b.encode_block(blk)
    with pytest.raises(b.WireError, match="ascending"):
        b.decode_block(_wire_with_pointers(blk, [high, low]))


def test_decode_rejects_duplicate_pointer(kp):
    parent = make_block(kp).id
    blk = b.new_block(kp, "addr/3", b.Say(b"x"), [parent])
    with pytest.raises(b.WireError, match="ascending"):
        b.decode_block(_wire_with_pointers(blk, [parent, parent]))


def test_peek_digest(kp):
    blk = make_block(kp)
    assert b.peek_digest_hex(b.encode_block(blk)) == blk.id.digest.hex()
    assert b.peek_digest_hex(b"junk") == "invalid"


def test_wire_bitflip_rejected(kp, kp2):
    # Any single-bit corruption of a valid wire block must fail decoding
    # or verification; nothing corrupted may pass as valid.
    parent = make_block(kp)
    blk = b.new_block(kp, "addr/2", b.Say(b"payload-to-corrupt"), [parent.id])
    wire = b.encode_block(blk)
    rng = random.Random(0)
    for _ in range(300):
        pos = rng.randrange(len(wire))
        mutated = bytearray(wire)
        mutated[pos] ^= 1 << rng.randrange(8)
        try:
            decoded = b.decode_block(bytes(mutated))
        except b.WireError:
            continue
        assert not b.verify_block(decoded)


def test_wire_decoder_caches(kp):
    decoder = b.WireDecoder()
    wire = b.encode_block(make_block(kp, b.Say(b"cached")))
    first = decoder.decode_verified(wire)
    second = decoder.decode_verified(wire)
    assert first is second
    blk = make_block(kp, b.Say(b"forged"))
    unsigned = b.BlockId(blk.id.creator, blk.id.digest, bytes(64))
    forged = b.encode_block(dataclasses.replace(blk, id=unsigned))
    for wire in (b"garbage", forged):
        assert decoder.decode_verified(wire) is None
        assert decoder.decode_verified(wire) is None


def test_wire_decoders_share_one_memo(kp):
    wire = b.encode_block(make_block(kp, b.Say(b"shared")))
    block = b.WireDecoder().decode_verified(wire)
    assert block is not None and b.encode_block(block) == wire
    assert b.WireDecoder().decode_verified(wire) is block


def test_wire_decoder_memo_clears_at_cap(kp, monkeypatch):
    monkeypatch.setattr(b.WireDecoder, "CAP", 3)
    monkeypatch.setattr(b.WireDecoder, "_cache", {})
    decoder = b.WireDecoder()
    sizes = []
    for i in range(7):
        decoder.decode_verified(b.encode_block(make_block(kp, b.Say(b"%d" % i))))
        sizes.append(len(b.WireDecoder._cache))
    assert sizes == [1, 2, 3, 1, 2, 3, 1]


def _random_payload(rng):
    """A Say, or an ack naming a few of four digests."""
    if rng.randrange(2):
        return b.Say(rng.randbytes(rng.randint(0, 8)))
    return b.Ack(frozenset(rng.sample([_digest(i) for i in range(4)], rng.randint(0, 3))))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_encode_injective_random(seed):
    rng = random.Random(seed)
    bodies = [(f"a/{rng.randrange(2)}", _random_payload(rng)) for _ in range(2)]
    one, two = (b.canonical_encode(address, payload, ()) for address, payload in bodies)
    assert (one == two) == (bodies[0] == bodies[1])


def test_digest_injectivity_corpus():
    # 10_000 structurally distinct blocks must produce 10_000 digests.
    rng = random.Random(7)
    seen = set()
    blocks = []
    for i in range(10_000):
        kp = KEYPAIRS[i % 3]
        pointers = rng.sample([blk.id for blk in blocks[-6:]], rng.randint(0, min(2, len(blocks[-6:]))))
        blk = b.new_block(kp, f"a/{i % 5}", b.Say(b"%d" % i), pointers)
        assert blk.id.digest not in seen
        seen.add(blk.id.digest)
        blocks.append(blk)
