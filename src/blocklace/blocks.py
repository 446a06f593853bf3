"""Blocks: signed, hash-identified units linking to prior blocks.

A block is (id, address, payload, pointers).  The id is a digest of the
canonically-encoded body, signed by the creator; two blocks are the same
block iff (creator, digest) match, regardless of signature bytes.

The canonical encoding is injective: every field is length-prefixed and
pointer sets are sorted, so set identity maps to byte identity.  Field
order in the encoded body is (address, payload, pointers); the golden
tests pin it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Union

from . import crypto
from .crypto import AgentId, Digest, Keypair, Signature

NetAddress = str


class WireError(Exception):
    """Raised when bytes do not decode to a well-formed block."""


def _lp(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WireError("truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def take_lp(self) -> bytes:
        return self.take(int.from_bytes(self.take(4), "big"))

    def done(self) -> bool:
        return self.pos == len(self.data)


# --- payloads -------------------------------------------------------------


@dataclass(frozen=True)
class Empty:
    """No payload; used for address announcements."""


@dataclass(frozen=True)
class Follow:
    target: AgentId


@dataclass(frozen=True)
class Say:
    text: bytes


@dataclass(frozen=True)
class Respond:
    text: bytes
    re: "BlockId"


@dataclass(frozen=True)
class Ack:
    """Receipt acknowledgement; never acked in turn."""


@dataclass(frozen=True)
class Group:
    name: bytes


@dataclass(frozen=True)
class Invite:
    target: AgentId
    sealed_key: bytes


@dataclass(frozen=True)
class Accept:
    pass


Payload = Union[Empty, Follow, Say, Respond, Ack, Group, Invite, Accept]

_PAYLOAD_TAGS = [Empty, Follow, Say, Respond, Ack, Group, Invite, Accept]
_TAG_OF = {cls: bytes([i]) for i, cls in enumerate(_PAYLOAD_TAGS)}


def is_utterance(payload: Payload) -> bool:
    return isinstance(payload, (Say, Respond))


# --- identifiers and blocks ------------------------------------------------


@dataclass(frozen=True, order=True)
class BlockId:
    """Signed hash pointer.  Identity is (creator, digest); the signature
    rides along but never takes part in comparison or encoding."""

    creator: AgentId
    digest: Digest
    signature: Signature = field(compare=False, repr=False, default=b"")

    def hex(self) -> str:
        return self.digest.hex()

    def short(self) -> str:
        return self.digest.hex()[:12]


@dataclass(frozen=True)
class Block:
    id: BlockId
    address: NetAddress
    payload: Payload
    pointers: frozenset[BlockId]

    @property
    def creator(self) -> AgentId:
        return self.id.creator

    def is_initial(self) -> bool:
        return not self.pointers

    def sort_key(self):
        return (self.id.creator, self.id.digest)


def _encode_payload(payload: Payload) -> bytes:
    tag = _TAG_OF[type(payload)]
    if isinstance(payload, Empty) or isinstance(payload, Ack) or isinstance(payload, Accept):
        return tag
    if isinstance(payload, Follow):
        return tag + _lp(payload.target)
    if isinstance(payload, Say):
        return tag + _lp(payload.text)
    if isinstance(payload, Respond):
        return tag + _lp(payload.text) + _lp(payload.re.creator) + _lp(payload.re.digest)
    if isinstance(payload, Group):
        return tag + _lp(payload.name)
    if isinstance(payload, Invite):
        return tag + _lp(payload.target) + _lp(payload.sealed_key)
    raise TypeError(f"unknown payload {payload!r}")


def _decode_payload(reader: _Reader) -> Payload:
    tag = reader.take(1)[0]
    if tag >= len(_PAYLOAD_TAGS):
        raise WireError(f"unknown payload tag {tag}")
    cls = _PAYLOAD_TAGS[tag]
    if cls in (Empty, Ack, Accept):
        return cls()
    if cls is Follow:
        return Follow(reader.take_lp())
    if cls is Say:
        return Say(reader.take_lp())
    if cls is Respond:
        text = reader.take_lp()
        return Respond(text, BlockId(reader.take_lp(), reader.take_lp()))
    if cls is Group:
        return Group(reader.take_lp())
    if cls is Invite:
        return Invite(reader.take_lp(), reader.take_lp())
    raise WireError("unreachable")


def canonical_encode(
    address: NetAddress, payload: Payload, pointers: Iterable[BlockId]
) -> bytes:
    """Injective byte encoding of a block body."""
    ordered = sorted(set(pointers))
    parts = [_lp(address.encode("utf-8")), _lp(_encode_payload(payload))]
    parts.append(len(ordered).to_bytes(4, "big"))
    for ptr in ordered:
        parts.append(_lp(ptr.creator) + _lp(ptr.digest))
    return b"".join(parts)


def new_block(
    kp: Keypair,
    address: NetAddress,
    payload: Payload,
    pointers: Iterable[BlockId] = (),
) -> Block:
    """Create and sign a block; the result always passes verify_block."""
    ptrs = frozenset(pointers)
    body = canonical_encode(address, payload, ptrs)
    digest = crypto.hash_bytes(body)
    signature = crypto.sign(kp, digest)
    return Block(
        id=BlockId(kp.agent_id, digest, signature),
        address=address,
        payload=payload,
        pointers=ptrs,
    )


def verify_block(block: Block) -> bool:
    """True iff the digest matches the body and the signature verifies."""
    if any(ptr == block.id for ptr in block.pointers):
        return False
    body = canonical_encode(block.address, block.payload, block.pointers)
    if crypto.hash_bytes(body) != block.id.digest:
        return False
    return crypto.verify(block.id.creator, block.id.digest, block.id.signature)


# --- wire format ------------------------------------------------------------
#
# encode_block(b) = LP(creator) LP(digest) LP(signature) body
# where body = canonical_encode(address, payload, pointers).  This is the
# exact byte string datagrams carry and traces record (hex-encoded).


def encode_block(block: Block) -> bytes:
    body = canonical_encode(block.address, block.payload, block.pointers)
    return _lp(block.id.creator) + _lp(block.id.digest) + _lp(block.id.signature) + body


def decode_block(data: bytes) -> Block:
    """Parse wire bytes; raises WireError on malformed input.  Performs no
    cryptographic checks — run verify_block on the result."""
    try:
        return _decode_block(data)
    except UnicodeDecodeError as exc:
        raise WireError("bad utf-8 in address") from exc


def _decode_block(data: bytes) -> Block:
    reader = _Reader(data)
    creator = reader.take_lp()
    digest = reader.take_lp()
    signature = reader.take_lp()
    address = reader.take_lp().decode("utf-8")
    payload_reader = _Reader(reader.take_lp())
    payload = _decode_payload(payload_reader)
    if not payload_reader.done():
        raise WireError("trailing payload bytes")
    count = int.from_bytes(reader.take(4), "big")
    # One block, one encoding: pointers come strictly ascending, as
    # `canonical_encode` writes them.
    pointers = []
    previous = None
    for _ in range(count):
        key = (reader.take_lp(), reader.take_lp())
        if previous is not None and key <= previous:
            raise WireError("pointers not strictly ascending")
        previous = key
        pointers.append(BlockId(*key))
    if not reader.done():
        raise WireError("trailing bytes")
    if len(creator) != crypto.AGENT_ID_LEN or len(digest) != crypto.DIGEST_LEN:
        raise WireError("bad id field lengths")
    return Block(
        id=BlockId(creator, digest, signature),
        address=address,
        payload=payload,
        pointers=frozenset(pointers),
    )


def peek_digest_hex(data: bytes) -> str:
    """Best-effort digest extraction for trace records; never raises."""
    try:
        reader = _Reader(data)
        reader.take_lp()
        return reader.take_lp().hex()
    except WireError:
        return "invalid"


class WireDecoder:
    """decode_block + verify_block behind one byte-level memo shared by
    every decoder in the process.  Decoding and verifying are pure, so an
    agent that receives bytes another agent already decoded gets the very
    same `Block` (or `None` for bytes that do not decode and verify), and
    repeated deliveries cost one hash instead of one signature
    verification.

    Bound: the memo is cleared when it reaches `CAP` entries, so it holds
    at most `CAP` (32-byte key, decoded block) entries, as `crypto`'s
    memos do."""

    CAP = 1 << 16
    _cache: dict[bytes, Block | None] = {}

    def decode_verified(self, data: bytes) -> Block | None:
        cache = WireDecoder._cache
        key = hashlib.sha256(data).digest()
        if key in cache:
            return cache[key]
        block: Block | None
        try:
            block = decode_block(data)
            if not verify_block(block):
                block = None
        except WireError:
            block = None
        if len(cache) >= WireDecoder.CAP:
            cache.clear()
        cache[key] = block
        return block
