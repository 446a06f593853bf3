"""Blocklace-based peer-to-peer social networking protocols, plus a
deterministic fault-injecting network simulator for exercising them."""

from .blocks import (
    Accept,
    Ack,
    Block,
    BlockId,
    Empty,
    Follow,
    Group,
    Invite,
    NetAddress,
    Payload,
    Respond,
    Say,
    WireError,
    canonical_encode,
    decode_block,
    encode_block,
    new_block,
    verify_block,
)
from .crypto import AgentId, CryptoError, GroupKey, Keypair, keygen
from .lace import Blocklace
from .simnet import Datagram, NetConfig, SimNet
from .tl import TlAgent
from .wl import WlAgent, WlConfig

__all__ = [
    "Accept",
    "Ack",
    "AgentId",
    "Block",
    "BlockId",
    "Blocklace",
    "CryptoError",
    "Datagram",
    "Empty",
    "Follow",
    "Group",
    "GroupKey",
    "Invite",
    "Keypair",
    "NetAddress",
    "NetConfig",
    "Payload",
    "Respond",
    "Say",
    "SimNet",
    "TlAgent",
    "WireError",
    "WlAgent",
    "WlConfig",
    "canonical_encode",
    "decode_block",
    "encode_block",
    "keygen",
    "new_block",
    "verify_block",
]
