"""Cryptographic substrate: hashing, identity keypairs, signing, group keys.

Everything here is deterministic given a seed: keypairs derive from seed
material, Ed25519 signatures are deterministic by construction, and the
sealing/encryption routines derive their nonces and ephemeral keys from
their inputs.  Determinism is what makes whole simulation runs
byte-for-byte reproducible; the price is that encrypting the same
plaintext under the same key twice yields the same ciphertext (message
equality leaks, which is acceptable here).

All operations are pure functions of their inputs; `sign` and `verify`
memoize their results in two module-level tables, each cleared when it
reaches `_CACHE_CAP` entries.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

# Agent identity is a public-key bundle: 32 bytes of Ed25519 verification
# key followed by 32 bytes of X25519 key-agreement key.  Both halves derive
# from the same seed, so the bundle is as unique as the seed.  Carrying the
# key-agreement half inside the identity is what lets anyone seal a secret
# to an agent knowing nothing but its id.
AGENT_ID_LEN = 64
DIGEST_LEN = 32
SIGNATURE_LEN = 64
GROUP_KEY_LEN = 32

_RAW = serialization.Encoding.Raw
_RAW_PUB = serialization.PublicFormat.Raw

AgentId = bytes
Digest = bytes
Signature = bytes


class CryptoError(Exception):
    """Raised when sealing/opening or decryption fails."""


def _seed_bytes(seed) -> bytes:
    """Normalize any hashable seed (int, str, bytes) to 32 bytes."""
    if isinstance(seed, bytes):
        material = seed
    elif isinstance(seed, str):
        material = seed.encode("utf-8")
    elif isinstance(seed, int):
        material = seed.to_bytes(16, "big", signed=True)
    else:
        raise TypeError(f"unsupported seed type: {type(seed).__name__}")
    return hashlib.sha256(material).digest()


def derive_seed(*parts) -> bytes:
    """Fold several seed components into one 32-byte seed."""
    h = hashlib.sha256()
    for part in parts:
        chunk = _seed_bytes(part)
        h.update(len(chunk).to_bytes(4, "big"))
        h.update(chunk)
    return h.digest()


@dataclass(frozen=True)
class Keypair:
    """An agent's secret key material plus its public identity."""

    agent_id: AgentId
    sign_seed: bytes = field(repr=False)
    box_seed: bytes = field(repr=False)

    def __post_init__(self):
        assert len(self.agent_id) == AGENT_ID_LEN

    @property
    def verify_key(self) -> bytes:
        return self.agent_id[:32]

    @property
    def box_public(self) -> bytes:
        return self.agent_id[32:]


def keygen(seed) -> Keypair:
    """Deterministically generate a keypair from a seed."""
    base = _seed_bytes(seed)
    sign_seed = hashlib.sha256(b"sign" + base).digest()
    box_seed = hashlib.sha256(b"box" + base).digest()
    verify_key = (
        Ed25519PrivateKey.from_private_bytes(sign_seed)
        .public_key()
        .public_bytes(_RAW, _RAW_PUB)
    )
    box_public = (
        X25519PrivateKey.from_private_bytes(box_seed)
        .public_key()
        .public_bytes(_RAW, _RAW_PUB)
    )
    return Keypair(agent_id=verify_key + box_public, sign_seed=sign_seed, box_seed=box_seed)


def hash_bytes(data: bytes) -> Digest:
    """Collision-resistant digest (SHA-256), fixed 32-byte output."""
    return hashlib.sha256(data).digest()


# Signing and verification are pure, so results are memoized; simulations
# re-sign identical acks and re-verify identical datagrams constantly.
_CACHE_CAP = 1 << 18
_sign_cache: dict[tuple[bytes, bytes], bytes] = {}
_verify_cache: dict[tuple[bytes, bytes, bytes], bool] = {}


def sign(kp: Keypair, message: bytes) -> Signature:
    """Sign a message, binding in the signer's full identity.

    The identity bundle carries a key-agreement half the raw Ed25519
    signature would not cover; prefixing the id makes a signature under
    one identity invalid under any mutated one."""
    key = (kp.sign_seed, message)
    cached = _sign_cache.get(key)
    if cached is None:
        cached = Ed25519PrivateKey.from_private_bytes(kp.sign_seed).sign(
            kp.agent_id + message
        )
        if len(_sign_cache) >= _CACHE_CAP:
            _sign_cache.clear()
        _sign_cache[key] = cached
    return cached


def verify(agent_id: AgentId, message: bytes, signature: Signature) -> bool:
    """True iff signature was produced by agent_id's keypair over message."""
    if len(agent_id) != AGENT_ID_LEN or len(signature) != SIGNATURE_LEN:
        return False
    key = (agent_id, message, signature)
    cached = _verify_cache.get(key)
    if cached is None:
        try:
            Ed25519PublicKey.from_public_bytes(agent_id[:32]).verify(
                signature, agent_id + message
            )
            cached = True
        except (InvalidSignature, ValueError):
            cached = False
        if len(_verify_cache) >= _CACHE_CAP:
            _verify_cache.clear()
        _verify_cache[key] = cached
    return cached


# --- group privacy layer -------------------------------------------------
#
# One symmetric key per group, sealed individually to each member's public
# identity.  Sealing is ECIES-style (ephemeral X25519 + ChaCha20-Poly1305)
# with the ephemeral key derived from the payload and recipient, so equal
# inputs seal to equal bytes.


@dataclass(frozen=True)
class GroupKey:
    """Symmetric group key, optionally bound to the group it protects."""

    key: bytes
    group_digest: bytes | None = None

    def __post_init__(self):
        assert len(self.key) == GROUP_KEY_LEN

    def bound_to(self, group_digest: bytes) -> "GroupKey":
        return GroupKey(self.key, group_digest)


def group_keygen(seed) -> GroupKey:
    return GroupKey(hashlib.sha256(b"groupkey" + _seed_bytes(seed)).digest())


def _aead_nonce(key: bytes, plaintext: bytes) -> bytes:
    # Synthetic nonce: safe because each (key, plaintext) pair is encrypted
    # identically on purpose, never with two different nonces.
    return hmac.new(key, b"nonce" + plaintext, hashlib.sha256).digest()[:12]


def encrypt(gk: GroupKey, plaintext: bytes) -> bytes:
    nonce = _aead_nonce(gk.key, plaintext)
    return nonce + ChaCha20Poly1305(gk.key).encrypt(nonce, plaintext, None)


def decrypt(gk: GroupKey, ciphertext: bytes) -> bytes:
    if len(ciphertext) < 12 + 16:
        raise CryptoError("ciphertext too short")
    nonce, body = ciphertext[:12], ciphertext[12:]
    try:
        return ChaCha20Poly1305(gk.key).decrypt(nonce, body, None)
    except InvalidTag as exc:
        raise CryptoError("decryption failed") from exc


def seal(gk: GroupKey, recipient: AgentId) -> bytes:
    """Encrypt a group key so that only `recipient` can recover it."""
    if len(recipient) != AGENT_ID_LEN:
        raise CryptoError("bad recipient id")
    group_digest = gk.group_digest or b""
    payload = (
        len(gk.key).to_bytes(4, "big") + gk.key
        + len(group_digest).to_bytes(4, "big") + group_digest
    )
    eph_seed = hashlib.sha256(b"seal-eph" + payload + recipient).digest()
    eph_sk = X25519PrivateKey.from_private_bytes(eph_seed)
    eph_pub = eph_sk.public_key().public_bytes(_RAW, _RAW_PUB)
    shared = eph_sk.exchange(X25519PublicKey.from_public_bytes(recipient[32:]))
    aead_key = hashlib.sha256(b"seal-key" + shared + eph_pub + recipient).digest()
    nonce = b"\x00" * 12  # aead_key is unique per (payload, recipient)
    return eph_pub + ChaCha20Poly1305(aead_key).encrypt(nonce, payload, None)


def open_sealed(kp: Keypair, sealed: bytes) -> GroupKey:
    """Recover a sealed group key; raises CryptoError for wrong recipient."""
    if len(sealed) < 32 + 16:
        raise CryptoError("sealed blob too short")
    eph_pub, body = sealed[:32], sealed[32:]
    shared = X25519PrivateKey.from_private_bytes(kp.box_seed).exchange(
        X25519PublicKey.from_public_bytes(eph_pub)
    )
    aead_key = hashlib.sha256(b"seal-key" + shared + eph_pub + kp.agent_id).digest()
    try:
        payload = ChaCha20Poly1305(aead_key).decrypt(b"\x00" * 12, body, None)
    except InvalidTag as exc:
        raise CryptoError("not sealed to this keypair") from exc
    klen = int.from_bytes(payload[:4], "big")
    key = payload[4 : 4 + klen]
    rest = payload[4 + klen :]
    glen = int.from_bytes(rest[:4], "big")
    group_digest = rest[4 : 4 + glen] or None
    if len(key) != GROUP_KEY_LEN:
        raise CryptoError("malformed sealed payload")
    return GroupKey(key, group_digest)
