"""AES-128 in CTR mode, implemented from scratch (FIPS-197).

The real algorithm behind the ``encrypt``/``decrypt`` DP kernels.
CTR mode is used because it is what storage/network data paths use in
practice (stream-friendly, length-preserving, seekable) and because
encryption and decryption are the same operation.

Timing in the simulation comes from the cost model, so host seconds
spent here buy nothing: all counter blocks of a call are encrypted
together, "plane-sliced" (see :func:`_encrypt_blocks`), so the per-byte
work runs inside ``bytes.translate`` and big-int XOR instead of
per-byte bytecode.  There is one routine; :meth:`Aes128.encrypt_block`
is the same code with a single block.
"""

from __future__ import annotations

from typing import List

__all__ = ["aes128_ctr", "Aes128", "expand_key"]

_SBOX = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5,
    0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc,
    0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85,
    0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17,
    0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88,
    0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9,
    0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6,
    0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94,
    0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68,
    0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36]


def _xtime(byte: int) -> int:
    """Multiply by x in GF(2^8)."""
    byte <<= 1
    if byte & 0x100:
        byte ^= 0x11b
    return byte & 0xFF


def expand_key(key: bytes) -> List[List[int]]:
    """AES-128 key schedule: 11 round keys of 16 bytes each."""
    if len(key) != 16:
        raise ValueError(f"AES-128 needs a 16-byte key, got {len(key)}")
    words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]                   # RotWord
            temp = [_SBOX[b] for b in temp]              # SubWord
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return [
        sum(words[4 * r:4 * r + 4], [])
        for r in range(11)
    ]


#: SubBytes fused with MixColumns' multipliers: S(x) and 2*S(x)
#: (3*S(x) is their XOR, so it needs no table of its own).
_SUB = bytes(_SBOX)
_SUB_DOUBLED = bytes(_xtime(value) for value in _SBOX)

#: ShiftRows as a permutation: output byte i (row i % 4, column i // 4)
#: is input byte _SHIFT_ROWS[i] (same row, column shifted by the row).
_SHIFT_ROWS = [(i + 4 * (i % 4)) % 16 for i in range(16)]


def _encrypt_blocks(blocks: bytes, round_keys: List[List[int]]) -> bytes:
    """Encrypt ``len(blocks) // 16`` independent blocks at once.

    The state is held as 16 *planes*: plane ``i`` is byte ``i`` of
    every block, carried as one big int.  A round is then a handful of
    ``bytes.translate`` calls and int XORs per plane, however many
    blocks there are.  State byte ``i`` is row ``i % 4``, column
    ``i // 4`` (FIPS-197 column-major), i.e. the input byte order.
    """
    count = len(blocks) // 16
    from_bytes = int.from_bytes
    # ``key_byte * ones`` is that byte repeated in every block.
    ones = from_bytes(b"\x01" * count, "big")
    state = [
        from_bytes(blocks[i::16], "big") ^ round_keys[0][i] * ones
        for i in range(16)
    ]
    for round_key in round_keys[1:10]:
        raw = [plane.to_bytes(count, "big") for plane in state]
        sub = [from_bytes(raw[src].translate(_SUB), "big")
               for src in _SHIFT_ROWS]
        dbl = [from_bytes(raw[src].translate(_SUB_DOUBLED), "big")
               for src in _SHIFT_ROWS]
        state = []
        for col in range(0, 16, 4):                 # MixColumns
            a0, a1, a2, a3 = sub[col:col + 4]
            d0, d1, d2, d3 = dbl[col:col + 4]
            state += [
                d0 ^ d1 ^ a1 ^ a2 ^ a3 ^ round_key[col] * ones,
                a0 ^ d1 ^ d2 ^ a2 ^ a3 ^ round_key[col + 1] * ones,
                a0 ^ a1 ^ d2 ^ d3 ^ a3 ^ round_key[col + 2] * ones,
                d0 ^ a0 ^ a1 ^ a2 ^ d3 ^ round_key[col + 3] * ones,
            ]
    raw = [plane.to_bytes(count, "big") for plane in state]
    state = [                                       # last round: no mix
        from_bytes(raw[src].translate(_SUB), "big") ^ key_byte * ones
        for src, key_byte in zip(_SHIFT_ROWS, round_keys[10])
    ]
    out = bytearray(16 * count)
    for i, plane in enumerate(state):
        out[i::16] = plane.to_bytes(count, "big")
    return bytes(out)


class Aes128:
    """An AES-128 cipher context with a fixed key."""

    def __init__(self, key: bytes):
        self._round_keys = expand_key(key)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (ECB primitive)."""
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        return _encrypt_blocks(block, self._round_keys)

    def ctr_keystream(self, nonce: bytes, nblocks: int) -> bytes:
        """Generate ``nblocks`` blocks of CTR keystream."""
        if len(nonce) != 8:
            raise ValueError("CTR nonce must be 8 bytes")
        counter_blocks = b"".join(
            nonce + counter.to_bytes(8, "big") for counter in range(nblocks)
        )
        return _encrypt_blocks(counter_blocks, self._round_keys)


def aes128_ctr(data: bytes, key: bytes, nonce: bytes) -> bytes:
    """Encrypt or decrypt ``data`` with AES-128-CTR (involutive)."""
    size = len(data)
    if not size:
        return b""
    keystream = Aes128(key).ctr_keystream(nonce, (size + 15) // 16)
    mixed = (int.from_bytes(data, "big")
             ^ int.from_bytes(keystream[:size], "big"))
    return mixed.to_bytes(size, "big")
