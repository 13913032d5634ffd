"""AES-128-CTR and CRC-32 correctness."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos import Aes128, Crc32, aes128_ctr, crc32, expand_key
from repro.algos.aes import _SBOX, _xtime


class TestAesBlock:
    def test_fips197_vector(self):
        # FIPS-197 Appendix C.1.
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert Aes128(key).encrypt_block(plaintext) == expected

    def test_key_schedule_shape(self):
        round_keys = expand_key(b"\x00" * 16)
        assert len(round_keys) == 11
        assert all(len(rk) == 16 for rk in round_keys)

    def test_key_schedule_first_round_is_key(self):
        key = bytes(range(16))
        assert bytes(expand_key(key)[0]) == key

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ValueError):
            Aes128(b"short")

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            Aes128(b"k" * 16).encrypt_block(b"small")


class TestAesCtr:
    KEY = b"0123456789abcdef"
    NONCE = b"nonce123"

    def test_involution(self):
        data = b"pages flowing through the DPU" * 10
        encrypted = aes128_ctr(data, self.KEY, self.NONCE)
        assert aes128_ctr(encrypted, self.KEY, self.NONCE) == data

    def test_ciphertext_differs_from_plaintext(self):
        data = b"x" * 64
        assert aes128_ctr(data, self.KEY, self.NONCE) != data

    def test_length_preserved_for_partial_blocks(self):
        for size in (0, 1, 15, 16, 17, 100):
            data = b"q" * size
            assert len(aes128_ctr(data, self.KEY, self.NONCE)) == size

    def test_nonce_changes_keystream(self):
        data = b"z" * 32
        a = aes128_ctr(data, self.KEY, b"aaaaaaaa")
        b = aes128_ctr(data, self.KEY, b"bbbbbbbb")
        assert a != b

    def test_bad_nonce_size_rejected(self):
        with pytest.raises(ValueError):
            aes128_ctr(b"data", self.KEY, b"tiny")

    @settings(max_examples=30, deadline=None)
    @given(data=st.binary(max_size=4096))
    def test_property_roundtrip(self, data):
        encrypted = aes128_ctr(data, self.KEY, self.NONCE)
        assert aes128_ctr(encrypted, self.KEY, self.NONCE) == data

    def test_keystream_block_k_is_the_encrypted_counter_k(self):
        # The bulk routine and the single-block primitive are one piece
        # of code; this pins the counter layout and the plane order.
        cipher = Aes128(self.KEY)
        keystream = cipher.ctr_keystream(self.NONCE, 1025)
        assert len(keystream) == 1025 * 16
        for k in (0, 1, 2, 15, 16, 255, 256, 257, 1024):
            counter_block = self.NONCE + k.to_bytes(8, "big")
            assert (keystream[16 * k:16 * k + 16]
                    == cipher.encrypt_block(counter_block))

    def test_ctr_is_xor_with_the_keystream(self):
        data = bytes(range(256)) * 3 + b"tail"
        keystream = Aes128(self.KEY).ctr_keystream(self.NONCE, 49)
        expected = bytes(a ^ b for a, b in zip(data, keystream))
        assert aes128_ctr(data, self.KEY, self.NONCE) == expected

    @settings(max_examples=25, deadline=None)
    @given(key=st.binary(min_size=16, max_size=16),
           blocks=st.lists(st.binary(min_size=16, max_size=16),
                           min_size=1, max_size=5))
    def test_property_matches_textbook_rounds(self, key, blocks):
        cipher = Aes128(key)
        round_keys = expand_key(key)
        for block in blocks:
            assert (cipher.encrypt_block(block)
                    == _textbook_encrypt_block(block, round_keys))


def _textbook_encrypt_block(block, round_keys):
    """FIPS-197 section 5.1, one byte at a time: the reference the
    plane-sliced routine is compared against."""
    state = [b ^ k for b, k in zip(block, round_keys[0])]
    for round_index in range(1, 11):
        state = [_SBOX[b] for b in state]                  # SubBytes
        state = [state[row + 4 * ((col + row) % 4)]        # ShiftRows:
                 for col in range(4)                       # row r turns
                 for row in range(4)]                      # left by r
        if round_index < 10:                               # MixColumns
            mixed = []
            for col in range(0, 16, 4):
                a = state[col:col + 4]
                d = [_xtime(v) for v in a]
                mixed += [d[0] ^ d[1] ^ a[1] ^ a[2] ^ a[3],
                          a[0] ^ d[1] ^ d[2] ^ a[2] ^ a[3],
                          a[0] ^ a[1] ^ d[2] ^ d[3] ^ a[3],
                          d[0] ^ a[0] ^ a[1] ^ a[2] ^ d[3]]
            state = mixed
        state = [b ^ k for b, k in zip(state, round_keys[round_index])]
    return bytes(state)


class TestCrc32:
    def test_known_vector(self):
        # The classic check value for "123456789".
        assert crc32(b"123456789") == 0xCBF43926

    def test_matches_zlib(self):
        for data in (b"", b"a", b"hello world", bytes(range(256))):
            assert crc32(data) == zlib.crc32(data)

    def test_incremental_equals_oneshot(self):
        data = b"incremental checksumming of storage pages"
        hasher = Crc32()
        hasher.update(data[:10])
        hasher.update(data[10:])
        assert hasher.value == crc32(data)

    def test_hexdigest_format(self):
        assert Crc32(b"123456789").hexdigest() == "cbf43926"

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=1024))
    def test_property_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    @settings(max_examples=30, deadline=None)
    @given(data=st.binary(min_size=1, max_size=256),
           split=st.integers(min_value=0, max_value=256))
    def test_property_streaming_split(self, data, split):
        split = min(split, len(data))
        assert crc32(data[split:], crc32(data[:split])) == crc32(data)
