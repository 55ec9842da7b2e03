"""Canonical Huffman codec: roundtrips, compactness, malformed streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.huffman import HuffmanCodec, huffman_decode, huffman_encode
from repro.errors import DecompressionError


class TestRoundtrip:
    def test_simple(self):
        syms = np.array([1, 2, 1, 1, 3, 2, 1, 1, 1], dtype=np.int64)
        np.testing.assert_array_equal(huffman_decode(huffman_encode(syms)), syms)

    def test_empty(self):
        out = huffman_decode(huffman_encode(np.zeros(0, dtype=np.int64)))
        assert out.size == 0

    def test_single_distinct_symbol(self):
        syms = np.full(1000, 42, dtype=np.int64)
        blob = huffman_encode(syms)
        np.testing.assert_array_equal(huffman_decode(blob), syms)
        assert len(blob) < 64  # degenerate alphabet must stay tiny

    def test_two_symbols(self):
        syms = np.array([0, 1] * 500, dtype=np.int64)
        blob = huffman_encode(syms)
        np.testing.assert_array_equal(huffman_decode(blob), syms)
        # ~1 bit/symbol plus header.
        assert len(blob) < 1000 // 8 + 64

    def test_large_alphabet(self, rng):
        syms = rng.integers(0, 5000, size=20000)
        np.testing.assert_array_equal(huffman_decode(huffman_encode(syms)), syms)

    def test_skewed_distribution_beats_flat_coding(self, rng):
        # Geometric-ish: mostly 0/1 — entropy far below log2(alphabet).
        syms = rng.geometric(0.7, size=30000) - 1
        blob = huffman_encode(syms)
        assert len(blob) * 8 < 0.5 * 30000 * np.log2(syms.max() + 2)

    def test_long_codes_exercise_slow_path(self):
        # Exponential frequencies force codes longer than the 12-bit table.
        parts = [np.full(2**i, i, dtype=np.int64) for i in range(18)]
        syms = np.concatenate(parts)
        np.testing.assert_array_equal(huffman_decode(huffman_encode(syms)), syms)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            huffman_encode(np.array([-1, 2]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            huffman_encode(np.zeros((2, 2), dtype=np.int64))

    def test_truncated_header(self):
        with pytest.raises(DecompressionError):
            huffman_decode(b"\x01\x02")

    def test_truncated_payload(self):
        blob = huffman_encode(np.arange(100, dtype=np.int64))
        with pytest.raises(DecompressionError):
            huffman_decode(blob[: len(blob) // 2])

    def test_corrupt_code_length_raises_decompression_error(self):
        # Flip a stored length past MAX_CODE_LENGTH: must stay a
        # DecompressionError, never an arithmetic overflow.
        blob = bytearray(huffman_encode(np.arange(10, dtype=np.int64)))
        lengths_off = 10 + 10 * 8  # header + symbol table
        blob[lengths_off] = 200
        with pytest.raises(DecompressionError):
            huffman_decode(bytes(blob))

    def test_random_corruption_never_escapes_decompression_error(self, rng):
        # Single-bit corruption anywhere in the stream must either decode
        # (to garbage) or raise DecompressionError — nothing else.
        good = huffman_encode(rng.geometric(0.4, size=2000) - 1)
        for _ in range(300):
            blob = bytearray(good)
            blob[rng.integers(0, len(blob))] ^= 1 << rng.integers(0, 8)
            try:
                huffman_decode(bytes(blob))
            except DecompressionError:
                pass

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 300), min_size=1, max_size=500).map(
            lambda xs: np.array(xs, dtype=np.int64)
        )
    )
    def test_roundtrip_property(self, syms):
        np.testing.assert_array_equal(huffman_decode(huffman_encode(syms)), syms)


class TestCodecObject:
    def test_instances_are_stateless(self):
        c = HuffmanCodec()
        a = np.array([1, 1, 2], dtype=np.int64)
        b = np.array([9, 8, 9, 9], dtype=np.int64)
        blob_a = c.encode(a)
        blob_b = c.encode(b)
        np.testing.assert_array_equal(c.decode(blob_a), a)
        np.testing.assert_array_equal(c.decode(blob_b), b)

    def test_deterministic(self):
        syms = np.array([3, 1, 4, 1, 5, 9, 2, 6] * 10, dtype=np.int64)
        assert huffman_encode(syms) == huffman_encode(syms)


class TestBlockedDecode:
    def test_last_code_overrunning_payload_is_rejected(self):
        """A final code that runs past the payload's last byte must not count
        as ending exactly on ``payload_bits``: canonical codes 0/10/11, the
        payload ``00000001`` declares 8 bits and 8 symbols, and the eighth
        symbol ``10`` would need a ninth bit."""
        import struct

        blob = b"".join((
            struct.pack("<IHI", 8, 3, 8),
            np.array([5, 6, 7], dtype=np.uint64).tobytes(),
            bytes([1, 2, 2]),
            b"\x01",
        ))
        with pytest.raises(DecompressionError, match="length mismatch"):
            huffman_decode(blob)

    def test_peak_below_32_bytes_per_payload_bit(self):
        """The every-offset decode stage runs in blocks: a multi-Mbit stream
        must not allocate tens of bytes per payload bit (it once took ~78)."""
        import struct
        import tracemalloc

        rng = np.random.default_rng(11)
        syms = np.minimum(rng.geometric(0.05, size=300_000), 3000)
        blob = huffman_encode(syms)
        payload_bits = struct.unpack_from("<IHI", blob)[2]
        assert payload_bits >= 1 << 20
        tracemalloc.start()
        try:
            back = huffman_decode(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back, syms)
        assert peak / payload_bits < 32
