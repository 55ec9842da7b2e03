"""The vectorised ZFP coder against its scalar reference, bit for bit.

``zfp_reference`` is the original per-block, per-plane coder.  The property
below draws arrays of every rank the codec handles (1-D to 4-D, partial edge
blocks), every block regime (all-zero blocks, verbatim raw-escape blocks,
constant blocks, wide dynamic range) and bounds from loose to below the
fixed-point resolution, and requires identical payload bytes from
compression and identical reconstruction bytes from decompression.

The corruption battery checks the decoder's contract on damaged input:
every truncation and every corrupt inner-header field either decodes or
raises :class:`DecompressionError` — never another exception, never an
allocation sized by an unchecked header.
"""

from __future__ import annotations

import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from zfp_reference import reference_compress, reference_decompress

from repro.compressors import ZFP, get_compressor
from repro.compressors.base import Compressor
from repro.errors import DecompressionError

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "kernel_streams.npz"

_MAX_SIDE = {1: 70, 2: 13, 3: 9, 4: 5}


@st.composite
def zfp_inputs(draw):
    """(float64 array, absolute bound) covering the coder's block regimes."""
    ndim = draw(st.integers(1, 4))
    shape = tuple(
        draw(st.lists(st.integers(1, _MAX_SIDE[ndim]), min_size=ndim, max_size=ndim))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    regime = draw(
        st.sampled_from(
            ["noise", "smooth", "zero_blocks", "offset", "constant", "sparse", "wide"]
        )
    )
    if regime == "noise":
        x = rng.standard_normal(shape) * 10.0 ** float(rng.integers(-3, 4))
    elif regime == "smooth":
        x = np.cumsum(rng.standard_normal(shape), axis=-1)
    elif regime == "zero_blocks":
        x = rng.standard_normal(shape)
        x[: -(-shape[0] // 2)] = 0.0
    elif regime == "offset":  # tiny range on a huge offset: raw escapes
        x = 1e8 + rng.standard_normal(shape) * 1e-3
    elif regime == "constant":
        x = np.full(shape, float(rng.standard_normal()) * 1e3)
    elif regime == "sparse":
        x = np.where(rng.random(shape) < 0.05, rng.standard_normal(shape), 0.0)
    else:  # values spread over many binades inside one block
        x = rng.standard_normal(shape) * np.exp2(rng.integers(-60, 60, shape))
    rel = draw(st.sampled_from([1e-1, 1e-2, 1e-3, 1e-5, 1e-7, 1e-12]))
    span = float(x.max() - x.min())
    scale = span if span > 0 else max(float(np.abs(x).max()), 1.0)
    return np.ascontiguousarray(x, dtype=np.float64), rel * scale


class TestOracle:
    @settings(max_examples=80, deadline=None)
    @given(zfp_inputs())
    def test_matches_reference_bit_for_bit(self, case):
        values, abs_bound = case
        zfp = ZFP()
        payload = zfp._compress_impl(values, abs_bound)
        assert payload == reference_compress(values, abs_bound)
        got = zfp._decompress_impl(payload, values.shape, abs_bound)
        want = reference_decompress(payload, values.shape, abs_bound)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_zero_and_escape_blocks_roundtrip_exactly(self):
        zfp = ZFP()
        x = np.zeros((8, 8, 8))
        x[4:] = 1e8 + np.arange(4 * 64).reshape(4, 8, 8) * 1e-9
        payload = zfp._compress_impl(x, 1e-9)
        assert payload == reference_compress(x, 1e-9)
        got = zfp._decompress_impl(payload, x.shape, 1e-9)
        assert got.tobytes() == x.tobytes()  # zeros and escapes are exact


@pytest.fixture(scope="module")
def frozen_blobs():
    frozen = np.load(FIXTURES)
    names = sorted({k.split("/")[1] for k in frozen.files if k.startswith("zfp/")})
    return {name: frozen[f"zfp/{name}/blob"].tobytes() for name in names}


def _decodes_or_raises(blob: bytes) -> None:
    try:
        get_compressor("zfp").decompress(blob)
    except DecompressionError:
        pass


class TestCorruptStreams:
    def test_truncation_decodes_or_raises(self, frozen_blobs):
        for blob in frozen_blobs.values():
            payload = Compressor._unpack_header(blob)[-1]
            inner = len(blob) - len(payload)  # start of the zfp payload
            cuts = set(np.linspace(0, len(blob) - 1, 40).astype(int))
            cuts.update(range(inner, inner + 10))  # inside the inner header
            for cut in sorted(cuts):
                _decodes_or_raises(blob[:cut])

    def test_short_payload_raises(self, frozen_blobs):
        for blob in frozen_blobs.values():
            inner = len(blob) - len(Compressor._unpack_header(blob)[-1])
            for cut in range(inner, inner + struct.calcsize("<BQ")):
                with pytest.raises(DecompressionError):
                    get_compressor("zfp").decompress(blob[:cut])

    def test_corrupt_inner_header_raises(self, frozen_blobs):
        for blob in frozen_blobs.values():
            inner = len(blob) - len(Compressor._unpack_header(blob)[-1])
            core_dims, n_blocks = struct.unpack_from("<BQ", blob, inner)
            bad_dims = [d for d in (0, 1, 2, 3, 4, 255) if d != core_dims]
            bad_blocks = [0, n_blocks - 1, n_blocks + 1, 2**40, 2**64 - 1]
            for dims, blocks in [(d, n_blocks) for d in bad_dims] + [
                (core_dims, b) for b in bad_blocks
            ]:
                bad = bytearray(blob)
                struct.pack_into("<BQ", bad, inner, dims, blocks)
                with pytest.raises(DecompressionError):
                    get_compressor("zfp").decompress(bytes(bad))

    def test_payload_bit_flips_decode_or_raise(self, frozen_blobs):
        rng = np.random.default_rng(2025)
        for blob in frozen_blobs.values():
            inner = len(blob) - len(Compressor._unpack_header(blob)[-1])
            for _ in range(60):
                bad = bytearray(blob)
                bad[rng.integers(inner + 9, len(bad))] ^= 1 << int(rng.integers(0, 8))
                _decodes_or_raises(bytes(bad))
