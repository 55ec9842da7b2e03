"""Reference ZFP bitplane coder: the per-block, per-plane loop, kept as oracle.

This is the original scalar implementation of the ZFP stream format — one
``_encode_plane``/``_decode_plane`` call per (block, bitplane), driven through
:class:`BitWriter`/:class:`BitReader`.  It is slow but easy to audit against
the format description, so the tests hold the vectorised coder in
:mod:`repro.compressors.zfp` to it bit for bit: compressed bytes must be
identical and reconstructions must agree in every bit.

The helpers the two coders share by definition (block shape, exponent
escape and plane cut-off rules) are imported rather than copied, so the
oracle pins the *coding* of the bit planes, not those rules.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.bitstream import BitReader, BitWriter
from repro.compressors.blocks import blockify, unblockify
from repro.compressors.transform import (
    forward_transform,
    int_to_negabinary,
    inverse_transform,
    negabinary_to_int,
    sequency_order,
)
from repro.compressors.zfp import (
    _E_BIAS,
    _E_BITS,
    _K_BITS,
    PRECISION,
    _block_for_shape,
    _kmin_for,
    _needs_raw_escape,
)
from repro.errors import DecompressionError

__all__ = ["reference_compress", "reference_decompress"]


def _rev_bits(value: int, n: int) -> int:
    """Reverse the low ``n`` bits of ``value`` (LSB-first <-> MSB-first)."""
    if n == 0:
        return 0
    return int(f"{value:0{n}b}"[::-1], 2)


def _encode_plane(writer: BitWriter, x: int, n: int, size: int) -> int:
    """ZFP group-testing bitplane pass; returns the updated significance count."""
    acc = 0
    nbits = 0
    if n:
        acc = _rev_bits(x & ((1 << n) - 1), n)
        nbits = n
    rest = x >> n
    pos = n
    while rest:
        # Group: a '1' test bit, then the plane bits up to and including the
        # next significant coefficient (LSB-first from position `pos`).
        glen = (rest & -rest).bit_length()
        group = _rev_bits((x >> pos) & ((1 << glen) - 1), glen)
        acc = (acc << (1 + glen)) | (1 << glen) | group
        nbits += 1 + glen
        pos += glen
        rest >>= glen
    if pos < size:
        acc <<= 1  # '0' test bit: no further significant coefficients
        nbits += 1
    writer.write_bits(acc, nbits)
    return pos


def _decode_plane(reader: BitReader, n: int, size: int) -> tuple[int, int]:
    """Inverse of :func:`_encode_plane`; returns (plane integer, new n)."""
    x = 0
    if n:
        x = _rev_bits(reader.read_bits(n), n)
    pos = n
    while pos < size:
        if not reader.read_bit():
            break
        span = size - pos
        start = reader.bit_position
        take = min(span, reader.bit_size - start)
        if take <= 0:
            raise DecompressionError("bit stream exhausted")
        chunk = reader.read_bits(take)
        if chunk == 0:
            if take < span:
                raise DecompressionError("bit stream exhausted")
            raise DecompressionError("zfp plane ran past block size")
        zeros = take - chunk.bit_length()
        x |= 1 << (pos + zeros)
        pos += zeros + 1
        reader.seek_bit(start + zeros + 1)
    return x, pos


def reference_compress(values: np.ndarray, abs_bound: float) -> bytes:
    """ZFP payload of float64 ``values`` (what ``ZFP._compress_impl`` returns)."""
    shape = values.shape
    block = _block_for_shape(shape)
    core_dims = sum(1 for b in block if b == 4)
    blocks = blockify(values, block)
    n_blocks = blocks.shape[0]
    core = blocks.reshape((n_blocks,) + (4,) * core_dims)
    bsize = 4**core_dims

    fmax = np.abs(core).reshape(n_blocks, -1).max(axis=1)
    nonzero = fmax > 0.0
    exps = np.zeros(n_blocks, dtype=np.int64)
    if nonzero.any():
        _, e = np.frexp(fmax[nonzero])
        exps[nonzero] = e
    scale = np.exp2(PRECISION - exps.astype(np.float64))
    q = np.rint(core * scale.reshape((n_blocks,) + (1,) * core_dims)).astype(np.int64)

    coeff = forward_transform(q).reshape(n_blocks, bsize)
    order = sequency_order(core_dims)
    neg = int_to_negabinary(coeff[:, order])

    kmax_arr = np.zeros(n_blocks, dtype=np.int64)
    any_bits = neg.max(axis=1)
    nz = any_bits > 0
    if nz.any():
        kmax_arr[nz] = np.floor(np.log2(any_bits[nz].astype(np.float64))).astype(
            np.int64
        )
    kmax_arr = np.minimum(kmax_arr + 1, 63)
    global_kmax = int(kmax_arr.max()) if n_blocks else 0
    planes = np.zeros((global_kmax + 1, n_blocks), dtype=np.uint64)
    for k in range(global_kmax + 1):
        bits = ((neg >> np.uint64(k)) & np.uint64(1)).astype(np.uint8)
        packed = np.packbits(bits, axis=1, bitorder="little")
        if packed.shape[1] < 8:
            packed = np.pad(packed, ((0, 0), (0, 8 - packed.shape[1])))
        planes[k] = packed[:, :8].copy().view(np.uint64).ravel()

    writer = BitWriter()
    kmins = np.array(
        [_kmin_for(int(e), abs_bound, core_dims) for e in exps], dtype=np.int64
    )
    flat_core = core.reshape(n_blocks, bsize)
    for b in range(n_blocks):
        if not nonzero[b]:
            writer.write_bit(0)
            continue
        writer.write_bit(1)
        e = int(exps[b])
        if _needs_raw_escape(e, abs_bound):
            writer.write_bit(1)
            writer.write_many(
                flat_core[b].view(np.uint64), np.full(bsize, 64, dtype=np.int64)
            )
            continue
        kmax = int(kmax_arr[b])
        while kmax > 0 and planes[kmax, b] == 0:
            kmax -= 1
        writer.write_bits(((e + _E_BIAS) << _K_BITS) | kmax, 1 + _E_BITS + _K_BITS)
        kmin = int(kmins[b])
        n = 0
        for k in range(kmax, kmin - 1, -1):
            n = _encode_plane(writer, int(planes[k, b]), n, bsize)

    header = struct.pack("<BQ", core_dims, n_blocks)
    return header + writer.getvalue()


def reference_decompress(
    payload: bytes, shape: tuple[int, ...], abs_bound: float
) -> np.ndarray:
    """Inverse of :func:`reference_compress` (``ZFP._decompress_impl``)."""
    core_dims, n_blocks = struct.unpack_from("<BQ", payload, 0)
    bsize = 4**core_dims
    reader = BitReader(payload[9:])

    neg = np.zeros((n_blocks, bsize), dtype=np.uint64)
    exps = np.zeros(n_blocks, dtype=np.int64)
    nonzero = np.zeros(n_blocks, dtype=bool)
    raw_blocks: dict[int, np.ndarray] = {}
    for b in range(n_blocks):
        if not reader.read_bit():
            continue
        nonzero[b] = True
        if reader.read_bit():  # verbatim escape
            raw = reader.read_many(np.full(bsize, 64, dtype=np.int64))
            raw_blocks[b] = raw.view(np.float64)
            continue
        e = reader.read_bits(_E_BITS) - _E_BIAS
        exps[b] = e
        kmax = reader.read_bits(_K_BITS)
        kmin = _kmin_for(e, abs_bound, core_dims)
        n = 0
        row = neg[b]
        for k in range(kmax, kmin - 1, -1):
            x, n = _decode_plane(reader, n, bsize)
            if x:
                xb = np.frombuffer(int(x).to_bytes(8, "little"), dtype=np.uint8)
                bits = np.unpackbits(xb, bitorder="little")[:bsize]
                row |= bits.astype(np.uint64) << np.uint64(k)

    coeff = negabinary_to_int(neg)
    inv_order = np.argsort(sequency_order(core_dims))
    coeff = coeff[:, inv_order].reshape((n_blocks,) + (4,) * core_dims)
    q = inverse_transform(coeff)
    scale = np.exp2(exps.astype(np.float64) - PRECISION)
    vals = q.astype(np.float64) * scale.reshape((n_blocks,) + (1,) * core_dims)
    vals[~nonzero] = 0.0
    for b, raw in raw_blocks.items():
        vals[b] = raw.reshape((4,) * core_dims)

    block = _block_for_shape(shape)
    full = vals.reshape((n_blocks,) + tuple(block))
    return unblockify(full, shape, tuple(block))
