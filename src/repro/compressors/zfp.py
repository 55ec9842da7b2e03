"""ZFP: transform-based fixed-accuracy EBLC (Lindstrom, TVCG 2014).

Pipeline per 4^d block (d = min(rank, 3); higher-rank arrays are processed as
independent 3-D slabs, the common practice for multi-field data):

1. block-floating-point: align all values to the block's largest exponent
   ``e`` and round to int64 fixed point with :data:`PRECISION` fraction bits;
2. separable integer lifting transform (:mod:`repro.compressors.transform`);
3. total-sequency coefficient reordering, negabinary mapping;
4. embedded **bitplane coding with group testing** from the most significant
   plane down to a cut-off plane derived from the absolute error bound and
   the inverse-transform gain — ZFP's fixed-accuracy mode.

The error bound is guaranteed analytically: truncating planes below ``kmin``
perturbs each coefficient by less than ``2^(kmin+1)``, the inverse lift's
L∞ gain is ``(15/4)^d``, and fixed-point rounding adds half a unit, all of
which the cut-off computation budgets for (see :func:`_kmin_for`).

Stream layout per block: a nonzero flag bit; for nonzero blocks an escape
bit, then either ``64 * 4^d`` verbatim bits or a 12-bit exponent and 6-bit
top plane ``kmax`` followed by the planes ``kmax .. kmin``.  A plane with
``n`` known-significant positions is coded as those ``n`` bits, then groups
(a ``1`` test bit and the plane bits up to and including the next set bit),
then a ``0`` test bit unless the plane ran to the end of the block.

Both halves of the coder work on whole arrays rather than per bit:

- the **encoder** knows every block up front, so it computes each plane's
  code in closed form for a chunk of blocks at once (:func:`_encode_chunk`)
  and emits all fields with one :meth:`BitWriter.write_many`;
- the **decoder** must find block boundaries sequentially, so it walks the
  stream through a Python-int window, keeps each plane in stream order, and
  scatters the collected planes into the coefficient array in vectorised
  batches (:func:`_decode_planes`).
"""

from __future__ import annotations

import math
import struct
from array import array

import numpy as np

from repro.compressors.base import Compressor, register_compressor
from repro.compressors.bitstream import BitWriter
from repro.compressors.blocks import blockify, padded_shape, unblockify
from repro.compressors.transform import (
    forward_transform,
    int_to_negabinary,
    inverse_transform,
    negabinary_to_int,
    sequency_order,
)
from repro.errors import DecompressionError

__all__ = ["ZFP", "PRECISION"]

#: Fraction bits of the block-floating-point representation.  54 leaves
#: 2 bits/dimension of transform headroom plus sign inside int64 (3-D worst
#: case: 54 + 6 + sign < 64) while keeping conversion rounding (2^(e-55))
#: far below any practical bound.
PRECISION = 54

_E_BIAS = 2048  # stored exponent bias (12-bit field)
_E_BITS = 12
_K_BITS = 6

_HEADER = struct.Struct("<BQ")  # core dims, block count
#: Encoder chunk size in (block, position) cells.  The per-chunk
#: ``(blocks, planes, positions)`` temporaries hold this many cells per plane
#: (at most 2 MB at 64 planes); larger chunks measured slower on 1-D fields.
_ENCODE_CELLS = 4096
#: Decoder scatter batch in plane bits: the collected planes are flushed
#: into the coefficient array once they hold about this many bits.
_SCATTER_BITS = 1 << 16
#: Decoder window refill, in bytes of stream (widened for 3-D blocks to
#: hold one worst-case plane).
_WINDOW_BYTES = 48
#: Range of the exponents ``frexp`` returns for nonzero finite float64s;
#: a block header outside it is corrupt.
_E_RANGE = (-1073, 1024)


def _block_for_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    ndim = len(shape)
    core = min(ndim, 3)
    return (1,) * (ndim - core) + (4,) * core


def _needs_raw_escape(e: int, abs_bound: float) -> bool:
    """True when fixed-point conversion alone could breach the bound.

    Happens only for huge common exponents with bounds near (or below) the
    conversion resolution 2^(e - PRECISION) — e.g. fields riding a 1e8
    offset with a micro-scale value range.  Such blocks are stored verbatim.
    """
    if abs_bound <= 0:
        return True
    bound_q = math.ldexp(abs_bound, PRECISION - e)
    # 32 q-units of margin covers fixed-point rounding plus the lifted
    # transform's few-unit roundtrip slack after 3-D gain amplification.
    return bound_q < 32.0


def _kmin_for(e: int, abs_bound: float, core_dims: int) -> int:
    """Lowest encoded bitplane for fixed-accuracy mode.

    Budget: plane truncation (< 2^(kmin+1) per coefficient) amplified by the
    inverse-transform gain (< 4 per dimension) plus fixed-point rounding must
    stay under ``abs_bound`` in the value domain.
    """
    if abs_bound <= 0:
        return 0
    # abs_bound expressed in fixed-point (q) units; ldexp, because 2^(P - e)
    # alone overflows a double for subnormal-scale blocks (e below -970).
    bound_q = math.ldexp(abs_bound, PRECISION - e)
    if bound_q <= 1.0:
        return 0
    # Budget: negabinary truncation of planes < kmin perturbs a coefficient
    # by at most (2/3)*2^kmin; the inverse lift's per-dimension L-inf gain is
    # 15/4 < 2^1.91, so a guard of 2 bits/dimension keeps the value-domain
    # error under (2/3)*2^(1.91d - 2d) * bound < bound (fixed-point rounding
    # of 1/2 q-unit rides inside the remaining margin).
    kmin = int(np.floor(np.log2(bound_q))) - 2 * core_dims
    return max(kmin, 0)


def _stream_kmin(e: int, abs_bound: float, core_dims: int) -> int:
    """:func:`_kmin_for` of a decoded exponent; rejects any no encoder writes."""
    if _E_RANGE[0] <= e <= _E_RANGE[1]:
        try:
            return _kmin_for(e, abs_bound, core_dims)
        except OverflowError:  # a bound this far above 2^e is never encoded
            pass
    raise DecompressionError(f"zfp block exponent {e} out of range")


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length`` of every element of a ``uint64`` array."""
    out = np.zeros(x.shape, dtype=np.int64)
    nz = x > 0
    v = x[nz]
    t = np.minimum(np.floor(np.log2(v.astype(np.float64))).astype(np.int64), 63)
    # Rounding to float64 can only carry into the next power of two.
    t -= (v >> t.astype(np.uint64)) == 0
    out[nz] = t + 1
    return out


def _stream_order(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a 0/1 array into integers, position 0 as MSB.

    The last axis is a block's 4, 16 or 64 coefficient positions, i.e. one
    bitplane; the result is that plane as the bit string the stream carries.
    """
    size = bits.shape[-1]
    packed = np.packbits(bits, axis=-1)
    nbytes = packed.shape[-1]
    word = packed.view(f">u{nbytes}")[..., 0].astype(np.uint64)
    return word >> np.uint64(8 * nbytes - size)


def _encode_chunk(
    writer: BitWriter,
    neg: np.ndarray,
    head_v: np.ndarray,
    head_w: np.ndarray,
    escape: np.ndarray,
    raw: np.ndarray,
    kmax: np.ndarray,
    nplanes: np.ndarray,
) -> None:
    """Emit a run of blocks: headers, verbatim escapes and coded planes.

    Plane ``p`` of a block (bitplane ``kmax - p``) is coded in closed form.
    With ``n`` the running maximum of the earlier planes' bit lengths and
    ``L = max(n, bit_length(plane))``, its fields are: the first ``n`` plane
    bits as one field; for each position ``n <= j < L`` the plane bit,
    preceded by a ``1`` test bit where a group starts (``j == n`` or bit
    ``j - 1`` set); and a terminating ``0`` if ``L < size``.  All fields of
    the chunk land in stream order in one :meth:`BitWriter.write_many`.
    ``raw`` holds each block's values as ``uint64`` words, stored verbatim
    for the blocks flagged in ``escape``.
    """
    size = neg.shape[1]
    nraw = np.where(escape, size, 0)
    depth = int(nplanes.max())
    j = np.arange(size)
    act = np.arange(depth) < nplanes[:, None]  # (block, plane)
    shift = np.where(act, kmax[:, None] - np.arange(depth), 0).astype(np.uint64)
    bits = ((neg[:, None, :] >> shift[:, :, None]) & np.uint64(1)).astype(np.uint8)
    bits &= act[:, :, None]
    top = (bits * (j + 1).astype(np.uint8)).max(axis=2)  # position bit length
    L = np.maximum.accumulate(top, axis=1).astype(np.int64)
    n = np.zeros_like(L)
    n[:, 1:] = L[:, :-1]
    t = L - n  # group-coded positions per plane

    # Field slots: header, raw words, then per plane prefix + tail + end.
    count = np.where(act, 2 + t, 0)
    per_block = 1 + nraw + count.sum(axis=1)
    bstart = np.cumsum(per_block) - per_block
    pstart = (bstart + 1 + nraw)[:, None] + np.cumsum(count, axis=1) - count
    total = int(per_block.sum())
    values = np.zeros(total, dtype=np.uint64)
    widths = np.zeros(total, dtype=np.int64)

    values[bstart] = head_v
    widths[bstart] = head_w
    if escape.any():
        eb = np.flatnonzero(escape)
        idx = bstart[eb][:, None] + 1 + j
        values[idx] = raw[eb]
        widths[idx] = 64

    ps = pstart[act]
    nn = n[act]
    prefix = _stream_order(bits)[act] >> (size - nn).astype(np.uint64)
    values[ps] = np.where(nn > 0, prefix, 0)  # a 64-bit shift is undefined
    widths[ps] = nn
    widths[ps + 1 + t[act]] = L[act] < size

    tail = (j >= n[:, :, None]) & (j < L[:, :, None])
    bi, pi, ji = np.nonzero(tail)
    bit = bits[bi, pi, ji]
    # A group starts at n or after a set bit (j == 0 implies j == n, so the
    # wrapped index at j - 1 == -1 never decides).
    start = (ji == n[bi, pi]) | (bits[bi, pi, ji - 1] == 1)
    idx = pstart[bi, pi] + 1 + ji - n[bi, pi]
    values[idx] = (start.astype(np.uint64) << np.uint64(1)) | bit
    widths[idx] = 1 + start
    writer.write_many(values, widths)


def _window(buf: bytes, bp: int, nbytes: int, total: int) -> tuple[int, int]:
    """Stream bits from byte ``bp // 8`` on as ``(int window, end bit)``."""
    if bp > total:
        raise DecompressionError("bit stream exhausted")
    i = bp >> 3
    return int.from_bytes(buf[i : i + nbytes], "big"), (i + nbytes) << 3


def _scatter(
    neg: np.ndarray, planes: list, blocks: list, kmaxes: list, counts: list
) -> None:
    """Write collected planes into ``neg`` in one vectorised pass.

    ``planes`` holds each block's planes ``kmax, kmax - 1, ...`` back to
    back, in stream order; ``blocks``/``kmaxes``/``counts`` say whose they
    are.  Bits of different planes never collide, so an OR-reduction per
    block rebuilds the negabinary coefficients.
    """
    size = neg.shape[1]
    nbytes = (size + 7) // 8
    counts_a = np.array(counts, dtype=np.int64)
    starts = np.cumsum(counts_a) - counts_a
    k = np.repeat(np.array(kmaxes, dtype=np.int64) + starts, counts_a)
    k -= np.arange(k.size)
    words = np.array(planes, dtype=np.uint64).astype(f">u{nbytes}")
    bits = np.unpackbits(words.view(np.uint8).reshape(-1, nbytes), axis=1)
    contrib = bits[:, 8 * nbytes - size :].astype(np.uint64) << k[:, None].astype(
        np.uint64
    )
    neg[blocks] = np.bitwise_or.reduceat(contrib, starts, axis=0)


def _decode_planes(
    stream: bytes, n_blocks: int, core_dims: int, abs_bound: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """Walk the block stream; returns ``(neg, exps, nonzero, raw_blocks)``.

    Reads go through a Python-int window over the stream (refilled every
    :data:`_WINDOW_BYTES`), so each field is a shift and a mask.  Planes are
    kept in stream order — position 0 as the MSB of a ``size``-bit integer —
    so group payloads need no bit reversal: a group's set bit is the top bit
    of the payload window.
    """
    size = 4**core_dims
    total = 8 * len(stream)
    low = 2 * size + 24  # bits for a block header or one group-coded plane
    wbytes = max(_WINDOW_BYTES, low // 8 + 2)
    # Zero padding lets a read run off the end of a truncated stream; the
    # position checks then report the truncation.
    buf = stream + bytes(8 * size + wbytes + 8)
    flush_at = max(1, _SCATTER_BITS // size)

    neg = np.zeros((n_blocks, size), dtype=np.uint64)
    exps = array("q", bytes(8 * n_blocks))
    nonzero = bytearray(n_blocks)
    raw_blocks: dict[int, np.ndarray] = {}
    kmin_of: dict[int, int] = {}
    planes: list[int] = []
    blocks: list[int] = []
    kmaxes: list[int] = []
    counts: list[int] = []

    bp = win = wend = 0
    for b in range(n_blocks):
        if wend - bp < low:
            win, wend = _window(buf, bp, wbytes, total)
        bp += 1
        if not (win >> (wend - bp)) & 1:
            continue
        nonzero[b] = 1
        bp += 1
        if (win >> (wend - bp)) & 1:  # verbatim escape
            need = 64 * size
            if wend - bp < need:
                win, wend = _window(buf, bp, need // 8 + 2, total)
            word = (win >> (wend - bp - need)) & ((1 << need) - 1)
            bp += need
            raw = np.frombuffer(word.to_bytes(8 * size, "big"), dtype=">u8")
            raw_blocks[b] = raw.astype(np.uint64).view(np.float64)
            continue
        bp += _E_BITS + _K_BITS
        head = (win >> (wend - bp)) & ((1 << (_E_BITS + _K_BITS)) - 1)
        e = (head >> _K_BITS) - _E_BIAS
        exps[b] = e
        kmax = head & ((1 << _K_BITS) - 1)
        kmin = kmin_of.get(e)
        if kmin is None:
            kmin = kmin_of[e] = _stream_kmin(e, abs_bound, core_dims)
        if kmin > kmax:
            continue
        blocks.append(b)
        kmaxes.append(kmax)
        counts.append(kmax - kmin + 1)
        n = 0
        for _ in range(kmax - kmin + 1):
            if wend - bp < low:
                win, wend = _window(buf, bp, wbytes, total)
            x = ((win >> (wend - bp - n)) & ((1 << n) - 1)) << (size - n)
            bp += n
            pos = n
            while pos < size:
                bp += 1
                if not (win >> (wend - bp)) & 1:
                    break
                span = size - pos
                chunk = (win >> (wend - bp - span)) & ((1 << span) - 1)
                if not chunk:
                    if bp > total:
                        raise DecompressionError("bit stream exhausted")
                    raise DecompressionError("zfp plane ran past block size")
                top = chunk.bit_length()
                x |= 1 << (top - 1)
                bp += size - top + 1 - pos
                pos = size - top + 1
            n = pos
            planes.append(x)
        if len(planes) >= flush_at:
            _scatter(neg, planes, blocks, kmaxes, counts)
            planes, blocks, kmaxes, counts = [], [], [], []
    if bp > total:
        raise DecompressionError("bit stream exhausted")
    if planes:
        _scatter(neg, planes, blocks, kmaxes, counts)
    return (
        neg,
        np.frombuffer(exps, dtype=np.int64),
        np.frombuffer(nonzero, dtype=bool),
        raw_blocks,
    )


@register_compressor
class ZFP(Compressor):
    """Fixed-accuracy transform codec; fast, with graceful quality scaling."""

    name = "zfp"

    def _compress_impl(self, values: np.ndarray, abs_bound: float) -> bytes:
        shape = values.shape
        block = _block_for_shape(shape)
        core_dims = sum(1 for b in block if b == 4)
        blocks = blockify(values, block)
        n_blocks = blocks.shape[0]
        core = blocks.reshape((n_blocks,) + (4,) * core_dims)
        bsize = 4**core_dims

        # Block-floating-point conversion.
        fmax = np.abs(core).reshape(n_blocks, -1).max(axis=1)
        nonzero = fmax > 0.0
        exps = np.zeros(n_blocks, dtype=np.int64)
        if nonzero.any():
            _, e = np.frexp(fmax[nonzero])
            exps[nonzero] = e
        # ldexp, not a 2^(P - e) multiplier: that overflows for subnormal-scale
        # blocks.  int32 exponents take numpy's native ldexp loop.
        shift = (PRECISION - exps).astype(np.int32)
        q = np.rint(np.ldexp(core, shift.reshape((n_blocks,) + (1,) * core_dims)))
        q = q.astype(np.int64)

        coeff = forward_transform(q).reshape(n_blocks, bsize)
        order = sequency_order(core_dims)
        neg = int_to_negabinary(coeff[:, order])

        # Escape and cut-off rules depend on the exponent only.
        uniq, inv = np.unique(exps, return_inverse=True)
        escape = nonzero & np.array(
            [_needs_raw_escape(int(e), abs_bound) for e in uniq]
        )[inv]
        kmin = np.array([_kmin_for(int(e), abs_bound, core_dims) for e in uniq])[inv]
        coded = nonzero & ~escape
        kmax = np.maximum(_bit_length(neg.max(axis=1)) - 1, 0)
        nplanes = np.where(coded, np.maximum(kmax - kmin + 1, 0), 0)

        # Header field: nonzero flag, escape flag, exponent and top plane.
        head_v = np.where(escape, 3, 0).astype(np.uint64)
        head_v[coded] = (
            (1 << (1 + _E_BITS + _K_BITS))
            | ((exps[coded] + _E_BIAS) << _K_BITS)
            | kmax[coded]
        ).astype(np.uint64)
        head_w = np.where(coded, 2 + _E_BITS + _K_BITS, np.where(escape, 2, 1))
        raw = core.reshape(n_blocks, bsize).view(np.uint64)

        writer = BitWriter()
        step = max(1, _ENCODE_CELLS // bsize)
        for b0 in range(0, n_blocks, step):
            sl = slice(b0, b0 + step)
            _encode_chunk(
                writer, neg[sl], head_v[sl], head_w[sl], escape[sl], raw[sl],
                kmax[sl], nplanes[sl],
            )

        return _HEADER.pack(core_dims, n_blocks) + writer.getvalue()

    def _decompress_impl(
        self, payload: bytes, shape: tuple[int, ...], abs_bound: float
    ) -> np.ndarray:
        if len(payload) < _HEADER.size:
            raise DecompressionError("zfp payload shorter than its header")
        core_dims, n_blocks = _HEADER.unpack_from(payload, 0)
        block = _block_for_shape(shape)
        if core_dims != min(len(shape), 3):
            raise DecompressionError(
                f"zfp header says {core_dims}-D blocks for a {len(shape)}-D array"
            )
        expected = math.prod(
            n // b for n, b in zip(padded_shape(shape, block), block)
        )
        if n_blocks != expected:
            raise DecompressionError(
                f"zfp header says {n_blocks} blocks, shape {shape} has {expected}"
            )
        neg, exps, nonzero, raw_blocks = _decode_planes(
            payload[_HEADER.size :], n_blocks, core_dims, abs_bound
        )

        coeff = negabinary_to_int(neg)
        order = sequency_order(core_dims)
        inv_order = np.argsort(order)
        coeff = coeff[:, inv_order].reshape((n_blocks,) + (4,) * core_dims)
        q = inverse_transform(coeff)
        shift = (exps - PRECISION).astype(np.int32)
        vals = np.ldexp(
            q.astype(np.float64), shift.reshape((n_blocks,) + (1,) * core_dims)
        )
        vals[~nonzero] = 0.0
        for b, raw in raw_blocks.items():
            vals[b] = raw.reshape((4,) * core_dims)

        full = vals.reshape((n_blocks,) + tuple(block))
        return unblockify(full, shape, tuple(block))
