"""Canonical Huffman codec for quantization-code streams.

The SZ family entropy-codes quantization indices with Huffman before a final
DEFLATE pass.  This module implements a canonical Huffman code:

- tree construction with a heap over symbol frequencies,
- code lengths limited to :data:`MAX_CODE_LENGTH` via the standard
  length-limiting adjustment (rarely triggered for quantization data),
- a compact header storing only the symbol list and code lengths,
- vectorized encoding through :func:`repro.compressors.bitstream.pack_bits`,
- fully vectorized decoding: a :data:`PEEK_BITS`-bit window is gathered at
  *every* candidate bit offset of the word-packed payload (in blocks of
  :data:`DECODE_BLOCK_BITS` offsets, so memory stays a few bytes per
  payload bit), decoded
  speculatively through the lookup table (with a per-length canonical search
  for the rare codes longer than :data:`PEEK_BITS`), and the true symbol
  boundaries are then recovered by pointer-doubling over the resulting
  offset-successor array.

Both directions are O(n) NumPy passes (decode adds a log₂(n) factor for the
pointer doubling); no per-symbol Python loop remains on either path.  The
byte format is identical to the original per-symbol implementation.
"""

from __future__ import annotations

import heapq
import struct

import numpy as np

from repro.compressors.bitstream import _words_from_bytes, pack_bits
from repro.errors import DecompressionError

__all__ = ["HuffmanCodec", "huffman_encode", "huffman_decode"]

MAX_CODE_LENGTH = 32
PEEK_BITS = 12
#: Bit offsets decoded per block; bounds the decoder's window temporaries.
DECODE_BLOCK_BITS = 1 << 16

_HEADER = struct.Struct("<IHI")  # n_symbols_encoded, n_distinct, payload_bits


def _code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Huffman code length per symbol (0 for absent symbols).

    Uses the classic two-queue/heap algorithm on (frequency, tiebreak) pairs.
    A single distinct symbol gets length 1 so the stream is still decodable.
    """
    present = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.int64)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths

    # Heap items: (freq, tiebreak, leaf symbols under this node)
    heap: list[tuple[int, int, list[int]]] = [
        (int(freqs[s]), int(s), [int(s)]) for s in present
    ]
    heapq.heapify(heap)
    tiebreak = int(freqs.size)
    while len(heap) > 1:
        fa, _, la = heapq.heappop(heap)
        fb, _, lb = heapq.heappop(heap)
        for s in la:
            lengths[s] += 1
        for s in lb:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, tiebreak, la + lb))
        tiebreak += 1

    # Limit code lengths (defensive; extremely skewed inputs only).
    if lengths.max() > MAX_CODE_LENGTH:
        lengths = np.minimum(lengths, MAX_CODE_LENGTH)
        # Repair Kraft inequality by lengthening the shortest codes.
        while _kraft(lengths) > 1.0:
            cand = np.flatnonzero((lengths > 0) & (lengths < MAX_CODE_LENGTH))
            shortest = cand[np.argmin(lengths[cand])]
            lengths[shortest] += 1
    return lengths


def _kraft(lengths: np.ndarray) -> float:
    nz = lengths[lengths > 0]
    return float(np.sum(2.0 ** (-nz.astype(np.float64))))


def _canonical_codes(symbols: np.ndarray, lengths: np.ndarray):
    """Assign canonical codes: sort by (length, symbol), count upward.

    Vectorized: within one length run the codes are ``first_code + rank``;
    across lengths the canonical recurrence ``first <<= (len - prev_len)``
    only needs one Python iteration per *distinct* length (≤ 32).
    """
    order = np.lexsort((symbols, lengths))
    sorted_syms = symbols[order]
    sorted_lens = lengths[order]
    codes = np.zeros(symbols.size, dtype=np.uint64)
    if symbols.size == 0:
        return sorted_syms, sorted_lens, codes
    distinct, run_start, run_count = np.unique(
        sorted_lens, return_index=True, return_counts=True
    )
    first = 0
    prev_len = int(distinct[0])
    first_codes = np.zeros(distinct.size, dtype=np.uint64)
    for j in range(distinct.size):
        ln = int(distinct[j])
        first <<= ln - prev_len
        first_codes[j] = first
        first += int(run_count[j])
        prev_len = ln
    rank = np.arange(symbols.size, dtype=np.uint64) - run_start.astype(np.uint64).repeat(
        run_count
    )
    codes = first_codes.repeat(run_count) + rank
    return sorted_syms, sorted_lens, codes


def _build_peek_table(
    sorted_lens: np.ndarray, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """PEEK_BITS-bit prefix -> (sorted-symbol index, code length) for short codes.

    Unfilled entries (long-code prefixes) keep index -1 / length 0.
    """
    table_idx = np.full(1 << PEEK_BITS, -1, dtype=np.int32)
    table_len = np.zeros(1 << PEEK_BITS, dtype=np.int8)
    for ln in np.unique(sorted_lens):
        ln = int(ln)
        if ln <= 0 or ln > PEEK_BITS:
            continue
        sel = np.flatnonzero(sorted_lens == ln)
        span = 1 << (PEEK_BITS - ln)
        base = (codes[sel].astype(np.int64) << (PEEK_BITS - ln))[:, None]
        idx = (base + np.arange(span, dtype=np.int64)[None, :]).ravel()
        table_idx[idx] = np.repeat(sel.astype(np.int32), span)
        table_len[idx] = ln
    return table_idx, table_len


def _decode_offsets(
    words: np.ndarray,
    b0: int,
    b1: int,
    total_bits: int,
    sorted_lens: np.ndarray,
    codes: np.ndarray,
    table_idx: np.ndarray,
    table_len: np.ndarray,
    idx_at: np.ndarray,
    len_at: np.ndarray,
    nxt: np.ndarray,
) -> None:
    """Decode one symbol speculatively at each bit offset in ``[b0, b1)``.

    Gathers a 64-bit window per offset from the word-packed payload,
    classifies the top PEEK_BITS through the lookup table, and resolves the
    rare long-code escapes with a vectorized per-length canonical search.
    Writes the sorted-symbol index (-1 if invalid), code length and
    successor offset (clipped to ``total_bits``) into the output slices.
    """
    pos = np.arange(b0, b1, dtype=np.int64)
    wi = pos >> 6
    boff = (pos & 63).astype(np.uint64)
    win64 = words[wi] << boff
    np.bitwise_or(
        win64,
        np.where(
            boff > 0,
            words[wi + 1] >> ((np.uint64(64) - boff) & np.uint64(63)),
            np.uint64(0),
        ),
        out=win64,
    )
    peek = (win64 >> np.uint64(64 - PEEK_BITS)).astype(np.intp)
    idx = table_idx[peek]
    ln_at = table_len[peek]

    escapes = np.flatnonzero(idx < 0)
    if escapes.size:
        # Ascending-length first-match mirrors the scalar slow path.
        esc_win = win64[escapes]
        unresolved = np.ones(escapes.size, dtype=bool)
        for ln in np.unique(sorted_lens):
            ln = int(ln)
            if ln <= PEEK_BITS or ln > MAX_CODE_LENGTH:
                continue
            lo = int(np.searchsorted(sorted_lens, ln, side="left"))
            hi = int(np.searchsorted(sorted_lens, ln, side="right"))
            cand = np.flatnonzero(unresolved)
            if cand.size == 0:
                break
            code = (esc_win[cand] >> np.uint64(64 - ln)).astype(np.int64)
            delta = code - int(codes[lo])
            ok = (
                (delta >= 0)
                & (delta < hi - lo)
                & (b0 + escapes[cand] + ln <= total_bits)
            )
            hit = cand[ok]
            idx[escapes[hit]] = (lo + delta[ok]).astype(np.int32)
            ln_at[escapes[hit]] = ln
            unresolved[hit] = False

    idx_at[:] = idx
    len_at[:] = ln_at
    nxt[:] = np.where(idx >= 0, np.minimum(pos + ln_at, total_bits), total_bits)


def _compose(adv: np.ndarray) -> np.ndarray:
    """``adv[adv]``, gathered in blocks of DECODE_BLOCK_BITS.

    Indexing with a whole ``int32`` array makes numpy cast it to ``intp``
    through a small internal buffer, about twice as slow per round on a
    multi-Mbit payload as casting one block at a time and gathering with
    the ``intp`` block.
    """
    out = np.empty_like(adv)
    for b0 in range(0, adv.size, DECODE_BLOCK_BITS):
        b1 = b0 + DECODE_BLOCK_BITS
        out[b0:b1] = adv[adv[b0:b1].astype(np.intp)]
    return out


class HuffmanCodec:
    """Encode/decode integer symbol arrays with a canonical Huffman code."""

    def encode(self, symbols: np.ndarray) -> bytes:
        """Encode a 1-D array of non-negative integers.

        The output is self-describing: header + symbol/length table + packed
        payload.  An empty input encodes to a valid empty stream.
        """
        symbols = np.ascontiguousarray(symbols)
        if symbols.ndim != 1:
            raise ValueError("HuffmanCodec.encode expects a 1-D array")
        n = symbols.size
        if n == 0:
            return _HEADER.pack(0, 0, 0)
        if symbols.min() < 0:
            raise ValueError("symbols must be non-negative")

        values, inverse, counts = np.unique(
            symbols, return_inverse=True, return_counts=True
        )
        if values.size == 1:
            # Degenerate alphabet: the count alone reconstructs the stream.
            header = _HEADER.pack(n, 1, 0)
            return b"".join((header, values.astype(np.uint64).tobytes(), b"\x01"))
        freqs = counts.astype(np.int64)
        lengths = _code_lengths(freqs)
        sorted_syms, sorted_lens, codes = _canonical_codes(
            np.arange(values.size), lengths
        )
        # Per-distinct-symbol code/length, indexed by position in `values`.
        sym_code = np.zeros(values.size, dtype=np.uint64)
        sym_len = np.zeros(values.size, dtype=np.int64)
        sym_code[sorted_syms] = codes
        sym_len[sorted_syms] = sorted_lens

        stream_lens = sym_len[inverse]
        payload = pack_bits(sym_code[inverse], stream_lens)
        payload_bits = int(stream_lens.sum())

        header = _HEADER.pack(n, values.size, payload_bits)
        return b"".join(
            (
                header,
                values.astype(np.uint64).tobytes(),
                sym_len.astype(np.uint8).tobytes(),
                payload,
            )
        )

    def decode(self, data: bytes) -> np.ndarray:
        """Decode a stream produced by :meth:`encode` (returns ``int64``)."""
        if len(data) < _HEADER.size:
            raise DecompressionError("huffman stream too short for header")
        n, n_distinct, payload_bits = _HEADER.unpack_from(data, 0)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        off = _HEADER.size
        table_bytes = n_distinct * 8 + n_distinct
        if len(data) < off + table_bytes:
            raise DecompressionError("huffman stream truncated in symbol table")
        values = np.frombuffer(data, dtype=np.uint64, count=n_distinct, offset=off)
        off += n_distinct * 8
        lengths = np.frombuffer(
            data, dtype=np.uint8, count=n_distinct, offset=off
        ).astype(np.int64)
        off += n_distinct
        if lengths.size and lengths.max() > MAX_CODE_LENGTH:
            raise DecompressionError(
                f"huffman code length {int(lengths.max())} exceeds "
                f"MAX_CODE_LENGTH={MAX_CODE_LENGTH}"
            )

        if n_distinct == 1:
            return np.full(n, int(values[0]), dtype=np.int64)

        # Untrusted table: every symbol needs a code, and the lengths must
        # satisfy the Kraft inequality or the canonical code space overflows
        # (which would corrupt the decode tables rather than fail cleanly).
        if (lengths < 1).any() or _kraft(lengths) > 1.0:
            raise DecompressionError("invalid huffman code-length table")
        # Every symbol consumes at least one payload bit, so a symbol count
        # beyond payload_bits is corrupt; reject it before sizing the chain.
        if n > payload_bits:
            raise DecompressionError(
                f"huffman symbol count {n} exceeds payload capacity {payload_bits}"
            )

        sorted_idx, sorted_lens, codes = _canonical_codes(
            np.arange(n_distinct), lengths
        )
        sorted_values = values[sorted_idx].astype(np.int64)

        payload = data[off:]
        total_bits = 8 * len(payload)
        if total_bits < payload_bits:
            raise DecompressionError("huffman payload truncated")

        # Speculative decode at *every* bit offset, in blocks of
        # DECODE_BLOCK_BITS offsets so the window temporaries stay bounded:
        # only the per-offset symbol index, code length and successor arrays
        # span the whole payload.
        table_idx, table_len = _build_peek_table(sorted_lens, codes)
        words = _words_from_bytes(payload)
        off_dtype = np.int32 if total_bits < 2**31 else np.int64
        idx_at = np.empty(total_bits + 1, dtype=np.int32)
        len_at = np.empty(total_bits + 1, dtype=np.int8)
        idx_at[total_bits] = -1
        len_at[total_bits] = 0
        nxt = np.empty(total_bits + 1, dtype=off_dtype)
        nxt[total_bits] = total_bits
        for b0 in range(0, total_bits, DECODE_BLOCK_BITS):
            b1 = min(b0 + DECODE_BLOCK_BITS, total_bits)
            _decode_offsets(
                words, b0, b1, total_bits, sorted_lens, codes,
                table_idx, table_len, idx_at[b0:b1], len_at[b0:b1], nxt[b0:b1],
            )

        # Pointer doubling: `adv` advances m symbols at once, so each round
        # doubles the known prefix of the symbol-boundary chain.  Invalid
        # offsets jump to the absorbing sentinel `total_bits`.
        chain = np.zeros(n, dtype=off_dtype)
        adv = nxt
        del nxt  # each round then frees the previous successor array
        m = 1
        while m < n:
            k = min(m, n - m)
            np.take(adv, chain[:k], out=chain[m:m + k])
            m += k
            if m >= n:
                break
            adv = _compose(adv)
        del adv

        sym_indices = idx_at[chain]
        if (sym_indices < 0).any():
            raise DecompressionError("invalid huffman code or exhausted payload")
        # From the unclipped end: a last code overrunning the payload
        # must not pass as consumed == payload_bits.
        consumed = int(chain[-1]) + int(len_at[chain[-1]])
        if consumed != payload_bits:
            raise DecompressionError(
                f"huffman payload length mismatch: consumed {consumed}, "
                f"expected {payload_bits}"
            )
        return sorted_values[sym_indices]


_DEFAULT = HuffmanCodec()


def huffman_encode(symbols: np.ndarray) -> bytes:
    """Module-level convenience wrapper around :class:`HuffmanCodec`."""
    return _DEFAULT.encode(symbols)


def huffman_decode(data: bytes) -> np.ndarray:
    """Module-level convenience wrapper around :class:`HuffmanCodec`."""
    return _DEFAULT.decode(data)
