"""Compression estimators: self-delimiting encoders with matching decoders.

Every estimator emits a bit stream a reference decoder inverts, so
the reported bit count is a genuine description length. Each encoding picks
the cheaper of two modes: a verbatim packed payload (so no estimate ever
exceeds n*ceil(log2 q) bits by more than the header) or the estimator's own
code.
"""
from __future__ import annotations

import math
from array import array
from itertools import cycle, islice

from .coding import (
    HALF,
    QUARTER,
    RESCALE,
    STEP,
    THREE_Q,
    TOP,
    BitReader,
    BitWriter,
    flush_coder,
    gamma_bits,
    new_table,
    read_uint,
    renormalise,
    rescale,
    shift_in,
    uint_len,
    write_uint,
)
from .strings import _BYTE_VALUES, Record, bits_per_symbol, pack_symbols, packed_len, unpack_symbols


class EstimatorError(RuntimeError):
    """Estimator failure (unknown name, corrupt blob)."""


MODE_LITERAL = 0
MODE_CODED = 1


def _header_writer(q: int, n: int, period: int, mode: int) -> BitWriter:
    w = BitWriter()
    write_uint(w, q - 2)
    write_uint(w, n)
    write_uint(w, period - 1)
    w.write_bit(mode)
    return w


def _literal_len(q: int, n: int, period: int) -> int:
    """Bit length of the verbatim mode: header, then bits_per_symbol(q) per symbol."""
    return uint_len(q - 2) + uint_len(n) + uint_len(period - 1) + 1 + n * bits_per_symbol(q)


def _literal(symbols: bytes, q: int, period: int) -> tuple[int, bytes]:
    """The verbatim mode's bit count and blob."""
    w = _header_writer(q, len(symbols), period, MODE_LITERAL)
    w.write_fields(symbols, bits_per_symbol(q))
    return w.bit_count, w.getvalue()


class ResumePoint(Record):
    """An encoder's loop state after its first `i` symbols, taken where
    nothing it holds depends on the input past a prefix of it: any longer
    input with that prefix reaches the same state, so its encode may start
    here. The payload is the coded bits after the header (the header holds
    n, so a resumed encode writes its own), packed into one int."""

    i: int
    low: int
    high: int
    pending: int
    bits: int
    packed: int
    model: tuple | dict  # the estimator's own state: count tables by context id, counters
    cells: int  # count-table entries in model

    def payload(self) -> bytes:
        """The payload as ASCII bits, ready to extend a BitWriter's buffer."""
        return format(self.packed, f"0{self.bits}b").encode() if self.bits else b""

    @property
    def footprint(self) -> int:
        """About the bytes the point holds: a list slot and an int object
        per count-table entry, and the packed payload."""
        return 36 * self.cells + self.bits // 8


def _resume_point(
    i: int, low: int, high: int, pending: int, out, hdr: int, model: tuple | dict, cells: int
) -> ResumePoint:
    bits = len(out) - hdr
    return ResumePoint(i, low, high, pending, bits, int(out[hdr:], 2) if bits else 0, model, cells)


def _overrun(n: int) -> EstimatorError:
    """The refusal of a coded payload that reads past its blob: either the
    header's n is more than the payload holds, or the payload was cut."""
    return EstimatorError(f"corrupt header or cut payload: {n} coded symbols overrun the blob")


class Estimator:
    """Interface: encode returns (exact bit count, byte blob).

    `period` marks a periodic track structure in the input (used for
    position-interleaved joint strings): context models key on the
    position phase so symbols playing different roles never share
    statistics. It is recorded in the header, so decoding stays
    self-contained. Estimators without context models ignore it.

    encode takes an optional `resume` store (complexity.EstimateStore, keyed
    by estimator, q, period and the symbols; each CLI run starts it empty).
    A resuming estimator starts from the store's point for the longest stored
    prefix of its input (`resume.find`) and offers the store its own point
    (`resume.keep`); lz78 ignores the store. The bits and blob do not change.
    """

    estimator_id: str

    def encode(self, symbols: bytes, q: int, period: int = 1, resume=None) -> tuple[int, bytes]:
        raise NotImplementedError

    def decode(self, blob: bytes) -> tuple[int, bytes]:
        """(q, symbols) of an encoded blob. The symbols are as many as the
        header's n, and lz77 reaches n with one long match token (2^20 zeros
        take a 12-byte blob), so decoding an untrusted blob can allocate up to
        n bytes; honest strings make such runs, so no format check refuses it."""
        r = BitReader(blob)
        q = read_uint(r) + 2
        n = read_uint(r)
        period = read_uint(r) + 1
        mode = r.read_bit()
        # checked before any table or buffer is sized from the header
        if q > 256:
            raise EstimatorError(f"corrupt header: alphabet size {q} > 256")
        if mode == MODE_LITERAL:
            k = bits_per_symbol(q)
            if n * k > len(r.buf) - r.pos:
                raise EstimatorError(f"corrupt header: {n} literal symbols overrun the blob")
            return q, r.read_fields(n, k)
        return q, self._decode_payload(r, q, n, period)

    def _decode_payload(self, r: BitReader, q: int, n: int, period: int) -> bytes:
        raise NotImplementedError

    def _pick(
        self, symbols: bytes, q: int, period: int, coded: BitWriter
    ) -> tuple[int, bytes]:
        if coded.bit_count < _literal_len(q, len(symbols), period):
            return coded.bit_count, coded.getvalue()
        return _literal(symbols, q, period)


class LZ78Estimator(Estimator):
    """LZW-style dictionary parse over the packed byte representation.

    Codes are emitted at the smallest width covering the current dictionary,
    which starts with the 256 single bytes.

    The trie keeps no Python object per entry for the children of the 256
    one-byte nodes: the child of node and byte c has the int key node << 8
    | c, and those keys index a flat array of 2^16 codes (256 KiB, 0 for no
    child); a deeper node's children are in a dict under the same keys.
    The encode parses first, collecting the codes and counting their bits
    by width. Codes only add bits, so it returns the literal mode as soon
    as the coded payload reaches the literal one, which a tie also picks.
    Either blob is built once the trie is freed, and the codes are written
    only when the coded mode wins.
    """

    estimator_id = "lz78"

    def encode(self, symbols: bytes, q: int, period: int = 1, resume=None) -> tuple[int, bytes]:
        data = pack_symbols(symbols, q)
        if not data:  # the header alone, in which the modes tie
            return _literal(symbols, q, period)
        budget = len(symbols) * bits_per_symbol(q)  # the literal payload
        # code i is written in the width of the dictionary's size then, 256
        # + i: (255 + i).bit_length() bits, so 8 for the first code and 9
        # from the second on; every new code is at least 256
        children = array("i", [0]) * 65536
        deep: dict = {}
        codes = array("i")
        size = top = 256
        width, bits = 8, 0
        node = data[0]
        for c in data[1:]:
            key = node << 8 | c
            nxt = children[key] if node < 256 else deep.get(key, 0)
            if nxt:
                node = nxt
                continue
            codes.append(node)
            bits += width
            if bits >= budget:
                break
            if node < 256:
                children[key] = size
            else:
                deep[key] = size
            size += 1
            if size > top:
                top <<= 1
                width += 1
            node = c
        else:
            codes.append(node)
            bits += width
        del children, deep
        if bits >= budget:
            return _literal(symbols, q, period)
        w = _header_writer(q, len(symbols), period, MODE_CODED)
        start = 0
        for k in range(8, width + 1):  # the codes of width k end at index 2^k - 255
            end, top = (1 << k) - 255, 1 << k
            w.buf += "".join([bin(v | top)[3:] for v in codes[start:end]]).encode()
            start = end
        return w.bit_count, w.getvalue()

    def _decode_payload(self, r: BitReader, q: int, n: int, period: int) -> bytes:
        total = packed_len(n, q)
        out = bytearray()
        if total:
            entries: list[bytes] = [bytes([i]) for i in range(256)]
            prev: bytes | None = None
            while len(out) < total:
                # the encoder registers one entry per emitted code, so its
                # dictionary runs one ahead of ours once decoding has begun
                size = len(entries) + (1 if prev is not None else 0)
                width = max(1, (size - 1).bit_length())
                code = r.read_bits(width)
                # the encoder's codes all lie inside its blob
                if r.pos > len(r.buf):
                    raise _overrun(n)
                if code < len(entries):
                    cur = entries[code]
                elif code == len(entries) and prev is not None:
                    cur = prev + prev[:1]  # KwKwK case
                else:
                    raise EstimatorError("corrupt LZ78 stream")
                out.extend(cur)
                if prev is not None:
                    entries.append(prev + cur[:1])
                prev = cur
        return unpack_symbols(bytes(out[:total]), q, n)


def _digit_sum(n: int, terms) -> bytes:
    """The n bytes of the sum of view * weight over the (view, weight)
    terms, each view n bytes read as a big-endian integer: callers keep
    every byte's sum below 256, so no digit carries."""
    acc = 0
    for view, weight in terms:
        acc += int.from_bytes(view, "big") * weight
    return acc.to_bytes(n, "big")


def _phase_view(n: int, period: int):
    """The phase i % period of each position i < n: one byte string when
    period <= 256, else an iterator."""
    if period <= 256:
        return (_BYTE_VALUES[:period] * (n // period + 1))[:n]
    return islice(cycle(range(period)), n)


def _context_ids(symbols: bytes, q: int, k: int, period: int) -> tuple:
    """(ids, tables): an id for the context of each position i, its phase
    i % period and the k symbols before it (the sentinel q before the
    start), and a list with a None count table per id. When period *
    (q+1)^k <= 256 the ids are one byte string from _digit_sum, of
    (i % period) * (q+1)^k + symbols[i-m] * (q+1)^(m-1) summed over m = 1..k;
    otherwise the contexts are numbered in the order they first occur.
    Either way a prefix's ids are those of every longer string, so a resume
    point's tables stay valid."""
    n = len(symbols)
    qq = q + 1
    mod = qq**k
    pad = bytes([q] * k) + symbols if q < 256 else [q] * k + list(symbols)
    terms = [(pad[k - m : k - m + n], qq ** (m - 1)) for m in range(1, k + 1)]
    if period > 1:
        terms.append((_phase_view(n, period), mod))
    if period * mod <= 256:
        return _digit_sum(n, terms), [None] * (period * mod)
    first: dict = {}
    ids = [first.setdefault(key, len(first)) for key in zip(*(view for view, _ in terms))]
    return ids, [None] * len(first)


ANCHOR = 16  # minimum match length; also the hash-key width
MAX_CHAIN = 16


def _extend_match(symbols: bytes, j: int, i: int, n: int, length: int) -> int:
    """Length of the common prefix of symbols[j:] and symbols[i:n], given
    that the first `length` symbols agree: compares windows of doubling
    width; in the first window that differs, the leading nonzero byte of
    the xor of the two windows (as big-endian integers) is the mismatch."""
    width = 16
    while True:
        m = min(width, n - i - length)
        if not m:
            return length
        a = symbols[j + length : j + length + m]
        b = symbols[i + length : i + length + m]
        if a != b:
            x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
            return length + m - (x.bit_length() + 7) // 8
        length += m
        width <<= 1


_ROTATE_3 = bytes((b << 3 | b >> 5) & 255 for b in range(256))


def _window_buckets(symbols: bytes, q: int) -> tuple[bytes, bytearray]:
    """(code, buckets) for the n - ANCHOR + 1 >= 1 windows of ANCHOR
    symbols, both built from whole shifted views at once, as in _digit_sum.

    code[p], for p <= n - 8, is a byte that stands for symbols p..p+7. For
    q = 2 it is their bits. For q > 2 it is the xor over the offsets k of a
    one-to-one byte map of symbol p + k, a different map per offset, so
    that code[p] and any seven of the eight symbols fix the eighth.

    buckets[2p : 2p + 2] is window p's bucket. For q = 2 it is code[p],
    code[p + 8]: the window itself. For q > 2 it is code[p] ^ code[p + 4],
    code[p + 8] ^ rotl3(code[p + 4]), a hash; code[p + 4] enters both
    bytes, as windows that differ in one half only, common in skewed
    strings, would otherwise share 256 buckets."""
    n = len(symbols)
    w, m = n - 7, n - ANCHOR + 1
    if q == 2:
        view = memoryview(symbols)
        code = _digit_sum(w, ((view[k : k + w], 128 >> k) for k in range(8)))
        buckets = bytearray(2 * m)
        buckets[0::2] = code[:m]
        buckets[1::2] = code[8:]
        return code, buckets
    acc = 0
    for k in range(8):
        # odd multipliers, so each map is one-to-one on bytes
        lane = bytes((v * (0x9E3779B1 >> 3 * k | 1) + 59 * k) & 255 for v in range(q))
        acc ^= int.from_bytes(symbols.translate(lane.ljust(256, b"\0"))[k : k + w], "big")
    code = acc.to_bytes(w, "big")
    mid = code[4 : 4 + m]
    buckets = bytearray(2 * m)
    buckets[0::2] = (int.from_bytes(code[:m], "big") ^ int.from_bytes(mid, "big")).to_bytes(m, "big")
    mid = int.from_bytes(mid.translate(_ROTATE_3), "big")
    buckets[1::2] = (int.from_bytes(code[8:], "big") ^ mid).to_bytes(m, "big")
    return code, buckets


def _chain_links(symbols: bytes, q: int) -> array:
    """prev[p]: the last position before p that starts the same ANCHOR
    symbols, or -1 (always -1 for p > n - ANCHOR).

    No Python object is kept per position: prev is a typed array, and a
    head table holds the last position of each of 2^16 buckets (see
    _window_buckets). For q = 2 a bucket is one window, so every bucket
    link is exact.

    For q > 2 a bucket link j of p is exact when j - 1 is the exact link
    of p - 1: the windows then share their first 15 symbols, hence code[p
    + 4], so the bucket's second byte gives code[p + 8] = code[j + 8],
    which fixes the last symbol. From any other link the loop walks the
    bucket links, kept apart from prev, back to the newest position with
    the same window, so prev[p] is exact when it is written."""
    n = len(symbols)
    m = n - ANCHOR + 1
    prev = array("i", [-1]) * n
    if m <= 0:
        return prev
    code, buckets = _window_buckets(symbols, q)
    last = array("i", [-1]) * 65536
    if q == 2:
        for p, b in enumerate(memoryview(buckets).cast("H")):
            prev[p] = last[b]
            last[b] = p
        return prev
    link = array("i", [-1]) * m  # each window's bucket link
    after = -2  # the exact link of p - 1, or -2 if it has none
    for p, b in enumerate(memoryview(buckets).cast("H")):
        j = last[b]
        last[b] = p
        if j < 0:
            after = -2
            continue
        link[p] = j
        if j != after + 1:
            # code[p + 4], a byte of the window's hash, tells most other
            # windows of the bucket apart before startswith compares them
            tag = code[p + 4]
            key = symbols[p : p + ANCHOR]
            while j >= 0 and (code[j + 4] != tag or not symbols.startswith(key, j)):
                j = link[j]
        prev[p] = j
        after = j if j >= 0 else -2
    return prev


def _decode_stream(r: BitReader, q: int, n: int, period: int, k: int, matches: bool) -> bytes:
    """The n symbols of a coded ctx_k or lz77 payload, by the one
    arithmetic decoder both run, a token per pass: a ctx_k token is one
    literal, an lz77 token (`matches`, k = 2) a flag, then a literal (0) or
    a match's two gamma codes (1). A literal is decoded in its context's
    state: new_table's counts and total, a dict that links each symbol
    decoded there to the next position's state, and the key, (i % period)
    * (q+1)^k plus the k previous symbols in base q+1 (q before the start,
    as in _context_ids). States and links are made on first use, so a
    literal follows one link; a match, at least ANCHOR symbols long, looks
    up the state after it by key.

    The decoder starts from the payload's first 32 bits and shifts the next
    one into v at each doubling, reading the reader's bits padded with
    zeros. The encoder writes D + 2 payload bits for D doublings and the
    decoder reads 32 + D, so on an honest stream pos never passes `end`,
    the blob's end + 30 bits; a read past it comes from a cut or corrupt
    blob. A symbol's doublings read at most 32 bits, so pos is checked once
    after each flag, literal and gamma bit: 64 bits of padding cover every
    read that starts at or before `end`."""
    v = r.read_bits(32)
    end = len(r.buf) + 30
    if r.pos > end:
        raise _overrun(n)
    buf = r.buf + b"0" * 64
    pos = r.pos
    low, high = 0, TOP
    half, quarter, three_q = HALF, QUARTER, THREE_Q
    step = STEP
    limit = RESCALE
    last = q - 1
    qq = q + 1
    mod = qq**k
    key = mod - 1  # phase 0 and k sentinels: q * (qq**(k-1) + ... + qq + 1)
    t = new_table(q) + [{}, key]
    states = {key: t}
    f0 = f1 = 1
    out = bytearray()
    i = 0
    while i < n:
        if matches:
            # the token's flag, split as the encoder splits it
            split = (high - low + 1) * f0 // (f0 + f1)
            sym = v >= split
            if sym:
                low += split
                v -= split
                f1 += step
                c = f1
            else:
                high = low + split - 1
                f0 += step
                c = f0
            if c >= limit:  # rescale(), on the two counts
                f0 = (f0 + 1) >> 1
                f1 = (f1 + 1) >> 1
            while True:
                if high < half:
                    pass
                elif low >= half:
                    low -= half
                    high -= half
                elif low >= quarter and high < three_q:
                    low -= quarter
                    high -= quarter
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
                v = (v << 1) | (buf[pos] & 1)
                pos += 1
            if pos > end:
                raise _overrun(n)
            if sym:
                # the match's two gamma codes, distance then length -
                # ANCHOR + 1, bit by bit at the fixed probability 1/2: the
                # zeros counted, then the bits after the code's 1
                for second in (False, True):
                    zeros = value = 0
                    while zeros or not value:
                        split = (high - low + 1) >> 1
                        if v < split:
                            bit = 0
                            high = low + split - 1
                        else:
                            bit = 1
                            low += split
                            v -= split
                        low, high, v, pos = shift_in(buf, pos, low, high, v)
                        if pos > end:
                            raise _overrun(n)
                        if value:
                            value = (value << 1) | bit
                            zeros -= 1
                        elif bit:
                            value = 1
                        else:
                            zeros += 1
                            if zeros > 64:
                                raise ValueError("malformed gamma code")
                    if not second:
                        dist = value
                length = value + ANCHOR - 1
                start = i - dist
                if start < 0 or i + length > n:
                    raise EstimatorError("corrupt LZ77 stream")
                if dist >= length:
                    out += out[start : start + length]
                else:  # the copy overlaps its own output
                    out += (out[start:] * (length // dist + 1))[:length]
                i += length
                key = (i % period) * mod + out[i - 2] * qq + out[i - 1]
                t = states.get(key) or states.setdefault(key, new_table(q) + [{}, key])
                continue
        total = t[q]
        span = high - low + 1
        # symbol 0 ends at the encoder's first split point. Past it,
        # ((v + 1) * total - 1) // span < cum_s exactly when
        # v < span * cum_s // total, so the count search finds s; s = 1
        # starts at that first split, and the last symbol's range ends
        # at high
        c = t[0]
        split = span * c // total
        if v < split:
            s = 0
            high = low + split - 1
        else:
            s = 1
            cum = c
            c = t[1]
            if last > 1:
                target = ((v + 1) * total - 1) // span
                while cum + c <= target:
                    cum += c
                    s += 1
                    c = t[s]
                if s > 1:
                    split = span * cum // total
            if s < last:
                high = low + span * (cum + c) // total - 1
            low += split
            v -= split
        while True:
            if high < half:
                pass
            elif low >= half:
                low -= half
                high -= half
            elif low >= quarter and high < three_q:
                low -= quarter
                high -= quarter
            else:
                break
            low <<= 1
            high = (high << 1) | 1
            v = (v << 1) | (buf[pos] & 1)
            pos += 1
        if pos > end:
            raise _overrun(n)
        c += step
        t[s] = c
        t[q] = total + step
        if c >= limit:
            rescale(t, q)
        out.append(s)
        try:
            t = t[qq][s]
        except KeyError:
            # a new link: the next phase, and s after this context's k - 1 newest
            key = (t[-1] // mod + 1) % period * mod + (t[-1] % mod * qq + s) % mod
            t[qq][s] = nxt = states.get(key) or states.setdefault(key, new_table(q) + [{}, key])
            t = nxt
        i += 1
    for t in states.values():  # links make cycles: unlinked, the states are freed at once
        t[qq].clear()
    return bytes(out)


class LZ77Estimator(Estimator):
    """Long-range copy detection over the full window, with literals coded
    by an order-2 adaptive context model. Matches shorter than ANCHOR
    symbols are never used; the cost test keeps matches only where they
    beat literal coding.

    Every position p <= n - ANCHOR is a match source once the parse has
    passed it, so the candidates at i are the earlier positions with i's
    ANCHOR symbols: at most MAX_CHAIN of them, newest first, along
    _chain_links. That index is a typed array of exact links, built
    through a head table of 2^16 buckets: about 9 bytes a symbol and 256
    KiB at q = 2, where a dict of ANCHOR-symbol slices took 60-130 bytes a
    symbol. Each pass of the loop codes one token: a coded flag (0
    literal, 1 match), then the literal in its order-2 context (see
    _context_ids), or the match's two gamma codes (distance, length -
    ANCHOR + 1), whose bits are coded one by one at the fixed probability
    1/2, which is never counted. A position without a candidate is a
    literal with no decision to make.

    The resume point is the state before the first token whose decision
    reads the end of the string: at i > n - ANCHOR (prev[i] is -1 because
    the string ends), or where `mark` reaches n - i, or where a match runs
    to the end. Every decision before it read only symbols before n.

    Where no window repeats (prev all -1), every token is a flag 0 and a
    literal in ctx_2's model. A flag 0 keeps floor(span * f0 / (f0 + f1))
    <= span, at least 0 bits, and leaves a span above 2^30, as ctx_2 has
    before each literal: _payload_floor(symbols, q, 2, period) bounds this
    payload too. Once it reaches the literal payload (the headers are
    alike), encode returns the literal blob and keeps no resume point.
    """

    estimator_id = "lz77"

    def encode(self, symbols: bytes, q: int, period: int = 1, resume=None) -> tuple[int, bytes]:
        n = len(symbols)
        bps = bits_per_symbol(q)
        prev = _chain_links(symbols, q)
        blank = array("i", [-1]) * 4096  # prev holds no link: compared a block at a time
        if all(prev[j : j + 4096] == blank[: n - j] for j in range(0, n, 4096)):
            floor = _payload_floor(symbols, q, 2, period)
            if floor is not None and floor >= n * bps:
                return _literal(symbols, q, period)
        w = _header_writer(q, n, period, MODE_CODED)
        out = w.buf
        hdr = len(out)
        ids, tables = _context_ids(symbols, q, 2, period)
        point = resume.find(self, symbols, q, period) if resume is not None else None
        if point is None:
            i, low, high, pending = 0, 0, TOP, 0
            # the flag's counts (literal, match), as new_table(2) starts them
            f0 = f1 = 1
            # the payload bits that flags and match codes emitted, and the
            # symbols matched: the rest is what the literals cost
            spent = matched = 0
        else:
            i, low, high, pending = point.i, point.low, point.high, point.pending
            out += point.payload()
            (f0, f1), used, spent, matched = point.model
            for c, t in used.items():
                tables[c] = t[:]
        half, quarter, three_q = HALF, QUARTER, THREE_Q
        step = STEP
        limit = RESCALE
        last = q - 1
        # past `edge`, prev[i] is -1 because the string ends; no point is
        # kept when there is no store
        edge = n - ANCHOR if resume is not None else n
        while i < n:
            j = prev[i]
            if j >= 0 or i > edge:
                ends = j < 0
                sym = 0
                if not ends:
                    # a match only pays off against what the context model
                    # currently spends per literal
                    lits = i - matched
                    avg = (len(out) - hdr - spent) / lits if lits >= 64 else bps
                    # Only a candidate that agrees with i up to index
                    # `mark` can change the parse: a match of length L at
                    # distance d >= i - j is taken only if L * avg >
                    # 2 * (d.bit_length() + 1) (the - 2 absorbs float
                    # rounding), and once a match is found only a longer
                    # one counts. Overlapping matches are fine, since the
                    # decoder copies symbol by symbol.
                    mark = int(2 * ((i - j).bit_length() + 1) / avg) - 2 if avg else n
                    if mark < n - i:
                        if mark < ANCHOR:
                            mark = ANCHOR - 1  # agrees by the chain's key
                        ahead = symbols[i + ANCHOR : i + mark + 1]
                        best_len = 0
                        chain = MAX_CHAIN
                        while j >= 0 and chain:
                            chain -= 1
                            if symbols.startswith(ahead, j + ANCHOR):
                                length = _extend_match(symbols, j, i, n, mark + 1)
                                best_len = mark = length
                                best_dist = i - j
                                if length == n - i:
                                    ends = True
                                    break
                                ahead = symbols[i + ANCHOR : i + mark + 1]
                            j = prev[j]
                        # len(gamma_bits(best_dist) + gamma_bits(best_len - ANCHOR + 1)) + 2
                        if best_len and 2 * (
                            best_dist.bit_length() + (best_len - ANCHOR + 1).bit_length()
                        ) < best_len * avg:
                            sym = 1
                    else:
                        ends = True
                if ends and edge < n:
                    # this token is the first to read the end: the state
                    # before it is the resume point
                    edge = n
                    if i:
                        used = {c: t[:] for c, t in enumerate(tables) if t}
                        model, cells = ((f0, f1), used, spent, matched), 2 + len(used) * (q + 1)
                        kept = _resume_point(i, low, high, pending, out, hdr, model, cells)
                        resume.keep(self, symbols, q, period, kept)
                if sym:
                    # flag 1, then the match's gamma codes bit by bit at
                    # the fixed probability 1/2
                    before = len(out)
                    low += (high - low + 1) * f0 // (f0 + f1)
                    f1 += step
                    if f1 >= limit:  # rescale(), on the two counts
                        f0 = (f0 + 1) >> 1
                        f1 = (f1 + 1) >> 1
                    for bit in gamma_bits(best_dist) + gamma_bits(best_len - ANCHOR + 1):
                        low, high, pending = renormalise(out, low, high, pending)
                        if bit == 48:
                            high = low + ((high - low + 1) >> 1) - 1
                        else:
                            low += (high - low + 1) >> 1
                    low, high, pending = renormalise(out, low, high, pending)
                    spent += len(out) - before
                    matched += best_len
                    i += best_len
                    continue
            # flag 0. low < half <= high held before it, and it keeps low:
            # it needs a doubling only if high fell below half or the range
            # now sits inside the middle half
            high = low + (high - low + 1) * f0 // (f0 + f1) - 1
            f0 += step
            if f0 >= limit:  # rescale(), on the two counts
                f0 = (f0 + 1) >> 1
                f1 = (f1 + 1) >> 1
            if high < half or (low >= quarter and high < three_q):
                before = len(out)
                low, high, pending = renormalise(out, low, high, pending)
                spent += len(out) - before
            # the literal at i
            s = symbols[i]
            t = tables[ids[i]]
            if t is None:
                t = tables[ids[i]] = new_table(q)
            total = t[q]
            c = t[s]
            span = high - low + 1
            if s:
                cum = t[0] if s == 1 else sum(t[:s])
                if s < last:
                    high = low + span * (cum + c) // total - 1
                low += span * cum // total
            else:
                high = low + span * c // total - 1
            while True:
                if high < half:
                    if pending:
                        out += b"0" + b"1" * pending
                        pending = 0
                    else:
                        out.append(48)
                elif low >= half:
                    if pending:
                        out += b"1" + b"0" * pending
                        pending = 0
                    else:
                        out.append(49)
                    low -= half
                    high -= half
                elif low >= quarter and high < three_q:
                    pending += 1
                    low -= quarter
                    high -= quarter
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
            c += step
            t[s] = c
            t[q] = total + step
            if c >= limit:
                rescale(t, q)
            i += 1
        flush_coder(out, low, pending)
        return self._pick(symbols, q, period, w)

    def _decode_payload(self, r: BitReader, q: int, n: int, period: int) -> bytes:
        return _decode_stream(r, q, n, period, 2, True)


def _segment(sub: bytes, lo: int, pos: int, need: list) -> tuple[int, list]:
    """The end of the segment of one context's codes sub (lo + v for symbol
    v) that starts at pos, and each symbol's count in it. The segment ends
    where some count from pos first reaches its need, which it does within
    sum(need) symbols, or at the end of sub; no count reaches its need in
    fewer than min(need) symbols."""
    a, b = pos + min(need) - 1, min(pos + sum(need), len(sub))
    count = sub.count
    if len(need) == 2:
        # binary: one count per step, as the other symbol's is the rest;
        # zeros counts symbol 0 from pos to b, so a step reads mid to b
        need0, need1 = need
        zeros = count(lo, pos, b)
        if zeros >= need0 or b - pos - zeros >= need1:
            while b - a > 1:
                mid = (a + b) >> 1
                got = zeros - count(lo, mid, b)
                if got >= need0 or mid - pos - got >= need1:
                    b, zeros = mid, got
                else:
                    a = mid
        return b, [zeros, b - pos - zeros]
    q = len(need)
    if any(count(lo + v, pos, b) >= need[v] for v in range(q)):
        while b - a > 1:
            mid = (a + b) >> 1
            if any(count(lo + v, pos, mid) >= need[v] for v in range(q)):
                b = mid
            else:
                a = mid
    # sub holds only this context's q codes: the last count is the rest
    counts = [count(lo + v, pos, b) for v in range(q - 1)]
    return b, counts + [b - pos - sum(counts)]


def _payload_floor(symbols: bytes, q: int, k: int, period: int) -> float | None:
    """A lower bound, in bits, on the payload of the order-k coder's stream
    (the coded blob less its header), or None when the contexts cannot be
    split into at most 256 groups whose codes fit a byte (see below).

    The coder's span is above 2^30 after renormalising, so a symbol coded at
    count c of total T keeps less than c/T + 2^-30 of it. The payload is
    D + 2 bits for D doublings, and the final span is above 2^30, so 2^-(D+2)
    is below the product of the kept fractions. With c >= 1 and
    T < q*RESCALE that gives payload > L - n*log2(1 + q*2^-16), L being -log2
    of the model's probability of the string. Between two rescales a
    context's model is a Dirichlet-multinomial with alpha = count/STEP, so L
    is a sum of lgamma ratios, one per segment; a segment ends where a count
    first reaches RESCALE.

    Position i's context is its phase i % period and its k previous symbols.
    Its byte code holds its symbol, the newest j of those (the most with
    (q+1)^j*q <= 256) and, if it still fits, the phase; the older symbols
    and otherwise the phase form its group key. Each group's codes are then
    split by context with bytes.translate, and _segment finds where each
    context's segments end."""
    n = len(symbols)
    qq = q + 1
    j = k
    while qq**j * q > 256:
        j -= 1
    phase_in_code = period * qq**j * q <= 256
    if qq ** (k - j) * (1 if phase_in_code else period) > 256:
        return None
    # lag m's view holds symbol i - m at i, the sentinel q before the start
    pad = bytes([q] * k) + symbols
    lags = [pad[k - m : k - m + n] for m in range(k + 1)]
    code_terms = [(lags[m], q * qq ** (m - 1) if m else 1) for m in range(j + 1)]
    key_terms = [(lags[m], qq ** (m - j - 1)) for m in range(j + 1, k + 1)]
    if period > 1:
        phase = _phase_view(n, period)
        if phase_in_code:
            code_terms.append((phase, q * qq**j))
        else:
            key_terms.append((phase, qq ** (k - j)))
    codes = _digit_sum(n, code_terms)
    if key_terms:
        groups = [bytearray() for _ in range(256)]
        add = [g.append for g in groups]
        for g, c in zip(_digit_sum(n, key_terms), codes):
            add[g](c)
    else:
        # the phase, if any, is in the code and is its most significant
        # digit: a strided slice per phase keeps the contexts' order, and
        # each context's translate then reads only its own phase
        groups = [codes[ph::period] for ph in range(period)]
    lgamma = math.lgamma
    # the n*log2(1 + q*2^-16) slack counts once, whatever the split
    terms = [-n * math.log1p(q / (1 << 16))]
    key_of = bytes(c // q for c in _BYTE_VALUES)
    contexts = []
    for g in groups:
        # g's context keys, ascending, with no Python step per byte: the
        # byte values that deleting g's keys from all 256 leaves are absent
        absent = _BYTE_VALUES.translate(None, g.translate(key_of))
        contexts += [(g, key) for key in _BYTE_VALUES.translate(None, absent)]
    for codes, key in contexts:
        lo = key * q
        sub = codes.translate(None, _BYTE_VALUES[:lo] + _BYTE_VALUES[lo + q :])
        t = [1] * q
        pos, m = 0, len(sub)
        while pos < m:
            need = [(RESCALE - c + STEP - 1) // STEP for c in t]
            b, counts = _segment(sub, lo, pos, need)
            total = sum(t) / STEP
            terms += (lgamma(total + b - pos), -lgamma(total))
            for c, got in zip(t, counts):
                if got:
                    terms += (lgamma(c / STEP), -lgamma(c / STEP + got))
            # a segment that ends before sub does ends where a count rescales
            if b < m:
                t = [(c + STEP * got + 1) >> 1 for c, got in zip(t, counts)]
            pos = b
    # fsum rounds once; lgamma is off by a few ulps of each term, or by an
    # absolute few ulps near its zeros at 1 and 2: the slack is far above both
    slack = (sum(map(abs, terms)) + len(terms)) * 2**-40
    return (math.fsum(terms) - slack) / math.log(2)


class ContextEstimator(Estimator):
    """Order-k adaptive arithmetic coder: each symbol is predicted from the
    previous k symbols. encode runs the coder inline on its state and reads
    each position's context id from _context_ids; decode runs _decode_stream.
    encode returns the literal blob without coding when _payload_floor
    proves that the literal mode wins. The model has no lookahead, so the
    resume point is the state after the last symbol, before the flush."""

    def __init__(self, order: int) -> None:
        if not 0 <= order <= 3:
            raise ValueError("context order must be in 0..3")
        self.order = order
        self.estimator_id = f"ctx_{order}"

    def encode(self, symbols: bytes, q: int, period: int = 1, resume=None) -> tuple[int, bytes]:
        k = self.order
        n = len(symbols)
        floor = _payload_floor(symbols, q, k, period)
        if floor is not None and floor >= n * bits_per_symbol(q):
            return _literal(symbols, q, period)
        w = _header_writer(q, n, period, MODE_CODED)
        out = w.buf
        hdr = len(out)
        ids, tables = _context_ids(symbols, q, k, period)
        point = resume.find(self, symbols, q, period) if resume is not None else None
        if point is None:
            start, low, high, pending = 0, 0, TOP, 0
        else:
            start, low, high, pending = point.i, point.low, point.high, point.pending
            out += point.payload()
            for c, t in point.model.items():
                tables[c] = t[:]
        half, quarter, three_q = HALF, QUARTER, THREE_Q
        step = STEP
        limit = RESCALE
        last = q - 1
        for ctx, s in zip(ids[start:], symbols[start:]):
            t = tables[ctx]
            if t is None:
                t = tables[ctx] = new_table(q)
            total = t[q]
            c = t[s]
            span = high - low + 1
            if s:
                cum = t[0] if s == 1 else sum(t[:s])
                # the last symbol's upper end is the range's: high stays
                if s < last:
                    high = low + span * (cum + c) // total - 1
                low += span * cum // total
            else:
                high = low + span * c // total - 1
            while True:
                if high < half:
                    if pending:
                        out += b"0" + b"1" * pending
                        pending = 0
                    else:
                        out.append(48)
                elif low >= half:
                    if pending:
                        out += b"1" + b"0" * pending
                        pending = 0
                    else:
                        out.append(49)
                    low -= half
                    high -= half
                elif low >= quarter and high < three_q:
                    pending += 1
                    low -= quarter
                    high -= quarter
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
            c += step
            t[s] = c
            t[q] = total + step
            if c >= limit:
                rescale(t, q)
        if resume is not None and n:
            # the tables are no longer written: a resumed encode copies them
            used = {c: t for c, t in enumerate(tables) if t}
            kept = _resume_point(n, low, high, pending, out, hdr, used, len(used) * (q + 1))
            resume.keep(self, symbols, q, period, kept)
        flush_coder(out, low, pending)
        return self._pick(symbols, q, period, w)

    def _decode_payload(self, r: BitReader, q: int, n: int, period: int) -> bytes:
        # a coded count is below RESCALE and every other count at least 1, so
        # a symbol keeps at most (RESCALE-1)/d + 2^-30 of the range (d =
        # RESCALE+q-2; the 2^-30 covers the floor) and, as -log2 r >= 1 - r,
        # costs at least (q-1)/d - 2^-30 bits: n symbols need n times that
        d = RESCALE + q - 2
        if n * (((q - 1) << 30) - d) > (len(r.buf) - r.pos) * (d << 30):
            raise EstimatorError(f"corrupt header: {n} coded symbols cannot fit the blob")
        return _decode_stream(r, q, n, period, self.order, False)


def default_registry() -> dict[str, Estimator]:
    reg: dict[str, Estimator] = {
        "lz78": LZ78Estimator(),
        "lz77": LZ77Estimator(),
    }
    for k in range(4):
        est = ContextEstimator(k)
        reg[est.estimator_id] = est
    return reg


def get_estimator(name: str) -> Estimator:
    est = default_registry().get(name)
    if est is None:
        raise EstimatorError(f"unknown estimator: {name!r}")
    return est

