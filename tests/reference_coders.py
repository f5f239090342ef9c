"""The lz77 and ctx_k coding loops as they were before the arithmetic coder
was fused into them: one coder method call per coded symbol, a dict of
position lists as lz77's match table, and one int() per value when a
literal-mode payload is read.

Kept only as the reference the fused loops in src/ must match bit for bit
(tests/test_coder_outputs.py), and on cut or corrupt blobs outcome for
outcome: `decode` makes src's checks on untrusted input, so both refuse
the same blobs with the same exception type. The coder objects, the model,
the gamma codes of match tokens (written and read bit by bit through the
coder) and the match extension (symbol by symbol) are copied here too, so
that a fault in src/'s versions cannot hide by showing up on both sides.

`_chain_links` is lz77's match index as a dict keyed by each position's
ANCHOR-symbol slice, the reference for src's bucketed index
(`estimators._chain_links`), whose links must be the same.

`lz78_encode` is the LZW parse with its trie as a dict keyed by `(node,
byte)` tuples, run to the end of the string and handed to `_pick`: the
reference for src's flat child table and its early literal exit, whose
bits and blob must be the same.

`payload_floor` is ctx_k's literal certificate as it was before its binary
search counted one symbol per step: a set of each group's bytes for the
contexts present, one translate per context over its whole group (no
split by phase) and a generator over every symbol at each step of the
search. src's `estimators._payload_floor` must return the same float.
"""
from __future__ import annotations

import math

from nonlocality.coding import RESCALE, STEP, BitReader, BitWriter, read_uint
from nonlocality.estimators import (
    ANCHOR,
    MAX_CHAIN,
    MODE_CODED,
    MODE_LITERAL,
    Estimator,
    EstimatorError,
    _digit_sum,
    _header_writer,
    _phase_view,
)
from nonlocality.strings import _BYTE_VALUES, bits_per_symbol, pack_symbols

_TOP = (1 << 32) - 1
_HALF = 1 << 31
_QUARTER = 1 << 30
_THREE_Q = 3 << 30


class ArithmeticEncoder:
    def __init__(self, writer: BitWriter) -> None:
        self._out = writer.buf
        self._low = 0
        self._high = _TOP
        self._pending = 0

    def encode(self, cum_lo: int, cum_hi: int, total: int) -> int:
        """Narrow the range to [cum_lo, cum_hi) of total; returns the
        writer's bit_count after the bits this decided."""
        low = self._low
        span = self._high - low + 1
        high = low + span * cum_hi // total - 1
        low += span * cum_lo // total
        pending = self._pending
        out = self._out
        while True:
            if high < _HALF:
                if pending:
                    out += b"0" + b"1" * pending
                    pending = 0
                else:
                    out.append(48)
            elif low >= _HALF:
                if pending:
                    out += b"1" + b"0" * pending
                    pending = 0
                else:
                    out.append(49)
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _THREE_Q:
                pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
        self._low = low
        self._high = high
        self._pending = pending
        return len(out)

    def write_bit(self, bit: int) -> None:
        self.encode(bit, bit + 1, 2)

    def write_bits(self, value: int, k: int) -> None:
        for i in range(k - 1, -1, -1):
            self.write_bit((value >> i) & 1)

    def finish(self) -> None:
        run = self._pending + 1
        self._out += b"0" + b"1" * run if self._low < _QUARTER else b"1" + b"0" * run
        self._pending = 0


class ArithmeticDecoder:
    def __init__(self, reader: BitReader) -> None:
        self._r = reader
        self._low = 0
        self._high = _TOP
        self._code = reader.read_bits(32)

    def decode_target(self, total: int) -> int:
        span = self._high - self._low + 1
        return ((self._code - self._low + 1) * total - 1) // span

    def consume(self, cum_lo: int, cum_hi: int, total: int) -> None:
        low = self._low
        span = self._high - low + 1
        high = low + span * cum_hi // total - 1
        low += span * cum_lo // total
        code = self._code
        shifts = 0
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                code -= _HALF
            elif low >= _QUARTER and high < _THREE_Q:
                low -= _QUARTER
                high -= _QUARTER
                code -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
            code <<= 1
            shifts += 1
        self._low = low
        self._high = high
        self._code = code | self._r.read_bits(shifts) if shifts else code

    def read_bit(self) -> int:
        bit = self.decode_target(2)
        self.consume(bit, bit + 1, 2)
        return bit


def write_gamma(enc: ArithmeticEncoder, value: int) -> None:
    nbits = value.bit_length()
    for _ in range(nbits - 1):
        enc.write_bit(0)
    enc.write_bits(value, nbits)


def read_gamma(dec: ArithmeticDecoder) -> int:
    zeros = 0
    while dec.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise ValueError("malformed gamma code")
    value = 1
    for _ in range(zeros):
        value = (value << 1) | dec.read_bit()
    return value


class AdaptiveModel:
    STEP = 32
    RESCALE = 1 << 14

    def __init__(self, q: int) -> None:
        self.q = q
        self.tables: dict = {}

    def table(self, ctx) -> list:
        t = self.tables.get(ctx)
        if t is None:
            t = self.tables[ctx] = [1] * self.q + [self.q]
        return t

    def encode(self, enc, ctx, symbol: int) -> None:
        t = self.table(ctx)
        cum = sum(t[:symbol])
        enc.encode(cum, cum + t[symbol], t[self.q])
        self.update(t, symbol)

    def decode(self, dec, ctx) -> int:
        t = self.table(ctx)
        total = t[self.q]
        target = dec.decode_target(total)
        cum = 0
        symbol = 0
        while cum + t[symbol] <= target:
            cum += t[symbol]
            symbol += 1
        dec.consume(cum, cum + t[symbol], total)
        self.update(t, symbol)
        return symbol

    def update(self, t: list, symbol: int) -> None:
        t[symbol] += self.STEP
        t[self.q] += self.STEP
        if t[symbol] >= self.RESCALE:
            self.rescale(t)

    def rescale(self, t: list) -> None:
        q = self.q
        for s in range(q):
            t[s] = (t[s] + 1) >> 1
        t[q] = sum(t[:q])


def _chain_links(symbols: bytes) -> list:
    """prev[p]: the last position before p that starts the same ANCHOR
    symbols, or -1 (always -1 for p > n - ANCHOR)."""
    last: dict = {}
    prev = [-1] * len(symbols)
    for p in range(len(symbols) - ANCHOR + 1):
        key = symbols[p : p + ANCHOR]
        prev[p] = last.get(key, -1)
        last[key] = p
    return prev


def lz77_encode(symbols: bytes, q: int, period: int = 1) -> tuple[int, bytes]:
    w = _header_writer(q, len(symbols), period, MODE_CODED)
    enc = ArithmeticEncoder(w)
    code = enc.encode
    flag_model = AdaptiveModel(2)
    flag = flag_model.table(0)
    lit = AdaptiveModel(q)
    tables = lit.tables
    step = AdaptiveModel.STEP
    rescale = AdaptiveModel.RESCALE
    n = len(symbols)
    bps = bits_per_symbol(q)
    table: dict = {}
    i = 0
    qq = q + 1
    ctxspan = qq * qq
    lit_bits = 0
    lit_syms = 0
    while i < n:
        best_len = 0
        best_dist = 0
        key = symbols[i : i + ANCHOR] if i + ANCHOR <= n else None
        if key is not None:
            cands = table.get(key)
            if cands:
                for j in cands[-MAX_CHAIN:][::-1]:
                    length = ANCHOR
                    while i + length < n and symbols[j + length] == symbols[i + length]:
                        length += 1
                    if length > best_len:
                        best_len = length
                        best_dist = i - j
        take = False
        if best_len:
            cost = 2 * (best_dist.bit_length() + (best_len - ANCHOR + 1).bit_length())
            avg = lit_bits / lit_syms if lit_syms >= 64 else bps
            take = cost < best_len * avg
        if take:
            flag_model.encode(enc, 0, 1)
            write_gamma(enc, best_dist)
            write_gamma(enc, best_len - ANCHOR + 1)
            end = i + best_len
            for p in range(i, min(end, n - ANCHOR + 1)):
                table.setdefault(symbols[p : p + ANCHOR], []).append(p)
            i = end
        else:
            c0 = flag[0]
            before = code(0, c0, flag[2])
            flag[0] = c0 + step
            flag[2] += step
            if c0 + step >= rescale:
                flag_model.rescale(flag)
            s = symbols[i]
            p1 = symbols[i - 1] if i >= 1 else q
            p2 = symbols[i - 2] if i >= 2 else q
            ctx = (i % period) * ctxspan + p2 * qq + p1
            t = tables.get(ctx) or lit.table(ctx)
            cum = sum(t[:s]) if s else 0
            c = t[s]
            lit_bits += code(cum, cum + c, t[q]) - before
            lit_syms += 1
            t[s] = c + step
            t[q] += step
            if c + step >= rescale:
                lit.rescale(t)
            if key is not None:
                table.setdefault(key, []).append(i)
            i += 1
    enc.finish()
    return Estimator()._pick(symbols, q, period, w)


def lz77_decode_payload(r: BitReader, q: int, n: int, period: int) -> bytes:
    dec = ArithmeticDecoder(r)
    flag = AdaptiveModel(2)
    lit = AdaptiveModel(q)
    out = bytearray()
    qq = q + 1
    ctxspan = qq * qq
    while len(out) < n:
        if flag.decode(dec, 0):
            dist = read_gamma(dec)
            length = read_gamma(dec) + ANCHOR - 1
            start = len(out) - dist
            if start < 0 or len(out) + length > n:
                raise EstimatorError("corrupt LZ77 stream")
            for k in range(length):
                out.append(out[start + k])
        else:
            i = len(out)
            p1 = out[i - 1] if i >= 1 else q
            p2 = out[i - 2] if i >= 2 else q
            out.append(lit.decode(dec, (i % period) * ctxspan + p2 * qq + p1))
    return bytes(out)


def ctx_encode(order: int, symbols: bytes, q: int, period: int = 1) -> tuple[int, bytes]:
    w = _header_writer(q, len(symbols), period, MODE_CODED)
    enc = ArithmeticEncoder(w)
    code = enc.encode
    model = AdaptiveModel(q)
    tables = model.tables
    step = AdaptiveModel.STEP
    rescale = AdaptiveModel.RESCALE
    k = order
    qq = q + 1
    mod = qq**k if k else 1
    ctx = 0
    for _ in range(k):
        ctx = ctx * qq + q
    for i, s in enumerate(symbols):
        key = (i % period) * mod + ctx if k else i % period
        t = tables.get(key) or model.table(key)
        cum = sum(t[:s]) if s else 0
        c = t[s]
        code(cum, cum + c, t[q])
        t[s] = c + step
        t[q] += step
        if c + step >= rescale:
            model.rescale(t)
        if k:
            ctx = (ctx * qq + s) % mod
    enc.finish()
    return Estimator()._pick(symbols, q, period, w)


def ctx_decode_payload(order: int, r: BitReader, q: int, n: int, period: int) -> bytes:
    dec = ArithmeticDecoder(r)
    model = AdaptiveModel(q)
    k = order
    qq = q + 1
    mod = qq**k if k else 1
    ctx = 0
    for _ in range(k):
        ctx = ctx * qq + q
    out = bytearray()
    for i in range(n):
        s = model.decode(dec, (i % period) * mod + ctx if k else i % period)
        out.append(s)
        if k:
            ctx = (ctx * qq + s) % mod
    return bytes(out)


def lz78_encode(symbols: bytes, q: int, period: int = 1) -> tuple[int, bytes]:
    w = _header_writer(q, len(symbols), period, MODE_CODED)
    data = pack_symbols(symbols, q)
    if data:
        # trie: (node_code, byte) -> code. A code takes the bits of
        # code | top after its leading 1, top the least power of 2 >= size
        trie: dict = {}
        out = w.buf
        size = top = 256
        node = data[0]
        for c in data[1:]:
            nxt = trie.get((node, c))
            if nxt is not None:
                node = nxt
            else:
                out += bin(node | top)[3:].encode()
                trie[(node, c)] = size
                size += 1
                if size > top:
                    top <<= 1
                node = c
        out += bin(node | top)[3:].encode()
    return Estimator()._pick(symbols, q, period, w)


def read_fields(r: BitReader, n: int, k: int) -> bytes:
    pos = r.pos
    chunk = r.buf[pos : pos + n * k].ljust(n * k, b"0")
    r.pos = pos + n * k
    return bytes(int(chunk[i : i + k], 2) for i in range(0, n * k, k))


def encode(est_id: str, symbols: bytes, q: int, period: int = 1) -> tuple[int, bytes]:
    if est_id == "lz77":
        return lz77_encode(symbols, q, period)
    if est_id == "lz78":
        return lz78_encode(symbols, q, period)
    return ctx_encode(int(est_id[len("ctx_"):]), symbols, q, period)


class GuardedReader(BitReader):
    """A reader with the fused decoders' guard: a read that ends more than
    30 bits past the blob is refused, since an honest stream's reads never
    get that far."""

    def read_bits(self, k: int) -> int:
        value = super().read_bits(k)
        if self.pos > len(self.buf) + 30:
            raise EstimatorError("corrupt header")
        return value


def decode(est_id: str, blob: bytes) -> tuple[int, bytes]:
    """(q, symbols) of a blob, under the checks that src makes on untrusted
    input: an alphabet above 256, a literal payload that overruns the blob,
    a ctx_k header whose n the blob cannot hold at the least per-symbol cost
    (see ContextEstimator._decode_payload) and a read more than 30 bits past
    the blob are refused, before any table is sized from the header."""
    r = GuardedReader(blob)
    q = read_uint(r) + 2
    n = read_uint(r)
    period = read_uint(r) + 1
    mode = r.read_bit()
    if q > 256:
        raise EstimatorError("corrupt header")
    left = len(r.buf) - r.pos
    if mode == MODE_LITERAL:
        if n * bits_per_symbol(q) > left:
            raise EstimatorError("corrupt header")
        return q, read_fields(r, n, bits_per_symbol(q))
    if est_id == "lz77":
        return q, lz77_decode_payload(r, q, n, period)
    d = AdaptiveModel.RESCALE + q - 2
    if n * (((q - 1) << 30) - d) > left * (d << 30):
        raise EstimatorError("corrupt header")
    return q, ctx_decode_payload(int(est_id[len("ctx_"):]), r, q, n, period)


def outcome(decode, blob: bytes):
    """decode(blob), or the type of the exception it raised."""
    try:
        return decode(blob)
    except Exception as exc:  # the type is the outcome compared
        return type(exc)


FUSED_IDS = ("lz77", "ctx_0", "ctx_1", "ctx_2", "ctx_3")


def payload_floor(symbols: bytes, q: int, k: int, period: int) -> float | None:
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
    split by context with bytes.translate."""
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
        groups = [codes]
    lgamma = math.lgamma
    # the n*log2(1 + q*2^-16) slack counts once, whatever the split
    terms = [-n * math.log1p(q / (1 << 16))]
    for codes, key in [(g, key) for g in groups for key in sorted({c // q for c in set(g)})]:
        lo = key * q
        sub = codes.translate(None, _BYTE_VALUES[:lo] + _BYTE_VALUES[lo + q :])
        t = [1] * q
        pos, m = 0, len(sub)
        while pos < m:
            need = [(RESCALE - c + STEP - 1) // STEP for c in t]
            # some count reaches its need within sum(need) symbols
            a, b = pos + min(need) - 1, min(pos + sum(need), m)
            rescaled = any(sub.count(lo + v, pos, b) >= need[v] for v in range(q))
            if rescaled:
                while b - a > 1:
                    mid = (a + b) >> 1
                    if any(sub.count(lo + v, pos, mid) >= need[v] for v in range(q)):
                        b = mid
                    else:
                        a = mid
            counts = [sub.count(lo + v, pos, b) for v in range(q)]
            total = sum(t) / STEP
            terms += (lgamma(total + b - pos), -lgamma(total))
            for c, got in zip(t, counts):
                if got:
                    terms += (lgamma(c / STEP), -lgamma(c / STEP + got))
            if rescaled:
                t = [(c + STEP * got + 1) >> 1 for c, got in zip(t, counts)]
            pos = b
    # fsum rounds once; lgamma is off by a few ulps of each term, or by an
    # absolute few ulps near its zeros at 1 and 2: the slack is far above both
    slack = (sum(map(abs, terms)) + len(terms)) * 2**-40
    return (math.fsum(terms) - slack) / math.log(2)
