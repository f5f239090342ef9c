"""Bit-level plumbing shared by the estimators: bit I/O, Elias gamma codes,
and a 32-bit adaptive arithmetic coder."""
from __future__ import annotations


class BitWriter:
    """Bits in stream order, buffered in `buf` as ASCII '0'/'1' (one byte per
    bit) so runs append in one step, and packed once by getvalue: stream
    bit i is bit i % 8 of byte i // 8."""

    def __init__(self) -> None:
        self.buf = bytearray()

    @property
    def bit_count(self) -> int:
        return len(self.buf)

    def write_bit(self, bit: int) -> None:
        self.buf.append(49 if bit & 1 else 48)

    def write_bits(self, value: int, k: int) -> None:
        """The low k bits of value, most significant first."""
        if k > 0:
            self.buf += bin((value & ((1 << k) - 1)) | (1 << k))[3:].encode()

    def write_fields(self, values: bytes, k: int) -> None:
        """Each of values as write_bits(value, k) would write it, 1 <= k <= 8:
        one strided slice per bit position, no per-value work."""
        start = len(self.buf)
        self.buf += bytes(len(values) * k)
        for j in range(k):
            self.buf[start + j :: k] = values.translate(_BIT_ASCII[k - 1 - j])

    def getvalue(self) -> bytes:
        n = len(self.buf)
        if not n:
            return b""
        return int(self.buf[::-1], 2).to_bytes((n + 7) >> 3, "little")


# _BIT_ASCII[j] maps a byte to its bit j as ASCII '0'/'1'; _ASCII_BIT undoes that
_BIT_ASCII = [bytes(48 + ((v >> j) & 1) for v in range(256)) for j in range(8)]
_ASCII_BIT = bytes.maketrans(b"01", b"\x00\x01")


class BitReader:
    """Reads `buf`, the stream as ASCII '0'/'1' (see BitWriter), from `pos`;
    zero padding past the end."""

    def __init__(self, data: bytes) -> None:
        bits = bytearray(8 * len(data))
        for j in range(8):
            bits[j::8] = data.translate(_BIT_ASCII[j])
        self.buf = bytes(bits)
        self.pos = 0

    def read_bit(self) -> int:
        pos = self.pos
        if pos >= len(self.buf):
            return 0
        self.pos = pos + 1
        return self.buf[pos] - 48

    def read_bits(self, k: int) -> int:
        """k bits, most significant first."""
        if k <= 0:
            return 0
        pos = self.pos
        chunk = self.buf[pos : pos + k]
        self.pos = pos + k
        return int(chunk, 2) << (k - len(chunk)) if chunk else 0

    def read_fields(self, n: int, k: int) -> bytes:
        """n values of 1 <= k <= 8 bits, as read_bits(k) would read them:
        the fields are spread into 8 ASCII bits per value by one strided
        slice per bit position and parsed as one integer (the inverse of
        BitWriter.getvalue)."""
        pos = self.pos
        chunk = self.buf[pos : pos + n * k].ljust(n * k, b"0")
        self.pos = pos + n * k
        if k == 1 or not n:
            return chunk.translate(_ASCII_BIT)
        octets = bytearray(b"0" * (8 * n))
        for j in range(k):
            octets[8 - k + j :: 8] = chunk[j::k]
        return int(octets, 2).to_bytes(n, "big")


def gamma_len(value: int) -> int:
    """Bit length of the Elias gamma code of value >= 1."""
    if value < 1:
        raise ValueError("gamma codes positive integers")
    return 2 * value.bit_length() - 1


def write_gamma(w: BitWriter, value: int) -> None:
    if value < 1:
        raise ValueError("gamma codes positive integers")
    nbits = value.bit_length()
    for _ in range(nbits - 1):
        w.write_bit(0)
    w.write_bits(value, nbits)


def read_gamma(r: BitReader) -> int:
    zeros = 0
    while r.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise ValueError("malformed gamma code")
    value = 1
    for _ in range(zeros):
        value = (value << 1) | r.read_bit()
    return value


def write_uint(w: BitWriter, value: int) -> None:
    """Gamma-coded non-negative integer."""
    write_gamma(w, value + 1)


def read_uint(r: BitReader) -> int:
    return read_gamma(r) - 1


def uint_len(value: int) -> int:
    return gamma_len(value + 1)


# --- arithmetic coder --------------------------------------------------------

TOP = (1 << 32) - 1
HALF = 1 << 31
QUARTER = 1 << 30
THREE_Q = 3 << 30


class ArithmeticEncoder:
    """Witten-Neal-Cleary integer arithmetic coder over a 32-bit range.

    Output bits go straight into the writer's buffer. Underflow (pending)
    bits are held back until the next decided bit and then written with it
    as one run, so writer.bit_count never counts pending bits.

    The state (low, high, pending) is public: the estimators' hot loops run
    this same narrowing inline on local copies and sync them back before
    coding a rare token through these methods.
    """

    def __init__(self, writer: BitWriter) -> None:
        self.out = writer.buf
        self.low = 0
        self.high = TOP
        self.pending = 0

    def encode(self, cum_lo: int, cum_hi: int, total: int) -> None:
        """Narrow the range to [cum_lo, cum_hi) of total."""
        low = self.low
        span = self.high - low + 1
        high = low + span * cum_hi // total - 1
        low += span * cum_lo // total
        pending = self.pending
        out = self.out
        while True:
            if high < HALF:
                if pending:
                    out += b"0" + b"1" * pending
                    pending = 0
                else:
                    out.append(48)
            elif low >= HALF:
                if pending:
                    out += b"1" + b"0" * pending
                    pending = 0
                else:
                    out.append(49)
                low -= HALF
                high -= HALF
            elif low >= QUARTER and high < THREE_Q:
                pending += 1
                low -= QUARTER
                high -= QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
        self.low = low
        self.high = high
        self.pending = pending

    def write_bit(self, bit: int) -> None:
        """A bit at fixed probability 1/2 (costs exactly one binary split).
        Named like BitWriter's, so write_gamma can code into this stream."""
        self.encode(bit, bit + 1, 2)

    def write_bits(self, value: int, k: int) -> None:
        for i in range(k - 1, -1, -1):
            self.write_bit((value >> i) & 1)

    def finish(self) -> None:
        run = self.pending + 1
        self.out += b"0" + b"1" * run if self.low < QUARTER else b"1" + b"0" * run
        self.pending = 0


class ArithmeticDecoder:
    """Inverse of ArithmeticEncoder; its state (low, high, code, and the
    reader's pos) is public for the same reason."""

    def __init__(self, reader: BitReader) -> None:
        self.reader = reader
        self.low = 0
        self.high = TOP
        self.code = reader.read_bits(32)

    def decode_target(self, total: int) -> int:
        span = self.high - self.low + 1
        return ((self.code - self.low + 1) * total - 1) // span

    def consume(self, cum_lo: int, cum_hi: int, total: int) -> None:
        low = self.low
        span = self.high - low + 1
        high = low + span * cum_hi // total - 1
        low += span * cum_lo // total
        code = self.code
        shifts = 0
        while True:
            if high < HALF:
                pass
            elif low >= HALF:
                low -= HALF
                high -= HALF
                code -= HALF
            elif low >= QUARTER and high < THREE_Q:
                low -= QUARTER
                high -= QUARTER
                code -= QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
            code <<= 1
            shifts += 1
        self.low = low
        self.high = high
        # the bits shifted in are read as one run: code is only shifted and
        # offset inside the loop, so adding them afterwards is exact
        self.code = code | self.reader.read_bits(shifts) if shifts else code

    def read_bit(self) -> int:
        """Inverse of ArithmeticEncoder.write_bit; named like BitReader's,
        so read_gamma can decode from this stream."""
        bit = self.decode_target(2)
        self.consume(bit, bit + 1, 2)
        return bit


# --- adaptive frequency tables ------------------------------------------------

STEP = 32
RESCALE = 1 << 14


def new_table(q: int) -> list:
    """Symbol frequencies of one context, with Laplace(1) initialisation:
    the counts over {0..q-1} followed by their total. The estimators'
    coding loops keep one table per context in a dict: coding symbol s adds
    STEP to its count and to the total, and rescales the table once the
    count reaches RESCALE, so the coder's 32-bit range arithmetic stays
    exact."""
    return [1] * q + [q]


def rescale(t: list) -> None:
    q = len(t) - 1
    for s in range(q):
        t[s] = (t[s] + 1) >> 1
    t[q] = sum(t[:q])
