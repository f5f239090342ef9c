"""Bit-level plumbing shared by the estimators: bit I/O, Elias gamma codes,
and the constants, flush and frequency tables of the 32-bit adaptive
arithmetic coder that the estimators run inline."""
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

    def write_fields(self, values: bytes, k: int) -> None:
        """Each of values as its k bits, most significant first, 1 <= k <= 8:
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


def gamma_bits(value: int) -> bytes:
    """The Elias gamma code of value >= 1 as ASCII '0'/'1': bit_length - 1
    zeros, then value's bits, most significant first."""
    if value < 1:
        raise ValueError("gamma codes positive integers")
    return b"0" * (value.bit_length() - 1) + bin(value)[2:].encode()


def write_uint(w: BitWriter, value: int) -> None:
    """Non-negative integer as the gamma code of value + 1."""
    w.buf += gamma_bits(value + 1)


def read_uint(r) -> int:
    """The integer write_uint wrote, read bit by bit through r.read_bit, so
    a decoder with that method reads gamma codes from its own stream."""
    zeros = 0
    while r.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise ValueError("malformed gamma code")
    value = 1
    for _ in range(zeros):
        value = (value << 1) | r.read_bit()
    return value - 1


def uint_len(value: int) -> int:
    """Bit length of write_uint's code of value >= 0."""
    if value < 0:
        raise ValueError("write_uint codes non-negative integers")
    return 2 * (value + 1).bit_length() - 1


# --- arithmetic coder --------------------------------------------------------
# The Witten-Neal-Cleary integer coder over a 32-bit range runs inline in the
# estimators' loops: an encoder starts from (low, high, pending) = (0, TOP, 0)
# and appends its decided bits to a BitWriter's buffer, a decoder starts from
# (low, high) = (0, TOP) and v, the stream's first 32 bits. Underflow
# (pending) bits are held back until the next decided bit and written with it
# as one run, so the buffer's length never counts pending bits.
#
# With span = high - low + 1 and cum_s the counts of the symbols below s,
# coding s moves low up by span*cum_s // total and high to
# low + span*cum_{s+1} // total - 1 (the old low). The decoder keeps
# v = code - low, code being the 32 stream bits it is at, and decodes the
# symbol s with
#     span*cum_s // total <= v < span*cum_{s+1} // total,
# the encoder's own split points, then takes the lower one off v.
# Renormalising takes the same half or quarter off low, high and code and
# doubles them, so it doubles v and shifts the next stream bit into it.
# renormalise and shift_in state that step once per side; the per-literal
# loops and the decoder's flags inline it, its match codes call shift_in.

TOP = (1 << 32) - 1
HALF = 1 << 31
QUARTER = 1 << 30
THREE_Q = 3 << 30


def renormalise(out: bytearray, low: int, high: int, pending: int) -> tuple[int, int, int]:
    """Double an encoder's range until it straddles HALF and is not inside
    the middle half, appending each decided bit to out with the pending
    bits held back before it."""
    while True:
        if high < HALF:
            out += b"0" + b"1" * pending
            pending = 0
        elif low >= HALF:
            out += b"1" + b"0" * pending
            pending = 0
            low -= HALF
            high -= HALF
        elif low >= QUARTER and high < THREE_Q:
            pending += 1
            low -= QUARTER
            high -= QUARTER
        else:
            return low, high, pending
        low <<= 1
        high = (high << 1) | 1


def shift_in(buf: bytes, pos: int, low: int, high: int, v: int) -> tuple[int, int, int, int]:
    """The decoder's side of renormalise, run after each gamma bit of an
    lz77 match: the same doublings of (low, high), each shifting the ASCII
    bit buf[pos] into v. The caller pads buf and checks pos against the end."""
    while True:
        if high < HALF:
            pass
        elif low >= HALF:
            low -= HALF
            high -= HALF
        elif low >= QUARTER and high < THREE_Q:
            low -= QUARTER
            high -= QUARTER
        else:
            return low, high, v, pos
        low <<= 1
        high = (high << 1) | 1
        v = (v << 1) | (buf[pos] & 1)
        pos += 1


def flush_coder(out: bytearray, low: int, pending: int) -> None:
    """End an encoder's stream: the bits that pin its final range, the
    pending ones included."""
    run = pending + 1
    out += b"0" + b"1" * run if low < QUARTER else b"1" + b"0" * run


# --- adaptive frequency tables ------------------------------------------------

STEP = 32
RESCALE = 1 << 14


def new_table(q: int) -> list:
    """Symbol frequencies of one context, with Laplace(1) initialisation:
    the counts over {0..q-1} followed by their total. The encoders keep one
    table per context id, and the decoder's context states extend theirs
    (see estimators._decode_stream): coding symbol s adds STEP to its count
    and to the total, and rescales the table once the count reaches
    RESCALE, so the coder's 32-bit range arithmetic stays exact."""
    return [1] * q + [q]


def rescale(t: list, q: int) -> None:
    """Halve a table's q counts, rounding up, and total them again."""
    for s in range(q):
        t[s] = (t[s] + 1) >> 1
    t[q] = sum(t[:q])
