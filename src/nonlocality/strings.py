"""Finite symbol strings, deterministic generators, and the .syms format.

All randomness in the toolkit flows through :class:`Seed`, a 32-byte value
expanded with SHA-256 in counter mode, so every generated string is a pure
function of (parameters, seed).
"""
from __future__ import annotations

import hashlib
from typing import Iterator


class FormatError(ValueError):
    """Raised for malformed .syms files or manifest data."""


def bits_per_symbol(q: int) -> int:
    """Packed width of one symbol from an alphabet of size q."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    return (q - 1).bit_length()


class SymbolString:
    """Immutable finite string over the alphabet {0..q-1}.

    Symbols are held unpacked (one byte each, so q <= 256); `pack` produces
    the canonical bit-packed payload: symbol-major, ceil(log2 q) bits per
    symbol, first symbol in the least-significant bits of byte 0.
    """

    __slots__ = ("q", "data")

    def __init__(self, q: int, symbols) -> None:
        if not 2 <= q <= 256:
            raise ValueError(f"alphabet size out of range: {q}")
        data = bytes(symbols)
        if data and max(data) >= q:
            bad = max(data)
            raise ValueError(f"symbol {bad} out of alphabet range 0..{q - 1}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolString is immutable")

    @property
    def n(self) -> int:
        return len(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[int]:
        return iter(self.data)

    def __getitem__(self, i: int) -> int:
        return self.data[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolString)
            and self.q == other.q
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.q, self.data))

    def __repr__(self) -> str:
        head = ",".join(str(s) for s in self.data[:16])
        tail = ",..." if self.n > 16 else ""
        return f"SymbolString(q={self.q}, n={self.n}, [{head}{tail}])"

    def pack(self) -> bytes:
        return pack_symbols(self.data, self.q)

    @classmethod
    def unpack(cls, q: int, n: int, payload: bytes) -> "SymbolString":
        return cls(q, unpack_symbols(payload, q, n))

    def packed_len(self) -> int:
        return packed_len(self.n, self.q)


def packed_len(n: int, q: int) -> int:
    return (n * bits_per_symbol(q) + 7) // 8


def pack_symbols(symbols: bytes, q: int) -> bytes:
    bps = bits_per_symbol(q)
    out = bytearray()
    acc = 0
    nbits = 0
    for s in symbols:
        acc |= s << nbits
        nbits += bps
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def unpack_symbols(payload: bytes, q: int, n: int) -> bytes:
    bps = bits_per_symbol(q)
    if len(payload) != packed_len(n, q):
        raise FormatError(
            f"payload length {len(payload)} != expected {packed_len(n, q)}"
        )
    out = bytearray(n)
    acc = 0
    nbits = 0
    pos = 0
    mask = (1 << bps) - 1
    for i in range(n):
        while nbits < bps:
            acc |= payload[pos] << nbits
            pos += 1
            nbits += 8
        s = acc & mask
        if s >= q:
            raise FormatError(f"packed symbol {s} out of range for q={q}")
        out[i] = s
        acc >>= bps
        nbits -= bps
    return bytes(out)


# --- seeded randomness -----------------------------------------------------

class Seed:
    """32-byte seed for the toolkit's deterministic generators."""

    __slots__ = ("value",)

    def __init__(self, value: bytes) -> None:
        if len(value) != 32:
            raise ValueError(f"seed must be 32 bytes, got {len(value)}")
        object.__setattr__(self, "value", bytes(value))

    def __setattr__(self, name, value):
        raise AttributeError("Seed is immutable")

    @classmethod
    def from_int(cls, v: int) -> "Seed":
        return cls(v.to_bytes(32, "little"))

    @classmethod
    def from_hex(cls, s: str) -> "Seed":
        """Up to 64 hex digits, zero-padded on the right to 32 bytes."""
        raw = bytes.fromhex(s)
        if len(raw) > 32:
            raise ValueError(f"seed has {len(raw)} bytes, at most 32 allowed")
        return cls(raw + bytes(32 - len(raw)))

    def derive(self, label: str) -> "Seed":
        return Seed(hashlib.sha256(self.value + label.encode()).digest())

    def hex(self) -> str:
        return self.value.hex()

    def __eq__(self, other) -> bool:
        return isinstance(other, Seed) and self.value == other.value

    def __repr__(self) -> str:
        return f"Seed({self.value.hex()[:16]}...)"


class BitStream:
    """Deterministic bit source: SHA-256 of (seed, counter) blocks."""

    def __init__(self, seed: Seed) -> None:
        self._seed = seed.value
        self._ctr = 0
        self._acc = 0
        self._nbits = 0

    def _refill(self) -> None:
        block = hashlib.sha256(
            self._seed + self._ctr.to_bytes(8, "little")
        ).digest()
        self._ctr += 1
        self._acc |= int.from_bytes(block, "little") << self._nbits
        self._nbits += 256

    def bits(self, k: int) -> int:
        while self._nbits < k:
            self._refill()
        v = self._acc & ((1 << k) - 1)
        self._acc >>= k
        self._nbits -= k
        return v

    def symbol(self, q: int) -> int:
        """Exactly uniform symbol in {0..q-1} by rejection sampling."""
        k = bits_per_symbol(q)
        while True:
            v = self.bits(k)
            if v < q:
                return v


def round_bits(seed: Seed, index: int, k: int) -> int:
    """PRF(seed, index): up to 256 bits tied to one round.

    Round draws are indexed, not streamed, so replaying any subset of
    rounds gives identical values regardless of order.
    """
    if k > 256:
        raise ValueError("round_bits supports at most 256 bits")
    digest = hashlib.sha256(seed.value + index.to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little") & ((1 << k) - 1)


# --- generators ------------------------------------------------------------

def gen_seeded_random(n: int, q: int, seed: Seed) -> SymbolString:
    """Deterministic pseudorandom string; the toolkit's stand-in for an
    incompressible string (the compression estimators cannot exploit the
    seed, though the true description length is O(|seed| + log n))."""
    if n < 0:
        raise ValueError("length must be non-negative")
    stream = BitStream(seed)
    return SymbolString(q, bytes(stream.symbol(q) for _ in range(n)))


COMPUTABLE_KINDS = ("zeros", "alternating", "thue_morse", "counter")


def gen_computable(kind: str, n: int) -> SymbolString:
    if n < 0:
        raise ValueError("length must be non-negative")
    if kind == "zeros":
        return SymbolString(2, bytes(n))
    if kind == "alternating":
        return SymbolString(2, bytes(i & 1 for i in range(n)))
    if kind == "thue_morse":
        return SymbolString(2, bytes(bin(i).count("1") & 1 for i in range(n)))
    if kind == "counter":
        out = bytearray()
        i = 1
        while len(out) < n:
            out.extend(int(c) for c in bin(i)[2:])
            i += 1
        return SymbolString(2, bytes(out[:n]))
    raise ValueError(f"unknown computable kind: {kind!r}")


def gen_promise_inputs(m: int, n: int, seed: Seed) -> tuple[SymbolString, SymbolString]:
    """Cyclic-promise input pair for the m-setting chained system.

    Symbols are stored 0-based; displayed value is symbol+1. For each
    position, a is uniform and b equals a or its cyclic successor, chosen
    by an independent fair bit, so the pair carries log2(m)+1 bits of
    description per position.
    """
    if m < 2:
        raise ValueError("ring size must be >= 2")
    if n < 0:
        raise ValueError("length must be non-negative")
    stream = BitStream(seed)
    a = bytearray(n)
    b = bytearray(n)
    for i in range(n):
        ai = stream.symbol(m)
        shift = stream.bits(1)
        a[i] = ai
        b[i] = (ai + shift) % m
    return SymbolString(m, bytes(a)), SymbolString(m, bytes(b))


def promise_ok(m: int, a_sym: int, b_sym: int) -> bool:
    """Cyclic promise on 0-based symbols: b = a or a+1 (mod m)."""
    return b_sym == a_sym or b_sym == (a_sym + 1) % m


# --- pointwise operations --------------------------------------------------

def pointwise_product(a: SymbolString, b: SymbolString) -> SymbolString:
    if a.q != 2 or b.q != 2:
        raise ValueError("pointwise_product requires binary strings")
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} != {b.n}")
    return SymbolString(2, bytes(x & y for x, y in zip(a.data, b.data)))


def chi_event(a: SymbolString, b: SymbolString, m: int) -> SymbolString:
    """Indicator of the wrap-around pair: displayed (a=m, b=1), i.e.
    0-based symbols (m-1, 0)."""
    if a.q != m or b.q != m:
        raise ValueError(f"alphabet mismatch: expected q={m}")
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} != {b.n}")
    last = m - 1
    return SymbolString(
        2, bytes(1 if (x == last and y == 0) else 0 for x, y in zip(a.data, b.data))
    )


def interleave(*strings: SymbolString) -> SymbolString:
    """Position-interleaved join s1_1 s2_1 ... s1_2 s2_2 ... over the
    unified alphabet max(q_i). All strings must have equal length."""
    if not strings:
        raise ValueError("need at least one string")
    n = strings[0].n
    if any(s.n != n for s in strings):
        raise ValueError("interleave requires equal lengths")
    q = max(s.q for s in strings)
    out = bytearray(n * len(strings))
    k = len(strings)
    for j, s in enumerate(strings):
        out[j::k] = s.data
    return SymbolString(q, bytes(out))


def concat(*strings: SymbolString) -> SymbolString:
    if not strings:
        raise ValueError("need at least one string")
    q = max(s.q for s in strings)
    return SymbolString(q, b"".join(s.data for s in strings))


# --- .syms file format -----------------------------------------------------

def write_syms(path, s: SymbolString) -> None:
    with open(path, "wb") as fh:
        fh.write(f"SYMS q={s.q} n={s.n}\n".encode("ascii"))
        fh.write(s.pack())


def read_syms(path) -> SymbolString:
    with open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    try:
        text = header.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError("header is not ASCII") from exc
    parts = text.strip().split()
    if len(parts) != 3 or parts[0] != "SYMS":
        raise FormatError(f"bad .syms header: {text!r}")
    try:
        q = int(parts[1].removeprefix("q="))
        n = int(parts[2].removeprefix("n="))
    except ValueError as exc:
        raise FormatError(f"bad .syms header: {text!r}") from exc
    if not (parts[1].startswith("q=") and parts[2].startswith("n=") and 2 <= q <= 256 and n >= 0):
        raise FormatError(f"bad .syms header: {text!r}")
    expected = packed_len(n, q)
    if len(body) != expected:
        raise FormatError(
            f"payload is {len(body)} bytes, expected exactly {expected}"
        )
    return SymbolString.unpack(q, n, body)
