"""Finite symbol strings, deterministic generators, and the .syms format.

All randomness in the toolkit flows through :class:`Seed`, a 32-byte value
expanded with SHA-256 in counter mode, so every generated string is a pure
function of (parameters, seed). The stream layout is the spec: block c is
SHA-256(seed || c as 8 little-endian bytes); the stream is the blocks
joined, bit j being bit j % 8 of byte j // 8; a k-bit draw takes the next k
bits, the first least significant; a symbol over q letters takes k =
bits_per_symbol(q) bits and is drawn again while >= q; round i of
`games.play` reads block i (`round_bits`).

The generators, and games.play through round_bytes and rounds_below, make
no Python call per symbol or round, so one SHA-256 per block is the floor;
tests/reference_generators.py keeps per-symbol versions to compare with.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

from .coding import BitReader, BitWriter


class FormatError(ValueError):
    """Raised for malformed .syms files and JSON inputs, and for inputs
    that do not fit their game."""


class Record:
    """Base of the toolkit's frozen values. A subclass's own annotated names are its
    fields, in order; a class attribute of the same name is that field's default.
    Copies, unpickled records and `replace` go through the constructor and its checks."""

    def __init_subclass__(cls) -> None:
        # strings under `from __future__ import annotations` on 3.10-3.13; re-check on 3.14
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        if len(args) != len(fields := self._fields) or kwargs:
            given = dict(zip(fields, args), **kwargs)  # drops a surplus or repeated argument
            if len(given) < len(args) + len(kwargs) or {*self._defaults, *given} != {*fields}:
                raise TypeError(f"{type(self).__name__}() arguments do not fit its fields {fields}")
            args = [given[f] if f in given else self._defaults[f] for f in fields]
        # a dict of its own: one filled through self.__dict__ slows every attribute read
        object.__setattr__(self, "__dict__", dict(zip(fields, args)))
        self.__post_init__()

    def __post_init__(self) -> None:
        """A subclass's checks, run once its fields are set."""

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in vars(self).items())})"

    def __reduce__(self):
        return type(self), tuple(vars(self).values())

    def replace(self, **changes) -> "Record":
        return type(self)(**{**vars(self), **changes})


def unique_keys(pairs: list) -> dict:
    """The object_pairs_hook of read_json: a JSON object that names a key
    twice is refused, where json.loads would keep the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"repeated JSON key: {key!r}")
        obj[key] = value
    return obj


def read_json(path, what: str, **numbers) -> dict:
    """The JSON object in the file at path, under json.loads' number hooks:
    text that is not UTF-8 JSON, a repeated key, an int of over 4300 digits
    or a value other than an object is a FormatError naming what it is."""
    try:
        data = json.loads(
            Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys, **numbers
        )
    except ValueError as exc:
        raise FormatError(f"bad {what} JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object")
    return data


def write_all(writes, directory=".") -> None:
    """Write the file of each (path, write) pair, all or none: write(temp)
    stages each as a temp file beside its path, and the temps replace their
    paths, in order, only once all are written; a missing directory is made
    first. On an error the temps and any directory made are removed, and a
    file already at a path keeps its bytes. An error while staging names the
    path, not its temp."""
    directory = Path(directory)
    staged, made = [], []
    try:
        for new in reversed([d for d in (directory, *directory.parents) if not d.exists()]):
            new.mkdir()
            made.append(new)
        for path, write in writes:
            path = Path(path)
            staged.append(path.parent / f".{path.name}.{os.getpid()}.tmp")
            try:
                write(staged[-1])
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
        made.clear()
        for temp, (path, _) in zip(staged, writes):
            os.replace(temp, path)
    finally:
        for temp in staged:
            temp.unlink(missing_ok=True)
        for new in reversed(made):
            new.rmdir()


# Python's default limit on the digits of an int read or printed as text,
# which complexity.frac_str meets when it writes a value
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def parse_fraction(text) -> Fraction:
    """The one exact-fraction reader: text as a rational in [0, 1] whose
    denominator has at most _MAX_DIGITS digits, else a FormatError.
    Fraction builds 10**e for an exponent e, so one larger than _MAX_DIGITS
    is refused before it is built."""
    try:
        exponent = _EXPONENT.search(text)
        value = None if exponent and abs(int(exponent[1])) > _MAX_DIGITS else Fraction(text)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise FormatError(f"not a fraction: {text!r}") from exc
    if value is None or value.denominator >= 10**_MAX_DIGITS:
        raise FormatError(f"more than {_MAX_DIGITS} digits: {text!r}")
    if not 0 <= value <= 1:
        raise FormatError(f"must lie in [0, 1]: {text!r}")
    return value


def bits_per_symbol(q: int) -> int:
    """Packed width of one symbol from an alphabet of size q."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    return (q - 1).bit_length()


_BYTE_VALUES = bytes(range(256))
_CHECKED = 1 << 14  # bytes per step of SymbolString's alphabet check


class SymbolString(Record):
    """Immutable finite string over the alphabet {0..q-1}.

    Symbols are held unpacked (one byte each, so q <= 256); `pack_symbols`
    produces the canonical bit-packed payload: symbol-major, ceil(log2 q)
    bits per symbol, first symbol in the least-significant bits of byte 0.
    """

    q: int
    data: bytes

    def __post_init__(self) -> None:
        q = self.q
        if not 2 <= q <= 256:
            raise ValueError(f"alphabet size out of range: {q}")
        data = bytes(self.data)
        # a chunk at a time, so the check allocates nothing that grows with n
        keep = _BYTE_VALUES[:q]
        if any(data[i : i + _CHECKED].translate(None, keep) for i in range(0, len(data), _CHECKED)):
            raise ValueError(f"symbol {max(data)} out of alphabet range 0..{q - 1}")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return len(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[int]:
        return iter(self.data)

    def __getitem__(self, i: int) -> int:
        return self.data[i]

    def __repr__(self) -> str:
        head = ",".join(str(s) for s in self.data[:16])
        tail = ",..." if self.n > 16 else ""
        return f"SymbolString(q={self.q}, n={self.n}, [{head}{tail}])"


def packed_len(n: int, q: int) -> int:
    return (n * bits_per_symbol(q) + 7) // 8


# pack_symbols writes each symbol least significant bit first, the coding
# module's field packer most significant bit first; the rest of the layout
# is the same. _REVERSED[k] reverses the low k bits of a byte.
_REVERSED_8 = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))
_REVERSED = [bytes(v >> (8 - k) for v in _REVERSED_8) for k in range(9)]
_NOT_BIT = bytes.maketrans(b"\0\1", b"\1\0")


def pack_symbols(symbols: bytes, q: int) -> bytes:
    k = bits_per_symbol(q)
    w = BitWriter()
    w.write_fields(bytes(symbols).translate(_REVERSED[k]), k)
    return w.getvalue()


def unpack_symbols(payload: bytes, q: int, n: int) -> bytes:
    k = bits_per_symbol(q)
    if len(payload) != packed_len(n, q):
        raise FormatError(
            f"payload length {len(payload)} != expected {packed_len(n, q)}"
        )
    out = BitReader(payload).read_fields(n, k).translate(_REVERSED[k])
    if out and max(out) >= q:
        raise FormatError(f"packed symbol {max(out)} out of range for q={q}")
    return out


# --- seeded randomness -----------------------------------------------------

class Seed(Record):
    """32-byte seed for the toolkit's deterministic generators."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != 32:
            raise ValueError(f"seed must be 32 bytes, got {len(self.value)}")
        object.__setattr__(self, "value", bytes(self.value))

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

    def __repr__(self) -> str:
        return f"Seed({self.value.hex()[:16]}...)"


def prf_blocks(seed: Seed, start: int, stop: int) -> bytes:
    """Blocks start..stop-1 of seed's stream, joined."""
    v, sha = seed.value, hashlib.sha256
    return b"".join([sha(v + c.to_bytes(8, "little")).digest() for c in range(start, stop)])


def round_bits(seed: Seed, index: int, k: int) -> int:
    """PRF(seed, index): the low k bits of block `index` as a little-endian
    integer, the one-round reference of the stream layout.

    Round draws are indexed, not streamed, so replaying any subset of
    rounds gives identical values regardless of order.
    """
    if k > 256:
        raise ValueError("round_bits supports at most 256 bits")
    digest = hashlib.sha256(seed.value + index.to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little") & ((1 << k) - 1)


def round_bytes(seed: Seed, start: int, stop: int) -> bytes:
    """Byte 0 of the blocks of rounds start..stop-1: for k <= 8, its low k
    bits are round_bits(seed, i, k)."""
    return prf_blocks(seed, start, stop)[::32]


def rounds_below(seed: Seed, start: int, stop: int, cut: int) -> bytes:
    """1 for each round i in start..stop-1 with round_bits(seed, i, 32) < cut
    <= 2^32, else 0. Masked to that draw and added to 2^32 - cut, a block
    carries into its fifth byte exactly when the draw is >= cut."""
    count = stop - start
    mask = int.from_bytes((b"\xff" * 4 + bytes(28)) * count, "little")
    add = int.from_bytes((2**32 - cut).to_bytes(32, "little") * count, "little")
    lanes = (int.from_bytes(prf_blocks(seed, start, stop), "little") & mask) + add
    return lanes.to_bytes(32 * count, "little")[4::32].translate(_NOT_BIT)


# --- generators ------------------------------------------------------------

_CHUNK = 64  # the generators hash at most 64k blocks (2^14 k-bit draws) at once


def gen_seeded_random(n: int, q: int, seed: Seed) -> SymbolString:
    """Deterministic pseudorandom string; the toolkit's stand-in for an
    incompressible string (the compression estimators cannot exploit the
    seed, though the true description length is O(|seed| + log n))."""
    if n < 0:
        raise ValueError("length must be non-negative")
    k = bits_per_symbol(q)
    # k blocks hold 256 whole draws; a draw read most significant bit first is
    # mapped back by _REVERSED[k], its own inverse, and dropped if it is >= q
    rejected = _REVERSED[k][q : 1 << k]
    parts, block, left = [], 0, n
    while left > 0:
        chunk = k * min(_CHUNK, -(-(left << k) // (256 * q)))  # the draws still needed
        draws = BitReader(prf_blocks(seed, block, block + chunk)).read_fields(256 * chunk // k, k)
        parts.append(draws.translate(_REVERSED[k], rejected)[:left])
        left, block = left - len(parts[-1]), block + chunk
    data = b"".join(parts)
    del parts  # SymbolString's check makes one more copy-sized string
    return SymbolString(q, data)


COMPUTABLE_KINDS = ("zeros", "alternating", "thue_morse", "counter")
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def gen_computable(kind: str, n: int) -> SymbolString:
    if n < 0:
        raise ValueError("length must be non-negative")
    if kind == "zeros":
        return SymbolString(2, bytes(n))
    if kind == "alternating":
        return SymbolString(2, (b"\0\1" * (n // 2 + 1))[:n])
    if kind == "thue_morse":
        out = b"\0"
        while len(out) < n:
            out += out.translate(_NOT_BIT)
        return SymbolString(2, out[:n])
    if kind == "counter":
        # the binary numerals of 1, 2, 3, ..., those of d digits at once
        text, d = "", 1
        while len(text) < n:
            text += "".join(map("{:b}".format, range(1 << d - 1, 1 << d)))
            d += 1
        return SymbolString(2, text[:n].encode().translate(_DIGITS))
    raise ValueError(f"unknown computable kind: {kind!r}")


def gen_promise_inputs(m: int, n: int, seed: Seed) -> tuple[SymbolString, SymbolString]:
    """Cyclic-promise input pair for the m-setting chained system.

    Symbols are stored 0-based; displayed value is symbol+1. For each
    position, a is uniform and b equals a or its cyclic successor, chosen
    by an independent fair bit, so the pair carries log2(m)+1 bits of
    description per position. One loop walks the stream a chunk at a time,
    as a round's length depends on its redraws."""
    if m < 2:
        raise ValueError("ring size must be >= 2")
    if n < 0:
        raise ValueError("length must be non-negative")
    k = bits_per_symbol(m)
    a, b = bytearray(n), bytearray(n)
    i = block = 0
    rest = b""  # the stream from round i on, one byte per bit
    while i < n:
        # 9/8 of the mean k * 2^k / m + 1 bits a round, at most _CHUNK * k blocks
        chunk = min(_CHUNK * k, (n - i) * (k * 2**k + m) * 9 // (2048 * m) + 1)
        bits = rest + BitReader(prf_blocks(seed, block, block + chunk)).read_fields(256 * chunk, 1)
        block += chunk
        # draw[p]: the k bits from bit p on, bit p least significant (a draw
        # cut short by the chunk's end is followed by no shift bit)
        stream = int.from_bytes(bits, "little")
        draw, pos = sum(stream >> 8 * j << j for j in range(k)).to_bytes(len(bits), "little"), 0
        try:
            for i in range(i, n):
                start = pos
                while draw[pos] >= m:
                    pos += k
                a[i] = v = draw[pos]
                b[i] = (v + bits[pos + k]) % m
                pos += k + 1
            i = n
        except IndexError:  # round i runs past the chunk: play it again with the next
            rest = bits[start:]
    a, b = bytes(a), bytes(b)
    return SymbolString(m, a), SymbolString(m, b)


# --- pointwise operations --------------------------------------------------

def pointwise_product(a: SymbolString, b: SymbolString) -> SymbolString:
    if a.q != 2 or b.q != 2:
        raise ValueError("pointwise_product requires binary strings")
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} != {b.n}")
    return SymbolString(2, bytes(x & y for x, y in zip(a.data, b.data)))


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
        fh.write(pack_symbols(s.data, s.q))


def read_syms(path) -> SymbolString:
    """The string write_syms wrote: its header line must be byte for byte
    the one write_syms writes for that q and n."""
    with open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    try:
        q, n = map(int, header.removeprefix(b"SYMS q=").split(b" n="))
    except ValueError:
        q = n = -1
    if header != b"SYMS q=%d n=%d\n" % (q, n) or not 2 <= q <= 256 or n < 0:
        raise FormatError(f"bad .syms header: {header!r}")
    return SymbolString(q, unpack_symbols(body, q, n))
