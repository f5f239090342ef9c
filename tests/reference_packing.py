"""The .syms payload packer as per-symbol accumulator loops, the way it was
written before it went through the coding module's field packer.

Kept only as the reference strings.pack_symbols and unpack_symbols must
match byte for byte and verdict for verdict (tests/test_strings.py).
"""
from nonlocality.strings import FormatError, bits_per_symbol, packed_len


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
