"""Compression estimators: self-delimiting encoders with matching decoders.

Every built-in estimator emits a bit stream a reference decoder inverts, so
the reported bit count is a genuine description length. Each encoding picks
the cheaper of two modes: a verbatim packed payload (so no estimate ever
exceeds n*ceil(log2 q) bits by more than the header) or the estimator's own
code.
"""
from __future__ import annotations

import shlex
import subprocess

from .coding import (
    AdaptiveModel,
    ArithmeticDecoder,
    ArithmeticEncoder,
    BitReader,
    BitWriter,
    gamma_len,
    read_gamma,
    read_uint,
    write_gamma,
    write_uint,
)
from .strings import SymbolString, bits_per_symbol, pack_symbols, unpack_symbols


class EstimatorError(RuntimeError):
    """Estimator failure (unknown name, external adapter error)."""


MODE_LITERAL = 0
MODE_CODED = 1


def _header_writer(q: int, n: int, period: int, mode: int) -> BitWriter:
    w = BitWriter()
    write_uint(w, q - 2)
    write_uint(w, n)
    write_uint(w, period - 1)
    w.write_bit(mode)
    return w


def _literal_writer(symbols: bytes, q: int, period: int) -> BitWriter:
    w = _header_writer(q, len(symbols), period, MODE_LITERAL)
    bps = bits_per_symbol(q)
    for s in symbols:
        w.write_bits(s, bps)
    return w


class Estimator:
    """Interface: encode returns (exact bit count, byte blob).

    `period` marks a periodic track structure in the input (used for
    position-interleaved joint strings): context models key on the
    position phase so symbols playing different roles never share
    statistics. It is recorded in the header, so decoding stays
    self-contained. Estimators without context models ignore it.
    """

    estimator_id: str

    def encode(self, symbols: bytes, q: int, period: int = 1) -> tuple[int, bytes]:
        raise NotImplementedError

    def decode(self, blob: bytes) -> tuple[int, bytes]:
        r = BitReader(blob)
        q = read_uint(r) + 2
        n = read_uint(r)
        period = read_uint(r) + 1
        mode = r.read_bit()
        if mode == MODE_LITERAL:
            bps = bits_per_symbol(q)
            return q, bytes(r.read_bits(bps) for _ in range(n))
        return q, self._decode_payload(r, q, n, period)

    def _decode_payload(self, r: BitReader, q: int, n: int, period: int) -> bytes:
        raise NotImplementedError

    def _pick(
        self, symbols: bytes, q: int, period: int, coded: BitWriter
    ) -> tuple[int, bytes]:
        literal = _literal_writer(symbols, q, period)
        best = coded if coded.bit_count < literal.bit_count else literal
        return best.bit_count, best.getvalue()


class LZ78Estimator(Estimator):
    """LZW-style dictionary parse over the packed byte representation.

    Codes are emitted at the smallest width covering the current dictionary,
    which starts with the 256 single bytes.
    """

    estimator_id = "lz78"

    def encode(self, symbols: bytes, q: int, period: int = 1) -> tuple[int, bytes]:
        w = _header_writer(q, len(symbols), period, MODE_CODED)
        data = pack_symbols(symbols, q)
        if data:
            # trie: (node_code, byte) -> code
            trie: dict = {}
            size = 256
            node = data[0]
            for c in data[1:]:
                nxt = trie.get((node, c))
                if nxt is not None:
                    node = nxt
                else:
                    w.write_bits(node, max(1, (size - 1).bit_length()))
                    trie[(node, c)] = size
                    size += 1
                    node = c
            w.write_bits(node, max(1, (size - 1).bit_length()))
        return self._pick(symbols, q, period, w)

    def _decode_payload(self, r: BitReader, q: int, n: int, period: int) -> bytes:
        total = (n * bits_per_symbol(q) + 7) // 8
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


ANCHOR = 16  # minimum match length; also the hash-key width
MAX_CHAIN = 16


class LZ77Estimator(Estimator):
    """Long-range copy detection over the full window, with literals coded
    by an order-2 adaptive context model. Matches shorter than ANCHOR
    symbols are never used; the cost test keeps matches only where they
    beat literal coding."""

    estimator_id = "lz77"

    def encode(self, symbols: bytes, q: int, period: int = 1) -> tuple[int, bytes]:
        w = _header_writer(q, len(symbols), period, MODE_CODED)
        enc = ArithmeticEncoder(w)
        flag = AdaptiveModel(2)
        lit = AdaptiveModel(q)
        n = len(symbols)
        bps = bits_per_symbol(q)
        table: dict = {}
        i = 0
        qq = q + 1
        ctxspan = qq * qq
        # running average of actual literal cost: a match only pays off
        # against what the context model currently spends per symbol
        lit_bits = 0
        lit_syms = 0
        while i < n:
            best_len = 0
            best_dist = 0
            if i + ANCHOR <= n:
                key = symbols[i : i + ANCHOR]
                cands = table.get(key)
                if cands:
                    for j in cands[-MAX_CHAIN:][::-1]:
                        # overlapping matches are fine: the decoder copies
                        # symbol by symbol, so comparing source positions
                        # beyond i is exactly what it will reproduce
                        length = ANCHOR
                        while i + length < n and symbols[j + length] == symbols[i + length]:
                            length += 1
                        if length > best_len:
                            best_len = length
                            best_dist = i - j
            take = False
            if best_len:
                cost = gamma_len(best_dist) + gamma_len(best_len - ANCHOR + 1) + 2
                avg = lit_bits / lit_syms if lit_syms >= 64 else bps
                take = cost < best_len * avg
            if take:
                flag.encode(enc, 0, 1)
                write_gamma(enc, best_dist)
                write_gamma(enc, best_len - ANCHOR + 1)
                end = i + best_len
                while i < end:
                    if i + ANCHOR <= n:
                        table.setdefault(symbols[i : i + ANCHOR], []).append(i)
                    i += 1
            else:
                flag.encode(enc, 0, 0)
                p1 = symbols[i - 1] if i >= 1 else q
                p2 = symbols[i - 2] if i >= 2 else q
                before = w.bit_count
                lit.encode(enc, (i % period) * ctxspan + p2 * qq + p1, symbols[i])
                lit_bits += w.bit_count - before
                lit_syms += 1
                if i + ANCHOR <= n:
                    table.setdefault(symbols[i : i + ANCHOR], []).append(i)
                i += 1
        enc.finish()
        return self._pick(symbols, q, period, w)

    def _decode_payload(self, r: BitReader, q: int, n: int, period: int) -> bytes:
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
                if start < 0:
                    raise EstimatorError("corrupt LZ77 stream")
                for k in range(length):
                    out.append(out[start + k])
            else:
                i = len(out)
                p1 = out[i - 1] if i >= 1 else q
                p2 = out[i - 2] if i >= 2 else q
                out.append(lit.decode(dec, (i % period) * ctxspan + p2 * qq + p1))
        return bytes(out)


class ContextEstimator(Estimator):
    """Order-k adaptive arithmetic coder: each symbol is predicted from the
    previous k symbols."""

    def __init__(self, order: int) -> None:
        if not 0 <= order <= 3:
            raise ValueError("context order must be in 0..3")
        self.order = order
        self.estimator_id = f"ctx_{order}"

    def encode(self, symbols: bytes, q: int, period: int = 1) -> tuple[int, bytes]:
        w = _header_writer(q, len(symbols), period, MODE_CODED)
        enc = ArithmeticEncoder(w)
        model = AdaptiveModel(q)
        k = self.order
        qq = q + 1
        mod = qq**k if k else 1
        ctx = 0
        for _ in range(k):
            ctx = ctx * qq + q  # sentinel padding
        for i, s in enumerate(symbols):
            model.encode(enc, (i % period) * mod + ctx if k else i % period, s)
            if k:
                ctx = (ctx * qq + s) % mod
        enc.finish()
        return self._pick(symbols, q, period, w)

    def _decode_payload(self, r: BitReader, q: int, n: int, period: int) -> bytes:
        dec = ArithmeticDecoder(r)
        model = AdaptiveModel(q)
        k = self.order
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


class ExternalEstimator(Estimator):
    """Adapter for an external compressor command.

    The subject's packed payload is piped to stdin; bits are charged as
    8 * len(stdout) + 32. No reference decoder exists for external tools,
    so round-trip soundness is the tool's responsibility.
    """

    def __init__(self, name: str, cmd: str) -> None:
        self.estimator_id = f"external:{name}"
        self.cmd = cmd

    def encode(self, symbols: bytes, q: int, period: int = 1) -> tuple[int, bytes]:
        payload = pack_symbols(symbols, q)
        try:
            proc = subprocess.run(
                shlex.split(self.cmd),
                input=payload,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                check=False,
            )
        except OSError as exc:
            raise EstimatorError(f"external compressor failed to start: {exc}") from exc
        if proc.returncode != 0:
            raise EstimatorError(
                f"external compressor exited with status {proc.returncode}"
            )
        return 8 * len(proc.stdout) + 32, proc.stdout

    def decode(self, blob: bytes):  # pragma: no cover - by contract
        raise EstimatorError("external estimators have no reference decoder")


def default_registry() -> dict[str, Estimator]:
    reg: dict[str, Estimator] = {
        "lz78": LZ78Estimator(),
        "lz77": LZ77Estimator(),
    }
    for k in range(4):
        est = ContextEstimator(k)
        reg[est.estimator_id] = est
    return reg


def make_registry(external: dict[str, str] | None = None) -> dict[str, Estimator]:
    reg = default_registry()
    for name, cmd in (external or {}).items():
        est = ExternalEstimator(name, cmd)
        reg[est.estimator_id] = est
    return reg


def get_estimator(name: str, registry: dict[str, Estimator] | None = None) -> Estimator:
    reg = registry if registry is not None else default_registry()
    est = reg.get(name)
    if est is None:
        raise EstimatorError(f"unknown estimator: {name!r}")
    return est


def roundtrip_ok(est: Estimator, s: SymbolString) -> bool:
    bits, blob = est.encode(s.data, s.q)
    q, data = est.decode(blob)
    return q == s.q and data == s.data
