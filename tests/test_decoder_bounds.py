"""What decoding costs and refuses beyond the round trip: an lz77 header
that claims far more symbols than its payload holds is refused before
anything is sized from it, an lz77 flag whose literal would read past the
padding is refused at the flag, the decoder's linked context states take
about the memory of one count table per context, and lz77's literal
certificate for strings where no window repeats gives the reference
coder's blob.
"""
import gc
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import reference_coders

from nonlocality.coding import BitReader, read_uint
from nonlocality.complexity import EstimateStore
from nonlocality.estimators import (
    ANCHOR,
    MODE_CODED,
    MODE_LITERAL,
    EstimatorError,
    _chain_links,
    _header_writer,
    _payload_floor,
    default_registry,
)
from nonlocality.strings import bits_per_symbol, gen_computable

REFUSE = """
import sys
from nonlocality.estimators import EstimatorError, default_registry
try:
    default_registry()["lz77"].decode(sys.stdin.buffer.read())
except EstimatorError as exc:
    print("refused:", exc)
"""


def test_an_lz77_header_of_2_34_symbols_over_40_bits_is_refused_as_an_overrun():
    # 40 zero bits decode as literal flags and zeros until the reads pass
    # the blob's end. An output sized from the header's n would take 16 GiB
    # and fail with MemoryError under the 1 GiB address-space limit that
    # only the child runs with; never decode this blob without the limit
    w = _header_writer(2, 1 << 34, 1, MODE_CODED)
    w.buf += b"0" * 40

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE],
        input=w.getvalue(),
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=cap,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().startswith("refused: corrupt header or cut payload: 17179869184")


def skewed_walk(seed: int, n: int) -> bytes:
    """A random walk on 0..255 that stays put a quarter of the time and
    otherwise steps by an exponential amount of mean 24: at n = 2^11, 1,772
    distinct pairs, and ctx_2 codes it."""
    rng = random.Random(seed)
    out = bytearray()
    s = 0
    for _ in range(n):
        if rng.random() >= 0.25:
            s = (s + int(rng.expovariate(1 / 24))) % 256
        out.append(s)
    return bytes(out)


def _traced_peak(decode, blob: bytes) -> tuple:
    tracemalloc.start()
    try:
        return decode(blob), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_linked_states_take_at_most_15_percent_over_the_reference_tables():
    # the reference decoder keeps one count table per context in a dict, as
    # the keyed decoder did, and peaks within 1 % of it; each linked state
    # adds a dict of its links and its key (1.11x here, and 27.6 -> 30.7 MB
    # at n = 2^15). A list of q successor slots per state would add another
    # table's worth. n is 2^11 as tracemalloc looks up a line number for
    # each allocation it traces, which costs more the longer the function:
    # tracing the decoding loop takes about 0.5 ms a symbol at q = 256
    symbols = skewed_walk(1, 1 << 11)
    bits, blob = default_registry()["ctx_2"].encode(symbols, 256)
    assert bits < 8 * len(symbols)  # coded
    want = (256, symbols)
    got, ref_peak = _traced_peak(lambda b: reference_coders.decode("ctx_2", b), blob)
    assert got == want and ref_peak > 3 << 20  # the tables are most of it
    got, peak = _traced_peak(default_registry()["ctx_2"].decode, blob)
    assert got == want and peak <= 1.15 * ref_peak, (peak, ref_peak)


def test_a_decode_leaves_no_cycles_for_the_collector():
    # the links between states form cycles (Thue-Morse's contexts follow
    # each other round); the decoder breaks them before it returns, so its
    # states are freed at once, not at the collector's next full pass
    symbols = gen_computable("thue_morse", 1 << 12).data
    est = default_registry()["ctx_2"]
    _, blob = est.encode(symbols, 2)
    gc.collect()
    assert est.decode(blob) == (2, symbols)
    assert gc.collect() == 0


def no_repeat_string(q: int, kind: str, seed: int) -> tuple:
    """(symbols, period): uniform, which lz77 certifies literal, or a chain
    that steps up by one 70 % of the time, which stays coded; ANCHOR to
    3000 symbols, drawn again until no window of ANCHOR symbols repeats."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(ANCHOR, 3000)
        if kind == "uniform":
            symbols = bytes(rng.randrange(q) for _ in range(n))
        else:
            out = bytearray([rng.randrange(q)])
            while len(out) < n:
                out.append((out[-1] + 1) % q if rng.random() < 0.7 else rng.randrange(q))
            symbols = bytes(out)
        if max(_chain_links(symbols, q)) < 0:
            return symbols, rng.randint(1, 4)


NO_REPEAT_CASES = [
    (q, kind, seed)
    for q in (3, 4, 5, 8, 11, 16)
    for kind in ("uniform", "chain")
    for seed in range(2)
]


def _mode(blob: bytes) -> int:
    r = BitReader(blob)
    for _ in range(3):  # q - 2, n, period - 1
        read_uint(r)
    return r.read_bit()


@pytest.mark.parametrize("q, kind, seed", NO_REPEAT_CASES)
def test_lz77_without_a_repeated_window_matches_the_reference(q, kind, seed):
    symbols, period = no_repeat_string(q, kind, seed)
    est = default_registry()["lz77"]
    store = EstimateStore()
    bits, blob = est.encode(symbols, q, period, resume=store)
    assert (bits, blob) == reference_coders.encode("lz77", symbols, q, period)
    assert est.decode(blob) == (q, symbols)
    # the floor is None where the contexts do not fit its byte codes (q =
    # 16 at period 2 and up), and uniform q = 3 symbols code below the
    # literal 2 bits each; then lz77 codes and keeps its point at n - ANCHOR
    # + 1. The chains stay coded
    floor = _payload_floor(symbols, q, 2, period)
    if floor is not None and floor >= len(symbols) * bits_per_symbol(q):
        assert _mode(blob) == MODE_LITERAL and not store.points
    else:
        assert len(store.points) == 1
    if kind == "chain":
        assert _mode(blob) == MODE_CODED


def _flag_then_literal_blob() -> tuple:
    """An lz77 blob, written token by token with the reference coder, whose
    last flag and the literal after it are read from the padding past the
    blob's end and together take 35 doublings from `end`. A flag 0 costs
    most with f0 = 1 against a large f1, a literal most when its count is 1
    in a large table, and decoding zeros takes the lowest choice of each:
      * fill: 511 rounds of "1 1 s" for s = 2..129 give context (1, 1) a
        total of 2,093,440 with symbol 0 at count 1;
      * 6 more literals 1, then 4,059 matches (distance 3, length 16): f1's
        rescales halve f0 down to 1, and f1 climbs back to 15,233;
      * a match of length 15 + 2^20 ends in 20 gamma zeros, each a lowest
        choice that doubles the range, and leaves the coder at low = 0 with
        nothing pending: from its state here the payload continues in zeros
        only, so the blob ends with the last 1 and pads to a byte.
    These counts were found by a search over the fill's tail and the number
    of matches. The header claims n = 1,309,766, one more than the matches
    reach, whose field length puts `end` (the blob plus 30 bits) exactly at
    the decoder's position after the long match. Returns the blob, the
    decoder's position there, and the doublings of the flag and the
    literal."""
    q, rounds, kinds, ones, matches, n = 256, 511, 128, 6, 4059, 1_309_766
    w = _header_writer(q, n, 1, MODE_CODED)
    hdr = len(w.buf)
    enc = reference_coders.ArithmeticEncoder(w)
    flag = reference_coders.AdaptiveModel(2)
    lit = reference_coders.AdaptiveModel(q)
    out = bytearray()

    def literal(s):
        flag.encode(enc, 0, 0)
        p1 = out[-1] if out else q
        p2 = out[-2] if len(out) > 1 else q
        lit.encode(enc, p2 * (q + 1) + p1, s)
        out.append(s)

    def match(dist, length):
        flag.encode(enc, 0, 1)
        reference_coders.write_gamma(enc, dist)
        reference_coders.write_gamma(enc, length - ANCHOR + 1)
        out.extend((out[-dist:] * (length // dist + 1))[:length])

    for _ in range(rounds):
        for s in range(2, 2 + kinds):
            literal(1)
            literal(1)
            literal(s)
    for _ in range(ones):
        literal(1)
    for _ in range(matches):
        match(3, 16)
    match(3, 15 + (1 << 20))
    assert (enc._low, enc._pending, len(out) + 1) == (0, 0, n)
    pos = len(w.buf) + 32  # the decoder reads 32 bits ahead of the coder
    stream = w.buf.rstrip(b"0")
    assert len(stream) > hdr
    # the doublings of the flag 0 and of the literal 0 in context (1, 1)
    doublings = []
    for cum_hi, total in (flag.table(0)[0::2], (1, lit.table(q + 2)[q])):
        before = len(w.buf) + enc._pending
        enc.encode(0, cum_hi, total)
        doublings.append(len(w.buf) + enc._pending - before)
    w.buf = stream
    return w.getvalue(), pos, doublings


def test_a_flag_and_its_literal_read_past_the_padding_only_with_the_flag_check_gone():
    # without the overrun check after a flag, this flag leaves pos past
    # `end`, and its literal reads on to the 64 bits of padding's end: an
    # IndexError in place of the refusal. The reference decoder refuses too
    blob, pos, doublings = _flag_then_literal_blob()
    end = 8 * len(blob) + 30
    assert (pos, doublings) == (end, [14, 21])  # 35 reads from `end`: one past the padding
    with pytest.raises(EstimatorError, match="overrun the blob"):
        default_registry()["lz77"].decode(blob)
    assert reference_coders.outcome(lambda b: reference_coders.decode("lz77", b), blob) is EstimatorError
