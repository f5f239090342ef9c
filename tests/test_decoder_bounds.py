"""What decoding costs and refuses beyond the round trip: an lz77 header
that claims far more symbols than its payload holds is refused before
anything is sized from it, the decoder's linked context states take about
the memory of one count table per context, and lz77's literal certificate
for strings where no window repeats gives the reference coder's blob.
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
