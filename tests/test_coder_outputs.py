"""Byte-identity of every built-in encoder against a recorded fixture, and
round-trip properties of the estimators.

The fixture pins (bits, sha256(blob)) for each estimator on a fixed corpus,
so any drift in the coders' output fails here, not only in the reports.
Regenerate it (only when the output is meant to change) with

    PYTHONPATH=src python tests/test_coder_outputs.py
"""
import ast
import hashlib
import inspect
import json
import math
import random
import sys
import textwrap
from pathlib import Path

import pytest
import reference_coders
from hypothesis import example, given, settings, strategies as st
from reference_coders import outcome

from nonlocality.coding import BitReader, read_uint, renormalise, shift_in, uint_len
from nonlocality.complexity import EstimateStore
from nonlocality.estimators import (
    ANCHOR,
    MODE_CODED,
    MODE_LITERAL,
    ContextEstimator,
    Estimator,
    EstimatorError,
    LZ77Estimator,
    _chain_links,
    _context_ids,
    _decode_stream,
    _digit_sum,
    _extend_match,
    _header_writer,
    _payload_floor,
    _phase_view,
    _segment,
    _window_buckets,
    default_registry,
)
from nonlocality.strings import (
    Seed,
    SymbolString,
    bits_per_symbol,
    gen_computable,
    gen_seeded_random,
    interleave,
    pack_symbols,
)

FIXTURE = Path(__file__).with_name("fixtures") / "coder_outputs.json"
ALL_IDS = ("lz78", "lz77", "ctx_0", "ctx_1", "ctx_2", "ctx_3")


def corpus() -> dict:
    """name -> (symbols, q, period)."""
    seed = Seed.from_int(2024)
    out = {
        "empty": (b"", 2, 1),
        "one": (b"\x01", 2, 1),
        "zeros": (gen_computable("zeros", 3000).data, 2, 1),
        "thue_morse": (gen_computable("thue_morse", 2048).data, 2, 1),
        "counter": (gen_computable("counter", 1500).data, 2, 1),
    }
    for q in (2, 3, 4, 8, 16):
        for period in (1, 2, 3, 4):
            s = gen_seeded_random(600, q, seed.derive(f"r{q}.{period}"))
            out[f"random_q{q}_p{period}"] = (s.data, q, period)
    # woven (a, b, a xor b): period-3 structure only a phase-keyed model sees
    a = gen_seeded_random(700, 2, seed.derive("a"))
    b = gen_seeded_random(700, 2, seed.derive("b"))
    x = SymbolString(2, bytes(u ^ v for u, v in zip(a.data, b.data)))
    out["woven_q2_p3"] = (interleave(a, b, x).data, 2, 3)
    # a block repeated three times: lz77 takes long matches
    block = gen_seeded_random(400, 4, seed.derive("block")).data
    out["repeat_q4"] = (block * 3, 4, 1)
    # skewed binary source: one symbol runs far past the model's rescale
    # point (512 increments in one context) and coded mode wins
    rng = random.Random(7)
    out["skewed_q2"] = (bytes(int(rng.random() < 0.03) for _ in range(4000)), 2, 1)
    # probabilities near 1/2 keep the interval straddling the midpoint, which
    # builds long pending-bit (carry) runs
    rng = random.Random(11)
    out["near_half_q2_p2"] = (bytes(int(rng.random() < 0.48) for _ in range(3000)), 2, 2)
    return out


def outputs() -> dict:
    reg = default_registry()
    table = {}
    for name, (symbols, q, period) in corpus().items():
        for est_id in ALL_IDS:
            bits, blob = reg[est_id].encode(symbols, q, period)
            table[f"{est_id}/{name}"] = [bits, hashlib.sha256(blob).hexdigest()]
    return table


def test_encoders_match_recorded_outputs():
    expected = json.loads(FIXTURE.read_text())
    got = outputs()
    assert sorted(got) == sorted(expected)
    drift = {k: (got[k], expected[k]) for k in got if got[k] != expected[k]}
    assert not drift


def test_fixture_corpus_round_trips():
    reg = default_registry()
    for symbols, q, period in corpus().values():
        for est_id in ALL_IDS:
            _, blob = reg[est_id].encode(symbols, q, period)
            assert reg[est_id].decode(blob) == (q, symbols)


def literal_len(q: int, n: int, period: int) -> int:
    return uint_len(q - 2) + uint_len(n) + uint_len(period - 1) + 1 + n * bits_per_symbol(q)


@st.composite
def strings(draw):
    q = draw(st.sampled_from((2, 3, 4, 8, 16)))
    period = draw(st.integers(1, 4))
    n = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(("uniform", "skewed", "repeat")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "uniform":
        data = bytes(rng.randrange(q) for _ in range(n))
    elif kind == "skewed":
        data = bytes(0 if rng.random() < 0.9 else rng.randrange(q) for _ in range(n))
    else:
        block = bytes(rng.randrange(q) for _ in range(rng.randint(1, 40)))
        data = (block * (n // len(block) + 1))[:n]
    return data, q, period


@pytest.mark.parametrize("est_id", ALL_IDS)
@given(case=strings())
@settings(max_examples=40, deadline=None)
def test_encode_properties(est_id, case):
    symbols, q, period = case
    est = default_registry()[est_id]
    bits, blob = est.encode(symbols, q, period)
    assert est.decode(blob) == (q, symbols)
    assert len(blob) == math.ceil(bits / 8)
    literal = literal_len(q, len(symbols), period)
    assert bits <= literal
    r = BitReader(blob)
    for _ in range(3):
        read_uint(r)
    if r.read_bit() == MODE_LITERAL:
        assert bits == literal


# (q, period) on both sides of 256 context ids, where the encoders read
# the ids from one byte string or number the contexts in the order they
# first occur: (q+1)^2 for lz77 at q = 15 and 16, period * 5^3 for ctx_3
# at q = 4, period * 9^2 for ctx_2 at q = 8
LAYOUTS = ((15, 1), (16, 1), (4, 2), (4, 3), (8, 3), (8, 4))


def layout_case(q: int, period: int, ending_match: bool) -> tuple:
    """A skewed string, so that every model codes it, or a random block
    and its repeats, where lz77 codes one match that runs to the end."""
    rng = random.Random(q * 10 + period)
    if ending_match:
        block = bytes(rng.randrange(q) for _ in range(300))
        return block * 4, q, period
    return bytes(0 if rng.random() < 0.9 else rng.randrange(q) for _ in range(2000)), q, period


def _with_layout_examples(test):
    for q, period in LAYOUTS:
        for ending_match in (False, True):
            test = example(case=layout_case(q, period, ending_match))(test)
    for seed in SPENT_SEEDS:
        test = example(case=literal_heavy_case(seed))(test)
    return test


def literal_heavy(rng: random.Random, q: int, n: int) -> bytes:
    """Mostly literals (uniform, or half or 80 % zeros), with 3-20 copies of
    16-40 earlier symbols from at most 64, 512 or 4096 back: many matches
    sit near lz77's cost test, where the bits that literal flags emit,
    counted in `spent`, move the running literal cost and so the parse."""
    skew = rng.choice((0, 0.5, 0.8))
    rate = rng.randint(3, 20) / max(n, 1)
    out = bytearray()
    while len(out) < n:
        if len(out) > 100 and rng.random() < rate:
            length = rng.randint(16, 40)
            start = len(out) - rng.randint(length, min(len(out), rng.choice((64, 512, 4096))))
            for k in range(length):
                out.append(out[start + k])
        else:
            out.append(0 if rng.random() < skew else rng.randrange(q))
    return bytes(out[:n])


def literal_heavy_case(seed: int) -> tuple:
    rng = random.Random(seed)
    q = rng.choice((2, 3, 4))
    return literal_heavy(rng, q, rng.randint(300, 2500)), q, rng.randint(1, 4)


# literal-heavy strings (15-20 % of their symbols matched) whose lz77
# parse changes if the literal flags' bits are left out of `spent`
SPENT_SEEDS = (8, 90, 170)


@st.composite
def reference_cases(draw):
    """Longer strings than strings(): rescales, long matches past the first
    windows of _extend_match,
    near-miss copies that the match finder must rank, woven binary
    strings (a, b, a xor b) where about one position in six has more than
    MAX_CHAIN earlier candidates at n = 2500, literal-heavy strings with
    copies near the cost test, and the LAYOUTS."""
    q, period = draw(
        st.sampled_from(LAYOUTS) | st.tuples(st.sampled_from((2, 3, 4, 8, 16)), st.integers(1, 4))
    )
    kind = draw(
        st.sampled_from(("uniform", "skewed", "repeat", "near_repeat", "woven", "literal_heavy"))
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(0, 64) if draw(st.booleans()) else rng.randint(300, 2500)
    if kind == "literal_heavy":
        data = literal_heavy(rng, q, n)
    elif kind == "uniform":
        data = bytes(rng.randrange(q) for _ in range(n))
    elif kind == "skewed":
        data = bytes(0 if rng.random() < 0.97 else rng.randrange(q) for _ in range(n))
    elif kind in ("repeat", "near_repeat"):
        block = bytes(rng.randrange(q) for _ in range(rng.randint(1, 200)))
        data = bytearray((block * (n // len(block) + 1))[:n])
        if kind == "near_repeat":
            for _ in range(rng.randint(1, 20) if n else 0):
                data[rng.randrange(n)] = rng.randrange(q)
        data = bytes(data)
    else:
        q, period = 2, 3
        m = n // 3
        a = [int(rng.random() < 0.3) for _ in range(m)]
        b = [int(rng.random() < 0.1) for _ in range(m)]
        data = bytes(v for u, w in zip(a, b) for v in (u, w, u ^ w))
    return data, q, period


@pytest.mark.parametrize("est_id", ALL_IDS)
@given(case=reference_cases())
@_with_layout_examples
@settings(max_examples=60, deadline=None)
def test_fused_loops_match_the_method_call_reference(est_id, case):
    _check_against_the_reference(est_id, *case)


def _check_against_the_reference(est_id: str, symbols: bytes, q: int, period: int) -> None:
    est = default_registry()[est_id]
    bits, blob = est.encode(symbols, q, period)
    assert est.decode(blob) == (q, symbols)
    assert (bits, blob) == reference_coders.encode(est_id, symbols, q, period)
    # lz78's decoder has no reference
    if est_id in reference_coders.FUSED_IDS:
        assert reference_coders.decode(est_id, blob) == (q, symbols)


def reach_cases() -> dict:
    """name -> (symbols, q, period, estimator ids): strings that reach
    statements of the fused loops which the fixture corpus never runs.

    - halving_q8: 4,096 random symbols, then 700 copies of 24-symbol slices
      of them, so about 512 match flags pass with no halving between: the
      lz77 match branch halves the flag counts (38,079 bits coded, 62,724
      literal).
    - sparse_q2: 3 % random symbols among zeros. An lz77 literal flag,
      coded where matches are likely, can leave high below half with low
      above a quarter, so the next doubling finds low past half.
    - period_300: random binary symbols at a period above 256, where the
      phases are an iterator and the contexts are numbered as they first
      occur."""
    seed = Seed.from_int(2024)
    base = gen_seeded_random(4096, 8, seed.derive("halving")).data
    rng = random.Random(8)
    halving = bytearray(base)
    for _ in range(700):
        start = rng.randrange(len(base) - 24)
        halving += base[start : start + 24]
    rng = random.Random(1)
    sparse = bytes(0 if rng.random() < 0.97 else rng.randrange(2) for _ in range(2000))
    period_300 = gen_seeded_random(3000, 2, seed.derive("p300")).data
    return {
        "halving_q8": (bytes(halving), 8, 1, ("lz77",)),
        "sparse_q2": (sparse, 2, 1, ("lz77",)),
        "period_300": (period_300, 2, 300, ("lz77", "ctx_1", "ctx_2")),
    }


REACH_CASES = reach_cases()


@pytest.mark.parametrize(
    "name, est_id", [(name, est_id) for name, case in REACH_CASES.items() for est_id in case[3]]
)
def test_reach_cases_match_the_reference(name, est_id):
    _check_against_the_reference(est_id, *REACH_CASES[name][:3])


# the fused coder loops and the helpers they call: the context ids they
# read, lz77's match index and match extension, ctx_k's literal floor and
# its segment search, and the one decoding loop both decoders call
HELPERS = (
    _context_ids,
    _phase_view,
    _digit_sum,
    _chain_links,
    _window_buckets,
    _extend_match,
    _payload_floor,
    _segment,
    _decode_stream,
    renormalise,
    shift_in,
)
REACHED = (
    LZ77Estimator.encode,
    LZ77Estimator._decode_payload,
    ContextEstimator.encode,
    ContextEstimator._decode_payload,
    *HELPERS,
)


def _statement_lines(fn) -> set:
    """The first line of each statement in fn's body but its docstring and
    its raises."""
    source, first = inspect.getsourcelines(fn)
    node = ast.parse(textwrap.dedent("".join(source))).body[0]
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return {
        first + stmt.lineno - 1
        for top in body
        for stmt in ast.walk(top)
        if isinstance(stmt, ast.stmt) and not isinstance(stmt, ast.Raise)
    }


def test_named_cases_run_every_statement_of_the_fused_loops():
    # a statement that no named case runs is compared with the reference
    # only when Hypothesis happens to draw a string that reaches it. Each
    # case is encoded twice through a store (the second encode resumes)
    # and decoded. A function is no longer traced, and an estimator no
    # longer run, once all their statements have run, so the reach cases
    # go first
    missing = {fn.__code__: _statement_lines(fn) for fn in REACHED}

    def trace(frame, event, arg):
        lines = missing.get(frame.f_code)
        if not lines:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.discard(frame.f_lineno)
            return line

        return line

    def pending(est) -> bool:
        fns = (type(est).encode, type(est)._decode_payload, *HELPERS)
        return any(missing[fn.__code__] for fn in fns)

    everyone = reference_coders.FUSED_IDS
    cases = [
        *REACH_CASES.values(),
        *((*literal_heavy_case(seed), everyone) for seed in SPENT_SEEDS),
        *((*case, everyone) for case in corpus().values()),
    ]
    reg = default_registry()
    before = sys.gettrace()
    sys.settrace(trace)
    try:
        for symbols, q, period, est_ids in cases:
            for est in filter(pending, map(reg.get, est_ids)):
                store = EstimateStore()
                bits, blob = est.encode(symbols, q, period, resume=store)
                assert est.encode(symbols, q, period, resume=store) == (bits, blob)
                assert est.decode(blob) == (q, symbols)
    finally:
        sys.settrace(before)
    unreached = {fn.__qualname__: sorted(missing[fn.__code__]) for fn in REACHED}
    assert {name: lines for name, lines in unreached.items() if lines} == {}


LZ78_QS = (2, 3, 4, 8, 16, 256)


def lz78_string(kind: str, q: int, n: int, seed: int) -> bytes:
    rng = random.Random(seed)
    if kind == "uniform":
        return rng.randbytes(n).translate(bytes(v % q for v in range(256)))
    if kind == "skewed":
        return bytes(0 if rng.random() < 0.9 else rng.randrange(q) for _ in range(n))
    if kind == "repeat":
        block = bytes(rng.randrange(q) for _ in range(rng.randint(1, 300)))
        return (block * (n // len(block) + 1))[:n]
    # Thue-Morse over q symbols: the digit sum of i in base q, mod q
    out = bytearray(n)
    for i in range(n):
        v, s = i, 0
        while v:
            v, d = divmod(v, q)
            s += d
        out[i] = s % q
    return bytes(out)


def _lz78_entries(symbols: bytes, q: int) -> tuple[int, int]:
    """(entries under one-byte nodes, deeper entries) of the LZW parse."""
    data = pack_symbols(symbols, q)
    trie: dict = {}
    node = data[0] if data else 0
    for c in data[1:]:
        nxt = trie.get((node, c))
        if nxt is None:
            trie[(node, c)] = 256 + len(trie)
            node = c
        else:
            node = nxt
    shallow = sum(parent < 256 for parent, _ in trie)
    return shallow, len(trie) - shallow


# name -> (kind, q, n, seed). The packed bytes of uniform q = 8 and q = 256
# strings hold no structure, so the coded bits reach the literal length
# inside the parse and the encode leaves early; a q = 256 symbol or 8
# binary symbols pack to one byte, whose one 8-bit code ties with the
# literal, which the encode must then pick, as _pick does (an exit on `>`
# returns the coded blob there; inside the parse `>` and `>=` agree, since
# later codes add bits); a repeated block and Thue-Morse code below the literal length,
# the block with most entries under nodes deeper than one byte
LZ78_CASES = {
    "exit_q8": ("uniform", 8, 3 << 14, 1),
    "exit_q256": ("uniform", 256, 5000, 2),
    "tie_q256": ("uniform", 256, 1, 3),
    "tie_q2": ("uniform", 2, 8, 4),
    "deep_q4": ("repeat", 4, 3 << 14, 5),
    "coded_thue_morse_q3": ("thue_morse", 3, 3 << 14, 0),
}


def _reference_lz78_coded_bits(symbols: bytes, q: int) -> int:
    """The bit count of the tuple trie's whole coded stream, header
    included: what it hands to _pick."""
    seen = []
    pick = Estimator._pick

    def spy(self, symbols, q, period, coded):
        seen.append(coded.bit_count)
        return pick(self, symbols, q, period, coded)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Estimator, "_pick", spy)
        reference_coders.lz78_encode(symbols, q)
    return seen[0]


def test_lz78_cases_reach_each_regime():
    for name, (kind, q, n, seed) in LZ78_CASES.items():
        symbols = lz78_string(kind, q, n, seed)
        coded = _reference_lz78_coded_bits(symbols, q)
        literal = literal_len(q, n, 1)
        if name.startswith("exit"):
            # past the literal length by more than the last code's 16 bits:
            # the exit fires inside the parse
            assert coded > literal + 16, name
        elif name.startswith("tie"):
            assert coded == literal, name
        else:
            assert coded < literal, name
        shallow, deeper = _lz78_entries(symbols, q)
        if name.startswith("deep"):
            assert deeper > 10 * shallow, (shallow, deeper)


@st.composite
def lz78_cases(draw):
    q = draw(st.sampled_from(LZ78_QS))
    n = draw(st.integers(0, 3) | st.integers(4, 3 << 14))
    kind = draw(st.sampled_from(("uniform", "skewed", "repeat", "thue_morse")))
    return lz78_string(kind, q, n, draw(st.integers(0, 2**32))), q, draw(st.integers(1, 4))


def _with_lz78_examples(test):
    for kind, q, n, seed in LZ78_CASES.values():
        test = example(case=(lz78_string(kind, q, n, seed), q, 1))(test)
    return test


@given(case=lz78_cases())
@_with_lz78_examples
@settings(max_examples=60, deadline=None)
def test_lz78_encode_equals_the_tuple_trie(case):
    # the flat child table and the early literal exit give the bits and
    # the blob of the tuple-keyed trie run to the end of the string
    symbols, q, period = case
    got = default_registry()["lz78"].encode(symbols, q, period)
    assert got == reference_coders.lz78_encode(symbols, q, period)


def long_match_cases() -> dict:
    """name -> (symbols, q, period, unit): one literal run of `unit` symbols,
    then a single match to the end, whose length code alone is 33 bits, so
    the match token outruns the coder's 32-bit register."""
    block = gen_seeded_random(48, 4, Seed.from_int(2024).derive("long")).data
    repeated = block * ((1 << 16) // len(block) + 3)
    return {
        "zeros_2^17": (bytes(1 << 17), 2, 1, 1),
        "repeat_q4_p1": (repeated, 4, 1, len(block)),
        "repeat_q4_p3": (repeated, 4, 3, len(block)),
    }


LONG_MATCH = long_match_cases()


@pytest.mark.parametrize("name", sorted(LONG_MATCH))
def test_long_match_codes_match_the_reference(name):
    symbols, q, period, unit = LONG_MATCH[name]
    length_code = uint_len(len(symbols) - unit - ANCHOR)
    assert length_code > 32
    est = default_registry()["lz77"]
    bits, blob = est.encode(symbols, q, period)
    # the literals, one flag per token and the match code: one match it is
    assert bits < literal_len(q, unit, period) + 2 * unit + uint_len(unit - 1) + length_code + 40
    assert (bits, blob) == reference_coders.encode("lz77", symbols, q, period)
    assert est.decode(blob) == (q, symbols)
    assert reference_coders.decode("lz77", blob) == (q, symbols)


def _token_start(monkeypatch, symbols: bytes, q: int, period: int, unit: int) -> int:
    """The byte of the blob where the match token's bits start: the
    reference coder's output length when it codes the match flag, the call
    after the `unit` literals' flag and symbol calls."""
    starts = []

    class Recording(reference_coders.ArithmeticEncoder):
        def encode(self, cum_lo, cum_hi, total):
            starts.append(len(self._out))
            return super().encode(cum_lo, cum_hi, total)

    monkeypatch.setattr(reference_coders, "ArithmeticEncoder", Recording)
    reference_coders.encode("lz77", symbols, q, period)
    return starts[2 * unit] // 8


@pytest.mark.parametrize("name", sorted(LONG_MATCH))
def test_cut_long_match_blobs_decode_like_the_reference(name, monkeypatch):
    # every cut inside the bytes of the match token (its flag, its two gamma
    # codes and the flush, to the blob's end): the bits past the cut read
    # as zeros on both sides, and both refuse a read too far past the end
    symbols, q, period, unit = LONG_MATCH[name]
    est = default_registry()["lz77"]
    _, blob = est.encode(symbols, q, period)
    start = _token_start(monkeypatch, symbols, q, period, unit)
    assert len(blob) - start > 4
    for cut in range(start, len(blob)):
        got = outcome(est.decode, blob[:cut])
        assert got == outcome(lambda b: reference_coders.decode("lz77", b), blob[:cut]), cut


def _mostly_ones(n: int) -> bytes:
    rng = random.Random(5)
    return bytes(int(rng.random() < 0.9) for _ in range(n))


# (estimator, string, tenths of the blob kept): every ctx_k codes the first
# string, whose rare symbol 0 is what the zeros read past a cut decode to,
# at a cost in bits that soon passes the blob's end by more than 30. The
# second is 2^15 Thue-Morse symbols under ctx_2 (2,741 bytes) cut to 822
# bytes, which decoded without the guard to 32,768 symbols, wrong from
# symbol 9,774 on
CUT_CTX_CASES = [
    pytest.param(f"ctx_{k}", _mostly_ones(4096), range(1, 10), id=f"ctx_{k}-mostly_ones")
    for k in range(4)
] + [
    pytest.param(
        "ctx_2", gen_computable("thue_morse", 1 << 15).data, None, id="ctx_2-thue_morse_2^15"
    )
]


@pytest.mark.parametrize("est_id, symbols, tenths", CUT_CTX_CASES)
def test_cut_ctx_blobs_are_refused_like_the_reference(est_id, symbols, tenths):
    est = default_registry()[est_id]
    bits, blob = est.encode(symbols, 2)
    assert bits < literal_len(2, len(symbols), 1)  # coded
    cuts = [len(blob) * t // 10 for t in tenths] if tenths else [822]
    for cut in cuts:
        got = outcome(est.decode, blob[:cut])
        assert got is EstimatorError, cut
        assert got == outcome(lambda b: reference_coders.decode(est_id, b), blob[:cut]), cut


@pytest.mark.parametrize("est_id", reference_coders.FUSED_IDS)
@pytest.mark.parametrize("q", (2, 3, 5, 16, 256))
def test_a_value_on_a_split_point_decodes_as_the_symbol_above(est_id, q):
    # one coded symbol, whose stream's first 32 bits (after lz77's literal
    # flag, whose split is 2^31) are the fresh table's split point below
    # symbol s, s * 2^32 // q: the decoder's value sits exactly on it
    est = default_registry()[est_id]
    for s in (1, q - 1):
        w = _header_writer(q, 1, 1, MODE_CODED)
        w.buf += (b"0" if est_id == "lz77" else b"") + format(s * (1 << 32) // q, "032b").encode()
        w.buf += b"0" * 64
        blob = w.getvalue()
        assert est.decode(blob) == (q, bytes([s]))
        assert reference_coders.decode(est_id, blob) == (q, bytes([s]))
    if est_id == "lz77":
        # a flag on its split is a match, whose gamma codes then read only
        # zeros: more than a gamma code may hold
        w = _header_writer(q, 1, 1, MODE_CODED)
        w.buf += b"1" + b"0" * 95
        blob = w.getvalue()
        assert outcome(est.decode, blob) is ValueError
        assert outcome(lambda b: reference_coders.decode(est_id, b), blob) is ValueError


@st.composite
def damaged_blobs(draw, est_id: str):
    """(blob, expected): est_id's blob of a drawn string, with expected its
    (q, symbols); or that blob cut at a drawn bit, or with drawn bytes
    corrupted, and expected None."""
    q = draw(st.sampled_from((*range(2, 17), 256)))
    period = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("uniform", "skewed", "repeat", "woven")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(0, 16) if draw(st.booleans()) else rng.randint(17, 600)
    if kind == "uniform":
        data = bytes(rng.randrange(q) for _ in range(n))
    elif kind == "skewed":
        data = bytes(0 if rng.random() < 0.9 else rng.randrange(q) for _ in range(n))
    elif kind == "repeat":
        block = bytes(rng.randrange(q) for _ in range(rng.randint(1, 100)))
        data = (block * (n // len(block) + 1))[:n]
    else:
        q, period = 2, 3
        a = [int(rng.random() < 0.3) for _ in range(n // 3)]
        b = [int(rng.random() < 0.1) for _ in range(n // 3)]
        data = bytes(v for u, w in zip(a, b) for v in (u, w, u ^ w))
    _, blob = default_registry()[est_id].encode(data, q, period)
    damage = draw(st.sampled_from(("none", "cut", "corrupt")))
    if damage == "none":
        return blob, (q, data)
    if damage == "cut":
        cut = draw(st.integers(0, 8 * len(blob) - 1))
        kept = bytes([blob[cut // 8] & ((1 << cut % 8) - 1)]) if cut % 8 else b""
        return blob[: cut // 8] + kept, None
    damaged = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        damaged[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    return bytes(damaged), None


@pytest.mark.parametrize("est_id", reference_coders.FUSED_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_decoders_match_the_reference_on_honest_cut_and_corrupt_blobs(est_id, data):
    blob, expected = data.draw(damaged_blobs(est_id))
    got = outcome(default_registry()[est_id].decode, blob)
    assert got == outcome(lambda b: reference_coders.decode(est_id, b), blob)
    if expected is not None:
        assert got == expected


def test_extend_match_agrees_with_a_symbol_by_symbol_scan():
    # one period-p string with a single changed symbol at every distance d
    # from i: the extension must stop exactly there, wherever it falls in
    # the doubling windows and whichever bit of the symbol differs (bit 0 of
    # binary symbols, or any bit of a byte-wide one)
    rng = random.Random(4)
    for q, flips in ((2, (1,)), (256, (1, 0x10, 0x80, 0xFF))):
        for period in (1, 37, 300):
            block = bytes(rng.randrange(q) for _ in range(period))
            base = block * (700 // period + 2)
            i = period
            for d in range(0, 600):
                for flip in flips:
                    s = bytearray(base)
                    s[i + d] ^= flip
                    s = bytes(s)
                    for start in (0, 16):
                        expect = min(start, d)
                        while i + expect < len(s) and s[expect] == s[i + expect]:
                            expect += 1
                        got = _extend_match(s, 0, i, len(s), min(start, d))
                        assert got == expect == d, (q, period, d, flip, start)


LINK_QS = (2, 3, 4, 8, 16, 256)


@st.composite
def link_cases(draw):
    """Strings around the first windows (n near ANCHOR and 2*ANCHOR) and up
    to 3000 symbols: uniform, skewed (few distinct windows, many repeats),
    a repeated block, and woven (a, b, a + b mod q) with skewed a and b."""
    q = draw(st.sampled_from(LINK_QS))
    n = draw(st.sampled_from((0, 1, 15, 16, 17, 31, 32)) | st.integers(0, 3000))
    kind = draw(st.sampled_from(("uniform", "skewed", "repeat", "woven")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "uniform":
        data = bytes(rng.randrange(q) for _ in range(n))
    elif kind == "skewed":
        data = bytes(0 if rng.random() < 0.9 else rng.randrange(q) for _ in range(n))
    elif kind == "repeat":
        block = bytes(rng.randrange(q) for _ in range(rng.randint(1, 300)))
        data = (block * (n // len(block) + 1))[:n]
    else:
        a = [0 if rng.random() < 0.7 else rng.randrange(q) for _ in range(n // 3 + 1)]
        b = [0 if rng.random() < 0.9 else rng.randrange(q) for _ in range(n // 3 + 1)]
        data = bytes(v for u, w in zip(a, b) for v in (u, w, (u + w) % q))[:n]
    return data, q


@given(case=link_cases())
@settings(max_examples=200, deadline=None)
def test_chain_links_equal_the_dict_of_slices(case):
    symbols, q = case
    assert list(_chain_links(symbols, q)) == reference_coders._chain_links(symbols)


def colliding_windows(q: int) -> tuple:
    """Two different windows of ANCHOR symbols in one bucket of
    _chain_links, found among the windows of a random string."""
    rng = random.Random(q)
    data = bytes(rng.randrange(q) for _ in range(4000))
    _, buckets = _window_buckets(data, q)
    seen: dict = {}
    for p in range(len(data) - ANCHOR + 1):
        window = data[p : p + ANCHOR]
        other = seen.setdefault(tuple(buckets[2 * p : 2 * p + 2]), window)
        if other != window:
            return other, window
    raise AssertionError(f"no two windows share a bucket at q = {q}")


@pytest.mark.parametrize("q", LINK_QS[1:])
def test_chain_links_skip_a_window_of_another_bucket_mate(q):
    # a, b, a, b: each later window's bucket link is the other window, so
    # the exact links (32 -> 0, 48 -> 16) skip one bucket mate each
    a, b = colliding_windows(q)
    symbols = a + b + a + b
    _, buckets = _window_buckets(symbols, q)
    assert a != b and buckets[0:2] == buckets[32:34]
    prev = list(_chain_links(symbols, q))
    assert prev == reference_coders._chain_links(symbols)
    assert (prev[16], prev[32], prev[48]) == (-1, 0, 16)
    # the two windows again after copies of a block, whose windows link
    # exactly, each to the copy before
    block = bytes(random.Random(q + 1).randrange(q) for _ in range(100))
    symbols = block + a + block + b + block + a + b + a
    assert list(_chain_links(symbols, q)) == reference_coders._chain_links(symbols)


def _buckets_of(windows: list, q: int) -> list:
    """The bucket of each window of ANCHOR symbols, from one call on them
    joined."""
    _, buckets = _window_buckets(b"".join(windows), q)
    return [bytes(buckets[2 * p : 2 * p + 2]) for p in range(0, ANCHOR * len(windows), ANCHOR)]


def _bucket_link(symbols: bytes, q: int, p: int) -> int:
    """The last position before p whose window has p's bucket, or -1."""
    _, buckets = _window_buckets(symbols, q)
    mine = buckets[2 * p : 2 * p + 2]
    return max((j for j in range(p) if buckets[2 * j : 2 * j + 2] == mine), default=-1)


def bucket_mates(window: bytes, q: int, count: int) -> list:
    """count different windows of ANCHOR symbols, none equal to window, in
    window's bucket, found among the windows of random strings."""
    want = _buckets_of([window], q)[0]
    rng = random.Random(q)
    mates: list = []
    while True:
        data = rng.randbytes(1 << 16).translate(bytes(v % q for v in range(256)))
        _, buckets = _window_buckets(data, q)
        i = buckets.find(want)
        while i >= 0:
            mate = data[i // 2 : i // 2 + ANCHOR]
            if i % 2 == 0 and mate != window and mate not in mates:
                mates.append(mate)
                if len(mates) == count:
                    return mates
            i = buckets.find(want, i + 1)


def shifted_bucket_mates(q: int) -> tuple:
    """Windows a and b of ANCHOR symbols in one bucket, b[:14] == a[1:15]
    and b[14] != a[15]: a 14-symbol core with each pair of ends, drawn
    until a pair of its windows collides."""
    rng = random.Random(q)
    r = min(q, 16)
    ends = [bytes((u, v)) for u in range(r) for v in range(r)]
    while True:
        core = bytes(rng.randrange(q) for _ in range(ANCHOR - 2))
        lefts = [e[:1] + core + e[1:] for e in ends]
        rights = [core + e for e in ends]
        seen = dict(zip(_buckets_of(lefts, q), lefts))
        for b, bucket in zip(rights, _buckets_of(rights, q)):
            a = seen.get(bucket)
            if a is not None and b[14] != a[15]:
                return a, b


@pytest.mark.parametrize("q", LINK_QS[1:])
def test_chain_links_forget_the_exact_link_after_a_failed_walk(q):
    # c + a[:15] twice: the copy at p - 1 links exactly to the one at e.
    # Window p, a[:15] + b[14], differs from a (at e + 1) in its last
    # symbol, occurs nowhere before and shares a bucket with `mate`, so its
    # walk runs and finds nothing. Window p + 1 is b: its bucket link e + 1
    # is one past e but false, so a loop that still holds e after the
    # failed walk takes it unchecked
    a, b = shifted_bucket_mates(q)
    (mate,) = bucket_mates(a[:15] + b[14:15], q, 1)
    c = bytes([1])
    symbols = mate + c + a + c + c + a[:15] + b[14:]
    e, p = len(mate), len(symbols) - ANCHOR - 1
    assert symbols[p + 1 :] == b and symbols[e + 1 : e + 1 + ANCHOR] == a
    ref = reference_coders._chain_links(symbols)
    assert ref[p - 1] == e
    assert _bucket_link(symbols, q, p) >= 0 and ref[p] == -1
    assert _bucket_link(symbols, q, p + 1) == e + 1 != ref[p + 1]
    assert list(_chain_links(symbols, q)) == ref


@pytest.mark.parametrize("q", LINK_QS[1:])
def test_chain_links_walk_past_two_bucket_mates(q):
    # w, two other windows of its bucket, then w again, after a window with
    # no exact link: the walk from w's bucket link passes both mates (and
    # any window across the joins that lands in the bucket too)
    w = bytes(random.Random(q + 2).randrange(q) for _ in range(ANCHOR))
    first, second = bucket_mates(w, q, 2)
    c = bytes([1])
    symbols = w + c + first + c + second + c + w
    step = ANCHOR + 1
    p = 3 * step
    ref = reference_coders._chain_links(symbols)
    assert ref[p - 1] == -1 and ref[p] == 0
    assert _bucket_link(symbols, q, p) == 2 * step
    assert _bucket_link(symbols, q, 2 * step) == step
    assert list(_chain_links(symbols, q)) == ref


def _skewed(q: int, zeros: float, n: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(0 if rng.random() < zeros else rng.randrange(q) for _ in range(n))


def _repeated(q: int, block: int, n: int, seed: int) -> bytes:
    return (bytes(random.Random(seed).choices(range(q), k=block)) * (n // block + 1))[:n]


# 2^15 symbols on which the bucketed index builds slowest against the dict
# of slices: skewed strings, whose frequent windows share buckets with
# rarer ones, so that many links are walked, and a random block repeated,
# whose windows nearly all link
SLOW_SHAPES = {
    "zeros80_q3": lambda: (_skewed(3, 0.8, 1 << 15, 3), 3),
    "zeros80_q8": lambda: (_skewed(8, 0.8, 1 << 15, 8), 8),
    "zeros95_q256": lambda: (_skewed(256, 0.95, 1 << 15, 256), 256),
    "block3000_q3": lambda: (_repeated(3, 3000, 1 << 15, 30), 3),
}


@pytest.mark.parametrize("name", SLOW_SHAPES)
def test_chain_links_on_the_slow_shapes(name):
    symbols, q = SLOW_SHAPES[name]()
    assert list(_chain_links(symbols, q)) == reference_coders._chain_links(symbols)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
