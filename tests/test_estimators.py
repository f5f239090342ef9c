import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonlocality import estimators
from nonlocality.coding import BitReader, BitWriter, read_uint, write_uint
from nonlocality.estimators import (
    MODE_CODED,
    MODE_LITERAL,
    ContextEstimator,
    Estimator,
    EstimatorError,
    LZ77Estimator,
    LZ78Estimator,
    _chain_links,
    _header_writer,
    _payload_floor,
    default_registry,
    get_estimator,
)
from nonlocality.strings import (
    Seed,
    SymbolString,
    bits_per_symbol,
    gen_computable,
    gen_seeded_random,
)
import reference_coders
from reference_coders import ArithmeticEncoder, write_gamma
from traced_peak import traced_peak

ALL_IDS = ("lz78", "lz77", "ctx_0", "ctx_1", "ctx_2", "ctx_3")


def _corpus():
    seed = Seed.from_int(77)
    out = [
        SymbolString(2, b""),
        SymbolString(2, b"\x01"),
        gen_computable("zeros", 257),
        gen_computable("alternating", 300),
        gen_computable("thue_morse", 300),
        gen_computable("counter", 300),
    ]
    for q in (2, 3, 5, 16):
        out.append(gen_seeded_random(400, q, seed.derive(f"q{q}")))
    return out


@pytest.mark.parametrize("name", ALL_IDS)
def test_roundtrip_on_corpus(name):
    est = get_estimator(name)
    for s in _corpus():
        _, blob = est.encode(s.data, s.q)
        assert est.decode(blob) == (s.q, s.data), f"{name} failed on q={s.q} n={s.n}"


@pytest.mark.parametrize("name", ALL_IDS)
def test_roundtrip_with_periods(name):
    est = get_estimator(name)
    seed = Seed.from_int(78)
    for q in (2, 3):
        s = gen_seeded_random(300, q, seed.derive(f"{q}"))
        for period in (1, 2, 3, 4):
            bits, blob = est.encode(s.data, s.q, period)
            assert est.decode(blob) == (s.q, s.data)
            assert bits >= len(blob) * 8 - 7 or bits <= len(blob) * 8


def test_structured_strings_compress():
    zeros = gen_computable("zeros", 4096)
    rand = gen_seeded_random(4096, 2, Seed.from_int(5))
    for name in ALL_IDS:
        est = get_estimator(name)
        bz, _ = est.encode(zeros.data, 2)
        br, _ = est.encode(rand.data, 2)
        assert bz / 4096 < 0.2, name
        assert br / 4096 > 0.9, name
        # literal fallback keeps even adversarial inputs near one bit/symbol
        assert br / 4096 < 1.1, name


def test_unknown_estimator_rejected():
    with pytest.raises(EstimatorError):
        get_estimator("nope")


def test_corrupt_lz77_match_gamma_is_rejected_like_a_header_gamma():
    # header (q=2, n=64, period=1, coded) then a match flag followed by a
    # run of zeros longer than any gamma code allows
    w = BitWriter()
    for v in (0, 64, 0):
        write_uint(w, v)
    w.write_bit(1)
    enc = ArithmeticEncoder(w)
    enc.encode(1, 2, 2)  # flag 1 (a match) at the fresh flag model's counts [1, 1]
    for _ in range(80):
        enc.write_bit(0)
    enc.finish()
    with pytest.raises(ValueError, match="malformed gamma code"):
        LZ77Estimator().decode(w.getvalue())


def test_lz77_match_gamma_of_64_zeros_is_read_in_full():
    # 64 zeros are the most a gamma code may have: the distance 2^64 is read
    # in full and rejected as a copy from before the output, as the
    # reference decoder rejects it
    w = BitWriter()
    for v in (0, 64, 0):
        write_uint(w, v)
    w.write_bit(1)
    enc = ArithmeticEncoder(w)
    enc.encode(1, 2, 2)
    write_gamma(enc, 1 << 64)
    write_gamma(enc, 1)
    enc.finish()
    for decode in (LZ77Estimator().decode, lambda b: reference_coders.decode("lz77", b)):
        with pytest.raises(EstimatorError, match="corrupt LZ77 stream"):
            decode(w.getvalue())


def test_lz77_match_past_the_declared_length_is_rejected():
    # zeros code as one literal then one match of 99; the same payload under
    # a header that declares n = 50 asks for a copy past the end
    _, blob = LZ77Estimator().encode(bytes(100), 2)
    r = BitReader(blob)
    assert [read_uint(r) for _ in range(3)] == [0, 100, 0] and r.read_bit() == 1
    w = BitWriter()
    for v in (0, 50, 0):
        write_uint(w, v)
    w.write_bit(1)
    w.buf += r.buf[r.pos :]
    with pytest.raises(EstimatorError, match="corrupt LZ77 stream"):
        LZ77Estimator().decode(w.getvalue())


def _header_only_blob(q: int, n: int, mode: int, payload_bits: bytes) -> bytes:
    w = BitWriter()
    for v in (q - 2, n, 0):
        write_uint(w, v)
    w.write_bit(mode)
    w.buf += payload_bits
    return w.getvalue()


_BAD_HEADERS = {
    "literal_q300": _header_only_blob(300, 4, 0, b"01" * 18),
    "coded_q257": _header_only_blob(257, 4, 1, b"01" * 40),
    "coded_q257_empty": _header_only_blob(257, 0, 1, b""),
    # a literal-mode blob with its last 3 bytes cut off
    "literal_q2_cut": _header_only_blob(2, 200, 0, b"0110" * 50)[:-3],
    "literal_q256_cut": _header_only_blob(256, 30, 0, b"01" * 120)[:-3],
    # one byte, all header: lz77's first 32-bit read passes its end by 32 bits
    "coded_q2_n3_one_byte": _header_only_blob(2, 3, 1, b""),
}
# 5 bytes whose header asks for 100,000 coded symbols in 4 payload bits:
# ctx_k's per-symbol cost bound refuses it, lz77 once its reads pass the
# blob's end by more than 30 bits, lz78 once a code ends past the blob
_CODED_N100000 = _header_only_blob(2, 100_000, 1, b"")


@pytest.mark.parametrize(
    "est_id, blob",
    [pytest.param(e, blob, id=f"{name}-{e}") for name, blob in _BAD_HEADERS.items() for e in ALL_IDS]
    + [pytest.param(e, _CODED_N100000, id=f"coded_q2_n100000-{e}") for e in ALL_IDS],
)
def test_decode_rejects_a_header_the_blob_cannot_hold(est_id, blob):
    with pytest.raises(EstimatorError, match="corrupt header"):
        default_registry()[est_id].decode(blob)


def test_lz78_code_past_the_dictionary_is_rejected():
    # 16 bits are 2 bytes: code 0 (8 bits) makes 1 byte, and then the
    # 9-bit code 300 names no entry of the 256 and is not the next one
    blob = _header_only_blob(2, 16, 1, b"00000000" + f"{300:09b}".encode())
    with pytest.raises(EstimatorError, match="^corrupt LZ78 stream$"):
        LZ78Estimator().decode(blob)


@pytest.mark.parametrize("est_id", ["lz78", "lz77", "ctx_2"])
def test_a_cut_payload_is_named_as_a_cause_of_the_overrun(est_id):
    # the header of a cut blob is intact: the refusal names both causes
    s = gen_computable("thue_morse", 1 << 15).data
    est = default_registry()[est_id]
    _, blob = est.encode(s, 2)
    r = BitReader(blob)
    assert [read_uint(r) for _ in range(3)] == [0, 1 << 15, 0] and r.read_bit() == MODE_CODED
    with pytest.raises(EstimatorError, match="^corrupt header or cut payload: 32768 coded symbols"):
        est.decode(blob[: len(blob) * 3 // 10])


def _draw_symbols(rng: random.Random, kind: str, q: int, n: int) -> bytes:
    if kind == "constant":
        return bytes([rng.randrange(q)]) * n
    if kind == "uniform":
        return bytes(rng.choices(range(q), k=n))
    if kind == "skewed":
        return bytes(0 if rng.random() < 0.9 else rng.randrange(q) for _ in range(n))
    # non-stationary: runs long enough to rescale a count several times,
    # with 5% noise, each run favouring another symbol
    out = bytearray()
    while len(out) < n:
        s = rng.randrange(q)
        out += bytes(s if rng.random() < 0.95 else rng.randrange(q) for _ in range(rng.randint(1, 3000)))
    return bytes(out[:n])


@settings(max_examples=60, deadline=None, derandomize=True)
@example(kind="constant", q=2, n=1 << 16, k=0, period=1, seed=0)
@given(
    kind=st.sampled_from(["constant", "skewed", "uniform"]),
    q=st.integers(2, 256),
    n=st.integers(0, 1 << 14),
    k=st.integers(0, 3),
    period=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_honest_ctx_blobs_pass_the_decode_header_bound(kind, q, n, k, period, seed):
    # a constant string costs the fewest bits per symbol, so it comes
    # closest to the bound; 2^16 zeros at q=2 keep about 8 bits of slack
    data = _draw_symbols(random.Random(seed), kind, q, n)
    est = ContextEstimator(k)
    _, blob = est.encode(data, q, period)
    assert est.decode(blob) == (q, data)


def _split_fits(q: int, k: int, period: int) -> bool:
    """Whether _payload_floor can split the contexts into at most 256 groups
    whose codes fit a byte: the newest j context symbols go in the code, the
    phase too if it still fits, the rest in the group key."""
    j = max(j for j in range(k + 1) if (q + 1) ** j * q <= 256)
    groups = (q + 1) ** (k - j) * (1 if period * (q + 1) ** j * q <= 256 else period)
    return groups <= 256


@st.composite
def _fitting_cases(draw, qs=range(2, 257), kinds=("uniform", "skewed", "runs"), n_min=0):
    """(symbols, q, k, period) that _payload_floor splits into byte codes,
    so it gives a bound."""
    k = draw(st.integers(0, 3))
    period = draw(st.integers(1, 4))
    q = draw(st.sampled_from([q for q in qs if _split_fits(q, k, period)]))
    n = draw(st.integers(n_min, 1 << 14))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return _draw_symbols(rng, draw(st.sampled_from(kinds)), q, n), q, k, period


def _reference_payload(k: int, symbols: bytes, q: int, period: int) -> int:
    """The payload bits of the reference ctx_k coder's stream: its coded bit
    count, where it hands the stream to _pick, less the header."""
    seen = []
    pick = Estimator._pick

    def spy(self, symbols, q, period, coded):
        seen.append(coded.bit_count)
        return pick(self, symbols, q, period, coded)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Estimator, "_pick", spy)
        reference_coders.ctx_encode(k, symbols, q, period)
    return seen[0] - _header_writer(q, len(symbols), period, MODE_CODED).bit_count


def _model_bits(k: int, symbols: bytes, q: int, period: int) -> float:
    """-log2 of the probability that the reference ctx_k model gives the
    string, summed symbol by symbol."""
    model = reference_coders.AdaptiveModel(q)
    qq = q + 1
    ctx = 0
    for _ in range(k):
        ctx = ctx * qq + q
    bits = []
    for i, s in enumerate(symbols):
        t = model.table((i % period) * qq**k + ctx)
        bits.append(-math.log2(t[s] / t[q]))
        model.update(t, s)
        if k:
            ctx = (ctx * qq + s) % qq**k
    return math.fsum(bits)


def _runs(q: int, n: int, seed: int) -> bytes:
    return _draw_symbols(random.Random(seed), "runs", q, n)


@settings(max_examples=80, deadline=None, derandomize=True)
@example(case=(bytes(1 << 16), 2, 0, 1))
# contexts split into groups: by the oldest context symbol (q=4, k=3; q=8,
# k=2), by the two oldest (q=8, k=3), by the phase (q=3, k=3, period 4) and
# by both (q=4, k=3, period 3; q=8, k=2, period 4)
@example(case=(_runs(4, 6000, 1), 4, 3, 1))
@example(case=(_runs(8, 6000, 3), 8, 2, 1))
@example(case=(_runs(8, 6000, 5), 8, 3, 2))
@example(case=(_runs(3, 6000, 6), 3, 3, 4))
@example(case=(_runs(4, 6000, 2), 4, 3, 3))
@example(case=(_runs(8, 6000, 4), 8, 2, 4))
@given(case=_fitting_cases())
def test_payload_floor_never_exceeds_the_coded_payload(case):
    # the floor is the model's code length less n*log2(1 + q*2^-16), to
    # within its float slack; that quantity is below the real payload
    symbols, q, k, period = case
    floor = _payload_floor(symbols, q, k, period)
    bound = _model_bits(k, symbols, q, period) - len(symbols) * math.log2(1 + q / (1 << 16))
    assert 0 <= bound - floor < 1e-4
    assert bound < _reference_payload(k, symbols, q, period)
@settings(max_examples=100, deadline=None, derandomize=True)
# the six grouped cases of test_payload_floor_never_exceeds_the_coded_payload
@example(case=(_runs(4, 6000, 1), 4, 3, 1))
@example(case=(_runs(8, 6000, 3), 8, 2, 1))
@example(case=(_runs(8, 6000, 5), 8, 3, 2))
@example(case=(_runs(3, 6000, 6), 3, 3, 4))
@example(case=(_runs(4, 6000, 2), 4, 3, 3))
@example(case=(_runs(8, 6000, 4), 8, 2, 4))
@example(case=(b"", 2, 0, 1))
@example(case=(b"\x01", 2, 1, 1))
# binary: symbol 1 reaches its need first, then symbol 0 after a rescale
@example(case=(b"\x01" * 600 + bytes(900), 2, 0, 1))
# the last segment ends unrescaled (512 zeros rescale, 188 do not), or
# exactly where its count reaches its need, or where symbol 0 reaches its
# need before the end of the string
@example(case=(bytes(700), 2, 0, 1))
@example(case=(bytes(512), 2, 0, 1))
@example(case=(bytes(512) + b"\x01" * 10, 2, 0, 1))
# contexts that fit no byte code: no floor on either side
@example(case=(bytes(8), 8, 3, 4))
@example(case=(bytes(8), 256, 1, 1))
@given(case=_fitting_cases())
def test_payload_floor_is_the_reference_float(case):
    # the floor decides literal verdicts, so it must be the same float as
    # the reference's, not only a bound
    symbols, q, k, period = case
    assert _payload_floor(symbols, q, k, period) == reference_coders.payload_floor(
        symbols, q, k, period
    )


def test_payload_floor_skips_a_byte_code_that_does_not_fit():
    assert _payload_floor(bytes(8), 2, 3, 4) is not None  # 4 * 27 * 2 = 216 codes
    assert _payload_floor(bytes(8), 16, 1, 1) is not None  # 17 groups of 16 codes
    assert _payload_floor(bytes(8), 8, 3, 3) is not None  # 81 groups of 3 * 9 * 8 codes
    assert _payload_floor(bytes(8), 8, 3, 4) is None  # 4 * 81 groups of 9 * 8 codes
    assert _payload_floor(bytes(8), 256, 1, 1) is None  # 257 groups of 256 codes


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_fitting_cases(qs=(2, 4, 8, 16, 32, 64, 128, 256), kinds=("uniform",), n_min=1 << 12))
def test_certified_encodes_match_the_reference(case):
    # uniform strings over a power-of-two alphabet: the literal mode wins
    # by 18 bits or more at these lengths, and the floor proves it
    symbols, q, k, period = case
    assert _payload_floor(symbols, q, k, period) >= len(symbols) * bits_per_symbol(q)
    got = ContextEstimator(k).encode(symbols, q, period)
    assert got == reference_coders.encode(f"ctx_{k}", symbols, q, period)


@pytest.mark.parametrize("k", range(4))
def test_certified_literal_verdicts_skip_the_coder(k, monkeypatch):
    def no_flush(*args):
        raise AssertionError("the coder ran")

    monkeypatch.setattr(estimators, "flush_coder", no_flush)
    s = gen_seeded_random(1 << 15, 2, Seed.from_int(14))
    bits, blob = ContextEstimator(k).encode(s.data, 2)
    r = BitReader(blob)
    assert [read_uint(r) for _ in range(3)] == [0, 1 << 15, 0]
    assert r.read_bit() == MODE_LITERAL
    assert bits == r.pos + (1 << 15) and len(blob) == (bits + 7) // 8
    assert ContextEstimator(k).decode(blob) == (2, s.data)


@pytest.mark.parametrize("est_id", ["lz77", "lz78"])
@settings(max_examples=30, deadline=None, derandomize=True)
@example(kind="constant", q=2, n=1 << 17, period=1, seed=0)  # LONG_MATCH's zeros
@given(
    kind=st.sampled_from(["constant", "uniform", "skewed", "runs"]),
    q=st.integers(2, 256),
    n=st.integers(0, 1 << 14),
    period=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_honest_lz_blobs_pass_the_overrun_guards(est_id, kind, q, n, period, seed):
    symbols = _draw_symbols(random.Random(seed), kind, q, n)
    est = default_registry()[est_id]
    _, blob = est.encode(symbols, q, period)
    assert est.decode(blob) == (q, symbols)


@pytest.mark.parametrize("n, q", [(1 << 17, 2), (1 << 15, 8)])
def test_the_lz77_match_index_peaks_below_16_bytes_a_symbol_and_512_kib(n, q):
    # the index holds no Python object per position: a typed array of
    # links, a head table of 2^16 positions (256 KiB) and byte strings of
    # codes and buckets peak at about 9 bytes a symbol for 2^17 binary
    # symbols and 19 for 2^15 symbols at q = 8 (whose walk keeps a second
    # array of bucket links), the table included; a dict of ANCHOR-symbol
    # slices peaked at about 81 and 129
    rng = random.Random(n + q)
    symbols = rng.randbytes(n).translate(bytes(v % q for v in range(256)))
    prev, peak = traced_peak(lambda: _chain_links(symbols, q))
    assert len(prev) == n
    assert peak < 16 * n + (512 << 10), peak


@pytest.mark.parametrize("n", [1 << 16, 1 << 15])
def test_the_lz78_encode_peaks_below_16_bytes_a_symbol_and_256_kib(n):
    # random q = 8 symbols, theorem3's shape, whose literal mode wins: the
    # flat child table (256 KiB), int keys for deeper nodes and the early
    # literal exit, which stops the parse and its bit buffer at the literal
    # length, peak at about 13 and 12 bytes a symbol above the table; a trie
    # keyed by (node, byte) tuples and run to the end peaked at 49 and 58
    # bytes a symbol (3.22 and 1.90 MB)
    rng = random.Random(n)
    symbols = rng.randbytes(n).translate(bytes(v % 8 for v in range(256)))
    (bits, _), peak = traced_peak(lambda: LZ78Estimator().encode(symbols, 8))
    assert bits == estimators._literal_len(8, n, 1)
    assert peak < 16 * n + (256 << 10), peak
