"""A round-trip audit of every encode behind the reports of perfbench's
experiments cycle at seed 0.

The reports' bit counts reach them through complexity's cache, the certified
literal path of the context models and encodes resumed from a prefix's coder
state. Here every such encode is checked to be a genuine description: its
blob holds its bits, decodes to its input and declares its period, and the
calls and their bits add up to the counts that goldens.json pins.

The resume points that the cycle keeps are pinned too. lz77 keeps its point
before the first token whose decision reads the end of the string; a point
kept one token later gives the same bits on this cycle's continuations,
which do not change that decision, but not on every continuation.
"""
from nonlocality.coding import BitReader, read_uint
from nonlocality.complexity import ResumeStore
from nonlocality.estimators import ContextEstimator, LZ77Estimator, LZ78Estimator
from test_perfbench_goldens import _pinned, _records

MODULES = (
    "strings", "coding", "estimators", "complexity", "games",
    "simplex", "oracles", "experiments", "cli",
)
# estimator id -> (points kept, sum of their positions) over the cycle
KEPT_POINTS = {"ctx_2": (23, 909_312), "lz77": (30, 982_269)}


def test_every_encode_of_the_experiments_cycle_round_trips(tmp_path, monkeypatch):
    calls = []
    for cls in (LZ78Estimator, LZ77Estimator, ContextEstimator):

        def audited(self, symbols, q, period=1, _encode=cls.encode, **kwargs):
            bits, blob = _encode(self, symbols, q, period, **kwargs)
            calls.append((self, bytes(symbols), q, period, bits, blob))
            return bits, blob

        monkeypatch.setattr(cls, "encode", audited)
    kept = {}
    keep = ResumeStore.keep

    def counted(self, est, symbols, q, period, point):
        count, total = kept.get(est.estimator_id, (0, 0))
        kept[est.estimator_id] = (count + 1, total + point.i)
        assert 0 < point.i <= len(symbols)
        keep(self, est, symbols, q, period, point)

    monkeypatch.setattr(ResumeStore, "keep", counted)
    records, goldens = _records("experiments", MODULES, tmp_path, monkeypatch)
    for est, symbols, q, period, bits, blob in calls:
        where = (est.estimator_id, len(symbols), q, period)
        assert bits <= 8 * len(blob) < bits + 8, where
        assert est.decode(blob) == (q, symbols), where
        r = BitReader(blob)
        read_uint(r)
        read_uint(r)
        assert read_uint(r) + 1 == period, where
    counts = goldens["counts"]
    assert len(calls) == _pinned(counts["estimators.encode_calls"])
    assert sum(call[4] for call in calls) == _pinned(counts["coding.bits_written"])
    assert kept == KEPT_POINTS
    for name, record in records.items():
        assert record == _pinned(goldens["ops"][name]), name
