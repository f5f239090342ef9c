"""A round-trip audit of every encode behind the reports of perfbench's
experiments cycle at seed 0.

The reports' bit counts reach them through complexity's cache, the certified
literal path of the context models and encodes resumed from a prefix's coder
state. Here every such encode is checked to be a genuine description: its
blob holds its bits, decodes to its input and declares its period, and the
calls and their bits add up to the counts that goldens.json pins. The
encodes are those of the one run of the cycle that test_perfbench_goldens.py
makes and checks against goldens.json.

The resume points that the cycle keeps are pinned too. lz77 keeps its point
before the first token whose decision reads the end of the string; a point
kept one token later gives the same bits on this cycle's continuations,
which do not change that decision, but not on every continuation. So are
the points found: a store that evicts a point too soon loses resumes.
"""
from nonlocality.coding import BitReader, read_uint
from test_perfbench_goldens import _pinned, experiments_cycle

# estimator id -> (points kept, sum of their positions) over the cycle
KEPT_POINTS = {"ctx_2": (23, 909_312), "lz77": (30, 982_269)}
# (points found, symbols they let encodes skip) over the cycle
FOUND_POINTS = (16, 405_239)


def test_every_encode_of_the_experiments_cycle_round_trips():
    # the cycle's records are checked by test_perfbench_goldens.py
    cycle = experiments_cycle()
    for est, symbols, q, period, bits, blob in cycle.calls:
        where = (est.estimator_id, len(symbols), q, period)
        assert bits <= 8 * len(blob) < bits + 8, where
        assert est.decode(blob) == (q, symbols), where
        r = BitReader(blob)
        read_uint(r)
        read_uint(r)
        assert read_uint(r) + 1 == period, where
    counts = cycle.goldens["counts"]
    assert len(cycle.calls) == _pinned(counts["estimators.encode_calls"])
    assert sum(call[4] for call in cycle.calls) == _pinned(counts["coding.bits_written"])
    assert cycle.kept == KEPT_POINTS
    assert cycle.found == FOUND_POINTS
