"""One tracemalloc measurement for the tests that bound a call's memory.

tracemalloc counts the Python allocator's blocks, so the peak is the same
on every run of the same code, unlike the process's resident size.
"""
from __future__ import annotations

import tracemalloc


def traced_peak(fn) -> tuple:
    """(fn(), the peak bytes traced while fn ran, above what was held
    before it started)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak
