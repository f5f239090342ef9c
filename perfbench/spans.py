"""Spans around the public functions of the nonlocality layers, and the
per-layer metrics computed from them.

The tracer patches each listed function in every ``nonlocality.*`` module
namespace that holds it, so calls made through ``from .x import f`` bindings
are seen too. Nothing under ``src/`` changes; ``uninstall`` puts the
originals back. Spans are kept in memory and written out as JSONL at the end
of a run.

Per-symbol helpers (``round_bits``, ``promise_ok``, ``bits_per_symbol``, the
bit I/O and arithmetic coder in ``coding``) are deliberately not wrapped:
they run millions of times per operation, and a wrapper would swamp what is
being measured. Their time stays in the self time of their caller's layer.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

ESTIMATOR_IDS = ("lz77", "lz78", "ctx_0", "ctx_1", "ctx_2", "ctx_3")


def literal_bits(nl, q: int, n: int, period: int) -> int:
    """Closed-form length of the verbatim mode an encoder falls back to."""
    u = nl.coding.uint_len
    return u(q - 2) + u(n) + u(period - 1) + 1 + n * nl.strings.bits_per_symbol(q)


def _encode_attrs(nl, args, kwargs, result):
    est, symbols, q = args[0], args[1], args[2]
    period = args[3] if len(args) > 3 else kwargs.get("period", 1)
    bits = result[0]
    literal = literal_bits(nl, q, len(symbols), period)
    return {"est": est.estimator_id, "n": len(symbols), "bits": bits, "coded": bits < literal}


def _decode_attrs(nl, args, kwargs, result):
    return {"est": args[0].estimator_id, "n": len(result[1])}


def _gen_attrs(nl, args, kwargs, result):
    if isinstance(result, tuple):  # gen_promise_inputs returns (a, b)
        return {"n": sum(s.n for s in result)}
    return {"n": result.n}


def _read_attrs(nl, args, kwargs, result):
    return {"n": result.n}


def _write_attrs(nl, args, kwargs, result):
    return {"n": args[1].n}


def _play_attrs(nl, args, kwargs, result):
    return {"n": args[2].n}


def _quad_attrs(nl, args, kwargs, result):
    return {"n": args[0].n}


def _search_attrs(nl, args, kwargs, result):
    return {"nodes": result.nodes, "prunes": result.prunes}


def _lp_attrs(nl, args, kwargs, result):
    # phase-1 tableau: one row per constraint plus the objective, one column
    # per variable and artificial plus the rhs (computed, not measured)
    m, n = len(args[0]), len(args[2])
    return {"cells": (m + 1) * (n + m + 1)}


# (module, attribute or Class.method, annotate); the layer is the module name
TARGETS = (
    ("strings", "gen_seeded_random", _gen_attrs),
    ("strings", "gen_computable", _gen_attrs),
    ("strings", "gen_promise_inputs", _gen_attrs),
    ("strings", "read_syms", _read_attrs),
    ("strings", "write_syms", _write_attrs),
    ("estimators", "LZ78Estimator.encode", _encode_attrs),
    ("estimators", "LZ77Estimator.encode", _encode_attrs),
    ("estimators", "ContextEstimator.encode", _encode_attrs),
    ("estimators", "Estimator.decode", _decode_attrs),
    ("complexity", "estimate_k", None),
    ("complexity", "estimate_k_cond", None),
    ("games", "play", _play_attrs),
    ("games", "satisfaction_fraction", _quad_attrs),
    ("games", "ns_report", None),
    ("games", "locality_verdict", None),
    ("games", "save_quadruple", None),
    ("games", "load_quadruple", None),
    ("simplex", "solve_lp", _lp_attrs),
    ("oracles", "game_value_exact", _search_attrs),
    ("oracles", "replay_witness", None),
    ("oracles", "fine_membership", None),
    ("oracles", "marginal_extremes", None),
    ("experiments", "run_theorem1", None),
    ("experiments", "run_theorem2", None),
    ("experiments", "run_theorem3", None),
    ("experiments", "run_magic_square", None),
    ("experiments", "run_locality_suite", None),
    ("cli", "main", None),
)


class Tracer:
    """Records one span per wrapped call: name, layer, start, end, id, the
    id of the enclosing span, and the operation (trace) it belongs to."""

    def __init__(self, nl) -> None:
        self.nl = nl
        self.spans: list[dict] = []
        self.cycle = 0
        self._stack: list[int] = []
        self._trace = 0
        self._next_id = 1
        self._patches: list[tuple] = []

    def install(self) -> None:
        mods = [getattr(self.nl, name) for name in self.nl.MODULES]
        for modname, attr, annotate in TARGETS:
            mod = getattr(self.nl, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(modname, attr, orig, annotate))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(modname, attr, orig, annotate)
            for m in mods:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _open(self, layer: str, name: str) -> dict:
        sid = self._next_id
        self._next_id += 1
        if not self._stack:
            self._trace = sid
        span = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else 0,
            "trace": self._trace,
            "cycle": self.cycle,
            "layer": layer,
            "name": name,
        }
        self._stack.append(sid)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def _wrap(self, layer, name, fn, annotate):
        nl = self.nl

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                self._close(span)
                raise
            self._close(span)
            if annotate is not None:
                span.update(annotate(nl, args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; spans below share its id."""
        span = self._open("bench", name)
        try:
            yield span
        finally:
            self._close(span)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# --- metrics -------------------------------------------------------------------

_SUFFIX_UNITS = (
    ("ksym_per_s", "ksym/s"),
    ("_frac", "frac"),
    ("_s", "s"),
    ("bits_written", "bits"),
    ("report_bytes", "bytes"),
    ("tableau_cells", "cells"),
    ("", "count"),
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    return next(u for suffix, u in _SUFFIX_UNITS if name.endswith(suffix))


# layers with a self time; coding has none of its own (see the module docstring)
LAYERS = (
    "strings", "estimators", "complexity", "games", "simplex", "oracles", "experiments", "cli",
)

def _durations(spans: list[dict]) -> dict:
    """Span durations in normalised seconds: each span takes the scale that
    the benchmark measured for the operation (trace) it belongs to."""
    scale = {s["id"]: s["scale"] for s in spans if "scale" in s}
    return {s["id"]: (s["end"] - s["start"]) * scale.get(s["trace"], 1.0) for s in spans}


def _self_times(spans: list[dict], dur: dict) -> dict:
    """Seconds per layer of span time not covered by child spans. Children
    of one span never overlap: calls nest on a single thread."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"]:
            child[s["parent"]] += dur[s["id"]]
    out = defaultdict(float)
    for s in spans:
        out[s["layer"]] += dur[s["id"]] - child[s["id"]]
    return out


def _ksym_per_s(spans, dur: dict, pred) -> float:
    sel = [s for s in spans if pred(s)]
    busy = sum(dur[s["id"]] for s in sel)
    return sum(s["n"] for s in sel) / busy / 1000 if busy else 0.0


def exact_counts(spans: list[dict]) -> dict:
    """Counts that depend only on the inputs, so they must repeat exactly."""
    by_id = {s["id"]: s for s in spans}
    encodes = [s for s in spans if s["name"].endswith(".encode") and "bits" in s]
    estimates = [s for s in spans if s["name"] in ("estimate_k", "estimate_k_cond")]

    def under_estimate(s) -> bool:
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] in ("estimate_k", "estimate_k_cond"):
                return True
            p = by_id.get(p["parent"])
        return False

    nested = sum(1 for s in encodes if under_estimate(s))
    searches = [s for s in spans if s["name"] == "game_value_exact" and "nodes" in s]
    lps = [s for s in spans if s["name"] == "solve_lp" and "cells" in s]
    return {
        "estimators.encode_calls": len(encodes),
        "estimators.coded_frac": (
            sum(1 for s in encodes if s["coded"]) / len(encodes) if encodes else 0.0
        ),
        "coding.bits_written": sum(s["bits"] for s in encodes),
        "complexity.estimate_calls": len(estimates),
        "complexity.encodes_per_estimate": nested / len(estimates) if estimates else 0.0,
        "oracles.search_nodes": sum(s["nodes"] for s in searches),
        "oracles.search_prunes": sum(s["prunes"] for s in searches),
        "simplex.calls": len(lps),
        "simplex.tableau_cells": sum(s["cells"] for s in lps),
        "trace.spans": len(spans),
    }


def layer_metrics(spans: list[dict], cycles: int) -> dict:
    """Per-layer metrics of the traced cycles. Times are normalised seconds
    per cycle; counts are per cycle; rates are symbols over the summed time
    of the spans that did the work."""
    dur = _durations(spans)
    out = {}
    for est in ESTIMATOR_IDS:
        for kind in ("encode", "decode"):
            out[f"estimators.{est}.{kind}_ksym_per_s"] = _ksym_per_s(
                spans, dur, lambda s: s["name"].endswith("." + kind) and s.get("est") == est
            )
    for key, count in exact_counts(spans).items():
        # ratios are already per call; totals are spread over the cycles
        out[key] = count if key.endswith(("_frac", "_per_estimate")) else count / cycles
    rates = (
        ("strings.gen_ksym_per_s", lambda s: s["name"].startswith("gen_")),
        ("strings.io_ksym_per_s", lambda s: s["name"] in ("read_syms", "write_syms")),
        ("games.play_ksym_per_s", lambda s: s["name"] == "play"),
        ("games.satisfaction_ksym_per_s", lambda s: s["name"] == "satisfaction_fraction"),
    )
    for key, pred in rates:
        out[key] = _ksym_per_s(spans, dur, pred)
    for name, key in (
        ("game_value_exact", "oracles.game_value_s"),
        ("fine_membership", "oracles.fine_membership_s"),
    ):
        out[key] = sum(dur[s["id"]] for s in spans if s["name"] == name) / cycles
    selfs = _self_times(spans, dur)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0) / cycles
    return out
