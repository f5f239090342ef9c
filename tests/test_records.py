"""Every record class of the toolkit, one sample each: value equality within
its class only, hashing as the tuple of its fields, the repr text, refusal
to change, copy and pickle round trips, argument checking, the checks that
its constructor runs, and a fresh `config` dict for each report built
without one."""
import copy
import pickle
import re
from fractions import Fraction as F

import pytest

from nonlocality.complexity import ComplexityEstimate
from nonlocality.estimators import ResumePoint
from nonlocality.experiments import Diagnostic, ExperimentReport, Row, SeedSet
from nonlocality.games import (
    GameSpec,
    LocalDeterministic,
    LocalityThresholds,
    LocalityVerdict,
    NoSignalingReport,
    NoSignalingSampler,
    Quadruple,
    SignalingSampler,
)
from nonlocality.oracles import Distribution, FineResult, GameValueResult
from nonlocality.simplex import LPResult
from nonlocality.strings import FormatError, Seed, SymbolString

PR = GameSpec("pr")
S = SymbolString(2, b"\0\1\1\0")
PR_TABLE = {(a, b, 0, a & b): F(1) for a in (0, 1) for b in (0, 1)}

# (class, its fields in order with the sample's values, the sample's repr)
SAMPLES = [
    (SymbolString, {"q": 3, "data": b"\0\2\1"}, "SymbolString(q=3, n=3, [0,2,1])"),
    (Seed, {"value": bytes(7) + b"\1" + bytes(24)}, "Seed(0000000000000001...)"),
    (GameSpec, {"kind": "chained", "m": 3}, "GameSpec(kind='chained', m=3)"),
    (LocalDeterministic, {"fa": (0, 1), "fb": (1, 0)}, "LocalDeterministic(fa=(0, 1), fb=(1, 0))"),
    (NoSignalingSampler, {"eps": F(1, 4)}, "NoSignalingSampler(eps=Fraction(1, 4))"),
    (SignalingSampler, {}, "SignalingSampler()"),
    (
        Quadruple,
        {"game": PR, "a": S, "b": S, "x": S, "y": S},
        "Quadruple(game=GameSpec(kind='pr', m=2), "
        + ", ".join(f"{v}=SymbolString(q=2, n=4, [0,1,1,0])" for v in "abxy")
        + ")",
    ),
    (
        NoSignalingReport,
        {
            "estimator_id": "ctx_2",
            "rate_x_given_a": 0.5,
            "rate_x_given_ab": 0.25,
            "rate_y_given_b": 0.75,
            "rate_y_given_ab": 0.5,
            "delta_x": 0.25,
            "delta_y": 0.25,
            "theta_ns": 0.1,
        },
        "NoSignalingReport(estimator_id='ctx_2', rate_x_given_a=0.5, rate_x_given_ab=0.25, "
        "rate_y_given_b=0.75, rate_y_given_ab=0.5, delta_x=0.25, delta_y=0.25, theta_ns=0.1)",
    ),
    (LocalityThresholds, {"defect": 0.5, "output": 0.2}, "LocalityThresholds(defect=0.5, output=0.2)"),
    (
        LocalityVerdict,
        {
            "estimator_id": "lz77",
            "independence_defect": 0.0,
            "rate_x": 0.5,
            "rate_y": 0.25,
            "thresholds": LocalityThresholds(),
            "witnessed": True,
        },
        "LocalityVerdict(estimator_id='lz77', independence_defect=0.0, rate_x=0.5, rate_y=0.25, "
        "thresholds=LocalityThresholds(defect=0.25, output=0.1), witnessed=True)",
    ),
    (
        Distribution,
        {"game": PR, "p": PR_TABLE},
        "Distribution(game=GameSpec(kind='pr', m=2), p={(0, 0, 0, 0): Fraction(1, 1), "
        "(0, 1, 0, 0): Fraction(1, 1), (1, 0, 0, 0): Fraction(1, 1), (1, 1, 0, 1): Fraction(1, 1)})",
    ),
    (
        GameValueResult,
        {
            "game_label": "pr",
            "reps": 1,
            "value": F(3, 4),
            "a_blocks": ((0,), (1,)),
            "b_blocks": ((0,), (1,)),
            "fa": ((0,), (0,)),
            "fb": ((0,), (0,)),
            "nodes": 7,
            "prunes": 2,
        },
        "GameValueResult(game_label='pr', reps=1, value=Fraction(3, 4), a_blocks=((0,), (1,)), "
        "b_blocks=((0,), (1,)), fa=((0,), (0,)), fb=((0,), (0,)), nodes=7, prunes=2)",
    ),
    (
        FineResult,
        {
            "local": False,
            "weights": None,
            "certificate": {(0, 0, 0, 0): F(1)},
            "value_on_dist": F(1),
            "vertex_max": F(3, 4),
        },
        "FineResult(local=False, weights=None, certificate={(0, 0, 0, 0): Fraction(1, 1)}, "
        "value_on_dist=Fraction(1, 1), vertex_max=Fraction(3, 4))",
    ),
    (
        LPResult,
        {"status": "optimal", "objective": F(2), "solution": [F(1)], "certificate": None, "pivots": 3},
        "LPResult(status='optimal', objective=Fraction(2, 1), solution=[Fraction(1, 1)], "
        "certificate=None, pivots=3)",
    ),
    (
        ComplexityEstimate,
        {"estimator_id": "lz77", "n": 8, "q": 2, "bits": 12.0},
        "ComplexityEstimate(estimator_id='lz77', n=8, q=2, bits=12.0)",
    ),
    (
        ResumePoint,
        {"i": 4, "low": 0, "high": 255, "pending": 1, "bits": 3, "packed": 5, "model": (1, 2), "cells": 6},
        "ResumePoint(i=4, low=0, high=255, pending=1, bits=3, packed=5, model=(1, 2), cells=6)",
    ),
    (
        SeedSet,
        {"inputs": Seed(bytes(32)), "sampler": Seed(bytes(32)), "noise": Seed(bytes(32))},
        "SeedSet(inputs=Seed(0000000000000000...), sampler=Seed(0000000000000000...), "
        "noise=Seed(0000000000000000...))",
    ),
    (
        Row,
        {"name": "K(x)", "value": "12", "rate": 0.75, "rate_class": "partial"},
        "Row(name='K(x)', value='12', rate=0.75, rate_class='partial')",
    ),
    (Diagnostic, {"name": "d", "lhs": 1.5, "rhs": 0.5}, "Diagnostic(name='d', lhs=1.5, rhs=0.5)"),
    (
        ExperimentReport,
        {
            "experiment": "theorem2",
            "params": {"n": 8},
            "seeds": {"inputs": "00"},
            "estimator_id": "lz77",
            "rows": [],
            "diagnostics": [],
            "verdict": "ok",
            "config": {"seed": 0},
        },
        "ExperimentReport(experiment='theorem2', params={'n': 8}, seeds={'inputs': '00'}, "
        "estimator_id='lz77', rows=[], diagnostics=[], verdict='ok', config={'seed': 0})",
    ),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]
# every field of these has a default
ALL_DEFAULTS = {
    LocalityThresholds: "LocalityThresholds(defect=0.25, output=0.1)",
    NoSignalingSampler: "NoSignalingSampler(eps=Fraction(0, 1))",
    SignalingSampler: "SignalingSampler()",
}


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_record_value_semantics(cls, fields, text):
    values = tuple(fields.values())
    r = cls(**fields)
    assert repr(r) == text
    assert type(r) is cls and r == cls(*values) and not r != cls(*values)
    assert r != values and values != r
    for other_cls, other_fields, _ in SAMPLES:
        if other_cls is not cls:
            assert r != other_cls(**other_fields)
    try:
        expected = hash(values)
    except TypeError:  # a dict or list field: neither hashes
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == expected
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is cls and twin == r and repr(twin) == text
    name = next(iter(fields), "kind")
    with pytest.raises(AttributeError):
        setattr(r, name, None)
    with pytest.raises(AttributeError):
        delattr(r, name)
    assert repr(r) == text


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_record_arguments_are_checked(cls, fields, text):
    values = tuple(fields.values())
    with pytest.raises(TypeError):
        cls(*values, None)  # surplus
    with pytest.raises(TypeError):
        cls(*values, unknown=None)
    if fields:
        first, rest = next(iter(fields)), dict(list(fields.items())[1:])
        with pytest.raises(TypeError):
            cls(values[0], **{first: values[0]})  # duplicate
        if cls in ALL_DEFAULTS:
            assert getattr(cls(**rest), first) == getattr(cls(), first)
        else:
            with pytest.raises(TypeError):
                cls(**rest)  # missing
    if cls in ALL_DEFAULTS:
        assert repr(cls()) == ALL_DEFAULTS[cls]


REFUSALS = [
    (lambda: SymbolString(1, b""), ValueError, "alphabet size out of range: 1"),
    (lambda: SymbolString(257, b""), ValueError, "alphabet size out of range: 257"),
    (lambda: SymbolString(2, b"\0\2"), ValueError, "symbol 2 out of alphabet range 0..1"),
    (lambda: Seed(bytes(31)), ValueError, "seed must be 32 bytes, got 31"),
    (lambda: NoSignalingSampler(F(3, 2)), ValueError, "noise rate must lie in [0,1]"),
    (
        lambda: Quadruple(PR, S, S, S, SymbolString(2, b"\0")),
        FormatError,
        "all four strings must have equal length",
    ),
    (
        lambda: Quadruple(PR, S, S, S, SymbolString(3, b"\0\1\1\0")),
        FormatError,
        "alphabets do not match the game",
    ),
    (
        lambda: Distribution(PR, {}),
        FormatError,
        "0 entries cannot cover the game's 4 promise pairs",
    ),
    (
        lambda: Distribution(PR, {**PR_TABLE, (0, 0, 2, 0): F(0)}),
        FormatError,
        "entry (0, 0, 2, 0) is outside the game's alphabets or off the promise",
    ),
    (
        lambda: Distribution(PR, {**PR_TABLE, (0, 0, 1, 1): F(-1)}),
        FormatError,
        "negative probability at (0, 0, 1, 1)",
    ),
    (
        lambda: Distribution(PR, {**PR_TABLE, (0, 0, 0, 0): F(1, 2)}),
        FormatError,
        "P(.,.|a=0,b=0) sums to 1/2, expected 1",
    ),
]


@pytest.mark.parametrize("make, exc, message", REFUSALS)
def test_record_checks_keep_their_type_and_message(make, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        make()
    assert type(info.value) is exc


def test_reports_built_without_config_do_not_share_one_dict():
    fields = dict(SAMPLES[-1][1])
    del fields["config"]
    one, two = ExperimentReport(**fields), ExperimentReport(**fields)
    assert one.config == two.config == {}
    assert one.config is not two.config
