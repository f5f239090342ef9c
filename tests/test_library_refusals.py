"""The library's argument checks that no command reaches: each refusal's
exact type and message.

A check that nothing calls with a bad argument can be deleted unnoticed,
and the call then returns a wrong answer (classify_value with its bounds
swapped says "zero") or fails later with another message (a negative
length reaches bytes()). So each is called here once, with an argument just
outside what it accepts.
"""
import re
from fractions import Fraction

import pytest

from nonlocality.coding import gamma_bits, uint_len
from nonlocality.complexity import binary_entropy, classify_value
from nonlocality.estimators import ContextEstimator
from nonlocality.experiments import ExperimentReport
from nonlocality.games import GameSpec, LocalDeterministic, NoSignalingSampler, play
from nonlocality.strings import (
    FormatError,
    Seed,
    SymbolString,
    bits_per_symbol,
    gen_computable,
    gen_promise_inputs,
    gen_seeded_random,
    round_bits,
)

SEED = Seed.from_int(0)
EMPTY_REPORT = ExperimentReport("e", {}, {}, "lz77", [], [], "v")
PR_INPUTS = (SymbolString(2, b"\0\1\0\1"), SymbolString(2, b"\0\0\1\1"))

REFUSALS = {
    "classify_value_swapped_bounds": (
        lambda: classify_value(0.5, 0.9, 0.1),
        ValueError, re.escape("need 0 <= theta_zero < theta_full <= 1"),
    ),
    "binary_entropy_above_one": (
        lambda: binary_entropy(1.5), ValueError, re.escape("p must lie in [0,1], got 1.5")
    ),
    "gamma_bits_zero": (lambda: gamma_bits(0), ValueError, "gamma codes positive integers"),
    "uint_len_negative": (
        lambda: uint_len(-1), ValueError, "write_uint codes non-negative integers"
    ),
    "context_order_4": (
        lambda: ContextEstimator(4), ValueError, re.escape("context order must be in 0..3")
    ),
    "report_row_missing": (lambda: EMPTY_REPORT.row("K(x)"), KeyError, re.escape("K(x)")),
    "report_diagnostic_missing": (
        lambda: EMPTY_REPORT.diagnostic("slack"), KeyError, "slack"
    ),
    "chained_ring_of_one": (
        lambda: GameSpec.chained(1), ValueError, "ring size must be >= 2"
    ),
    "win_input_outside": (
        lambda: GameSpec.pr().win(2, 0, 0, 0),
        ValueError, "input symbol out of alphabet: a=2, b=0",
    ),
    "win_output_outside": (
        lambda: GameSpec.pr().win(0, 0, 0, 2),
        ValueError, "output symbol out of alphabet: x=0, y=2",
    ),
    "magic_square_target_bit": (
        lambda: GameSpec.magic_square().target_bit(0, 0),
        ValueError, "no XOR target for this game",
    ),
    "play_fb_outside": (
        lambda: play(LocalDeterministic((0, 0), (0, 2)), GameSpec.pr(), *PR_INPUTS, SEED),
        FormatError, "fb entries out of the output alphabet",
    ),
    "noise_rate_two": (
        lambda: NoSignalingSampler(Fraction(2)),
        ValueError, re.escape("noise rate must lie in [0,1]"),
    ),
    "play_unknown_strategy": (
        lambda: play(object(), GameSpec.pr(), *PR_INPUTS, SEED),
        TypeError, "unknown strategy: <object object at 0x[0-9a-f]+>",
    ),
    "bits_per_symbol_one": (
        lambda: bits_per_symbol(1), ValueError, "alphabet size must be >= 2, got 1"
    ),
    "round_bits_257": (
        lambda: round_bits(SEED, 0, 257), ValueError, "round_bits supports at most 256 bits"
    ),
    "seeded_random_negative_n": (
        lambda: gen_seeded_random(-1, 2, SEED), ValueError, "length must be non-negative"
    ),
    "computable_negative_n": (
        lambda: gen_computable("thue_morse", -1), ValueError, "length must be non-negative"
    ),
    "promise_inputs_negative_n": (
        lambda: gen_promise_inputs(2, -1, SEED), ValueError, "length must be non-negative"
    ),
    "promise_inputs_ring_of_one": (
        lambda: gen_promise_inputs(1, 4, SEED), ValueError, "ring size must be >= 2"
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_names_its_type_and_message(case):
    call, kind, message = REFUSALS[case]
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is kind
    assert re.fullmatch(message, info.value.args[0])
