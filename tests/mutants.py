"""Recorded mutants of the toolkit: each is one exact text replacement in one
file under src/nonlocality, with the tests that kill it, or, for an
equivalent mutant, the reason no test can and the tests it survives.

`tests/run_mutants.py` applies one at a time in a temporary copy of the
tree and runs only its tests; `tests/test_mutants.py` checks that each old
text still occurs exactly once, so an entry that no longer fits the code
fails tier-1 instead of going stale.
"""
from __future__ import annotations


class Mutant:
    def __init__(self, name, file, old, new, tests, equivalent=None):
        self.name, self.file, self.old, self.new = name, file, old, new
        self.tests = tests  # pytest node ids: the killers, or what an equivalent one survives
        self.equivalent = equivalent  # why no test can kill it, or None


_CHAIN = "tests/test_coder_outputs.py::test_chain_links_"
_ORACLES = "tests/test_oracles.py::test_"
_VERTEX_MAX = _ORACLES + "best_response_vertex_max_is_the_maximum_over_every_vertex"
_MODEL_CHECK = ["tests/test_store_model.py::test_the_store_follows_its_model"]
_RESUME = "tests/test_resume.py::test_"
_OUTPUTS = "tests/test_coder_outputs.py::test_"
_BOUNDS = "tests/test_decoder_bounds.py::test_"

MUTANTS = [
    # estimators._chain_links: the q > 2 walk over the bucket links
    Mutant(
        "chain_walk_follows_prev",
        "estimators.py",
        "                j = link[j]\n",
        "                j = prev[j]\n",
        [_CHAIN + "equal_the_dict_of_slices", _CHAIN + "walk_past_two_bucket_mates",
         _CHAIN + "on_the_slow_shapes"],
    ),
    Mutant(
        "chain_bucket_link_not_stored",
        "estimators.py",
        "        link[p] = j\n",
        "",
        [_CHAIN + "equal_the_dict_of_slices", _CHAIN + "walk_past_two_bucket_mates",
         _CHAIN + "on_the_slow_shapes"],
    ),
    Mutant(
        "chain_exact_link_kept_after_failed_walk",
        "estimators.py",
        "        after = j if j >= 0 else -2\n",
        "        after = j if j >= 0 else after\n",
        [_CHAIN + "forget_the_exact_link_after_a_failed_walk"],
    ),
    # estimators._decode_stream: the flag and literal loops, the states and links
    Mutant(
        "decoder_new_link_keeps_the_phase",
        "estimators.py",
        "key = (t[-1] // mod + 1) % period * mod",
        "key = (t[-1] // mod) % period * mod",
        [_OUTPUTS + "fused_loops_match_the_method_call_reference"],
    ),
    Mutant(
        "decoder_flag_bit_unmasked",
        "estimators.py",
        "                high = (high << 1) | 1\n"
        "                v = (v << 1) | (buf[pos] & 1)\n",
        "                high = (high << 1) | 1\n"
        "                v = (v << 1) | buf[pos]\n",
        [_OUTPUTS + "a_value_on_a_split_point_decodes_as_the_symbol_above"],
    ),
    Mutant(
        "decoder_literal_bit_unmasked",
        "estimators.py",
        "            high = (high << 1) | 1\n"
        "            v = (v << 1) | (buf[pos] & 1)\n",
        "            high = (high << 1) | 1\n"
        "            v = (v << 1) | buf[pos]\n",
        ["tests/test_estimators.py::test_roundtrip_on_corpus"],
    ),
    Mutant(
        "decoder_flag_overrun_unchecked",
        "estimators.py",
        "            if pos > end:\n"
        "                raise _overrun(n)\n"
        "            if sym:\n",
        "            if sym:\n",
        [_BOUNDS + "a_flag_and_its_literal_read_past_the_padding_only_with_the_flag_check_gone"],
    ),
    Mutant(
        "decoder_literal_overrun_unchecked",
        "estimators.py",
        "        if pos > end:\n"
        "            raise _overrun(n)\n"
        "        c += step\n",
        "        c += step\n",
        [_OUTPUTS + "cut_ctx_blobs_are_refused_like_the_reference"],
    ),
    Mutant(
        "decoder_match_state_without_the_phase",
        "estimators.py",
        "key = (i % period) * mod + out[i - 2] * qq + out[i - 1]",
        "key = out[i - 2] * qq + out[i - 1]",
        [_OUTPUTS + "named_cases_run_every_statement_of_the_fused_loops",
         "tests/test_roundtrip_audit.py"],
    ),
    Mutant(
        # allocates the header's n bytes, then keeps none of them
        "decoder_output_sized_from_the_header",
        "estimators.py",
        "    f0 = f1 = 1\n    out = bytearray()\n",
        "    f0 = f1 = 1\n    out = bytearray(n)[:0]\n",
        [_BOUNDS + "an_lz77_header_of_2_34_symbols_over_40_bits_is_refused_as_an_overrun"],
    ),
    Mutant(
        # a list of q successor slots beside each new state's links
        "decoder_q_successor_slots",
        "estimators.py",
        "t[qq][s] = nxt = states.get(key) or states.setdefault(key, new_table(q) + [{}, key])",
        "t[qq][s] = nxt = states.get(key) or states.setdefault(\n"
        "                key, new_table(q) + [{}, [None] * q, key]\n"
        "            )",
        [_BOUNDS + "linked_states_take_at_most_15_percent_over_the_reference_tables"],
    ),
    Mutant(
        "decoder_links_left_uncleared",
        "estimators.py",
        "    for t in states.values():  # links make cycles: unlinked, the states are freed at once\n"
        "        t[qq].clear()\n",
        "",
        [_BOUNDS + "a_decode_leaves_no_cycles_for_the_collector"],
    ),
    # LZ77Estimator.encode: the literal certificate needs a string without links
    Mutant(
        "lz77_certificate_with_links_present",
        "estimators.py",
        "        if all(prev[j : j + 4096] == blank[: n - j] for j in range(0, n, 4096)):\n",
        "        if True:\n",
        [_OUTPUTS + "encoders_match_recorded_outputs"],
    ),
    # oracles._search and _parallel_bests: the roots of one call, the caller's share
    Mutant(
        "search_incumbent_not_reset_per_root",
        "oracles.py",
        "        for root in roots:\n"
        "            best_wins, best_fa, best_fb, nodes, prunes = -1, None, None, 1, 0\n",
        "        best_wins = -1\n"
        "        for root in roots:\n"
        "            best_fa, best_fb, nodes, prunes = None, None, 1, 0\n",
        [_ORACLES + "parallel_search_tree_is_the_sum_of_its_branches",
         _ORACLES + "parallel_chained4_tree_matches_the_jobs2_golden"],
    ),
    Mutant(
        "search_caller_share_skipped",
        "oracles.py",
        "_search(game, blocks, range(0, nx, workers))",
        "_search(game, blocks, range(workers, nx, workers))",
        [_ORACLES + "parallel_search_tree_is_the_sum_of_its_branches",
         _ORACLES + "parallel_chained4_tree_matches_the_jobs2_golden",
         _ORACLES + "parallel_search_starts_no_more_workers_than_branches"],
    ),
    Mutant(
        # a fork failure still kills; a failing share of the caller does not
        "search_failing_caller_kills_no_worker",
        "oracles.py",
        "    except BaseException:\n        import signal",
        "    except OSError:\n        import signal",
        [_ORACLES + "a_failing_caller_share_kills_and_reaps_its_worker"],
    ),
    # oracles._vertex_max: Bob's best response to each of Alice's functions
    Mutant(
        "vertex_max_one_y_for_every_b",
        "oracles.py",
        "        sum(\n"
        "            max(sum(scaled[(a, b, fa[a], y)] for a in on_b) for y in outs_y)\n"
        "            for b, on_b in alices.items()\n"
        "        )\n",
        "        max(\n"
        "            sum(sum(scaled[(a, b, fa[a], y)] for a in on_b) for b, on_b in alices.items())\n"
        "            for y in outs_y\n"
        "        )\n",
        [_VERTEX_MAX],
    ),
    Mutant(
        "vertex_max_best_response_over_a",
        "oracles.py",
        "        alices.setdefault(b, []).append(a)\n"
        "    outs_y = range(game.qY)\n"
        "    best = max(\n"
        "        sum(\n"
        "            max(sum(scaled[(a, b, fa[a], y)] for a in on_b) for y in outs_y)\n"
        "            for b, on_b in alices.items()\n",
        "        alices.setdefault(a, []).append(b)\n"
        "    outs_y = range(game.qY)\n"
        "    best = max(\n"
        "        sum(\n"
        "            max(sum(scaled[(a, b, fa[a], y)] for b in on_a) for y in outs_y)\n"
        "            for a, on_a in alices.items()\n",
        [_VERTEX_MAX, _ORACLES + "ns_box_certificate_matches_the_fraction_tableau"],
    ),
    Mutant(
        "vertex_max_counts_every_b",
        "oracles.py",
        "            for b, on_b in alices.items()\n",
        "            for b, on_b in ((b, alices.get(b, [])) for b in range(game.qB))\n",
        [_VERTEX_MAX, "tests/test_oracles.py", "tests/test_perfbench_goldens.py"],
        equivalent="a b with no promise pair adds the max over y of an empty sum, 0, "
        "and every b of pr, chained(m) and the magic square has a promise pair",
    ),
    # complexity.EstimateStore: its key and its oldest-first byte budget
    Mutant(
        "store_refuses_past_the_budget",
        "complexity.py",
        "if key in self.points or point.footprint > self.BUDGET:",
        "if key in self.points or point.footprint > self.BUDGET - self._bytes:",
        [*_MODEL_CHECK, _RESUME + "the_store_stays_within_its_byte_budget",
         _RESUME + "a_run_past_the_budget_resumes_as_an_unbounded_store_would"],
    ),
    Mutant(
        # the newest point is the one just kept, so this refuses it too
        "store_evicts_the_newest",
        "complexity.py",
        "self.points.pop(next(iter(self.points)))",
        "self.points.pop(next(reversed(self.points)))",
        [*_MODEL_CHECK, _RESUME + "the_store_stays_within_its_byte_budget",
         _RESUME + "a_run_past_the_budget_resumes_as_an_unbounded_store_would"],
    ),
    Mutant(
        "store_counts_a_rekept_point_twice",
        "complexity.py",
        "if key in self.points or point.footprint > self.BUDGET:",
        "if point.footprint > self.BUDGET:",
        [*_MODEL_CHECK, _RESUME + "a_point_kept_again_is_counted_once"],
    ),
    Mutant(
        "store_find_skips_the_whole_string",
        "complexity.py",
        "key[4] <= len(symbols)",
        "key[4] < len(symbols)",
        _MODEL_CHECK,
    ),
    Mutant(
        "store_key_without_the_period",
        "complexity.py",
        "q, period, len(symbols), _digest(symbols)",
        "q, 1, len(symbols), _digest(symbols)",
        _MODEL_CHECK,
    ),
    # experiments.run_locality_suite: one store for its three cases
    Mutant(
        "locality_suite_case_without_the_store",
        "experiments.py",
        "lam, estimator, thresholds, store)",
        "lam, estimator, thresholds)",
        ["tests/test_experiments.py::test_a_run_codes_each_string_once"],
    ),
]
