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
    # complexity.EstimateStore: its key and its least-recently-used policy
    Mutant(
        "store_evicts_at_the_limit",
        "complexity.py",
        "while len(self.points) > self.LIMIT",
        "while len(self.points) >= self.LIMIT",
        _MODEL_CHECK,
    ),
    Mutant(
        "store_find_does_not_renew",
        "complexity.py",
        "                self.points.move_to_end(key)\n",
        "",
        _MODEL_CHECK,
    ),
    Mutant(
        "store_replaced_point_still_counted",
        "complexity.py",
        "            self._bytes -= old.footprint\n",
        "            pass\n",
        _MODEL_CHECK,
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
