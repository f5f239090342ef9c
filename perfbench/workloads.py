"""The benchmark's three closed-loop workloads.

Each workload builds its pinned inputs from the seed when it is constructed
(this is part of the measured set-up), then lists one cycle of operations.
An operation's ``run`` is the timed call into the toolkit; its ``verify`` is
untimed, raises ``CheckFailed`` when the output breaks an invariant that
holds for every seed, and returns the record that ``goldens.json`` pins.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from spans import ESTIMATOR_IDS, literal_bits


class CheckFailed(Exception):
    """An operation's output is wrong."""


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    verify: Callable[[object], dict]
    spawns: bool = False  # starts worker processes


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _toolkit_seed(nl, seed: int):
    # Seed.from_int takes 0 <= v < 2**256; the bench accepts any integer
    return nl.strings.Seed.from_int(seed % (1 << 64))


# --- experiments -----------------------------------------------------------------


def _jsonl_check(which: str, expect: Callable[[dict, dict], None]):
    def check(files: dict, stdout: str) -> None:
        lines = [json.loads(line) for line in files[f"{which}.jsonl"].splitlines()]
        header = lines[0]
        _expect(header.get("kind") == "header", "first JSONL line is not a header")
        _expect(header.get("experiment") == which, f"header names {header.get('experiment')}")
        rows = {r["quantity"]: r for r in lines if r.get("kind") == "row"}
        _expect(bool(rows), "report has no rows")
        csv_rows = files[f"{which}.csv"].decode().splitlines()
        _expect(csv_rows[0] == "experiment,quantity,n,value,rate,class", "bad CSV header")
        _expect(len(csv_rows) == len(rows) + 1, "CSV and JSONL row counts differ")
        expect(header, rows)

    return check


def _won_every_round(header, rows):
    _expect(rows["satisfaction"]["value"] == "1/1", "the no-signaling sampler lost a round")


def _verdict(expected: str):
    def check(header, rows):
        _expect(header["verdict"].endswith(expected), f"verdict {header['verdict']!r}")

    return check


def _play_check(files: dict, stdout: str) -> None:
    _expect(json.loads(stdout)["satisfaction"] == "1/1", "the no-signaling sampler lost a round")


def _json_check(estimator: str, key: str):
    def check(files: dict, stdout: str) -> None:
        (blob,) = files.values()
        payload = json.loads(blob)
        _expect(payload["estimator"] == estimator, f"estimator {payload['estimator']!r}")
        _expect(key in payload, f"missing {key!r}")

    return check


class Experiments:
    """``nlbox exp`` and the tester subcommands, called as argv through
    ``nonlocality.cli.main`` in this process."""

    name = "experiments"
    cycle_s = 20  # wall seconds of one cycle on the reference machine
    N_QUAD = 1 << 14

    def __init__(self, nl, seed: int, work: Path) -> None:
        self.nl = nl
        self.work = work
        self.seed = str(seed % (1 << 64))
        s = _toolkit_seed(nl, seed)
        pr = nl.games.GameSpec.pr()
        a = nl.strings.gen_seeded_random(self.N_QUAD, 2, s.derive("a"))
        b = nl.strings.gen_seeded_random(self.N_QUAD, 2, s.derive("b"))
        nl.strings.write_syms(work / "a.syms", a)
        nl.strings.write_syms(work / "b.syms", b)
        # the witness is the output pair `play` will produce from this seed
        x, y = nl.games.play(
            nl.games.NoSignalingSampler(), pr, a, b, nl.strings.Seed.from_int(int(self.seed))
        )
        nl.strings.write_syms(work / "witness.syms", nl.strings.interleave(x, y))

    def _cli(self, name: str, argv: list, outputs: tuple, check) -> Op:
        nl = self.nl
        work = self.work

        def run():
            # a fresh nlbox process starts with an empty estimate cache
            nl.complexity.clear_cache()
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = nl.cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        def verify(raw) -> dict:
            rc, stdout, stderr = raw
            _expect(rc == 0, f"exit code {rc}: {stderr.strip()}")
            blobs = {p: (work / p).read_bytes() for p in outputs}
            check(blobs, stdout)
            return {
                "files": {p: _sha(v) for p, v in blobs.items()},
                "stdout": _sha(stdout.encode()),
                "bytes": sum(map(len, blobs.values())) + len(stdout.encode()),
            }

        return Op(name, run, verify)

    def _exp(self, which: str, estimator: str, extra: list, expect) -> Op:
        w = str(self.work)
        argv = ["exp", "--which", which, "--estimator", estimator, "--seed", self.seed]
        argv += extra + ["--out", f"{w}/{which}.jsonl", "--csv", f"{w}/{which}.csv"]
        outputs = (f"{which}.jsonl", f"{which}.csv")
        return self._cli(f"exp:{which}:{estimator}", argv, outputs, _jsonl_check(which, expect))

    def ops(self) -> list[Op]:
        w = str(self.work)
        quad = f"{w}/quad/quad.json"
        n14, n15 = str(1 << 14), str(1 << 15)
        return [
            self._exp("theorem1", "lz77", ["--n", n14], _won_every_round),
            self._exp("theorem2", "ctx_2", ["--n", n15], _won_every_round),
            self._exp(
                "theorem3", "lz78", ["--m", "8", "--n", n15, "--eps", "1/64"],
                _verdict("beats_classical"),
            ),
            self._exp("magic_square", "ctx_2", ["--n", n14], _verdict("wins_always")),
            # the sampler with an empty witness is never witnessed local
            self._exp("locality_suite", "ctx_2", ["--n", n14], _verdict(",NotWitnessed")),
            self._cli(
                "play:pr:nosig",
                ["play", "--game", "pr", "--strategy", "nosig", "--a", f"{w}/a.syms",
                 "--b", f"{w}/b.syms", "--seed", self.seed, "--out-dir", f"{w}/quad"],
                ("quad/quad.json", "quad/quad.x.syms", "quad/quad.y.syms"),
                _play_check,
            ),
            self._cli(
                "nosig:lz77",
                ["nosig", "--quad", quad, "--estimator", "lz77", "--out", f"{w}/nosig.json"],
                ("nosig.json",),
                _json_check("lz77", "passes"),
            ),
            self._cli(
                "locality:witness:ctx_0",
                ["locality", "--quad", quad, "--witness", f"{w}/witness.syms",
                 "--estimator", "ctx_0", "--out", f"{w}/locality.json"],
                ("locality.json",),
                _json_check("ctx_0", "verdict"),
            ),
        ]


# --- codec -----------------------------------------------------------------------


class Codec:
    """``Estimator.encode`` then ``decode`` through every built-in estimator,
    bypassing ``complexity`` and its cache."""

    name = "codec"
    cycle_s = 6
    N = 1 << 15
    N_ROUNDS = 1 << 14

    def __init__(self, nl, seed: int, work: Path) -> None:
        self.nl = nl
        s = _toolkit_seed(nl, seed)
        st, gm = nl.strings, nl.games
        sampler = gm.NoSignalingSampler()
        pr, ms = gm.GameSpec.pr(), gm.GameSpec.magic_square()
        a = st.gen_seeded_random(self.N_ROUNDS, 2, s.derive("pr-a"))
        b = st.gen_seeded_random(self.N_ROUNDS, 2, s.derive("pr-b"))
        x, _ = gm.play(sampler, pr, a, b, s.derive("pr-sampler"))
        ma = st.gen_seeded_random(self.N_ROUNDS, 3, s.derive("ms-a"))
        mb = st.gen_seeded_random(self.N_ROUNDS, 3, s.derive("ms-b"))
        mx, _ = gm.play(sampler, ms, ma, mb, s.derive("ms-sampler"))
        ca, cb = st.gen_promise_inputs(8, self.N_ROUNDS, s.derive("promise"))
        # (name, string, period): random input takes the literal path, the
        # structured ones drive the real coders and decoders
        self.corpus = (
            ("random_q2", st.gen_seeded_random(self.N, 2, s.derive("random")), 1),
            ("thue_morse", st.gen_computable("thue_morse", self.N), 1),
            ("woven_pr_abx", st.interleave(a, b, x), 3),
            ("magic_square_x_q4", mx, 1),
            ("chained8_ab_q8", st.interleave(ca, cb), 2),
        )
        self.registry = nl.estimators.default_registry()

    def _op(self, est, label: str, s, period: int) -> Op:
        nl = self.nl

        def run():
            bits, blob = est.encode(s.data, s.q, period)
            q, data = est.decode(blob)
            return bits, blob, q, data

        def verify(raw) -> dict:
            bits, blob, q, data = raw
            _expect(q == s.q and data == s.data, "decoder round-trip mismatch")
            _expect(bits <= literal_bits(nl, s.q, s.n, period), "longer than the literal mode")
            _expect(len(blob) == (bits + 7) // 8, "blob length disagrees with the bit count")
            return {"bits": bits, "blob": _sha(blob)}

        return Op(f"{est.estimator_id}:{label}", run, verify)

    def ops(self) -> list[Op]:
        return [
            self._op(self.registry[est], label, s, period)
            for label, s, period in self.corpus
            for est in ESTIMATOR_IDS
        ]


# --- oracles ---------------------------------------------------------------------


class Oracles:
    """Exact queries: branch-and-bound game values and the Fraction simplex.
    The chained(4) reps=2 query with jobs=2 is the only operation of the
    whole benchmark that starts processes (two workers).

    The inputs are the games themselves, so they do not depend on the seed;
    the seed only shuffles the order of the cycle. (The cost of one
    membership query can vary fourfold between deterministic points, so a
    seeded point would make runs with different seeds do different work.)"""

    name = "oracles"
    cycle_s = 15

    def __init__(self, nl, seed: int, work: Path) -> None:
        self.nl = nl
        self.seed = seed
        O, G = nl.oracles, nl.games.GameSpec
        F = Fraction
        self.games = [G.pr(), G.magic_square()] + [G.chained(m) for m in range(2, 9)]
        pr, ch5 = G.pr(), G.chained(5)
        ch5_tables = ((1, 1, 0, 0, 0), (0, 0, 0, 0, 0))
        tables = ((0, 0), (0, 1), (1, 0), (1, 1))
        self.vertices = [
            (
                f"pr_vertex_{fa[0]}{fa[1]}_{fb[0]}{fb[1]}",
                O.deterministic_distribution(pr, fa, fb),
                (fa, fb),
            )
            for fa in tables
            for fb in tables
        ]
        self.vertices.append(
            ("chained5_vertex", O.deterministic_distribution(ch5, *ch5_tables), ch5_tables)
        )
        self.coins = O.Distribution(
            pr, {(a, b, x, y): F(1, 4) for a in range(2) for b in range(2)
                 for x in range(2) for y in range(2)}
        )
        self.boxes = [("pr_box", O.pr_box_distribution()), ("chained5_box", _ns_box(O, ch5))]

    def _value(self, game, reps: int = 1, jobs: int = 1, expected: Fraction | None = None) -> Op:
        O = self.nl.oracles
        if expected is None:
            expected = {"pr": Fraction(3, 4), "magic_square": Fraction(8, 9)}.get(
                game.kind, 1 - Fraction(1, 2 * game.m)
            )

        def run():
            res = O.game_value_exact(game, reps=reps, jobs=jobs)
            return res, O.replay_witness(game, res)

        def verify(raw) -> dict:
            res, replay = raw
            _expect(replay == res.value, f"witness replays to {replay}, not {res.value}")
            _expect(res.value == expected, f"value {res.value}, expected {expected}")
            return {
                "value": _frac(res.value),
                "fa": [list(v) for v in res.fa],
                "fb": [list(v) for v in res.fb],
                "nodes": res.nodes,
                "prunes": res.prunes,
            }

        name = f"value:{game.label()}" + (f":reps{reps}" if reps > 1 else "")
        return Op(name + (f":jobs{jobs}" if jobs > 1 else ""), run, verify, spawns=jobs > 1)

    def _fine(self, name: str, dist, local: bool, vertex=None) -> Op:
        O = self.nl.oracles

        def verify(res) -> dict:
            _expect(res.local == local, f"membership {res.local}, expected {local}")
            if local:
                _check_weights(dist, res.weights, vertex)
                weights = [[_frac(w), list(a), list(b)] for w, a, b in res.weights]
                return {"local": True, "weights": weights}
            _check_certificate(O, dist, res)
            cert = json.dumps(sorted((list(k), _frac(v)) for k, v in res.certificate.items()))
            return {
                "local": False,
                "value_on_dist": _frac(res.value_on_dist),
                "vertex_max": _frac(res.vertex_max),
                "certificate": _sha(cert.encode()),
            }

        return Op(f"fine:{name}", lambda: O.fine_membership(dist), verify)

    def _marginals(self, no_signaling: bool, expected: tuple) -> Op:
        O = self.nl.oracles

        def verify(res) -> dict:
            _expect(tuple(res) == expected, f"marginal extremes {res}, expected {expected}")
            return {"min": _frac(res[0]), "max": _frac(res[1])}

        name = "marginals:" + ("no_signaling" if no_signaling else "signaling")
        return Op(name, lambda: O.marginal_extremes(Fraction(1), no_signaling), verify)

    def ops(self) -> list[Op]:
        G = self.nl.games.GameSpec
        F = Fraction
        ops = [self._value(g) for g in self.games]
        ops += [
            self._value(G.pr(), reps=2, expected=F(5, 8)),
            self._value(G.chained(3), reps=2, expected=F(3, 4)),
            self._value(G.chained(4), reps=2, expected=F(13, 16)),
            self._value(G.chained(4), reps=2, jobs=2, expected=F(13, 16)),
        ]
        ops += [self._fine(name, d, True, v) for name, d, v in self.vertices]
        ops.append(self._fine("fair_coins", self.coins, True))
        ops += [self._fine(name, d, False) for name, d in self.boxes]
        ops.append(self._marginals(True, (F(1, 2), F(1, 2))))
        ops.append(self._marginals(False, (F(0), F(1))))
        random.Random(self.seed).shuffle(ops)
        return ops


def _ns_box(O, game):
    """The no-signaling box that wins every round of an XOR game."""
    p = {}
    for a, b in game.promise_pairs():
        for x in range(2):
            p[(a, b, x, x ^ game.target_bit(a, b))] = Fraction(1, 2)
    return O.Distribution(game, p)


def _check_weights(dist, weights, vertex) -> None:
    _expect(all(w > 0 for w, _, _ in weights), "non-positive weight")
    _expect(sum(w for w, _, _ in weights) == 1, "weights do not sum to 1")
    if vertex is not None:
        # a deterministic point is an extreme point: its only decomposition
        # is itself with weight 1
        _expect([(w, tuple(a), tuple(b)) for w, a, b in weights] == [(1, *vertex)],
                "vertex not decomposed into itself")
    recon = {}
    for w, fa, fb in weights:
        for a, b in dist.game.promise_pairs():
            key = (a, b, fa[a], fb[b])
            recon[key] = recon.get(key, 0) + w
    for key in set(recon) | {k for k, v in dist.p.items() if v}:
        _expect(recon.get(key, 0) == dist.prob(*key), f"weights miss {key}")


def _check_certificate(O, dist, res) -> None:
    """Re-derive both sides of the separating inequality independently."""
    cert = res.certificate
    value = sum(c * dist.prob(*row) for row, c in cert.items())
    _expect(value == res.value_on_dist, "certificate value on the distribution differs")
    fas, fbs = O.local_vertices(dist.game)
    pairs = dist.game.promise_pairs()
    vmax = max(
        sum(cert[(a, b, fa[a], fb[b])] for a, b in pairs) for fa in fas for fb in fbs
    )
    _expect(vmax == res.vertex_max, "certificate vertex maximum differs")
    _expect(value > vmax, "certificate does not separate")


WORKLOADS = {w.name: w for w in (Experiments, Codec, Oracles)}
