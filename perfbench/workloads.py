"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (the set-up
that ``setup_s`` times), runs one timed pass with ``run_pass`` and checks the
pass's outputs with ``check``, outside the timed region.  ``run_pass``
appends the time of each part of the pass (an item, or for ``verify_all`` a
case) to the list it is given, in the same order on every pass, so that the
benchmark can take each part's median over the passes of a run.  An
exception inside a pass is kept as that item's output, so the item is timed
like any other and then counted as failed.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from clusterlab import algebra, mutation, snake, surface, verify

HERE = Path(__file__).resolve().parent

# sha256 over "tri0|seq|serialize()" lines of every swept arc, sorted by arc;
# recorded from the expansions at the commit that added the benchmark.
ARC_SWEEP_GOLDEN = "05fc1694e99e1d731c19e38c54157e049b1b1942ee402cf70366f797900ea7ce"
ARC_SWEEP_MAX_LEN = 8
ARC_SWEEP_ORACLE_SAMPLE = 24

# (genus, k values): band graphs of 79 to 9,198 matchings.  The genus-1
# 5-fold bracelet (55,449 matchings) is left out: it alone took about 2 s,
# and a part that long cannot be timed steadily on a shared machine.
BRACELETS = ((1, (2, 3, 4)), (2, (2, 3)), (3, (2,)))

# (genus, sequences, length): long enough that products and exact divisions
# dominate, short enough that no single sequence's cost swamps a pass.  Random
# walks of length 6 at genus 1 or 10 at genus 2 have a heavy cost tail, which
# made the work of a pass depend on the seed.
MUTATION_WALKS = ((1, 500, 5), (2, 600, 8), (3, 400, 10))


class ArcSweep:
    """Every genus-2 arc of crossing length <= 8 from every start triangle,
    built and expanded with principal coefficients, in a seeded order."""

    name = "arc_sweep"
    item_latency = True

    def __init__(self, seed, golden=ARC_SWEEP_GOLDEN):
        self.golden = golden
        self.T = T = surface.builtin_genus2()
        arcs = []

        def rec(tri0, tri, seq):
            arcs.append(surface.ArcCrossing(tuple(seq), start_triangle=tri0))
            if len(seq) < ARC_SWEEP_MAX_LEN:
                for s in T.triangles[tri]:
                    if s.is_arc and s.index != seq[-1]:
                        rec(tri0, T.other_triangle(s.index, tri), seq + [s.index])

        for tri0, tri in enumerate(T.triangles):
            for s in tri:
                if s.is_arc:
                    rec(tri0, T.other_triangle(s.index, tri0), [s.index])
        rng = random.Random(seed)
        rng.shuffle(arcs)
        self.arcs = arcs
        self.oracle_sample = rng.sample(arcs, ARC_SWEEP_ORACLE_SAMPLE)
        self._oracle = None  # brute-force matching count of each sampled arc
        self.items_per_pass = len(arcs)

    def run_pass(self, latencies):
        T, clock, out = self.T, time.perf_counter, {}
        for arc in self.arcs:
            t0 = clock()
            try:
                out[arc] = snake.expand(snake.build_snake(T, arc))
            except Exception as exc:
                out[arc] = exc
            latencies.append(clock() - t0)
        return out

    def check(self, out):
        """(failed items, problems).  A digest mismatch fails the whole pass,
        since it cannot name the arcs that changed.  The brute-force counts
        are computed once and compared with every pass."""
        problems = []
        bad = {a for a, p in out.items() if isinstance(p, Exception)}
        for a in sorted(bad, key=_arc_key)[:3]:
            problems.append(f"arc {_arc_key(a)} raised {out[a]!r}")
        if arc_digest(out) != self.golden:
            problems.append("expansion digest differs from the recorded golden value")
            bad = set(out)
        if self._oracle is None:
            self._oracle = {a: len(snake.all_matchings_bruteforce(snake.build_snake(self.T, a)))
                            for a in self.oracle_sample}
        for a in self.oracle_sample:
            if a in bad:
                continue
            count, oracle = sum(out[a].terms.values()), self._oracle[a]
            if count != oracle:
                problems.append(f"arc {_arc_key(a)}: {count} matchings, brute force {oracle}")
                bad.add(a)
        return len(bad), problems


def _arc_key(arc):
    return f"{arc.start_triangle}|{','.join(map(str, arc.sequence))}"


def arc_digest(out):
    lines = sorted(
        f"{_arc_key(a)}|{p.serialize() if isinstance(p, algebra.LaurentPolynomial) else 'error'}"
        for a, p in out.items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Bracelets:
    """k-fold boundary bracelets (genus 1, k = 2..4; genus 2, k = 2..3;
    genus 3, k = 2), expanded with trivial coefficients: a few large band
    graphs."""

    name = "bracelets"
    item_latency = False

    def __init__(self, seed):
        rng = random.Random(seed)
        self.items = []
        for g, ks in BRACELETS:
            T = surface.builtin_genus(g)
            loop = T.boundary_loop()
            seq = loop.cyclic_sequence
            # the seed picks the start triangle among those where the loop's
            # walk closes up (for the builtin surfaces there is exactly one)
            valid = [t for t in range(len(T.triangles)) if _closes(T, seq, t)]
            t0 = rng.choice(valid)
            self.items += [(T, loop, k, t0) for k in ks]
        rng.shuffle(self.items)
        self.items_per_pass = len(self.items)
        self._single = {}

    def run_pass(self, latencies):
        clock, out = time.perf_counter, []
        for T, loop, k, t0 in self.items:
            start = clock()
            try:
                out.append(snake.expand_band(snake.build_band(T, loop.repeated(k), t0), "trivial"))
            except Exception as exc:
                out.append(exc)
            latencies.append(clock() - start)
        return out

    def check(self, out):
        """Zero-test each bracelet against the Chebyshev polynomial T_k of
        the single loop."""
        failed, problems = 0, []
        for (T, loop, k, t0), p in zip(self.items, out):
            if isinstance(p, Exception):
                failed += 1
                problems.append(f"genus {T.genus} k={k} raised {p!r}")
                continue
            key = (T.genus, t0)
            if key not in self._single:
                self._single[key] = snake.expand_band(snake.build_band(T, loop, t0), "trivial")
            try:
                ok = (p - algebra.chebyshev(k, self._single[key])).is_zero()
            except algebra.RankMismatch:
                ok = False
            if not ok:
                failed += 1
                problems.append(f"genus {T.genus} k={k}: bracelet != T_{k}(L)")
        return failed, problems


def _closes(T, seq, t):
    try:
        T.triangle_walk(seq, t, loop=True)
        return True
    except surface.SurfaceError:
        return False


class MutationWalk:
    """Seeded random mutation sequences on the genus-1, -2 and -3 initial
    seeds; every step is one item."""

    name = "mutation_walk"
    item_latency = True

    def __init__(self, seed):
        rng = random.Random(seed)
        self.walks = []
        for g, count, length in MUTATION_WALKS:
            T = surface.builtin_genus(g)
            s0 = mutation.initial_seed(T.exchange_matrix())
            n = T.n_arcs
            for _ in range(count):
                seq = [rng.randint(1, n)]
                while len(seq) < length:
                    # an immediate repeat would undo the previous step
                    k = rng.randint(1, n)
                    if k != seq[-1]:
                        seq.append(k)
                self.walks.append((s0, tuple(seq), rng.randint(1, n)))
        rng.shuffle(self.walks)
        self.items_per_pass = sum(len(seq) for _, seq, _ in self.walks)
        self._checked = None  # fingerprints of the final seeds of a checked pass

    def run_pass(self, latencies):
        clock, mutate, out = time.perf_counter, mutation.mutate, []
        for s, seq, _ in self.walks:
            try:
                for k in seq:
                    t0 = clock()
                    s = mutate(s, k)
                    latencies.append(clock() - t0)
            except Exception as exc:
                latencies.append(clock() - t0)
                s = exc
            out.append(s)
        return out

    def check(self, out):
        """Positivity of every cluster variable and the involution
        mutate(mutate(s, k), k) == s after each sequence; a failed sequence
        fails all of its steps.  Those checks cost most of a pass, so once a
        pass has passed them, each later pass must instead reproduce that
        pass's final seeds exactly, sequence by sequence."""
        if self._checked is not None:
            return self._compare(out)
        failed, problems = 0, []
        for (_, seq, k), s in zip(self.walks, out):
            if isinstance(s, Exception):
                why = f"raised {s!r}"
            elif not all(v.coefficients_positive() for v in s.cluster):
                why = "negative coefficient"
            elif not _involutive(s, k):
                why = f"involution fails at {k}"
            else:
                continue
            failed += len(seq)
            if len(problems) < 3:
                problems.append(f"sequence {seq}: {why}")
        if not failed:
            self._checked = [_fingerprint(s) for s in out]
        return failed, problems

    def _compare(self, out):
        failed, problems = 0, []
        for (_, seq, _), s, checked in zip(self.walks, out, self._checked):
            if isinstance(s, Exception):
                why = f"raised {s!r}"
            elif _fingerprint(s) != checked:
                why = "final seed differs from the checked pass"
            else:
                continue
            failed += len(seq)
            if len(problems) < 3:
                problems.append(f"sequence {seq}: {why}")
        return failed, problems


def _fingerprint(seed):
    """sha256 of a seed's exchange matrix, cluster and coefficients."""
    text = "|".join([repr(seed.B), *(p.serialize() for p in seed.cluster),
                     repr(tuple(y.exps for y in seed.coeffs))])
    return hashlib.sha256(text.encode()).digest()


def _involutive(s, k):
    try:
        return mutation.mutate(mutation.mutate(s, k), k) == s
    except mutation.MutationError:
        return False


class VerifyAll:
    """``clusterlab verify all --json --seed s`` in a fresh interpreter per
    pass, as users run it; each pass hands the CLI the next fuzz seed drawn
    from the benchmark seed."""

    name = "verify_all"
    item_latency = False

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.items_per_pass = len(verify.CASES)
        self.child_rss_kb = []

    def run_pass(self, latencies, spans_path=None):
        cmd = [sys.executable, str(HERE / "child.py"), "verify", str(self.rng.randrange(2**31))]
        if spans_path:
            cmd.append(str(spans_path))
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        except subprocess.TimeoutExpired:  # the child was killed; its pass fails
            return subprocess.CompletedProcess(cmd, None, "", "timed out after 150 s")
        try:  # the CLI reports each case's time; check() judges the report
            latencies.extend(r["elapsed_ms"] / 1000 for r in json.loads(proc.stdout))
        except (ValueError, KeyError, TypeError):
            pass
        return proc

    def check(self, proc):
        """Exit code 0 and one "pass" record per case; a crashed or
        unreadable run fails every case of the pass."""
        err = proc.stderr.strip().splitlines() or [""]
        try:
            self.child_rss_kb.append(json.loads(err[-1])["maxrss_kb"])
            err.pop()
        except (ValueError, KeyError, TypeError):
            pass
        try:
            records = json.loads(proc.stdout)
        except ValueError:
            why = err[-1][:200] if err else ""
            return self.items_per_pass, [f"exit {proc.returncode}, no JSON report: {why}"]
        problems = [f"{r.get('name')}: {r.get('status')} {r.get('detail', '')}"
                    for r in records if r.get("status") != "pass"]
        failed = len(problems) + max(0, self.items_per_pass - len(records))
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
            failed = max(failed, 1)
        return failed, problems


WORKLOADS = {w.name: w for w in (VerifyAll, ArcSweep, Bracelets, MutationWalk)}
