"""Re-derive the recorded genus-2 fixture arcs W1, W2, W3.

The three arcs completing the genus-2 U-identity

    U1 U2 = y1 W1 + x7 + y8 X1 + y1 y8 W2 + y1 y5 y6 y7 W3 x1

are not forced by the crossing data of U1, U2 alone; this script finds them
by exhaustive search over all arcs of crossing length <= 12, keeping only
candidates termwise dominated by the residual under their coefficient
prefixes.  The result is unique and frozen in clusterlab.verify; rerun with

    python tools/derive_fixtures.py

to confirm: it exits 1 if the result differs from the recorded arcs.  The
README's Tools section gives its run time.
"""

import time

from clusterlab.algebra import NotDivisible
from clusterlab.errors import ClusterlabError
from clusterlab.snake import build_snake, expand
from clusterlab.surface import ArcCrossing
from clusterlab.verify import GENUS2_ARCS, _fixture_polys, _x, _y

MAX_LEN = 12


def main():
    T, polys = _fixture_polys(2)
    n = T.n_arcs
    pre2 = _y(n, (8, 1))
    residual = (polys["U1"] * polys["U2"] - _x(7, n) - pre2 * polys["X1"]).div_exact(_y(n, (1, 1)))
    pre3 = _y(n, (5, 1), (6, 1), (7, 1)) * _x(1, n)

    def dominated(p, ref):
        return all(ref.terms.get(k, 0) >= c for k, c in p.terms.items())

    cands_w1, cands_w2, cands_w3 = {}, {}, {}

    def consider(seq, tri0):
        try:
            e = expand(build_snake(T, ArcCrossing(seq, start_triangle=tri0)))
        except ClusterlabError:  # a walk clusterlab rejects is no candidate
            return
        # setdefault keeps the first walk found for each expansion
        if dominated(e, residual):
            cands_w1.setdefault(e, seq)
        if dominated(pre2 * e, residual):
            cands_w2.setdefault(e, seq)
        if dominated(pre3 * e, residual):
            cands_w3.setdefault(e, seq)

    t0 = time.time()
    for tri0, seq, _ in T.arc_walks(MAX_LEN):
        consider(seq, tri0)
    print(
        f"candidates: W1 {len(cands_w1)}, W2 {len(cands_w2)}, W3 {len(cands_w3)} "
        f"({time.time() - t0:.0f}s)"
    )

    solutions = []
    for e1, s1 in cands_w1.items():
        rem1 = residual - e1
        for e3, s3 in cands_w3.items():
            rem2 = rem1 - pre3 * e3
            if not rem2.coefficients_positive():
                continue
            try:
                w2 = rem2.div_exact(pre2)
            except NotDivisible:
                continue
            # e1 and pre3 * e3 have positive coefficients, so pre2 * w2 = rem2
            # is termwise below the residual and w2 is a W2 candidate if seen
            if w2 in cands_w2:
                solutions.append((s1, cands_w2[w2], s3))
    for s1, s2, s3 in solutions:
        print(f"W1 = {s1}\nW2 = {s2}\nW3 = {s3}")
    if solutions != [(GENUS2_ARCS["W1"], GENUS2_ARCS["W2"], GENUS2_ARCS["W3"])]:
        raise SystemExit("derived fixtures differ from the recorded W1, W2, W3")
    print("frozen fixtures confirmed")


if __name__ == "__main__":
    main()
