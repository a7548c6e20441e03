import hashlib
import json
from collections import Counter, defaultdict

import pytest

from clusterlab.algebra import LaurentPolynomial as LP
from clusterlab.algebra import chebyshev, term_codec
from clusterlab.mutation import initial_seed, mutate
from clusterlab.snake import (
    _EDGE_CORNERS,
    MatchingGraph,
    SnakeError,
    Tile,
    all_matchings_bruteforce,
    build_band,
    build_snake,
    expand,
    expand_band,
    trim_to_band,
)
from clusterlab.surface import (
    ArcCrossing,
    LoopCrossing,
    SurfaceError,
    annulus_fixture,
    boundary,
    builtin_genus,
    builtin_genus1,
    builtin_genus2,
    turn,
)


def _flip_expansion(G, coeffs):
    """The oracle for `expand`/`expand_band`: sum x(P) y(P) over the flip
    enumeration, each matching's x-exponents read off its mask."""
    n = G.n_arcs
    ny = n if coeffs == "principal" else 0
    codec = term_codec(n + ny)
    denom = [0] * n
    for a in G.crossings:
        denom[a - 1] += 1
    terms = {}
    masks = G.enumerate_masks()
    for mask, hv in masks:
        xe = [c - dn for c, dn in zip(G.mask_x_exps(mask), denom)]
        key = codec.pack(xe + list(hv[:ny]))
        terms[key] = terms.get(key, 0) + 1
    return LP.from_packed(n, ny, terms, max(len(G.edges), len(G.crossings), len(masks)))


def _random_arc(data, st, T):
    """A random crossing sequence of length <= 8 and its start triangle: one
    side per step, never recrossing the arc just crossed."""
    tri0 = tri = data.draw(st.integers(0, len(T.triangles) - 1))
    seq = ()
    for _ in range(data.draw(st.integers(1, 8))):
        sides = [s.index for s in T.triangles[tri] if s.is_arc and s.index not in seq[-1:]]
        a = data.draw(st.sampled_from(sides))
        seq, tri = seq + (a,), T.other_triangle(a, tri)
    return ArcCrossing(seq, start_triangle=tri0)


def fixture_snakes():
    T1, T2 = builtin_genus1(), builtin_genus2()
    return [
        build_snake(T1, ArcCrossing(seq))
        for seq in ((1,), (1, 3), (4, 2), (3, 4), (4, 2, 1, 4), (3, 1, 2, 3))
    ] + [
        build_snake(T2, ArcCrossing(seq))
        for seq in ((8, 9, 10, 2), (10, 4, 6, 3), (3, 6, 4, 10, 1, 5, 6, 7),
                    (5, 6, 7, 8, 3, 6, 4, 10), (8, 9, 10, 2, 1, 10, 4, 6, 3, 8))
    ]


def fixture_bands():
    T1, T2, A = builtin_genus1(), builtin_genus2(), annulus_fixture()
    T3 = builtin_genus(3)
    return [
        build_band(A, LoopCrossing((1, 2))),
        build_band(A, LoopCrossing((1, 2)).repeated(2)),
        build_band(A, LoopCrossing((1, 2)).repeated(3)),
        trim_to_band(build_snake(T1, ArcCrossing((4, 2, 1, 4)))),
        build_band(T1, T1.boundary_loop()),
        build_band(T1, T1.boundary_loop().repeated(2)),
        build_band(T1, T1.boundary_loop().repeated(3)),
        trim_to_band(build_snake(T2, ArcCrossing((8, 9, 10, 2, 1, 10, 4, 6, 3, 8)))),
        build_band(T2, T2.boundary_loop()),
        build_band(T3, T3.boundary_loop()),
    ]


# -- construction ------------------------------------------------------------


def test_tile_counts():
    T = builtin_genus1()
    assert len(build_snake(T, ArcCrossing((1, 3))).tiles) == 2
    assert len(build_snake(T, ArcCrossing((2,))).tiles) == 1
    S = build_snake(T, ArcCrossing((4, 2, 1, 4)))
    assert len(S.tiles) == 4
    assert S.tiles[0].diagonal == 4 and S.tiles[-1].diagonal == 4


def test_band_tile_counts():
    T1, T2, A = builtin_genus1(), builtin_genus2(), annulus_fixture()
    assert len(build_band(T1, T1.boundary_loop()).tiles) == 8
    assert len(build_band(A, LoopCrossing((1, 2))).tiles) == 2
    assert len(build_band(T2, T2.boundary_loop()).tiles) == 20


def test_trim_to_band_tile_counts():
    T1, T2 = builtin_genus1(), builtin_genus2()
    s10 = build_snake(T2, ArcCrossing((8, 9, 10, 2, 1, 10, 4, 6, 3, 8)))
    assert len(trim_to_band(s10).tiles) == 8
    s4 = build_snake(T1, ArcCrossing((4, 2, 1, 4)))
    assert len(trim_to_band(s4).tiles) == 2
    # tile count is always |a| - 2
    for S in (s4, s10):
        assert len(trim_to_band(S).tiles) == len(S.crossings) - 2


def test_trim_to_band_preconditions():
    T = builtin_genus1()
    with pytest.raises(SnakeError):
        trim_to_band(build_snake(T, ArcCrossing((1, 3))))
    with pytest.raises(SnakeError):
        trim_to_band(build_snake(T, ArcCrossing((4, 2, 1))))


@pytest.mark.parametrize(
    "seq, start", [((1, 3), None), ((3, 4), None), ((1, 2), 2), ((1, 2), 1.0), ((1, 2), True)]
)
def test_build_band_rejects_invalid_loops(seq, start):
    T = builtin_genus1()
    with pytest.raises(SnakeError, match=r"does not validate against the triangulation"):
        build_band(T, LoopCrossing(seq), start_triangle=start)


@pytest.mark.parametrize(
    "arc",
    [ArcCrossing((1,), start_triangle=1.0), ArcCrossing((1,), start_triangle="1"),
     ArcCrossing((1,), start_triangle=True), ArcCrossing((1.0, 2)), ArcCrossing((True, 2))],
)
def test_build_snake_rejects_non_int_indices(arc):
    # 1.0 and True would look up as 1 in the surface's tables
    with pytest.raises(SurfaceError, match=r"must be an int, not "):
        build_snake(builtin_genus2(), arc)


def test_band_with_odd_turn_parity_is_an_error():
    with pytest.raises(SnakeError, match=r"does not close up \(odd turn parity\)"):
        build_band(builtin_genus1(), LoopCrossing((1, 4, 3)))


def test_glue_dirs_follow_the_turn_rule():
    # The first glue edge leaves east, and the glue direction changes at a
    # triangle exactly when it turns the same way as the triangle before it.
    n_walks = 0
    for g in (1, 2, 3):
        T = builtin_genus(g)
        for t0, seq, walk in T.arc_walks(6):
            if len(seq) < 2:
                continue
            n_walks += 1
            dirs = build_snake(T, ArcCrossing(seq, start_triangle=t0)).glue_dirs
            assert dirs[0] == "E"
            turns = [turn(T.triangles[walk[j + 1]], seq[j], seq[j + 1])[0]
                     for j in range(len(seq) - 1)]
            for j in range(len(dirs) - 1):
                assert (dirs[j] != dirs[j + 1]) == (turns[j] == turns[j + 1]), (g, t0, seq)
    assert n_walks == 2974


def test_glue_labels_match_third_sides():
    # the shared edge of consecutive tiles carries the third side of the
    # triangle containing both diagonals
    T = builtin_genus1()
    S = build_snake(T, ArcCrossing((4, 2, 1, 4)))
    for j, direction in enumerate(S.glue_dirs):
        e = S.edges[S.tile_edges[j][direction]]
        assert len(e.tiles) == 2
        tri = T.triangles[S.walk[j + 1]]
        sides = {str(s) for s in tri}
        assert str(e.label) in sides


def test_glue_and_wrap_label_mismatches_raise_at_build():
    # the layout checks run when the graph is made, not when its edge
    # tables are first read
    T = builtin_genus1()
    S = build_snake(T, ArcCrossing((4, 2, 1, 4)))
    B = trim_to_band(S)

    def relabel_last(G, direction):
        t = G.tiles[-1]
        labels = tuple((dr, boundary(9) if dr == direction else s) for dr, s in t.labels)
        return G.tiles[:-1] + [Tile(t.diagonal, labels, t.sign, t.diag_corners, t.hor_is_a, t.entry, t.exit)]

    assert S.glue_dirs[-1] == "E" and B.wrap == ("W", "E")
    with pytest.raises(SnakeError, match="sides E of tile 3 and W of tile 4 differ: A2 vs B9"):
        MatchingGraph(T, S.walk, relabel_last(S, "W"))
    with pytest.raises(SnakeError, match="glued sides E of tile 2 and W of tile 1 differ"):
        MatchingGraph(T, B.walk, relabel_last(B, "E"))


def test_a_graph_is_made_from_its_walk_and_tiles():
    # crossings and wrap are read off the tiles, so the graph made from a
    # graph's walk and tiles is that graph
    T = builtin_genus1()
    S = build_snake(T, ArcCrossing((4, 2, 1, 4)))
    graphs = (S, trim_to_band(S), build_band(T, T.boundary_loop().repeated(2)))
    for G, wrap in zip(graphs, (None, ("W", "E"), ("W", "E"))):
        H = MatchingGraph(T, G.walk, G.tiles)
        assert H.wrap == G.wrap == wrap
        assert (H.crossings, H.glue_dirs) == (G.crossings, G.glue_dirs)
        assert H.to_debug_json() == G.to_debug_json()
        run = expand if wrap is None else expand_band
        for coeffs in ("principal", "trivial"):
            assert run(H, coeffs) == run(G, coeffs)


def test_debug_dump_golden():
    T = builtin_genus1()
    S = build_snake(T, ArcCrossing((4, 2, 1, 4)))
    assert not hasattr(S, "no_such_table")  # only the edge tables are built on first read
    data = json.loads(S.to_debug_json())
    assert data["kind"] == "snake"
    assert data["crossings"] == [4, 2, 1, 4]
    assert data["glue_dirs"] == ["E", "N", "E"]
    assert data["tiles"][0]["labels"] == {"S": "A3", "E": "A1", "N": "A2", "W": "B1"}
    B = trim_to_band(S)
    bd = json.loads(B.to_debug_json())
    assert bd["kind"] == "band" and len(bd["tiles"]) == 2
    assert set(bd["wrap"]) == {"first_tile_edge", "last_tile_edge", "label"}


# -- matchings ----------------------------------------------------------------


def test_single_tile_matchings():
    T = builtin_genus1()
    S = build_snake(T, ArcCrossing((1,)))
    ms = S.enumerate_masks()
    assert len(ms) == 2
    weights = sorted(hv for _, hv in ms)
    assert weights == [(0, 0, 0, 0), (1, 0, 0, 0)]
    m0 = S.minimal_mask()
    # the minimal matching is a pair of opposite tile edges and is the
    # unique matching of y-weight 1
    te = S.tile_edges[0]
    assert m0 in (1 << te["S"] | 1 << te["N"], 1 << te["E"] | 1 << te["W"])
    (flat,) = [m for m, hv in ms if hv == (0, 0, 0, 0)]
    assert flat == m0


def test_minimal_matching_two_tile_straight():
    # brute force over the 3 matchings: the minimal avoids the interior edge
    T = builtin_genus1()
    S = build_snake(T, ArcCrossing((1, 3)))
    assert len(all_matchings_bruteforce(S)) == 3
    m0 = S.minimal_mask()
    interior = sum(1 << e.index for e in S.edges if len(e.tiles) == 2)
    assert not (m0 & interior)


def test_three_tile_matching_counts():
    # constant glue direction grows like Fibonacci (5 matchings on 3 tiles);
    # the alternating staircase has d+1 = 4
    T = builtin_genus1()
    straight = build_snake(T, ArcCrossing((1, 3, 4)))
    assert straight.glue_dirs[0] == straight.glue_dirs[1]
    assert len(straight.enumerate_masks()) == 5
    assert len(all_matchings_bruteforce(straight)) == 5
    stair = build_snake(T, ArcCrossing((1, 2, 3)))
    assert stair.glue_dirs[0] != stair.glue_dirs[1]
    assert len(stair.enumerate_masks()) == 4
    assert len(all_matchings_bruteforce(stair)) == 4


def test_flip_bfs_equals_bruteforce_on_snakes():
    for S in fixture_snakes():
        masks = sorted(m for m, _ in S.enumerate_masks())
        assert masks == all_matchings_bruteforce(S)


def test_flip_bfs_equals_bruteforce_on_random_walks():
    # random arcs of length <= 8 at genus 1-3: a start triangle, then one
    # side per step, never recrossing the arc just crossed
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    surfaces = {g: builtin_genus(g) for g in (1, 2, 3)}

    def check(data):
        T = surfaces[data.draw(st.integers(1, 3))]
        G = build_snake(T, _random_arc(data, st, T))
        ms = G.enumerate_masks()
        assert sorted(m for m, _ in ms) == all_matchings_bruteforce(G)
        assert sum(1 for _, hv in ms if not any(hv)) == 1
        p = expand(G)
        assert p.coefficients_positive()
        assert p.f_polynomial().constant_term() == 1
        # distinct matchings may share a monomial, so count with coefficients
        assert sum(p.terms.values()) == len(ms)

    hyp.settings(max_examples=100, deadline=None, database=None, derandomize=True)(
        hyp.given(st.data())(check)
    )()


def test_exactly_one_minimal_and_maximal():
    for G in fixture_snakes() + fixture_bands():
        ms = G.enumerate_masks()
        minimals = [m for m, hv in ms if not any(hv)]
        assert len(minimals) == 1
        maximals = [m for m, _ in ms if not any(up for _, _, up in G.flips(m))]
        assert len(maximals) == 1
        assert G.minimal_mask() == minimals[0]


def test_band_good_matchings_subset_of_all():
    for G in fixture_bands():
        good = {m for m, _ in G.enumerate_masks()}
        assert good <= set(all_matchings_bruteforce(G))


def test_annulus_band_excludes_winding_matchings():
    A = annulus_fixture()
    band = build_band(A, LoopCrossing((1, 2)))
    assert len(band.enumerate_masks()) == 3
    assert len(all_matchings_bruteforce(band)) == 5


# -- expansion -----------------------------------------------------------------


def test_single_crossing_formula():
    # one tile: (product of one opposite pair + y_i * product of the other) / x_i
    T = builtin_genus1()
    for k in (1, 2, 3, 4):
        S = build_snake(T, ArcCrossing((k,)))
        labels = dict(S.tiles[0].labels)
        xw = {d: (LP.x_var(s.index, 4) if s.is_arc else LP.one(4)) for d, s in labels.items()}
        te = S.tile_edges[0]
        m0 = S.minimal_mask()
        low = [d for d in "SENW" if m0 >> te[d] & 1]
        high = [d for d in "SENW" if not m0 >> te[d] & 1]
        num = xw[low[0]] * xw[low[1]] + LP.y_var(k, 4) * xw[high[0]] * xw[high[1]]
        denom = LP.monomial(4, 4, 1, [-1 if i == k else 0 for i in range(1, 5)])
        assert expand(S) == num * denom


def test_expand_w1_value():
    T = builtin_genus1()
    W1 = expand(build_snake(T, ArcCrossing((3, 4))))
    assert W1.set_y_one().serialize() == "x1^2*x3^-1 + x1*x2*x3^-1*x4^-1 + x2^2*x4^-1"
    assert W1.serialize() == "x1^2*x3^-1*y3*y4 + x1*x2*x3^-1*x4^-1*y4 + x2^2*x4^-1"


def test_expand_matches_mutation_single():
    T = builtin_genus1()
    s0 = initial_seed(T.exchange_matrix())
    for k in (1, 2, 3, 4):
        assert expand(build_snake(T, ArcCrossing((k,)))) == mutate(s0, k).cluster[k - 1]


def test_expansions_positive_with_monomial_denominator():
    for G in fixture_snakes():
        p = expand(G)
        assert p.coefficients_positive()
        f = p.f_polynomial()
        assert f.constant_term() == 1
    for G in fixture_bands():
        p = expand_band(G)
        assert p.coefficients_positive()
        assert p.f_polynomial().constant_term() == 1


def test_annulus_closed_form():
    A = annulus_fixture()
    z = expand_band(build_band(A, LoopCrossing((1, 2))), "trivial")
    expected = LP(2, 0, {(1, -1): 1, (-1, 1): 1, (-1, -1): 1})
    assert z == expected


def test_expand_trivial_equals_set_y_one():
    T = builtin_genus2()
    S = build_snake(T, ArcCrossing((3, 6, 4, 10, 1, 5, 6, 7)))
    assert expand(S, "trivial") == expand(S, "principal").set_y_one()


def test_band_start_triangle_irrelevant_for_boundary_loop():
    T = builtin_genus1()
    loop = T.boundary_loop()
    p = expand_band(build_band(T, loop), "trivial")
    assert len(p.terms) == 9


def test_deterministic_enumeration_order():
    T = builtin_genus1()
    S = build_snake(T, ArcCrossing((4, 2, 1, 4)))
    a = [(m, S.mask_x_exps(m), hv) for m, hv in S.enumerate_masks()]
    S2 = build_snake(T, ArcCrossing((4, 2, 1, 4)))
    b = [(m, S2.mask_x_exps(m), hv) for m, hv in S2.enumerate_masks()]
    assert a == b


def test_single_crossing_f_polynomial():
    T = builtin_genus1()
    for k in (1, 2, 3, 4):
        f = expand(build_snake(T, ArcCrossing((k,)))).f_polynomial()
        assert f == LP.one(4) + LP.y_var(k, 4)


def test_boundary_loop_f_polynomial_constant_term():
    T = builtin_genus1()
    L = expand_band(build_band(T, T.boundary_loop()))
    f = L.f_polynomial()
    assert f.constant_term() == 1
    assert f.coefficients_positive()


# -- the frontier engine against the flip-enumeration oracle --------------------


def _trimmed(S):
    try:
        return trim_to_band(S)
    except SnakeError:
        return None


def test_expansion_equals_flip_enumeration():
    graphs = fixture_bands()
    for g in (1, 2):
        T = builtin_genus(g)
        for t0, seq, _ in T.arc_walks(6):
            S = build_snake(T, ArcCrossing(seq, start_triangle=t0))
            graphs.append(S)
            if len(seq) >= 3 and seq[0] == seq[-1]:
                graphs.extend(B for B in [_trimmed(S)] if B is not None)
    # boundary bracelets whose transfer states merge maps that two states
    # hold, each expanded through its drawing period; too large for the
    # brute-force tests that share `fixture_bands`
    for g, k in ((1, 4), (2, 2), (2, 3), (3, 2)):
        T = builtin_genus(g)
        graphs.append(build_band(T, T.boundary_loop().repeated(k)))
    # 10 fixture bands, 270 + 1006 snakes, 36 trimmed bands and 4 bracelets
    assert (len(graphs), sum(G.wrap is not None for G in graphs)) == (1326, 50)
    for G in graphs:
        run = expand if G.wrap is None else expand_band
        for coeffs in ("principal", "trivial"):
            assert run(G, coeffs) == _flip_expansion(G, coeffs), (G.crossings, coeffs)


@pytest.mark.parametrize(
    "k, good, perfect", [(1, 3, 5), (2, 7, 9), (3, 18, 20), (4, 47, None), (5, 123, None)]
)
def test_annulus_good_matchings_are_the_cut_rule(k, good, perfect):
    # A good matching of a band is a perfect matching of the graph cut open
    # at the wrap that takes at least one copy of the wrap edge; the
    # winding perfect matchings of the glued band are not counted.
    B = build_band(annulus_fixture(), LoopCrossing((1, 2)).repeated(k))
    assert sum(expand_band(B, "trivial").terms.values()) == good
    assert len(B.enumerate_masks()) == good
    if perfect is not None:
        assert len(all_matchings_bruteforce(B)) == perfect


@pytest.mark.parametrize(
    "g, k, matchings, terms",
    [(1, 5, 55449, 537), (1, 6, 492802, 969), (2, 4, 192719, 8173), (3, 3, 35838, 5984)],
)
def test_large_bracelets_are_chebyshev(g, k, matchings, terms):
    T = builtin_genus(g)
    loop = T.boundary_loop()
    L = expand_band(build_band(T, loop), "trivial")
    Lk = expand_band(build_band(T, loop.repeated(k)), "trivial")
    assert (sum(Lk.terms.values()), len(Lk.terms)) == (matchings, terms)
    assert Lk == chebyshev(k, L)


@pytest.mark.parametrize("coeffs", ["principal", "trivial"])
def test_bracelet_expansion_writes_no_shared_map(coeffs):
    # the period runs of a bracelet start from shared maps, and every tile's
    # steps are kept for the next expansion: expanding the bracelet again,
    # and its single loop before and after it, gives the same polynomials
    T = builtin_genus(3)
    loop = T.boundary_loop()
    single = expand_band(build_band(T, loop), coeffs)
    bracelet = build_band(T, loop.repeated(2))
    first = expand_band(bracelet, coeffs)
    assert expand_band(bracelet, coeffs) == first
    assert expand_band(build_band(T, loop), coeffs) == single
    assert len(first.terms) == 543
    if coeffs == "trivial":
        assert first == chebyshev(2, single)


def test_expansion_equals_oracles_on_random_graphs():
    # random arcs and trimmed bands at genus 1-3: the engine equals the flip
    # oracle, and its trivial-coefficient sum counts the matchings
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    surfaces = {g: builtin_genus(g) for g in (1, 2, 3)}
    bands = [
        B
        for T in surfaces.values()
        for t0, seq, _ in T.arc_walks(8)
        if len(seq) >= 3 and seq[0] == seq[-1]
        for B in [_trimmed(build_snake(T, ArcCrossing(seq, start_triangle=t0)))]
        if B is not None
    ]
    assert len(bands) == 160

    def check(data):
        if data.draw(st.booleans()):
            G = data.draw(st.sampled_from(bands))
            count = len(G.enumerate_masks())
            assert count <= len(all_matchings_bruteforce(G))
        else:
            T = surfaces[data.draw(st.integers(1, 3))]
            G = build_snake(T, _random_arc(data, st, T))
            count = len(all_matchings_bruteforce(G))
        run = expand if G.wrap is None else expand_band
        for coeffs in ("principal", "trivial"):
            p = run(G, coeffs)
            assert p == _flip_expansion(G, coeffs)
            assert sum(p.terms.values()) == count

    hyp.settings(max_examples=100, deadline=None, database=None, derandomize=True)(
        hyp.given(st.data())(check)
    )()


def test_unknown_coefficient_mode_is_a_snake_error():
    S = build_snake(builtin_genus1(), ArcCrossing((1,)))
    for run in (expand, expand_band):
        with pytest.raises(SnakeError, match="coeffs must be 'principal' or 'trivial'"):
            run(S, "bogus")


# -- build errors and the closed-form minimal matching ---------------------------


# sha256 of the outcome lines below, recorded with the graph tables built
# eagerly at construction and the minimal matching found by flip descent
BUILD_OUTCOMES_SHA256 = "17533f0fe3415a45a9f1423f0d69ccd01a16c78e35c764784176f9a142eb2d85"


def _build_outcome(build, T):
    n_entries = len(T.tile_contexts)
    try:
        return "ok", build()
    except Exception as exc:  # the type and text are the recorded outcome
        assert len(T.tile_contexts) == n_entries, "a failed build left a table entry"
        return f"{type(exc).__name__}: {exc}", None


def _build_outcomes(surfaces):
    """Every arc of length <= 8 at genus 1-2 and <= 7 at genus 3, the trims of
    those that start and end on one arc, and every closed walk of length
    2..6 as a loop: the outcome lines, and the graphs (None where the build
    raised)."""
    lines, graphs = [], []
    for g, max_len in ((1, 8), (2, 8), (3, 7)):
        T = surfaces[g]
        for t0, seq, walk in T.arc_walks(max_len):
            out, S = _build_outcome(lambda: build_snake(T, ArcCrossing(seq, start_triangle=t0)), T)
            lines.append(f"genus{g} arc {t0} {seq}: {out}")
            graphs.append(S)
            if len(seq) >= 3 and seq[0] == seq[-1]:
                out, B = _build_outcome(lambda: trim_to_band(S), T)
                lines.append(f"genus{g} trim {t0} {seq}: {out}")
                graphs.append(B)
            if 2 <= len(seq) <= 6 and walk[-1] == walk[0]:
                out, B = _build_outcome(lambda: build_band(T, LoopCrossing(seq)), T)
                lines.append(f"genus{g} loop {t0} {seq}: {out}")
                graphs.append(B)
    return lines, graphs


def test_build_errors_are_raised_at_build():
    # Each build either raises the recorded error text or gives a graph on
    # which every graph-only invariant of `_build` and the closed-form
    # minimal matching hold, and which expands.  A failed build leaves no
    # tile context behind, and rebuilding with the tables warm gives the
    # same outcomes.
    surfaces = {g: builtin_genus(g) for g in (1, 2, 3)}
    lines, graphs = _build_outcomes(surfaces)
    assert _build_outcomes(surfaces)[0] == lines

    def kind(line):
        out = line.split(": ", 1)[1]
        if "does not validate" in out:
            out = "does not validate"
        return line.split()[1], out.split(" (")[0]

    kinds = Counter(map(kind, lines))
    assert kinds == {
        ("arc", "ok"): 7854,
        ("trim", "ok"): 92,
        ("trim", "SnakeError: band drawing does not close up"): 64,
        ("trim", "SnakeError: band graphs need at least two tiles"): 12,
        ("trim", "does not validate"): 488,
        ("loop", "ok"): 180,
        ("loop", "SnakeError: band drawing does not close up"): 72,
        ("loop", "does not validate"): 96,
    }
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BUILD_OUTCOMES_SHA256
    for G in graphs:
        if G is not None:
            G.minimal_mask()  # builds the graph tables
            assert _vertices_are_grid_points(G), G.crossings
            assert (expand if G.wrap is None else expand_band)(G, "trivial").terms


def _genus2_builders():
    """A builder, from a genus-2 triangulation, of every genus-2 arc of
    length <= 6 from every start triangle, of each trim of one that builds,
    and of each closed walk of length 2..6 as a loop that builds."""
    T = builtin_genus(2)
    builders = []
    for t0, seq, walk in T.arc_walks(6):
        arc = ArcCrossing(seq, start_triangle=t0)
        builders.append(lambda T, arc=arc: build_snake(T, arc))
        if len(seq) >= 3 and seq[0] == seq[-1] and _trimmed(build_snake(T, arc)):
            builders.append(lambda T, arc=arc: trim_to_band(build_snake(T, arc)))
        if 2 <= len(seq) and walk[-1] == walk[0]:
            loop = LoopCrossing(seq)
            if _build_outcome(lambda: build_band(T, loop), T)[0] == "ok":
                builders.append(lambda T, loop=loop: build_band(T, loop))
    return builders


def _drawn(G):
    """Everything the layout and both expansions give for a graph."""
    run = expand if G.wrap is None else expand_band
    tiles = [(j + 1, G.grid[j], t.diagonal, t.labels, t.sign, t.diag_corners, t.hor_is_a)
             for j, t in enumerate(G.tiles)]
    return tiles, G.glue_dirs, G.wrap, run(G, "principal"), run(G, "trivial")


def test_warm_tables_draw_and_expand_as_cold_ones():
    builders = _genus2_builders()
    kinds = Counter("snake" if G.wrap is None else "band" for G in (b(builtin_genus(2)) for b in builders))
    assert kinds == {"snake": 1006, "band": 64}
    # cold: a fresh triangulation per graph
    cold = [_drawn(build(builtin_genus(2))) for build in builders]
    # warm: one triangulation, its tables filled by every graph in reverse order
    T = builtin_genus(2)
    for build in reversed(builders):
        _drawn(build(T))
    n_entries = len(T.tile_contexts)
    assert [_drawn(build(T)) for build in builders] == cold
    assert len(T.tile_contexts) == n_entries  # every context was warm


def test_triangulations_never_share_table_entries():
    T1, T2, T3 = builtin_genus(1), builtin_genus(2), builtin_genus(2)
    assert T2 == T3 and not T2.tile_contexts and not T3.tile_contexts
    arc = ArcCrossing((1, 2, 1), start_triangle=0)
    S2 = build_snake(T2, arc)
    assert expand(S2) and T2.tile_contexts and not T3.tile_contexts and not T1.tile_contexts
    S3, S1 = build_snake(T3, arc), build_snake(T1, arc)
    assert T2.tile_contexts.keys() == T3.tile_contexts.keys()
    entries = [{id(e) for e in T.tile_contexts.values()} for T in (T1, T2, T3)]
    assert not (entries[0] & entries[1] or entries[0] & entries[2] or entries[1] & entries[2])
    # one crossing sequence, drawn from each surface's own triangles
    assert T1.tile_contexts.keys() & T2.tile_contexts.keys()
    assert [t.labels for t in S1.tiles] != [t.labels for t in S2.tiles]
    assert [t.labels for t in S2.tiles] == [t.labels for t in S3.tiles]
    # within one triangulation, every graph holds the table's own tiles
    assert all(t is u for t, u in zip(build_snake(T2, arc).tiles, S2.tiles))
    loop = T1.boundary_loop()
    bracelet = build_band(T1, loop.repeated(3)).tiles
    assert len(bracelet) == 3 * len(loop)
    assert all(t is bracelet[j % len(loop)] for j, t in enumerate(bracelet))
    # a tile made from another's fields starts with empty step slots
    t = S2.tiles[0]
    assert any(t.steps)
    assert Tile(t.diagonal, t.labels, t.sign, t.diag_corners, t.hor_is_a, t.entry, t.exit).steps == [None] * 4


_OFFSETS = {"SW": (0, 0), "SE": (1, 0), "NE": (1, 1), "NW": (0, 1)}


def _point(G, j, corner):
    x, y = G.grid[j]
    dx, dy = _OFFSETS[corner]
    return x + dx, y + dy


def _segment(G, j, side):
    """Side `side` of tile j as its two grid points, in sorted order."""
    return tuple(sorted(_point(G, j, c) for c in _EDGE_CORNERS[side]))


def _vertices_are_grid_points(G):
    """Whether two sides share a `_build` vertex exactly when their grid
    segments share a point, a band's wrap copies glued at the corners on the
    diagonals: the sets of sides through each vertex are the sets of sides
    through each point."""
    glue = {}
    if G.wrap is not None:

        def split(j, side):  # the corner on the diagonal first
            return sorted(_EDGE_CORNERS[side], key=lambda c: c not in G.tiles[j].diag_corners)

        first, last = G.wrap
        glue = {_point(G, 0, a): _point(G, -1, b) for a, b in zip(split(0, first), split(-1, last))}
    at_point, at_vertex = defaultdict(set), defaultdict(set)
    edges = G.edges
    for j, ((x, y), te) in enumerate(zip(G.grid, G.tile_edges)):
        points = {c: (x + dx, y + dy) for c, (dx, dy) in _OFFSETS.items()}  # once per tile
        for side, i in te.items():
            key = (j, side)
            for c in _EDGE_CORNERS[side]:
                p = points[c]
                at_point[glue.get(p, p)].add(key)
            for v in edges[i].vertices:
                at_vertex[v].add(key)
    return Counter(map(frozenset, at_point.values())) == Counter(map(frozenset, at_vertex.values()))


def _descended_minimal(G):
    """The oracle for `minimal_mask`: the alternating matching of the boundary
    cycle through the first tile's incoming side (S of a snake, W of a band),
    taken before a band's wrap is glued and carried across the glue, then
    lowered by down-flips until none is left."""
    # boundary segments before gluing: sides of one tile, and both wrap copies
    incident = {}
    for e in G.edges:
        segments = {_segment(G, j, side) for j, side in e.tiles}
        if len(e.tiles) == 1 or len(segments) == 2:
            for seg in segments:
                for p in seg:
                    incident.setdefault(p, []).append((e.index, seg))
    assert all(len(es) == 2 for es in incident.values())
    first = "S" if G.wrap is None else "W"
    start = (G.tile_edges[0][first], _segment(G, 0, first))
    cycle, v = [start], start[1][0]
    while (side := next(f for f in incident[v] if f != cycle[-1])) != start:
        cycle.append(side)
        p, q = side[1]
        v = q if p == v else p
    mask = 0
    # a band's seed leaves out the W copy it starts from
    for i, _ in cycle[2::2] if G.wrap is not None else cycle[0::2]:
        mask |= 1 << i
    assert G.is_perfect(mask)
    while (down := next((m for _, m, up in G.flips(mask) if not up), None)) is not None:
        mask = down
    return mask


def test_closed_form_minimal_matching_equals_flip_descent():
    graphs = []
    for g in (1, 2, 3):
        T = builtin_genus(g)
        graphs.extend(build_band(T, T.boundary_loop().repeated(k)) for k in (1, 2, 3))
        for t0, seq, _ in T.arc_walks(6):
            S = build_snake(T, ArcCrossing(seq, start_triangle=t0))
            graphs.append(S)
            if len(seq) >= 3 and seq[0] == seq[-1]:
                graphs.extend(B for B in [_trimmed(S)] if B is not None)
    assert (len(graphs), sum(G.wrap is not None for G in graphs)) == (3111, 77)
    for G in graphs:
        assert G.minimal_mask() == _descended_minimal(G), G.crossings
