import hashlib
import random

import pytest

from clusterlab.mutation import matrix_rank
from clusterlab.snake import build_snake
from clusterlab.surface import (
    ArcCrossing,
    LoopCrossing,
    SideRef,
    SurfaceError,
    Triangulation,
    annulus_fixture,
    arc,
    boundary,
    builtin_genus,
    builtin_genus1,
    builtin_genus2,
    turn,
)


def test_builtin_genus1_validates():
    T = builtin_genus1()
    assert T.validate() == []
    assert T.n_arcs == 4 and T.n_boundary == 1 and T.n_marked == 1
    # a boundary segment past n_boundary is reported, not counted as B1
    tris = tuple(tuple(boundary(2) if s == boundary(1) else s for s in t) for t in T.triangles)
    assert Triangulation(genus=1, n_arcs=4, n_boundary=1, n_marked=1, triangles=tris).validate() == [
        "boundary index B2 out of range",
        "boundary segment 1 used 0 times, expected 1",
    ]


def test_validate_arc_used_three_times():
    T = builtin_genus1()
    bad = Triangulation(
        genus=1,
        n_arcs=4,
        n_boundary=1,
        n_marked=1,
        triangles=(
            (arc(1), arc(2), arc(3)),
            (arc(1), arc(2), arc(3)),
            (arc(3), arc(4), boundary(1)),
        ),
    )
    problems = bad.validate()
    assert any("arc 3" in p for p in problems)
    assert any("arc 4" in p for p in problems)


def test_validate_counts_the_sides_of_a_polygon():
    # A 4-gon glued to a triangle is reported, and its sides still count as
    # uses, so no arc or segment is reported as used too rarely.
    quad = (arc(1), arc(2), arc(3), boundary(1))
    bad = Triangulation(genus=1, n_arcs=3, n_boundary=1, n_marked=1,
                        triangles=(quad, (arc(1), arc(2), arc(3))))
    assert bad.validate() == [
        "triangle (A1, A2, A3, B1) does not have 3 sides",
        "3*(#triangles) != 2*n_arcs + n_boundary",
    ]


def test_validate_empty():
    empty = Triangulation(genus=1, n_arcs=0, n_boundary=0, n_marked=0, triangles=())
    assert empty.validate() == ["triangulation has no triangles"]


def test_sideref_parse_and_str():
    assert str(SideRef.parse("A3")) == "A3"
    assert SideRef.parse("B1") == boundary(1)
    with pytest.raises(SurfaceError):
        SideRef.parse("C2")
    with pytest.raises(SurfaceError):
        SideRef("A", 0)


def test_exchange_matrix_skew_and_entries():
    T = builtin_genus1()
    B = T.exchange_matrix()
    n = T.n_arcs
    assert all(B[i][j] == -B[j][i] for i in range(n) for j in range(n))
    assert abs(B[0][1]) == 2  # arcs 1, 2 share two consistently oriented triangles
    assert matrix_rank(B) == 4


def test_exchange_matrix_rank_maximal_through_genus4():
    for g in (1, 2, 3, 4):
        T = builtin_genus(g)
        B = T.exchange_matrix()
        n = T.n_arcs
        assert n == 6 * g - 2
        assert all(B[i][j] == -B[j][i] for i in range(n) for j in range(n))
        assert matrix_rank(B) == n


def test_boundary_triangle_arcs():
    T = builtin_genus1()
    btris = [t for t in T.triangles if any(not s.is_arc for s in t)]
    assert len(btris) == 1
    assert {s.index for s in btris[0] if s.is_arc} == {3, 4}


def test_builtin_genus_1_consistency():
    assert builtin_genus(1) == builtin_genus1()


def test_genus2_paper_crossings_validate():
    T = builtin_genus2()
    T.triangle_walk((8, 9, 10, 2, 1, 10, 4, 6, 3, 8))
    T.triangle_walk((7, 4, 9, 3, 5, 2, 1, 5, 6, 7))
    T.triangle_walk((3, 6, 4, 10, 1, 5, 6, 7))
    T.triangle_walk((8, 9, 10, 2))
    with pytest.raises(SurfaceError):
        T.triangle_walk((8, 8))
    with pytest.raises(SurfaceError):
        T.triangle_walk((1, 7))


def test_triangle_walk_start_and_errors():
    T = builtin_genus1()
    walk = T.triangle_walk((4, 2, 1, 4))
    assert len(walk) == 5 and walk[0] == walk[-1] == 2  # the boundary triangle
    with pytest.raises(SurfaceError):
        T.triangle_walk((3, 3))  # immediate re-crossing needs a self-folded triangle
    with pytest.raises(SurfaceError, match=r"^invalid crossing sequence \(1, 3, 1\): "
                       r"triangle 2 misses arc 1$"):
        T.triangle_walk((1, 3, 1))  # no side of arc 3 leads back across arc 1
    with pytest.raises(SurfaceError, match=r"\(7,\): no valid start triangle$"):
        T.triangle_walk((7,))
    for loop in (False, True):
        with pytest.raises(SurfaceError, match="empty crossing sequence"):
            T.triangle_walk((), loop=loop)
    with pytest.raises(SurfaceError, match="^empty crossing sequence$"):
        build_snake(T, ArcCrossing(()))  # the walk is the one emptiness check
    with pytest.raises(SurfaceError, match="^empty loop crossing sequence$"):
        LoopCrossing(())
    with pytest.raises(SurfaceError, match="^triangle 1 not adjacent to arc 3$"):
        T.other_triangle(3, 1)
    # an arc with one slot has no triangle across it, on every walking path
    one_slot = Triangulation(genus=0, n_arcs=2, n_boundary=1, n_marked=1,
                             triangles=((arc(1), arc(2), boundary(1)),))
    for walk in (lambda: one_slot.triangle_walk((1,)), lambda: list(one_slot.arc_walks(2)),
                 lambda: one_slot.other_triangle(1, 0)):
        with pytest.raises(SurfaceError, match="^arc 1 does not have two triangles$"):
            walk()
    # a triangle that does not hold the arcs named
    tri = T.triangles[2]
    with pytest.raises(SurfaceError, match=r"^triangle \(A3, A4, B1\) does not link arcs 3 -> 1$"):
        turn(tri, 3, 1)
    with pytest.raises(SurfaceError, match=r"^arc 1 not a side of triangle \(A3, A4, B1\)$"):
        turn(tri, 1, 3)


def test_turn_rejects_a_polygon_without_3_sides():
    # a walk into a 2-gon, and a 4-gon whose 3rd and 4th sides are adjacent,
    # get validate's message rather than an IndexError or a wrong turn
    two_gon = Triangulation(genus=0, n_arcs=3, n_boundary=1, n_marked=1,
                            triangles=((arc(1), arc(2), arc(3)), (arc(1), arc(2)),
                                       (arc(3), boundary(1))))
    with pytest.raises(SurfaceError, match=r"^triangle \(A1, A2\) does not have 3 sides$"):
        build_snake(two_gon, ArcCrossing((1, 2), start_triangle=0))
    with pytest.raises(SurfaceError,
                       match=r"^triangle \(A1, A2, A3, A4\) does not have 3 sides$"):
        turn((arc(1), arc(2), arc(3), arc(4)), 3, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda T: LoopCrossing((1, "2")),
        lambda T: LoopCrossing((True, 2)),
        lambda T: T.boundary_loop().repeated(1.0),
        lambda T: T.boundary_loop().repeated(True),
        lambda T: T.triangle_walk((1.0, 2)),
        lambda T: T.triangle_walk((True, 2)),
        lambda T: T.triangle_walk((1, 2), start_triangle=1.0),
        lambda T: T.triangle_walk((1, 2), start_triangle="1"),
        lambda T: T.triangle_walk((1, 2), start_triangle=False),
        lambda T: SideRef("A", True),
        lambda T: SideRef("B", 1.5),
        lambda T: SideRef("A", "1"),
        lambda T: builtin_genus(2.5),
        lambda T: builtin_genus(True),
    ],
)
def test_non_int_indices_are_surface_errors(call):
    # 1.0 and True look up as 1 in the surface's tables, so they are
    # rejected rather than read as arc or triangle 1
    with pytest.raises(SurfaceError, match=r"must be an int, not "):
        call(builtin_genus2())


def test_boundary_loop_lengths_and_validity():
    T1 = builtin_genus1()
    loop1 = T1.boundary_loop()
    assert len(loop1) == 8
    T1.triangle_walk(loop1.cyclic_sequence, loop=True)
    assert loop1.cyclic_sequence == (1, 3, 4, 2, 1, 4, 3, 2)

    T2 = builtin_genus2()
    loop2 = T2.boundary_loop()
    assert len(loop2) == 20
    T2.triangle_walk(loop2.cyclic_sequence, loop=True)


def test_loop_canonical_rotation():
    assert LoopCrossing((2, 1)).cyclic_sequence == (1, 2)
    assert LoopCrossing((3, 1, 2)) == LoopCrossing((1, 2, 3))
    assert LoopCrossing((1, 2)).repeated(2).cyclic_sequence == (1, 2, 1, 2)


@pytest.mark.parametrize("k", [0, -2])
def test_repeat_count_below_one_is_a_surface_error(k):
    with pytest.raises(SurfaceError, match=rf"^repeat count must be >= 1, not {k}$"):
        LoopCrossing((1, 2)).repeated(k)


def test_annulus_fixture_validates():
    A = annulus_fixture()
    assert A.validate() == []
    A.triangle_walk((1, 2), loop=True)


def test_json_roundtrip():
    for T in (builtin_genus1(), builtin_genus2(), annulus_fixture()):
        assert Triangulation.from_json(T.to_json()) == T
    data = builtin_genus1().to_json_dict()
    for key, value in (("genus", 1.9), ("n_arcs", 4.7), ("n_boundary", True), ("n_marked", "1")):
        with pytest.raises(SurfaceError, match=f"{key} must be an int, not {value!r}"):
            Triangulation.from_json_dict({**data, key: value})
    triangles = [["C1", "A2", "A3"]] + data["triangles"][1:]
    with pytest.raises(SurfaceError, match=r"^cannot parse side 'C1'$"):
        Triangulation.from_json_dict({**data, "triangles": triangles})
    # a shape other than an object of counts and side lists is a SurfaceError too
    keys = "^surface data must be an object with keys genus, n_arcs, n_boundary, n_marked, triangles$"
    for bad, text in (
        ({**data, "triangles": [5]}, "^triangles must be a list of side lists$"),
        ({**data, "triangles": 5}, "^triangles must be a list of side lists$"),
        ({k: v for k, v in data.items() if k != "n_marked"}, keys),
        (list(data.values()), keys),
    ):
        with pytest.raises(SurfaceError, match=text):
            Triangulation.from_json_dict(bad)
    with pytest.raises(SurfaceError, match=keys):
        Triangulation.from_json("[]")


def test_json_format_shape():
    data = builtin_genus1().to_json_dict()
    assert data["triangles"][0] == ["A1", "A2", "A3"]
    assert set(data) == {"genus", "n_arcs", "n_boundary", "n_marked", "triangles"}


def test_boundary_loop_requires_one_marked_point():
    with pytest.raises(SurfaceError):
        annulus_fixture().boundary_loop()


def test_fan_walk_of_malformed_triangles_ends():
    # The walk crosses only arcs with two slots, and each corner has one
    # successor at most, so it ends on any side lists: an arc in three
    # slots, no B1 at all, a 2-gon.  The boundary loop is then an error.
    for tris in (((arc(1), arc(2), boundary(1)), (arc(1), arc(2), arc(2))),
                 ((arc(1), arc(2), arc(3)),),
                 ((arc(1), arc(2)), (arc(1), arc(2), boundary(1)))):
        T = Triangulation(genus=1, n_arcs=3, n_boundary=1, n_marked=1, triangles=tris)
        T.corner_orbits(), T.boundary_components()
        with pytest.raises(SurfaceError, match="^boundary loop walk did not visit every arc end$"):
            T.boundary_loop()
    # a 4-gon and a triangle glued along three arcs: one fan of 7 corners
    quad = Triangulation(genus=0, n_arcs=3, n_boundary=1, n_marked=1,
                         triangles=((arc(1), arc(2), arc(3), boundary(1)), (arc(1), arc(2), arc(3))))
    assert [len(orbit) for orbit in quad.corner_orbits()] == [7]
    assert quad.boundary_components() == [[1]]
    assert quad.boundary_loop() == LoopCrossing((1, 3, 2, 1, 3, 2))


def test_corner_orbits_single_marked_point():
    for g in (1, 2, 3):
        assert len(builtin_genus(g).corner_orbits()) == 1
    assert len(annulus_fixture().corner_orbits()) == 2


def test_validate_wrong_marked_point_count_and_genus():
    T = builtin_genus1()
    counts = dict(n_arcs=T.n_arcs, n_boundary=T.n_boundary, triangles=T.triangles)
    assert Triangulation(genus=1, n_marked=2, **counts).validate() == [
        "1 marked points found, declared 2",
        "n_arcs = 4 but genus/boundary data require 5",
        "boundary segment count must equal marked point count",
    ]
    assert Triangulation(genus=2, n_marked=1, **counts).validate() == [
        "n_arcs = 4 but genus/boundary data require 10",
    ]


TOPOLOGY_SHA256 = "14eae0b97c5751abc27d2571589a02c89bd5853307bbde86c220bf6505fc456d"


def _topology_lines():
    """One line per triangulation of a seeded random family.  Count-valid
    ones (every arc in two slots, every boundary segment in one, sides
    shuffled into triangles) record `validate()`, the corner orbit partition
    and `boundary_components()`; half of them have the counts of a genus-1 or
    genus-2 surface with one boundary segment and one marked point, and also
    record `boundary_loop()` or its error.  Arbitrary ones (arcs in one to
    three slots) record the orbit partition only, and check that `validate()`
    and `boundary_components()` return."""
    rng = random.Random(2024)
    lines = []
    for i in range(3000):
        count_valid = i < 2000
        one_point = count_valid and rng.random() < 0.5
        n_tri = rng.choice((3, 7)) if one_point else rng.randint(1, 8)
        if count_valid:
            n_b = 1 if one_point else rng.choice([b for b in range(6) if (3 * n_tri - b) % 2 == 0])
            n_a = (3 * n_tri - n_b) // 2
            sides = [arc(a) for a in range(1, n_a + 1)] * 2
            sides += [boundary(b) for b in range(1, n_b + 1)]
            rng.shuffle(sides)
        else:
            n_a, n_b = rng.randint(1, 6), rng.randint(1, 3)
            sides = [arc(rng.randint(1, n_a)) if rng.random() < 0.8
                     else boundary(rng.randint(1, n_b)) for _ in range(3 * n_tri)]
        T = Triangulation(genus=(n_tri + 1) // 4 if one_point else rng.randint(0, 2), n_arcs=n_a,
                          n_boundary=n_b, n_marked=1 if one_point else rng.randint(1, 4),
                          triangles=tuple(zip(sides[::3], sides[1::3], sides[2::3])))
        orbits = sorted(sorted(orbit) for orbit in T.corner_orbits())
        if not count_valid:
            T.validate(), T.boundary_components()  # neither raises
            lines.append(f"{T.triangles} {orbits}")
            continue
        line = f"{T.to_json_dict()} {T.validate()} {orbits} {T.boundary_components()}"
        if one_point:
            try:
                line += f" {T.boundary_loop()}"
            except SurfaceError as exc:
                line += f" {exc}"
        lines.append(line)
    return lines


def test_topology_of_random_triangulations_is_pinned():
    lines = _topology_lines()
    assert len(lines) == 3000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TOPOLOGY_SHA256


def test_exchange_matrix_mirror_equivariance():
    # reversing every triangle (the mirror surface) negates the matrix
    for T in (builtin_genus1(), builtin_genus2()):
        mirror = Triangulation(
            genus=T.genus,
            n_arcs=T.n_arcs,
            n_boundary=T.n_boundary,
            n_marked=T.n_marked,
            triangles=tuple(tuple(reversed(t)) for t in T.triangles),
        )
        assert mirror.validate() == []
        B, Bm = T.exchange_matrix(), mirror.exchange_matrix()
        n = T.n_arcs
        assert all(Bm[i][j] == -B[i][j] for i in range(n) for j in range(n))


# -- arc walks --------------------------------------------------------------------


def _preorder_walks(T, max_len):
    """Reference order: a recursion over crossing sequences from each start
    triangle in turn, each node listed before its extensions."""
    out = []

    def rec(tri0, tri, seq):
        out.append((tri0, tuple(seq)))
        if len(seq) < max_len:
            for s in T.triangles[tri]:
                if s.is_arc and s.index != seq[-1]:
                    rec(tri0, T.other_triangle(s.index, tri), seq + [s.index])

    for tri0, tri in enumerate(T.triangles):
        for s in tri:
            if s.is_arc:
                rec(tri0, T.other_triangle(s.index, tri0), [s.index])
    return out


def test_arc_walks_genus2_preorder():
    T = builtin_genus2()
    walks = list(T.arc_walks(8))
    assert len(walks) == 3634
    assert len({(t0, seq) for t0, seq, _ in walks}) == 3634
    assert [(t0, seq) for t0, seq, _ in walks] == _preorder_walks(T, 8)
    assert all(walk == T.triangle_walk(seq, t0) for t0, seq, walk in walks)
