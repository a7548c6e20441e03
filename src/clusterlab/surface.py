"""Combinatorial model of triangulated unpunctured surfaces.

A triangulation is a list of triangles, each a cyclically ordered triple of
sides (arcs or boundary segments); the listing order is the counterclockwise
orientation of the triangle in the oriented surface.  Arcs appear in exactly
two side slots, boundary segments in exactly one, and the gluing of the two
slots of an arc reverses direction, so the glued complex is an oriented
surface whose marked points are the corner orbits.
"""

from __future__ import annotations

import functools
import json

from .errors import ClusterlabError, check_ints
from .record import Record


class SurfaceError(ClusterlabError):
    pass


@functools.total_ordering
class SideRef(Record):
    """A triangle side: an arc ("A", 1..n) or a boundary segment ("B", 1..b).
    Sides order by (kind, index)."""

    __slots__ = _fields = ("kind", "index")

    def __init__(self, kind, index):
        check_ints((index,), "side index", SurfaceError)
        if kind not in ("A", "B") or index < 1:
            raise SurfaceError(f"bad side {kind}{index}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) < self._key(other)
        return NotImplemented

    @property
    def is_arc(self):
        return self.kind == "A"

    def __str__(self):
        return f"{self.kind}{self.index}"

    @classmethod
    def parse(cls, text):
        text = str(text).strip()
        if text and text[0] in "AB" and text[1:].isdigit():
            return cls(text[0], int(text[1:]))
        raise SurfaceError(f"cannot parse side {text!r}")


def _sides_text(sides):
    """A list of sides as it is printed in messages: (A1, A2, B1)."""
    return f"({', '.join(map(str, sides))})"


def arc(i):
    return SideRef("A", i)


def boundary(i):
    return SideRef("B", i)


def sides_after(tri, a):
    """The other two sides of triangle `tri`, in ccw order after arc `a`."""
    if len(tri) != 3:
        raise SurfaceError(f"triangle {_sides_text(tri)} does not have 3 sides")
    for i, s in enumerate(tri):
        if s.is_arc and s.index == a:
            return tri[(i + 1) % 3], tri[(i + 2) % 3]
    raise SurfaceError(f"arc {a} not a side of triangle {_sides_text(tri)}")


def turn(tri, entry, exit_):
    """Turn type of a triangle crossed from arc `entry` to arc `exit_`:
    "R" when the ccw cyclic order is (entry, exit, third), "L" when it is
    (entry, third, exit).  Returns (type, third side)."""
    nxt, prv = sides_after(tri, entry)
    if nxt.is_arc and nxt.index == exit_:
        return "R", prv
    if prv.is_arc and prv.index == exit_:
        return "L", nxt
    raise SurfaceError(f"triangle {_sides_text(tri)} does not link arcs {entry} -> {exit_}")


class ArcCrossing(Record):
    """Ordered list of arc indices crossed by an arc, plus (optionally) the
    index of the triangle the arc starts in, which disambiguates crossing
    sequences whose consecutive arcs share two triangles."""

    __slots__ = _fields = ("sequence", "start_triangle")

    def __init__(self, sequence, start_triangle=None):
        object.__setattr__(self, "sequence", tuple(sequence))
        object.__setattr__(self, "start_triangle", start_triangle)


class LoopCrossing(Record):
    """Nonempty cyclic list of arc indices crossed by an essential loop.
    Rotation-equivalent sequences are identified by canonical rotation."""

    __slots__ = _fields = ("cyclic_sequence",)

    def __init__(self, cyclic_sequence):
        seq = tuple(cyclic_sequence)
        if not seq:
            raise SurfaceError("empty loop crossing sequence")
        check_ints(seq, "crossed arc", SurfaceError)
        rotations = [seq[i:] + seq[:i] for i in range(len(seq))]
        object.__setattr__(self, "cyclic_sequence", min(rotations))

    def __len__(self):
        return len(self.cyclic_sequence)

    def repeated(self, k):
        """The k-fold wrap of this loop (bracelet crossing sequence)."""
        check_ints((k,), "repeat count", SurfaceError)
        if k < 1:
            raise SurfaceError(f"repeat count must be >= 1, not {k}")
        return LoopCrossing(self.cyclic_sequence * k)


class Triangulation(Record):
    # no __slots__: the cached properties below live in the instance __dict__
    _fields = ("genus", "n_arcs", "n_boundary", "n_marked", "triangles")

    def __init__(self, genus, n_arcs, n_boundary, n_marked, triangles):
        tris = tuple(tuple(s if isinstance(s, SideRef) else SideRef.parse(s) for s in t) for t in triangles)
        self.__dict__.update(genus=genus, n_arcs=n_arcs, n_boundary=n_boundary,
                             n_marked=n_marked, triangles=tris)

    # -- bookkeeping -------------------------------------------------------

    @functools.cached_property
    def _slot_table(self):
        """arc index -> tuple of (triangle index, position) slots, built once
        (the triangles are immutable)."""
        slots = {}
        for t, tri in enumerate(self.triangles):
            for i, s in enumerate(tri):
                if s.is_arc:
                    slots.setdefault(s.index, []).append((t, i))
        return {a: tuple(v) for a, v in slots.items()}

    @functools.cached_property
    def _fans(self):
        """The corners around each marked point, in fan order, walked once.

        Corner (t, k) sits between side k-1 (ending there) and side k
        (starting there).  Gluing an arc's two slots reverses direction, so
        the end of side k-1 meets the start of the other slot's side: the
        fan steps from (t, k) across the arc on side k-1 to the corner where
        that slot starts.  A fan starts at every corner whose side k is not
        an arc with two slots and ends at a corner whose side k-1 is not;
        the corners left over form closed fans, each walked from its first
        corner.  Every corner has at most one successor and one predecessor,
        so the walk ends on any list of sides, one not of 3 sides included.
        """
        tris, slots = self.triangles, self._slot_table

        def glued(side):
            return side.is_arc and len(slots[side.index]) == 2

        corners = [(t, k) for t, tri in enumerate(tris) for k in range(len(tri))]
        fans, seen = [], set()
        for c in [(t, k) for t, k in corners if not glued(tris[t][k])] + corners:
            fan = []
            while c not in seen:
                seen.add(c)
                fan.append(c)
                t, k = c
                side = tris[t][k - 1]
                if not glued(side):
                    break
                s1, s2 = slots[side.index]
                c = s2 if s1 == (t, (k - 1) % len(tris[t])) else s1
            if fan:
                fans.append(tuple(fan))
        return tuple(fans)

    def corner_orbits(self):
        """The corners of each marked point (see `_fans`)."""
        return [list(fan) for fan in self._fans]

    def boundary_components(self):
        """Group boundary segments into boundary circles: a fan that starts
        where segment b starts and ends where segment a ends puts b after a."""
        tris = self.triangles
        after = {}
        for fan in self._fans:
            (t, k), (u, j) = fan[0], fan[-1]
            first, last = tris[t][k], tris[u][j - 1]
            if not first.is_arc and not last.is_arc:
                after[last.index] = first.index
        components, seen = [], set()
        for b in sorted({s.index for tri in tris for s in tri if not s.is_arc}):
            comp = []
            while b is not None and b not in seen:
                seen.add(b)
                comp.append(b)
                b = after.get(b)
            if comp:
                components.append(comp)
        return components

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Return the list of violated invariants (empty means valid)."""
        problems = []
        if not self.triangles:
            return ["triangulation has no triangles"]
        counts_a = {}
        counts_b = {}
        for tri in self.triangles:
            if len(tri) != 3:
                problems.append(f"triangle {_sides_text(tri)} does not have 3 sides")
            for s in tri:
                if s.is_arc:
                    if not 1 <= s.index <= self.n_arcs:
                        problems.append(f"arc index {s} out of range")
                    counts_a[s.index] = counts_a.get(s.index, 0) + 1
                else:
                    if not 1 <= s.index <= self.n_boundary:
                        problems.append(f"boundary index {s} out of range")
                    counts_b[s.index] = counts_b.get(s.index, 0) + 1
        for a in range(1, self.n_arcs + 1):
            if counts_a.get(a, 0) != 2:
                problems.append(f"arc {a} used {counts_a.get(a, 0)} times, expected 2")
        for b in range(1, self.n_boundary + 1):
            if counts_b.get(b, 0) != 1:
                problems.append(f"boundary segment {b} used {counts_b.get(b, 0)} times, expected 1")
        if 3 * len(self.triangles) != 2 * self.n_arcs + self.n_boundary:
            problems.append("3*(#triangles) != 2*n_arcs + n_boundary")
        if problems:
            return problems

        marked = len(self._fans)
        if marked != self.n_marked:
            problems.append(f"{marked} marked points found, declared {self.n_marked}")
        ncomp = len(self.boundary_components())
        expected = 6 * self.genus - 6 + 3 * ncomp + self.n_marked
        if self.n_arcs != expected:
            problems.append(
                f"n_arcs = {self.n_arcs} but genus/boundary data require {expected}"
            )
        if self.n_boundary != self.n_marked:
            problems.append("boundary segment count must equal marked point count")
        return problems

    # -- exchange matrix -----------------------------------------------------

    def exchange_matrix(self):
        """Signed adjacency matrix: b_ij counts triangles where arc j directly
        follows arc i counterclockwise, minus those where it precedes."""
        n = self.n_arcs
        B = [[0] * n for _ in range(n)]
        for tri in self.triangles:
            for k in range(3):
                s, t = tri[k], tri[(k + 1) % 3]
                if s.is_arc and t.is_arc:
                    B[s.index - 1][t.index - 1] += 1
                    B[t.index - 1][s.index - 1] -= 1
        return B

    # -- crossing-sequence walks ----------------------------------------------

    @functools.cached_property
    def _next_triangle(self):
        """(triangle index, arc index) -> the triangle across that arc, for
        every arc with two slots, built on first use."""
        return {(t, a): u for a, slots in self._slot_table.items() if len(slots) == 2
                for (t, _), (u, _) in (slots, slots[::-1])}

    @functools.cached_property
    def tile_contexts(self):
        """Memo of `snake`'s tiles, keyed by tile context and filled as
        graphs are built; empty until then.  Each `Tile` keeps its transfer
        steps, so every graph of this triangulation shares them.  The
        triangles are immutable, so an entry never goes stale, and each
        triangulation object has a table of its own."""
        return {}

    def other_triangle(self, a, t):
        u = self._next_triangle.get((t, a))
        if u is None:
            if len(self._slot_table.get(a, ())) != 2:
                raise SurfaceError(f"arc {a} does not have two triangles")
            raise SurfaceError(f"triangle {t} not adjacent to arc {a}")
        return u

    def triangle_walk(self, crossings, start_triangle=None, loop=False):
        """The forced sequence of triangles Delta_0..Delta_d traversed by a
        curve with the given crossing sequence.

        Delta_j and Delta_{j-1} are the two triangles flanking the j-th
        crossed arc, so the walk is determined by its start; validity means
        each forced triangle contains the next crossed arc (cyclically for
        loops, where the walk must also close up).
        """
        crossings = tuple(crossings)
        d = len(crossings)
        if not d:
            raise SurfaceError("empty crossing sequence")
        check_ints(crossings, "crossed arc", SurfaceError)
        pairs = zip(crossings, crossings[1:] + crossings[:1] if loop else crossings[1:])
        if any(a == b for a, b in pairs):
            raise SurfaceError(
                "consecutive crossings of the same arc would need a self-folded triangle"
            )
        if start_triangle is not None:
            check_ints((start_triangle,), "start triangle", SurfaceError)
            if not 0 <= start_triangle < len(self.triangles):
                raise SurfaceError(
                    f"start triangle {start_triangle} out of range 0..{len(self.triangles) - 1}"
                )
        starts = (
            [start_triangle]
            if start_triangle is not None
            else sorted({t for t, _ in self._slot_table.get(crossings[0], ())})
        )
        nxt = self._next_triangle
        last_err = None
        for t0 in starts:
            walk = [t0]
            t = t0
            for a in crossings:
                t = nxt.get((t, a))
                if t is None:
                    if any(u == walk[-1] for u, _ in self._slot_table.get(a, ())):
                        self.other_triangle(a, walk[-1])  # raises: arc a lacks two slots
                    last_err = f"triangle {walk[-1]} misses arc {a}"
                    break
                walk.append(t)
            else:
                if loop and t != t0:
                    last_err = "loop walk does not close up"
                    continue
                return walk
        raise SurfaceError(
            f"invalid crossing sequence {crossings}: {last_err or 'no valid start triangle'}"
        )

    def arc_walks(self, max_len):
        """Yield (start triangle, crossings, triangle walk) for every crossing
        sequence of length 1..max_len, in depth-first preorder: start
        triangles ascending, then each triangle's arc sides in listed order,
        never recrossing the arc just crossed."""
        tris = self.triangles

        def extend(seq, walk):
            if seq:
                yield walk[0], seq, walk
            if len(seq) >= max_len:
                return
            for s in tris[walk[-1]]:
                if s.is_arc and not (seq and s.index == seq[-1]):
                    u = self.other_triangle(s.index, walk[-1])
                    yield from extend(seq + (s.index,), walk + [u])

        for t0 in range(len(tris)):
            yield from extend((), [t0])

    # -- the loop around the boundary ------------------------------------------

    def boundary_loop(self):
        """Crossing sequence of the essential loop isotopic to the boundary.

        Rotating around the single marked point, the loop crosses every
        arc end once: the arc on side k-1 of each corner (t, k) of the fan
        that starts where the boundary segment begins (see `_fans`), up to
        the corner where the segment ends.
        """
        if self.n_marked != 1 or self.n_boundary != 1:
            raise SurfaceError("boundary_loop requires exactly one marked point")
        tris = self.triangles
        fan = next((f for f in self._fans if tris[f[0][0]][f[0][1]] == boundary(1)), ())
        sides = [tris[t][k - 1] for t, k in fan]  # the last is where the fan stops
        if len(sides) != 2 * self.n_arcs + 1 or sides[-1].is_arc:
            raise SurfaceError("boundary loop walk did not visit every arc end")
        return LoopCrossing(tuple(s.index for s in sides[:-1]))

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self):
        return {
            "genus": self.genus,
            "n_arcs": self.n_arcs,
            "n_boundary": self.n_boundary,
            "n_marked": self.n_marked,
            "triangles": [[str(s) for s in tri] for tri in self.triangles],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data):
        keys = ("genus", "n_arcs", "n_boundary", "n_marked", "triangles")
        if not isinstance(data, dict) or not set(keys) <= set(data):
            raise SurfaceError(f"surface data must be an object with keys {', '.join(keys)}")
        for k in keys[:-1]:
            check_ints((data[k],), k, SurfaceError)
        tris = data["triangles"]
        if not isinstance(tris, list) or not all(isinstance(t, list) for t in tris):
            raise SurfaceError("triangles must be a list of side lists")
        return cls(**{k: data[k] for k in keys})

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


# -- builtin surfaces ---------------------------------------------------------


def builtin_genus(g):
    """Triangulation of the genus-g surface with one boundary component and
    one marked point (6g-2 arcs, 4g-1 triangles).

    Arcs 1, 2 form the core pair; two ladders of triangles climb from the
    core to the boundary triangle, sharing rung arcs in opposite order:

      arcs:  d_i = 2 + i           (i = 1..2g-2)
             a_i = 2g + i          (i = 1..2g-1)
             b_i = (6g-1) - i      (i = 1..2g-1)
      triangles: (1, 2, a_1), (1, 2, b_1),
                 (a_{i+1}, a_i, d_i),             i = 1..2g-2
                 (d_{2g-1-i}, b_i, b_{i+1}),      i = 1..2g-2
                 (a_{2g-1}, b_{2g-1}, B)

    each listed counterclockwise.  For g = 1 this degenerates to (1, 2, 3),
    (1, 2, 4), (3, 4, B); for g = 2 it reproduces the triangulation forced
    by the crossing sequences in the genus-2 identity checks.  The
    orientation was validated against the Laurent-polynomial identities for
    g = 1 and, in closed form, for g >= 2 (`verify.check_genusg`).
    """
    check_ints((g,), "genus", SurfaceError)
    if g < 1:
        raise SurfaceError("genus must be >= 1")
    d = [arc(2 + i) for i in range(1, 2 * g - 1)]
    a = [arc(2 * g + i) for i in range(1, 2 * g)]
    b = [arc((6 * g - 1) - i) for i in range(1, 2 * g)]
    tris = [(arc(1), arc(2), a[0]), (arc(1), arc(2), b[0])]
    tris += [(a[i + 1], a[i], d[i]) for i in range(2 * g - 2)]
    tris += [(d[2 * g - 3 - i], b[i], b[i + 1]) for i in range(2 * g - 2)]
    tris.append((a[-1], b[-1], boundary(1)))
    T = Triangulation(genus=g, n_arcs=6 * g - 2, n_boundary=1, n_marked=1, triangles=tuple(tris))
    problems = T.validate()
    if problems:
        raise SurfaceError(f"builtin genus-{g} triangulation invalid: {problems}")
    return T


def builtin_genus1():
    return builtin_genus(1)


def builtin_genus2():
    return builtin_genus(2)


def annulus_fixture():
    """The annulus with one marked point on each boundary circle: the
    smallest surface carrying an essential loop, used as a band-graph test
    fixture (not a builtin one-marked-point surface)."""
    return Triangulation(
        genus=0,
        n_arcs=2,
        n_boundary=2,
        n_marked=2,
        triangles=(
            (arc(1), arc(2), boundary(1)),
            (arc(1), arc(2), boundary(2)),
        ),
    )


__all__ = [
    "SideRef",
    "arc",
    "boundary",
    "ArcCrossing",
    "LoopCrossing",
    "Triangulation",
    "SurfaceError",
    "sides_after",
    "turn",
    "builtin_genus",
    "builtin_genus1",
    "builtin_genus2",
    "annulus_fixture",
]
