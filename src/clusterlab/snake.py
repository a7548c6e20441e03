"""Snake graphs of arcs, band graphs of loops, and the matching expansion.

Construction.  Crossing the arcs t_{i_1}, ..., t_{i_d} in order traverses a
strip of triangles D_0, ..., D_d; tile j is the quadrilateral around the
j-th crossed arc, straightened into a unit square whose conceptual corners
(c1, c2, c3, c4) run counterclockwise with the crossed arc on the diagonal
c1-c3.  The backward triangle D_{j-1} covers sides s12 = c1c2, s23 = c2c3
and the forward triangle D_j covers s34, s41; the glue edge to the previous
tile is s12 when D_{j-1} turns R and s23 when it turns L, and the glue edge
to the next tile is s41 after an R turn of D_j and s34 after an L turn (see
`surface.turn`).  Tiles are laid out in one pass, each from the direction
the previous one was left in: with the sides S, E, N, W counterclockwise,
tile j puts s12, s23, s34, s41 at the rotation r + sign*i (i = 0..3), where
the incoming glue edge faces the previous tile (S if that was left north, W
if east) and sign = +1 unless that would make the tile exit south or west,
in which case sign = -1.  The first tile of a snake takes sign = +1 and
leaves east.  This pins the graph up to a global reflection that
perfect-matching polynomials cannot see.

A band graph's first tile is entered from the east, so it closes up exactly
when its last tile is left east too; it then identifies the spare east side
of the last tile with the west side of the first, matching the corners that
touch the diagonals.

Matchings.  The expansion is one frontier dynamic program over the raw
edge segments in tile order, with a band cut open at its wrap: the wrap
edge takes part as its two segments, the west side of the first tile and
the east side of the last.  The state is the set of covered vertices that
still have segments to come, and a vertex leaves it after its last segment,
covered.  The value is a map {packed term key: coefficient}, and taking a
segment shifts every key by its edge's offset, the x-field unit of an arc
label.  The good matchings of a band are exactly the perfect matchings of
the cut graph that take at least one copy of the wrap edge (Musiker,
Schiffler and Williams, arXiv:1110.4364); one state bit records that a copy
was taken, and the wrap's label is counted once.  Heights follow a ray
rule.  Tiles step only north or east, so a ray leaving tile j through a
boundary side f_j (a side of tile j alone) meets no other tile, and tile j
lies inside P - P_min, the symmetric difference with the minimal matching,
exactly when f_j is in exactly one of P and P_min.  So every tile height is
0 or 1: f_j adds y_{i_j} if it is not in P_min, and otherwise subtracts it
from a start key that holds one y_{i_j}.

Flip enumeration is the oracle.  `enumerate_masks` lists all perfect
matchings of a snake graph, and the good matchings of a band graph, as the
flip closure of the minimal matching; a tile flips when both its horizontal
or both its vertical edges are matched.  A flip raises the tile's height by
one when the matched pair consists of the sides {c2c3, c4c1} of the
conceptual quadrilateral (the sides adjacent to the glue edges), and lowers
it when it consists of {c1c2, c3c4}; the minimal matching is the unique
flip-source.  It is found by descending from a seed: the alternating
matching of the boundary cycle through the first tile's incoming side,
taken on the graph before a band's wrap is glued and carried across the
glue.  The y-weight of a matching is the product of y_{i_j} over tiles
counted with their heights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .algebra import LaurentPolynomial, _add_into, term_codec
from .errors import ClusterlabError
from .surface import LoopCrossing, SurfaceError, sides_after, turn


class SnakeError(ClusterlabError):
    pass


# Tile sides in counterclockwise order.
_DIRS = ("S", "E", "N", "W")
_CORNER_OFFSETS = {"SW": (0, 0), "SE": (1, 0), "NE": (1, 1), "NW": (0, 1)}
_EDGE_CORNERS = {"S": ("SW", "SE"), "E": ("SE", "NE"), "N": ("NW", "NE"), "W": ("SW", "NW")}


@dataclass(frozen=True)
class Tile:
    position: int  # 1-based index along the snake
    grid: tuple  # drawing coordinates of the SW corner
    diagonal: int  # crossed arc index
    labels: tuple  # (("S", SideRef), ("E", ...), ("N", ...), ("W", ...))
    sign: int  # +1 orientation-preserving drawing, -1 reversed
    diag_corners: tuple = field(compare=False, repr=False)  # corners on the diagonal
    hor_is_a: bool = field(compare=False, repr=False)  # S, N carry sides {s12, s34}

    @property
    def edge_labels(self):
        return dict(self.labels)


class _Edge:
    __slots__ = ("index", "label", "segments", "tiles", "vertices")

    def __init__(self, index, label):
        self.index = index
        self.label = label
        self.segments = []  # geometric instances ((x1,y1),(x2,y2))
        self.tiles = []  # (tile index, direction)
        self.vertices = None  # canonical endpoints, set later

    def __repr__(self):
        return f"_Edge({self.index}, {self.label}, tiles={self.tiles})"


def _shared_corner(a, b):
    (corner,) = set(_EDGE_CORNERS[a]) & set(_EDGE_CORNERS[b])
    return corner


def _lay_out(T, crossings, walk, loop):
    """Draw every tile in one pass; returns (tiles, glue_dirs) where
    glue_dirs[j] joins tile j to tile j+1 (a band's wrap, always W to E,
    is not included)."""
    d = len(crossings)
    # turns[j]: the turn of the triangle between crossings j and j+1
    turns = [
        turn(T.triangles[walk[j + 1]], crossings[j], crossings[(j + 1) % d])[0]
        for j in range(d if loop else d - 1)
    ]
    tiles, exits = [], []
    grid = (0, 0)
    for j, c in enumerate(crossings):
        tri_b, tri_f = T.triangles[walk[j]], T.triangles[walk[j + 1]]
        sides = sides_after(tri_b, c) + sides_after(tri_f, c)  # s12 s23 s34 s41
        # slots of the incoming and outgoing glue edges, which carry the
        # third sides of the turning triangles
        a = (0 if turns[j - 1] == "R" else 1) if loop or j else None
        b = (3 if turns[j] == "R" else 2) if j < len(turns) else None
        if a is None:
            sign, r = 1, (3 if b == 2 else 2)  # leave east
        else:
            # slot a faces the previous tile: S if that was left N, W if left
            # E (a band's first tile is entered from E)
            p = 0 if exits and exits[-1] == "N" else 3
            sign, r = 1, p - a
            if b is not None and (r + b) % 4 in (0, 3):
                sign, r = -1, p + a
        at = [_DIRS[(r + sign * i) % 4] for i in range(4)]
        if j:
            grid = (grid[0] + 1, grid[1]) if exits[-1] == "E" else (grid[0], grid[1] + 1)
        if b is not None:
            exits.append(at[b])
        tiles.append(
            Tile(
                position=j + 1,
                grid=grid,
                diagonal=c,
                labels=tuple((dr, sides[at.index(dr)]) for dr in _DIRS),
                sign=sign,
                diag_corners=(_shared_corner(at[3], at[0]), _shared_corner(at[1], at[2])),
                hor_is_a=r % 2 == 0,
            )
        )
    if loop and exits[-1] != "E":
        raise SnakeError("band drawing does not close up (odd turn parity)")
    return tiles, exits[: d - 1]


class MatchingGraph:
    """A snake graph (`wrap` is None) or a band graph (`wrap` names the
    glued sides of the first and last tiles), with the segments the
    expansion runs over and the tile structure of flip enumeration."""

    def __init__(self, T, crossings, walk, tiles, glue_dirs, wrap=None):
        self.triangulation = T
        self.n_arcs = T.n_arcs
        self.crossings = tuple(crossings)
        self.walk = tuple(walk)
        self.tiles = tiles  # list of Tile
        self.glue_dirs = tuple(glue_dirs)
        self.wrap = wrap  # None or (first_dir, last_dir)
        self._minimal = None
        self._build()

    # -- construction ------------------------------------------------------

    def _corner(self, tile, name):
        ox, oy = _CORNER_OFFSETS[name]
        return (tile.grid[0] + ox, tile.grid[1] + oy)

    def _build(self):
        d = len(self.tiles)
        glued = {}  # first-tile corner -> last-tile corner it is glued to
        seg_edge = {}  # raw segment -> edge, in tile order
        edges = []

        def add_segment(tile_idx, tile, direction, label):
            c1, c2 = _EDGE_CORNERS[direction]
            p1, p2 = self._corner(tile, c1), self._corner(tile, c2)
            seg = (min(p1, p2), max(p1, p2))
            if seg in seg_edge:
                e = seg_edge[seg]
                if e.label != label:
                    raise SnakeError(
                        f"glue label mismatch at {seg}: {e.label} vs {label}"
                    )
            else:
                e = _Edge(len(edges), label)
                e.segments.append(seg)
                edges.append(e)
                seg_edge[seg] = e
            e.tiles.append((tile_idx, direction))
            return e

        tile_edges = [
            {dr: add_segment(jj, tile, dr, label) for dr, label in tile.labels}
            for jj, tile in enumerate(self.tiles)
        ]

        first_dir = "S" if self.wrap is None else self.wrap[0]
        seed = _alternating_boundary_matching(edges, tile_edges[0][first_dir])

        if self.wrap is not None:
            # Tiles step only north or east, so the last tile's N/E side is
            # never the first tile's S/W side: the wrap always joins two edges.
            last_dir = self.wrap[1]
            e_first = tile_edges[0][first_dir]
            e_last = tile_edges[d - 1][last_dir]
            if e_first.label != e_last.label:
                raise SnakeError(
                    f"band wrap labels differ: {e_first.label} vs {e_last.label}"
                )

            # match the corners touching the tiles' diagonals
            def split(tile_idx, direction):
                tile = self.tiles[tile_idx]
                name = next(
                    n for n in _EDGE_CORNERS[direction] if n in tile.diag_corners
                )
                other = next(n for n in _EDGE_CORNERS[direction] if n != name)
                return self._corner(tile, name), self._corner(tile, other)

            glued = dict(zip(split(0, first_dir), split(d - 1, last_dir)))
            e_last.segments.extend(e_first.segments)
            e_last.tiles.extend(e_first.tiles)
            edges.pop(e_first.index)
            for i, e in enumerate(edges):
                e.index = i
            tile_edges[0][first_dir] = e_last
            seg_edge[e_first.segments[0]] = e_last
            # The seed held e_first; its vertices are now e_last's, which
            # the seed covers either by e_last itself or by its neighbours.
            seed.discard(e_first)

        for e in edges:
            vs = {glued.get(p, p) for seg in e.segments for p in seg}
            if len(vs) != 2:
                raise SnakeError("degenerate edge after band identification")
            e.vertices = frozenset(vs)

        self.edges = edges
        # the graph cut open at a band's wrap: (segment, edge index) pairs
        self.segments = [(seg, e.index) for seg, e in seg_edge.items()]
        self._seed = sum(1 << e.index for e in seed)
        self.tile_edges = [
            {dr: e.index for dr, e in te.items()} for te in tile_edges
        ]
        self.vertices = sorted({v for e in edges for v in e.vertices})
        if len(self.vertices) % 2:
            raise SnakeError("odd vertex count; no perfect matchings exist")

        # flip masks and flip orientation per tile
        self.hor_mask = []
        self.ver_mask = []
        self.up_from_hor = []
        for jj in range(d):
            te = self.tile_edges[jj]
            if len({te["S"], te["N"], te["E"], te["W"]}) != 4:
                raise SnakeError("tile with identified sides is unsupported")
            self.hor_mask.append((1 << te["S"]) | (1 << te["N"]))
            self.ver_mask.append((1 << te["E"]) | (1 << te["W"]))
            self.up_from_hor.append(not self.tiles[jj].hor_is_a)

        self.edge_weight = [
            e.label.index if e.label.is_arc else 0 for e in edges
        ]
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._edge_vmask = [
            (1 << self._vertex_index[a]) | (1 << self._vertex_index[b])
            for e in edges
            for a, b in [tuple(e.vertices)]
        ]

    # -- basic matching utilities -------------------------------------------

    def is_perfect(self, mask):
        cover = 0
        m = mask
        while m:
            b = m & -m
            i = b.bit_length() - 1
            vm = self._edge_vmask[i]
            if cover & vm:
                return False
            cover |= vm
            m ^= b
        return cover == (1 << len(self.vertices)) - 1

    def flips(self, mask):
        """(tile index, flipped mask, up?) for every flippable tile.

        A flip raises the height exactly when the matched pair consists of
        the tile sides next to the incoming and outgoing glue edges (the
        pair {c2c3, c4c1} of the conceptual quadrilateral); this is
        drawing-independent and is pinned by the coefficient identities of
        the verification suite.
        """
        out = []
        for jj in range(len(self.tiles)):
            h, v = self.hor_mask[jj], self.ver_mask[jj]
            if mask & h == h:
                out.append((jj, mask ^ (h | v), self.up_from_hor[jj]))
            elif mask & v == v:
                out.append((jj, mask ^ (h | v), not self.up_from_hor[jj]))
        return out

    # -- enumeration ----------------------------------------------------------

    def enumerate_masks(self):
        """All perfect matchings of a snake graph, or all good matchings of a
        band graph, as (edge bitmask, per-arc height vector) pairs: the flip
        closure of the minimal matching in breadth-first order from it.

        Every rediscovery is checked for height consistency, which
        certifies that the parity rule for flip directions is globally
        coherent on this graph.
        """
        m0 = self.minimal_mask()
        zero = (0,) * self.n_arcs
        seen = {m0: zero}
        frontier = [(m0, zero)]
        arc_of = [t.diagonal - 1 for t in self.tiles]
        while frontier:
            nxt = []
            for mask, hv in frontier:
                for jj, child, up in self.flips(mask):
                    arc_i = arc_of[jj]
                    ch = list(hv)
                    ch[arc_i] += 1 if up else -1
                    ch = tuple(ch)
                    known = seen.get(child)
                    if known is not None:
                        if ch != known:
                            raise SnakeError("inconsistent flip heights")
                        continue
                    if ch[arc_i] < 0:
                        raise SnakeError(
                            "negative height: minimal matching is not minimal"
                        )
                    seen[child] = ch
                    nxt.append((child, ch))
            frontier = nxt
        return list(seen.items())

    def minimal_mask(self):
        """The unique source of the flip order, reached from the seed by
        down-flips."""
        if self._minimal is None:
            mask = self._seed
            if not self.is_perfect(mask):
                raise SnakeError("boundary seed is not a perfect matching")
            while True:
                down = next((m for _, m, up in self.flips(mask) if not up), None)
                if down is None:
                    break
                mask = down
            self._minimal = mask
        return self._minimal

    # -- debug dump ---------------------------------------------------------------

    def to_debug_dict(self):
        out = {
            "kind": "snake" if self.wrap is None else "band",
            "crossings": list(self.crossings),
            "glue_dirs": list(self.glue_dirs),
        }
        if self.wrap is not None:
            first_dir, last_dir = self.wrap
            out["wrap"] = {
                "first_tile_edge": first_dir,
                "last_tile_edge": last_dir,
                "label": str(self.edges[self.tile_edges[0][first_dir]].label),
            }
        out["tiles"] = [
            {
                "position": t.position,
                "grid": list(t.grid),
                "diagonal": t.diagonal,
                "sign": t.sign,
                "labels": {dr: str(s) for dr, s in t.labels},
            }
            for t in self.tiles
        ]
        return out

    def to_debug_json(self):
        return json.dumps(self.to_debug_dict(), indent=2)

    # -- weights ----------------------------------------------------------------

    def mask_x_exps(self, mask):
        xe = [0] * self.n_arcs
        m = mask
        while m:
            b = m & -m
            i = b.bit_length() - 1
            w = self.edge_weight[i]
            if w:
                xe[w - 1] += 1
            m ^= b
        return tuple(xe)


def _alternating_boundary_matching(edges, start):
    """Every other edge of the boundary cycle, starting with `start`, of a
    graph whose edges still have one segment each (a band not yet glued)."""
    incident = {}
    for e in edges:
        if len(e.tiles) == 1:
            for p in e.segments[0]:
                incident.setdefault(p, []).append(e)
    if any(len(es) != 2 for es in incident.values()):
        raise SnakeError("boundary of the graph is not a single cycle")
    cycle, v = [start], start.segments[0][0]
    while True:
        e = next(f for f in incident[v] if f is not cycle[-1])
        if e is start:
            break
        cycle.append(e)
        p, q = e.segments[0]
        v = q if p == v else p
    return set(cycle[0::2])


def build_snake(T, crossing):
    """Snake graph of an arc: one tile per crossing."""
    seq = tuple(crossing.sequence)
    walk = T.triangle_walk(seq, crossing.start_triangle)
    return MatchingGraph(T, seq, walk, *_lay_out(T, seq, walk, loop=False))


def build_band(T, loop, start_triangle=None):
    """Band graph of an essential loop: one period of tiles, glued up."""
    seq = tuple(loop.cyclic_sequence)
    if len(seq) < 2:
        raise SnakeError("band graphs need at least two tiles")
    try:
        walk = T.triangle_walk(seq, start_triangle, loop=True)
    except SurfaceError as exc:
        raise SnakeError(
            f"loop {seq} does not validate against the triangulation"
        ) from exc
    return MatchingGraph(T, seq, walk, *_lay_out(T, seq, walk, loop=True), ("W", "E"))


def trim_to_band(S):
    """Delete the first and last tiles of a snake graph with equal first and
    last diagonals, and glue the freed edges into a band graph."""
    seq = S.crossings
    if len(seq) < 3:
        raise SnakeError("trimming needs at least three tiles")
    if seq[0] != seq[-1]:
        raise SnakeError("first and last diagonals differ; trimmed ends cannot glue")
    inner = seq[1:-1]
    lc = LoopCrossing(inner)
    # canonical rotation may shift the sequence; shift the start triangle too
    r = next(
        r for r in range(len(inner)) if inner[r:] + inner[:r] == lc.cyclic_sequence
    )
    return build_band(S.triangulation, lc, start_triangle=S.walk[1 + r])


def all_matchings_bruteforce(G):
    """Independent oracle: every perfect matching, by exhaustive recursion
    over vertices (no flip structure involved)."""
    n_v = len(G.vertices)
    incident = [[] for _ in range(n_v)]
    vidx = {v: i for i, v in enumerate(G.vertices)}
    for e in G.edges:
        a, b = tuple(e.vertices)
        incident[vidx[a]].append((e.index, vidx[b]))
        incident[vidx[b]].append((e.index, vidx[a]))
    results = []

    def rec(covered, mask):
        if covered == (1 << n_v) - 1:
            results.append(mask)
            return
        v = next(i for i in range(n_v) if not covered >> i & 1)
        for ei, u in incident[v]:
            if not covered >> u & 1:
                rec(covered | (1 << v) | (1 << u), mask | (1 << ei))

    rec(0, 0)
    return sorted(results)


def expand(S, coeffs="principal"):
    """Matching expansion of a snake graph: the Laurent polynomial
    sum_P x(P) y(P) / (x_{i_1} ... x_{i_d})."""
    return _expansion(S, coeffs)


def expand_band(Bd, coeffs="principal"):
    """Matching expansion of a band graph over its good matchings."""
    return _expansion(Bd, coeffs)


def _put(states, s, terms):
    """Add the term map `terms` into the value of state `s`."""
    cur = states.get(s)
    if cur is None:
        states[s] = terms
    else:
        _add_into(cur, terms)


def _expansion(G, coeffs):
    """Frontier dynamic program over the edges of the graph cut open at a
    band's wrap, in tile order; see "Matchings" in the module docstring."""
    if coeffs not in ("principal", "trivial"):
        raise SnakeError(f"coeffs must be 'principal' or 'trivial', not {coeffs!r}")
    n = G.n_arcs
    ny = n if coeffs == "principal" else 0
    # unit[i]: the key offset of exponent field i (x1..xn, then y1..yn)
    unit = [1 << 32 * (n + ny - 1 - i) for i in range(n + ny)]
    offset = [unit[e.label.index - 1] if e.label.is_arc else 0 for e in G.edges]
    start = term_codec(n + ny).zero - sum(unit[a - 1] for a in G.crossings)
    if ny:
        m0 = G.minimal_mask()
        for j, tile in enumerate(G.tiles):
            f = next(i for i in G.tile_edges[j].values() if len(G.edges[i].tiles) == 1)
            y = unit[n + tile.diagonal - 1]
            if m0 >> f & 1:
                start += y
                offset[f] -= y
            else:
                offset[f] += y
    wrap = None
    if G.wrap is not None:
        wrap = G.tile_edges[0][G.wrap[0]]
        start -= offset[wrap]

    # One step per raw segment, in tile order: (vertex bits, key offset, wrap
    # copy?, vertices seen for the last time).  Bit 0 of a state records
    # that a wrap copy was taken.
    steps, vbit, last = [], {}, {}
    for k, ((p, q), i) in enumerate(G.segments):
        bp = vbit.setdefault(p, 2 << len(vbit))
        bq = vbit.setdefault(q, 2 << len(vbit))
        last[p] = last[q] = k
        steps.append([bp | bq, offset[i], i == wrap, 0])
    for p, k in last.items():
        steps[k][3] |= vbit[p]

    states = {0: {start: 1}}
    for bits, off, is_wrap, done in steps:
        nxt = {}
        for s, terms in states.items():
            if not s & bits:  # take the segment
                _put(nxt, s | bits | is_wrap, {k + off: c for k, c in terms.items()})
            _put(nxt, s, terms)  # leave it out; `terms` is not read again
        states = {s ^ done: v for s, v in nxt.items() if s & done == done} if done else nxt
    terms = states.get(0 if wrap is None else 1, {})
    # Every tile height is 0 or 1 and every edge count at most len(G.edges).
    return LaurentPolynomial.from_packed(n, ny, terms, max(len(G.edges), len(G.crossings)))


__all__ = [
    "Tile",
    "MatchingGraph",
    "SnakeError",
    "build_snake",
    "build_band",
    "trim_to_band",
    "all_matchings_bruteforce",
    "expand",
    "expand_band",
]
