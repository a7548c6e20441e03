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

A band graph's first tile is entered on W, as if the tile before it was
left east, so it closes up exactly when its last tile is left east; it then
identifies the spare east side of the last tile with the west side of the
first, matching the corners that touch the diagonals.

Context tables.  A tile depends only on its context: the triangle before
it, the previous, current and next crossings (None past a snake's ends) and
the direction the previous tile was left in.  `Triangulation.tile_contexts`
maps each context to its `Tile`, which every graph of that triangulation
shares, together with the transfer steps (see Matchings) that the first
expansion to need them fills in.  A graph's own layout is its tile list;
contexts first drawn by a build join the table only once the graph passes
its checks.  The 25,152 tiles of the genus-2 arcs of length at most 8 have
278 contexts.

Matchings.  The expansion is a transfer program with one step per tile of a
snake or of one drawing period of a band, and it reads only the layout:
labels, `hor_is_a`, diagonals, glue directions and the wrap.  Its state is
the covered bits of the corners of the tile's outgoing glue side, its value
a map {packed term key: coefficient} held with a pending key offset that
every key is still to be shifted by.  A tile is entered on S if the previous
tile left N and on W if it left E, and adds its non-incoming sides: a table
made once per (incoming, outgoing) pair lists the side subsets that cover
every corner off the outgoing side once, and a move by a subset adds the
x-field units of its arc labels to the pending offset without copying the
map.  Where two moves reach one state, the smaller map is shifted by the
difference of the two offsets and added into the larger; a map that two
states may hold is copied before it is written.  A snake's final map is
shifted once, and its last tile leaves E and covers both of its corners.  A
band is cut open at its wrap: its first tile is entered on W, its last tile
leaves E, these two copies of the wrap edge are separate sides, and the good
matchings are the perfect matchings of the cut graph that take at least one
copy (Musiker, Schiffler and Williams, arXiv:1110.4364).  A state bit
records a copy, and one wrap label comes off every term: a good matching
holds the wrap edge exactly when it takes both copies.  A band whose tiles
repeat with period p, such as a k-fold loop, steps through one period only:
run from each corner state of its incoming side, the period's steps give its
2x2 transfer matrix A over term maps, and each wrap branch goes through
d/p - 1 products with A before it is closed at the wrap.  This is the
snake-graph form of the 2x2 matrix formulae of Musiker and Williams
(arXiv:1108.3382).  Heights follow a ray rule.  Tiles step only north or
east, so a ray leaving tile j through f_j, its first side in S, E, N, W
order that belongs to tile j alone, meets no other tile, and tile j lies
inside P - P_min, the symmetric difference with the minimal matching,
exactly when f_j is in exactly one of P and P_min; so every tile height is 0
or 1.  P_min has a closed form: a side of one tile only lies in it exactly
when it carries s23 or s41 (E/W when `hor_is_a`, else S/N), and no other
edge does.

Flip enumeration is the oracle.  `enumerate_masks` lists all perfect
matchings of a snake graph, and the good matchings of a band graph, as the
flip closure of the minimal matching; a tile flips when both its horizontal
or both its vertical edges are matched.  A flip raises the tile's height by
one when the matched pair consists of the sides {c2c3, c4c1} of the
conceptual quadrilateral (the sides adjacent to the glue edges), and lowers
it when it consists of {c1c2, c3c4}; the minimal matching is the unique
flip-source, and `minimal_mask` checks that the closed form is perfect with
no down-flip.  The y-weight of a matching is the product of y_{i_j} over
tiles counted with their heights.  The edge, vertex and flip tables these
oracles read are read off the layout by `MatchingGraph._build` on first use,
never by the expansion: a tile's incoming side is the previous tile's
outgoing edge, corner i on corner i, and a band's wrap is glued as above.
Drawing coordinates (`MatchingGraph.grid`) serve only the debug dump.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from itertools import product

from .algebra import LaurentPolynomial, _mul_terms, term_codec
from .errors import ClusterlabError
from .record import Record
from .surface import LoopCrossing, SurfaceError, sides_after, turn


class SnakeError(ClusterlabError):
    pass


# Tile sides in counterclockwise order.
_DIRS = ("S", "E", "N", "W")
_CORNERS = ("SW", "SE", "NE", "NW")
# Corner i of an outgoing side E/N is corner i of the next tile's incoming
# side W/S.
_EDGE_CORNERS = {"S": ("SW", "SE"), "E": ("SE", "NE"), "N": ("NW", "NE"), "W": ("SW", "NW")}
_SLOT = {dr: i for i, dr in enumerate(_DIRS)}  # a side's index in `Tile.labels`
# the corner that two adjacent sides share
_SHARED_CORNER = {(a, b): c for a in _DIRS for b in _DIRS if a != b
                  for c in set(_EDGE_CORNERS[a]) & set(_EDGE_CORNERS[b])}


def _transfer_table():
    """{(in_dir, out_dir): {in_state: [(sides, out_state), ...]}}: the sets
    of non-incoming sides that, with the incoming corners covered in in_state
    (bit i: corner i of a glue side, by parity both or neither), cover every
    corner off the outgoing side once.  A snake's first tile has in_dir None."""
    table = {}
    for in_dir, out_dir in product((None, "S", "W"), ("E", "N")):
        free = [dr for dr in _DIRS if dr != in_dir]
        out = _EDGE_CORNERS[out_dir]
        table[in_dir, out_dir] = rows = {}
        for s in (0, 3) if in_dir else (0,):
            rows[s] = moves = []
            for k in range(1 << len(free)):
                sides = [dr for i, dr in enumerate(free) if k >> i & 1]
                cover = [c for i, c in enumerate(_EDGE_CORNERS.get(in_dir, ())) if s >> i & 1]
                cover += [c for dr in sides for c in _EDGE_CORNERS[dr]]
                if len(set(cover)) == len(cover) and set(_CORNERS) - set(out) <= set(cover):
                    moves.append((sides, sum(1 << i for i, c in enumerate(out) if c in cover)))
    return table


_TRANSFER = _transfer_table()
# a tile's first side that no other tile shares (out_dir None: a snake's last tile)
_FIRST_OWN = {(i, o): next(dr for dr in _DIRS if dr not in (i, o))
              for i in (None, "S", "W") for o in (None, "E", "N")}


class Tile(Record):
    """The drawing of a tile in one context, shared by every graph of one
    triangulation, and its transfer steps, made on first use (slot
    2 * principal + band's last tile).  Equality, hash and repr read the
    drawing's diagonal, labels, sign and glue sides only."""

    __slots__ = ("diagonal", "labels", "sign", "diag_corners", "hor_is_a", "entry", "exit", "steps")
    _fields = ("diagonal", "labels", "sign", "entry", "exit")

    def __init__(self, diagonal, labels, sign, diag_corners, hor_is_a, entry, exit):
        set_ = object.__setattr__
        set_(self, "diagonal", diagonal)  # crossed arc index
        set_(self, "labels", labels)  # (("S", SideRef), ("E", ...), ("N", ...), ("W", ...))
        set_(self, "sign", sign)  # +1 orientation-preserving drawing, -1 reversed
        set_(self, "diag_corners", diag_corners)  # corners on the diagonal
        set_(self, "hor_is_a", hor_is_a)  # S, N carry sides {s12, s34}
        set_(self, "entry", entry)  # incoming glue side, S or W (None: a snake's first tile)
        set_(self, "exit", exit)  # outgoing glue side, E or N (None: a snake's last tile)
        set_(self, "steps", [None] * 4)


class _Edge:
    __slots__ = ("index", "label", "tiles", "vertices")

    def __init__(self, index, label):
        self.index = index
        self.label = label
        self.tiles = []  # (tile index, direction)
        self.vertices = None  # its two endpoints in `MatchingGraph.vertices`, set later

    def __repr__(self):
        return f"_Edge({self.index}, {self.label}, tiles={self.tiles})"


def _draw(T, tri_b, tri_f, prev, c, nxt, entered):
    """The turn rule for the tile of crossing c between triangles tri_b and
    tri_f, after crossing prev (None: a snake's first tile) and before
    crossing nxt (None: a snake's last tile), entered from the direction the
    previous tile was left in."""
    tri_b, tri_f = T.triangles[tri_b], T.triangles[tri_f]
    sides = sides_after(tri_b, c) + sides_after(tri_f, c)  # s12 s23 s34 s41
    # slots of the incoming and outgoing glue edges, which carry the third
    # sides of the turning triangles
    a = None if prev is None else (0 if turn(tri_b, prev, c)[0] == "R" else 1)
    b = None if nxt is None else (3 if turn(tri_f, c, nxt)[0] == "R" else 2)
    # slot a faces the previous tile: S if that was left N, W if left E
    entry = None if a is None else ("S" if entered == "N" else "W")
    if a is None:
        sign, r = 1, (3 if b == 2 else 2)  # leave east
    else:
        sign, r = 1, _SLOT[entry] - a
        if b is not None and (r + b) % 4 in (0, 3):
            sign, r = -1, _SLOT[entry] + a
    at = [_DIRS[(r + sign * i) % 4] for i in range(4)]
    return Tile(
        diagonal=c,
        labels=tuple((dr, sides[at.index(dr)]) for dr in _DIRS),
        sign=sign,
        diag_corners=(_SHARED_CORNER[at[3], at[0]], _SHARED_CORNER[at[1], at[2]]),
        hor_is_a=r % 2 == 0,
        entry=entry,
        exit=None if b is None else at[b],
    )


def _lay_out(T, crossings, walk, loop, new):
    """Every tile in order, each the shared tile of its context (see
    "Context tables" above).  Contexts missing from `T.tile_contexts` are
    drawn into `new`."""
    table = T.tile_contexts
    d = len(crossings)
    tiles = []
    # a band's first tile is entered on W, as if the tile before it was left E
    prev, entered = (crossings[-1], "E") if loop else (None, None)
    for j, c in enumerate(crossings):
        nxt = crossings[(j + 1) % d] if loop or j < d - 1 else None
        key = (walk[j], prev, c, nxt, entered)
        tile = table.get(key) or new.get(key)
        if tile is None:
            tile = new[key] = _draw(T, walk[j], walk[j + 1], prev, c, nxt, entered)
        tiles.append(tile)
        prev, entered = c, tile.exit
    if loop and entered != "E":
        raise SnakeError("band drawing does not close up (odd turn parity)")
    return tiles


class MatchingGraph:
    """A snake graph (`wrap` is None) or a band graph (`wrap` names the
    glued sides of the first and last tiles).  The expansion reads only the
    tile layout."""

    # The oracles' edge tables, set by `_build` when one is first read.
    _TABLES = {"edges", "tile_edges", "vertices", "hor_mask", "ver_mask", "up_from_hor",
               "edge_weight", "_edge_vmask"}

    def __init__(self, T, crossings, walk, tiles, wrap=None):
        self.triangulation = T
        self.n_arcs = T.n_arcs
        self.crossings = tuple(crossings)
        self.walk = tuple(walk)
        self.tiles = tiles  # list of Tile
        # glue_dirs[j] joins tile j to tile j+1; a band's wrap is not included
        self.glue_dirs = tuple(t.exit for t in tiles[:-1])
        self.wrap = wrap  # None or (first_dir, last_dir)
        self._minimal = None
        # each glue side, and a band's wrap, carries one label on both tiles
        d = len(tiles)
        for j in range(d if wrap else d - 1):
            t, u = tiles[j], tiles[(j + 1) % d]
            a, b = t.labels[_SLOT[t.exit]][1], u.labels[_SLOT[u.entry]][1]
            if a != b:
                raise SnakeError(f"glued sides {t.exit} of tile {j + 1} and {u.entry} of tile "
                                 f"{(j + 1) % d + 1} differ: {a} vs {b}")

    def __getattr__(self, name):
        if name not in MatchingGraph._TABLES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build()
        return self.__dict__[name]

    # -- construction ------------------------------------------------------

    @functools.cached_property
    def grid(self):
        """Drawing coordinates of each tile's SW corner, read only by the debug
        dump: a tile sits one step east or north of the previous one."""
        x = y = 0
        grid = []
        for t in self.tiles:
            grid.append((x, y))
            if t.exit == "E":
                x += 1
            else:
                y += 1
        return grid

    def _build(self):
        """Edges, vertices and flip masks read off the layout, and the
        invariants the oracles rely on.  Tile j's incoming side is tile j-1's
        outgoing edge, corner i on corner i; a band's first-tile wrap side is
        its last tile's outgoing edge, glued at the corners on the diagonals.
        Edges are numbered in tile and side order, vertices as their corners
        are first met."""
        tiles = self.tiles
        first_dir, last_dir = self.wrap or (None, None)
        edges, tile_edges = [], []
        at = []  # at[j][corner]: the (tile, corner) it was first met as, before the wrap
        for j, t in enumerate(tiles):
            te, corners = {}, {c: (j, c) for c in _CORNERS}
            if j:
                out = tiles[j - 1].exit
                corners.update(zip(_EDGE_CORNERS[t.entry], [at[-1][c] for c in _EDGE_CORNERS[out]]))
            for dr, label in t.labels:
                if j and dr == t.entry:
                    e = tile_edges[-1][out]
                elif not j and dr == first_dir:
                    continue  # the wrap, glued below
                else:
                    e = _Edge(len(edges), label)
                    edges.append(e)
                e.tiles.append((j, dr))
                te[dr] = e
            tile_edges.append(te)
            at.append(corners)

        def ends(j, dr):
            return [at[j][c] for c in _EDGE_CORNERS[dr]]

        # before a band is glued, each boundary corner meets two sides of one tile only
        boundary = [e.tiles[0] for e in edges if len(e.tiles) == 1]
        if self.wrap is not None:
            boundary.append((0, first_dir))
        degree = Counter(p for j, dr in boundary for p in ends(j, dr))
        if any(k != 2 for k in degree.values()):
            raise SnakeError("boundary of the graph is not a single cycle")

        glued = {}  # first-tile corner -> last-tile corner it is glued to
        if self.wrap is not None:
            # Tiles step only north or east, so the wrap always joins two
            # edges; it matches the corners touching the tiles' diagonals.
            def split(j, direction):
                a, b = _EDGE_CORNERS[direction]
                return (a, b) if a in tiles[j].diag_corners else (b, a)

            glued = {at[0][a]: at[-1][b] for a, b in zip(split(0, first_dir), split(-1, last_dir))}
            e = tile_edges[-1][last_dir]
            e.tiles.append((0, first_dir))
            tile_edges[0][first_dir] = e

        vertex_index = {}
        for e in edges:
            vs = [glued.get(p, p) for p in ends(*e.tiles[0])]  # a wrap W copy is glued onto its E copy
            e.vertices = frozenset(vs)
            if len(e.vertices) != 2:
                raise SnakeError("degenerate edge after band identification")
            for p in vs:
                vertex_index.setdefault(p, len(vertex_index))
        if len(vertex_index) % 2:
            raise SnakeError("odd vertex count; no perfect matchings exist")
        tile_edges = [{dr: e.index for dr, e in te.items()} for te in tile_edges]
        if any(len(set(te.values())) != 4 for te in tile_edges):
            raise SnakeError("tile with identified sides is unsupported")

        # flip masks and flip orientation per tile, set once every check passed
        self.__dict__.update(
            edges=edges,
            tile_edges=tile_edges,
            vertices=list(vertex_index),
            hor_mask=[(1 << te["S"]) | (1 << te["N"]) for te in tile_edges],
            ver_mask=[(1 << te["E"]) | (1 << te["W"]) for te in tile_edges],
            up_from_hor=[not t.hor_is_a for t in self.tiles],
            edge_weight=[e.label.index if e.label.is_arc else 0 for e in edges],
            _edge_vmask=[sum(1 << vertex_index[v] for v in e.vertices) for e in edges],
        )

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
        """The unique source of the flip order, in closed form: the sides of
        one tile only that carry s23 or s41 (E/W when `hor_is_a`, else S/N).
        It is checked to be a perfect matching with no down-flip."""
        if self._minimal is None:
            single = [(e.index, *e.tiles[0]) for e in self.edges if len(e.tiles) == 1]
            mask = sum(1 << i for i, jj, dr in single if (dr in "EW") == self.tiles[jj].hor_is_a)
            if not self.is_perfect(mask) or any(not up for _, _, up in self.flips(mask)):
                raise SnakeError("the s23/s41 boundary sides are not the minimal matching")
            self._minimal = mask
        return self._minimal

    # -- debug dump ---------------------------------------------------------------

    def to_debug_json(self):
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
                "label": str(self.tiles[0].labels[_SLOT[first_dir]][1]),
            }
        out["tiles"] = [
            {
                "position": j + 1,
                "grid": list(self.grid[j]),
                "diagonal": t.diagonal,
                "sign": t.sign,
                "labels": {dr: str(s) for dr, s in t.labels},
            }
            for j, t in enumerate(self.tiles)
        ]
        return json.dumps(out, indent=2)

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


def _graph(T, seq, walk, wrap=None):
    """Lay out and check a graph.  The tile contexts it drew first join
    `T.tile_contexts` only once every check passed, so a failed build
    leaves no entry behind."""
    new = {}
    G = MatchingGraph(T, seq, walk, _lay_out(T, seq, walk, wrap is not None, new), wrap)
    T.tile_contexts.update(new)
    return G


def build_snake(T, crossing):
    """Snake graph of an arc: one tile per crossing."""
    seq = tuple(crossing.sequence)
    walk = T.triangle_walk(seq, crossing.start_triangle)
    return _graph(T, seq, walk)


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
    return _graph(T, seq, walk, ("W", "E"))


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
    full = (1 << len(G.vertices)) - 1
    incident = [[(i, vm) for i, vm in enumerate(G._edge_vmask) if vm >> v & 1]
                for v in range(len(G.vertices))]
    results = []

    def rec(covered, mask):
        if covered == full:
            results.append(mask)
            return
        v = (~covered & (covered + 1)).bit_length() - 1  # the first uncovered vertex
        for i, vm in incident[v]:
            if not covered & vm:
                rec(covered | vm, mask | 1 << i)

    rec(0, 0)
    return sorted(results)


def expand(S, coeffs="principal"):
    """Matching expansion of a snake graph: the Laurent polynomial
    sum_P x(P) y(P) / (x_{i_1} ... x_{i_d})."""
    return _expansion(S, coeffs)


def expand_band(Bd, coeffs="principal"):
    """Matching expansion of a band graph over its good matchings."""
    return _expansion(Bd, coeffs)


def _step(tile, ny, band_last, unit):
    """The tile's transfer step: ({in_state: [(key offset, out_state), ...]},
    its share of the start key, the key offset of its W side).  State bit
    2: a wrap copy taken.  It depends only on the tile, the coefficient mode
    and whether it is a band's last tile."""
    in_dir, out_dir = tile.entry, tile.exit or "E"  # a snake's last tile leaves E
    off = {dr: unit[side.index - 1] if side.kind == "A" else 0 for dr, side in tile.labels}
    w_off = off["W"]
    shift = -unit[tile.diagonal - 1]  # the denominator x_{i_j}
    if ny:  # ray rule: the tile has height 1 when f is in one of P and P_min
        f = _FIRST_OWN[tile.entry, tile.exit]
        y = unit[ny + tile.diagonal - 1]
        if (f in "EW") == tile.hor_is_a:  # f is in P_min
            shift += y
            y = -y
        off[f] += y
    wrap_bit = 4 if band_last else 0
    moves = {
        s: [(sum([off[dr] for dr in sides]), t | wrap_bit if out_dir in sides else t)
            for sides, t in moves]
        for s, moves in _TRANSFER[in_dir, out_dir].items()
    }
    return moves, shift, w_off


def _run(states, steps):
    """Run the tile program over `steps` from `states`; see `_expansion`.
    A move keeps bits 2 and 3 of its state."""
    for moves, _, _ in steps:
        nxt = {}
        for s, (base, terms, shared) in states.items():
            out = moves[s & 3]
            shared = shared or len(out) > 1  # kept on every later step too
            for off, t in out:
                t |= s & 12
                o, m, sh = base + off, terms, shared
                if t in nxt:
                    o2, m2, sh2 = nxt[t]
                    if len(m) < len(m2):  # add the smaller map into the larger
                        o, m, sh, o2, m2 = o2, m2, sh2, o, m
                    if sh:  # copy before write
                        m, sh = dict(m), False
                    delta, get = o2 - o, m.get
                    for key, c in m2.items():  # coefficients are positive: no zero sums
                        key += delta
                        m[key] = get(key, 0) + c
                nxt[t] = (o, m, sh)
        states = nxt
    return states


def _contract(v, M, t, zero, out=None):
    """out plus the sum over corner states s of v[s] * M[t | 8 if s else t],
    with no pending offset, or None when it has no summand: v maps a corner
    state to (pending offset, terms), M is the output of a period run, and
    each pending offset is folded into the `zero` of the product."""
    for s, (o, m) in v.items():
        entry = M.get(t | 8 if s else t)
        if entry is not None:
            out = _mul_terms(m, entry[1], zero - o - entry[0], out)
    return out


def _expansion(G, coeffs):
    """Transfer program over the tiles, a band cut open at its wrap; see
    "Matchings" in the module docstring.  Each step is kept on its tile.

    A state is (pending key offset, term map, shared).  A move adds its key
    offset to the pending one and passes the map on, so a state with two
    moves leaves one map to two states; such a map stays marked shared on
    every later step, since either holder may still be merged into.  A merge
    adds the smaller map, shifted by the difference of the two offsets, into
    the larger, which is copied first when it is shared.

    A band of d tiles first finds its drawing period p, the least divisor of
    d with tiles[j] is tiles[j - p] for every j >= p: tiles are shared per
    context, so equal contexts are one object.  The first p - 1 tiles of a
    period run once from corner state 0 and from corner state 3, which bit 3
    tags.  The last tile then runs from those maps, which it only reads: as
    an inner tile, which gives the period's transfer matrix A (when p < d),
    and as the band's last tile, which gives L and sets bit 2 when it takes
    the E copy of the wrap.  The two wrap branches are row vectors over the
    corner states: the W copy taken (corner state 3, no offset) or not
    (corner state 0, less the W label).  Each goes through d/p - 1 products
    with A (`_contract`, which folds the pending offsets into the products)
    and is then contracted with L into state 7: the first branch with L's
    states 3 and 7, and the second with L's state 7, the E copy taken.  A
    band with p = d has an empty chain."""
    if coeffs not in ("principal", "trivial"):
        raise SnakeError(f"coeffs must be 'principal' or 'trivial', not {coeffs!r}")
    n = G.n_arcs
    ny = n if coeffs == "principal" else 0
    codec = term_codec(n + ny)  # fields x1..xn, then y1..yn
    tiles, d, band = G.tiles, len(G.tiles), G.wrap is not None

    p = d
    if band:
        ids = list(map(id, tiles))
        p = next(p for p in range(1, d + 1) if not d % p and ids[p:] == ids[:d - p])
    # a snake's steps, or one period's and then its last tile's as an inner tile
    steps = []
    for j, tile in enumerate(tiles[:p] + tiles[p - 1:p] if band else tiles):
        band_last = band and j == p - 1
        k = 2 * (ny > 0) + band_last
        step = tile.steps[k]
        if step is None:
            step = tile.steps[k] = _step(tile, ny, band_last, codec.units)
        steps.append(step)
    start = codec.zero + d // p * sum([step[1] for step in steps[:p]])
    if not band:
        base, terms, _ = _run({0: (0, {start: 1}, False)}, steps).get(3, (0, {}, False))
        terms = {k + base: c for k, c in terms.items()}
        # Every tile height is 0 or 1, and a snake has 3d + 1 edges.
        return LaurentPolynomial.from_packed(n, ny, terms, 3 * d + 1)

    zero = codec.zero
    head = _run({0: (0, {zero: 1}, False), 11: (0, {zero: 1}, False)}, steps[:p - 1])
    # the A run and then the L run start from these maps: neither may write
    head = {s: (o, m, True) for s, (o, m, _) in head.items()}
    A = _run(head, steps[p:]) if p < d else None
    L = _run(head, steps[p - 1:p])
    # The first W copy of the wrap is taken (corner state 3) or not (0).  An
    # end in state 7 after the W copy is an end in L's state 3 or 7; after
    # no W copy it must take the E copy, state 7.
    terms = None
    for v, ends in (({3: (0, {start: 1})}, (3, 7)), ({0: (-steps[0][2], {start: 1})}, (7,))):
        for _ in range(d // p - 1):
            v = {t: (0, m) for t in (0, 3) if (m := _contract(v, A, t, zero))}
        for t in ends:
            terms = _contract(v, L, t, zero, terms)
    # Every tile height is 0 or 1, and a band has 3d edges.
    return LaurentPolynomial.from_packed(n, ny, terms or {}, 3 * d)


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
