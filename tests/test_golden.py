"""Golden digests of canonical output.

Each test hashes the canonical `serialize()` strings of a fixed set of
expansions or mutation results, so any change to the arithmetic, the
matching enumeration or the canonical form shows up as a digest mismatch.
The digests were recorded from the tuple-keyed pure-Python kernels; the
layout digest was recorded from the eight-placement drawing search that the
one-pass turn-rule layout replaced.
"""

import hashlib

from clusterlab.mutation import initial_seed, mutate_seq
from clusterlab.snake import build_band, build_snake, expand, expand_band, trim_to_band
from clusterlab.surface import ArcCrossing, builtin_genus
from clusterlab.verify import (
    GENUS1_ARCS,
    GENUS2_ARCS,
    GENUS2_MUTATION_SEQUENCES,
    zigzag_v_arcs,
)

EXPANSIONS_SHA256 = "361d75ad4fc737530493fbd8ffa7e0095de20ac78c33875599f7b37c2e8c43ed"
MUTATIONS_SHA256 = "f2885a19a0eb206edf7faa86237ca8962c276aa0fd5e2d19a77da96c91af7d03"
LAYOUT_SHA256 = "8f607a3bec45fe3bced98922e92a19e04a6ce0a2f38bee0e4f545dbf949e4e88"


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _expansion_lines():
    lines = []
    for g, arcs, trimmed in ((1, GENUS1_ARCS, ("V1",)), (2, GENUS2_ARCS, ("V1", "V2"))):
        T = builtin_genus(g)
        for name, seq in arcs.items():
            S = build_snake(T, ArcCrossing(seq))
            lines.append(f"genus{g} {name}: {expand(S).serialize()}")
            if name in trimmed:
                X = expand_band(trim_to_band(S))
                lines.append(f"genus{g} X{trimmed.index(name) + 1}: {X.serialize()}")
    for g in (1, 2, 3):
        T = builtin_genus(g)
        L = expand_band(build_band(T, T.boundary_loop()))
        lines.append(f"genus{g} L: {L.serialize()}")
    T, v1, v2 = zigzag_v_arcs(3)
    for name, crossing in (("V1", v1), ("V2", v2)):
        lines.append(f"genus3 {name}: {expand(build_snake(T, crossing)).serialize()}")
    return lines


def _mutation_lines():
    s0 = initial_seed(builtin_genus(2).exchange_matrix())
    lines = []
    for name, seq in GENUS2_MUTATION_SEQUENCES.items():
        s = mutate_seq(s0, seq)
        lines.append(f"{name} B: {s.B}")
        lines.append(f"{name} coeffs: {[y.exps for y in s.coeffs]}")
        lines.extend(f"{name} x{i}: {p.serialize()}" for i, p in enumerate(s.cluster, 1))
    return lines


def _layout_lines():
    """Debug dumps (tile grids, signs, side labels, glue directions, wrap)
    of the genus-1..3 boundary bracelets for k = 1..3, the trimmed bands of
    the fixture arcs, and every genus-2 snake from `arc_walks(6)`."""
    lines = []
    for g in (1, 2, 3):
        T = builtin_genus(g)
        for k in (1, 2, 3):
            lines.append(build_band(T, T.boundary_loop().repeated(k)).to_debug_json())
    for g, arcs in ((1, GENUS1_ARCS), (2, GENUS2_ARCS)):
        T = builtin_genus(g)
        for seq in arcs.values():
            if len(seq) >= 3 and seq[0] == seq[-1]:
                lines.append(trim_to_band(build_snake(T, ArcCrossing(seq))).to_debug_json())
    T = builtin_genus(2)
    for t0, seq, _ in T.arc_walks(6):
        lines.append(build_snake(T, ArcCrossing(seq, start_triangle=t0)).to_debug_json())
    return lines


def test_fixture_expansions_are_byte_identical():
    assert _sha256(_expansion_lines()) == EXPANSIONS_SHA256


def test_mutation_results_are_byte_identical():
    assert _sha256(_mutation_lines()) == MUTATIONS_SHA256


def test_layout_is_byte_identical():
    assert _sha256(_layout_lines()) == LAYOUT_SHA256
