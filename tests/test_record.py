"""The immutable records: each pins the repr, equality, hash and
immutability its frozen-dataclass form had, and importing the CLI loads
neither `dataclasses` nor `inspect`."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import clusterlab
from clusterlab.algebra import SemifieldSpec, TropicalMonomial
from clusterlab.mutation import Seed, initial_seed
from clusterlab.snake import Tile, build_snake
from clusterlab.surface import ArcCrossing, LoopCrossing, SideRef, Triangulation, builtin_genus1
from clusterlab.verify import CaseReport


def _tile(labels=(("S", SideRef("A", 1)),), diag_corners=("SW", "NE"), hor_is_a=True):
    return Tile(4, labels, 1, diag_corners, hor_is_a, None, "E")


# (make(), a different record, its fields in constructor order, its repr)
RECORDS = {
    "SideRef": (lambda: SideRef("A", 3), SideRef("B", 3), ("kind", "index"),
                "SideRef(kind='A', index=3)"),
    "ArcCrossing": (lambda: ArcCrossing([1, 2], 0), ArcCrossing((1, 2)),
                    ("sequence", "start_triangle"),
                    "ArcCrossing(sequence=(1, 2), start_triangle=0)"),
    "LoopCrossing": (lambda: LoopCrossing([2, 1, 3]), LoopCrossing((1, 2, 3)),
                     ("cyclic_sequence",), "LoopCrossing(cyclic_sequence=(1, 3, 2))"),
    "Triangulation": (lambda: Triangulation(1, 2, 3, 4, (("A1", "B1", "A2"),)),
                      Triangulation(1, 2, 3, 5, (("A1", "B1", "A2"),)),
                      ("genus", "n_arcs", "n_boundary", "n_marked", "triangles"),
                      "Triangulation(genus=1, n_arcs=2, n_boundary=3, n_marked=4, triangles="
                      "((SideRef(kind='A', index=1), SideRef(kind='B', index=1), "
                      "SideRef(kind='A', index=2)),))"),
    "Tile": (_tile, Tile(4, (("S", SideRef("A", 1)),), -1, (), True, None, "E"),
             ("diagonal", "labels", "sign", "entry", "exit"),
             "Tile(diagonal=4, labels=(('S', SideRef(kind='A', index=1)),), sign=1, "
             "entry=None, exit='E')"),
    "Seed": (lambda: initial_seed(((0, 1), (-1, 0))), initial_seed(((0, -1), (1, 0))),
             ("M", "cluster"),
             "Seed(M=((0, 1, 1, 0), (-1, 0, 0, 1)), cluster=(LaurentPolynomial('x1'), "
             "LaurentPolynomial('x2')))"),
    "TropicalMonomial": (lambda: TropicalMonomial((1, -2)), TropicalMonomial((1, 2)),
                         ("exps",), "TropicalMonomial(exps=(1, -2))"),
    "SemifieldSpec": (lambda: SemifieldSpec.tropical_identity(2), SemifieldSpec("tropical", 2),
                      ("kind", "rank", "assignment"),
                      "SemifieldSpec(kind='tropical', rank=2, assignment=(TropicalMonomial("
                      "exps=(1, 0)), TropicalMonomial(exps=(0, 1))))"),
    "CaseReport": (lambda: CaseReport("eq1", "pass", "ok", 1.5), CaseReport("eq1", "pass", "ok"),
                   ("name", "status", "detail", "elapsed_ms"),
                   "CaseReport(name='eq1', status='pass', detail='ok', elapsed_ms=1.5)"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_equality_hash_and_immutability(name):
    make, other, fields, text = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    assert repr(a) == text
    values = tuple(getattr(a, f) for f in fields)
    assert a == b and not a != b and hash(a) == hash(b) == hash(values)
    assert a != other and not a == other
    # another class compares unequal without raising
    assert a.__eq__(values) is NotImplemented and a != values
    with pytest.raises(AttributeError):
        setattr(a, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(a, fields[-1])
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert getattr(a, fields[0]) is values[0]


def test_record_constructor_defaults_and_checks():
    assert ArcCrossing((1,)) == ArcCrossing(sequence=(1,), start_triangle=None)
    assert SemifieldSpec("trivial") == SemifieldSpec(kind="trivial", rank=0, assignment=())
    assert CaseReport("x", "fail") == CaseReport("x", "fail", detail="", elapsed_ms=0.0)
    seed = initial_seed(((0, 1), (-1, 0)))
    assert Seed(M=seed.M, cluster=seed.cluster) == seed


def test_sideref_orders_by_kind_then_index():
    sides = [SideRef("B", 1), SideRef("A", 2), SideRef("A", 10), SideRef("A", 1)]
    assert sorted(sides) == [SideRef("A", 1), SideRef("A", 2), SideRef("A", 10), SideRef("B", 1)]
    a1, a2 = SideRef("A", 1), SideRef("A", 2)
    assert a1 < a2 and a1 <= a2 and a2 > a1 and a2 >= a1 and a1 <= SideRef("A", 1)
    assert not (a1 > SideRef("A", 1) or a1 < SideRef("A", 1))
    with pytest.raises(TypeError):
        a1 < ("A", 2)  # noqa: B015


def test_tile_ignores_its_drawing_corners_and_steps():
    a = _tile()
    b = _tile(diag_corners=("SE", "NW"), hor_is_a=False)
    a.steps[0] = "step"
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert (b.diag_corners, b.hor_is_a, b.steps) == (("SE", "NW"), False, [None] * 4)
    # each tile has step slots of its own, and they stay writable
    assert a.steps is not b.steps
    with pytest.raises(AttributeError):
        a.steps = []
    # the shared tiles of one snake keep their steps
    S = build_snake(builtin_genus1(), ArcCrossing((4, 1, 2)))
    assert any(t.steps for t in S.tiles)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(clusterlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, clusterlab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("name", RECORDS)
def test_records_copy_and_pickle(name):
    a = RECORDS[name][0]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and repr(b) == repr(a) and type(b) is type(a)
        with pytest.raises(AttributeError):
            setattr(b, RECORDS[name][2][0], None)
