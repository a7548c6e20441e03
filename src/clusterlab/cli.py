"""Command-line interface.

    clusterlab verify <case|all> [--json] [--seed N]
    clusterlab expand --surface <builtin|file.json> --arc 1,3 [--loop]
                      [--coeff principal|trivial] [--start-triangle T (arcs only)]
    clusterlab mutate --surface <...> --seq 8,9,10 --show 10
    clusterlab surface --genus g

`verify` exits 0 when every selected case passes, 1 when a case fails, and
2 when a case errored (crashed) or the case name is unknown.
Bad input to any command prints one line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import ClusterlabError
from .mutation import initial_seed, mutate_seq
from .snake import build_band, build_snake, expand, expand_band
from .surface import (
    ArcCrossing,
    LoopCrossing,
    SurfaceError,
    Triangulation,
    annulus_fixture,
    builtin_genus,
)
from .verify import CASES, run_cases


def load_surface(spec):
    """A builtin name ("genus1", "genus2", ..., "annulus") or a JSON file."""
    m = re.fullmatch(r"genus(\d+)", spec)
    if m:
        return builtin_genus(int(m.group(1)))
    if spec == "annulus":
        return annulus_fixture()
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as exc:
        raise SurfaceError(f"cannot read surface {spec!r}: {exc.strerror}") from exc
    try:
        T = Triangulation.from_json(text)
    except ValueError as exc:  # json's JSONDecodeError, or a SurfaceError
        raise SurfaceError(
            f"malformed surface file {spec!r}: {type(exc).__name__}: {exc}"
        ) from exc
    problems = T.validate()
    if problems:
        raise SurfaceError(f"invalid surface {spec!r}: {'; '.join(problems)}")
    return T


def _int_list(text, option):
    try:
        return tuple(int(t) for t in text.replace(" ", "").split(",") if t)
    except ValueError:
        raise ClusterlabError(
            f"{option} takes comma-separated integers, not {text!r}"
        ) from None


def cmd_verify(args):
    names = None if args.case == "all" else [args.case]
    reports = run_cases(names, seed=args.seed)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        for r in reports:
            line = f"{r.status.upper():7s} {r.name}  ({r.elapsed_ms:.0f} ms)"
            if r.detail:
                line += f"  {r.detail}"
            print(line)
    if any(r.status == "error" for r in reports):
        return 2
    return 0 if all(r.ok for r in reports) else 1


def cmd_expand(args):
    T = load_surface(args.surface)
    seq = _int_list(args.arc, "--arc")
    if args.loop:
        if args.start_triangle is not None:
            raise ClusterlabError("--start-triangle applies to arcs, not to --loop")
        poly = expand_band(build_band(T, LoopCrossing(seq)), args.coeff)
    else:
        poly = expand(
            build_snake(T, ArcCrossing(seq, start_triangle=args.start_triangle)),
            args.coeff,
        )
    print(poly.to_json() if args.json else poly.serialize())
    return 0


def cmd_mutate(args):
    T = load_surface(args.surface)
    if args.show is not None and not 1 <= args.show <= T.n_arcs:
        raise ClusterlabError(f"--show {args.show} out of range 1..{T.n_arcs}")
    seed = mutate_seq(initial_seed(T.exchange_matrix()), _int_list(args.seq, "--seq"))
    if args.show is not None:
        poly = seed.cluster[args.show - 1]
        print(poly.to_json() if args.json else poly.serialize())
    else:
        for i, poly in enumerate(seed.cluster, start=1):
            print(f"x{i}' = {poly.serialize()}")
    return 0


def cmd_surface(args):
    print(builtin_genus(args.genus).to_json())
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="clusterlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run named verification cases")
    p.add_argument("case", nargs="?", default="all", help=f"one of: all, {', '.join(CASES)}")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("expand", help="matching expansion of an arc or loop")
    p.add_argument("--surface", required=True)
    p.add_argument("--arc", required=True, help="comma-separated crossing sequence")
    p.add_argument("--loop", action="store_true", help="treat the sequence as cyclic")
    p.add_argument("--coeff", choices=("principal", "trivial"), default="principal")
    p.add_argument("--start-triangle", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("mutate", help="apply a mutation sequence to the initial seed")
    p.add_argument("--surface", required=True)
    p.add_argument("--seq", required=True, help="comma-separated 1-based directions")
    p.add_argument("--show", type=int, default=None, help="print only cluster entry k")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser("surface", help="print a builtin triangulation")
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(fn=cmd_surface)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ClusterlabError as exc:
        print(f"clusterlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
