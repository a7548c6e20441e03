import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clusterlab
from clusterlab import verify
from clusterlab.algebra import LaurentPolynomial as LP
from clusterlab.cli import main as cli_main
from clusterlab.mutation import Seed
from clusterlab.snake import (
    SnakeError,
    build_band,
    build_snake,
    expand,
    expand_band,
    trim_to_band,
)
from clusterlab.surface import ArcCrossing, SurfaceError, builtin_genus, builtin_genus1, turn
from clusterlab.verify import (
    GENUS1_ARCS,
    GENUS2_ARCS,
    CaseError,
    check_chebyshev,
    check_eq1,
    check_fuzz,
    check_genusg,
    check_mutation_oracle,
    run_cases,
    zigzag_arcs,
    zigzag_v_arcs,
)

# the genus-2 coefficient monomial Y of the V-identity, as (i, exponent of y_i)
GENUS2_Y = ((1, 1), (2, 1), (3, 1), (4, 1), (5, 2), (6, 1), (7, 1), (9, 1))


def test_all_cases_pass():
    reports = run_cases()
    assert all(r.status == "pass" for r in reports), [
        (r.name, r.status, r.detail) for r in reports
    ]


def test_case_report_fields():
    r = check_eq1()
    assert r.name == "eq1" and r.status == "pass"
    assert r.elapsed_ms >= 0
    with pytest.raises(AttributeError):
        r.name = "eq2"
    d = r.to_json_dict()
    assert set(d) == {"name", "status", "elapsed_ms", "detail"}


def test_eq1_negative_control_perturbed_x1():
    # perturbing X1 by +1 must produce a nonzero difference
    T = builtin_genus1()
    n = 4
    p = {k: expand(build_snake(T, ArcCrossing(v))) for k, v in GENUS1_ARCS.items()}
    L = expand_band(build_band(T, T.boundary_loop()))
    X1 = expand_band(trim_to_band(build_snake(T, ArcCrossing(GENUS1_ARCS["V1"]))))
    X1_bad = X1 + LP.one(n)

    def y(*pairs):
        e = [0] * n
        for i, k in pairs:
            e[i - 1] += k
        return LP.y_monomial(n, n, e)

    rhs = L + y((3, 1)) * (
        (y((4, 1)) * X1_bad + LP.x_var(3, n))
        * (X1_bad + y((1, 1), (2, 1), (3, 1)) * LP.x_var(4, n))
    )
    assert not (p["V1"] * p["V2"] - rhs).is_zero()


def test_eq2_negative_control_dropped_x3():
    T = builtin_genus1()
    n = 4
    p = {k: expand(build_snake(T, ArcCrossing(v))) for k, v in GENUS1_ARCS.items()}
    X1 = expand_band(trim_to_band(build_snake(T, ArcCrossing(GENUS1_ARCS["V1"]))))

    def y(*pairs):
        e = [0] * n
        for i, k in pairs:
            e[i - 1] += k
        return LP.y_monomial(n, n, e)

    rhs_without_x3 = (
        y((1, 1)) * p["W1"]
        + y((4, 1)) * X1
        + y((1, 1), (2, 1), (3, 1), (4, 1)) * LP.x_var(4, n)
        + y((1, 1), (3, 1)) * LP.x_var(1, n) * LP.x_var(2, n)
    )
    assert not (p["U1"] * p["U2"] - rhs_without_x3).is_zero()


def test_genusg_reproduces_genus2():
    # the closed forms at g = 2 are the genus-2 fixture arcs and monomial
    T, arcs = zigzag_arcs(2)
    assert {k: v.sequence for k, v in arcs.items()} == GENUS2_ARCS
    r = check_genusg(2)
    assert r.status == "pass"
    assert "y5^2" in r.detail
    n = T.n_arcs
    e = [0] * n
    for i, k in GENUS2_Y:
        e[i - 1] += k
    Y = r.detail.split("Y = ")[1].split(";")[0]
    assert LP.parse(Y, n) == LP.y_monomial(n, n, e)


def test_genusg_below_genus_2_is_an_error():
    r = check_genusg(1)
    assert (r.status, r.detail) == ("error", "genus-g identity needs g >= 2")
    with pytest.raises(CaseError, match="^genus-g identity needs g >= 2$"):
        zigzag_v_arcs(1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_chebyshev_bracelets(k):
    r = check_chebyshev(k)
    assert (r.name, r.status) == ("chebyshev", "pass"), r.detail


@pytest.mark.parametrize("nx, where", [(2, "annulus"), (4, "genus-1 boundary")])
def test_chebyshev_names_the_surface_that_fails(monkeypatch, nx, where):
    real = verify.chebyshev
    monkeypatch.setattr(verify, "chebyshev", lambda k, L: real(k, L) + (1 if L.nx == nx else 0))
    r = check_chebyshev(2)
    assert r.status == "fail"
    assert r.detail.startswith(f"{where} bracelet T_2: nonzero difference")


def test_fuzz_deterministic_reports():
    a = check_fuzz(trials=20, max_len=5, seed=42)
    b = check_fuzz(trials=20, max_len=5, seed=42)
    assert (a.status, a.detail) == (b.status, b.detail)
    # one sequence per surface per pair of trials: the count run is reported
    assert check_fuzz(trials=3, max_len=2).detail.startswith("2 sequences of length <= 2")


def test_fuzz_fails_on_a_mixed_sign_c_vector(monkeypatch):
    def mixed(seed, seq):
        n = seed.n
        row = seed.M[0][:n] + (1, -1) + (0,) * (n - 2)
        return Seed((row,) + seed.M[1:], seed.cluster)

    monkeypatch.setattr(verify, "mutate_seq", mixed)
    r = check_fuzz(trials=2, max_len=3, seed=0)
    assert r.status == "fail"
    assert r.detail.startswith("c-vector (1, -1, 0, 0) not sign-coherent after sequence")


@pytest.mark.parametrize(
    "name, fake, detail",
    [
        # mutate_seq returns a seed whose x1 is negated
        ("mutate_seq",
         lambda s, seq: Seed(s.M, (-s.cluster[0],) + s.cluster[1:]),
         "negative coefficient after sequence"),
        # a "mutation" that rotates the cluster is not an involution
        ("mutate", lambda s, k: Seed(s.M, s.cluster[1:] + s.cluster[:1]),
         "involution failed after"),
    ],
    ids=["negative-coefficient", "involution"],
)
def test_fuzz_fails_on_a_broken_seed(monkeypatch, name, fake, detail):
    monkeypatch.setattr(verify, name, fake)
    r = check_fuzz(trials=2, max_len=3, seed=0)
    assert r.status == "fail"
    assert r.detail.startswith(detail)


def _perturb_polys(monkeypatch, name, change):
    """Make `verify._polys` return change(T, p[name]) in place of p[name]."""
    polys = verify._polys

    def perturbed(T, arcs, trimmed):
        p = polys(T, arcs, trimmed)
        return {**p, name: change(T, p[name])}

    monkeypatch.setattr(verify, "_polys", perturbed)


def test_genus2_fails_when_the_u_residual_loses_y1(monkeypatch):
    # U2 + 1 in place of U2 adds U1, whose y-free term is not divisible by y1
    _perturb_polys(monkeypatch, "U2", lambda T, p: p + 1)
    r = check_genusg(2)
    assert (r.status, r.detail) == ("fail", "U residual is not divisible by y1")


@pytest.mark.parametrize("g", range(2, 7))
def test_genusg_fails_with_an_extra_y_on_the_w3_term(monkeypatch, g):
    _perturb_polys(monkeypatch, "W3", lambda T, p: p * LP.y_var(4 * g - 1, T.n_arcs))
    r = check_genusg(g)
    assert r.status == "fail"
    assert r.detail.startswith(f"genus-{g} U-identity: nonzero difference")


def test_eq1_fails_on_a_perturbed_fixture(monkeypatch):
    genus1_polys = verify._genus1_polys

    def perturbed():
        T, polys = genus1_polys()
        return T, {**polys, "X1": polys["X1"] + 1}

    monkeypatch.setattr(verify, "_genus1_polys", perturbed)
    r = check_eq1()
    assert r.status == "fail"
    assert r.detail.startswith("eq (1) principal: nonzero difference")


def test_genusg_fails_on_a_perturbed_x1(monkeypatch, capsys):
    # X1 + 1 in place of X1 makes the V-identity false: a failure, not a crash
    _perturb_polys(monkeypatch, "X1", lambda T, p: p + 1)
    r = check_genusg(3)
    assert r.status == "fail"
    assert r.detail.startswith("genus-3 V-identity: nonzero difference")
    assert cli_main(["verify", "genus3"]) == 1
    assert "FAIL    genus3" in capsys.readouterr().out


@pytest.mark.parametrize(
    "v1, status, detail, code",
    [
        # swapping the last two directions still reaches V1; the detail
        # names the sequence that ran
        ((8, 9, 10, 2, 1, 9, 4, 3, 6), "pass",
         "mutate_seq(8,9,10,2,1,9,4,3,6) = V1 and mutate_seq(7,6,5,1,2,6,3,9,4) = V2", 0),
        # without its last direction the sequence reaches another variable
        ((8, 9, 10, 2, 1, 9, 4, 6), "fail", "mutation oracle V1: nonzero difference", 1),
    ],
    ids=["reordered", "truncated"],
)
def test_mutation_oracle_runs_the_recorded_sequences(monkeypatch, v1, status, detail, code):
    seqs = {**verify.GENUS2_MUTATION_SEQUENCES, "V1": v1}
    monkeypatch.setattr(verify, "GENUS2_MUTATION_SEQUENCES", seqs)
    r = check_mutation_oracle()
    assert r.status == status and r.detail.startswith(detail), r.detail
    assert cli_main(["verify", "mutation_oracle"]) == code


def test_eq2_rhs_termwise_sum_is_u1u2():
    # the five right-hand terms of the identity sum to U1*U2 exactly
    T = builtin_genus1()
    n = 4
    p = {k: expand(build_snake(T, ArcCrossing(v))) for k, v in GENUS1_ARCS.items()}
    X1 = expand_band(trim_to_band(build_snake(T, ArcCrossing(GENUS1_ARCS["V1"]))))

    def y(*pairs):
        e = [0] * n
        for i, k in pairs:
            e[i - 1] += k
        return LP.y_monomial(n, n, e)

    terms = [
        y((1, 1)) * p["W1"],
        LP.x_var(3, n),
        y((4, 1)) * X1,
        y((1, 1), (2, 1), (3, 1), (4, 1)) * LP.x_var(4, n),
        y((1, 1), (3, 1)) * LP.x_var(1, n) * LP.x_var(2, n),
    ]
    total = LP.zero(n)
    for t in terms:
        total = total + t
    assert total == p["U1"] * p["U2"]


# -- CLI ------------------------------------------------------------------------


def test_cli_verify_single_case(capsys):
    assert cli_main(["verify", "eq1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "eq1" in out


def test_cli_verify_json(capsys):
    assert cli_main(["verify", "chebyshev", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["status"] == "pass"
    assert set(data[0]) == {"name", "status", "elapsed_ms", "detail"}


def test_cli_expand_and_mutate(capsys):
    assert cli_main(["expand", "--surface", "genus1", "--arc", "3,4", "--coeff", "trivial"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "x1^2*x3^-1 + x1*x2*x3^-1*x4^-1 + x2^2*x4^-1"

    assert cli_main(["expand", "--surface", "genus1", "--arc", "2,1", "--loop", "--coeff", "trivial"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "x1*x2^-1 + x1^-1*x2 + x1^-1*x2^-1*x3*x4"

    assert cli_main(["mutate", "--surface", "genus1", "--seq", "1", "--show", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "x1^-1*x2^2*y1 + x1^-1*x3*x4"

    # without --show every cluster entry is listed
    assert cli_main(["mutate", "--surface", "genus1", "--seq", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["x1' = x1^-1*x2^2*y1 + x1^-1*x3*x4", "x2' = x2", "x3' = x3", "x4' = x4"]

    assert cli_main(["expand", "--surface", "annulus", "--arc", "1,2", "--loop"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "x1*x2^-1 + x1^-1*x2*y1*y2 + x1^-1*x2^-1*y2"


def test_cli_surface_print(capsys):
    assert cli_main(["surface", "--genus", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_arcs"] == 10


def test_cli_surface_from_file(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(builtin_genus1().to_json())
    assert cli_main(["expand", "--surface", str(path), "--arc", "1", "--coeff", "trivial"]) == 0
    assert capsys.readouterr().out.strip() == "x1^-1*x2^2 + x1^-1*x3*x4"


def test_all_fixture_crossings_validate():
    from clusterlab.surface import builtin_genus2
    from clusterlab.verify import GENUS2_ARCS

    T1, T2 = builtin_genus1(), builtin_genus2()
    for seq in GENUS1_ARCS.values():
        T1.triangle_walk(seq)
    for seq in GENUS2_ARCS.values():
        T2.triangle_walk(seq)
    T1.triangle_walk(T1.boundary_loop().cyclic_sequence, loop=True)
    T2.triangle_walk(T2.boundary_loop().cyclic_sequence, loop=True)


def test_specialize_trivial_on_expansion_positive():
    from clusterlab.algebra import SemifieldSpec, specialize

    T = builtin_genus1()
    u1 = expand(build_snake(T, ArcCrossing(GENUS1_ARCS["U1"])))
    s = specialize(u1, SemifieldSpec.trivial())
    assert s.coefficients_positive()
    assert s == u1.set_y_one()


def test_cli_verify_unknown_case(capsys):
    assert cli_main(["verify", "nonsense"]) == 2
    assert "unknown case" in capsys.readouterr().err


def test_python_dash_m_clusterlab_runs_the_cli():
    src = str(Path(clusterlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "clusterlab", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    ok, bad = run("verify", "eq1"), run("verify", "nosuch")
    assert (ok.returncode, ok.stderr) == (0, "") and ok.stdout.startswith("PASS    eq1")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("clusterlab: error: unknown case 'nosuch'")


def test_typed_errors_share_one_base_class():
    from clusterlab import ClusterlabError
    from clusterlab.algebra import ExponentOverflow, RankMismatch
    from clusterlab.mutation import MutationError
    from clusterlab.surface import SurfaceError

    for cls in (SurfaceError, SnakeError, MutationError, RankMismatch, ExponentOverflow):
        assert issubclass(cls, ClusterlabError) and issubclass(cls, ValueError)


def test_parse_and_search_errors_are_typed():
    from clusterlab import ClusterlabError
    from clusterlab.algebra import LaurentPolynomial, ParseError

    assert issubclass(ParseError, ClusterlabError) and issubclass(ParseError, ValueError)
    # malformed text reaches a caller that catches the package's base class
    with pytest.raises(ClusterlabError):
        LaurentPolynomial.parse("x1 +", 2)


def test_public_names_resolve():
    # a name left in a module's __all__ after its definition is gone passes
    # every other test but breaks `from module import *`
    import ast
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(clusterlab.__path__):
        if info.name == "__main__":
            continue
        # raises AttributeError on a name in __all__ that the module lacks
        exec(f"from clusterlab.{info.name} import *", {})

    # the package re-exports only names its modules list in __all__
    tree = ast.parse(Path(clusterlab.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"clusterlab.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, (node.module, alias.name)
                assert getattr(clusterlab, alias.name) is getattr(module, alias.name)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("expand --surface genus0 --arc 1", "genus must be >= 1"),
        ("mutate --surface genus1 --seq 7", "mutation index 7 out of range 1..4"),
        ("expand --surface missing.json --arc 1", "cannot read surface 'missing.json'"),
        ("expand --surface genus1 --arc x", "--arc takes comma-separated integers"),
        ("expand --surface genus1 --arc 1,1", "consecutive crossings of the same arc"),
        ("mutate --surface genus1 --seq 1 --show 9", "--show 9 out of range 1..4"),
        ("mutate --surface genus1 --seq 1 --show 0", "--show 0 out of range 1..4"),
        ("expand --surface genus1 --arc 1 --start-triangle 9", "start triangle 9 out of range"),
        ("expand --surface not-json.txt --arc 1", "malformed surface file 'not-json.txt'"),
        ("mutate --surface invalid.json --seq 1", "invalid surface 'invalid.json': arc index A7"),
        ("expand --surface counts.json --arc 1,3", "genus must be an int, not 1.9"),
        ("expand --surface genus1 --arc 1 --loop", "band graphs need at least two tiles"),
        ("expand --surface genus1 --arc 1,4,3 --loop", "does not close up (odd turn parity)"),
        (
            "expand --surface genus1 --arc 2,1 --loop --start-triangle 7",
            "--start-triangle applies to arcs, not to --loop",
        ),
        ("surface --genus 0", "genus must be >= 1"),
        ("verify nonsense", "unknown case 'nonsense'; known: eq1, eq2"),
    ],
)
def test_cli_bad_input_is_one_line_and_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-json.txt").write_text("genus 1")
    bad = json.loads(builtin_genus1().to_json())
    bad["triangles"][0][2] = "A7"
    (tmp_path / "invalid.json").write_text(json.dumps(bad))
    counts = {**builtin_genus1().to_json_dict(), "genus": 1.9, "n_arcs": 4.7}
    (tmp_path / "counts.json").write_text(json.dumps(counts))
    assert cli_main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("clusterlab: error: ")
    assert message in err


def test_separation_formula_tropical_semifield():
    # evaluating the genus-1 quadrilateral identity in a nontrivial tropical
    # semifield: with hat(p) = specialize(p, s) and Fhat(p) the tropical
    # value of its F-polynomial,
    #   hat(V1) hat(V2) Fhat(V1) Fhat(V2)
    #     = hat(L) Fhat(L)
    #     + yhat3 (yhat4 hat(X1) Fhat(X1) + x3)(hat(X1) Fhat(X1) + yhat1 yhat2 yhat3 x4)
    from clusterlab.algebra import SemifieldSpec, specialize, tropical_eval
    from clusterlab.snake import build_band, trim_to_band
    from clusterlab.verify import GENUS1_ARCS

    T = builtin_genus1()
    n, m = 4, 2
    assignment = [(1, -2), (0, 1), (-1, 1), (2, 0)]  # y_i -> monomials in rank 2
    s = SemifieldSpec.tropical(m, assignment)

    polys = {k: expand(build_snake(T, ArcCrossing(v))) for k, v in GENUS1_ARCS.items()}
    polys["L"] = expand_band(build_band(T, T.boundary_loop()))
    polys["X1"] = expand_band(trim_to_band(build_snake(T, ArcCrossing(GENUS1_ARCS["V1"]))))

    def hat_with_f(key):
        p = polys[key]
        fhat = tropical_eval(p.f_polynomial(), s)
        return specialize(p, s) * LP.y_monomial(n, m, fhat.exps)

    def yhat(*idxs):
        e = [0] * m
        for i in idxs:
            for j, v in enumerate(assignment[i - 1]):
                e[j] += v
        return LP.y_monomial(n, m, e)

    def x(i):
        return LP.monomial(n, m, 1, [1 if j == i else 0 for j in range(1, n + 1)])

    lhs = hat_with_f("V1") * hat_with_f("V2")
    x1f = hat_with_f("X1")
    rhs = hat_with_f("L") + yhat(3) * (yhat(4) * x1f + x(3)) * (x1f + yhat(1, 2, 3) * x(4))
    assert (lhs - rhs).is_zero()

    # and the second identity in the same semifield
    lhs2 = hat_with_f("U1") * hat_with_f("U2")
    rhs2 = (
        yhat(1) * hat_with_f("W1")
        + x(3)
        + yhat(4) * x1f
        + yhat(1, 2, 3, 4) * x(4)
        + yhat(1, 3) * x(1) * x(2)
    )
    assert (lhs2 - rhs2).is_zero()


# -- the zigzag arcs ------------------------------------------------------------


@pytest.mark.parametrize("g", range(2, 9))
def test_zigzag_arcs_are_closed_zigzags_from_the_boundary_triangle(g):
    # what the search required of an arc, asked of the closed form
    T, *arcs = zigzag_v_arcs(g)
    btri = next(t for t, tri in enumerate(T.triangles) if any(not s.is_arc for s in tri))
    for v, first in zip(arcs, (4 * g, 4 * g - 1)):
        seq = v.sequence
        walk = T.triangle_walk(seq, v.start_triangle)
        assert len(seq) == 6 * g - 2 and seq[0] == seq[-1] == first
        assert walk[0] == walk[-1] == btri
        turns = {turn(T.triangles[walk[j]], seq[j - 1], seq[j])[0] for j in range(1, len(seq))}
        assert len(turns) == 1
        dirs = build_snake(T, v).glue_dirs
        assert all(dirs[i] != dirs[i + 1] for i in range(len(dirs) - 1))
    # each U and W arc of the U-identity has exactly one valid start triangle
    _, cut = zigzag_arcs(g)
    for name in ("U1", "U2", "W1", "W2", "W3"):
        seq = cut[name].sequence
        starts = []
        for t in range(len(T.triangles)):
            try:
                T.triangle_walk(seq, t)
            except SurfaceError:
                continue
            starts.append(t)
        assert len(starts) == 1, (name, starts)
    assert check_genusg(g).status == "pass"


def _zigzag_v_arcs_exhaustive(g):
    """Reference for zigzag_v_arcs: every crossing sequence of length 6g-2
    from the boundary triangle, each closing one checked by building its
    snake graph and requiring alternating glue directions."""
    T = builtin_genus(g)
    btri = next(
        t for t, tri in enumerate(T.triangles) if any(not s.is_arc for s in tri)
    )
    length = 6 * g - 2

    def search(first):
        found = []

        def rec(tri, seq):
            if len(seq) == length:
                if tri == btri and seq[-1] == first:
                    S = build_snake(T, ArcCrossing(tuple(seq), start_triangle=btri))
                    dirs = S.glue_dirs
                    if all(dirs[i] != dirs[i + 1] for i in range(len(dirs) - 1)):
                        found.append(tuple(seq))
                return
            for s in T.triangles[tri]:
                if s.is_arc and s.index != seq[-1]:
                    rec(T.other_triangle(s.index, tri), seq + [s.index])

        rec(T.other_triangle(first, btri), [first])
        return ArcCrossing(min(found), start_triangle=btri)

    return T, search(4 * g), search(4 * g - 1)


@pytest.mark.parametrize("g", [2, 3])
def test_zigzag_search_equals_exhaustive_search(g):
    assert zigzag_v_arcs(g) == _zigzag_v_arcs_exhaustive(g)


# -- crashed cases ------------------------------------------------------------------


def test_crashed_case_is_reported_as_error(monkeypatch, capsys):
    def crash(g):
        raise SnakeError("boom")

    monkeypatch.setattr(verify, "zigzag_v_arcs", crash)
    reports = run_cases()
    assert [r.name for r in reports] == [
        "eq1", "eq2", "genus2", "mutation_oracle", "genus3", "chebyshev", "fuzz"
    ]
    status = {r.name: (r.status, r.detail) for r in reports}
    assert status.pop("genus2") == status.pop("genus3") == ("error", "SnakeError: boom")
    assert all(st == "pass" for st, _ in status.values())
    assert cli_main(["verify", "all"]) == 2
    out = capsys.readouterr().out
    assert "ERROR   genus2" in out and "ERROR   genus3" in out


def test_fixture_construction_failure_is_an_error(monkeypatch):
    def crash(T, loop, start_triangle=None):
        raise SnakeError("boom")

    monkeypatch.setattr(verify, "build_band", crash)
    r = check_eq1()
    assert r.status == "error"
    assert r.detail == "genus-1 fixture construction failed: SnakeError: boom"
