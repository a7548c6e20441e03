"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Every check is an exact zero-test of a normalized polynomial
difference (no tolerances); the stated runtime budgets are asserted."""

import random
import time

import pytest

from clusterlab.algebra import LaurentPolynomial as LP, SemifieldSpec, chebyshev, specialize, tropical_eval
from clusterlab.mutation import initial_seed, matrix_rank, mutate, mutate_seq
from clusterlab.snake import (
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
    annulus_fixture,
    builtin_genus,
    builtin_genus1,
    builtin_genus2,
)
from clusterlab.verify import (
    GENUS1_ARCS,
    GENUS2_ARCS,
    check_eq1,
    check_eq2,
    check_genusg,
)


def _report(num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"  {status}  criterion {num}: {label} ({elapsed:.2f}s < {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_eq1_exact():
    t0 = time.perf_counter()
    r = check_eq1()
    _report(1, "eq (1) exact on genus-1 fixtures", r.status == "pass", time.perf_counter() - t0, 5.0)


def test_criterion_2_eq2_exact():
    t0 = time.perf_counter()
    r = check_eq2()
    _report(2, "eq (2) exact on genus-1 fixtures", r.status == "pass", time.perf_counter() - t0, 5.0)


def test_criterion_3_trivial_specializations():
    t0 = time.perf_counter()
    T = builtin_genus1()
    n = 4
    p = {k: expand(build_snake(T, ArcCrossing(v))) for k, v in GENUS1_ARCS.items()}
    L = expand_band(build_band(T, T.boundary_loop()))
    X1 = expand_band(trim_to_band(build_snake(T, ArcCrossing(GENUS1_ARCS["V1"]))))
    triv = SemifieldSpec.trivial()

    def y(*pairs):
        e = [0] * n
        for i, k in pairs:
            e[i - 1] += k
        return LP.y_monomial(n, n, e)

    rhs1 = L + y((3, 1)) * (
        (y((4, 1)) * X1 + LP.x_var(3, n)) * (X1 + y((1, 1), (2, 1), (3, 1)) * LP.x_var(4, n))
    )
    rhs2 = (
        y((1, 1)) * p["W1"]
        + LP.x_var(3, n)
        + y((4, 1)) * X1
        + y((1, 1), (2, 1), (3, 1), (4, 1)) * LP.x_var(4, n)
        + y((1, 1), (3, 1)) * LP.x_var(1, n) * LP.x_var(2, n)
    )
    ok = (
        specialize(p["V1"] * p["V2"], triv) == specialize(rhs1, triv)
        and specialize(p["U1"] * p["U2"], triv) == specialize(rhs2, triv)
    )
    # F-polynomials evaluate tropically to 1 at the identity assignment
    ident = SemifieldSpec.tropical_identity(n)
    for key in ("V1", "V2", "U1", "U2", "W1"):
        f = p[key].f_polynomial()
        ok = ok and f.constant_term() == 1
        ok = ok and tropical_eval(f, ident).is_one()
    ok = ok and tropical_eval(L.f_polynomial(), ident).is_one()
    _report(3, "trivial specializations of eqs (1)/(2) + tropical F = 1", ok, time.perf_counter() - t0, 5.0)


def test_criterion_4_genus2_identities():
    t0 = time.perf_counter()
    r = check_genusg(2)
    _report(
        4,
        "genus-2 V-identity and U-identity (closed-form W arcs) exact",
        r.status == "pass",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_5_mutation_oracle_equivalence():
    t0 = time.perf_counter()
    T = builtin_genus2()
    s0 = initial_seed(T.exchange_matrix())
    v1 = expand(build_snake(T, ArcCrossing(GENUS2_ARCS["V1"])))
    v2 = expand(build_snake(T, ArcCrossing(GENUS2_ARCS["V2"])))
    ok = (
        mutate_seq(s0, (8, 9, 10, 2, 1, 9, 4, 6, 3)).cluster[2] == v1
        and mutate_seq(s0, (7, 6, 5, 1, 2, 6, 3, 9, 4)).cluster[3] == v2
    )
    _report(5, "mutate_seq equals matching expansion on genus-2 arcs", ok, time.perf_counter() - t0, 60.0)


def test_criterion_6_genus3_identity():
    t0 = time.perf_counter()
    r = check_genusg(3)
    ok = r.status == "pass" and "Y = y" in r.detail
    _report(6, f"genus-3 V- and U-identities with closed-form monomial ({r.detail})", ok, time.perf_counter() - t0, 300.0)


@pytest.mark.parametrize("g", [4, 5, 6])
def test_criterion_6_genusg_identity_scales(g):
    t0 = time.perf_counter()
    r = check_genusg(g)
    ok = r.status == "pass" and "Y = y" in r.detail
    _report(6, f"genus-{g} V- and U-identities with closed-form monomial", ok, time.perf_counter() - t0, 5.0)


def test_criterion_7_annulus_closed_form():
    t0 = time.perf_counter()
    A = annulus_fixture()
    band = build_band(A, LoopCrossing((1, 2)))
    z = expand_band(band, "trivial")
    expected = LP(2, 0, {(1, -1): 1, (-1, 1): 1, (-1, -1): 1})  # (x1^2+x2^2+1)/(x1 x2)
    ok = z == expected
    # independent brute-force check: good matchings are among all perfect
    # matchings and reproduce the same three weights
    brute = all_matchings_bruteforce(band)
    good = [m for m, _ in band.enumerate_masks()]
    ok = ok and set(good) <= set(brute) and len(good) == 3 and len(brute) == 5
    weights = sorted(band.mask_x_exps(m) for m in good)
    ok = ok and weights == [(0, 0), (0, 2), (2, 0)]
    _report(7, "annulus band equals (x1^2+x2^2+1)/(x1 x2), brute-force checked", ok, time.perf_counter() - t0, 5.0)


def test_criterion_8_chebyshev_bracelets():
    t0 = time.perf_counter()
    A = annulus_fixture()
    loop = LoopCrossing((1, 2))
    z1 = expand_band(build_band(A, loop), "trivial")
    z2 = expand_band(build_band(A, loop.repeated(2)), "trivial")
    ok = z2 == chebyshev(2, z1)
    T = builtin_genus1()
    bloop = T.boundary_loop()
    L1 = expand_band(build_band(T, bloop), "trivial")
    L2 = expand_band(build_band(T, bloop.repeated(2)), "trivial")
    ok = ok and L2 == chebyshev(2, L1)
    _report(8, "double-wrap bands equal L^2 - 2 (annulus and genus-1)", ok, time.perf_counter() - t0, 5.0)


def test_criterion_9_matching_enumeration_oracle():
    t0 = time.perf_counter()
    T1, T2 = builtin_genus1(), builtin_genus2()
    fixtures = [
        build_snake(T1, ArcCrossing(seq))
        for seq in ((1,), (1, 3), (4, 2), (3, 4), (4, 2, 1, 4), (3, 1, 2, 3))
    ] + [
        build_snake(T2, ArcCrossing(seq))
        for seq in (
            (8, 9, 10, 2),
            (10, 4, 6, 3),
            (3, 6, 4, 10, 1, 5, 6, 7),
            (5, 6, 7, 8, 3, 6, 4, 10),
            (8, 9, 10, 2, 1, 10, 4, 6, 3, 8),
            (7, 4, 9, 3, 5, 2, 1, 5, 6, 7),
        )
    ]
    ok = True
    for S in fixtures:
        assert len(S.tiles) <= 10
        ms = S.enumerate_masks()
        masks = sorted(m for m, _ in ms)
        ok = ok and masks == all_matchings_bruteforce(S)
        ok = ok and sum(1 for _, hv in ms if not any(hv)) == 1
    _report(9, "flip-BFS equals brute force on all fixture snakes (<= 10 tiles)", ok, time.perf_counter() - t0, 60.0)


def test_criterion_10_fuzz_involution_rank():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for T in (builtin_genus1(), builtin_genus2()):
        n = T.n_arcs
        s0 = initial_seed(T.exchange_matrix())
        for _ in range(50):
            seq = [rng.randint(1, n) for _ in range(rng.randint(0, 8))]
            s = mutate_seq(s0, seq)
            ok = ok and all(v.coefficients_positive() for v in s.cluster)
    # 1000 involution trials across both seeds
    for T in (builtin_genus1(), builtin_genus2()):
        n = T.n_arcs
        s0 = initial_seed(T.exchange_matrix())
        for _ in range(500):
            s = mutate_seq(s0, [rng.randint(1, n) for _ in range(rng.randint(0, 3))])
            k = rng.randint(1, n)
            ok = ok and mutate(mutate(s, k), k) == s
    for g in (1, 2, 3, 4):
        T = builtin_genus(g)
        ok = ok and matrix_rank(T.exchange_matrix()) == T.n_arcs
    _report(10, "fuzz: Laurent positivity, 1000 involutions, rank(B) maximal g <= 4", ok, time.perf_counter() - t0, 300.0)
