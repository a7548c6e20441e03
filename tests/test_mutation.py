import random

import pytest

from clusterlab.algebra import (
    ExponentOverflow,
    LaurentPolynomial as LP,
    NotDivisible,
    TropicalMonomial,
)
from clusterlab.mutation import (
    MutationError,
    Seed,
    initial_seed,
    matrix_mutate,
    matrix_rank,
    mutate,
    mutate_seq,
)
from clusterlab.snake import build_snake, expand
from clusterlab.surface import ArcCrossing, builtin_genus, builtin_genus1, builtin_genus2


def test_initial_seed_entries():
    T = builtin_genus1()
    s = initial_seed(T.exchange_matrix())
    for k in range(1, 5):
        assert s.cluster[k - 1] == LP.x_var(k, 4)
        assert s.coeffs[k - 1] == TropicalMonomial.generator(k, 4)


def test_initial_seed_rejects_non_skew():
    with pytest.raises(MutationError):
        initial_seed([[0, 1], [1, 0]])


def test_mutate_bounds():
    s = initial_seed(builtin_genus1().exchange_matrix())
    with pytest.raises(MutationError):
        mutate(s, 0)
    with pytest.raises(MutationError):
        mutate(s, 5)
    # an index that is not an int is a typed error too, and a bool is not an int
    for k in (1.0, 2.5, "1", None, True, False):
        with pytest.raises(MutationError):
            mutate(s, k)


def test_mutate_exchange_relation_hand_value():
    # at the initial genus-1 seed, row 1 of B reads (0, 2, -1, -1), so
    # x1 x1' = y1 x2^2 + x3 x4
    T = builtin_genus1()
    B = T.exchange_matrix()
    assert B[0] == [0, 2, -1, -1]
    s1 = mutate(initial_seed(B), 1)
    expected = (LP.y_var(1, 4) * LP.x_var(2, 4) ** 2 + LP.x_var(3, 4) * LP.x_var(4, 4)).div_exact(
        LP.x_var(1, 4)
    )
    assert s1.cluster[0] == expected
    # B mutates skew-symmetrically
    assert all(
        s1.B[i][j] == -s1.B[j][i] for i in range(4) for j in range(4)
    )
    # coefficients stay Laurent monomials in y (tropical closure)
    assert all(isinstance(c, TropicalMonomial) for c in s1.coeffs)


def test_involution_random():
    rng = random.Random(123)
    for T in (builtin_genus1(), builtin_genus2()):
        n = T.n_arcs
        s0 = initial_seed(T.exchange_matrix())
        for _ in range(100):
            s = mutate_seq(s0, [rng.randint(1, n) for _ in range(rng.randint(0, 4))])
            k = rng.randint(1, n)
            assert mutate(mutate(s, k), k) == s


def test_random_mutation_sequences_stay_positive_and_involutive():
    # The property form of the fixed-seed test above, at genus 1-3: every
    # cluster variable after a random sequence is coefficient-positive, and
    # mutating twice in one direction gives the seed back.
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seeds = {g: initial_seed(builtin_genus(g).exchange_matrix()) for g in (1, 2, 3)}

    def check(data):
        s0 = seeds[data.draw(st.integers(1, 3))]
        s = mutate_seq(s0, data.draw(st.lists(st.integers(1, s0.n), max_size=6)))
        assert all(v.coefficients_positive() for v in s.cluster)
        k = data.draw(st.integers(1, s0.n))
        assert mutate(mutate(s, k), k) == s

    hyp.settings(max_examples=100, deadline=None, database=None, derandomize=True)(
        hyp.given(st.data())(check)
    )()


def _reference_mutate(seed, k):
    """The exchange relation built factor by factor, kept as an oracle for
    mutate: y-monomials from y_monomial, polynomial products and powers,
    exact division by the leaving variable, and the entrywise matrix rule."""
    n = seed.n
    kk = k - 1
    row = seed.M[kk]
    yk = row[n:]
    pos = LP.y_monomial(n, n, tuple([e if e > 0 else 0 for e in yk]))
    neg = LP.y_monomial(n, n, tuple([-e if e < 0 else 0 for e in yk]))
    for bik, xi in zip(row, seed.cluster):
        if bik > 0:
            pos = pos * xi ** bik
        elif bik < 0:
            neg = neg * xi ** -bik
    new_var = (pos + neg).div_exact(seed.cluster[kk])
    return Seed(
        M=tuple(map(tuple, _dense_matrix_mutate(seed.M, kk))),
        cluster=seed.cluster[:kk] + (new_var,) + seed.cluster[k:],
    )


def _mutate_as_reference(seed, k):
    """mutate(seed, k), checked against the reference, exponent bounds too:
    equal bounds make ExponentOverflow fire at the same later step."""
    got, want = mutate(seed, k), _reference_mutate(seed, k)
    assert got.M == want.M
    assert got.cluster == want.cluster
    assert [v._bound for v in got.cluster] == [v._bound for v in want.cluster]
    return got


# the kinds of exchange that the reference comparisons must reach
EXCHANGE_KINDS = {"monomial leaving", "multi-term leaving", "c_k > 0", "c_k < 0",
                  "|b_ik| = 2 on a monomial", "|b_ik| = 2 on a multi-term x_i",
                  "multi-term factors on both sides", "two multi-term factors on one side"}


def _exchange_kinds(seed, k):
    n = seed.n
    row = seed.M[k - 1]
    kinds = {"monomial leaving" if seed.cluster[k - 1].is_monomial() else "multi-term leaving"}
    if max(row[n:]) > 0:
        kinds.add("c_k > 0")
    if min(row[n:]) < 0:
        kinds.add("c_k < 0")
    multi_term = [0, 0]  # multi-term factors on the b_ik > 0 and b_ik < 0 sides
    for bik, xi in zip(row, seed.cluster):
        if abs(bik) == 2:
            kinds.add("|b_ik| = 2 on a " + ("monomial" if xi.is_monomial() else "multi-term x_i"))
        if bik and not xi.is_monomial():
            multi_term[bik < 0] += 1
    if min(multi_term):
        kinds.add("multi-term factors on both sides")
    if max(multi_term) > 1:
        kinds.add("two multi-term factors on one side")
    return kinds


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_mutate_matches_reference_along_random_sequences(genus):
    rng = random.Random(100 + genus)
    s0 = initial_seed(builtin_genus(genus).exchange_matrix())
    seen = set()
    for _ in range(30):
        s = s0
        for _ in range(rng.randint(1, 8)):
            k = rng.randint(1, s0.n)
            seen |= _exchange_kinds(s, k)
            s = _mutate_as_reference(s, k)
    assert seen == EXCHANGE_KINDS


def test_mutate_matches_reference_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seeds = {g: initial_seed(builtin_genus(g).exchange_matrix()) for g in (1, 2, 3)}

    def check(data):
        s = seeds[data.draw(st.integers(1, 3))]
        for k in data.draw(st.lists(st.integers(1, s.n), max_size=7)):
            s = _mutate_as_reference(s, k)

    hyp.settings(max_examples=100, deadline=None, database=None, derandomize=True)(
        hyp.given(st.data())(check)
    )()


@pytest.mark.parametrize("x2", ["2*x2", "x2^3*y1", "x2^-1*y4", "x2 + 3*x3*y2", "x2^2 + x4^-1"])
def test_mutate_matches_reference_on_a_replaced_x2(x2):
    # x2 enters the genus-1 exchange at k = 1 squared; a single term with a
    # coefficient other than 1 is a factor, not part of the key offset.  The
    # leaving variable stays a monomial, so every division is exact.
    s0 = initial_seed(builtin_genus1().exchange_matrix())
    s = Seed(M=s0.M, cluster=(s0.cluster[0], LP.parse(x2, 4)) + s0.cluster[2:])
    for k in (1, 3, 4):
        _mutate_as_reference(s, k)


def _with_x1(x1):
    s0 = initial_seed(builtin_genus1().exchange_matrix())
    return Seed(M=s0.M, cluster=(LP.parse(x1, 4),) + s0.cluster[1:])


def test_mutate_folds_a_unit_monomial_leaving_variable():
    # a leaving variable of one term with coefficient 1 is a key shift of
    # the relation in div_exact, and still matches the reference
    s = _with_x1("x1^2*y3")
    got = _mutate_as_reference(s, 1)
    # the relation y1 x2^2 + x3 x4 has bound 3, and x1^2 y3 has bound 2
    assert got.cluster[0]._bound == 5


def test_mutate_reports_an_inexact_leaving_variable():
    # the division by 2*x1 fails, in the reference too
    s = _with_x1("2*x1")
    with pytest.raises(NotDivisible):
        _reference_mutate(s, 1)
    with pytest.raises(MutationError,
                       match="^exchange relation not exact at k=1: coefficient not divisible$"):
        mutate(s, 1)


@pytest.mark.parametrize("multi_term", [False, True], ids=["monomial", "multi-term"])
@pytest.mark.parametrize("e", [2**29, 2**30 - 1, 2**30])
def test_mutate_overflows_where_the_reference_does(e, multi_term):
    # row 1 of the genus-1 B is (0, 2, -1, -1), so x2 enters squared next to
    # y1: at e = 2^30 the exchange relation passes the exponent limit, and
    # at e = 2^30 - 1 only the division by x1 does
    s0 = initial_seed(builtin_genus1().exchange_matrix())
    x2 = LP.monomial(4, 4, 1, (0, e))
    if multi_term:
        x2 = x2 + LP.x_var(3, 4)
    s = Seed(M=s0.M, cluster=(s0.cluster[0], x2) + s0.cluster[2:])
    try:
        _reference_mutate(s, 1)
    except ExponentOverflow:
        with pytest.raises(ExponentOverflow):
            mutate(s, 1)
    else:
        _mutate_as_reference(s, 1)
    if e == 2**30:
        with pytest.raises(ExponentOverflow):
            mutate(s, 1)


def test_mutate_seq_empty_is_identity():
    s0 = initial_seed(builtin_genus1().exchange_matrix())
    assert mutate_seq(s0, ()) == s0


def test_laurent_phenomenon_positivity():
    rng = random.Random(99)
    T = builtin_genus1()
    s0 = initial_seed(T.exchange_matrix())
    for _ in range(25):
        s = mutate_seq(s0, [rng.randint(1, 4) for _ in range(8)])
        for v in s.cluster:
            assert v.coefficients_positive()


def test_matrix_rank_examples():
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank(builtin_genus1().exchange_matrix()) == 4
    assert matrix_rank(builtin_genus2().exchange_matrix()) == 10
    assert matrix_rank([[1, 2], [2, 4]]) == 1


def test_genus2_oracle_equivalence():
    T = builtin_genus2()
    s0 = initial_seed(T.exchange_matrix())
    v1 = expand(build_snake(T, ArcCrossing((8, 9, 10, 2, 1, 10, 4, 6, 3, 8))))
    got = mutate_seq(s0, (8, 9, 10, 2, 1, 9, 4, 6, 3)).cluster[2]
    assert got == v1
    v2 = expand(build_snake(T, ArcCrossing((7, 4, 9, 3, 5, 2, 1, 5, 6, 7))))
    got = mutate_seq(s0, (7, 6, 5, 1, 2, 6, 3, 9, 4)).cluster[3]
    assert got == v2


# mutation sequences reaching the genus-1 fixture arcs from the initial
# seed; the arc is the variable of the last direction
GENUS1_MUTATION_SEQUENCES = {
    "V1": (4, 1, 2),
    "V2": (3, 1, 2),
    "U1": (1, 3),
    "U2": (2, 4),
    "W1": (3, 4),
}


def test_genus1_mutation_sequences_reach_the_fixture_arcs():
    # each named genus-1 arc's snake expansion is the cluster variable its
    # recorded sequence reaches, exactly
    from clusterlab.verify import GENUS1_ARCS

    T = builtin_genus1()
    s0 = initial_seed(T.exchange_matrix())
    assert GENUS1_MUTATION_SEQUENCES.keys() == GENUS1_ARCS.keys()
    for name, seq in GENUS1_MUTATION_SEQUENCES.items():
        target = expand(build_snake(T, ArcCrossing(GENUS1_ARCS[name])))
        assert mutate_seq(s0, seq).cluster[seq[-1] - 1] == target, name


def _dense_matrix_mutate(B, k):
    """Entrywise mutation formula, kept as an oracle for matrix_mutate.

    B may be rectangular ([B | C]): rows range over len(B), columns over
    len(B[0]), and k indexes a row."""
    rows, cols = len(B), len(B[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            if i == k or j == k:
                out[i][j] = -B[i][j]
            else:
                bik, bkj = B[i][k], B[k][j]
                extra = 0
                if bik * bkj > 0:
                    sign = 1 if bik > 0 else -1
                    extra = sign * bik * bkj
                out[i][j] = B[i][j] + extra
    return out


def _random_skew(rng, n):
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            B[i][j] = rng.randint(-3, 3)
            B[j][i] = -B[i][j]
    return B


def _random_skew_matrices(count=200, seed=2024):
    rng = random.Random(seed)
    return [_random_skew(rng, rng.randint(1, 8)) for _ in range(count)]


def _random_extended_matrices(count=200, seed=2025):
    """Random [B | C]: skew-symmetric B next to an arbitrary integer C."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 8)
        B = _random_skew(rng, n)
        out.append([row + [rng.randint(-3, 3) for _ in range(n)] for row in B])
    return out


def _with_identity(g):
    """[B | I] for the genus-g seed, the matrix of initial_seed."""
    B = builtin_genus(g).exchange_matrix()
    n = len(B)
    return [[row + [int(i == j) for j in range(n)] for i, row in enumerate(B)]]


@pytest.mark.parametrize(
    "matrices",
    [
        pytest.param(_random_skew_matrices, id="random-skew-200"),
        pytest.param(lambda: [builtin_genus(1).exchange_matrix()], id="genus1"),
        pytest.param(lambda: [builtin_genus(2).exchange_matrix()], id="genus2"),
        pytest.param(lambda: [builtin_genus(3).exchange_matrix()], id="genus3"),
        pytest.param(_random_extended_matrices, id="random-extended-200"),
        pytest.param(lambda: _with_identity(1), id="genus1-principal"),
        pytest.param(lambda: _with_identity(2), id="genus2-principal"),
        pytest.param(lambda: _with_identity(3), id="genus3-principal"),
    ],
)
def test_matrix_mutate_matches_dense_formula(matrices):
    for B in matrices():
        rows = tuple(tuple(r) for r in B)
        for k in range(len(B)):
            got = matrix_mutate(rows, k)
            assert [list(r) for r in got] == _dense_matrix_mutate(B, k)
            assert all(type(r) is tuple for r in got)
            # rows with b_ik = 0 (other than row k) are shared, not copied
            assert all(got[i] is rows[i] for i in range(len(B)) if i != k and not B[i][k])
            back = matrix_mutate(got, k)
            assert back == rows
            assert all(type(r) is tuple for r in back)
            assert all(back[i] is rows[i] for i in range(len(B)) if i != k and not B[i][k])


def _tropical_coeff_mutate(B, coeffs, kk):
    """The coefficient rule written out on its own, kept as an oracle for the
    C half of [B | C]: y_j' = y_j * (y_k / (y_k (+) 1))^b_jk for b_jk > 0,
    y_j * (y_k (+) 1)^-b_jk for b_jk < 0, and y_k' = 1 / y_k."""
    yk = coeffs[kk]
    y_plus = tuple(max(e, 0) for e in yk)  # y_k / (y_k (+) 1)
    u = tuple(min(e, 0) for e in yk)  # y_k (+) 1
    out = list(coeffs)
    out[kk] = tuple(-e for e in yk)
    for j, row in enumerate(B):
        bjk = row[kk]
        if j == kk or not bjk:
            continue
        step = y_plus if bjk > 0 else u
        out[j] = tuple(a + abs(bjk) * e for a, e in zip(coeffs[j], step))
    return out


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_coefficients_match_tropical_rule(genus):
    rng = random.Random(genus)
    B0 = builtin_genus(genus).exchange_matrix()
    n = len(B0)
    s0 = initial_seed(B0)
    for _ in range(20):
        s, B, ys = s0, B0, [TropicalMonomial.generator(i, n).exps for i in range(1, n + 1)]
        for _ in range(rng.randint(1, 6)):
            kk = rng.randrange(n)
            ys = _tropical_coeff_mutate(B, ys, kk)
            B = _dense_matrix_mutate(B, kk)
            s = mutate(s, kk + 1)
            assert [list(r) for r in s.B] == B
            assert s.coeffs == tuple(TropicalMonomial(y) for y in ys)
