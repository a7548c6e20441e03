import random

import pytest

from clusterlab.algebra import (
    EXPONENT_LIMIT,
    ExponentOverflow,
    LaurentPolynomial as LP,
    NotDivisible,
    ParseError,
    RankMismatch,
    SemifieldSpec,
    TropicalMonomial,
    _field_hull,
    chebyshev,
    specialize,
    term_codec,
    tropical_eval,
)


def x(i, n=2):
    return LP.x_var(i, n)


def y(i, n=2):
    return LP.y_var(i, n)


def random_poly(rng, n=3, max_terms=50):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = tuple(rng.randint(-3, 3) for _ in range(n)) + tuple(
            rng.randint(0, 3) for _ in range(n)
        )
        terms[key] = terms.get(key, 0) + rng.randint(-5, 5)
    return LP(n, n, terms)


def test_add_identity():
    p = x(1) + 2 * x(2)
    assert p + LP.zero(2) == p


def test_add_cancellation():
    assert (x(1) + x(2)) + (x(1) - x(2)) == 2 * x(1)
    p = x(1) + y(2)
    assert p - 3 == p + (-3) == p + LP.const(2, 2, -3)
    assert 3 - p == -p + 3


def test_mul_identity_and_inverse():
    p = x(1) + x(2) ** 3
    assert p * LP.one(2) == p
    xinv = LP.monomial(2, 2, 1, (-1, 0))
    assert x(1) * xinv == LP.one(2)
    assert (p * 0).is_zero() and (0 * p).is_zero()


def test_rank_mismatch_raises():
    with pytest.raises(RankMismatch):
        x(1, 2) + x(1, 3)
    with pytest.raises(RankMismatch):
        x(1, 2) * x(1, 3)
    for i in (-1, 0, 3):  # 1-based indices: x_0 must not wrap round to x_2
        for make in (LP.x_var, LP.y_var, TropicalMonomial.generator):
            with pytest.raises(RankMismatch):
                make(i, 2)
        for sym in "xy":
            with pytest.raises(RankMismatch):
                LP.parse(f"{sym}{i}", 2)
    with pytest.raises(RankMismatch):
        SemifieldSpec.tropical(2, [(1, 2, 3), (0, 1)])
    with pytest.raises(RankMismatch):
        LP.from_json_dict({"nx": 2, "ny": 2, "terms": [{"x": [1], "y": [0, 0], "coeff": 1}]})
    # a short key is an error even when its coefficients cancel
    with pytest.raises(RankMismatch, match=r"^exponent vector \(1,\) is not of length 4$"):
        LP(2, 2, {(1,): 0})
    # monomial pads short vectors and leaves a long one to the constructor
    with pytest.raises(RankMismatch, match=r"^exponent vector \(1, 2, 3, 0, 0\) is not of length 4$"):
        LP.monomial(2, 2, 1, (1, 2, 3))
    with pytest.raises(RankMismatch, match=r"^exponent vector \(1, 0, 0\) is not of length 4$"):
        LP.from_json_dict({"nx": 2, "ny": 2, "terms": [
            {"x": [1], "y": [0, 0], "coeff": 1}, {"x": [1], "y": [0, 0], "coeff": -1}]})
    # specialize reports a wrong-length assignment before the negative
    # coefficient of the F-polynomial
    short = SemifieldSpec.tropical(1, [(1,)])
    with pytest.raises(RankMismatch, match="^one image per y-variable required$"):
        specialize(x(1) - y(1), short)
    with pytest.raises(RankMismatch, match="^one image per y-variable required$"):
        tropical_eval(y(1) + 1, short)


def test_ring_laws_random():
    rng = random.Random(7)
    for _ in range(40):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_div_exact_by_one_and_binomial():
    p = x(1) ** 2 - x(2) ** 2 + 3 * x(1)
    assert p.div_exact(LP.one(2)) == p
    q = (x(1) ** 2 - x(2) ** 2).div_exact(x(1) - x(2))
    assert q == x(1) + x(2)


def test_div_exact_roundtrip_random():
    rng = random.Random(11)
    for _ in range(30):
        p, q = random_poly(rng), random_poly(rng)
        if q.is_zero():
            continue
        assert (p * q).div_exact(q) == p


def test_div_exact_failure():
    with pytest.raises(NotDivisible):
        (x(1) + x(2)).div_exact(x(1) - x(2))
    with pytest.raises(NotDivisible):
        (2 * x(1) + x(2)).div_exact(LP.const(2, 2, 2))
    with pytest.raises(NotDivisible):  # the third quotient term leaves the box
        (x(1) ** 2 + 1).div_exact(x(1) + 1)
    with pytest.raises(NotDivisible, match="^no exact quotient$"):  # the quotient box is empty
        x(1).div_exact(x(1) ** 2 + 1)
    with pytest.raises(NotDivisible, match="^leading coefficient not divisible$"):
        (x(1) + 1).div_exact(2 * x(1) + 2)
    # the least terms do not divide: reported without walking the 2^20 steps
    # of the quotient box
    with pytest.raises(NotDivisible, match="^no exact quotient$"):
        (x(1) ** (1 << 20) + 1).div_exact(x(1) - 2)
    # the least terms divide, but x1 = 2 is a root of x1 - 2 and not of the
    # dividend mod 101: reported before the walk down the quotient box
    for K in (1 << 20, 1 << 30):
        with pytest.raises(NotDivisible, match="^no exact quotient$"):
            (x(1) ** K + 2).div_exact(x(1) - 2)
    # the same test passes an exact quotient as large as its dividend
    assert (x(1) ** 2 - 1).div_exact(x(1) - 1) == x(1) + 1
    # x1^2 + x1 + 1 has no root mod 101, but at x1 = 1 it is 3, which does
    # not divide 4: reported before the walk down the quotient box
    for K in (1 << 20, 1 << 30):
        with pytest.raises(NotDivisible, match="^no exact quotient$"):
            (x(1) ** K + 3).div_exact(x(1) ** 2 + x(1) + 1)
    # exact quotients with a root of the divisor at x1 = 1 and at x1 = -1
    assert (x(1) ** 3 - 1).div_exact(x(1) - 1) == x(1) ** 2 + x(1) + 1
    assert (x(1) ** 2 - 1).div_exact(x(1) + 1) == x(1) - 1
    # the first quotient term 1 is the whole box; the least terms imply x2^-1
    with pytest.raises(NotDivisible, match="^no exact quotient$"):
        (x(1) + x(2) + 1).div_exact(x(1) + x(2))
    with pytest.raises(ZeroDivisionError):
        x(1).div_exact(LP.zero(2))


def test_f_polynomial():
    assert x(1).f_polynomial() == LP.one(2)
    p = x(1) * y(1) + x(2) * y(1) + x(1) * x(2)
    f = p.f_polynomial()
    assert f == 2 * y(1) + LP.one(2)


def test_tropical_eval_identity_assignment():
    spec = SemifieldSpec.tropical_identity(2)
    f = LP.one(2) + y(1) + y(1) * y(2)
    assert tropical_eval(f, spec) == TropicalMonomial((0, 0))
    g = y(1) + y(2)
    assert tropical_eval(g, spec) == TropicalMonomial((0, 0))


def test_tropical_eval_trivial_and_errors():
    assert tropical_eval(y(1), SemifieldSpec.trivial()) == TropicalMonomial(())
    with pytest.raises(ValueError):
        tropical_eval(y(1) - y(2), SemifieldSpec.tropical_identity(2))
    with pytest.raises(ValueError):
        tropical_eval(x(1), SemifieldSpec.tropical_identity(2))
    with pytest.raises(ValueError, match="^tropical_eval needs a trivial or tropical semifield$"):
        tropical_eval(y(1) + 1, SemifieldSpec.principal())
    with pytest.raises(ValueError, match="^no y-images for semifield kind 'bogus'$"):
        specialize(x(1) + y(1), SemifieldSpec("bogus"))


def test_tropical_eval_general_assignment():
    # y1 -> u1 u2^-1, y2 -> u2: min over {(1,-1)+(0,1), (0,0)} etc.
    spec = SemifieldSpec.tropical(2, [(1, -1), (0, 1)])
    f = y(1) * y(2) + LP.one(2)
    assert tropical_eval(f, spec) == TropicalMonomial((0, 0))
    f2 = y(1) + y(2)
    assert tropical_eval(f2, spec) == TropicalMonomial((0, -1))


def test_specialize_initial_variable():
    for spec in (SemifieldSpec.trivial(), SemifieldSpec.tropical_identity(2), SemifieldSpec.principal()):
        p = x(1)
        s = specialize(p, spec)
        if spec.kind == "trivial":
            assert s == LP.monomial(2, 0, 1, (1, 0))
        else:
            assert s.terms == p.terms


def test_specialize_trivial_sets_y_to_one():
    p = x(1) * y(1) + x(2)  # F-polynomial 1 + y1, constant term 1
    s = specialize(p, SemifieldSpec.trivial())
    assert s == LP.monomial(2, 0, 1, (1, 0)) + LP.monomial(2, 0, 1, (0, 1))


def test_specialize_tropical_divides_f_polynomial():
    # principal expansion with F = 1 + y1: specializing at y1 -> u1^-1 makes
    # the tropical F equal u1^-1, which must be divided back out.
    p = x(1) * y(1) + x(2)
    spec = SemifieldSpec.tropical(1, [(-1,), (0,)])
    s = specialize(p, spec)
    # x1 y1 -> x1 u1^-1; divide by u1^-1: x1 + x2 u1
    assert s == LP.monomial(2, 1, 1, (1, 0), ()) + LP.monomial(2, 1, 1, (0, 1), (1,))


def test_chebyshev_base_cases():
    n = 2
    L = x(1) + x(2)
    assert chebyshev(1, L) == L
    assert chebyshev(2, L) == L * L - LP.const(n, n, 2)
    assert chebyshev(3, L) == L ** 3 - 3 * L
    with pytest.raises(ValueError):
        chebyshev(0, L)
    # True is not read as 1, as a mutation index is not
    for k in (True, 2.0):
        with pytest.raises(ValueError, match="^Chebyshev index must be a positive integer$"):
            chebyshev(k, L)
    for k in (True, -1, 2.0):
        with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
            L ** k


def test_serialize_roundtrip_text():
    rng = random.Random(3)
    for _ in range(25):
        p = random_poly(rng)
        assert LP.parse(p.serialize(), p.nx, p.ny) == p
    xinv = LP.monomial(2, 2, 1, (0, -1))
    big = (LP.one(2) + x(1) + xinv + y(1) + 2 * y(2)) ** 8
    assert len(big.terms) == 495 and LP.parse(big.serialize(), 2) == big
    assert LP.zero(2).serialize() == "0"
    assert LP.parse("0", 2) == LP.zero(2)
    assert LP.parse("x1 - x1", 2) == LP.zero(2)
    assert LP.parse("x1*y2 + 3 - x1*y2 - 2*x2^-1 - 1", 2) == 2 * (LP.one(2) - xinv)
    # text outside the serialize() grammar is a typed error, never a bare
    # IndexError, and never read as a sum ("x1 x2") or a total ("3 4")
    for bad in ("x1**2", "x1 +", "x1*", "+", "x1^2^3", "x1 x2", "3 4", "", "- x1", "z1"):
        with pytest.raises(ParseError):
            LP.parse(bad, 2)


def test_serialize_canonical_form():
    p = 3 * x(1) ** 2 * LP.monomial(2, 2, 1, (0, -1)) - x(2) + LP.one(2)
    assert p.serialize() == "3*x1^2*x2^-1 - x2 + 1"


def test_serialize_roundtrip_json():
    rng = random.Random(5)
    for _ in range(25):
        p = random_poly(rng)
        assert LP.from_json(p.to_json()) == p


_TERM = {"coeff": 3, "x": [1, 0], "y": [0, 2]}


@pytest.mark.parametrize(
    "data, error, message",
    [
        ({"nx": 2, "ny": 2, "terms": [_TERM | {"coeff": 1.5}]}, ParseError,
         "coefficient must be an int, not 1.5"),
        ({"nx": 2, "ny": 2, "terms": [_TERM | {"coeff": "3"}]}, ParseError,
         "coefficient must be an int, not '3'"),
        # x3's exponent must not become y1's
        ({"nx": 2, "ny": 2, "terms": [_TERM | {"x": [1, 2, 3], "y": [4]}]}, RankMismatch,
         r"exponent vector \(1, 2, 3, 4\) has 3 x-exponents, not 2"),
        ({"nx": -1, "ny": 5, "terms": [_TERM]}, ParseError, "variable counts must be >= 0"),
        ({"nx": 2, "ny": 2, "terms": [_TERM | {"x": [True, 0]}]}, ParseError,
         "exponent must be an int, not True"),
        ({"nx": 2, "ny": 2, "terms": [_TERM | {"y": [0, 1.5]}]}, ParseError,
         "exponent must be an int, not 1.5"),
        ({"nx": 2}, ParseError, "keys nx, ny, terms"),
        ([1], ParseError, "keys nx, ny, terms"),
        ({"nx": 2, "ny": 2, "terms": 5}, ParseError, "terms must be a list"),
    ],
    ids=["float-coeff", "str-coeff", "x-spills-into-y", "negative-nx", "bool-exponent",
         "float-exponent", "missing-keys", "not-an-object", "terms-not-a-list"],
)
def test_from_json_dict_rejects_malformed_data(data, error, message):
    assert LP.from_json_dict({"nx": 2, "ny": 2, "terms": [_TERM]}).serialize() == "3*x1*y2^2"
    with pytest.raises(error, match=message):
        LP.from_json_dict(data)


def test_hash_consistency():
    p = x(1) + x(2)
    q = x(2) + x(1)
    assert p == q and hash(p) == hash(q)


# -- packed term keys -----------------------------------------------------------


def _term_dicts(st, n):
    """Strategy: {exponent tuple: nonzero coeff} in n x- and n y-variables,
    with negative exponents in both."""
    key = st.tuples(*[st.integers(-4, 4)] * n, *[st.integers(-2, 3)] * n)
    coeff = st.integers(-6, 6).filter(bool)
    return st.dictionaries(key, coeff, max_size=7)


def _check_property(check, n_polys):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    polys = st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), *[_term_dicts(st, n)] * n_polys)
    )
    hyp.settings(max_examples=100, deadline=None, database=None, derandomize=True)(
        hyp.given(polys)(check)
    )()


def test_packed_div_exact_of_product():
    def check(drawn):
        n, da, db = drawn
        a, b = LP(n, n, da), LP(n, n, db)
        if not b.is_zero():
            assert (a * b).div_exact(b) == a

    _check_property(check, 2)


def test_packed_keys_round_trip_and_specialize():
    def check(drawn):
        n, d = drawn
        p = LP(n, n, d)
        assert LP.parse(p.serialize(), n, n) == p
        assert LP.from_json(p.to_json()) == p
        assert p.sorted_keys() == sorted(d, reverse=True)
        assert dict(p.exponent_items()) == d
        f, trivial = {}, {}
        for e, c in d.items():
            f[(0,) * n + e[n:]] = f.get((0,) * n + e[n:], 0) + c
            trivial[e[:n]] = trivial.get(e[:n], 0) + c
        assert p.f_polynomial() == LP(n, n, f)
        assert p.set_y_one() == LP(n, 0, trivial)

    _check_property(check, 1)


def test_exponent_at_the_bound_raises_typed_error():
    top = LP.monomial(2, 2, 1, (EXPONENT_LIMIT, -EXPONENT_LIMIT))
    assert top.serialize() == f"x1^{EXPONENT_LIMIT}*x2^-{EXPONENT_LIMIT}"
    assert top.sorted_keys() == [(EXPONENT_LIMIT, -EXPONENT_LIMIT, 0, 0)]
    assert (LP.monomial(2, 2, 1, (EXPONENT_LIMIT - 1,)) * x(1)).sorted_keys() == [
        (EXPONENT_LIMIT, 0, 0, 0)
    ]
    h = 1 << 30
    tall = LP.monomial(2, 2, 1, (h, -h)) + 1
    assert (tall * (x(1) + x(2))).div_exact(x(1) + x(2)) == tall
    wide = LP.monomial(2, 2, 1, (h + 1,)) + LP.monomial(2, 2, 1, (-h - 1,))
    for op in (
        lambda: top * x(1),
        lambda: top * top,
        lambda: top.div_exact(x(2)),
        lambda: top ** 2,
        lambda: wide.div_exact(x(1) + 1),
        lambda: LP.monomial(2, 2, 1, (EXPONENT_LIMIT + 1,)),
        lambda: LP(2, 2, {(0, 0, -EXPONENT_LIMIT - 1, 0): 1}),
    ):
        with pytest.raises(ExponentOverflow):
            op()


def test_field_hull_is_the_per_field_min_and_max():
    # Exponents 0, +-1, +-2^30 and +-(2^31 - 1) make fields that differ in
    # bit 31 and fields that agree there, so both halves of the comparison
    # run; raw field values up to 2^32 - 1 are the spans that div_exact
    # compares, which no subtraction biased by 2^31 could order.
    rng = random.Random(19)
    h, top = 1 << 30, EXPONENT_LIMIT
    exps = [0, 1, -1, h, -h, top, -top]
    digits = [0, 1, h, 2 * h - 1, 2 * h, 2 * h + 1, 3 * h, 4 * h - 2, 4 * h - 1]
    for _ in range(300):
        n = rng.randint(1, 6)
        p = LP(n, n, {tuple(rng.choice(exps) for _ in range(2 * n)): 1
                      for _ in range(rng.randint(1, 8))})
        codec = term_codec(2 * n)
        cols = list(zip(*[e for e, _ in p.exponent_items()]))
        lo, hi = _field_hull(p.terms, codec.zero)
        assert codec.unpack(lo) == tuple(map(min, cols))
        assert codec.unpack(hi) == tuple(map(max, cols))
        rows = [[rng.choice(digits) for _ in range(2 * n)] for _ in range(rng.randint(1, 8))]
        lo, hi = _field_hull([codec.raw(r) for r in rows], codec.zero)
        assert lo == codec.raw(list(map(min, zip(*rows))))
        assert hi == codec.raw(list(map(max, zip(*rows))))


def test_empty_quotient_box_is_reported_before_a_wide_span():
    # x1 spans 2^31 + 2 > EXPONENT_LIMIT in the dividend, and the box is
    # empty in x2, where the divisor spans 1 and the dividend 0
    h = 1 << 30
    wide = LP.monomial(2, 2, 1, (h + 1,)) + LP.monomial(2, 2, 1, (-h - 1,))
    with pytest.raises(NotDivisible, match="^no exact quotient$"):
        wide.div_exact(x(2) + 1)
    with pytest.raises(ExponentOverflow, match=f"^exponent span beyond {EXPONENT_LIMIT}$"):
        wide.div_exact(x(1) + 1)
