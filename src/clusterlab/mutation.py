"""Fomin-Zelevinsky seed dynamics with principal coefficients.

Seeds carry the n x 2n extended exchange matrix [B | C] and a cluster of
Laurent polynomials written in the initial variables.  Row i of C is the
exponent vector of the coefficient y_i in the tropical semifield
Trop(y_1, ..., y_n) (Fomin-Zelevinsky, "Cluster algebras IV"), so one
matrix mutation updates both B and the coefficients; it rebuilds only the
rows that change and shares the others.  Exchange relations are computed
exactly in the Laurent ring, each side as one packed key offset (the
y-monomial and every monomial cluster factor) times the product of its
multi-term factors.  By the Laurent phenomenon the division by the leaving
variable is always exact, so a division failure is a loud bug detector.
"""

from __future__ import annotations

from operator import neg

from .algebra import LaurentPolynomial, NotDivisible, TropicalMonomial, _mul_terms, term_codec
from .errors import ClusterlabError
from .record import Record


class MutationError(ClusterlabError):
    pass


def matrix_rank(B):
    """Rank over the rationals, by Gaussian elimination over Fraction."""
    from fractions import Fraction  # imported here: nothing else needs it at start-up

    M = [[Fraction(x) for x in row] for row in B]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    rank = 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        pv = M[r][c]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c] / pv
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def matrix_mutate(B, k):
    """Standard matrix mutation at index k (0-based), with tuple rows.

    Rows may be longer than the number of rows: the entrywise rule applies
    to every column, which on the C half of [B | C] is the tropical
    coefficient update.  Only row k and the rows i with b_ik != 0 are
    rebuilt, and in such a row only the columns j where b_kj has the sign of
    b_ik (read once from row k) and column k change; every other row is
    shared with the result.
    """
    rowk = B[k]
    ups, downs = [], []
    for j, c in enumerate(rowk):
        if c:
            (ups if c > 0 else downs).append((j, c))
    out = list(B)
    out[k] = tuple(map(neg, rowk))
    for i, row in enumerate(B):
        bik = row[k]
        if not bik or i == k:
            continue
        # b_ij += |b_ik| b_kj wherever b_ik and b_kj have the same sign
        new = list(row)
        if bik > 0:
            for j, c in ups:
                new[j] += bik * c
        else:
            for j, c in downs:
                new[j] -= bik * c
        new[k] = -bik
        out[i] = tuple(new)
    return tuple(out)


def _is_skew(B):
    n = len(B)
    return all(len(row) == n for row in B) and all(
        B[i][j] == -B[j][i] for i in range(n) for j in range(n)
    )


class Seed(Record):
    """A seed with principal coefficients.

    M is the n x 2n extended exchange matrix [B | C] with tuple rows: row i
    is row i of the skew-symmetric B followed by the exponent vector of y_i.
    `cluster` holds n LaurentPolynomials in the initial variables.
    """

    __slots__ = _fields = ("M", "cluster")

    def __init__(self, M, cluster):
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "cluster", cluster)

    @property
    def n(self):
        return len(self.cluster)

    @property
    def B(self):
        n = self.n
        return tuple(row[:n] for row in self.M)

    @property
    def coeffs(self):
        """The coefficient tuple, as TropicalMonomials in Trop(y_1..y_n)."""
        n = self.n
        return tuple(TropicalMonomial(row[n:]) for row in self.M)


def initial_seed(B):
    """Seed with cluster (x_1..x_n) and coefficients (y_1..y_n): M = [B | I]."""
    if not _is_skew(B):
        raise MutationError("exchange matrix must be skew-symmetric")
    n = len(B)
    return Seed(
        M=tuple(
            tuple(row) + (0,) * i + (1,) + (0,) * (n - 1 - i) for i, row in enumerate(B)
        ),
        cluster=tuple(LaurentPolynomial.x_var(i, n) for i in range(1, n + 1)),
    )


def mutate(seed, k):
    """Mutate the seed at direction k (1-based).

    The new cluster variable is computed from the exchange relation

        x_k * x_k' = (y_k / (y_k (+) 1)) prod_i x_i^[b_ik]_+
                    + (1 / (y_k (+) 1)) prod_i x_i^[-b_ik]_+

    evaluated exactly in the Laurent ring; [B | C] is mutated as one matrix.

    Each side of the relation is one packed key offset times the product of
    its multi-term factors.  The offset holds the y-monomial and every
    factor x_i^|b_ik| whose x_i is a single term with coefficient 1, as
    (key - zero) * |b_ik|.  The product is built with _mul_terms from
    {zero: 1}; one more _mul_terms call shifts it by the offset, folded
    into its zero, and the second side is summed into the first.  A side's
    exponent bound is the sum of |b_ik| * bound(x_i) plus its largest
    y-exponent, the bound the factor-by-factor product would carry.  The
    relation is then divided by x_k with div_exact.
    """
    n = seed.n
    if type(k) is not int:  # a bool is not a mutation index either
        raise MutationError(f"mutation index {k!r} is not an int")
    if not 1 <= k <= n:
        raise MutationError(f"mutation index {k} out of range 1..{n}")
    kk = k - 1
    row = seed.M[kk]
    cluster = seed.cluster

    # The triangulation convention for b_ij is transposed relative to the
    # matrix the snake expansion realizes, so the exchange at k reads off
    # row k (equivalently, column k of -B); zip stops at the n cluster
    # variables, so it reads only the B half.  The C half is y_k, whose
    # positive and negative parts are y_k / (y_k (+) 1) and 1 / (y_k (+) 1).
    zero = term_codec(2 * n).zero
    offsets, bounds = [0, 0], [0, 0]  # key offset and exponent bound per side
    prods = [{zero: 1}, {zero: 1}]  # product of x_i^|b_ik| over the multi-term x_i per side
    for e, unit in zip(row[n:], term_codec(2 * n).units[n:]):
        if e:
            side = e < 0
            if side:
                e = -e
            offsets[side] += e * unit
            if e > bounds[side]:
                bounds[side] = e
    for bik, xi in zip(row, cluster):
        if not bik:
            continue
        side = bik < 0
        e = -bik if side else bik
        bounds[side] += e * xi._bound
        terms = xi.terms
        if len(terms) == 1:
            ((key, c),) = terms.items()
            if c == 1:
                offsets[side] += (key - zero) * e
                continue
        prods[side] = _mul_terms(prods[side], (xi ** e).terms, zero)

    relation = _mul_terms(prods[0], {zero: 1}, zero - offsets[0])
    _mul_terms(prods[1], {zero: 1}, zero - offsets[1], relation)
    rhs = LaurentPolynomial.from_packed(n, n, relation, max(bounds))
    try:
        new_var = rhs.div_exact(cluster[kk])
    except NotDivisible as exc:
        raise MutationError(f"exchange relation not exact at k={k}: {exc}") from exc

    new_cluster = list(cluster)
    new_cluster[kk] = new_var
    return Seed(M=matrix_mutate(seed.M, kk), cluster=tuple(new_cluster))


def mutate_seq(seed, ks):
    """Fold of mutate over a sequence of 1-based directions."""
    for k in ks:
        seed = mutate(seed, k)
    return seed


__all__ = [
    "Seed",
    "initial_seed",
    "mutate",
    "mutate_seq",
    "matrix_rank",
    "matrix_mutate",
    "MutationError",
]
