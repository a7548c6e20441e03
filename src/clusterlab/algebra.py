"""Exact sparse Laurent polynomial arithmetic over the integers.

Polynomials live in ZZ[x1^±1, ..., xn^±1; y1, ..., ym]: Laurent in the
x-variables, ordinary (but we do not enforce nonnegativity structurally) in
the coefficient variables y.  A term is stored as a flat exponent tuple of
length nx + ny mapped to a nonzero integer coefficient, so equal polynomials
have identical dictionaries and identical canonical serializations.

All values are immutable after construction; every operation returns a fresh
polynomial, so instances are safe to share between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ClusterlabError

# Recorded with benchmark runs; there is one arithmetic path, in pure Python.
KERNEL_BACKEND = "python"


class RankMismatch(ClusterlabError):
    """Raised when combining polynomials over different variable ranks."""


class NotDivisible(ArithmeticError):
    """Raised by div_exact when no exact quotient exists in the ring."""


def _mul_terms(a, b):
    """Distributive product of two term maps {exponent tuple: coeff}."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    get = out.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            c = get(k, 0) + ca * cb
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def _add_into(out, b):
    """In-place termwise sum: out += b, dropping zeros."""
    get = out.get
    for k, c in b.items():
        nc = get(k, 0) + c
        if nc:
            out[k] = nc
        else:
            del out[k]
    return out


def _fmt_factors(symbol, exps):
    out = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        if e == 1:
            out.append(f"{symbol}{i + 1}")
        else:
            out.append(f"{symbol}{i + 1}^{e}")
    return out


class LaurentPolynomial:
    """A sparse integer Laurent polynomial in x-variables and y-variables."""

    __slots__ = ("nx", "ny", "terms", "_hash")

    def __init__(self, nx, ny, terms, _normalized=False):
        self.nx = nx
        self.ny = ny
        if _normalized:
            self.terms = terms
        else:
            self.terms = {k: c for k, c in terms.items() if c != 0}
        self._hash = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nx, ny=None):
        ny = nx if ny is None else ny
        return cls(nx, ny, {}, _normalized=True)

    @classmethod
    def monomial(cls, nx, ny, coeff, x_exps=(), y_exps=()):
        x = tuple(x_exps) + (0,) * (nx - len(x_exps))
        y = tuple(y_exps) + (0,) * (ny - len(y_exps))
        if len(x) != nx or len(y) != ny:
            raise RankMismatch("exponent vector longer than rank")
        if coeff == 0:
            return cls.zero(nx, ny)
        return cls(nx, ny, {x + y: coeff}, _normalized=True)

    @classmethod
    def const(cls, nx, ny, c):
        return cls.monomial(nx, ny, c)

    @classmethod
    def one(cls, nx, ny=None):
        ny = nx if ny is None else ny
        return cls.const(nx, ny, 1)

    @classmethod
    def x_var(cls, i, nx, ny=None):
        """The variable x_i (1-based)."""
        ny = nx if ny is None else ny
        e = [0] * nx
        e[i - 1] = 1
        return cls.monomial(nx, ny, 1, e)

    @classmethod
    def y_var(cls, i, nx, ny=None):
        """The coefficient variable y_i (1-based)."""
        ny = nx if ny is None else ny
        e = [0] * ny
        e[i - 1] = 1
        return cls.monomial(nx, ny, 1, (), e)

    @classmethod
    def y_monomial(cls, nx, ny, y_exps, coeff=1):
        return cls.monomial(nx, ny, coeff, (), y_exps)

    # -- basic structure ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * (self.nx + self.ny): 1}

    def is_monomial(self):
        return len(self.terms) == 1

    def x_part(self, key):
        return key[: self.nx]

    def y_part(self, key):
        return key[self.nx :]

    def constant_term(self):
        return self.terms.get((0,) * (self.nx + self.ny), 0)

    def coefficients_positive(self):
        return all(c > 0 for c in self.terms.values())

    def sorted_keys(self):
        """Canonical term order: lexicographic on the flat exponent tuple,
        largest first."""
        return sorted(self.terms, reverse=True)

    def _check_rank(self, other):
        if self.nx != other.nx or self.ny != other.ny:
            raise RankMismatch(
                f"rank mismatch: ({self.nx},{self.ny}) vs ({other.nx},{other.ny})"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.const(self.nx, self.ny, other)
        self._check_rank(other)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return LaurentPolynomial(self.nx, self.ny, out, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(
            self.nx, self.ny, {k: -c for k, c in self.terms.items()}, _normalized=True
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.const(self.nx, self.ny, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPolynomial.zero(self.nx, self.ny)
            return LaurentPolynomial(
                self.nx,
                self.ny,
                {k: other * c for k, c in self.terms.items()},
                _normalized=True,
            )
        self._check_rank(other)
        return LaurentPolynomial(
            self.nx, self.ny, _mul_terms(self.terms, other.terms), _normalized=True
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPolynomial.one(self.nx, self.ny)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPolynomial)
            and self.nx == other.nx
            and self.ny == other.ny
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.nx, self.ny, tuple(sorted(self.terms.items())))
            )
        return self._hash

    # -- exact division ----------------------------------------------------

    def _min_exps(self):
        n = self.nx + self.ny
        mins = [0] * n
        first = True
        for k in self.terms:
            if first:
                mins = list(k)
                first = False
            else:
                for i, e in enumerate(k):
                    if e < mins[i]:
                        mins[i] = e
        return tuple(mins)

    def _shift(self, offset):
        off = tuple(offset)
        return LaurentPolynomial(
            self.nx,
            self.ny,
            {tuple(a + b for a, b in zip(k, off)): c for k, c in self.terms.items()},
            _normalized=True,
        )

    def div_exact(self, other):
        """Exact quotient self / other in the integer Laurent ring.

        Raises NotDivisible when no exact quotient exists.  The algorithm
        shifts both operands to honest polynomials (minimal exponent 0 in
        every variable) and runs leading-term division in lex order, which
        terminates and certifies exactness over ZZ.
        """
        if isinstance(other, int):
            other = LaurentPolynomial.const(self.nx, self.ny, other)
        self._check_rank(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        if other.is_monomial():
            ((key, coeff),) = other.terms.items()
            out = {}
            for k, c in self.terms.items():
                q, r = divmod(c, coeff)
                if r != 0:
                    raise NotDivisible("coefficient not divisible")
                out[tuple(a - b for a, b in zip(k, key))] = q
            return LaurentPolynomial(self.nx, self.ny, out, _normalized=True)

        smin = self._min_exps()
        omin = other._min_exps()
        p = self._shift(tuple(-e for e in smin))
        q = other._shift(tuple(-e for e in omin))

        rem = dict(p.terms)
        qlead = max(q.terms)
        qlead_c = q.terms[qlead]
        quot = {}
        while rem:
            rlead = max(rem)
            t = tuple(a - b for a, b in zip(rlead, qlead))
            if any(e < 0 for e in t):
                raise NotDivisible("no exact quotient")
            c, r = divmod(rem[rlead], qlead_c)
            if r != 0:
                raise NotDivisible("leading coefficient not divisible")
            quot[t] = c
            for k, qc in q.terms.items():
                kk = tuple(a + b for a, b in zip(t, k))
                nc = rem.get(kk, 0) - c * qc
                if nc:
                    rem[kk] = nc
                else:
                    rem.pop(kk, None)
        result = LaurentPolynomial(self.nx, self.ny, quot, _normalized=True)
        shift = tuple(a - b for a, b in zip(smin, omin))
        return result._shift(shift)

    # -- specializations ---------------------------------------------------

    def f_polynomial(self):
        """Set every x-variable to 1; the result involves only y-variables."""
        out = {}
        zero_x = (0,) * self.nx
        for k, c in self.terms.items():
            kk = zero_x + self.y_part(k)
            nc = out.get(kk, 0) + c
            if nc:
                out[kk] = nc
            else:
                out.pop(kk, None)
        return LaurentPolynomial(self.nx, self.ny, out, _normalized=True)

    def set_y_one(self):
        """Substitute y_i := 1 for every coefficient variable."""
        out = {}
        for k, c in self.terms.items():
            kk = self.x_part(k)
            nc = out.get(kk, 0) + c
            if nc:
                out[kk] = nc
            else:
                out.pop(kk, None)
        return LaurentPolynomial(self.nx, 0, out, _normalized=True)

    def map_y(self, images, new_ny):
        """Substitute each y_i by a monomial with exponent vector images[i]
        (length new_ny).  Used for evaluating a principal-coefficient
        expansion in an arbitrary tropical semifield."""
        if len(images) != self.ny:
            raise RankMismatch("one image per y-variable required")
        out = {}
        for k, c in self.terms.items():
            ye = self.y_part(k)
            new = [0] * new_ny
            for e, img in zip(ye, images):
                if e:
                    for i, v in enumerate(img):
                        new[i] += e * v
            kk = self.x_part(k) + tuple(new)
            nc = out.get(kk, 0) + c
            if nc:
                out[kk] = nc
            else:
                out.pop(kk, None)
        return LaurentPolynomial(self.nx, new_ny, out, _normalized=True)

    # -- serialization -----------------------------------------------------

    def __repr__(self):
        return f"LaurentPolynomial({self.serialize()!r})"

    def serialize(self):
        """Canonical text form, terms in canonical order."""
        if not self.terms:
            return "0"
        pieces = []
        for key in self.sorted_keys():
            c = self.terms[key]
            factors = _fmt_factors("x", self.x_part(key)) + _fmt_factors(
                "y", self.y_part(key)
            )
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def to_json_dict(self):
        return {
            "nx": self.nx,
            "ny": self.ny,
            "terms": [
                {
                    "coeff": self.terms[k],
                    "x": list(self.x_part(k)),
                    "y": list(self.y_part(k)),
                }
                for k in self.sorted_keys()
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data):
        nx, ny = data["nx"], data["ny"]
        terms = {}
        for t in data["terms"]:
            key = tuple(t["x"]) + tuple(t["y"])
            if len(key) != nx + ny:
                raise ValueError("exponent vector has wrong length")
            terms[key] = terms.get(key, 0) + int(t["coeff"])
        return cls(nx, ny, terms)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def parse(cls, text, nx, ny=None):
        """Parse the canonical text form produced by serialize()."""
        ny = nx if ny is None else ny
        text = text.strip()
        if text == "0":
            return cls.zero(nx, ny)
        # normalize "a - b + c" into signed chunks
        chunks = text.replace("- ", "-").replace("+ ", "+").split()
        poly = cls.zero(nx, ny)
        for chunk in chunks:
            sign = 1
            if chunk.startswith("-"):
                sign, chunk = -1, chunk[1:]
            elif chunk.startswith("+"):
                chunk = chunk[1:]
            coeff = sign
            xe, ye = [0] * nx, [0] * ny
            for factor in chunk.split("*"):
                if factor.isdigit():
                    coeff *= int(factor)
                    continue
                sym, rest = factor[0], factor[1:]
                if "^" in rest:
                    idx, exp = rest.split("^")
                else:
                    idx, exp = rest, "1"
                if sym == "x":
                    xe[int(idx) - 1] += int(exp)
                elif sym == "y":
                    ye[int(idx) - 1] += int(exp)
                else:
                    raise ValueError(f"bad factor {factor!r}")
            poly = poly + cls.monomial(nx, ny, coeff, xe, ye)
        return poly


# -- tropical semifield ----------------------------------------------------


@dataclass(frozen=True)
class TropicalMonomial:
    """An element of Trop(y_1, ..., y_m): a Laurent monomial, stored as its
    exponent vector.  Multiplication adds vectors; tropical addition takes
    the componentwise minimum."""

    exps: tuple

    @classmethod
    def one(cls, m):
        return cls((0,) * m)

    @classmethod
    def generator(cls, i, m):
        e = [0] * m
        e[i - 1] = 1
        return cls(tuple(e))

    def __mul__(self, other):
        return TropicalMonomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def inverse(self):
        return TropicalMonomial(tuple(-a for a in self.exps))

    def tropical_add(self, other):
        return TropicalMonomial(tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def positive_part(self):
        return TropicalMonomial(tuple(max(a, 0) for a in self.exps))

    def negative_part(self):
        """[v]_- with exponents max(-v, 0), i.e. 1/(v (+) 1)."""
        return TropicalMonomial(tuple(max(-a, 0) for a in self.exps))

    def is_one(self):
        return all(a == 0 for a in self.exps)


@dataclass(frozen=True)
class SemifieldSpec:
    """Coefficient semifield for specializing principal-coefficient
    expansions.

    kind "principal" keeps the principal coefficients, "trivial" sets every
    y to 1, and "tropical" maps y_i to the given monomial in a tropical
    semifield of the stated rank.
    """

    kind: str
    rank: int = 0
    assignment: tuple = ()

    @classmethod
    def principal(cls):
        return cls("principal")

    @classmethod
    def trivial(cls):
        return cls("trivial")

    @classmethod
    def tropical(cls, rank, assignment):
        assignment = tuple(
            a if isinstance(a, TropicalMonomial) else TropicalMonomial(tuple(a))
            for a in assignment
        )
        return cls("tropical", rank, assignment)

    @classmethod
    def tropical_identity(cls, n):
        return cls.tropical(n, [TropicalMonomial.generator(i, n) for i in range(1, n + 1)])

    def images(self, ny):
        if self.kind == "trivial":
            return [()] * ny, 0
        if self.kind == "tropical":
            if len(self.assignment) != ny:
                raise RankMismatch("assignment must cover every y-variable")
            return [a.exps for a in self.assignment], self.rank
        raise ValueError(f"no y-images for semifield kind {self.kind!r}")


def tropical_eval(f, spec):
    """Evaluate a y-only Laurent polynomial with positive coefficients in a
    tropical semifield: + becomes componentwise min, * adds exponents."""
    if f.is_zero():
        raise ValueError("cannot tropically evaluate the zero polynomial")
    if not f.coefficients_positive():
        raise ValueError("tropical evaluation requires positive coefficients")
    if any(any(e != 0 for e in f.x_part(k)) for k in f.terms):
        raise ValueError("tropical evaluation requires a y-only polynomial")
    if spec.kind == "trivial":
        return TropicalMonomial.one(0)
    if spec.kind != "tropical":
        raise ValueError("tropical_eval needs a trivial or tropical semifield")
    images, m = spec.images(f.ny)
    best = None
    for k in f.terms:
        v = [0] * m
        for e, img in zip(f.y_part(k), images):
            if e:
                for i, x in enumerate(img):
                    v[i] += e * x
        best = v if best is None else [min(a, b) for a, b in zip(best, v)]
    return TropicalMonomial(tuple(best))


def specialize(p, spec):
    """Fomin-Zelevinsky separation of addition: evaluate a principal
    coefficient expansion in the semifield `spec` and divide by the tropical
    evaluation of its F-polynomial.

    For the trivial semifield this is exactly "set every y_i := 1".
    """
    if spec.kind == "principal":
        return p
    if p.is_zero():
        raise ValueError("cannot specialize the zero polynomial")
    fpol = p.f_polynomial()
    if spec.kind == "trivial":
        return p.set_y_one()
    images, m = spec.images(p.ny)
    denom = tropical_eval(fpol, spec)
    substituted = p.map_y([tuple(im) for im in images], m)
    shift = (0,) * p.nx + tuple(-e for e in denom.exps)
    return substituted._shift(shift)


def chebyshev(k, L):
    """Normalized Chebyshev polynomial T_k(L) with T_1 = L, T_2 = L^2 - 2
    and T_k = L*T_{k-1} - T_{k-2} (trivial-coefficient convention)."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("Chebyshev index must be a positive integer")
    if k == 1:
        return L
    two = LaurentPolynomial.const(L.nx, L.ny, 2)
    prev, cur = two, L  # T_0 = 2, T_1 = L
    for _ in range(2, k + 1):
        prev, cur = cur, L * cur - prev
    return cur


__all__ = [
    "LaurentPolynomial",
    "TropicalMonomial",
    "SemifieldSpec",
    "RankMismatch",
    "NotDivisible",
    "tropical_eval",
    "specialize",
    "chebyshev",
    "KERNEL_BACKEND",
]
