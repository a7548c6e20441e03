"""Exact sparse Laurent polynomial arithmetic over the integers.

Polynomials live in ZZ[x1^±1, ..., xn^±1; y1, ..., ym]: Laurent in the
x-variables, ordinary (but we do not enforce nonnegativity structurally) in
the coefficient variables y.

Term storage.  A term's exponent vector (the nx x-exponents, then the ny
y-exponents) is packed into one integer key: exponent e_i sits in a 32-bit
field as e_i + 2^31, with x1 in the most significant field.  Integer order
on keys is then lexicographic order on exponent vectors, the key of a
product of two monomials is ka + kb - zero (zero is the key of the zero
vector), and a shift by a fixed monomial adds one integer.  `terms` maps
keys to nonzero integer coefficients, so equal polynomials have identical
dictionaries and identical canonical serializations.

A field must never carry into its neighbour.  Every polynomial keeps a bound
on the magnitude of its exponents: a product adds the bounds of its factors,
a sum takes their maximum, and an operation whose bound would pass
EXPONENT_LIMIT = 2^31 - 1 raises ExponentOverflow.  Long division also keeps
each quotient term inside the box that an exact quotient must lie in, which
bounds every remainder key.  The box's corners are keys too: they come from
the field-wise minimum and maximum keys of dividend and divisor, found by
comparing all the fields of two keys at once.  Exponent tuples appear only
at the boundary:
the constructor, `monomial`, `parse`, `from_json`, `serialize`,
`to_json_dict`, `sorted_keys` and `exponent_items`.

All values are immutable after construction; every operation returns a fresh
polynomial, so instances are safe to share between threads.
"""

from __future__ import annotations

import functools
import heapq
import json
import re
import struct

from .errors import ClusterlabError, check_ints
from .record import Record

# Recorded with benchmark runs; there is one arithmetic path, in pure Python.
KERNEL_BACKEND = "python"

_DIGITS = re.compile("[0-9]+")
_FACTOR = re.compile(r"([xy])(-?[0-9]+)(?:\^(-?[0-9]+))?")  # parse: x3, y2^4, x1^-2

_BIAS = 1 << 31
EXPONENT_LIMIT = _BIAS - 1
_PRIME = 101  # the modulus of div_exact's test that no quotient exists


class RankMismatch(ClusterlabError):
    """Raised when combining polynomials over different variable ranks."""


class ParseError(ClusterlabError):
    """Raised by `LaurentPolynomial.parse` on text outside the serialize()
    grammar, and by `from_json_dict` on data not of `to_json_dict`'s shape."""


class ExponentOverflow(ClusterlabError):
    """Raised when an exponent could leave its packed field, i.e. pass
    EXPONENT_LIMIT in magnitude."""


class NotDivisible(ArithmeticError):
    """Raised by div_exact when no exact quotient exists in the ring."""


class TermCodec:
    """Packs exponent vectors of length n into integer keys and back."""

    __slots__ = ("struct", "size", "zero", "units")

    def __init__(self, n):
        self.struct = struct.Struct(f">{n}I")
        self.size = 4 * n
        self.zero = self.raw([_BIAS] * n)
        # units[i]: the key offset of exponent 1 in field i, so the offset of
        # an exponent vector e is sum(e_i * units[i])
        self.units = tuple([1 << 32 * (n - 1 - i) for i in range(n)])

    def raw(self, digits):
        """The key whose fields hold `digits` as given, with no bias added;
        struct.error if a digit is outside [0, 2^32)."""
        return int.from_bytes(self.struct.pack(*digits), "big")

    def pack(self, exps):
        """The key of an exponent vector; callers check EXPONENT_LIMIT."""
        return self.raw([e + _BIAS for e in exps])

    def unpack(self, key):
        return tuple([d - _BIAS for d in self.struct.unpack(key.to_bytes(self.size, "big"))])


@functools.cache
def term_codec(n):
    """The codec for exponent vectors of length n, built on first use."""
    return TermCodec(n)


def _checked(bound):
    if bound > EXPONENT_LIMIT:
        raise ExponentOverflow(f"exponents may pass ±{EXPONENT_LIMIT}")
    return bound


def _unit(i, n):
    """The exponent vector of the i-th (1-based) of n variables."""
    if not 1 <= i <= n:
        raise RankMismatch(f"variable index {i} out of range 1..{n}")
    return [0] * (i - 1) + [1] + [0] * (n - i)


def _mul_terms(a, b, zero, out=None):
    """Distributive product of two term maps {packed key: coeff}, added into
    the term map `out` when one is given."""
    if len(a) < len(b):
        a, b = b, a
    if out is None:
        if len(b) == 1:
            ((kb, cb),) = b.items()
            d = kb - zero
            if cb == 1:
                return {ka + d: ca for ka, ca in a.items()}
            return {ka + d: ca * cb for ka, ca in a.items()}
        out = {}
    get = out.get
    for kb, cb in b.items():
        d = kb - zero
        for ka, ca in a.items():
            k = ka + d
            c = get(k, 0) + ca * cb
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def _add_into(out, items):
    """In-place termwise sum: out += the (key, coeff) pairs of `items`,
    dropping zeros."""
    get = out.get
    for k, c in items:
        nc = get(k, 0) + c
        if nc:
            out[k] = nc
        else:
            del out[k]
    return out


def _field_hull(keys, zero):
    """The field-wise minimum and maximum of packed keys, as two keys.

    The fields of two keys are compared all at once, as unsigned 32-bit
    numbers.  zero has exactly bit 31 of every field set.  In
    (a | zero) - (b & low) each field is 2^31 plus a's low 31 bits minus b's,
    which is positive, so no field borrows from its neighbour and its bit 31
    says whether a's low bits are at least b's.  Where the bit 31s of a and b
    differ, a's bit 31 decides instead."""
    low = (zero >> 31) * 0x7FFFFFFF
    keys = iter(keys)
    lo = hi = next(keys)
    for k in keys:
        kl = k & low
        x = lo ^ k
        split = x & zero
        ge = split & lo | ((lo | zero) - kl) & (split ^ zero)  # lo >= k
        lo ^= x & (ge >> 31) * 0xFFFFFFFF
        x = hi ^ k
        split = x & zero
        ge = split & hi | ((hi | zero) - kl) & (split ^ zero)  # hi >= k
        hi = k ^ x & (ge >> 31) * 0xFFFFFFFF
    return lo, hi


def _no_quotient(p, q, unpack):
    """True when sending every variable to one number a shows that q does
    not divide p, for term maps p and q.  For a = 1 and a = -1 that is a ring
    map into ZZ, so q(a) must divide p(a), and q(a) = 0 needs p(a) = 0.  For
    a in 1.._PRIME - 1 it is a ring map into the field of _PRIME elements,
    where q(a) = 0 needs p(a) = 0.  By Fermat a degree counts modulo
    _PRIME - 1, which keeps its parity, so no number grows with the
    exponents."""
    pd, qd = ([(sum(unpack(k)) % (_PRIME - 1), c) for k, c in f.items()] for f in (p, q))
    for a in (1, -1):
        pa, qa = (sum([c * a ** e for e, c in degs]) for degs in (pd, qd))
        if pa % qa if qa else pa:
            return True

    def at(degs, a):
        return sum(c * pow(a, e, _PRIME) for e, c in degs) % _PRIME

    return any(at(pd, a) for a in range(1, _PRIME) if not at(qd, a))


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


def _new(nx, ny, terms, bound):
    """A polynomial from packed terms without zero coefficients and a bound
    on its exponents, which the caller has checked."""
    p = object.__new__(LaurentPolynomial)
    p.nx = nx
    p.ny = ny
    p.terms = terms
    p._bound = bound
    return p


class LaurentPolynomial:
    """A sparse integer Laurent polynomial in x-variables and y-variables."""

    __slots__ = ("nx", "ny", "terms", "_bound")

    def __init__(self, nx, ny, terms):
        """`terms` maps exponent tuples of length nx + ny to coefficients."""
        codec = term_codec(nx + ny)
        packed = {}
        bound = 0
        for exps, c in terms.items():
            if len(exps) != nx + ny:
                raise RankMismatch(f"exponent vector {exps} is not of length {nx + ny}")
            if not c:
                continue
            bound = max(bound, _checked(max(map(abs, exps), default=0)))
            packed[codec.pack(exps)] = c
        self.nx = nx
        self.ny = ny
        self.terms = packed
        self._bound = bound

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nx, ny=None):
        ny = nx if ny is None else ny
        return _new(nx, ny, {}, 0)

    @classmethod
    def monomial(cls, nx, ny, coeff, x_exps=(), y_exps=()):
        x = tuple(x_exps) + (0,) * (nx - len(x_exps))
        y = tuple(y_exps) + (0,) * (ny - len(y_exps))
        return cls(nx, ny, {x + y: coeff})

    @classmethod
    def from_packed(cls, nx, ny, terms, bound):
        """A polynomial from a map {packed key: nonzero coeff}, with keys made
        by term_codec(nx + ny), and a bound on the magnitude of every
        exponent that the caller guarantees."""
        return _new(nx, ny, terms, _checked(bound))

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
        return cls.monomial(nx, ny, 1, _unit(i, nx))

    @classmethod
    def y_var(cls, i, nx, ny=None):
        """The coefficient variable y_i (1-based)."""
        ny = nx if ny is None else ny
        return cls.monomial(nx, ny, 1, (), _unit(i, ny))

    @classmethod
    def y_monomial(cls, nx, ny, y_exps, coeff=1):
        return cls.monomial(nx, ny, coeff, (), y_exps)

    # -- basic structure ---------------------------------------------------

    def _codec(self):
        return term_codec(self.nx + self.ny)

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        return len(self.terms) == 1

    def x_part(self, exps):
        return exps[: self.nx]

    def y_part(self, exps):
        return exps[self.nx :]

    def constant_term(self):
        return self.terms.get(self._codec().zero, 0)

    def coefficients_positive(self):
        return all(c > 0 for c in self.terms.values())

    def exponent_items(self):
        """(exponent tuple, coeff) for every term."""
        unpack = self._codec().unpack
        for k, c in self.terms.items():
            yield unpack(k), c

    def sorted_keys(self):
        """Exponent tuples in canonical term order: lexicographic, largest
        first."""
        return [k for k, _ in self._sorted_items()]

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
        _add_into(out, other.terms.items())
        return _new(self.nx, self.ny, out, max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.nx, self.ny, {k: -c for k, c in self.terms.items()}, self._bound)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPolynomial.zero(self.nx, self.ny)
            return _new(
                self.nx, self.ny, {k: other * c for k, c in self.terms.items()}, self._bound
            )
        self._check_rank(other)
        bound = _checked(self._bound + other._bound)
        terms = _mul_terms(self.terms, other.terms, self._codec().zero)
        return _new(self.nx, self.ny, terms, bound)

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int or k < 0:  # a bool is not an exponent
            raise ValueError("exponent must be a nonnegative integer")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return LaurentPolynomial.one(self.nx, self.ny) if result is None else result

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPolynomial)
            and self.nx == other.nx
            and self.ny == other.ny
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nx, self.ny, tuple(sorted(self.terms.items()))))

    # -- exact division ----------------------------------------------------

    def div_exact(self, other):
        """Exact quotient self / other in the integer Laurent ring.

        Raises NotDivisible when no exact quotient exists.  The algorithm
        runs leading-term division in lex order.  An exact quotient has, in
        every variable, exponents from min(self) - min(other) to
        max(self) - max(other); a quotient term outside that box ends the
        division, so it terminates and certifies exactness over ZZ.  The box
        is kept as two keys, low = pmin - qmin and top = pmax - qmax + 2 zero,
        from the field-wise minimum and maximum keys of self (pmin, pmax) and
        of other (qmin, qmax).  A box that is empty in some field raises
        NotDivisible before a dividend whose span in some field passes
        EXPONENT_LIMIT raises ExponentOverflow.  In lex order the least term
        of a product is the product of the least terms: after the first
        quotient term's tests, least terms that do not divide within the box
        raise NotDivisible at once.  A product of polynomials with positive
        coefficients has more terms than either factor, so the quotient
        rarely grows as large as self; when it first does, `_no_quotient`
        runs once: it evaluates both at x = 1, x = -1 and x = a mod a prime
        for every variable, and a division that would walk far down the box
        before failing fails there.
        """
        if isinstance(other, int):
            other = LaurentPolynomial.const(self.nx, self.ny, other)
        self._check_rank(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        bound = _checked(self._bound + other._bound)
        codec = self._codec()
        zero = codec.zero
        if len(other.terms) == 1:
            ((key, coeff),) = other.terms.items()
            off = zero - key
            if coeff == 1:
                out = {k + off: c for k, c in self.terms.items()}
            else:
                out = {}
                for k, c in self.terms.items():
                    q, r = divmod(c, coeff)
                    if r != 0:
                        raise NotDivisible("coefficient not divisible")
                    out[k + off] = q
            return _new(self.nx, self.ny, out, bound)

        pmin, pmax = _field_hull(self.terms, zero)
        qmin, qmax = _field_hull(other.terms, zero)
        pspan = pmax - pmin
        # the box is empty in a field where other spans more than self
        if _field_hull((pspan, qmax - qmin), zero)[1] != pspan:
            raise NotDivisible("no exact quotient")
        if pspan & zero:
            raise ExponentOverflow(f"exponent span beyond {EXPONENT_LIMIT}")
        # t lies in the box iff the bias bit of every field is set in both
        # t - low and top - t.  The check also keeps every remainder key
        # inside the box of the dividend, so no field can carry.
        low = pmin - qmin
        top = pmax - qmax + 2 * zero
        rem = dict(self.terms)
        # a max-heap of remainder keys, negated; a key that left `rem` is
        # skipped when it comes to the top
        heap = [-k for k in rem]
        heapq.heapify(heap)
        q = list(other.terms.items())
        qlead, qlead_c = max(q)
        qlast = min(other.terms)
        last = min(self.terms)
        to_t = zero - qlead
        quot = {}
        while rem:
            rlead = -heapq.heappop(heap)
            if rlead not in rem:
                continue
            t = rlead + to_t
            if (t - low) & (top - t) & zero != zero:
                raise NotDivisible("no exact quotient")
            c, r = divmod(rem[rlead], qlead_c)
            if r != 0:
                raise NotDivisible("leading coefficient not divisible")
            if not quot:  # the least terms of self and other must divide too
                t_last = last + zero - qlast
                if (self.terms[last] % other.terms[qlast]
                        or (t_last - low) & (top - t_last) & zero != zero):
                    raise NotDivisible("no exact quotient")
            quot[t] = c
            if len(quot) == len(self.terms) and _no_quotient(
                self.terms, other.terms, codec.unpack
            ):
                raise NotDivisible("no exact quotient")
            d = t - zero
            for k, qc in q:
                kk = k + d
                if kk in rem:
                    nc = rem[kk] - c * qc
                    if nc:
                        rem[kk] = nc
                    else:
                        del rem[kk]
                else:
                    rem[kk] = -c * qc
                    heapq.heappush(heap, -kk)
        corners = codec.unpack(low + zero) + codec.unpack(top - zero)
        return _new(self.nx, self.ny, quot, max(map(abs, corners)))

    # -- specializations ---------------------------------------------------

    def f_polynomial(self):
        """Set every x-variable to 1; the result involves only y-variables."""
        low = 32 * self.ny
        ymask = (1 << low) - 1
        xzero = self._codec().zero >> low << low
        out = _add_into({}, ((k & ymask | xzero, c) for k, c in self.terms.items()))
        return _new(self.nx, self.ny, out, self._bound)

    def set_y_one(self):
        """Substitute y_i := 1 for every coefficient variable."""
        low = 32 * self.ny
        out = _add_into({}, ((k >> low, c) for k, c in self.terms.items()))
        return _new(self.nx, 0, out, self._bound)

    def map_y(self, images, new_ny):
        """Substitute each y_i by a monomial with exponent vector images[i]
        (length new_ny).  Used for evaluating a principal-coefficient
        expansion in an arbitrary tropical semifield."""
        if len(images) != self.ny:
            raise RankMismatch("one image per y-variable required")
        out = {}
        for k, c in self.exponent_items():
            ye = self.y_part(k)
            new = [0] * new_ny
            for e, img in zip(ye, images):
                if e:
                    for i, v in enumerate(img):
                        new[i] += e * v
            kk = self.x_part(k) + tuple(new)
            out[kk] = out.get(kk, 0) + c
        return LaurentPolynomial(self.nx, new_ny, out)

    # -- serialization -----------------------------------------------------

    def __repr__(self):
        return f"LaurentPolynomial({self.serialize()!r})"

    def _sorted_items(self):
        """(exponent tuple, coeff) in canonical term order."""
        unpack = self._codec().unpack
        terms = self.terms
        return [(unpack(k), terms[k]) for k in sorted(terms, reverse=True)]

    def serialize(self):
        """Canonical text form, terms in canonical order."""
        if not self.terms:
            return "0"
        pieces = []
        for key, c in self._sorted_items():
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
                    "coeff": c,
                    "x": list(self.x_part(k)),
                    "y": list(self.y_part(k)),
                }
                for k, c in self._sorted_items()
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data):
        """The polynomial that `to_json_dict` wrote.  Data of another shape
        raises ParseError; an exponent list of the wrong length raises
        RankMismatch."""
        if not isinstance(data, dict) or not {"nx", "ny", "terms"} <= data.keys():
            raise ParseError("polynomial data must be an object with keys nx, ny, terms")
        nx, ny, rows = data["nx"], data["ny"], data["terms"]
        check_ints((nx, ny), "variable count", ParseError)
        if nx < 0 or ny < 0:
            raise ParseError(f"variable counts must be >= 0, not {nx} and {ny}")
        if not isinstance(rows, list) or not all(
            isinstance(t, dict) and {"coeff", "x", "y"} <= t.keys()
            and isinstance(t["x"], list) and isinstance(t["y"], list) for t in rows
        ):
            raise ParseError("terms must be a list of objects with keys coeff, x, y, "
                             "the exponents as lists")
        terms = {}
        for t in rows:
            key = tuple(t["x"] + t["y"])
            check_ints(key, "exponent", ParseError)
            # the constructor checks the length of the whole vector only
            if len(t["x"]) != nx and len(key) == nx + ny:
                raise RankMismatch(f"exponent vector {key} has {len(t['x'])} x-exponents, not {nx}")
            check_ints((t["coeff"],), "coefficient", ParseError)
            terms[key] = terms.get(key, 0) + t["coeff"]
        return cls(nx, ny, terms)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def parse(cls, text, nx, ny=None):
        """Parse the text form produced by serialize(): terms joined by
        " + " or " - ", the first optionally signed "-", each an optional
        coefficient and then factors x<i> or y<i>, each with an optional
        ^<exponent>, all joined by "*".  The terms need not be canonical,
        ordered or combined.  Malformed text raises ParseError, and a
        variable index outside 1..nx or 1..ny raises RankMismatch."""
        ny = nx if ny is None else ny
        tokens = text.split()
        signs, bodies = ["+"] + tokens[1::2], tokens[::2]
        if len(tokens) % 2 == 0 or set(signs) - {"+", "-"}:
            raise ParseError(f"cannot parse {text!r}: terms must be joined by ' + ' or ' - '")
        if bodies[0].startswith("-"):
            signs[0], bodies[0] = "-", bodies[0][1:]
        terms = {}
        for sign, body in zip(signs, bodies):
            coeff = -1 if sign == "-" else 1
            factors = body.split("*")
            if _DIGITS.fullmatch(factors[0]):
                coeff *= int(factors.pop(0))
            xe, ye = [0] * nx, [0] * ny
            for factor in factors:
                m = _FACTOR.fullmatch(factor)
                if m is None:
                    raise ParseError(f"bad factor {factor!r} in {text!r}")
                sym, i, exp = m.groups()
                exps = xe if sym == "x" else ye
                if not 1 <= int(i) <= len(exps):
                    raise RankMismatch(f"variable {factor!r} out of range 1..{len(exps)}")
                exps[int(i) - 1] += int(exp or 1)
            key = tuple(xe + ye)
            terms[key] = terms.get(key, 0) + coeff
        return cls(nx, ny, terms)


# -- tropical semifield ----------------------------------------------------


class TropicalMonomial(Record):
    """An element of Trop(y_1, ..., y_m): a Laurent monomial, stored as its
    exponent vector.  Multiplication adds vectors; tropical addition takes
    the componentwise minimum."""

    __slots__ = _fields = ("exps",)

    def __init__(self, exps):
        object.__setattr__(self, "exps", exps)

    @classmethod
    def one(cls, m):
        return cls((0,) * m)

    @classmethod
    def generator(cls, i, m):
        return cls(tuple(_unit(i, m)))

    def is_one(self):
        return all(a == 0 for a in self.exps)


class SemifieldSpec(Record):
    """Coefficient semifield for specializing principal-coefficient
    expansions.

    kind "principal" keeps the principal coefficients, "trivial" sets every
    y to 1, and "tropical" maps y_i to assignment[i - 1], a monomial in the
    tropical semifield of rank `rank`; `map_y` checks the assignment's length.
    """

    __slots__ = _fields = ("kind", "rank", "assignment")

    def __init__(self, kind, rank=0, assignment=()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "assignment", assignment)

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
        if any(len(a.exps) != rank for a in assignment):
            raise RankMismatch(f"every tropical image must have length {rank}")
        return cls("tropical", rank, assignment)

    @classmethod
    def tropical_identity(cls, n):
        return cls.tropical(n, [TropicalMonomial.generator(i, n) for i in range(1, n + 1)])


def tropical_eval(f, spec):
    """Evaluate a y-only Laurent polynomial with positive coefficients in a
    tropical semifield: + becomes componentwise min, * adds exponents.  A
    wrong-length assignment raises RankMismatch."""
    if f.is_zero():
        raise ValueError("cannot tropically evaluate the zero polynomial")
    if not f.coefficients_positive():
        raise ValueError("tropical evaluation requires positive coefficients")
    if any(any(f.x_part(k)) for k, _ in f.exponent_items()):
        raise ValueError("tropical evaluation requires a y-only polynomial")
    if spec.kind == "trivial":
        return TropicalMonomial.one(0)
    if spec.kind != "tropical":
        raise ValueError("tropical_eval needs a trivial or tropical semifield")
    # The coefficients are positive, so merging terms in map_y cancels none.
    g = f.map_y([a.exps for a in spec.assignment], spec.rank)
    ys = [g.y_part(k) for k, _ in g.exponent_items()]
    return TropicalMonomial(tuple(map(min, zip(*ys))))


def specialize(p, spec):
    """Fomin-Zelevinsky separation of addition: evaluate a principal
    coefficient expansion in the semifield `spec` and divide by the tropical
    evaluation of its F-polynomial.

    For the trivial semifield this is exactly "set every y_i := 1".  In a
    tropical one y is substituted before the F-polynomial is evaluated, so a
    wrong-length assignment raises RankMismatch before any ValueError.
    """
    if spec.kind == "principal":
        return p
    if p.is_zero():
        raise ValueError("cannot specialize the zero polynomial")
    if spec.kind == "trivial":
        return p.set_y_one()
    if spec.kind != "tropical":
        raise ValueError(f"no y-images for semifield kind {spec.kind!r}")
    substituted = p.map_y([a.exps for a in spec.assignment], spec.rank)
    denom = tropical_eval(p.f_polynomial(), spec)
    return substituted * LaurentPolynomial.y_monomial(p.nx, spec.rank, [-e for e in denom.exps])


def chebyshev(k, L):
    """Normalized Chebyshev polynomial T_k(L) with T_1 = L, T_2 = L^2 - 2
    and T_k = L*T_{k-1} - T_{k-2} (trivial-coefficient convention)."""
    if type(k) is not int or k < 1:
        raise ValueError("Chebyshev index must be a positive integer")
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
    "ParseError",
    "NotDivisible",
    "ExponentOverflow",
    "EXPONENT_LIMIT",
    "TermCodec",
    "term_codec",
    "tropical_eval",
    "specialize",
    "chebyshev",
    "KERNEL_BACKEND",
]
