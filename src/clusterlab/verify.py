"""Named verification cases reproducing the coefficient identities that
place the bangle and bracelet elements inside the cluster algebra, plus a
positivity/involution fuzz harness.

Every pass/fail decision is an exact zero-test of a normalized Laurent
polynomial difference; there are no tolerances anywhere.
"""

from __future__ import annotations

import random
import time

from .algebra import LaurentPolynomial, chebyshev
from .errors import ClusterlabError
from .mutation import initial_seed, mutate, mutate_seq
from .record import Record
from .snake import build_band, build_snake, expand, expand_band, trim_to_band
from .surface import (
    ArcCrossing,
    LoopCrossing,
    annulus_fixture,
    builtin_genus,
    builtin_genus1,
    builtin_genus2,
)


class CaseReport(Record):
    """The outcome of one case: `status` is "pass", "fail" or "error" (the
    case crashed or cannot run)."""

    __slots__ = _fields = ("name", "status", "detail", "elapsed_ms")

    def __init__(self, name, status, detail="", elapsed_ms=0.0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "elapsed_ms", elapsed_ms)

    @property
    def ok(self):
        return self.status == "pass"

    def to_json_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "detail": self.detail,
        }


class CaseError(Exception):
    """A case could not compute what its identity needs."""


def _run(name, body):
    t0 = time.perf_counter()
    try:
        detail = body() or ""
        status = "pass"
    except _IdentityFailure as exc:
        status, detail = "fail", str(exc)
    except CaseError as exc:
        status, detail = "error", str(exc)
    except Exception as exc:  # a crashed case is reported, never raised
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    return CaseReport(
        name, status, detail, elapsed_ms=(time.perf_counter() - t0) * 1000.0
    )


class _IdentityFailure(AssertionError):
    pass


def _assert_zero(diff, what):
    if not diff.is_zero():
        raise _IdentityFailure(f"{what}: nonzero difference {diff.serialize()}")


def _y(n, *pairs):
    e = [0] * n
    for i, k in pairs:
        e[i - 1] += k
    return LaurentPolynomial.y_monomial(n, n, e)


def _x(i, n):
    return LaurentPolynomial.x_var(i, n)


# -- fixtures ---------------------------------------------------------------

GENUS1_ARCS = {
    "V1": (4, 2, 1, 4),
    "V2": (3, 1, 2, 3),
    "U1": (1, 3),
    "U2": (4, 2),
    "W1": (3, 4),
}

GENUS2_ARCS = {
    "V1": (8, 9, 10, 2, 1, 10, 4, 6, 3, 8),
    "V2": (7, 4, 9, 3, 5, 2, 1, 5, 6, 7),
    "U1": (3, 6, 4, 10, 1, 5, 6, 7),
    "U2": (8, 9, 10, 2),
    "W1": (5, 6, 7, 8, 3, 6, 4, 10),
    "W2": (10, 4, 6, 3, 9, 10, 2, 5, 6, 7),
    "W3": (10, 4, 6, 3),
}

GENUS2_MUTATION_SEQUENCES = {"V1": (8, 9, 10, 2, 1, 9, 4, 6, 3), "V2": (7, 6, 5, 1, 2, 6, 3, 9, 4)}

ANNULUS_LOOP = (1, 2)


def _polys(T, arcs, trimmed):
    """Expansions of the arcs {name: ArcCrossing}, of the boundary loop L,
    and of the trimmed bands X1, X2, ... of the arcs named in `trimmed`."""
    snakes = {k: build_snake(T, v) for k, v in arcs.items()}
    polys = {k: expand(S) for k, S in snakes.items()}
    polys["L"] = expand_band(build_band(T, T.boundary_loop()))
    for i, name in enumerate(trimmed, start=1):
        polys[f"X{i}"] = expand_band(trim_to_band(snakes[name]))
    return polys


def _genus1_polys():
    """The genus-1 surface and `_polys` of its fixture arcs, with X1 the
    trimmed band of V1."""
    T = builtin_genus1()
    try:
        return T, _polys(T, {k: ArcCrossing(v) for k, v in GENUS1_ARCS.items()}, ("V1",))
    except Exception as exc:
        raise CaseError(
            f"genus-1 fixture construction failed: {type(exc).__name__}: {exc}"
        ) from exc


def zigzag_v_arcs(g):
    """The two zigzag arcs based at the boundary triangle whose product
    resolves against the boundary loop, in closed form on the arcs d_i, a_i,
    b_i of `builtin_genus(g)`; at g = 2 they are the genus-2 fixture V1
    reversed and V2.  Returns (T, V1 starting at arc 4g, V2 at 4g-1) with
    the crossings anchored at the boundary triangle, which `builtin_genus`
    lists last.  The exhaustive search in the tests is the oracle."""
    if g < 2:
        raise CaseError("genus-g identity needs g >= 2")
    T = builtin_genus(g)
    m = 2 * g - 1
    a, b = (lambda i: 2 * g + i), (lambda i: 6 * g - 1 - i)
    # both arcs cross every rung d_i = 2 + i and leave it through its
    # a-ladder triangle when i is odd, through its b-ladder one when i is even
    v1 = [b(m)]
    for i in range(1, m):
        v1 += [2 + i, a(i + 1) if i % 2 else b(m - i)]
    v1 += [1, 2, *map(b, range(1, m + 1))]
    v2 = [a(m)]
    for i in range(m - 1, 0, -1):
        v2 += [2 + i, a(i) if i % 2 else b(m + 1 - i)]
    v2 += [2, 1, *map(a, range(1, m + 1))]
    btri = len(T.triangles) - 1
    return T, ArcCrossing(tuple(v1), btri), ArcCrossing(tuple(v2), btri)


def zigzag_arcs(g):
    """The seven arcs of the genus-g V- and U-identities, as (T, {name:
    ArcCrossing}), cut from the zigzag arcs at their crossings of arc 1.
    With F = V1 reversed, i = F.index(1), j = V2.index(1), mid = F[i+1:-1]
    and tail = V2[j+1:]: U2 = F[:i], U1 = mid reversed + V2[j:],
    W1 = tail + F[0] + mid reversed, W2 = mid + F[1:i] + tail, W3 = mid.
    At g = 2 the sequences are `GENUS2_ARCS`.  Each U and W sequence has
    one valid start triangle, so it is given none."""
    T, v1, v2 = zigzag_v_arcs(g)
    F, V2 = v1.sequence[::-1], v2.sequence
    i, j = F.index(1), V2.index(1)
    mid, tail = F[i + 1 : -1], V2[j + 1 :]
    pieces = {
        "U1": mid[::-1] + V2[j:],
        "U2": F[:i],
        "W1": tail + F[:1] + mid[::-1],
        "W2": mid + F[1:i] + tail,
        "W3": mid,
    }
    # reversed, V1 starts where it ended: in the boundary triangle
    arcs = {"V1": ArcCrossing(F, v1.start_triangle), "V2": v2}
    return T, arcs | {k: ArcCrossing(s) for k, s in pieces.items()}


# -- cases --------------------------------------------------------------------


def check_eq1():
    """V1 V2 = L + y3 (y4 X1 + x3)(X1 + y1 y2 y3 x4) on the genus-1 surface,
    with principal coefficients and under the trivial specialization."""

    def body():
        T, p = _genus1_polys()
        n = T.n_arcs
        rhs = p["L"] + _y(n, (3, 1)) * (
            (_y(n, (4, 1)) * p["X1"] + _x(3, n))
            * (p["X1"] + _y(n, (1, 1), (2, 1), (3, 1)) * _x(4, n))
        )
        lhs = p["V1"] * p["V2"]
        _assert_zero(lhs - rhs, "eq (1) principal")
        _assert_zero(lhs.set_y_one() - rhs.set_y_one(), "eq (1) trivial")
        return "V1*V2 - RHS = 0 (principal and trivial coefficients)"

    return _run("eq1", body)


def check_eq2():
    """U1 U2 = y1 W1 + x3 + y4 X1 + y1y2y3y4 x4 + y1y3 x1x2 on genus 1."""

    def body():
        T, p = _genus1_polys()
        n = T.n_arcs
        rhs = (
            _y(n, (1, 1)) * p["W1"]
            + _x(3, n)
            + _y(n, (4, 1)) * p["X1"]
            + _y(n, (1, 1), (2, 1), (3, 1), (4, 1)) * _x(4, n)
            + _y(n, (1, 1), (3, 1)) * _x(1, n) * _x(2, n)
        )
        lhs = p["U1"] * p["U2"]
        _assert_zero(lhs - rhs, "eq (2) principal")
        _assert_zero(lhs.set_y_one() - rhs.set_y_one(), "eq (2) trivial")
        return "U1*U2 - RHS = 0 (principal and trivial coefficients)"

    return _run("eq2", body)


def check_mutation_oracle():
    """mutate_seq reproduces the snake expansions of the genus-2 fixture
    arcs, exactly."""

    def body():
        T = builtin_genus2()
        s0 = initial_seed(T.exchange_matrix())
        done = []
        for name, seq in GENUS2_MUTATION_SEQUENCES.items():
            got = mutate_seq(s0, seq).cluster[seq[-1] - 1]
            want = expand(build_snake(T, ArcCrossing(GENUS2_ARCS[name])))
            _assert_zero(got - want, f"mutation oracle {name}")
            done.append(f"mutate_seq({','.join(map(str, seq))}) = {name}")
        return " and ".join(done)

    return _run("mutation_oracle", body)


def check_genusg(g=3):
    """The genus-g V- and U-identities on the arcs of `zigzag_arcs(g)`, with
    a = 4g-1, a' = 4g and X1, X2 the trimmed bands of V1, V2:

        V1 V2 = L + y_a (y_a' X1 + x_a)(X2 + Y x_a'),
        U1 U2 = y1 W1 + x_a + y_a' X1 + y1 y_a' W2 + y1 (y_2g+1 ... y_a) x1 W3,

    where Y = (y1 ... y_a) (odd y_j, 2g+1 <= j <= 4g-3) (odd y_j,
    4g+1 <= j <= 6g-3).  Also checks that the U residual U1 U2 - x_a - y_a' X1
    is divisible by y1.  The U-identity writes X1 through arcs and cluster
    variables; X2 has no such identity here."""

    def body():
        T, arcs = zigzag_arcs(g)
        n = T.n_arcs
        p = _polys(T, arcs, ("V1", "V2"))
        a, ap = 4 * g - 1, 4 * g
        odd = (*range(2 * g + 1, a - 1, 2), *range(ap + 1, 6 * g - 2, 2))
        Y = _y(n, *((i, 1) for i in (*range(1, ap), *odd)))
        rhs_v = p["L"] + _y(n, (a, 1)) * (
            (_y(n, (ap, 1)) * p["X1"] + _x(a, n)) * (p["X2"] + Y * _x(ap, n))
        )
        _assert_zero(p["V1"] * p["V2"] - rhs_v, f"genus-{g} V-identity")

        residual = p["U1"] * p["U2"] - _x(a, n) - _y(n, (ap, 1)) * p["X1"]
        if not all(e[n] >= 1 for e, _ in residual.exponent_items()):
            raise _IdentityFailure("U residual is not divisible by y1")
        rhs_u = _y(n, (1, 1)) * (
            p["W1"]
            + _y(n, (ap, 1)) * p["W2"]
            + _y(n, *((i, 1) for i in range(2 * g + 1, ap))) * _x(1, n) * p["W3"]
        )
        _assert_zero(residual - rhs_u, f"genus-{g} U-identity")
        return f"V- and U-identities exact with Y = {Y.serialize()}; U residual divisible by y1"

    return _run(f"genus{g}", body)


def check_chebyshev(k=2):
    """The k-fold wrap band polynomial equals the normalized Chebyshev
    polynomial of the single loop, with trivial coefficients, on the
    annulus and on the genus-1 boundary loop."""

    def body():
        T1 = builtin_genus1()
        for T, loop, where in (
            (annulus_fixture(), LoopCrossing(ANNULUS_LOOP), "annulus"),
            (T1, T1.boundary_loop(), "genus-1 boundary"),
        ):
            L = expand_band(build_band(T, loop), "trivial")
            Lk = expand_band(build_band(T, loop.repeated(k)), "trivial")
            _assert_zero(Lk - chebyshev(k, L), f"{where} bracelet T_{k}")
        return f"k = {k} wraps match T_{k} on the annulus and the genus-1 loop"

    return _run("chebyshev", body)


def check_fuzz(trials=100, max_len=8, seed=0):
    """Random mutation sequences on the genus-1 and genus-2 seeds: every
    cluster entry stays a Laurent polynomial with positive coefficients
    (exact divisions succeed), every c-vector (row of C in [B | C]) is
    sign-coherent, with involution spot-checks."""

    def body():
        rng = random.Random(seed)
        for T in (builtin_genus1(), builtin_genus2()):
            n = T.n_arcs
            s0 = initial_seed(T.exchange_matrix())
            for _ in range(trials // 2):
                seq = [rng.randint(1, n) for _ in range(rng.randint(0, max_len))]
                s = mutate_seq(s0, seq)
                for v in s.cluster:
                    if not v.coefficients_positive():
                        raise _IdentityFailure(
                            f"negative coefficient after sequence {seq}"
                        )
                for row in s.M:
                    c = row[n:]
                    if min(c) < 0 < max(c):
                        raise _IdentityFailure(
                            f"c-vector {c} not sign-coherent after sequence {seq}"
                        )
                k = rng.randint(1, n)
                if mutate(mutate(s, k), k) != s:
                    raise _IdentityFailure(f"involution failed after {seq} at {k}")
        return f"{2 * (trials // 2)} sequences of length <= {max_len}: Laurent, positive, involutive"

    return _run("fuzz", body)


CASES = {
    "eq1": check_eq1,
    "eq2": check_eq2,
    "genus2": lambda: check_genusg(2),
    "mutation_oracle": check_mutation_oracle,
    "genus3": lambda: check_genusg(3),
    "chebyshev": check_chebyshev,
    "fuzz": check_fuzz,
}


def run_cases(names=None, seed=0):
    """Run the named cases (all by default) in registry order; each check
    names its own report after its case."""
    if names is None:
        names = list(CASES)
    reports = []
    for name in names:
        if name not in CASES:
            raise ClusterlabError(f"unknown case {name!r}; known: {', '.join(CASES)}")
        fn = CASES[name]
        reports.append(fn(seed=seed) if name == "fuzz" else fn())
    return reports


__all__ = [
    "CaseReport",
    "CaseError",
    "check_eq1",
    "check_eq2",
    "check_mutation_oracle",
    "check_genusg",
    "check_chebyshev",
    "check_fuzz",
    "zigzag_v_arcs",
    "zigzag_arcs",
    "run_cases",
    "CASES",
    "GENUS1_ARCS",
    "GENUS2_ARCS",
    "GENUS2_MUTATION_SEQUENCES",
    "ANNULUS_LOOP",
]
