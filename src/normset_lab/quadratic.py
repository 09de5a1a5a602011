"""Quadratic fields Q(sqrt(d)), their orders Z[n*xi], and exact element
arithmetic.

An order is Z[n*xi] where xi = sqrt(d) for d = 2, 3 (mod 4) and
xi = (1 + sqrt(d))/2 for d = 1 (mod 4); n >= 1 is the conductor and n = 1
gives the ring of integers. Elements are stored in the order basis {1, w}
with w = n*xi, so membership questions about quotients are plain integer
divisibility of coordinates and non-maximal orders stay first-class.

Norms: one arithmetic serves both kinds. With D = n^2 * D_K the order's
discriminant and p the trace of w (p = n for d = 1 mod 4, else 0), w is
(p + sqrt(D))/2 and satisfies w^2 = p*w + q, q = (D - p^2)/4. So
    N(a + b*w) = a^2 + p*a*b - q*b^2,
the principal form of discriminant D, and conj(a + b*w) = (a + p*b) - b*w.
Under a real embedding 2*(a + b*w) = t + b*sqrt(D) with t = 2a + p*b, so
the pair (t, b) carries the element's exact sign and size: a norm search
walks t^2 = 4m + D*b^2, and emb(x) >= |conj(x)| iff t >= 0 and b >= 0.

Everything is exact integer arithmetic; there is not a float in sight.
Real orders get elements_of_norm with unit reduction, and fundamental units
via the continued fraction of w. Every norm search and table runs one scan,
_norm_scan, over the roots t >= 0 of t^2 = 4N + D*b^2 for N in a range and
b in a range; the solutions with t < 0 are the negatives. norm_table(order,
lo, hi) keeps, for every norm of the range, the solution a single exact
search for that norm returns: on a real order it walks only the integer
fundamental domain of canonical_associate, testing signs instead of sliding
by units. A normset window reads it beside the ideal backend's class sieve
(class_groups.ideal_class_table).

Element factorization, for imaginary orders only, runs on an integer kernel
(_element_kernel) over canonical (a, b) int pairs, with the integer helpers
that divide_exact, canonical_associate and elements_of_norm also read.
QuadElem appears only at its boundary: element_monoid_view, factor_element
and is_irreducible take and give QuadElem, which unpacks to its pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import isqrt
from typing import Iterable

from .arith import is_squarefree, lower_divisors
from .errors import BadDiscriminant, NeedsBound
from .monoid_core import FactorMultiset, FactorSession, MonoidView

@dataclass(frozen=True)
class QuadraticField:
    d: int

    def __post_init__(self):
        if self.d in (0, 1):
            raise BadDiscriminant(f"d = {self.d} does not define a quadratic field")
        if not is_squarefree(self.d):
            raise BadDiscriminant(f"d = {self.d} is not squarefree")

    @property
    def field_discriminant(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

    def __str__(self):
        return f"Q(sqrt({self.d}))"


@dataclass(frozen=True)
class QuadraticOrder:
    field: QuadraticField
    n: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise BadDiscriminant(f"conductor n = {self.n} must be >= 1")

    @property
    def d(self) -> int:
        return self.field.d

    @cached_property
    def discriminant(self) -> int:
        return self.n * self.n * self.field.field_discriminant

    @cached_property
    def p(self) -> int:
        """The trace of w, so that w = (p + sqrt(D))/2."""
        return self.n if self.d % 4 == 1 else 0

    @cached_property
    def q(self) -> int:
        """w^2 = p*w + q, so N(w) = -q."""
        return (self.discriminant - self.p * self.p) // 4

    @property
    def is_maximal(self) -> bool:
        return self.n == 1

    @property
    def is_imaginary(self) -> bool:
        return self.d < 0

    @property
    def w_description(self) -> str:
        d, n = self.d, self.n
        if self.p == 0:
            return f"sqrt({d})" if n == 1 else f"{n}*sqrt({d})"
        inner = f"(1+sqrt({d}))/2"
        return inner if n == 1 else f"{n}*{inner}"

    def element(self, a: int, b: int = 0) -> "QuadElem":
        return QuadElem(self, a, b)

    def one(self) -> "QuadElem":
        return QuadElem(self, 1, 0)

    def __str__(self):
        return f"Z[{self.w_description}]"


def order_of(d: int, n: int = 1) -> QuadraticOrder:
    return QuadraticOrder(QuadraticField(d), n)


@dataclass(frozen=True)
class QuadElem:
    """a + b*w in the order basis {1, w}, w = n*xi."""

    order: QuadraticOrder
    a: int
    b: int

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.order != self.order:
                raise ValueError("elements of different orders")
            return other
        if isinstance(other, int):
            return QuadElem(self.order, other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElem(self.order, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElem(self.order, self.a - o.a, self.b - o.b)

    def __neg__(self):
        return QuadElem(self.order, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        order = self.order
        a, b, c, e = self.a, self.b, o.a, o.b
        be = b * e  # w^2 = p*w + q
        return QuadElem(order, a * c + order.q * be, a * e + b * c + order.p * be)

    __rmul__ = __mul__

    def conj(self) -> "QuadElem":
        return QuadElem(self.order, self.a + self.order.p * self.b, -self.b)

    def norm(self) -> int:
        a, b = self.a, self.b
        return a * a + self.order.p * a * b - self.order.q * b * b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        # the order is closed under conjugation, so conj(x) / N(x) is integral
        return self.norm() in (1, -1)

    def __iter__(self):
        # unpacks to the integer pair the element kernel runs on
        return iter((self.a, self.b))

    def __str__(self):
        return f"{self.a}{self.b:+d}*w"

    def __repr__(self):
        return f"<{self} in {self.order}>"


def parse_element(order: QuadraticOrder, text: str) -> QuadElem:
    """Parse 'a+b*w' (also plain 'a' or 'b*w'); whitespace-insensitive."""
    s = text.replace(" ", "").replace("W", "w")
    if not s:
        raise ValueError("empty element")
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    a = b = 0
    for term in s.split("+"):
        if not term:
            raise ValueError(f"cannot parse element {text!r}")
        if term.endswith("w"):
            coeff = term[:-1].rstrip("*")
            if coeff in ("", "-"):
                coeff += "1"
            b += int(coeff)
        else:
            a += int(term)
    return QuadElem(order, a, b)


def _product(p: int, q: int, a: int, b: int, c: int, e: int) -> tuple[int, int]:
    """(a + b*w)(c + e*w) as a pair, for w^2 = p*w + q."""
    be = b * e
    return a * c + q * be, a * e + b * c + p * be


def _quotient(p: int, q: int, a: int, b: int, c: int, e: int) -> tuple[int, int] | None:
    """(a + b*w) / (c + e*w) as a pair, or None outside the order."""
    nm, f, be = c * c + p * c * e - q * e * e, c + p * e, -b * e
    s, t = a * f + q * be, b * f - a * e + p * be
    return None if s % nm or t % nm else (s // nm, t // nm)


def divide_exact(x: QuadElem, y: QuadElem) -> QuadElem | None:
    """x / y in the order, or None when y does not divide x there."""
    if y.is_zero():
        raise ZeroDivisionError("division by zero element")
    if x.order != y.order:
        raise ValueError("elements of different orders")
    r = _quotient(x.order.p, x.order.q, x.a, x.b, y.a, y.b)
    return None if r is None else QuadElem(x.order, *r)


@lru_cache(maxsize=None)
def units(order: QuadraticOrder) -> tuple[QuadElem, ...]:
    """The unit group; finite hence enumerable only for imaginary orders."""
    if not order.is_imaginary:
        raise ValueError("real quadratic orders have infinite unit group")
    roots = {-1: [(0, 1), (0, -1)], -3: [(0, 1), (0, -1), (-1, 1), (1, -1)]}
    extra = roots.get(order.d, []) if order.n == 1 else []
    return tuple(QuadElem(order, a, b) for a, b in [(1, 0), (-1, 0)] + extra)


# ---------------------------------------------------------------------------
# continued fractions and units of real orders


def _cf_unit(d: int, P: int, Q: int) -> tuple[int, int]:
    """Walk the continued fraction of (P + sqrt(d))/Q, Q | d - P^2, to the
    first later complete quotient (P' + sqrt(d))/Q with the starting Q again.
    With A/B the convergent before it, returns (x, y) = (Q*A - P*B, B),
    which solves x^2 - d*y^2 = +-Q^2 with the least y > 0. d need not be
    squarefree: for d = 4*d' and (P, Q) = (0, 2) the walk is that of
    sqrt(d') with every (P, Q) doubled.
    """
    r = isqrt(d)
    P0, Q0 = P, Q
    A_prev, A = 0, 1
    B_prev, B = 1, 0
    while True:
        a = (P + r) // Q
        A_prev, A = A, a * A + A_prev
        B_prev, B = B, a * B + B_prev
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == Q0:
            return Q0 * A - P0 * B, B


def fundamental_unit(d: int) -> tuple[QuadElem, int]:
    """Smallest unit > 1 of the maximal order of Q(sqrt(d)), d > 1 squarefree,
    with its norm sign.
    """
    if d <= 1:
        raise BadDiscriminant("fundamental units live in real fields")
    return order_fundamental_unit(order_of(d, 1))


@lru_cache(maxsize=None)
def order_fundamental_unit(order: QuadraticOrder) -> tuple[QuadElem, int]:
    """Smallest unit > 1 of a real order, with its norm sign. It comes from
    the continued fraction of the order's own w = (p + sqrt(D))/2, whose
    period yields the least t^2 - D*u^2 = +-4; the unit is
    (t + u*sqrt(D))/2 = (t - p*u)/2 + u*w.
    """
    if order.is_imaginary:
        raise BadDiscriminant("fundamental units live in real fields")
    t, u = _cf_unit(order.discriminant, order.p, 2)
    eps = order.element((t - order.p * u) // 2, u)
    return eps, eps.norm()


@lru_cache(maxsize=None)
def norm_plus_unit(order: QuadraticOrder) -> QuadElem:
    """Least unit > 1 of norm +1: the fundamental unit itself, or its square
    when the fundamental unit has norm -1. Multiplication by this unit is the
    smallest slide that stays inside a fixed norm class.
    """
    eps, sign = order_fundamental_unit(order)
    return eps if sign == 1 else eps * eps


def _emb_negative(x: QuadElem) -> bool:
    """Whether emb(x) < 0, for nonzero x of a real order."""
    t, b = 2 * x.a + x.order.p * x.b, x.b
    if t * b >= 0:
        return t < 0 or b < 0
    # conj(x) = (t - b*sqrt(D))/2 then has the sign of t, and emb = N/conj
    return (x.norm() < 0) != (t < 0)


def _emb_at_least_conj(x: QuadElem) -> bool:
    """emb(x) >= |conj(x)|, so emb(x) >= sqrt|N(x)| when emb(x) > 0."""
    return x.b >= 0 and 2 * x.a + x.order.p * x.b >= 0


def canonical_associate(x: QuadElem, same_norm: bool = False) -> QuadElem:
    """Deterministic representative of the associate class of x.

    Imaginary orders: the least of the finite unit orbit (_unit_canon).

    Real orders: the unique associate with positive embedding in
    [sqrt(|N|), sqrt(|N|)*u), sliding by u = the fundamental unit, or by the
    least norm-+1 unit under `same_norm`. The two differ exactly when the
    fundamental unit has norm -1: there the full associate class mixes norms
    m and -m, and a representative picked for a norm search must not leave
    the norm class of x.
    """
    if x.is_zero():
        return x
    order = x.order
    if order.is_imaginary:
        return QuadElem(order, *_unit_canon(order)(x.a, x.b))
    u, sign = (norm_plus_unit(order), 1) if same_norm else order_fundamental_unit(order)
    u_inv = u.conj() if sign == 1 else -u.conj()  # u^-1 = N(u) * conj(u)
    if _emb_negative(x):
        x = -x
    # slide into [sqrt|N|, sqrt|N|*u)
    while not _emb_at_least_conj(x):
        x = x * u
    while _emb_at_least_conj(x * u_inv):
        x = x * u_inv
    return x


class NormSolutions(list):
    """List of QuadElem with a given norm; `exact` records completeness.

    Imaginary searches are always exact (the empty list proves
    non-representability). Real searches are exact when the supplied bound
    dominates the unit-reduction bound; solutions come one per same-norm
    associate class, canonically chosen.
    """

    exact: bool

    def __init__(self, items=(), exact=True):
        super().__init__(items)
        self.exact = exact


def exact_real_search_bound(order: QuadraticOrder, m: int) -> int:
    """A b-coordinate bound under which the real norm search is complete:
    every solution of N(x) = m has a same-norm associate with positive
    embedding in [sqrt|m|, sqrt|m| * u), u the least norm-+1 unit, and that
    associate satisfies |emb - conj| <= sqrt(|m|) * (u + 1). Returned with
    headroom.
    """
    u = norm_plus_unit(order)
    n = order.n
    sq = isqrt(order.d) + 1  # integer majorant of sqrt(d)
    if order.p == 0:
        u_plus = u.a + abs(u.b) * n * sq + 1  # >= u + 1
    else:
        u_plus = (abs(2 * u.a + u.b * n) + abs(u.b) * n * sq) // 2 + 2
    # emb - conj = b*sqrt(D), so b^2 * D <= |m| * (u + 1)^2
    num = abs(m) * u_plus * u_plus
    return isqrt(num // order.discriminant + 1) + 2


def _sol_key(x) -> tuple:
    a, b = x
    return (abs(a), abs(b), a < 0, b < 0)


def _norm_scan(order: QuadraticOrder, lo: int, hi: int, bs):
    """Yield (N, t, b) for every root t >= 0 of t^2 = 4N + D*b^2 with
    lo <= N <= hi and b in bs: the elements (t - p*b)/2 + b*w of norm N.
    D = p^2 (mod 4) forces t = p*b (mod 2), so every such t gives one; the
    negatives, with -t, are the other solutions. Each b walks t down from
    isqrt(4*hi + D*b^2), so a b with no root in range costs one isqrt.
    """
    D, p = order.discriminant, order.p
    lo4, hi4 = 4 * lo, 4 * hi
    for b in bs:
        base = D * b * b
        top = base + hi4
        if top < 0:
            continue
        t = isqrt(top)
        low = base + lo4
        if t * t < low:
            continue
        t -= (t - p * b) & 1
        while t >= 0 and t * t >= low:
            yield (t * t - base) // 4, t, b
            t -= 2


def _imag_bs(order: QuadraticOrder, hi: int) -> range:
    """The b of the elements of norm <= hi: |D|*b^2 <= 4*N."""
    b_max = isqrt(4 * max(hi, 0) // -order.discriminant)
    return range(-b_max, b_max + 1)


def _domain_roots(order: QuadraticOrder, lo: int, hi: int, b_max: int) -> list:
    """The (N, t, b) of _norm_scan over 0 <= b <= b_max whose element x lies
    in the fundamental domain of canonical_associate(., same_norm=True),
    emb(x) in [sqrt|N|, sqrt|N| * u) for u = norm_plus_unit(order). Since
    2*emb(x) = t + b*sqrt(D), the lower end is t, b >= 0, and with (P, Q)
    taken from u as (t, b) from x, the upper end holds iff x * conj(u)
    fails that test: t*P < D*b*Q or b*P < t*Q.
    """
    u = norm_plus_unit(order)
    D, P, Q = order.discriminant, 2 * u.a + order.p * u.b, u.b
    return [(m, t, b) for m, t, b in _norm_scan(order, lo, hi, range(b_max + 1))
            if t * P < D * b * Q or b * P < t * Q]


def norm_table(order: QuadraticOrder, lo: int, hi: int) -> dict[int, QuadElem]:
    """{m: the witness of the exact search for m} over every norm m of the
    order with lo <= m <= hi and |m| >= 2; norms of the range absent from
    the table are not norms. Imaginary: the canonical associate of the least
    solution under _sol_key; the scan gives those with t >= 0, and x and -x
    share their canonical associate, so the lesser key of the two stands for
    both. Real: the least element under _sol_key in the fundamental domain
    (_domain_roots) with b <= exact_real_search_bound(order, max(|lo|, |hi|)),
    the first solution elements_of_norm returns at the exact bound.
    """
    b_max = (None if order.is_imaginary
             else exact_real_search_bound(order, max(abs(lo), abs(hi))))
    return _norm_table(order, lo, hi, b_max)


def _norm_table(order: QuadraticOrder, lo: int, hi: int,
                b_max: int | None) -> dict[int, QuadElem]:
    """norm_table(order, lo, hi) with its real b-bound b_max handed in, for a
    caller that already holds it: exact_real_search_bound(order,
    max(|lo|, |hi|)) on a real order, None on an imaginary one.
    """
    p, imag = order.p, order.is_imaginary
    if imag:
        roots = _norm_scan(order, lo, hi, _imag_bs(order, hi))
    else:
        roots = _domain_roots(order, lo, hi, b_max)
    best: dict[int, tuple] = {}
    for m, t, b in roots:
        if -2 < m < 2:
            continue
        a = (t - p * b) // 2
        signs = (a < 0, b < 0)
        key = (abs(a), abs(b), min(signs, (a > 0, b > 0)) if imag else signs)
        old = best.get(m)
        if old is None or key < old[0]:
            best[m] = key, a, b
    if imag:
        return {m: canonical_associate(QuadElem(order, a, b)) for m, (_, a, b) in best.items()}
    return {m: QuadElem(order, a, b) for m, (_, a, b) in best.items()}


def elements_of_norm(order: QuadraticOrder, m: int, search_bound: int | None = None) -> NormSolutions:
    """All order elements of norm m, sorted by _sol_key.

    Imaginary: complete list of every (a, b) solution, exact.
    Real: requires a search bound on |b|; solutions are reduced modulo the
    norm-+1 unit subgroup to canonical same-norm associates, and the result
    is flagged exact when the bound covers the unit-reduction bound. An
    exact search keeps the elements of the fundamental domain
    (_domain_roots); a shorter bound canonicalizes the solutions with
    t >= 0 and |b| within it, since -x is a same-norm associate of x.
    """
    if m == 0:
        raise ValueError("norm 0 only for the zero element")
    if order.is_imaginary:
        return NormSolutions([QuadElem(order, a, b) for a, b in _solutions(order, m)])
    p = order.p
    if search_bound is None:
        raise NeedsBound(f"norm search in real order {order} needs a b-coordinate bound")
    exact_b = exact_real_search_bound(order, m)
    if search_bound >= exact_b:
        sols = [QuadElem(order, (t - p * b) // 2, b)
                for _, t, b in _domain_roots(order, m, m, exact_b)]
    else:
        sols = {canonical_associate(QuadElem(order, (t - p * b) // 2, b), same_norm=True)
                for _, t, b in _norm_scan(order, m, m, range(-search_bound, search_bound + 1))}
    return NormSolutions(sorted(sols, key=_sol_key), exact=search_bound >= exact_b)


# ---------------------------------------------------------------------------
# the integer element kernel and exhaustive factorization (imaginary orders)


@lru_cache(maxsize=None)
def _unit_canon(order: QuadraticOrder):
    """(a, b) -> the least pair of its unit orbit in an imaginary order under
    (b<0, a<0, |b|, |a|): 1+i rather than 1-i in Z[i], and a rational
    integer is its own. With units +-1 only, that is a sign test.
    """
    orbit = [(u.a, u.b) for u in units(order)]
    if len(orbit) == 2:
        return lambda a, b: (a, b) if b > 0 or (b == 0 and a > 0) else (-a, -b)
    p, q = order.p, order.q
    return lambda a, b: min((_product(p, q, c, e, a, b) for c, e in orbit),
                            key=lambda y: (y[1] < 0, y[0] < 0, abs(y[1]), abs(y[0])))


def _solutions(order: QuadraticOrder, m: int) -> list[tuple[int, int]]:
    """Every (a, b) of norm m in an imaginary order, sorted by _sol_key."""
    p, sols = order.p, []
    for _, t, b in _norm_scan(order, m, m, _imag_bs(order, m)):
        a = (t - p * b) // 2
        sols.append((a, b))
        if t:
            sols.append((-a, -b))
    return sorted(sols, key=_sol_key)


def _element_kernel(order: QuadraticOrder) -> MonoidView:
    """The element view of an imaginary order on canonical (a, b) int pairs,
    with p and q held by its closures and the arithmetic of _product,
    _quotient and _unit_canon. Each norm is solved once, for divisors and
    window alike, by canonicalizing the roots t >= 0 of _norm_scan: the
    other roots are their negatives, associates of them. The key is
    (N, b<0, a<0, |b|, |a|).

    `proper_divisors(x)` walks the norms 2 <= k <= sqrt(N) of
    arith.lower_divisors, so the small divisors of each norm are listed
    once per process; it divides x by each solution d of norm k inline, as
    x * conj(d) / k, and yields (d, c) for every exact cofactor c, and
    (c, d) too when k^2 < N, so each pair comes once.

    The window `elements_up_to(B)` streams each size s = 2, 3, ... in turn:
    the canonical elements of norm s, then the integer s (key N = s^2),
    which can split into conjugate factors of norm far below s^2, so a
    window without the integers would miss the earliest witnesses.
    """
    if not order.is_imaginary:
        raise ValueError("element factorization is imaginary-only")
    p, q = order.p, order.q
    canon = _unit_canon(order)
    by_norm: dict[int, list[tuple[int, int]]] = {}

    def of_norm(k):
        hit = by_norm.get(k)
        if hit is None:
            roots = _norm_scan(order, k, k, _imag_bs(order, k))
            hit = by_norm[k] = list(dict.fromkeys(canon((t - p * b) // 2, b) for _, t, b in roots))
        return hit

    def key(x):
        a, b = x
        return (a * a + p * a * b - q * b * b, b < 0, a < 0, abs(b), abs(a))

    def proper_divisors(x):
        a, b = x
        nm = a * a + p * a * b - q * b * b
        qb, ap = q * b, a + p * b
        for k in lower_divisors(nm):
            sols = by_norm.get(k)
            if sols is None:
                sols = of_norm(k)
            both = k * k < nm
            for dv in sols:
                # conj(c + e*w) = (c + p*e) - e*w
                c, e = dv
                f = c + p * e
                s = a * f - qb * e
                if s % k:
                    continue
                t = b * f - ap * e
                if t % k:
                    continue
                r = canon(s // k, t // k)
                yield dv, r
                if both:
                    yield r, dv

    def divide(dv, x):
        r = _quotient(p, q, *x, *dv)
        return None if r is None else canon(*r)

    def elements_up_to(bound):
        for s in range(2, bound + 1):
            yield from sorted((x for x in of_norm(s) if x[1]), key=key)
            yield s, 0

    return MonoidView(f"elements of {order}", lambda x, y: canon(*_product(p, q, *x, *y)),
                      divide, proper_divisors, key, elements_up_to)


def _as_elements(order: QuadraticOrder, f: Iterable[tuple[int, int]]) -> FactorMultiset:
    return FactorMultiset(tuple(QuadElem(order, a, b) for a, b in f))


def is_irreducible(x: QuadElem) -> bool:
    """Exact for nonzero nonunits of imaginary orders: x is irreducible when
    the element kernel lists no proper divisor of it. Real orders raise
    ValueError.
    """
    if x.is_zero() or x.is_unit():
        raise ValueError("irreducibility is about nonzero nonunits")
    return next(iter(_element_kernel(x.order).proper_divisors((x.a, x.b))), None) is None


def element_monoid_view(order: QuadraticOrder) -> MonoidView:
    """MonoidView over canonical nonzero nonunits of an imaginary order: the
    integer kernel (_element_kernel), whose answers become QuadElem here; it
    reads QuadElem arguments as they stand, since they unpack to pairs.
    """
    kernel = _element_kernel(order)

    def elem(x):
        return None if x is None else QuadElem(order, *x)

    return replace(
        kernel,
        op=lambda x, y: elem(kernel.op(x, y)),
        divide=lambda dv, x: elem(kernel.divide(dv, x)),
        proper_divisors=lambda x: ((elem(d), elem(c)) for d, c in kernel.proper_divisors(x)),
        elements_up_to=lambda bound: map(elem, kernel.elements_up_to(bound)),
    )


def factor_element(order: QuadraticOrder, x: QuadElem, session: FactorSession | None = None) -> tuple[FactorMultiset, ...]:
    """All factorizations of x into irreducibles, up to associates and order;
    each re-multiplies to an associate of x. A given session must run on
    the order's kernel (_element_kernel).
    """
    if x.is_zero() or x.is_unit():
        raise ValueError("factor nonzero nonunits only")
    if x.order != order:
        raise ValueError("elements of different orders")
    session = session or FactorSession(_element_kernel(order))
    return tuple(_as_elements(order, f)
                 for f in session.factorizations(_unit_canon(order)(x.a, x.b)))
