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
Element factorization enumerates divisors through elements_of_norm and is
offered for imaginary orders only, where the unit group is finite. Real
orders get elements_of_norm with unit reduction, and fundamental units via
the continued fraction of w. Every norm search and table runs one scan,
_norm_scan, over the roots t >= 0 of t^2 = 4N + D*b^2 for N in a range and
b in a range; the solutions with t < 0 are the negatives. norm_table(order,
lo, hi) keeps, for every norm of the range, the solution a single exact
search for that norm returns: on a real order it walks only the integer
fundamental domain of canonical_associate, testing signs instead of sliding
by units. A normset window reads it beside the ideal backend's class sieve
(class_groups.ideal_class_table).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

from .arith import divisors, is_squarefree
from .errors import BadDiscriminant, NeedsBound
from .monoid_core import FactorMultiset, FactorSession, MonoidView

SQRT_KIND = "sqrt_d"
HALF_KIND = "half_one_plus_sqrt_d"


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

    @property
    def xi_kind(self) -> str:
        return HALF_KIND if self.d % 4 == 1 else SQRT_KIND

    @property
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
        if self.xi_kind == SQRT_KIND:
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


def divide_exact(x: QuadElem, y: QuadElem) -> QuadElem | None:
    """x / y in the order, or None when y does not divide x there."""
    if y.is_zero():
        raise ZeroDivisionError("division by zero element")
    nm = y.norm()
    num = x * y.conj()
    if num.a % nm or num.b % nm:
        return None
    return QuadElem(x.order, num.a // nm, num.b // nm)


@lru_cache(maxsize=None)
def units(order: QuadraticOrder) -> tuple[QuadElem, ...]:
    """The unit group; finite hence enumerable only for imaginary orders."""
    if not order.is_imaginary:
        raise ValueError("real quadratic orders have infinite unit group")
    one = order.one()
    out = [one, -one]
    if order.n == 1 and order.d == -1:
        out += [order.element(0, 1), order.element(0, -1)]
    elif order.n == 1 and order.d == -3:
        out += [
            order.element(0, 1), order.element(0, -1),
            order.element(-1, 1), order.element(1, -1),
        ]
    return tuple(out)


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

    Imaginary orders: the minimum of the finite unit orbit under the key
    (|a|, |b|, a<0, b<0), which lands on the all-nonnegative associate when
    one exists (e.g. 1+i rather than 1-i in Z[i]).

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
        # nonnegative coordinates first, then integer-like (small |b|) shapes,
        # so rational integers canonicalize to themselves
        return min(
            (u * x for u in units(order)),
            key=lambda y: (y.b < 0, y.a < 0, abs(y.b), abs(y.a)),
        )
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
    d, n = order.d, order.n
    sq = isqrt(d) + 1  # integer majorant of sqrt(d)
    if order.xi_kind == SQRT_KIND:
        u_plus = u.a + abs(u.b) * n * sq + 1  # >= u + 1
        den = 4 * n * n * d  # emb - conj = 2 b n sqrt(d)
    else:
        u_plus = (abs(2 * u.a + u.b * n) + abs(u.b) * n * sq) // 2 + 2
        den = n * n * d  # emb - conj = b n sqrt(d)
    num = abs(m) * u_plus * u_plus
    return isqrt(num // den + 1) + 2


def _sol_key(x: QuadElem) -> tuple:
    return (abs(x.a), abs(x.b), x.a < 0, x.b < 0)


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
    p, imag = order.p, order.is_imaginary
    if imag:
        roots = _norm_scan(order, lo, hi, _imag_bs(order, hi))
    else:
        roots = _domain_roots(order, lo, hi,
                              exact_real_search_bound(order, max(abs(lo), abs(hi))))
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
    p = order.p
    if order.is_imaginary:
        sols = []
        for _, t, b in _norm_scan(order, m, m, _imag_bs(order, m)):
            a = (t - p * b) // 2
            sols.append(QuadElem(order, a, b))
            if t:
                sols.append(QuadElem(order, -a, -b))
        return NormSolutions(sorted(sols, key=_sol_key), exact=True)
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
# irreducibility and exhaustive factorization (imaginary orders)


def is_irreducible(x: QuadElem) -> bool:
    """Exact irreducibility test for nonzero nonunits of imaginary orders:
    x is irreducible when the element view of its order (element_monoid_view)
    lists no proper divisor of it. Real orders raise ValueError there.
    """
    if x.is_zero() or x.is_unit():
        raise ValueError("irreducibility is about nonzero nonunits")
    return next(iter(element_monoid_view(x.order).proper_divisors(x)), None) is None


def _canonical_key(x: QuadElem) -> tuple:
    return (abs(x.norm()), x.b < 0, x.a < 0, abs(x.b), abs(x.a))


def element_monoid_view(order: QuadraticOrder) -> MonoidView:
    """MonoidView over canonical nonzero nonunits of an imaginary order.

    The window `elements_up_to(B)` streams, one window size s = 2, 3, ... at
    a time, every canonical element with 2 <= |N(x)| <= B and every rational
    integer 2 <= |m| <= B. The integers carry the structural collisions (an
    integer can split into conjugate non-rational factors whose norms are far
    below its own norm m^2), so windows that skipped them would miss the
    earliest witnesses. The view solves each norm once and keeps its canonical
    elements for both divisor enumeration and the window.
    """
    if not order.is_imaginary:
        raise ValueError("element factorization is imaginary-only")
    by_norm: dict[int, list[QuadElem]] = {}

    def of_norm(k):
        hit = by_norm.get(k)
        if hit is None:
            hit = by_norm[k] = list(dict.fromkeys(
                map(canonical_associate, elements_of_norm(order, k))))
        return hit

    def proper_divisors(x):
        nm = x.norm()
        for k in divisors(nm):
            if k < 2 or k > nm // 2:
                continue
            for cy in of_norm(k):
                q = divide_exact(x, cy)
                if q is not None and not q.is_unit():
                    yield cy, canonical_associate(q)

    def divide(dv, x):
        q = divide_exact(x, dv)
        return None if q is None else canonical_associate(q)

    def elements_up_to(bound):
        # window size s: the non-rational elements of norm s, then the
        # integer s, whose key leads with N(s) = s^2 > s; s is its own
        # canonical associate
        for s in range(2, bound + 1):
            yield from sorted((x for x in of_norm(s) if x.b), key=_canonical_key)
            yield order.element(s, 0)

    return MonoidView(
        name=f"elements of {order}",
        op=lambda a, b: canonical_associate(a * b),
        divide=divide,
        proper_divisors=proper_divisors,
        key=_canonical_key,
        elements_up_to=elements_up_to,
    )


def factor_element(order: QuadraticOrder, x: QuadElem, session: FactorSession | None = None) -> tuple[FactorMultiset, ...]:
    """All factorizations of x into irreducibles, up to associates and order.
    Each multiset re-multiplies to an associate of x.
    """
    if x.is_zero() or x.is_unit():
        raise ValueError("factor nonzero nonunits only")
    view = session.view if session is not None else element_monoid_view(order)
    session = session or FactorSession(view)
    return session.factorizations(canonical_associate(x))
