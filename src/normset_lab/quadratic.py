"""Quadratic fields Q(sqrt(d)), their orders Z[n*xi], and exact element
arithmetic.

An order is Z[n*xi] where xi = sqrt(d) for d = 2, 3 (mod 4) and
xi = (1 + sqrt(d))/2 for d = 1 (mod 4); n >= 1 is the conductor and n = 1
gives the ring of integers. Elements are stored in the order basis {1, w}
with w = n*xi, so membership questions about quotients are plain integer
divisibility of coordinates and non-maximal orders stay first-class.

Norms:
    sqrt kind:  N(a + b*w) = a^2 - d*n^2*b^2
    half kind:  N(a + b*w) = a^2 + n*a*b + n^2*b^2*(1-d)/4
both are the product of an element with its conjugate, verified by the
multiplicativity property tests.

Everything is exact integer arithmetic; there is not a float in sight.
Element factorization enumerates divisors through elements_of_norm and is
offered for imaginary orders only, where the unit group is finite. Real
orders get elements_of_norm with unit reduction, and fundamental units via
the continued fraction of sqrt(d) (d = 2, 3 mod 4) or of (1 + sqrt(d))/2
(d = 1 mod 4). Real norm searches at the exact bound, and the window table
of real_norm_table, walk only the integer fundamental domain of
canonical_associate, so they test signs instead of sliding by units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .arith import divisors, is_square, is_squarefree
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

    @property
    def is_imaginary(self) -> bool:
        return self.d < 0

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
        d, n = self.order.d, self.order.n
        a, b, c, e = self.a, self.b, o.a, o.b
        if self.order.xi_kind == SQRT_KIND:
            # w^2 = d*n^2
            return QuadElem(self.order, a * c + d * n * n * b * e, a * e + b * c)
        # w^2 = n*w + n^2*(d-1)/4
        t = n * n * (d - 1) // 4
        return QuadElem(self.order, a * c + t * b * e, a * e + b * c + n * b * e)

    __rmul__ = __mul__

    def conj(self) -> "QuadElem":
        if self.order.xi_kind == SQRT_KIND:
            return QuadElem(self.order, self.a, -self.b)
        return QuadElem(self.order, self.a + self.order.n * self.b, -self.b)

    def norm(self) -> int:
        d, n = self.order.d, self.order.n
        a, b = self.a, self.b
        if self.order.xi_kind == SQRT_KIND:
            return a * a - d * n * n * b * b
        return a * a + n * a * b + n * n * b * b * (1 - d) // 4

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        nm = self.norm()
        if nm not in (1, -1):
            return False
        # inverse = conj / norm; coordinates stay integral since |norm| = 1
        inv = self.conj() if nm == 1 else -self.conj()
        return (self * inv) == self.order.one()

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
    which solves x^2 - d*y^2 = +-Q^2 with the least y > 0.
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


@lru_cache(maxsize=None)
def fundamental_unit(d: int) -> tuple[QuadElem, int]:
    """Smallest unit > 1 of the maximal order of Q(sqrt(d)), d > 1 squarefree,
    with its norm sign. It comes from the continued fraction of sqrt(d) for
    d = 2, 3 (mod 4) and of (1 + sqrt(d))/2 for d = 1 (mod 4), where the
    period yields the least t^2 - d*u^2 = +-4.
    """
    if d <= 1:
        raise BadDiscriminant("fundamental units live in real fields")
    order = order_of(d, 1)
    if d % 4 != 1:
        x, y = _cf_unit(d, 0, 1)
        eps = order.element(x, y)
    else:
        t, u = _cf_unit(d, 1, 2)
        eps = order.element((t - u) // 2, u)
    return eps, eps.norm()


@lru_cache(maxsize=None)
def order_fundamental_unit(order: QuadraticOrder) -> tuple[QuadElem, int]:
    """Smallest unit > 1 lying in the (possibly non-maximal) order: the least
    power of the field's fundamental unit with conductor-divisible xi part.
    """
    eps, sign = fundamental_unit(order.d)
    maximal = eps.order
    acc, acc_sign = eps, sign
    while acc.b % order.n:
        acc, acc_sign = acc * eps, acc_sign * sign
    return QuadElem(order, acc.a, acc.b // order.n), acc_sign


@lru_cache(maxsize=None)
def norm_plus_unit(order: QuadraticOrder) -> QuadElem:
    """Least unit > 1 of norm +1: the fundamental unit itself, or its square
    when the fundamental unit has norm -1. Multiplication by this unit is the
    smallest slide that stays inside a fixed norm class.
    """
    eps, sign = order_fundamental_unit(order)
    return eps if sign == 1 else eps * eps


def _emb_sign_raw(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d), d > 0 nonsquare."""
    if p == 0 and q == 0:
        return 0
    if p >= 0 and q >= 0:
        return 1
    if p <= 0 and q <= 0:
        return -1
    return 1 if (p * p > q * q * d) == (p > 0) else -1


def _emb_coords(order: QuadraticOrder, x: QuadElem) -> tuple[int, int]:
    """(p, q) with 2*emb(x) = p + q*sqrt(d) under the real embedding."""
    n = order.n
    if order.xi_kind == SQRT_KIND:
        return 2 * x.a, 2 * x.b * n
    return 2 * x.a + x.b * n, x.b * n


def _emb_sign(order: QuadraticOrder, x: QuadElem) -> int:
    p, q = _emb_coords(order, x)
    return _emb_sign_raw(p, q, order.d)


def _emb_square_cmp(order: QuadraticOrder, x: QuadElem, bound: int) -> int:
    """Compare emb(x)^2 with the integer bound: -1, 0, or +1, exactly."""
    p, q = _emb_coords(order, x * x)
    return _emb_sign_raw(p - 2 * bound, q, order.d)


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
    if _emb_sign(order, x) < 0:
        x = -x
    m = abs(x.norm())
    # slide into [sqrt(m), sqrt(m)*u): emb(x)^2 in [m, m*u^2)
    while _emb_square_cmp(order, x, m) < 0:
        x = x * u
    while _emb_square_cmp(order, x * u_inv, m) >= 0:
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


def _norm_solutions(order: QuadraticOrder, m: int, bmax: int) -> list[QuadElem]:
    """Every element a + b*w of norm m with |b| <= bmax, unreduced: the roots
    t of t^2 = k*m + d*(n*b)^2, where t = a and k = 1 for the sqrt kind and
    t = 2a + n*b and k = 4 for the half kind. In the half kind d = 1 (mod 4)
    forces t = n*b (mod 2), so every root gives an element.
    """
    half = order.xi_kind == HALF_KIND
    k = 4 if half else 1
    n = order.n
    dn2 = order.d * n * n
    out = []
    for b in range(-bmax, bmax + 1):
        t2 = k * m + dn2 * b * b
        if is_square(t2):
            t = isqrt(t2)
            for tt in {t, -t}:
                out.append(QuadElem(order, (tt - n * b) // 2 if half else tt, b))
    return out


def _real_domain_scan(order: QuadraticOrder, lo: int, hi: int, b_max: int):
    """Yield (N(x), x) for every element x = a + b*w of the real order with
    lo <= N(x) <= hi and 0 <= b <= b_max that lies in the fundamental domain
    of canonical_associate(., same_norm=True): positive embedding in
    [sqrt|N|, sqrt|N| * u), u = norm_plus_unit(order).

    Write emb(x) = (t + s*sqrt(d))/c with s = n*b (c = 1 for the sqrt kind,
    2 for the half kind), and let (P, Q) be a positive multiple of that pair
    for u. Then emb(x) >= sqrt|N| iff t >= 0 and s >= 0, and
    emb(x) < sqrt|N| * u iff y = x * conj(u) fails that test, i.e.
    t*P < d*s*Q or s*P < t*Q. So one pass over b walks only the t with
    t^2 - d*s^2 in [k*lo, k*hi], k = c^2, and keeps the canonical ones by
    integer sign tests.
    """
    d, n = order.d, order.n
    half = order.xi_kind == HALF_KIND
    k, step = (4, 2) if half else (1, 1)
    P, Q = _emb_coords(order, norm_plus_unit(order))
    for b in range(b_max + 1):
        s = n * b
        base = d * s * s
        low = base + k * lo
        t = isqrt(low - 1) + 1 if low > 0 else 0
        if (t - s) % step:
            t += 1
        top = base + k * hi
        while t * t <= top:
            if t * P < d * s * Q or s * P < t * Q:
                yield (t * t - base) // k, QuadElem(order, (t - s) // 2 if half else t, b)
            t += step


def real_norm_table(order: QuadraticOrder, bound: int) -> dict[int, QuadElem]:
    """{m: least canonical same-norm element of norm m} over every norm
    2 <= |m| <= bound of the real order, from one domain sweep up to
    exact_real_search_bound(order, bound). Each entry is the first solution
    elements_of_norm returns at the exact bound; norms absent from the
    table are not norms.
    """
    table: dict[int, QuadElem] = {}
    b_max = exact_real_search_bound(order, bound)
    for m, x in _real_domain_scan(order, -bound, bound, b_max):
        if abs(m) >= 2 and (m not in table or _sol_key(x) < _sol_key(table[m])):
            table[m] = x
    return table


def elements_of_norm(order: QuadraticOrder, m: int, search_bound: int | None = None) -> NormSolutions:
    """All order elements of norm m.

    Imaginary: complete list of every (a, b) solution, exact.
    Real: requires a search bound on |b|; solutions are reduced modulo the
    norm-+1 unit subgroup to canonical same-norm associates, and the result
    is flagged exact when the bound covers the unit-reduction bound. An
    exact search walks only the fundamental domain (_real_domain_scan); a
    shorter bound canonicalizes every solution with |b| within it.
    """
    if m == 0:
        raise ValueError("norm 0 only for the zero element")
    if order.is_imaginary:
        if m < 0:
            return NormSolutions([], exact=True)
        k = 4 if order.xi_kind == HALF_KIND else 1
        bmax = isqrt(k * m // (-order.d * order.n * order.n))
        return NormSolutions(sorted(_norm_solutions(order, m, bmax), key=_sol_key),
                             exact=True)
    if search_bound is None:
        raise NeedsBound(f"norm search in real order {order} needs a b-coordinate bound")
    exact_b = exact_real_search_bound(order, m)
    if search_bound >= exact_b:
        sols = [x for _, x in _real_domain_scan(order, m, m, exact_b)]
    else:
        sols = list(dict.fromkeys(
            canonical_associate(x, same_norm=True)
            for x in _norm_solutions(order, m, search_bound)))
    return NormSolutions(sorted(sols, key=_sol_key), exact=search_bound >= exact_b)


# ---------------------------------------------------------------------------
# irreducibility and exhaustive factorization (imaginary orders)


def is_irreducible(x: QuadElem) -> bool:
    """Exact irreducibility test for nonzero nonunits of imaginary orders:
    enumerate every candidate divisor norm k | N(x), 2 <= k <= N(x)/2, list
    the elements of that norm, and test exact division.
    """
    order = x.order
    if not order.is_imaginary:
        raise ValueError("irreducibility enumeration needs a finite unit group")
    if x.is_zero() or x.is_unit():
        raise ValueError("irreducibility is about nonzero nonunits")
    nm = x.norm()
    for k in divisors(nm):
        if k < 2 or k > nm // 2:
            continue
        for y in elements_of_norm(order, k):
            if divide_exact(x, y) is not None:
                return False
    return True


def _canonical_key(x: QuadElem) -> tuple:
    return (abs(x.norm()), x.b < 0, x.a < 0, abs(x.b), abs(x.a))


def _window_size(x: QuadElem) -> int:
    """Window magnitude: rational integers count by |m|, everything else by |N|."""
    if x.b == 0:
        return abs(x.a)
    return abs(x.norm())


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
        identity=order.one(),
        op=lambda a, b: canonical_associate(a * b),
        divide=divide,
        proper_divisors=proper_divisors,
        key=_canonical_key,
        size=_window_size,
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
