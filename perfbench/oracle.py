"""Independent arithmetic the benchmark checks normset-lab's answers against.

Nothing here imports normset_lab. Elements of the order Z[n*xi] of
Q(sqrt(d)) are plain (a, b) integer pairs in the basis {1, w}, w = n*xi,
with xi = sqrt(d) for d = 2, 3 (mod 4) and xi = (1 + sqrt(d))/2 for
d = 1 (mod 4). Real norm equations are decided with Nagell's bound on
fundamental solutions (Nagell, Introduction to Number Theory, 1951,
Thms. 108 and 108a) and, for single queries, with sympy's diop_DN.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, prod

# ---------------------------------------------------------------------------
# published tables

# Heegner-Baker-Stark: the nine imaginary quadratic fields of class number 1
# (Heegner, Math. Z. 56, 1952; Baker, Mathematika 13, 1966; Stark,
# Michigan Math. J. 14, 1967).
CLASS_NUMBER_ONE = (-1, -2, -3, -7, -11, -19, -43, -67, -163)
# The eighteen of class number 2 (Baker, Ann. of Math. 94, 1971; Stark,
# Math. Comp. 29, 1975), given by squarefree d.
CLASS_NUMBER_TWO = (-5, -6, -10, -13, -15, -22, -35, -37, -51, -58,
                    -91, -115, -123, -187, -235, -267, -403, -427)


# ---------------------------------------------------------------------------
# integers


def prime_factors(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in prime_factors(n).values())


def divisors_of(n: int) -> list[int]:
    n = abs(n)
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return sorted(set(small) | {n // k for k in small})


def legendre_kind(D: int, p: int) -> int:
    """Kronecker symbol (D/p) for a prime p, from Euler's criterion."""
    if D % p == 0:
        return 0
    if p == 2:
        return 1 if D % 8 in (1, 7) else -1
    return 1 if pow(D % p, (p - 1) // 2, p) == 1 else -1


def field_discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


# ---------------------------------------------------------------------------
# elements of Z[n*xi]


def half_kind(d: int) -> bool:
    return d % 4 == 1


def norm(d: int, n: int, x) -> int:
    a, b = x
    if half_kind(d):
        return a * a + n * a * b + n * n * b * b * (1 - d) // 4
    return a * a - d * n * n * b * b


def mul(d: int, n: int, x, y):
    a, b = x
    c, e = y
    if half_kind(d):
        t = n * n * (d - 1) // 4  # w^2 = n*w + t
        return (a * c + t * b * e, a * e + b * c + n * b * e)
    return (a * c + d * n * n * b * e, a * e + b * c)


def conj(d: int, n: int, x):
    a, b = x
    return (a + n * b, -b) if half_kind(d) else (a, -b)


def quotient(d: int, n: int, x, y):
    """x / y in the order, or None when y does not divide x."""
    m = norm(d, n, y)
    a, b = mul(d, n, x, conj(d, n, y))
    if a % m or b % m:
        return None
    return (a // m, b // m)


def multiply_all(d: int, n: int, xs):
    acc = (1, 0)
    for x in xs:
        acc = mul(d, n, acc, x)
    return acc


def parse_elem(text: str):
    """'a+b*w' as printed by normset-lab, back to (a, b)."""
    s = text.replace(" ", "")
    cut = max(s.rfind("+"), s.rfind("-"))
    if not s.endswith("*w") or cut <= 0:
        raise ValueError(f"not an element literal: {text!r}")
    return (int(s[:cut]), int(s[cut:-2]))


def imaginary_elements_of_norm(d: int, n: int, m: int) -> list:
    """Every (a, b) of norm m > 0 in an imaginary order, by direct search."""
    out = []
    dd = -d
    if half_kind(d):
        # 4m = (2a + n b)^2 + |d| n^2 b^2
        b = 0
        while dd * n * n * b * b <= 4 * m:
            t2 = 4 * m - dd * n * n * b * b
            t = isqrt(t2)
            if t * t == t2:
                for s in {t, -t}:
                    for bb in {b, -b}:
                        if (s - n * bb) % 2 == 0:
                            out.append(((s - n * bb) // 2, bb))
            b += 1
    else:
        b = 0
        while dd * n * n * b * b <= m:
            t2 = m - dd * n * n * b * b
            t = isqrt(t2)
            if t * t == t2:
                out.extend({(s, bb) for s in {t, -t} for bb in {b, -b}})
            b += 1
    return sorted(set(out))


@lru_cache(maxsize=None)
def imaginary_units(d: int, n: int) -> tuple:
    return tuple(imaginary_elements_of_norm(d, n, 1))


def associated(d: int, n: int, x, y) -> bool:
    return any(mul(d, n, u, x) == tuple(y) for u in imaginary_units(d, n))


def is_irreducible(d: int, n: int, x) -> bool:
    """Brute force for a nonzero nonunit of an imaginary order: no element
    of smaller norm > 1 dividing N(x) divides x.
    """
    m = norm(d, n, x)
    if m < 2:
        raise ValueError("irreducibility is about nonzero nonunits")
    for k in divisors_of(m):
        if 1 < k < m:
            for y in imaginary_elements_of_norm(d, n, k):
                if quotient(d, n, x, y) is not None:
                    return False
    return True


# ---------------------------------------------------------------------------
# real norm equations


@lru_cache(maxsize=None)
def pell_one(D: int) -> tuple[int, int]:
    """Least x, y > 0 with x^2 - D y^2 = 1 (continued fraction of sqrt(D))."""
    a0 = isqrt(D)
    if a0 * a0 == D:
        raise ValueError(f"{D} is a square")
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        if h * h - D * k * k == 1:
            return h, k
        m = a * q - m
        q = (D - m * m) // q
        a = (a0 + m) // q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev


def _nagell_solutions(D: int, N: int):
    """Every solution (x, y), y >= 0, of x^2 - D y^2 = N inside Nagell's
    bound; each class of solutions under x^2 - D y^2 = 1 has its
    fundamental member among them.
    """
    x1, y1 = pell_one(D)
    if N > 0:
        lo, hi = 0, isqrt(y1 * y1 * N // (2 * (x1 + 1)))
    else:
        lo, hi = isqrt(-N // D), isqrt(y1 * y1 * (-N) // (2 * (x1 - 1)))
    for y in range(lo, hi + 1):
        t2 = N + D * y * y
        if t2 < 0:
            continue
        t = isqrt(t2)
        if t * t == t2:
            yield t, y
            yield -t, y


def real_has_norm(d: int, n: int, m: int) -> bool:
    """Is m the norm of an element of the real order Z[n*xi]? Exact."""
    D = d * n * n
    if half_kind(d):
        # 4m = X^2 - D Y^2 with X = 2a + n b, Y = b; parity is invariant
        # under the automorphs, so the fundamental solutions decide it
        return any((X - n * Y) % 2 == 0 for X, Y in _nagell_solutions(D, 4 * m))
    return any(True for _ in _nagell_solutions(D, m))


def real_has_norm_sympy(d: int, n: int, m: int) -> bool:
    """The same question through sympy's diop_DN."""
    from sympy.solvers.diophantine.diophantine import diop_DN

    D = d * n * n
    if half_kind(d):
        return any((X - n * Y) % 2 == 0 for X, Y in diop_DN(D, 4 * m))
    return bool(diop_DN(D, m))


def has_norm(d: int, n: int, m: int) -> bool:
    if m == 0:
        return False
    if d < 0:
        return m > 0 and bool(imaginary_elements_of_norm(d, n, m))
    return real_has_norm(d, n, m)


# ---------------------------------------------------------------------------
# the normset as a monoid


class Normset:
    """Membership, atoms and factorizations of the normset of Z[n*xi],
    decided by this module's own norm searches.
    """

    def __init__(self, d: int, n: int = 1):
        self.d, self.n = d, n
        self._member: dict[int, bool] = {}
        self._facts: dict[int, frozenset] = {}
        # -1 a norm: the two signs of m are associates, positive canonical
        self.neg_unit = d > 0 and self.member(-1)
        self.signs = (1,) if (d < 0 or self.neg_unit) else (1, -1)

    def member(self, m: int) -> bool:
        hit = self._member.get(m)
        if hit is None:
            hit = has_norm(self.d, self.n, m)
            self._member[m] = hit
        return hit

    def window(self, bound: int, both_signs: bool) -> list[int]:
        out = []
        for k in range(2, bound + 1):
            for m in ((k, -k) if both_signs else (k,)):
                if self.member(m):
                    out.append(m)
        return out

    @staticmethod
    def splits(m: int, members: set) -> bool:
        """Is m a product of two members of magnitude >= 2?"""
        am = abs(m)
        for k in divisors_of(am):
            if 2 <= k <= am // 2:
                for u in (k, -k):
                    if u in members and m // u in members:
                        return True
        return False

    def _canon(self, m: int) -> int:
        return abs(m) if self.neg_unit else m

    def _proper(self, x: int):
        ax = abs(x)
        for k in divisors_of(ax):
            if 2 <= k <= ax // 2:
                for s in self.signs:
                    u = s * k
                    c = self._canon(x // u)
                    if self.member(u) and self.member(c):
                        yield u, c

    def factorizations(self, m: int) -> frozenset:
        """Every factorization of the canonical form of m, as tuples of
        atoms sorted by (|a|, a < 0).
        """
        x = self._canon(m)
        hit = self._facts.get(x)
        if hit is not None:
            return hit
        pairs = list(self._proper(x))
        if not pairs:
            res = frozenset({(x,)})
        else:
            acc = set()
            for u, c in pairs:
                if not any(True for _ in self._proper(u)):
                    for rest in self.factorizations(c):
                        acc.add(tuple(sorted((u,) + rest, key=lambda t: (abs(t), t < 0))))
            res = frozenset(acc)
        self._facts[x] = res
        return res


# ---------------------------------------------------------------------------
# class numbers and groups


def reduced_definite_forms(D: int) -> list[tuple[int, int, int]]:
    """Primitive reduced positive definite forms of discriminant D < 0."""
    out = []
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0) or gcd(gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
        a += 1
    return out


def class_number_imaginary(D: int) -> int:
    return len(reduced_definite_forms(D))


def _rho(f, D: int):
    a, b, c = f
    s = isqrt(D)
    ac = abs(c)
    # b' = -b (mod 2c), in (s - 2|c|, s] when |c| <= sqrt(D)
    lo = s - 2 * ac + 1 if ac <= s else -ac + 1
    r = lo + (-b - lo) % (2 * ac)
    return (c, r, (r * r - D) // (4 * c))


def narrow_class_number_real(D: int) -> int:
    """Number of cycles of primitive reduced indefinite forms of discriminant
    D > 0 under the rho operator.
    """
    s = isqrt(D)
    reduced = set()
    for b in range(1, s + 1):
        if (D - b * b) % 4:
            continue
        ac = (D - b * b) // 4
        for a in divisors_of(ac):
            if s - b < 2 * a <= s + b:
                c = ac // a
                for f in ((a, b, -c), (-a, b, c)):
                    if gcd(gcd(f[0], f[1]), f[2]) == 1:
                        reduced.add(f)
    cycles = 0
    while reduced:
        f = reduced.pop()
        cycles += 1
        g = _rho(f, D)
        while g != f:
            reduced.discard(g)
            g = _rho(g, D)
    return cycles


def wide_class_number_real(d: int) -> int:
    """Class number of the maximal order of Q(sqrt(d)), d > 1: the narrow
    class number, halved when no unit has norm -1.
    """
    hp = narrow_class_number_real(field_discriminant(d))
    return hp if real_has_norm(d, 1, -1) else hp // 2


def genus_count(D: int) -> int:
    """Number of distinct primes dividing a fundamental discriminant D."""
    return len(prime_factors(D))


def imaginary_class_structure(D: int) -> tuple[int, ...] | None:
    """Invariant factors of Cl(D), D < 0 fundamental, when the class number
    and the genus-theoretic 2-rank t - 1 determine them; None otherwise.
    """
    h = class_number_imaginary(D)
    r2 = genus_count(D) - 1
    v2 = (h & -h).bit_length() - 1
    odd = h >> v2
    if v2 < r2:
        raise ValueError("2-rank exceeds the 2-part of h")
    # the odd part must be cyclic and the 2-part Z_2^(r2-1) x Z_(2^k)
    if r2 == 0:
        two = ()
    elif v2 - r2 == 0:
        two = (2,) * r2
    elif r2 == 1:
        two = (2 ** v2,)
    elif v2 - r2 == 1 and r2 >= 1:
        two = (2,) * (r2 - 1) + (4,)
    else:
        return None
    if any(e > 1 for e in prime_factors(odd).values()):
        return None
    if not two:
        return (odd,) if odd > 1 else ()
    return two[:-1] + (two[-1] * odd,)


def olson_davenport(factors: tuple[int, ...]) -> int:
    """Davenport constant from Olson's formulas (J. Number Theory 1, 1969):
    1 + sum(d_i - 1) for p-groups, m + n - 1 for Z_m x Z_n.
    """
    fs = tuple(f for f in factors if f > 1)
    if len(fs) <= 2:
        return 1 + sum(f - 1 for f in fs)
    if len(prime_factors(prod(fs))) == 1:
        return 1 + sum(f - 1 for f in fs)
    raise ValueError(f"no closed form for {fs}")


def zero_sum_free(factors: tuple[int, ...], seq) -> bool:
    """No nonempty sub-multiset of seq sums to zero, by subset enumeration."""
    for k in range(1, len(seq) + 1):
        for sub in combinations(seq, k):
            if all(sum(t[i] for t in sub) % f == 0 for i, f in enumerate(factors)):
                return False
    return True


def invariant_factors(orders) -> tuple[int, ...]:
    """Z_o1 x Z_o2 x ... in divisor-chain form."""
    parts: dict[int, list[int]] = {}
    for o in orders:
        for p, e in prime_factors(o).items():
            parts.setdefault(p, []).append(p ** e)
    rank = max((len(v) for v in parts.values()), default=0)
    out = []
    for i in range(rank):
        out.append(prod(sorted(v, reverse=True)[i] for v in parts.values() if i < len(v)))
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# generated net monoids


class NetDP:
    """A finitely generated monoid of nets over finite labels, worked out
    by a dynamic program over atom multiplicities: atom by atom, every
    member below a target is extended by each admissible multiple of the
    next atom, keeping the longest atom count that reaches it.
    """

    def __init__(self, labels, atoms):
        self.labels = tuple(labels)
        self.atoms = tuple(tuple(Fraction(a.get(lab, 0)) for lab in self.labels) for a in atoms)
        self.zero = tuple(Fraction(0) for _ in self.labels)

    def below(self, b) -> dict:
        """{member <= b: most atoms in a sum reaching it}."""
        b = tuple(Fraction(v) for v in b)
        reach = {self.zero: 0}
        for a in self.atoms:
            nxt = dict(reach)
            for s, count in reach.items():
                c = 1
                while True:
                    t = tuple(x + c * y for x, y in zip(s, a))
                    if any(x > y for x, y in zip(t, b)):
                        break
                    if nxt.get(t, -1) < count + c:
                        nxt[t] = count + c
                    c += 1
            reach = nxt
        return reach

    def divisors(self, b) -> set:
        """Nonunit divisors: members d <= b whose cofactor b - d is a member."""
        mem = self.below(b)
        return {d for d in mem if d != self.zero
                and tuple(x - y for x, y in zip(b, d)) in mem}

    def atoms_set(self) -> set:
        return {a for a in self.atoms if self.divisors(a) == {a}}

    def length_max(self, b) -> int:
        """Longest factorization of b; the declared atoms must all be atoms."""
        if self.atoms_set() != set(self.atoms):
            raise ValueError("a declared atom is a sum of others")
        return self.below(b).get(tuple(Fraction(v) for v in b), 0)
