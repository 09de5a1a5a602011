"""Small integer-arithmetic helpers used throughout.

Trial division is deliberate: every operand in this package is desk-scale
(norms up to a few million), so anything cleverer would be dead weight.
What is worth saving is repetition: the divisor-pair walks of the element
kernel and the normset view ask for the same few integers over and over,
so lower_divisors keeps each one's small divisors in one bounded memo
shared by every kernel, session and call.

sqrt_mod lists every square root of a residue modulo any n >= 1, given
n's factorization: Tonelli-Shanks at each prime, Hensel lifting to its
power, and the Chinese remainder theorem across them. The real norm solver
(quadratic._norm_solve) reads its roots of beta^2 = D (mod 4|m'|), each
modulus factored by taking exponents out of the factorization of 4m.
"""

from functools import lru_cache
from math import isqrt


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| as [(p, e), ...] with p ascending.

    factorize(0) is a ValueError; units factor to [].
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # 6k+-1 wheel
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                out.append((q, e))
        p += 6
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """Positive divisors of |n|, sorted ascending."""
    if n == 0:
        raise ValueError("0 has infinitely many divisors")
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=4096)
def lower_divisors(n: int) -> tuple[int, ...]:
    """The divisors 2 <= k <= sqrt|n| of n, ascending: the lesser side of
    each splitting |n| = k * (|n| // k) into two factors >= 2, k = sqrt|n|
    included when |n| is a square. Memoized, hence a tuple, so no caller
    can change the memo; lower_divisors(0) is a ValueError as divisors(0).
    """
    divs = divisors(n)
    # d and |n| // d pair off from both ends, so half the list is <= sqrt|n|
    return tuple(divs[1:(len(divs) + 1) // 2])


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for _, e in factorize(n))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the full extension of Jacobi to all n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # strip factors of 2 from n; (a|2) = 0, 1, -1 for a even, a%8 in {1,7}, a%8 in {3,5}
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A root of x^2 = a (mod p) for an odd prime p not dividing a, by
    Tonelli-Shanks, or None when a is a non-residue.
    """
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    s, q = 0, p - 1
    while q % 2 == 0:
        s, q = s + 1, q // 2
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, x, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        x, t = x * b % p, t * c % p
    return x


def sqrt_mod(a: int, factors: list[tuple[int, int]]) -> list[int]:
    """Every x in [0, n) with x^2 = a (mod n), ascending, where n >= 1 is
    the product of p^e over factors, as factorize(n) gives them.

    Modulo each prime power p^e of n: the roots modulo p (Tonelli-Shanks,
    or 0 when p | a, or a mod 2), lifted one power at a time. A root r
    prime to an odd p has the one Hensel lift r - (r^2 - a)/(2r); any
    other root tries its p lifts r + j*p^k. The prime powers' roots are
    joined by the Chinese remainder theorem.
    """
    roots, mod = [0], 1
    for p, e in factors:
        if p == 2 or a % p == 0:
            rs = [a % p]
        else:
            r = _sqrt_mod_prime(a % p, p)
            if r is None:
                return []
            rs = [r, p - r]
        pk = p
        for _ in range(e - 1):
            nxt = pk * p
            lifted = []
            for r in rs:
                if p > 2 and r % p:
                    lifted.append((r - (r * r - a) * pow(2 * r, -1, nxt)) % nxt)
                else:
                    lifted += [x for x in range(r, nxt, pk) if (x * x - a) % nxt == 0]
            rs, pk = lifted, nxt
        inv = pow(mod, -1, pk)
        roots = [r + mod * ((s - r) * inv % pk) for r in roots for s in rs]
        mod *= pk
    return sorted(roots)
