"""Small integer-arithmetic helpers used throughout.

Trial division is deliberate: every operand in this package is desk-scale
(norms up to a few million), so anything cleverer would be dead weight.
What is worth saving is repetition: the divisor-pair walks of the element
kernel and the normset view ask for the same few integers over and over,
so lower_divisors keeps each one's small divisors in one bounded memo
shared by every kernel, session and call.
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
