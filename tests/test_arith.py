import math

import pytest
from hypothesis import given, strategies as st

from normset_lab.arith import (divisors, factorize, is_square, is_squarefree, kronecker,
                               lower_divisors)


def test_factorize_small_table():
    assert factorize(1) == []
    assert factorize(-1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(-360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(2**10) == [(2, 10)]


def test_factorize_zero_rejected():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        divisors(0)


@given(st.integers(min_value=2, max_value=200_000))
def test_factorize_reconstructs(n):
    prod = 1
    prev = 1
    for p, e in factorize(n):
        assert p > prev  # ascending primes
        prev = p
        assert e >= 1
        assert all(p % q for q in range(2, math.isqrt(p) + 1))
        prod *= p**e
    assert prod == n


@given(st.integers(min_value=1, max_value=20_000))
def test_divisors_oracle(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_lower_divisors_brute_force():
    for m in range(1, 5001):
        want = tuple(k for k in range(2, math.isqrt(m) + 1) if m % k == 0)
        assert lower_divisors(m) == lower_divisors(-m) == want, m
    assert lower_divisors(1) == lower_divisors(-1) == ()
    assert lower_divisors(4999) == () and lower_divisors(-4999) == ()  # prime
    assert lower_divisors(49) == (7,) and lower_divisors(-3600)[-1] == 60
    assert lower_divisors(360) == (2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18)


def test_lower_divisors_memo_is_immutable_and_refuses_zero():
    # a tuple, so no caller can change what the next one reads
    assert type(lower_divisors(5040)) is tuple
    assert lower_divisors(5040) is lower_divisors(5040)
    with pytest.raises(ValueError):
        lower_divisors(0)


@given(st.integers(min_value=-2000, max_value=2000).filter(lambda n: n != 0))
def test_squarefree_oracle(n):
    brute = all(n % (k * k) for k in range(2, math.isqrt(abs(n)) + 1))
    assert is_squarefree(n) == brute


def test_is_square():
    squares = {k * k for k in range(200)}
    for n in range(-50, 40_000):
        assert is_square(n) == (n in squares)


def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@given(st.integers(min_value=-300, max_value=300),
       st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 97]))
def test_kronecker_matches_legendre_at_odd_primes(a, p):
    assert kronecker(a, p) == _legendre(a, p)


def test_kronecker_at_two():
    # (a|2) by the classical residue rule
    for a in range(-40, 40):
        expect = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
        assert kronecker(a, 2) == expect


@given(st.integers(min_value=-200, max_value=200),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60))
def test_kronecker_multiplicative_in_n(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_discriminant_periodicity():
    # (D|.) has period |D| for discriminants D = 0, 1 mod 4
    for D in (-163, -40, -20, -4, 5, 8, 136):
        assert D % 4 in (0, 1)
        for n in range(1, 3 * abs(D)):
            assert kronecker(D, n) == kronecker(D, n + abs(D))
