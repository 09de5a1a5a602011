import random

import pytest
from hypothesis import given, settings, strategies as st

from math import isqrt

from normset_lab.arith import divisors, is_square, is_squarefree
from normset_lab.errors import BadDiscriminant, NeedsBound
from normset_lab.quadratic import (QuadElem, _domain_roots,
                                   _element_kernel, _norm_solve, _sol_key,
                                   canonical_associate, divide_exact,
                                   element_monoid_view,
                                   elements_of_norm, exact_real_search_bound,
                                   factor_element, fundamental_unit,
                                   is_irreducible, norm_plus_unit, norm_table,
                                   order_fundamental_unit, order_of,
                                   parse_element, units)

ORDERS = [order_of(-1), order_of(-3), order_of(-7), order_of(-10),
          order_of(-14), order_of(-3, 2), order_of(-2, 3), order_of(-1, 2),
          order_of(2), order_of(5), order_of(34), order_of(2, 2)]

coord = st.integers(min_value=-30, max_value=30)


@pytest.mark.parametrize("order", ORDERS, ids=str)
@given(a=coord, b=coord, c=coord, e=coord)
@settings(max_examples=40)
def test_norm_is_conjugate_product_and_multiplicative(order, a, b, c, e):
    x = order.element(a, b)
    y = order.element(c, e)
    xx = x * x.conj()
    assert xx.b == 0 and xx.a == x.norm()
    assert (x * y).norm() == x.norm() * y.norm()
    assert x.conj().conj() == x
    assert (x * y).conj() == x.conj() * y.conj()


@pytest.mark.parametrize("d", [-1, -3, -5, -7, 2, 3, 5, 13])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_is_unit_is_norm_plus_or_minus_one(d, n):
    # oracle: N(x) = +-1 and x times its inverse N(x)*conj(x) is 1
    order = order_of(d, n)
    one = order.one()
    for a in range(-30, 31):
        for b in range(-30, 31):
            x = order.element(a, b)
            nm = x.norm()
            expected = nm in (1, -1) and x * (nm * x.conj()) == one
            assert x.is_unit() == expected, x


def test_order_construction_guards():
    with pytest.raises(BadDiscriminant):
        order_of(12)
    with pytest.raises(BadDiscriminant):
        order_of(0)
    with pytest.raises(BadDiscriminant):
        order_of(1)
    with pytest.raises(BadDiscriminant):
        order_of(-5, 0)


def test_discriminants():
    assert order_of(-1).discriminant == -4
    assert order_of(-3).discriminant == -3
    assert order_of(-3, 2).discriminant == -12
    assert order_of(5).discriminant == 5
    assert order_of(34).discriminant == 136
    assert order_of(2, 2).discriminant == 32


def test_half_kind_norm_values():
    # Z[(1+sqrt(-3))/2]: N(a + b xi) = a^2 + ab + b^2
    o = order_of(-3)
    assert o.element(1, 1).norm() == 3
    assert o.element(2, -1).norm() == 3
    assert o.element(0, 1).norm() == 1  # xi is a unit here
    # Z[(1+sqrt(5))/2]: N(xi) = -1
    assert order_of(5).element(0, 1).norm() == -1


def test_unit_groups():
    assert len(units(order_of(-1))) == 4
    assert len(units(order_of(-3))) == 6
    assert len(units(order_of(-7))) == 2
    assert len(units(order_of(-1, 2))) == 2  # i leaves the order Z[2i]
    for o in (order_of(-1), order_of(-3), order_of(-10)):
        for u in units(o):
            assert u.is_unit() and u.norm() in (1, -1)
    with pytest.raises(ValueError):
        units(order_of(2))


def test_fundamental_units_pell_fixtures():
    eps, sign = fundamental_unit(2)
    assert (eps.a, eps.b, sign) == (1, 1, -1)
    eps, sign = fundamental_unit(3)
    assert (eps.a, eps.b, sign) == (2, 1, 1)
    eps, sign = fundamental_unit(5)
    assert (eps.a, eps.b, sign) == (0, 1, -1)  # (1+sqrt 5)/2
    eps, sign = fundamental_unit(34)
    assert (eps.a, eps.b, sign) == (35, 6, 1)
    for d in (2, 3, 5, 7, 10, 13, 34, 94):
        eps, sign = fundamental_unit(d)
        assert eps.norm() == sign


def _scanned_unit(d, cap):
    """The least unit > 1 of the maximal order by a linear scan over u, as
    (a, b, sign) of a + b*w; None when u exceeds cap. For d = 1 (mod 4) it is
    the least t^2 - d*u^2 = +-4, the unit (t + u*sqrt(d))/2; otherwise the
    least x^2 - d*u^2 = +-1, the unit x + u*sqrt(d).
    """
    k = 4 if d % 4 == 1 else 1
    for u in range(1, cap + 1):
        for target in (-k, k):
            t2 = d * u * u + target
            if is_square(t2):
                t = isqrt(t2)
                return (t - u) // 2 if k == 4 else t, u, target // k
    return None


def _assert_units_match_scan(ds):
    # the linear scan is the oracle wherever it ends below the cap; above it
    # the scan still proves no smaller solution exists
    cap = 20000
    for d in ds:
        if not is_squarefree(d):
            continue
        eps, sign = fundamental_unit(d)
        assert eps.a >= 0 and eps.b > 0 and _kind_norm(eps) == sign, d
        assert eps.norm() == sign
        scanned = _scanned_unit(d, cap)
        if scanned is None:
            assert eps.b > cap, d
        else:
            assert (eps.a, eps.b, sign) == scanned, d


def test_fundamental_unit_matches_scan_for_half_kind():
    _assert_units_match_scan(range(5, 600, 4))


def test_fundamental_unit_matches_scan_for_sqrt_kind():
    # for D = 4d the walk is that of sqrt(d) with every (P, Q) doubled
    _assert_units_match_scan(d for d in range(2, 600) if d % 4 in (2, 3))


def test_fundamental_unit_large_period():
    # the old linear scan needed seconds here; y1 = 2683493
    eps, sign = fundamental_unit(1021)
    assert (eps.a, eps.b, sign) == (41531201, 2683493, -1)
    assert eps.norm() == sign


def test_order_fundamental_unit_conductor():
    # Z[2 sqrt 2]: (1+sqrt2)^2 = 3 + 2 sqrt 2, the least unit in the suborder
    o = order_of(2, 2)
    eps, sign = order_fundamental_unit(o)
    assert (eps.a, eps.b, sign) == (3, 1, 1)
    assert eps.norm() == 1


@pytest.mark.parametrize("order", [o for o in ORDERS if o.is_imaginary], ids=str)
@given(a=coord, b=coord)
@settings(max_examples=30)
def test_canonical_associate_is_orbit_invariant(order, a, b):
    x = order.element(a, b)
    if x.is_zero():
        return
    reps = {canonical_associate(u * x) for u in units(order)}
    rep = canonical_associate(x)
    assert reps == {rep}
    assert abs(rep.norm()) == abs(x.norm())


def test_canonical_associate_real():
    o = order_of(34)
    x = o.element(6, 1)  # norm 2
    eps, _ = order_fundamental_unit(o)
    for assoc in (x, -x, x * eps, -(x * eps * eps)):
        assert canonical_associate(assoc) == canonical_associate(x)


def test_canonical_associate_same_norm():
    # N(eps) = -1 in Z[sqrt(10)], so the full associate class of 10*eps mixes
    # norms -100 and +100; a norm search must slide by eps^2 instead
    o = order_of(10)
    eps, sign = order_fundamental_unit(o)
    assert sign == -1
    u = norm_plus_unit(o)
    assert u == eps * eps and u.norm() == 1
    x = o.element(30, 10)  # 10 * eps, norm -100
    assert canonical_associate(x) == o.element(10, 0)
    for assoc in (x, -x, x * u, -(x * u * u)):
        assert canonical_associate(assoc, same_norm=True) == x
    # norm-+1 unit orders: both notions coincide
    o34 = order_of(34)
    y = o34.element(5, 1)  # norm -9
    assert canonical_associate(y, same_norm=True) == canonical_associate(y)


# the per-kind arithmetic, kept as the oracle for w = (p + sqrt(D))/2


def _kind_mul(x, y):
    """x*y as (a, b) from w^2 = d*n^2 (sqrt kind) or w^2 = n*w + n^2*(d-1)/4."""
    d, n = x.order.d, x.order.n
    a, b, c, e = x.a, x.b, y.a, y.b
    if x.order.d % 4 == 1:
        t = n * n * (d - 1) // 4
        return a * c + t * b * e, a * e + b * c + n * b * e
    return a * c + d * n * n * b * e, a * e + b * c


def _kind_conj(x):
    if x.order.d % 4 == 1:
        return x.a + x.order.n * x.b, -x.b
    return x.a, -x.b


def _kind_norm(x):
    d, n, a, b = x.order.d, x.order.n, x.a, x.b
    if x.order.d % 4 == 1:
        return a * a + n * a * b + n * n * b * b * (1 - d) // 4
    return a * a - d * n * n * b * b


def _sign_raw(p, q, d):
    """Exact sign of p + q*sqrt(d), d > 0 nonsquare."""
    if p == 0 and q == 0:
        return 0
    if p >= 0 and q >= 0:
        return 1
    if p <= 0 and q <= 0:
        return -1
    return 1 if (p * p > q * q * d) == (p > 0) else -1


def _emb_coords(x):
    """(p, q) with 2*emb(x) = p + q*sqrt(d) under the real embedding."""
    n = x.order.n
    if x.order.d % 4 == 1:
        return 2 * x.a + x.b * n, x.b * n
    return 2 * x.a, 2 * x.b * n


def _emb_square_cmp(x, bound):
    """Compare emb(x)^2 with the integer bound: -1, 0 or +1, exactly."""
    p, q = _emb_coords(x.order.element(*_kind_mul(x, x)))
    return _sign_raw(p - 2 * bound, q, x.order.d)


def _slid_associate(x, same_norm):
    """The real canonical associate by sliding with the unit u until
    emb(x)^2 lies in [m, m*u^2), m = |N(x)|, using only the per-kind rules.
    """
    order = x.order
    u, sign = (norm_plus_unit(order), 1) if same_norm else order_fundamental_unit(order)
    a, b = _kind_conj(u)
    u_inv = order.element(sign * a, sign * b)
    if _sign_raw(*_emb_coords(x), order.d) < 0:
        x = -x
    m = abs(_kind_norm(x))
    while _emb_square_cmp(x, m) < 0:
        x = order.element(*_kind_mul(x, u))
    while _emb_square_cmp(y := order.element(*_kind_mul(x, u_inv)), m) >= 0:
        x = y
    return x


ARITH_ORDERS = [(d, n) for d in (-1, -2, -3, -5, -7, -15, 2, 3, 5, 6, 13, 21)
                for n in (1, 2, 3)]
ARITH_BOX = range(-12, 13)


@pytest.mark.parametrize("d,n", ARITH_ORDERS)
def test_arithmetic_matches_per_kind_formulas(d, n):
    order = order_of(d, n)
    ys = [order.element(c, e) for c in (-12, -5, 0, 7, 12) for e in (-12, -5, 0, 7, 12)]
    for a in ARITH_BOX:
        for b in ARITH_BOX:
            x = order.element(a, b)
            assert x.norm() == _kind_norm(x), x
            assert (x.conj().a, x.conj().b) == _kind_conj(x), x
            for y in ys:
                z = x * y
                assert (z.a, z.b) == _kind_mul(x, y), (x, y)


def test_addition_and_subtraction():
    order = order_of(-5)
    x, y = order.element(1, 2), order.element(3, -1)
    assert x + y == order.element(4, 1) and x - y == order.element(-2, 3)
    assert x + 3 == 3 + x == order.element(4, 2)
    assert x - 3 == order.element(-2, 2)
    with pytest.raises(ValueError, match="different orders"):
        x + order_of(-5, 2).element(1, 1)
    with pytest.raises(ValueError, match="different orders"):
        x - order_of(-1).element(1, 1)
    assert x.__add__(1.5) is NotImplemented and x.__sub__(1.5) is NotImplemented
    with pytest.raises(TypeError):
        x + 1.5


@pytest.mark.parametrize("d,n", [(d, n) for d, n in ARITH_ORDERS if d > 0])
@pytest.mark.parametrize("same_norm", [False, True])
def test_real_canonical_associate_matches_square_slide(d, n, same_norm):
    order = order_of(d, n)
    for a in ARITH_BOX:
        for b in ARITH_BOX:
            x = order.element(a, b)
            if not x.is_zero():
                assert canonical_associate(x, same_norm) == _slid_associate(x, same_norm), x


@pytest.mark.parametrize("d,n", [(d, n) for d, n in ARITH_ORDERS if d < 0])
@pytest.mark.parametrize("same_norm", [False, True])
def test_imaginary_canonical_associate_matches_orbit_minimum(d, n, same_norm):
    order = order_of(d, n)
    for a in ARITH_BOX:
        for b in ARITH_BOX:
            x = order.element(a, b)
            if x.is_zero():
                continue
            orbit = [_kind_mul(u, x) for u in units(order)]
            c, e = min(orbit, key=lambda y: (y[1] < 0, y[0] < 0, abs(y[1]), abs(y[0])))
            assert canonical_associate(x, same_norm) == order.element(c, e), x


def _imaginary_norm_oracle(order, m, box=80):
    hits = set()
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            x = order.element(a, b)
            if x.norm() == m:
                hits.add((a, b))
    return hits


@pytest.mark.parametrize("order", [order_of(-1), order_of(-3), order_of(-10),
                                   order_of(-3, 2), order_of(-1, 2)], ids=str)
def test_elements_of_norm_imaginary_against_double_loop(order):
    for m in list(range(1, 40)) + [49, 64, 81]:
        sols = elements_of_norm(order, m)
        assert sols.exact
        assert {(x.a, x.b) for x in sols} == _imaginary_norm_oracle(order, m)
        assert all(x.norm() == m for x in sols)
    assert elements_of_norm(order, -5) == []
    assert elements_of_norm(order, -5).exact  # negative norms provably absent


def test_elements_of_norm_real_needs_bound():
    with pytest.raises(NeedsBound):
        elements_of_norm(order_of(34), 2)


def test_elements_of_norm_real_witnesses():
    o = order_of(34)
    for m, coords in [(2, (6, 1)), (-9, (5, 1)), (-25, (3, 1)), (-18, (4, 1))]:
        bound = exact_real_search_bound(o, m)
        sols = elements_of_norm(o, m, bound)
        assert sols.exact
        assert any((x.a, x.b) == coords or x.norm() == m for x in sols)
        assert all(x.norm() == m for x in sols)
    # 3 is not a norm of Z[sqrt 34]: x^2 = 3 mod 17 has no solution
    sols = elements_of_norm(o, 3, exact_real_search_bound(o, 3))
    assert sols == [] and sols.exact


def _canonicalizing_scan(order, m, bound):
    """The real norm search by sliding: every solution with |b| <= bound,
    canonicalized to its same-norm associate, deduplicated and sorted.
    """
    d, n = order.d, order.n
    seen = {}
    half = order.d % 4 == 1
    for b in range(-bound, bound + 1):
        t2 = (4 * m if half else m) + d * n * n * b * b
        if not is_square(t2):
            continue
        for t in {isqrt(t2), -isqrt(t2)}:
            if half and (t - n * b) % 2:
                continue
            a = (t - n * b) // 2 if half else t
            c = canonical_associate(order.element(a, b), same_norm=True)
            seen.setdefault((c.a, c.b), c)
    return sorted(seen.values(), key=lambda x: (abs(x.a), abs(x.b), x.a < 0, x.b < 0))


# both kinds, n = 1, 2, 3; the (d, n) marked -1 have a unit of norm -1
REAL_TABLE_ORDERS = [
    (2, 1), (3, 1), (6, 1), (10, 1), (15, 1), (34, 1), (35, 1),     # 2, 10: -1
    (2, 2), (3, 2), (6, 2), (10, 2), (14, 2),
    (2, 3), (7, 3), (10, 3), (11, 3),
    (5, 1), (13, 1), (21, 1), (29, 1), (53, 1),                     # 5, 13, 29, 53: -1
    (5, 2), (17, 2), (33, 2),                                       # 5, 17: -1
    (5, 3), (13, 3), (21, 3),
]


@pytest.mark.parametrize("d,n", REAL_TABLE_ORDERS)
def test_real_norm_table_matches_canonicalizing_scan(d, n):
    order = order_of(d, n)
    table = norm_table(order, -100, 100)
    assert all(2 <= abs(m) <= 100 for m in table)
    for m in (s * k for k in range(2, 101) for s in (1, -1)):
        exact_b = exact_real_search_bound(order, m)
        oracle = _canonicalizing_scan(order, m, exact_b)
        sols = elements_of_norm(order, m, exact_b)
        assert sols.exact and sols == oracle, m
        assert table.get(m) == (oracle[0] if oracle else None), m


def test_real_table_orders_cover_kinds_and_unit_signs():
    seen = {(d % 4 == 1, n, order_fundamental_unit(order_of(d, n))[1])
            for d, n in REAL_TABLE_ORDERS}
    assert {(k, n) for k, n, _ in seen} == {(k, n) for k in (True, False)
                                            for n in (1, 2, 3)}
    assert {s for _, _, s in seen} == {1, -1}


# both kinds, n = 1, 2, 3; Z[i] and Z[(1+sqrt(-3))/2] carry the extra units
IMAG_TABLE_ORDERS = [(d, n) for d in (-1, -2, -3, -5, -23) for n in (1, 2, 3)]


@pytest.mark.parametrize("d,n", IMAG_TABLE_ORDERS)
def test_imag_norm_table_matches_exact_search(d, n):
    order = order_of(d, n)
    table = norm_table(order, -200, 200)
    assert all(2 <= m <= 200 for m in table)
    for m in range(2, 201):
        sols = elements_of_norm(order, m)
        assert table.get(m) == (canonical_associate(sols[0]) if sols else None), m


def test_imag_table_orders_cover_extra_units():
    assert {len(units(order_of(d, n))) for d, n in IMAG_TABLE_ORDERS} == {2, 4, 6}


# The three norm-search loops that one norm scan replaced, kept as oracles.


def _norm_solutions(order, m, bmax):
    """Every element a + b*w of norm m with |b| <= bmax, unreduced: the roots
    t = 2a + p*b of t^2 = 4m + D*b^2, both signs of t.
    """
    D, p = order.discriminant, order.p
    out = []
    for b in range(-bmax, bmax + 1):
        t2 = 4 * m + D * b * b
        if is_square(t2):
            t = isqrt(t2)
            for tt in {t, -t}:
                out.append(QuadElem(order, (tt - p * b) // 2, b))
    return out


def _real_domain_scan(order, lo, hi, b_max):
    """(N(x), x) for every x with lo <= N(x) <= hi and 0 <= b <= b_max in the
    fundamental domain of canonical_associate(., same_norm=True).
    """
    D, p = order.discriminant, order.p
    u = norm_plus_unit(order)
    P, Q = 2 * u.a + p * u.b, u.b
    lo4, hi4 = 4 * lo, 4 * hi
    for b in range(b_max + 1):
        base = D * b * b
        low = base + lo4
        t = isqrt(low - 1) + 1 if low > 0 else 0
        t += (t - p * b) & 1
        top = base + hi4
        while t * t <= top:
            if t * P < D * b * Q or b * P < t * Q:
                yield (t * t - base) // 4, QuadElem(order, (t - p * b) // 2, b)
            t += 2


def _ellipse_scan(order, bound):
    """(N(x), x) for every x of the imaginary order with N(x) <= bound."""
    nD, p = -order.discriminant, order.p
    hi4 = 4 * bound
    b_max = isqrt(hi4 // nD)
    for b in range(-b_max, b_max + 1):
        base = nD * b * b
        t_max = isqrt(hi4 - base)
        for t in range(-t_max + ((t_max + p * b) & 1), t_max + 1, 2):
            yield (t * t + base) // 4, QuadElem(order, (t - p * b) // 2, b)


def _least_by_norm(scan):
    table = {}
    for m, x in scan:
        if abs(m) >= 2 and (m not in table or _sol_key(x) < _sol_key(table[m])):
            table[m] = x
    return table


@pytest.mark.parametrize("d,n", REAL_TABLE_ORDERS)
def test_real_norm_scan_matches_loop_oracles(d, n):
    order = order_of(d, n)
    B = 100
    oracle = _least_by_norm(_real_domain_scan(order, -B, B, exact_real_search_bound(order, B)))
    assert norm_table(order, -B, B) == oracle
    for m in (s * k for k in range(1, B + 1) for s in (1, -1)):
        exact_b = exact_real_search_bound(order, m)
        assert norm_table(order, m, m) == ({m: oracle[m]} if m in oracle else {}), m
        sols = elements_of_norm(order, m, exact_b)
        assert sols.exact and sols == sorted(
            (x for _, x in _real_domain_scan(order, m, m, exact_b)), key=_sol_key), m
        short = elements_of_norm(order, m, exact_b // 3)
        assert not short.exact and short == sorted(dict.fromkeys(
            canonical_associate(x, same_norm=True)
            for x in _norm_solutions(order, m, exact_b // 3)), key=_sol_key), m


@pytest.mark.parametrize("d,n", IMAG_TABLE_ORDERS)
def test_imag_norm_scan_matches_loop_oracles(d, n):
    order = order_of(d, n)
    B = 200
    oracle = {m: canonical_associate(x) for m, x in _least_by_norm(_ellipse_scan(order, B)).items()}
    assert norm_table(order, -B, B) == oracle
    for m in range(-3, B + 1):
        if m == 0:
            continue
        assert norm_table(order, m, m) == ({m: oracle[m]} if m in oracle else {}), m
        bmax = isqrt(4 * m // -order.discriminant) if m > 0 else -1
        sols = elements_of_norm(order, m)
        assert sols.exact and sols == sorted(_norm_solutions(order, m, bmax), key=_sol_key), m


# The primitive-representation solver against the scan it replaces for
# single exact searches, on squarefree 2 <= d < 60, n <= 3: every
# 1 <= |m| <= 60 and 20 random 2 <= |m| <= 3000 per order. The scan runs only
# where it walks at most SOLVER_SCAN_CAP b-values, which keeps the test near
# a second; every list is checked for norm and domain.
SOLVER_SCAN_CAP = 2000


def test_norm_solver_matches_domain_scan():
    rng = random.Random(32)
    scanned = 0
    for d in range(2, 60):
        if not is_squarefree(d):
            continue
        for n in (1, 2, 3):
            order = order_of(d, n)
            p = order.p
            for m in ([s * k for k in range(1, 61) for s in (1, -1)]
                      + [rng.choice((1, -1)) * rng.randint(2, 3000) for _ in range(20)]):
                sols = _norm_solve(order, m)
                for a, b in sols:
                    x = QuadElem(order, a, b)
                    assert x.norm() == m and canonical_associate(x, same_norm=True) == x
                exact_b = exact_real_search_bound(order, m)
                if exact_b > SOLVER_SCAN_CAP:
                    continue
                scan = [((t - p * b) // 2, b) for _, t, b in _domain_roots(order, m, m, exact_b)]
                assert sols == sorted(scan, key=_sol_key), (d, n, m)
                scanned += 1
    assert scanned > 11000


def test_short_bound_search_keeps_canonicalizing_scan():
    o = order_of(10)
    for m in (-100, 6, -6, 15):
        exact_b = exact_real_search_bound(o, m)
        for sb in (1, 3, exact_b // 2):
            sols = elements_of_norm(o, m, sb)
            assert not sols.exact and sols == _canonicalizing_scan(o, m, sb)


def test_exact_real_bound_is_saturating():
    # growing the bound past the exact one adds no associate classes
    o = order_of(34)
    for m in (2, -9, 30, -25):
        b0 = exact_real_search_bound(o, m)
        small = {(x.a, x.b) for x in elements_of_norm(o, m, b0)}
        large = {(x.a, x.b) for x in elements_of_norm(o, m, b0 + 25)}
        assert small == large


def test_elements_of_norm_negative_unit_orders():
    # the smallest norm -100 element of Z[sqrt(10)] is 10*eps = 30+10*w, well
    # above the naive coordinate range of a norm +-100 solution
    o = order_of(10)
    sols = elements_of_norm(o, -100, exact_real_search_bound(o, -100))
    assert sols.exact
    assert [(x.a, x.b) for x in sols] == [(30, 10)]
    o2 = order_of(2)
    for m in (-2, 7, -7, 14):
        sols = elements_of_norm(o2, m, exact_real_search_bound(o2, m))
        assert sols.exact and sols
        assert all(x.norm() == m for x in sols)
    # saturation across both norm-(-1)-unit orders
    for o_, m in ((o, -100), (o2, -7)):
        b0 = exact_real_search_bound(o_, m)
        small = {(x.a, x.b) for x in elements_of_norm(o_, m, b0)}
        large = {(x.a, x.b) for x in elements_of_norm(o_, m, b0 + 40)}
        assert small == large


def test_is_irreducible_gaussian():
    o = order_of(-1)
    assert is_irreducible(o.element(1, 1))
    assert is_irreducible(o.element(3, 0))
    assert is_irreducible(o.element(2, 1))
    assert not is_irreducible(o.element(2, 0))
    assert not is_irreducible(o.element(5, 0))
    with pytest.raises(ValueError):
        is_irreducible(o.element(1, 0))
    with pytest.raises(ValueError):
        is_irreducible(order_of(2).element(2, 0))


def _quotient_by_conj(x, y):
    """x / y by QuadElem arithmetic: x * conj(y) over N(y), or None when that
    leaves the order.
    """
    num, nm = x * y.conj(), y.norm()
    if num.a % nm or num.b % nm:
        return None
    return x.order.element(num.a // nm, num.b // nm)


def _irreducible_by_norm_loop(x):
    """Irreducibility by its own divisor loop: no element of any norm k | N(x),
    2 <= k <= N(x)/2, divides x exactly.
    """
    nm = x.norm()
    return not any(_quotient_by_conj(x, y) is not None
                   for k in divisors(nm) if 2 <= k <= nm // 2
                   for y in elements_of_norm(x.order, k))


def test_is_irreducible_matches_norm_loop():
    # every nonzero nonunit a + b*w, |a| <= 8, |b| <= 5, of the imaginary
    # orders of squarefree -40 < d < 0, n = 1..3
    for d in range(-39, 0):
        if not is_squarefree(d):
            continue
        for n in (1, 2, 3):
            order = order_of(d, n)
            for a in range(-8, 9):
                for b in range(-5, 6):
                    x = order.element(a, b)
                    if x.is_zero() or x.is_unit():
                        continue
                    assert is_irreducible(x) == _irreducible_by_norm_loop(x), (d, n, a, b)


def test_factor_element_gaussian_unique():
    o = order_of(-1)
    facts = factor_element(o, o.element(10, 0))
    assert len(facts) == 1
    assert facts[0].length == 4
    prod = o.one()
    for atom in facts[0]:
        prod = prod * atom
    assert canonical_associate(prod) == canonical_associate(o.element(10, 0))


def test_factor_element_two_lengths():
    o = order_of(-14)
    lengths = {f.length for f in factor_element(o, o.element(18, 0))}
    assert lengths == {2, 3}
    lengths81 = {f.length for f in factor_element(o, o.element(81, 0))}
    assert lengths81 == {2, 4}


def test_divide_exact():
    o = order_of(-1)
    x, y = o.element(10, 0), o.element(1, 1)
    q = divide_exact(x, y)
    assert q is not None and q * y == x
    assert divide_exact(o.element(3, 0), y) is None
    with pytest.raises(ValueError):
        divide_exact(x, order_of(-1, 2).element(1, 1))


def test_parse_element_round_trip():
    o = order_of(-14)
    for text, coords in [("3+2w", (3, 2)), ("-w", (0, -1)), ("7", (7, 0)),
                         ("2 - 3*w", (2, -3)), ("w+1", (1, 1))]:
        x = parse_element(o, text)
        assert (x.a, x.b) == coords
    with pytest.raises(ValueError):
        parse_element(o, "")
    with pytest.raises(ValueError):
        parse_element(o, "3+2q")


def test_element_window_includes_integers_by_magnitude():
    # rational integers are windowed by |m|, other elements by |norm|
    view = element_monoid_view(order_of(-14))
    window = list(view.elements_up_to(20))
    assert any(x.b == 0 and x.a == 4 for x in window)      # N(4) = 16 > 20
    assert any(abs(x.norm()) == 15 and x.b != 0 for x in window)
    assert all(abs(x.a) <= 20 if x.b == 0 else abs(x.norm()) <= 20
               for x in window)


def _canonical_key(x):
    """The element view's key: norm, then signs, then sizes."""
    return (abs(x.norm()), x.b < 0, x.a < 0, abs(x.b), abs(x.a))


def _window_size(x):
    """Window magnitude: rational integers count by |m|, everything else by |N|."""
    if x.b == 0:
        return abs(x.a)
    return abs(x.norm())


def _scanned_window(order, bound):
    """The element window by a full (a, b) scan: every canonical element of
    norm 2..bound and every rational integer 2..bound, sorted by window size
    and then by canonical key.
    """
    found = {}
    d, n = order.d, order.n
    dd = -d
    if order.d % 4 == 1:
        bmax = isqrt(4 * bound // (dd * n * n)) + 1
        reach = lambda b: isqrt(bound) + n * b + 2
    else:
        bmax = isqrt(bound // (dd * n * n)) + 1
        reach = lambda b: isqrt(bound) + 1
    for b in range(0, bmax + 1):
        for a in range(-reach(b), reach(b) + 1):
            x = order.element(a, b)
            if 2 <= x.norm() <= bound:
                c = canonical_associate(x)
                found.setdefault((c.a, c.b), c)
    for m in range(2, bound + 1):
        c = canonical_associate(order.element(m, 0))
        found.setdefault((c.a, c.b), c)
    return sorted(found.values(), key=lambda x: (_window_size(x), _canonical_key(x)))


@pytest.mark.parametrize("d,n", [(-1, 1), (-3, 1), (-5, 1), (-14, 1), (-23, 1),
                                 (-1, 2), (-3, 2), (-3, 3), (-7, 2), (-11, 3)])
def test_streamed_window_matches_full_scan(d, n):
    order = order_of(d, n)
    assert list(element_monoid_view(order).elements_up_to(300)) == _scanned_window(order, 300)


def test_streamed_window_is_lazy():
    view = element_monoid_view(order_of(-5))
    first = next(iter(view.elements_up_to(10**9)))
    assert (first.a, first.b) == (2, 0)


# the integer element kernel against the QuadElem arithmetic


KERNEL_ORDERS = [(-1, 1), (-3, 1), (-3, 2), (-5, 1), (-14, 1), (-7, 2)]
KERNEL_BOX = range(-12, 13)


def _orbit_min(x):
    """The canonical associate by QuadElem products: the least of the unit
    orbit under (b<0, a<0, |b|, |a|).
    """
    return min((u * x for u in units(x.order)),
               key=lambda y: (y.b < 0, y.a < 0, abs(y.b), abs(y.a)))


@pytest.mark.parametrize("d,n", KERNEL_ORDERS)
def test_kernel_agrees_with_element_arithmetic(d, n):
    # unit groups of order 4 (d = -1), 6 (d = -3) and 2 (the rest)
    order = order_of(d, n)
    kernel = _element_kernel(order)
    assert len(units(order)) == {(-1, 1): 4, (-3, 1): 6}.get((d, n), 2)
    grid = [order.element(a, b) for a in KERNEL_BOX for b in KERNEL_BOX]
    grid = [x for x in grid if not x.is_zero()]
    small = [y for y in grid if abs(y.a) <= 2 and abs(y.b) <= 2]
    for x in grid:
        c = tuple(_orbit_min(x))
        assert kernel.op((x.a, x.b), (1, 0)) == c == tuple(canonical_associate(x)), x
        for y in small:
            assert kernel.op((x.a, x.b), (y.a, y.b)) == tuple(_orbit_min(x * y)), (x, y)
            q = _quotient_by_conj(x, y)
            assert divide_exact(x, y) == q, (x, y)
            want = None if q is None else tuple(_orbit_min(q))
            assert kernel.divide((y.a, y.b), (x.a, x.b)) == want, (x, y)
            assert kernel.divide((y.a, y.b), tuple(x * y)) == c, (x, y)
        if not x.is_unit():
            none = next(iter(kernel.proper_divisors(c)), None) is None
            assert none == _irreducible_by_norm_loop(x), x


@pytest.mark.parametrize("d,n", [(-1, 1), (-3, 1), (-5, 1), (-14, 1), (-23, 1),
                                 (-1, 2), (-3, 2), (-3, 3), (-7, 2), (-11, 3)])
def test_kernel_window_is_the_element_window(d, n):
    order = order_of(d, n)
    window = [QuadElem(order, a, b) for a, b in _element_kernel(order).elements_up_to(300)]
    assert window == list(element_monoid_view(order).elements_up_to(300))


def test_factor_element_returns_elements_of_the_order():
    for d, n, a, b in ((-14, 1, 18, 0), (-5, 1, 6, 0), (-3, 2, 8, 2), (-1, 2, 8, 0)):
        order = order_of(d, n)
        facts = factor_element(order, order.element(a, b))
        assert facts
        for f in facts:
            assert all(type(x) is QuadElem and x.order == order for x in f), f
    with pytest.raises(ValueError, match="different orders"):
        factor_element(order_of(-5), order_of(-14).element(18, 0))


@pytest.mark.parametrize("d,n", KERNEL_ORDERS)
def test_kernel_lists_each_divisor_pair_once(d, n):
    # the window holds the integers s, whose norm s^2 is a square (k^2 = N);
    # the brute force solves every norm 2 <= k <= N/2 and divides by QuadElem
    # arithmetic, so each pair shows up from both of its sides
    order = order_of(d, n)
    kernel = _element_kernel(order)
    sols = {}
    for a, b in kernel.elements_up_to(150):
        x = order.element(a, b)
        nm = x.norm()
        want = set()
        for k in range(2, nm // 2 + 1):
            if nm % k:
                continue
            if k not in sols:
                sols[k] = elements_of_norm(order, k)
            for y in sols[k]:
                q = _quotient_by_conj(x, y)
                if q is not None:
                    want.add((tuple(_orbit_min(y)), tuple(_orbit_min(q))))
        got = list(kernel.proper_divisors((a, b)))
        assert len(got) == len(set(got)), (x, got)
        assert set(got) == want, x


@pytest.mark.parametrize("d,n", KERNEL_ORDERS)
@settings(max_examples=100, deadline=None)
@given(a=st.integers(-40, 40), b=st.integers(-40, 40))
def test_kernel_pairs_match_brute_force_division(d, n, a, b):
    # norms up to ~2e4, far past the window of the test above; the kernel
    # divides inline by the divisor's norm, the brute force by QuadElem
    # arithmetic over every norm 2 <= k <= N/2
    order = order_of(d, n)
    x = order.element(a, b)
    if x.is_zero() or x.is_unit():
        return
    nm = x.norm()
    want = {(tuple(_orbit_min(y)), tuple(_orbit_min(q)))
            for k in range(2, nm // 2 + 1) if nm % k == 0
            for y in elements_of_norm(order, k)
            for q in [_quotient_by_conj(x, y)] if q is not None}
    got = list(_element_kernel(order).proper_divisors(tuple(_orbit_min(x))))
    assert len(got) == len(set(got)), (x, got)
    assert set(got) == want, x
