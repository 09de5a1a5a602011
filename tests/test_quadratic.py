import pytest
from hypothesis import given, settings, strategies as st

from math import isqrt

from normset_lab.arith import is_square, is_squarefree
from normset_lab.errors import BadDiscriminant, NeedsBound
from normset_lab.quadratic import (HALF_KIND, _canonical_key, _window_size,
                                   canonical_associate, divide_exact,
                                   element_monoid_view, elements_of_norm,
                                   exact_real_search_bound, factor_element,
                                   fundamental_unit, is_irreducible,
                                   norm_plus_unit, order_fundamental_unit,
                                   order_of, parse_element, real_norm_table,
                                   units)

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
    """The least t^2 - d*u^2 = +-4 with 0 < u <= cap by a linear scan over u,
    as (a, b, sign) of (t + u*sqrt(d))/2 = a + b*w; None when u exceeds cap.
    """
    for u in range(1, cap + 1):
        for target in (-4, 4):
            t2 = d * u * u + target
            if is_square(t2):
                return (isqrt(t2) - u) // 2, u, target // 4
    return None


def test_fundamental_unit_matches_scan_for_half_kind():
    # the linear scan is the oracle wherever it ends below the cap; above it
    # the scan still proves no smaller solution exists
    cap = 20000
    for d in range(5, 600, 4):
        if not is_squarefree(d):
            continue
        eps, sign = fundamental_unit(d)
        t, u = 2 * eps.a + eps.b, eps.b
        assert t > 0 and u > 0 and t * t - d * u * u == 4 * sign, d
        assert eps.norm() == sign
        scanned = _scanned_unit(d, cap)
        if scanned is None:
            assert u > cap, d
        else:
            assert (eps.a, eps.b, sign) == scanned, d


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
    half = order.xi_kind == HALF_KIND
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
    table = real_norm_table(order, 100)
    assert all(2 <= abs(m) <= 100 for m in table)
    for m in (s * k for k in range(2, 101) for s in (1, -1)):
        exact_b = exact_real_search_bound(order, m)
        oracle = _canonicalizing_scan(order, m, exact_b)
        sols = elements_of_norm(order, m, exact_b)
        assert sols.exact and sols == oracle, m
        assert table.get(m) == (oracle[0] if oracle else None), m


def test_real_table_orders_cover_kinds_and_unit_signs():
    seen = {(order_of(d, n).xi_kind, n, order_fundamental_unit(order_of(d, n))[1])
            for d, n in REAL_TABLE_ORDERS}
    assert {(k, n) for k, n, _ in seen} == {(k, n) for k in (HALF_KIND, "sqrt_d")
                                            for n in (1, 2, 3)}
    assert {s for _, _, s in seen} == {1, -1}


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


def _scanned_window(order, bound):
    """The element window by a full (a, b) scan: every canonical element of
    norm 2..bound and every rational integer 2..bound, sorted by window size
    and then by canonical key.
    """
    found = {}
    d, n = order.d, order.n
    dd = -d
    if order.xi_kind == HALF_KIND:
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
