"""Normset membership, enumeration, factorization, and the UFD criterion.

Membership fixtures carry re-verifiable witnesses (the witness norm is
checked against the query). The two backends are run side by side on sweeps
where both are exact; the class-number table provides an independent route
to every is_ufd verdict.
"""

import time

import pytest

from normset_lab import (
    NeedsBound,
    NormsetHandle,
    NotMember,
    class_number,
    factor_in_normset,
    irreducibles_up_to,
    is_saturated,
    is_strictly_saturated_window,
    is_ufd,
    norm_group_window,
    normset_monoid_view,
    normset_of,
    order_of,
    strong_saturation_check,
)
from normset_lab.normsets import Verdict
from normset_lab.quadratic import exact_real_search_bound


def _sorted_sets(facs):
    return {tuple(sorted(f)) for f in facs}


# ---------------------------------------------------------------------------
# membership


def test_membership_imaginary_fixtures():
    zi = normset_of(order_of(-1))
    for m in (2, 4, 5, 9, 13, 25):
        v = zi.contains(m)
        assert v.answer == "yes"
        assert v.witness.norm() == m
    for m in (3, 7, 11, -2, -5):
        assert zi.contains(m).answer == "no"

    z10 = normset_of(order_of(-10))
    for m in (4, 9, 10, 14, 25, 49):
        v = z10.contains(m)
        assert v
        assert v.witness.norm() == m
    for m in (2, 3, 5, 7):
        assert not z10.contains(m)


def test_membership_real_signed():
    ns = normset_of(order_of(34))
    for m in (2, 4, 9, -9, -18, -25):
        v = ns.contains(m)
        assert v.answer == "yes", m
        assert v.witness.norm() == m
    for m in (3, -3, -2, 5, -5, 10, -10):
        assert ns.contains(m).answer == "no", m


def test_minus_one_tracks_unit_norm():
    # eps(2) = 1 + sqrt(2) has norm -1; eps(34) = 35 + 6 sqrt(34) has norm +1
    assert normset_of(order_of(2)).contains(-1).answer == "yes"
    assert normset_of(order_of(34)).contains(-1).answer == "no"
    assert normset_of(order_of(-1)).contains(-1).answer == "no"
    v = normset_of(order_of(2)).contains(-1)
    assert v.witness.norm() == -1


def test_contains_rejects_zero_and_caches():
    ns = normset_of(order_of(-1))
    with pytest.raises(ValueError):
        ns.contains(0)
    assert ns.contains(5) is ns.contains(5)  # verdict memo


def test_policy_both_agrees_with_auto():
    for d in (-10, 34):
        auto = normset_of(order_of(d))
        both = NormsetHandle(order_of(d), policy="both")
        rng = range(2, 61) if d < 0 else [s * k for k in range(2, 61)
                                          for s in (1, -1)]
        for m in rng:
            va, vb = auto.contains(m), both.contains(m)
            assert va.answer == vb.answer, (d, m)
            assert vb.backend == "both"


def test_bounded_search_answers_unknown():
    ns = NormsetHandle(order_of(34), policy="form_search")
    v = ns.contains(3, bound=1)
    assert v.answer == "unknown"
    assert v.bound_used == 1
    # without a bound the search is exact and refuses nothing this small
    assert ns.contains(3).answer == "no"


def test_huge_norm_needs_explicit_bound():
    order = order_of(34)
    m = 10
    while exact_real_search_bound(order, m) <= 10**7:
        m *= 10
    ns = NormsetHandle(order, policy="form_search")
    with pytest.raises(NeedsBound):
        ns.contains(m)


def test_ideal_witness_follows_the_bound_rule():
    # Z[(1+sqrt 97)/2]: 2 is a norm, but the exact search for it needs
    # |b| <= 18,176,283, above the ceiling; it used to scan all of that
    start = time.perf_counter()
    ns = normset_of(order_of(97))
    with pytest.raises(NeedsBound, match="18176283"):
        ns.contains(2)
    # a short explicit bound searches that far and either finds a witness...
    v = ns.contains(2, bound=7)
    assert v.answer == "yes" and v.witness.norm() == 2
    # ...or refuses, naming the exact bound, since a "yes" needs its witness
    with pytest.raises(NeedsBound, match="18176283"):
        ns.contains(2, bound=6)
    with pytest.raises(NeedsBound, match="229686267"):
        normset_of(order_of(166)).contains(3)
    assert time.perf_counter() - start < 1


def test_ideal_witness_at_or_above_exact_bound_is_unchanged():
    order = order_of(34)
    for m in (2, -9, -18, 30, -25, 3):
        exact_b = exact_real_search_bound(order, m)
        plain = normset_of(order).contains(m)
        for bound in (exact_b, exact_b + 100):
            assert normset_of(order).contains(m, bound) == Verdict(
                plain.answer, plain.witness, None, "ideal_theoretic", m)


@pytest.mark.parametrize("policy,orders", [
    ("auto", [(2, 1), (5, 1), (10, 1), (13, 1), (34, 1), (155, 1)]),
    ("form_search", [(2, 1), (10, 1), (13, 1), (2, 2), (3, 2), (5, 2), (5, 3)]),
    ("both", [(2, 1), (5, 1), (10, 1), (34, 1)]),
])
def test_norm_table_verdicts_equal_fresh_handle(policy, orders):
    for d, n in orders:
        order = order_of(d, n)
        ns = NormsetHandle(order, policy=policy)
        ns.members_up_to(120)
        assert ns._norms_bound == 120
        for m in (7, -7, 2, -119, 120):
            exact_b = exact_real_search_bound(order, m)
            for bound in (1, exact_b, exact_b + 3):
                try:
                    ns.contains(m, bound)
                except NeedsBound:
                    pass
        assert ns._verdicts
        for (m, bound), v in ns._verdicts.items():
            assert NormsetHandle(order, policy=policy).contains(m, bound) == v, (d, n, m, bound)


def test_verdict_record_shape():
    v = normset_of(order_of(34)).contains(-9)
    rec = v.to_record()
    assert set(rec) == {"query", "answer", "witness", "bound_used", "backend"}
    assert rec["answer"] == "yes"
    assert isinstance(rec["witness"], str)


# ---------------------------------------------------------------------------
# enumeration


def test_members_up_to_gaussian():
    ns = normset_of(order_of(-1))
    assert ns.members_up_to(20) == [2, 4, 5, 8, 9, 10, 13, 16, 17, 18, 20]


def test_members_up_to_real_signed_order():
    ns = normset_of(order_of(34))
    assert ns.members_up_to(10) == [2, 4, 8, 9, -9]


def test_irreducibles_gaussian_50():
    ns = normset_of(order_of(-1))
    assert irreducibles_up_to(ns, 50) == [2, 5, 9, 13, 17, 29, 37, 41, 49]


def test_irreducibles_real():
    ns = normset_of(order_of(34))
    assert irreducibles_up_to(ns, 10) == [2, 9, -9]
    with pytest.raises(ValueError):
        irreducibles_up_to(ns, 1)


def test_irreducibles_never_split():
    for d in (-10, -41):
        ns = normset_of(order_of(d))
        members = set(ns.members_up_to(100))
        for a in irreducibles_up_to(ns, 100):
            assert a in members
            splits = [(u, a // u) for u in range(2, abs(a) // 2 + 1)
                      if a % u == 0 and u in members and a // u in members]
            assert not splits, (d, a, splits)


# ---------------------------------------------------------------------------
# factorization inside the normset


def test_factor_fixtures_d_minus_10():
    ns = normset_of(order_of(-10))
    assert _sorted_sets(factor_in_normset(ns, 100)) == {(4, 25), (10, 10)}


def test_factor_fixtures_d_minus_41():
    ns = normset_of(order_of(-41))
    facs = factor_in_normset(ns, 2025)
    assert _sorted_sets(facs) == {(45, 45), (9, 9, 25)}
    assert {f.length for f in facs} == {2, 3}


def test_factor_unique_in_gaussian():
    ns = normset_of(order_of(-1))
    facs = factor_in_normset(ns, 100)
    assert _sorted_sets(facs) == {(2, 2, 5, 5)}


def test_factor_rejects_non_member():
    ns = normset_of(order_of(-10))
    with pytest.raises(NotMember):
        factor_in_normset(ns, 3)


def test_factor_real_signed():
    ns = normset_of(order_of(34))
    facs = factor_in_normset(ns, 81)
    # 81 = 9 * 9 = (-9) * (-9); both routes use atoms
    assert _sorted_sets(facs) == {(9, 9), (-9, -9)}


def test_monoid_view_division():
    view = normset_monoid_view(normset_of(order_of(34)))
    assert view.op(2, -9) == -18
    assert view.divide(-9, -18) == 2
    assert view.divide(9, -18) is None  # -2 is not a member
    assert view.divide(2, -18) == -9
    view2 = normset_monoid_view(normset_of(order_of(2)))
    # norm -1 unit folds signs together
    assert view2.op(-2, 7) == 14
    assert view2.divide(2, 14) == 7


# ---------------------------------------------------------------------------
# UFD criterion


def test_is_ufd_gaussian():
    cert = is_ufd(order_of(-1))
    assert cert.value and bool(cert)
    assert cert.criterion_primes == ()  # Minkowski bound below 2


def test_is_ufd_d_minus_10():
    cert = is_ufd(order_of(-10))
    assert not cert.value
    assert cert.criterion_primes == (2,)
    row = cert.rows[0]
    assert (row.p, row.f_p, row.target, row.member) == (2, 1, 2, False)


def test_is_ufd_d_34():
    cert = is_ufd(order_of(34))
    assert not cert.value
    assert cert.criterion_primes == (2, 3, 5)
    by_p = {r.p: r for r in cert.rows}
    assert by_p[2].member and by_p[2].witness.norm() in (2, -2)
    assert not by_p[3].member
    assert not by_p[5].member


def test_is_ufd_matches_class_number():
    # wholly independent route: h(D) = 1 iff the criterion passes
    for d in (-1, -2, -3, -5, -6, -7, -10, -11, -13, -14, -15, -19, -41, -43):
        order = order_of(d)
        expect = class_number(order.discriminant) == 1
        assert is_ufd(order).value == expect, d


def test_is_ufd_rejects_non_maximal():
    with pytest.raises(ValueError):
        is_ufd(order_of(-1, 2))


# ---------------------------------------------------------------------------
# saturation


def test_is_saturated_exact():
    assert is_saturated(order_of(-1))
    assert is_saturated(order_of(-5))    # Z_2
    assert is_saturated(order_of(-10))   # Z_2
    assert is_saturated(order_of(34))    # wide group Z_2
    assert not is_saturated(order_of(-14))  # Z_4
    assert not is_saturated(order_of(-41))  # Z_8
    with pytest.raises(ValueError):
        is_saturated(order_of(-1, 2))


def test_strict_saturation_window_d34():
    v = is_strictly_saturated_window(order_of(34), 100)
    assert v.answer == "no"
    assert v.witness == (9, -9, -1)
    assert v.bound_used == 100


def test_strict_saturation_window_gaussian():
    # quotients of sums of two squares stay sums of two squares
    v = is_strictly_saturated_window(order_of(-1), 60)
    assert v.answer == "yes"
    assert v.witness is None
    with pytest.raises(ValueError):
        is_strictly_saturated_window(order_of(-1), 3)


def test_strong_saturation_imaginary_exact():
    order = order_of(-5)
    two = order.element(2, 0)
    beta = order.element(2, 2)  # norm 24
    v = strong_saturation_check(order, two, beta)
    assert v.answer == "yes"
    assert v.witness.norm() == 4
    gamma = v.witness
    from normset_lab.quadratic import divide_exact
    assert divide_exact(beta, gamma) is not None
    # norm 4 does not divide norm 6: exact refusal
    v2 = strong_saturation_check(order, two, order.element(1, 1))
    assert v2.answer == "no"


def test_strong_saturation_real_unknown():
    order = order_of(34)
    three = order.element(3, 0)          # norm 9
    beta = order.element(5, 1)           # norm -9
    v = strong_saturation_check(order, three, beta)
    # no divisor of 5+w has norm +9 (that would need a norm -1 unit);
    # the bounded search cannot certify absence, so it reports unknown
    assert v.answer == "unknown"
    assert v.bound_used is not None
    with pytest.raises(ValueError):
        strong_saturation_check(order, order.element(0, 0), beta)


# ---------------------------------------------------------------------------
# norm group window


NGW_FIXTURES = {
    -5: (1, 2),
    -10: (1, 2),
    -14: (2, 2),
    -41: (4, 2),
}


def test_norm_group_window_fixtures():
    for d, (hsz, gsz) in NGW_FIXTURES.items():
        H, G, classes = norm_group_window(order_of(d), 100)
        assert (H, G) == (hsz, gsz), d
        assert len(classes) == H
        assert H * G == class_number(order_of(d).discriminant)


def test_norm_group_window_d41_classes():
    H, G, classes = norm_group_window(order_of(-41), 100)
    assert classes == (0, 1, 4, 5)


def test_norm_group_window_monotone_in_bound():
    for d in (-5, -10, -14, -41):
        h1, _, c1 = norm_group_window(order_of(d), 100)
        h2, _, c2 = norm_group_window(order_of(d), 200)
        assert set(c1) <= set(c2)
        assert h1 <= h2


def test_norm_group_window_rejects_real():
    with pytest.raises(ValueError):
        norm_group_window(order_of(34), 100)
