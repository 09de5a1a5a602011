"""Normset membership, enumeration, factorization, and the UFD criterion.

Membership fixtures carry re-verifiable witnesses (the witness norm is
checked against the query). The two backends are run side by side on sweeps
where both are exact; the class-number table provides an independent route
to every is_ufd verdict.
"""

import json
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
import normset_lab.normsets as normsets
import normset_lab.quadratic as quadratic
from normset_lab.arith import divisors, is_squarefree
from normset_lab.cli import main
from normset_lab.normsets import _REAL_SEARCH_CEILING, Verdict
from normset_lab.quadratic import exact_real_search_bound, order_fundamental_unit


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


def test_ideal_backend_on_imaginary_orders_rejects_negative_norms(monkeypatch):
    # a negative m never reaches the class calculus on an imaginary order
    def no_options(cg, q):
        raise AssertionError(f"ideal_class_options({q}) called for a negative norm")

    monkeypatch.setattr("normset_lab.normsets.ideal_class_options", no_options)
    for d in (-1, -5, -14, -41):
        form = NormsetHandle(order_of(d), policy="form_search")
        ideal = NormsetHandle(order_of(d), policy="ideal_theoretic")
        both = NormsetHandle(order_of(d), policy="both")
        for m in range(-60, -1):
            assert form.contains(m).answer == "no", (d, m)
            assert ideal.contains(m).answer == "no", (d, m)
            assert both.contains(m).answer == "no", (d, m)


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
    # an explicit bound above the ceiling follows the same rule: the exact
    # search for 40 in Z[(1+sqrt 97)/2] needs |b| <= 81,286,805
    start = time.perf_counter()
    order = order_of(97)
    assert exact_real_search_bound(order, 40) == 81286805
    for bound in (10**9, _REAL_SEARCH_CEILING + 1):
        with pytest.raises(NeedsBound, match="81286805"):
            normset_of(order, "form_search").contains(40, bound)
    # the ideal backend needs no search to refute 40 (5 is inert), but the
    # witness of the norm 2 would take an exact search to |b| <= 18,176,283
    assert normset_of(order, "ideal_theoretic").contains(40, 10**9).answer == "no"
    with pytest.raises(NeedsBound, match="18176283"):
        normset_of(order, "ideal_theoretic").contains(2, 10**9)
    assert normset_of(order).contains(40, _REAL_SEARCH_CEILING).answer == "no"
    assert time.perf_counter() - start < 1


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
    ("auto", [(2, 1), (5, 1), (10, 1), (13, 1), (34, 1), (155, 1),
              (-1, 1), (-5, 1), (-3, 2)]),
    ("form_search", [(2, 1), (10, 1), (13, 1), (2, 2), (3, 2), (5, 2), (5, 3),
                     (-2, 1), (-23, 3)]),
    ("both", [(2, 1), (5, 1), (10, 1), (34, 1), (-5, 1), (-14, 1)]),
    ("ideal_theoretic", [(2, 1), (5, 1), (34, 1), (-1, 1), (-3, 1), (-23, 1)]),
])
def test_norm_table_verdicts_equal_fresh_handle(policy, orders):
    for d, n in orders:
        order = order_of(d, n)
        ns = NormsetHandle(order, policy=policy)
        ns.members_up_to(120)
        assert ns._norms_bound == 120
        for m in (7, -7, 2, 6, 9, -119, 120):
            if order.is_imaginary:
                bounds = (None, 1)  # an imaginary search ignores the bound
            else:
                exact_b = exact_real_search_bound(order, m)
                bounds = (1, exact_b, exact_b + 3)
            for bound in bounds:
                try:
                    ns.contains(m, bound)
                except NeedsBound:
                    pass
        assert ns._verdicts
        for (m, bound), v in ns._verdicts.items():
            assert NormsetHandle(order, policy=policy).contains(m, bound) == v, (d, n, m, bound)


# imaginary and real, maximal and non-maximal
WINDOW_ORDERS = [(-1, 1), (-3, 1), (-5, 1), (-23, 1), (-3, 2), (-5, 3),
                 (2, 1), (5, 1), (10, 1), (15, 1), (34, 1), (13, 2), (2, 3), (6, 3)]


@pytest.mark.parametrize("policy", ["auto", "form_search", "ideal_theoretic", "both"])
def test_members_up_to_matches_per_m_loop(policy):
    for d, n in WINDOW_ORDERS:
        order = order_of(d, n)
        signs = (1,) if order.is_imaginary else (1, -1)
        fresh = NormsetHandle(order, policy=policy)

        def loop():
            return [s * k for k in range(2, 151) for s in signs
                    if fresh.contains(s * k).answer == "yes"]

        window = NormsetHandle(order, policy=policy)
        if n > 1 and policy in ("ideal_theoretic", "both"):
            for run in (loop, lambda: window.members_up_to(150)):
                with pytest.raises(ValueError, match="maximal order"):
                    run()
            continue
        assert window.members_up_to(150) == loop(), (d, n)


@pytest.mark.parametrize("d,n", [(-5, 2), (-3, 3), (13, 2), (2, 3)])
def test_ideal_backend_window_refuses_non_maximal_orders(d, n):
    with pytest.raises(ValueError, match="maximal order"):
        NormsetHandle(order_of(d, n), policy="ideal_theoretic").members_up_to(60)


@pytest.mark.parametrize("d,builder,dropped,error", [
    # 6 = N(1 + sqrt(-5)) and -9 = N(5 + sqrt(34)), each dropped from one table
    (-5, "norm_table", 6, "ideal backend certified norm 6 "),
    (34, "norm_table", -9, "ideal backend certified norm -9 "),
    (-5, "ideal_class_table", 6, "backend disagreement at m=6 "),
    (34, "ideal_class_table", -9, "backend disagreement at m=-9 "),
])
def test_policy_both_cross_checks_the_whole_window(monkeypatch, d, builder,
                                                   dropped, error):
    # the window builds its norm table through _norm_table, its bound in hand
    name = "_norm_table" if builder == "norm_table" else builder
    build = getattr(normsets, name)

    def doctored(arg, *bounds):
        table = build(arg, *bounds)
        if builder == "ideal_class_table":  # arg is the class group
            table[abs(dropped)] -= {arg.identity_index if dropped > 0
                                    else arg.neg_principal_index}
        else:
            del table[dropped]
        return table

    monkeypatch.setattr(normsets, name, doctored)
    with pytest.raises(AssertionError, match=error):
        NormsetHandle(order_of(d), policy="both").members_up_to(60)


@pytest.mark.parametrize("policy,m,error", [
    # 6 = N(1 + sqrt(-5)) and 2 is no norm; the class test is negated
    ("both", 6, "backend disagreement at m=6 "),
    ("ideal_theoretic", 2, "ideal backend certified norm 2 "),
])
def test_each_query_cross_checks_the_class_test(monkeypatch, policy, m, error):
    is_ideal_norm = normsets._is_ideal_norm
    monkeypatch.setattr(normsets, "_is_ideal_norm",
                        lambda cg, k, classes: not is_ideal_norm(cg, k, classes))
    with pytest.raises(AssertionError, match=error):
        normset_of(order_of(-5), policy).contains(m)


def test_windows_make_no_per_norm_searches(monkeypatch):
    # a search for one norm runs elements_of_norm or _norm_table(order, m, m,
    # exact bound), so the only table builds are the two windows', each with
    # the bound it holds
    calls = {"elements_of_norm": [], "ideal_class_options": [], "_norm_table": []}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(normsets, name), **kwargs):
            calls[_name].append(args[1:])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(normsets, name, counted)
    assert irreducibles_up_to(normset_of(order_of(-23)), 400)
    assert irreducibles_up_to(normset_of(order_of(34)), 300)
    assert calls == {"elements_of_norm": [], "ideal_class_options": [], "_norm_table": [
        (-400, 400, None), (-300, 300, exact_real_search_bound(order_of(34), 300))]}


def test_window_solves_its_exact_bound_once(monkeypatch):
    # the ceiling test's bound is the one the norm table is built at, and a
    # smaller window on the same handle reads the tables without a bound
    order = order_of(34)
    fresh = normset_of(order)
    loop = [s * k for k in range(2, 301) for s in (1, -1)
            if fresh.contains(s * k).answer == "yes"]
    calls = []

    def counted(o, k, _fn=exact_real_search_bound):
        calls.append(k)
        return _fn(o, k)

    monkeypatch.setattr(normsets, "exact_real_search_bound", counted)
    monkeypatch.setattr(quadratic, "exact_real_search_bound", counted)
    ns = normset_of(order)
    assert ns.members_up_to(300) == loop
    assert ns.members_up_to(100) == [m for m in loop if abs(m) <= 100]
    assert calls == [300]


@pytest.mark.parametrize("d,n,m,policy,answer,witness", [
    (34, 1, -9, "form_search", "yes", "5+1*w"),
    (34, 1, 7, "form_search", "no", None),
    (5, 2, 11, "auto", "yes", "3+1*w"),
    (2, 3, -7, "auto", "no", None),
    (13, 1, 12, "auto", "yes", "4+2*w"),
])
def test_real_search_solves_its_exact_bound_once(monkeypatch, d, n, m, policy,
                                                 answer, witness):
    # a single-norm search outside any window builds its table at the exact
    # bound it already holds, and reports that bound as before
    order = order_of(d, n)
    exact_b = exact_real_search_bound(order, m)
    calls = []

    def counted(o, k, _fn=exact_real_search_bound):
        calls.append(k)
        return _fn(o, k)

    monkeypatch.setattr(normsets, "exact_real_search_bound", counted)
    monkeypatch.setattr(quadratic, "exact_real_search_bound", counted)
    v = normset_of(order, policy).contains(m)
    assert calls == [m]
    assert (v.answer, None if v.witness is None else str(v.witness)) == (answer, witness)
    assert v.bound_used == (None if v.backend == "ideal_theoretic" else exact_b)


def test_policy_both_searches_once_per_query(monkeypatch):
    # the ideal backend reads the element search's verdict instead of
    # running the same search again for its witness
    searches = []
    for name in ("elements_of_norm", "_norm_table"):
        def counted(*args, _fn=getattr(normsets, name), **kwargs):
            searches.append(args[1:])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(normsets, name, counted)
    queries = [(d, m, bound) for d in (-5, -14, -23, 10, 34)
               for m in (2, 3, -3, 6, 7, -9, 14, 30) for bound in (None, 40)]
    # 3 in Z[sqrt 34] with |b| <= 1 is unknown; 2 in Z[(1+sqrt 97)/2] has an
    # element, none with |b| <= 6, and its exact bound passes the ceiling
    queries += [(34, 3, 1), (97, 2, 6), (97, 2, None)]
    seen = set()
    for d, m, bound in queries:
        counts, answers = [], []
        for policy in ("form_search", "both", "ideal_theoretic"):
            searches.clear()
            try:
                answers.append(normset_of(order_of(d), policy).contains(m, bound).answer)
            except NeedsBound:
                answers.append("NeedsBound")
            counts.append(len(searches))
            seen.add((policy, answers[-1]))
        assert counts[0] == counts[1] <= 1, (d, m, bound, counts)
        # the ideal backend searches only when its class test says yes
        assert counts[2] == (0 if answers[2] == "no" else counts[0]), (d, m, bound, counts)
    assert {("form_search", "unknown"), ("both", "NeedsBound"), ("both", "yes"),
            ("both", "no"), ("ideal_theoretic", "no")} <= seen


def test_verdict_record_shape(capsys):
    # the CLI writes the record: its envelope, then the verdict's fields
    assert main(["normset", "member", "--d", "34", "--value", "-9", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    envelope = {"schema_version", "command", "order", "value"}
    assert envelope <= set(rec)
    assert set(rec) - envelope == {"query", "answer", "witness", "bound_used", "backend"}
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


def _atoms_by_split_loop(ns, B):
    """Atoms by their own split loop: members m, |m| <= B, with no integer
    divisor u, 2 <= |u| <= |m|/2, such that u and m/u are both members.
    """
    members = ns.members_up_to(B)
    memberset = set(members)
    return [m for m in members
            if not any(u in memberset and m // u in memberset
                       for k in divisors(abs(m)) if 2 <= k <= abs(m) // 2
                       for u in (k, -k))]


def _strict_window_by_unit_test(order, B):
    """Strict saturation by its own quotient test, with -1 decided by the sign
    of the fundamental unit: (answer, witness) as the window reports them.
    """
    ns = NormsetHandle(order)
    neg_unit = not order.is_imaginary and order_fundamental_unit(order)[1] == -1
    members = ns.members_up_to(B)
    for yi, y in enumerate(members):
        for x in members[: yi + 1]:
            if y % x:
                continue
            q = y // x
            ok = (q == 1 or neg_unit) if abs(q) == 1 else ns.contains(q).answer == "yes"
            if not ok:
                return "no", (x, y, q)
    return "yes", None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_atoms_and_strict_window_match_loop_oracles(n):
    # squarefree -30 < d < 40: atoms at B = 60, strict windows at B = 80
    for d in range(-29, 40):
        if d in (0, 1) or not is_squarefree(d):
            continue
        order = order_of(d, n)
        assert irreducibles_up_to(normset_of(order), 60) == \
            _atoms_by_split_loop(normset_of(order), 60), (d, n)
        v = is_strictly_saturated_window(order, 80)
        assert (v.answer, v.witness) == _strict_window_by_unit_test(order, 80), (d, n)


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


def test_factor_rejects_unit_member():
    # units are not atoms; -1 is a norm of Z[sqrt(10)] but not of Z[sqrt(34)]
    with pytest.raises(ValueError):
        factor_in_normset(normset_of(order_of(-5)), 1)
    with pytest.raises(ValueError):
        factor_in_normset(normset_of(order_of(10)), -1)
    with pytest.raises(NotMember):
        factor_in_normset(normset_of(order_of(34)), -1)
    with pytest.raises(NotMember):
        factor_in_normset(normset_of(order_of(-5)), -1)


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


@pytest.mark.parametrize("d,n", [(-5, 1), (-14, 1), (2, 1), (3, 1), (-3, 2)])
def test_monoid_view_lists_each_divisor_pair_once(d, n):
    # d = 2: -1 is a norm and signs fold; d = 3: it is not and members keep
    # their sign; the brute force tests every |u| = k, 2 <= k <= |x|/2, so
    # each pair shows up from both of its sides, and squares give k^2 = |x|
    ns = normset_of(order_of(d, n))
    assert ns.contains(-1).answer == ("yes" if d == 2 else "no")
    view = normset_monoid_view(ns)
    canon = abs if d == 2 else (lambda m: m)

    def member(m):
        return ns.contains(m).answer == "yes"

    window = list(view.elements_up_to(300))
    assert any(x < 0 for x in window) == (d == 3)
    for x in window:
        want = {(u, canon(x // u)) for k in range(2, abs(x) // 2 + 1) if x % k == 0
                for u in (k, -k) if canon(u) == u and member(u) and member(canon(x // u))}
        got = list(view.proper_divisors(x))
        assert len(got) == len(set(got)), (x, got)
        assert set(got) == want, x


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


def test_strong_saturation_real_exact():
    order = order_of(34)
    three = order.element(3, 0)          # norm 9
    beta = order.element(5, 1)           # norm -9
    v = strong_saturation_check(order, three, beta)
    # no divisor of 5+w has norm +9 (that would need a norm -1 unit); the
    # search at the exact bound lists every same-norm associate class, so
    # its exhaustion is an exact no
    assert v.answer == "no"
    assert v.bound_used == exact_real_search_bound(order, 9)
    with pytest.raises(ValueError):
        strong_saturation_check(order, order.element(0, 0), beta)


def test_strong_saturation_real_finds_a_divisor_of_every_product():
    # alpha divides alpha * delta, so the answer is yes, whichever same-norm
    # associate of alpha the exact list holds
    from normset_lab.quadratic import divide_exact
    for d in (2, 3, 5, 10, 34):
        order = order_of(d)
        eps, _ = order_fundamental_unit(order)
        for alpha in (order.element(3, 1), order.element(2, -1), order.element(1, 2) * eps):
            for delta in (order.element(2, 1), order.element(-1, 3), eps * eps * eps):
                beta = alpha * delta
                v = strong_saturation_check(order, alpha, beta)
                assert v.answer == "yes", (d, alpha, delta)
                assert v.witness.norm() == alpha.norm()
                assert divide_exact(beta, v.witness) is not None


def test_strong_saturation_real_refuses_past_the_ceiling(monkeypatch):
    # N(31+7w) = 2 in Z[(1+sqrt(97))/2] needs |b| <= 18,176,283: refused
    # before any norm search, naming the bound and the ceiling; the check
    # takes no bound, so the message offers none to pass
    order = order_of(97)
    alpha = order.element(31, 7)
    beta = alpha * alpha
    assert exact_real_search_bound(order, 2) > _REAL_SEARCH_CEILING
    monkeypatch.setattr(normsets, "elements_of_norm", None)
    with pytest.raises(NeedsBound) as err:
        strong_saturation_check(order, alpha, beta)
    assert str(err.value) == (
        f"strong saturation search for norm 2 in {order} needs |b| <= 18176283, "
        f"past the search ceiling {_REAL_SEARCH_CEILING}")
    assert "pass" not in str(err.value)


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
