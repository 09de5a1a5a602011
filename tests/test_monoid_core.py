from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from normset_lab.arith import divisors
from normset_lab.errors import CapExceeded, SearchBudgetExceeded
from normset_lab.monoid_core import (AbelianGroup, FactorMultiset, FactorSession,
                                     _davenport_search, davenport,
                                     davenport_witness,
                                     elasticity_window,
                                     invariant_factors_from_table,
                                     is_hfm_window, is_length_factorial_window,
                                     is_ufm_window, numerical_monoid_view)
from normset_lab.normsets import normset_monoid_view, normset_of
from normset_lab.quadratic import (_element_kernel, element_monoid_view, elements_of_norm,
                                   factor_element, order_of)
from normset_lab.valnet_sim import _Table, finite_indices, generated_monoid, parse_net


# ---------------------------------------------------------------------------
# abelian groups


def test_invariant_factor_normalization():
    assert AbelianGroup.from_cyclic([2, 3]).invariant_factors == (6,)
    assert AbelianGroup.from_cyclic([2, 2]).invariant_factors == (2, 2)
    assert AbelianGroup.from_cyclic([4, 6]).invariant_factors == (2, 12)
    assert AbelianGroup.from_cyclic([2, 2, 3, 9]).invariant_factors == (2, 6, 9) or \
        AbelianGroup.from_cyclic([2, 2, 3, 9]).invariant_factors == (6, 18)
    assert AbelianGroup.from_cyclic([1, 1]).invariant_factors == ()


def test_invariant_factor_chain_enforced():
    with pytest.raises(ValueError):
        AbelianGroup((4, 2))
    with pytest.raises(ValueError):
        AbelianGroup((1,))


def test_from_string_forms():
    assert AbelianGroup.from_string("3,3").invariant_factors == (3, 3)
    assert AbelianGroup.from_string("Z_2 x Z_4").invariant_factors == (2, 4)
    assert AbelianGroup.from_string("trivial").invariant_factors == ()
    assert str(AbelianGroup((2, 4))) == "Z_2 x Z_4"


@given(st.lists(st.integers(min_value=1, max_value=12), max_size=4))
def test_from_cyclic_preserves_order_and_chain(orders):
    g = AbelianGroup.from_cyclic(orders)
    expect = 1
    for m in orders:
        expect *= m
    assert g.order == expect
    fs = g.invariant_factors
    assert all(b % a == 0 for a, b in zip(fs, fs[1:]))


def test_group_table_reconstruction():
    for fs in [(), (2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (12,)]:
        g = AbelianGroup(fs)
        elems = list(g.elements())
        assert invariant_factors_from_table(elems, g.add, g.zero()) == fs


# ---------------------------------------------------------------------------
# Davenport constant against an independent brute oracle


def _davenport_oracle(g: AbelianGroup) -> int:
    """Definition chased literally: least n such that every size-n multiset
    over g has a nonempty zero-sum sub-multiset.
    """
    dims = g.invariant_factors
    elems = [e for e in g.elements() if any(e)]
    if not elems:
        return 1

    def has_zero_subsum(ms):
        for r in range(1, len(ms) + 1):
            for sub in set(combinations(ms, r)):
                tot = tuple(sum(v) % d for v, d in zip(zip(*sub), dims))
                if not any(tot):
                    return True
        return False

    n = 1
    while True:
        if all(has_zero_subsum(ms)
               for ms in combinations_with_replacement(elems, n)):
            return n
        n += 1


@pytest.mark.parametrize("factors", [(), (2,), (3,), (4,), (2, 2), (5,),
                                     (2, 4), (3, 3), (2, 2, 2), (6,)])
def test_davenport_matches_oracle(factors):
    g = AbelianGroup(factors)
    assert davenport(g) == _davenport_oracle(g)


def test_davenport_witness_is_zero_sum_free_and_maximal():
    for factors in [(2,), (2, 2), (4,), (3, 3), (2, 4)]:
        g = AbelianGroup(factors)
        D, wit = davenport_witness(g)
        assert len(wit) == D - 1
        dims = g.invariant_factors
        for r in range(1, len(wit) + 1):
            for sub in combinations(wit, r):
                tot = tuple(sum(v) % d for v, d in zip(zip(*sub), dims))
                assert any(tot), (factors, sub)


def test_davenport_known_values():
    # cyclic: D = n; rank-2 p-groups: D = d1 + d2 - 1
    assert davenport(AbelianGroup(())) == 1
    assert davenport(AbelianGroup((2,))) == 2
    assert davenport(AbelianGroup((2, 2))) == 3
    assert davenport(AbelianGroup((4,))) == 4
    assert davenport(AbelianGroup((3, 3))) == 5
    assert davenport(AbelianGroup((2, 6))) == 7
    assert davenport(AbelianGroup((4, 4))) == 7


def test_davenport_cap_and_budget():
    # Olson's formula holds at any order; the cap binds only the search
    assert davenport(AbelianGroup.from_cyclic([7, 11])) == 77
    with pytest.raises(CapExceeded):
        davenport(AbelianGroup((2, 6, 6)))
    with pytest.raises(SearchBudgetExceeded):
        davenport_witness(AbelianGroup((2, 2, 6)), state_budget=1000)


def _chains(limit, prefix=(), order=1):
    """Every invariant-factor chain of order <= limit."""
    yield prefix
    d = prefix[-1] if prefix else 2
    while order * d <= limit:
        if not prefix or d % prefix[-1] == 0:
            yield from _chains(limit, prefix + (d,), order * d)
        d += 1


def test_group_chains_cover_every_small_group():
    # the abelian groups of orders 1..16 number 1,1,1,2,1,1,1,3,2,1,1,2,1,1,1,5
    assert len(list(_chains(16))) == 25


@pytest.mark.parametrize("factors", list(_chains(16)) + [(2, 2, 2, 2, 2)])
def test_olson_closed_form_matches_search(factors):
    # every group of order <= 16 is a p-group or has rank <= 2
    g = AbelianGroup(factors)
    assert davenport_witness(g) == _davenport_search(g)


def _zero_sum_free(g: AbelianGroup, seq) -> bool:
    """Subset-sum set DP: at most |G| sums are carried from step to step."""
    sums: set = set()
    for e in seq:
        new = {g.add(s, e) for s in sums} | {e}
        if g.zero() in new:
            return False
        sums |= new
    return True


@pytest.mark.parametrize("factors,D", [((8, 8), 15), ((77,), 77),
                                       ((2, 32), 33), ((3, 9), 11)])
def test_olson_witness_beyond_the_search_cap(factors, D):
    g = AbelianGroup(factors)
    got, wit = davenport_witness(g)
    assert got == D and len(wit) == D - 1
    assert _zero_sum_free(g, wit)


def test_zero_sum_free_dp_rejects_zero_sums():
    g = AbelianGroup((2, 4))
    assert not _zero_sum_free(g, [(0, 1), (0, 3)])
    assert not _zero_sum_free(g, [(1, 0), (0, 2), (1, 2)])
    assert _zero_sum_free(g, [(0, 1), (0, 1), (0, 1), (1, 0)])


def test_davenport_search_outside_olson():
    # rank 3 and not a p-group: only the search answers; its first-inserted
    # witness is the one the frozenset-keyed frontier found
    g = AbelianGroup((2, 2, 6))
    assert davenport_witness(g) == _davenport_search(g) == (
        8, ((0, 0, 1),) * 5 + ((0, 1, 0), (1, 0, 0)))
    assert _zero_sum_free(g, davenport_witness(g)[1])


# ---------------------------------------------------------------------------
# factorization machinery on <2,3>


def _splits_23(m: int):
    """All (count2, count3) with 2a + 3b = m."""
    return [(a, (m - 2 * a) // 3) for a in range(m // 2 + 1)
            if (m - 2 * a) % 3 == 0]


@pytest.fixture(scope="module")
def view23():
    return numerical_monoid_view(2, 3)


def test_23_factorizations_match_split_oracle(view23):
    session = FactorSession(view23)
    for m in range(2, 80):
        facts = session.factorizations(m)
        expect = {tuple(sorted([2] * a + [3] * b)) for a, b in _splits_23(m)}
        got = {tuple(sorted(f.atoms)) for f in facts}
        assert got == expect, m


def test_23_atoms(view23):
    session = FactorSession(view23)
    assert session.is_atom(2) and session.is_atom(3)
    assert not any(session.is_atom(m) for m in range(4, 40))


def test_factor_multiset_identity(view23):
    a = FactorMultiset((2, 2, 3))
    b = FactorMultiset((2, 2, 3))
    assert a == b and len(a) == 3 and list(a) == [2, 2, 3]
    assert a.length == 3


def test_23_trio_of_window_verdicts(view23):
    lf = is_length_factorial_window(view23, 200)
    assert lf.holds and lf.bound == 200

    hf = is_hfm_window(view23, 200)
    assert not hf.holds
    x, short, long_ = hf.witness
    assert x == 6
    assert sorted(short.atoms) == [3, 3] and sorted(long_.atoms) == [2, 2, 2]

    rho = elasticity_window(view23, 200)
    assert rho == Fraction(3, 2)
    assert rho.witness == 6
    assert Fraction(rho) == Fraction(3, 2)


def test_length_factorial_window_fails_with_two_same_length_factorizations():
    # 8 = 3 + 5 = 4 + 4 in <3, 4, 5>, the least such member
    lf = is_length_factorial_window(numerical_monoid_view(3, 4, 5), 20)
    assert not lf.holds and lf.bound == 20
    assert lf.witness == (8, FactorMultiset((3, 5)), FactorMultiset((4, 4)))


def test_23_elasticity_monotone_in_bound(view23):
    # window elasticities never decrease as the window grows
    vals = [elasticity_window(view23, b) for b in (4, 6, 20, 100)]
    assert all(x <= y for x, y in zip(vals, vals[1:]))
    assert vals[0] == 1  # no two-length element below 6


def test_ufm_window_on_23(view23):
    v = is_ufm_window(view23, 50)
    assert not v.holds
    # either a two-factorization element or a non-prime atom is reported
    assert v.witness[0] in ("non_unique", "non_prime_atom")


def test_numerical_monoid_rejects_bad_generators():
    with pytest.raises(ValueError):
        numerical_monoid_view(0, 2)
    with pytest.raises(ValueError):
        numerical_monoid_view()


# ---------------------------------------------------------------------------
# every view's divide against its proper_divisors


def _check_divide(view, elements, is_unit):
    """d | x iff d = x, with a unit cofactor, or (d, c) is listed among the
    proper divisors of x, with divide(d, x) = c."""
    for x in elements:
        listed = dict(view.proper_divisors(x))
        for d, c in listed.items():
            assert view.divide(d, x) == c, (d, x)
        for d in elements:
            c = view.divide(d, x)
            if d == x:
                assert is_unit(c), x
            else:
                assert c == listed.get(d), (d, x)


@pytest.mark.parametrize("gens", [(2, 3), (3, 5, 7), (4, 6, 9)])
def test_numerical_view_divide(gens):
    view = numerical_monoid_view(*gens)
    _check_divide(view, view.elements_up_to(40), lambda c: c == 0)


@pytest.mark.parametrize("d,n", [(-1, 1), (-3, 1), (-5, 1), (-14, 1), (-3, 2)])
def test_element_view_divide(d, n):
    view = element_monoid_view(order_of(d, n))
    _check_divide(view, list(view.elements_up_to(30)), lambda c: c.is_unit())


def _net_table():
    """A generated net monoid's table view and its nonzero members."""
    labels = finite_indices("P", "Q:dense")
    m = generated_monoid(labels, [parse_net(labels, text) for text in (
        "P:2", "Q:1/2", "P:1,Q:1", "P:3,Q:3/2")])
    t = _Table(m, parse_net(labels, "P:6,Q:4"))
    return t.view(), sorted(v for v in t.members if any(v))


def test_net_table_view_divide():
    view, members = _net_table()
    assert len(members) > 30
    _check_divide(view, members, lambda c: not any(c))


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=2, max_value=9),
       st.integers(min_value=4, max_value=60))
def test_random_numerical_monoid_refactors(g1, g2, m):
    view = numerical_monoid_view(g1, g2)
    if m not in view.elements_up_to(m):
        return
    session = FactorSession(view)
    facts = session.factorizations(m)
    assert facts  # numerical monoids are atomic
    for f in facts:
        assert sum(f.atoms) == m
        assert all(session.is_atom(a) for a in f.atoms)


# ---------------------------------------------------------------------------
# session accounting against a full-range divisor listing


def _full_range_kernel(view, order):
    """The kernel's pairs found by solving every norm 2 <= k <= N/2, so each
    pair is found from both of its sides."""
    def proper_divisors(x):
        nm = view.key(x)[0]
        for k in divisors(nm):
            if 2 <= k <= nm // 2:
                for y in dict.fromkeys(view.op(tuple(y), (1, 0))
                                       for y in elements_of_norm(order, k)):
                    c = view.divide(y, x)
                    if c is not None:
                        yield y, c
    return replace(view, proper_divisors=proper_divisors)


def _full_range_normset(view, ns):
    """The normset view's pairs found by testing every |u| = k <= |x|/2."""
    neg_unit = ns.contains(-1).answer == "yes"

    def proper_divisors(x):
        for k in divisors(x):
            if 2 <= k <= abs(x) // 2:
                for u in ((k,) if neg_unit else (k, -k)):
                    c = view.divide(u, x)
                    if c is not None and ns.contains(u).answer == "yes":
                        yield u, c
    return replace(view, proper_divisors=proper_divisors)


def _assert_same_sessions(a, b):
    assert a.spent == b.spent
    assert a._atom == b._atom
    assert a._pairs == b._pairs
    assert a._facts == b._facts
    assert a._lengths == b._lengths


def test_session_accounting_matches_full_range_listing_on_kernel():
    order = order_of(-3, 2)
    view = _element_kernel(order)
    sessions = [FactorSession(v) for v in (view, _full_range_kernel(view, order))]
    verdicts = [is_hfm_window(s.view, 200, s) for s in sessions]
    assert verdicts[0] == verdicts[1]
    # Z[sqrt(-3)] is half-factorial; its window at 200 cost 7,758 charges
    # before its divisor lists were cut to the smaller norm of each pair
    assert verdicts[0].holds and sessions[0].spent == 7758
    _assert_same_sessions(*sessions)
    rhos = [elasticity_window(s.view, 60, s) for s in sessions]
    assert rhos[0] == rhos[1] and rhos[0].witness == rhos[1].witness
    _assert_same_sessions(*sessions)


@pytest.mark.parametrize("d", [-5, -14, -23, 2, 3])
def test_session_accounting_matches_full_range_listing_on_normsets(d):
    ns = normset_of(order_of(d))
    view = normset_monoid_view(ns)
    sessions = [FactorSession(v) for v in (view, _full_range_normset(view, ns))]
    rhos = [elasticity_window(s.view, 300, s) for s in sessions]
    assert rhos[0] == rhos[1] and rhos[0].witness == rhos[1].witness
    _assert_same_sessions(*sessions)


# ---------------------------------------------------------------------------
# length sets against factorization lists, and one divisor walk per element


def _window(kind):
    if kind[0] == "kernel":
        _, d, n, bound = kind
        view = _element_kernel(order_of(d, n))
        return view, list(view.elements_up_to(bound))
    if kind[0] == "normset":
        view = normset_monoid_view(normset_of(order_of(kind[1])))
        return view, list(view.elements_up_to(kind[2]))
    if kind[0] == "numerical":
        view = numerical_monoid_view(*kind[1])
        return view, list(view.elements_up_to(80))
    return _net_table()


@pytest.mark.parametrize("kind", [
    ("kernel", -3, 2, 200), ("kernel", -5, 1, 200), ("kernel", -14, 1, 100),
    ("normset", -23, 2000), ("normset", -71, 2000), ("normset", -14, 2000),
    ("normset", 79, 2000), ("numerical", (2, 3)), ("numerical", (3, 5, 7)), ("net",)],
    ids=str)
def test_lengths_match_factorization_lists(kind):
    view, members = _window(kind)
    assert members
    session, lists = FactorSession(view), FactorSession(view)
    for x in members:
        assert session.lengths(x) == {f.length for f in lists.factorizations(x)}, x


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=4),
       st.integers(min_value=1, max_value=60))
def test_numerical_lengths_match_factorization_lists(gens, bound):
    view = numerical_monoid_view(*gens)
    session, lists = FactorSession(view), FactorSession(view)
    for x in view.elements_up_to(bound):
        ls = session.lengths(x)
        assert isinstance(ls, frozenset) and ls
        assert ls == {f.length for f in lists.factorizations(x)}


def test_lengths_of_an_atom_and_a_non_atomic_element():
    view, _ = _window(("numerical", (2, 3)))
    session = FactorSession(view)
    assert session.lengths(2) == {1} and session.lengths(6) == {2, 3}
    # a view in which 4 = 4 * 4 never reaches an atom: 16 admits no factorization
    lonely = replace(view, proper_divisors=lambda x: iter([(4, 4)] if x in (4, 16) else []))
    assert FactorSession(lonely).lengths(16) == frozenset()
    assert FactorSession(lonely).factorizations(16) == ()


def _counted(view):
    starts = {}

    def proper_divisors(x):
        starts[x] = starts.get(x, 0) + 1
        return view.proper_divisors(x)
    return replace(view, proper_divisors=proper_divisors), starts


def test_each_element_is_walked_once_per_session():
    order = order_of(-3, 2)
    view, starts = _counted(_element_kernel(order))
    session = FactorSession(view)
    assert is_hfm_window(view, 200, session).holds
    spent = session.spent
    # two elements in the window, three beyond it
    for a, b in ((36, 0), (12, 6), (210, 0), (23, 9), (-40, 17)):
        facts = factor_element(order, order.element(a, b), session)
        assert facts and all(session.is_atom((x.a, x.b)) for f in facts for x in f)
    assert starts and max(starts.values()) == 1
    assert session.spent > spent
    # an element that is_atom found splitting resumes its walk when listed
    fresh, starts = _counted(_element_kernel(order))
    session = FactorSession(fresh)
    assert not session.is_atom((36, 0))
    assert session.lengths((36, 0)) and session.factorizations((36, 0))
    assert starts[(36, 0)] == 1 and max(starts.values()) == 1


def test_budget_pins_on_the_exception_order():
    view = _element_kernel(order_of(-3, 2))
    session = FactorSession(view)
    assert is_hfm_window(view, 400, session).holds and session.spent == 21312
    with pytest.raises(SearchBudgetExceeded):
        is_hfm_window(view, 200, FactorSession(view, budget=7757))
    session = FactorSession(view, budget=7758)
    assert is_hfm_window(view, 200, session).holds and session.spent == 7758


def test_a_walk_cut_by_the_budget_raises_again_on_retry():
    session = FactorSession(numerical_monoid_view(2, 3), budget=3)
    for _ in range(2):
        with pytest.raises(SearchBudgetExceeded):
            session.factorizations(12)
    assert not session._atom[12] and 12 not in session._pairs
