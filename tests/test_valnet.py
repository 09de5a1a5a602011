"""Valuation nets: arithmetic laws, the sequence domain, generated monoids,
factorization outcomes, covers, and the eps-flagged ideal norms.
"""

import inspect
import time
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from functools import reduce
from itertools import product
from math import inf
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normset_lab.valnet_sim as vn
from normset_lab import (
    CapExceeded,
    DivisorCount,
    EpsVal,
    IndexMismatch,
    NetMonoid,
    SearchOutcome,
    ValNet,
    accp_chain,
    bfd_bound,
    comaximal_family,
    divides,
    e_net,
    eps_add,
    finite_cover_check,
    finite_indices,
    find_atomic_factorization,
    ffd_window,
    generated_monoid,
    ideal_norm,
    ideal_norm_product_check,
    idempotent_cover_check,
    inf_S_b,
    length,
    load_net_monoid,
    make_net,
    monoid_divisors,
    net_add,
    net_factorizations,
    net_leq,
    net_lt,
    net_sub,
    omega_indices,
    omega_net,
    parse_net,
    parse_value,
    q_net,
    S_b,
    sequence_domain,
    zero_net,
)
from normset_lab.valnet_sim import DENSE, DISCRETE, INF_INDEX, IndexSet, _net_key

OMEGA = omega_indices()
SEQ = sequence_domain()
FIN = finite_indices("M1", "M2")
MIX = finite_indices("M1:dense", "M2:discrete")
DENSE_POINT = omega_indices(DENSE)


def fnet(a, b):
    return make_net(FIN, {"M1": a, "M2": b})


M2 = generated_monoid(FIN, [fnet(2, 0), fnet(0, 2), fnet(1, 1)])
M3 = generated_monoid(FIN, [fnet(1, 0), fnet(0, 1), fnet(1, 1)])

B23 = make_net(OMEGA, {1: 2, 3: 3})
W1 = omega_net(OMEGA, 1)
Q = q_net(OMEGA)


@st.composite
def omega_nets(draw):
    vals = draw(st.dictionaries(st.integers(1, 8), st.integers(0, 4), max_size=5))
    tail = draw(st.integers(0, 2))
    infv = draw(st.integers(0, 3))
    return make_net(OMEGA, vals, tail=tail, at_infinity=infv)


# ---------------------------------------------------------------------------
# index sets and net construction


def test_index_set_basics():
    assert MIX.tag_of("M1") == DENSE and MIX.tag_of("M2") == DISCRETE
    assert FIN.tag_of("M1") == DISCRETE  # untagged labels default discrete
    assert OMEGA.tag_of(7) == DISCRETE
    assert omega_indices(DENSE).tag_of(INF_INDEX) == DENSE
    assert MIX.valid_index("M1") and not MIX.valid_index("M3")
    assert OMEGA.valid_index(1) and OMEGA.valid_index(INF_INDEX)
    assert not OMEGA.valid_index(0) and not OMEGA.valid_index("M1")


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet("weird")
    with pytest.raises(ValueError):
        finite_indices("A:discrete", "A:dense")  # duplicate label
    with pytest.raises(ValueError):
        finite_indices("A:squishy")


def test_make_net_canonicalizes():
    a = make_net(OMEGA, {1: 2, 3: 3, 5: 0})
    b = make_net(OMEGA, {3: 3, 1: 2})
    assert a == b  # equal functions compare equal
    assert a.support == ((1, 2), (3, 3))
    # entries equal to the tail are not stored
    c = make_net(OMEGA, {2: 1, 4: 1}, tail=1)
    assert c.support == ()
    assert c.value_at(99) == 1


def test_make_net_value_rules():
    with pytest.raises(ValueError):
        make_net(OMEGA, {1: -1})
    with pytest.raises(ValueError):
        make_net(OMEGA, {1: Fraction(1, 2)})  # omega indices are discrete
    with pytest.raises(ValueError):
        make_net(FIN, {"M1": 1}, tail=1)  # finite index sets have no tail
    half = make_net(MIX, {"M1": Fraction(1, 2), "M2": 1})
    assert half.value_at("M1") == Fraction(1, 2)
    whole = make_net(MIX, {"M1": Fraction(4, 2)})
    assert whole.value_at("M1") == 2 and isinstance(whole.value_at("M1"), int)
    # at_infinity defaults to the tail
    assert make_net(OMEGA, {}, tail=1).at_infinity == 1
    with pytest.raises(ValueError):
        make_net(OMEGA, {INF_INDEX: 1})


def test_str_forms():
    assert str(make_net(OMEGA, {1: 2}, tail=1)) == "(1:2, tail:1, inf:1)"
    assert str(zero_net(OMEGA)) == "(tail:0, inf:0)"
    assert str(fnet(2, 0)) == "(M1:2)"
    assert str(zero_net(FIN)) == "(0)"


def _same_net(x, y):
    return x == y and y == x and hash(x) == hash(y) and str(x) == str(y) and repr(x) == repr(y)


@settings(max_examples=100, deadline=None)
@given(x=omega_nets())
@example(x=make_net(DENSE_POINT, {2: 1}, tail=1, at_infinity=Fraction(3, 2)))
@example(x=make_net(MIX, {"M1": Fraction(1, 2), "M2": 3}))
@example(x=zero_net(FIN))
def test_fast_constructor_builds_the_make_net_net(x):
    y = vn._canon_net(x.index_set, x.support, x.tail, x.at_infinity)
    assert type(y) is ValNet and _same_net(x, y)
    assert [f.name for f in fields(y)] == ["index_set", "support", "tail", "at_infinity"]
    for f in fields(y):
        with pytest.raises(FrozenInstanceError):
            setattr(y, f.name, getattr(y, f.name))


def test_listed_nets_equal_their_make_net_rebuild():
    # the divisor lists and the member tables build their nets without
    # make_net; each must be the net make_net gives for its values
    dense = generated_monoid(DENSE_THIRDS, [make_net(DENSE_THIRDS, a) for a in DENSE_ATOMS])
    m_omega, b_omega = _omega(DENSE_POINT, [({1: 0}, 1, Fraction(1, 2)), ({}, 0, Fraction(1, 3)),
                                            ({3: 2},)], ({1: 0, 3: 3}, 1, Fraction(7, 6)))
    cases = [(SEQ, B23), (SEQ, make_net(OMEGA, {2: 1, 10: 2})), (SEQ, W1), (M2, fnet(6, 4)),
             (dense, make_net(DENSE_THIRDS, {"X": Fraction(11, 6), "Y": 3})), (m_omega, b_omega)]
    for m, b in cases:
        divs = monoid_divisors(m, b, 4)
        assert divs
        for d in divs:
            assert _same_net(d, make_net(d.index_set, dict(d.support), d.tail, d.at_infinity))


# ---------------------------------------------------------------------------
# arithmetic laws


@given(a=omega_nets(), b=omega_nets(), c=omega_nets())
def test_addition_laws(a, b, c):
    assert net_add(a, b) == net_add(b, a)
    assert net_add(net_add(a, b), c) == net_add(a, net_add(b, c))
    assert net_add(a, zero_net(OMEGA)) == a


@given(a=omega_nets(), b=omega_nets())
def test_sub_inverts_add(a, b):
    s = net_add(a, b)
    assert net_sub(s, b) == a
    assert divides(a, s)
    assert net_leq(a, s)


@given(a=omega_nets(), b=omega_nets())
def test_divides_iff_subtractable(a, b):
    assert divides(a, b) == (net_sub(b, a) is not None)
    if net_leq(a, b) and net_leq(b, a):
        assert a == b
    assert not net_lt(a, a)


def test_index_mismatch():
    with pytest.raises(IndexMismatch):
        net_add(B23, fnet(1, 0))
    with pytest.raises(IndexMismatch):
        net_leq(Q, fnet(1, 1))


def test_length():
    assert length(Q) == inf
    assert length(W1) == inf
    assert length(B23) == 5
    assert length(e_net(OMEGA, 5)) == 1
    assert length(make_net(OMEGA, {}, tail=0, at_infinity=2)) == 2
    assert length(zero_net(OMEGA)) == 0


def test_named_net_identities():
    assert net_add(e_net(OMEGA, 1), W1) == Q
    assert omega_net(OMEGA, 0) == Q
    for k in range(5):
        wk = omega_net(OMEGA, k)
        assert net_sub(wk, e_net(OMEGA, k + 1)) == omega_net(OMEGA, k + 1)
    assert net_lt(omega_net(OMEGA, 2), W1)
    for i in (1, 2, 17):
        assert Q.value_at(i) == 1
    assert Q.at_infinity == 1


# ---------------------------------------------------------------------------
# membership


def test_sequence_domain_membership():
    for x in (Q, W1, B23, e_net(OMEGA, 7), zero_net(OMEGA)):
        assert SEQ.contains(x)
    stranded = make_net(OMEGA, {}, tail=1, at_infinity=0)
    assert not SEQ.contains(stranded)
    assert not SEQ.contains(fnet(1, 1))  # wrong index set


def test_generated_membership():
    assert M2.contains(fnet(2, 2))
    assert M2.contains(fnet(1, 1))
    assert M2.contains(zero_net(FIN))
    assert not M2.contains(fnet(1, 0))
    assert not M2.contains(fnet(0, 3))
    # (8, 8) needs 8 atoms; the depth no longer caps the member table
    assert M2.contains(fnet(8, 8), depth=2)
    assert not M2.contains(fnet(8, 7), depth=2)


def test_foreign_net_queries_raise_index_mismatch():
    # one rule for a net over another index set, on both kinds of monoid:
    # every query raises, and only membership answers (no)
    other = finite_indices("P1", "P2")
    b = make_net(other, {"P1": 2, "P2": 2})
    for m, own_index in ((M2, "M1"), (SEQ, 1)):
        assert not m.contains(b)
        assert accp_chain(m, b, 1) == [b]  # returned before the monoid is read
        queries = [monoid_divisors, S_b, inf_S_b, bfd_bound, net_factorizations,
                   find_atomic_factorization, ffd_window,
                   lambda m, x: accp_chain(m, x, 2),
                   lambda m, x: comaximal_family(m, x, 2),
                   lambda m, x: finite_cover_check(m, x, ["P1"]),
                   # an index of the monoid, not of the net
                   lambda m, x: finite_cover_check(m, x, [own_index])]
        for query in queries:
            with pytest.raises(IndexMismatch):
                query(m, b)


def test_member_table_cap(monkeypatch):
    # 12 labels with atoms e_i: (1, ..., 1) has 2**12 members below it
    labels = finite_indices(*(f"L{i}" for i in range(12)))
    m = generated_monoid(labels, [make_net(labels, {lab: 1}) for lab in labels.labels])
    ones = make_net(labels, dict.fromkeys(labels.labels, 1))
    monkeypatch.setattr(vn, "_MEMBER_CAP", 1000)
    with pytest.raises(CapExceeded) as err:
        m.contains(ones)
    assert err.value.cap == 1000
    with pytest.raises(CapExceeded):
        net_factorizations(M2, fnet(60, 60))
    # (30, 30) has 481 members below it, under the cap
    assert ffd_window(M2, fnet(30, 30)) == DivisorCount(480, True)


def test_monoid_validation():
    with pytest.raises(ValueError):
        NetMonoid(FIN, "generated", ())
    with pytest.raises(ValueError):
        generated_monoid(FIN, [zero_net(FIN)])
    with pytest.raises(IndexMismatch):
        generated_monoid(FIN, [B23])
    with pytest.raises(ValueError):
        NetMonoid(FIN, "sequence_domain")


# ---------------------------------------------------------------------------
# divisors and length sets


def test_divisors_sequence_finite_support():
    divs = monoid_divisors(SEQ, B23)
    assert len(divs) == 11  # (2+1)(3+1) - 1 nonzero sub-nets
    assert B23 in divs
    for d in divs:
        assert divides(d, B23)
        assert SEQ.contains(d)


def test_divisors_sequence_with_tail():
    divs = monoid_divisors(SEQ, W1, depth=6)
    assert W1 in divs
    assert omega_net(OMEGA, 2) in divs
    assert e_net(OMEGA, 3) in divs
    assert e_net(OMEGA, 1) not in divs  # W1 is zero at index 1
    for d in divs:
        assert divides(d, W1)


def test_divisors_generated():
    divs = monoid_divisors(M2, fnet(2, 2))
    assert divs == sorted(
        [fnet(1, 1), fnet(2, 0), fnet(0, 2), fnet(2, 2)],
        key=lambda x: (x.tail, x.at_infinity, tuple((str(i), v) for i, v in x.support)),
    )
    # a generator that splits is still a divisor
    assert fnet(1, 1) in monoid_divisors(M3, fnet(1, 1))
    # every (a, b) <= (8, 8) with a + b even, but zero
    deep = monoid_divisors(M2, fnet(8, 8), depth=2)
    assert deep == monoid_divisors(M2, fnet(8, 8), depth=64)
    assert len(deep) == 40 and all((d.value_at("M1") + d.value_at("M2")) % 2 == 0
                                   for d in deep)


def test_divisors_sequence_zero_tail_are_complete():
    # no cap at total mass `depth`: every nonzero net below b is listed
    divs = monoid_divisors(SEQ, parse_net(SEQ, "1:40"), depth=32)
    assert divs == [make_net(OMEGA, {1: k}) for k in range(1, 41)]
    assert len(monoid_divisors(SEQ, parse_net(SEQ, "1:9,2:9,3:9,4:9"), depth=32)) == 9999
    with pytest.raises(CapExceeded) as err:
        monoid_divisors(SEQ, parse_net(SEQ, "1:10,2:10,3:10,4:10"))
    assert err.value.cap == 10000
    # the count needs no list, so it stays exact past the cap
    assert ffd_window(SEQ, parse_net(SEQ, "1:10,2:10,3:10,4:10")) == DivisorCount(14640, True)


def _brute_zero_tail_divisors(b):
    """Every nonzero net below a zero-tail b, by a product over its support."""
    idxs = b.support_indices()
    nets = [make_net(OMEGA, dict(zip(idxs, vs)))
            for vs in product(*(range(v + 1) for _, v in b.support))]
    return sorted((d for d in nets if not d.is_zero), key=_net_key)


@settings(max_examples=150, deadline=None)
@given(vals=st.dictionaries(st.sampled_from([1, 2, 3, 9, 10, 11, 20, 100]),
                            st.integers(1, 4), max_size=4))
@example(vals={2: 1, 10: 1})
@example(vals={})
def test_zero_tail_divisors_match_brute_force(vals):
    b = make_net(OMEGA, vals)
    divs = monoid_divisors(SEQ, b)
    assert divs == _brute_zero_tail_divisors(b)
    assert ffd_window(SEQ, b) == DivisorCount(len(divs), True)


def test_zero_tail_divisors_sort_indices_as_strings():
    # _net_key compares str(i), so index 10 sorts before index 2
    assert [str(d) for d in monoid_divisors(SEQ, parse_net(SEQ, "2:1,10:1"))] == [
        "(10:1, tail:0, inf:0)", "(2:1, tail:0, inf:0)", "(2:1, 10:1, tail:0, inf:0)"]


def _sorted_rows_divisors(b):
    """Oracle: the zero-tail listing that sorted, one row per support built
    beside its _net_key, extended one index at a time, sorted once."""
    rows = [((), ())]
    for i, v in b.support:
        s = str(i)
        rows = [(k + ((s, x),), sup + ((i, x),)) if x else (k, sup)
                for k, sup in rows for x in range(v + 1)]
    rows.sort()
    return [ValNet(b.index_set, sup) for _, sup in rows[1:]]


@settings(max_examples=200, deadline=None)
@given(vals=st.dictionaries(st.integers(1, 25), st.integers(1, 3), min_size=1, max_size=5))
@example(vals={2: 1, 10: 1, 25: 2})
@example(vals={1: 1, 3: 2, 12: 1, 20: 3, 9: 1})
def test_zero_tail_divisors_in_key_order_match_sorted_rows(vals):
    # indices 10-19 sort before 2, and 20-25 between 2 and 3
    b = make_net(OMEGA, vals)
    assert monoid_divisors(SEQ, b) == _sorted_rows_divisors(b)


def test_zero_tail_divisors_of_four_nines_and_past_the_cap(monkeypatch):
    b = parse_net(SEQ, "1:9,2:9,3:9,4:9")
    divs = monoid_divisors(SEQ, b)
    assert len(divs) == 9999 and divs == _sorted_rows_divisors(b)
    # 11**4 - 1 = 14,640 divisors: refused before a single net is built
    past_cap = parse_net(SEQ, "1:10,2:10,3:10,4:10")
    monkeypatch.setattr(vn, "_canon_net", None)
    with pytest.raises(CapExceeded) as err:
        monoid_divisors(SEQ, past_cap)
    assert err.value.cap == 10_000 and "14640 divisors" in str(err.value)


def test_zero_tail_divisor_cap_boundary(monkeypatch):
    # 73 * 137 - 1 = 10,000 divisors: listed in full
    at_cap = parse_net(SEQ, "1:72,2:136")
    divs = monoid_divisors(SEQ, at_cap)
    assert len(divs) == 10_000 and divs == _brute_zero_tail_divisors(at_cap)
    assert ffd_window(SEQ, at_cap) == DivisorCount(len(divs), True)
    # 2 * 3 * 1667 - 1 = 10,001: refused before a single net is built
    past_cap = parse_net(SEQ, "1:1,2:2,3:1666")
    monkeypatch.setattr(vn, "ValNet", None)
    with pytest.raises(CapExceeded) as err:
        monoid_divisors(SEQ, past_cap)
    assert err.value.cap == 10_000 and "10001 divisors" in str(err.value)


@pytest.mark.parametrize("b", [make_net(OMEGA, {1: 2}, tail=0, at_infinity=1),
                               make_net(OMEGA, {1: 2}, tail=1, at_infinity=2),
                               make_net(OMEGA, {}, tail=1, at_infinity=0)],
                         ids=str)
def test_non_member_sequence_net_has_no_divisors(b):
    # no cofactor b - d keeps the value at infinity equal to the tail
    assert not SEQ.contains(b)
    assert monoid_divisors(SEQ, b) == []
    assert ffd_window(SEQ, b) == DivisorCount(0, True)
    assert S_b(SEQ, b) == set()
    assert inf_S_b(SEQ, b) is None
    assert bfd_bound(SEQ, b) is None
    # no nonunit divisors: no family, the empty divisor set is covered, and
    # the only chain is b itself
    assert comaximal_family(SEQ, b, 1) is None
    assert comaximal_family(SEQ, b, 2) is None
    assert finite_cover_check(SEQ, b, [])
    assert finite_cover_check(SEQ, b, [1])
    assert accp_chain(SEQ, b, 1) == [b]
    assert accp_chain(SEQ, b, 2) is None
    assert accp_chain(SEQ, b, 3) is None


def test_s_b_and_bfd_bound():
    assert S_b(SEQ, B23) == {1, 2, 3, 4, 5}
    assert inf_S_b(SEQ, B23) == 1
    assert bfd_bound(SEQ, B23) == 5
    # W1 has mass 6 over indices 1 .. 1 + 6
    assert S_b(SEQ, W1, depth=6) == {1, 2, 3, 4, 5, 6, inf}
    assert inf_S_b(SEQ, omega_net(OMEGA, 40), depth=32) == 1
    assert bfd_bound(SEQ, W1) is None       # infinite length
    assert bfd_bound(SEQ, zero_net(OMEGA)) is None
    assert S_b(M3, fnet(1, 1)) == {1, 2}
    assert bfd_bound(M3, fnet(1, 1)) == 2
    assert S_b(M2, fnet(2, 2)) == {2, 4}
    assert bfd_bound(M2, fnet(2, 2)) == 2


# ---------------------------------------------------------------------------
# factorization


def test_factorizations_generated():
    facs = net_factorizations(M2, fnet(2, 2))
    assert len(facs) == 2
    shapes = {tuple(sorted(str(a) for a in f)) for f in facs}
    assert shapes == {("(M1:1, M2:1)", "(M1:1, M2:1)"), ("(M1:2)", "(M2:2)")}
    for f in facs:
        assert reduce(net_add, f.atoms) == fnet(2, 2)
    # the redundant generator (1,1) = (1,0) + (0,1) never appears as an atom
    facs3 = net_factorizations(M3, fnet(1, 1))
    assert len(facs3) == 1 and facs3[0].length == 2


def test_factorizations_edge_cases():
    assert net_factorizations(M2, fnet(1, 0)) == ()
    with pytest.raises(ValueError):
        net_factorizations(M2, zero_net(FIN))
    with pytest.raises(ValueError):
        net_factorizations(SEQ, B23)
    # (8, 8) = k (1, 1) + (8 - k)/2 ((2, 0) + (0, 2)) for k = 0, 2, 4, 6, 8
    assert len(net_factorizations(M2, fnet(8, 8))) == 5


def test_find_atomic_sequence():
    out = find_atomic_factorization(SEQ, B23)
    assert out.status == "found" and bool(out)
    assert out.value.length == 5
    assert reduce(net_add, out.value.atoms) == B23
    pend = find_atomic_factorization(SEQ, W1)
    assert pend.status == "none_within_depth" and not bool(pend)
    assert find_atomic_factorization(SEQ, Q).status == "none_within_depth"
    with pytest.raises(ValueError):
        find_atomic_factorization(SEQ, make_net(OMEGA, {}, tail=1, at_infinity=0))
    with pytest.raises(ValueError):
        find_atomic_factorization(SEQ, zero_net(OMEGA))


def test_find_atomic_generated():
    assert find_atomic_factorization(M2, fnet(2, 2)).status == "found"
    assert find_atomic_factorization(M2, fnet(1, 0)).status == "proven_none"
    deep = find_atomic_factorization(M2, fnet(8, 8), depth=3)
    assert deep.status == "found"
    assert reduce(net_add, deep.value.atoms) == fnet(8, 8)


def test_find_atomic_skips_a_reducible_declared_atom():
    # M3 declares (1,1) = (1,0) + (0,1): it is no atom
    for b in (fnet(1, 1), fnet(3, 2), fnet(0, 4)):
        out = find_atomic_factorization(M3, b)
        assert out.status == "found" and out.value == net_factorizations(M3, b)[0]
        assert fnet(1, 1) not in out.value.atoms
    # here the reducible (P:1,Q:1,R:1) = (P:1,R:1) + (Q:1) sorts before both
    triple = finite_indices("P", "Q", "R")
    m = generated_monoid(triple, [parse_net(triple, text) for text in (
        "P:1,R:1", "Q:1", "P:1,Q:1,R:1")])
    assert _net_key(m.atoms[2]) < min(_net_key(m.atoms[0]), _net_key(m.atoms[1]))
    for text in ("P:1,Q:1,R:1", "P:2,Q:3,R:2"):
        b = parse_net(triple, text)
        out = find_atomic_factorization(m, b)
        assert out.status == "found" and out.value == net_factorizations(m, b)[0]
        assert m.atoms[2] not in out.value.atoms


def test_find_atomic_generated_answers_fast():
    # 15,822 members below b; listing every factorization to keep the first
    # ran for more than 30 s
    labels = finite_indices("L0:dense", "L1:dense", "L2")
    m = generated_monoid(labels, [parse_net(labels, text) for text in (
        "L1:3/2,L2:2", "L0:2,L2:1", "L1:1,L2:1", "L0:1,L1:3/2,L2:2")])
    b = parse_net(labels, "L0:41,L1:33,L2:58")
    start = time.perf_counter()
    out = find_atomic_factorization(m, b)
    assert time.perf_counter() - start < 5
    assert out.status == "found" and reduce(net_add, out.value.atoms) == b
    assert [_net_key(a) for a in out.value.atoms] == sorted(map(_net_key, out.value.atoms))


def test_accp_chain_sequence():
    chain = accp_chain(SEQ, W1, 10)
    assert chain == [omega_net(OMEGA, k) for k in range(1, 11)]
    chain50 = accp_chain(SEQ, W1, 50)
    assert len(chain50) == 50
    for cur, nxt in zip(chain50, chain50[1:]):
        assert net_lt(nxt, cur) and divides(nxt, cur)
    # zero tail runs out after ||b|| - 1 strict descents
    assert accp_chain(SEQ, B23, 5) is not None
    assert accp_chain(SEQ, B23, 6) is None


def test_accp_chain_generated():
    chain = accp_chain(M2, fnet(2, 2), 2)
    assert chain is not None and len(chain) == 2
    assert divides(chain[1], chain[0]) and chain[1] != chain[0]
    assert accp_chain(M2, fnet(2, 2), 4) is None
    assert accp_chain(M2, fnet(2, 2), 0) is None


@pytest.fixture
def table_builds(monkeypatch):
    """The argument tuples of every _Table built during the test, which
    starts and ends with no table kept."""
    vn._table.cache_clear()
    builds = []

    class CountingTable(vn._Table):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(vn, "_Table", CountingTable)
    yield builds
    vn._table.cache_clear()


def test_consecutive_queries_on_one_net_share_a_table(table_builds):
    b = fnet(6, 4)
    assert S_b(M2, b) == {length(d) for d in monoid_divisors(M2, b)}
    assert len(table_builds) == 1
    assert inf_S_b(M2, b) == 2
    assert len(table_builds) == 1
    divs = monoid_divisors(M2, b)
    assert ffd_window(M2, b) == DivisorCount(len(divs), True)
    assert len(table_builds) == 1
    # another net builds its own table, and only the last one is kept
    assert M2.contains(fnet(4, 4))
    assert len(table_builds) == 2
    assert ffd_window(M2, b) == DivisorCount(len(divs), True)
    assert [args[1] for args in table_builds] == [b, fnet(4, 4), b]


def test_accp_chain_of_one_needs_no_enumeration(table_builds):
    assert accp_chain(M2, fnet(40, 40), 1) == [fnet(40, 40)]
    assert table_builds == []
    # (40, 40) needs 40 atoms, and the table holds them all
    assert accp_chain(M2, fnet(40, 40), 2) == [fnet(40, 40), fnet(1, 1)]
    assert len(table_builds) == 1


def test_idempotent_cover_check_keeps_the_query_table(table_builds):
    # the check reads the atoms in a table of its own, so the query table
    # of the last net is still there for the next query on it
    m = load_net_monoid(Path(__file__).parent / "golden" / "cli" / "m2.net")
    b = parse_net(m, "M1:3,M2:3")
    lengths = S_b(m, b)
    assert idempotent_cover_check(m)
    assert S_b(m, b) == lengths
    assert len(table_builds) == 2
    assert [args[1] for args in table_builds] == [b, m.zero()]


def _accp_dfs(m, b, k):
    """Oracle: the chain search before memoization, a depth-first search
    over the sorted proper divisors of each member."""
    if k == 1:
        return [b]
    t = vn._Table(m, b)

    def extend(cur, need):
        if need == 0:
            return []
        for d in sorted(t.divisors(cur), key=t.key):
            if d == cur:
                continue
            rest = extend(d, need - 1)
            if rest is not None:
                return [d] + rest
        return None

    tail = extend(t.vec(b), k - 1)
    return None if tail is None else [b] + [t.net(d) for d in tail]


def test_accp_chain_matches_dfs():
    # the longest chain from a member (n1, n2) of M2 has (n1 + n2) // 2
    # members, so k up to one past it checks found and not-found searches
    for n1 in range(7):
        for n2 in range(7):
            b = fnet(n1, n2)
            if b.is_zero:
                continue
            for k in range(1, (n1 + n2) // 2 + 2):
                assert accp_chain(M2, b, k) == _accp_dfs(M2, b, k), (n1, n2, k)


# ---------------------------------------------------------------------------
# supports, comaximal families, covers


@dataclass(frozen=True)
class MaxSupport:
    """Oracle: the index region where a net is positive. cofinite=False:
    exactly the `positive` indices. cofinite=True: every finite index except
    the listed `excluded` zeros. at_infinity flags the infinite point.
    """

    positive: tuple = ()
    excluded: tuple = ()
    cofinite: bool = False
    at_infinity: bool = False


def max_of(b: ValNet) -> MaxSupport:
    return MaxSupport(positive=tuple(i for i, v in b.support if v > 0),
                      excluded=tuple(i for i, v in b.support if v == 0) if b.tail > 0 else (),
                      cofinite=b.tail > 0, at_infinity=b.at_infinity > 0)


def _disjoint(x: MaxSupport, y: MaxSupport) -> bool:
    if (x.cofinite and y.cofinite) or (x.at_infinity and y.at_infinity):
        return False
    if x.cofinite:
        x, y = y, x
    if y.cofinite:
        return all(i in y.excluded for i in x.positive)
    return not set(x.positive) & set(y.positive)


def _seq_comax_scan(b, k, depth=64):
    """Oracle: the first k indices i <= max(support) + depth where b is
    positive, as atoms e_i."""
    idxs = [i for i in range(1, max([*b.support_indices(), 0]) + depth + 1)
            if b.value_at(i) > 0]
    return [e_net(b.index_set, i) for i in idxs[:k]] if len(idxs) >= k >= 1 else None


def _seq_cover_scan(b, candidate, depth=64):
    """Oracle: every index i <= max(support, candidates) + depth where b
    is positive is a candidate."""
    fin = [i for i in candidate if i != INF_INDEX]
    hi = max([*b.support_indices(), *fin, 0]) + depth
    return all(b.value_at(i) == 0 or i in candidate for i in range(1, hi + 1))


@given(b=omega_nets(), k=st.integers(0, 8),
       cand=st.lists(st.sampled_from((1, 2, 3, 5, 8, 9, INF_INDEX)), max_size=5))
def test_sequence_comax_and_cover_match_index_scans(b, k, cand):
    b = make_net(OMEGA, dict(b.support), b.tail, b.tail)  # a member
    assert comaximal_family(SEQ, b, k) == _seq_comax_scan(b, k)
    assert finite_cover_check(SEQ, b, cand) == _seq_cover_scan(b, cand)


def _comax_oracle(m, b, k, depth=16):
    """Oracle: k pairwise disjoint divisors from the monoid_divisors pool."""
    pool = monoid_divisors(m, b, depth)

    def pick(start, acc):
        if len(acc) == k:
            return acc
        for j in range(start, len(pool)):
            if all(_disjoint(max_of(pool[j]), max_of(d)) for d in acc):
                got = pick(j + 1, acc + [pool[j]])
                if got is not None:
                    return got
        return None
    return pick(0, []) if k >= 1 else None


def _cover_oracle(m, b, candidate, depth=32):
    """Oracle: every divisor from monoid_divisors is positive at a candidate."""
    return all(any(d.value_at(i) > 0 for i in candidate)
               for d in monoid_divisors(m, b, depth))


def test_comaximal_sequence():
    fam = comaximal_family(SEQ, B23, 2)
    assert fam == [e_net(OMEGA, 1), e_net(OMEGA, 3)]
    assert comaximal_family(SEQ, B23, 3) is None
    fam5 = comaximal_family(SEQ, W1, 5)
    assert len(fam5) == 5
    for d in fam5:
        assert divides(d, W1)
    for i, x in enumerate(fam5):
        for y in fam5[i + 1:]:
            assert _disjoint(max_of(x), max_of(y))


def test_comaximal_generated():
    fam = comaximal_family(M2, fnet(2, 2), 2)
    assert fam is not None
    assert sorted(str(d) for d in fam) == ["(M1:2)", "(M2:2)"]
    assert comaximal_family(M2, fnet(2, 2), 3) is None


def test_comaximal_generated_without_family_answers_fast():
    # 68,481 members below b; a search over k-subsets of every divisor ran
    # for minutes before answering None
    labels = finite_indices("L0:dense", "L1:dense", "L2")
    m = generated_monoid(labels, [parse_net(labels, text) for text in (
        "L0:3/2,L1:1/3,L2:2", "L1:1/2,L2:2", "L0:3/2,L1:1,L2:1", "L0:3/2,L1:3/2,L2:1")])
    b = parse_net(labels, "L0:81/2,L1:203/6,L2:66")
    start = time.perf_counter()
    assert comaximal_family(m, b, 2) is None
    assert comaximal_family(m, b, 3) is None
    assert time.perf_counter() - start < 5


def test_finite_cover_sequence():
    assert finite_cover_check(SEQ, B23, [1, 3])
    assert not finite_cover_check(SEQ, B23, [1])
    assert not finite_cover_check(SEQ, Q, [1, 2, 3])
    assert not finite_cover_check(SEQ, W1, [2, 3, 4])
    with pytest.raises(ValueError):
        finite_cover_check(SEQ, B23, [0])


def test_finite_cover_generated():
    assert finite_cover_check(M2, fnet(2, 2), ["M1", "M2"])
    assert not finite_cover_check(M2, fnet(2, 2), ["M1"])
    with pytest.raises(ValueError):
        finite_cover_check(M2, fnet(2, 2), ["M3"])


def test_idempotent_cover():
    assert idempotent_cover_check(SEQ)
    both = generated_monoid(MIX, [make_net(MIX, {"M1": 1, "M2": 1})])
    assert idempotent_cover_check(both)
    dense_only = generated_monoid(MIX, [make_net(MIX, {"M1": 1})])
    assert not idempotent_cover_check(dense_only)
    disc_only = generated_monoid(MIX, [make_net(MIX, {"M2": 1})])
    assert idempotent_cover_check(disc_only)
    # over omega plus a dense point: positive only at infinity, then also in the tail
    inf_only = generated_monoid(DENSE_POINT, [make_net(DENSE_POINT, {}, 0, Fraction(1, 2))])
    assert not idempotent_cover_check(inf_only)
    tailed = generated_monoid(DENSE_POINT, [make_net(DENSE_POINT, {}, 1, Fraction(1, 2))])
    assert idempotent_cover_check(tailed)


def test_ffd_window():
    assert ffd_window(SEQ, B23) == DivisorCount(11, True)
    trunc = ffd_window(SEQ, W1)
    assert not trunc.exact and trunc.count > 0
    assert ffd_window(M2, fnet(2, 2)) == DivisorCount(4, True)
    assert str(DivisorCount(4, True)) == "4"
    assert "depth" in str(DivisorCount(4, False))


@settings(max_examples=100, deadline=None)
@given(b=omega_nets(), depth=st.integers(1, 4))
@example(b=W1, depth=4)
def test_ffd_window_counts_the_divisor_list(b, depth):
    # a positive tail's count comes without listing; it must match the list
    assert ffd_window(SEQ, b, depth).count == len(monoid_divisors(SEQ, b, depth))


@pytest.mark.parametrize("b", [W1, Q, omega_net(OMEGA, 3),
                               make_net(OMEGA, {2: 3}, tail=1, at_infinity=1)], ids=str)
def test_ffd_window_counts_the_default_divisor_list(b):
    # with their defaults both read one window, so the count is the list's
    divs = monoid_divisors(SEQ, b)
    assert ffd_window(SEQ, b) == DivisorCount(len(divs), False)


def test_every_depth_parameter_has_one_default():
    fns = [f for name, f in vars(vn).items() if inspect.isfunction(f)
           and f.__module__ == vn.__name__ and not name.startswith("_")]
    defaults = {f.__name__: inspect.signature(f).parameters["depth"].default
                for f in fns + [vn.NetMonoid.contains]
                if "depth" in inspect.signature(f).parameters}
    assert {"contains", "monoid_divisors", "S_b", "ffd_window"} <= set(defaults)
    assert set(defaults.values()) == {vn.DEFAULT_DEPTH}, defaults


def test_ffd_window_counts_a_capped_tail_list(monkeypatch):
    monkeypatch.setattr(vn, "_DIVISOR_CAP", 50)
    # q over 8 indices has 255 nonzero finite nets below it, cut to 50
    for depth, count in ((3, 11), (8, 59)):
        assert len(monoid_divisors(SEQ, Q, depth)) == count
        assert ffd_window(SEQ, Q, depth) == DivisorCount(count, False)


def test_ffd_window_exact_at_any_depth():
    # (30, 30) needs 30 atoms, more than the depth: the count stays exact
    shallow = ffd_window(M2, fnet(30, 30), depth=16)
    assert shallow == ffd_window(M2, fnet(30, 30), depth=64) == DivisorCount(480, True)
    assert len(monoid_divisors(M2, fnet(30, 30), depth=16)) == 480


# ---------------------------------------------------------------------------
# the integer member table against the ValNet BFS it replaced


def _bfs_members(m, b):
    """Oracle: every member <= b by breadth-first atom sums over ValNets,
    run until no layer grows."""
    zero = m.zero()
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in m.atoms:
                y = net_add(x, g)
                if y not in seen and net_leq(y, b):
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _bfs_divisors(mem, x):
    return sorted((d for d in mem if not d.is_zero and net_sub(x, d) in mem),
                  key=_net_key)


def _bfs_factorizations(mem, b):
    atoms = [a for a in _bfs_divisors(mem, b) if _bfs_divisors(mem, a) == [a]]

    def facts(x, start):
        if x.is_zero:
            return [()]
        out = []
        for j in range(start, len(atoms)):
            rest = net_sub(x, atoms[j])
            if rest in mem:
                out += [(atoms[j],) + f for f in facts(rest, j)]
        return out
    return sorted(facts(b, 0), key=lambda f: [_net_key(a) for a in f])


DENSE_THIRDS = finite_indices("X:dense", "Y")
DENSE_ATOMS = ({"X": Fraction(1, 2), "Y": 1}, {"X": Fraction(1, 3)}, {"Y": 2})


@st.composite
def small_generated(draw):
    """A generated monoid on 1-3 labels, a nonzero net near its members
    (sometimes off their lattice) and a search depth."""
    n = draw(st.integers(1, 3))
    tags = draw(st.lists(st.sampled_from((DISCRETE, DENSE)), min_size=n, max_size=n))
    iset = finite_indices(*(f"L{i}:{t}" for i, t in enumerate(tags)))
    values = {DISCRETE: st.integers(0, 3),
              DENSE: st.sampled_from((0, Fraction(1, 2), Fraction(1, 3), 1, Fraction(3, 2)))}
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        vals = {lab: draw(values[iset.tag_of(lab)]) for lab in iset.labels}
        if not any(vals.values()):
            vals[iset.labels[0]] = 1
        atoms.append(vals)
    return _case(iset, atoms, draw(st.lists(st.integers(0, 3), min_size=len(atoms),
                                            max_size=len(atoms))),
                 draw(st.sampled_from((0, 0, 1, Fraction(1, 5)))), draw(st.integers(0, 8)))


def _case(iset, atoms, mults, nudge, depth):
    m = generated_monoid(iset, [make_net(iset, a) for a in atoms])
    vals = {lab: sum(k * a.get(lab, 0) for k, a in zip(mults, atoms)) for lab in iset.labels}
    lab = iset.labels[-1]
    if nudge and (iset.tag_of(lab) == DENSE or nudge == 1):
        vals[lab] += nudge
    b = make_net(iset, vals)
    return m, (b if not b.is_zero else m.atoms[0]), depth


@st.composite
def small_omega_generated(draw):
    """A generated monoid over omega plus a point, with atoms on indices
    1-3 that may carry a tail and a (dense) value at infinity, which need
    not follow the tail, a nonzero net near its members and a search depth."""
    tag = draw(st.sampled_from((DISCRETE, DENSE)))
    iset = omega_indices(tag)
    at_inf = st.sampled_from((0, 1) if tag == DISCRETE else (0, Fraction(1, 2), Fraction(1, 3)))
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        tail = draw(st.integers(0, 1))
        vals = draw(st.dictionaries(st.integers(1, 3), st.integers(0, 2), max_size=2))
        g = make_net(iset, vals, tail, draw(st.sampled_from((tail, 0))) + draw(at_inf))
        atoms.append(g if not g.is_zero else e_net(iset, 1))
    mults = draw(st.lists(st.integers(0, 3), min_size=len(atoms), max_size=len(atoms)))
    b = reduce(net_add, [g for g, k in zip(atoms, mults) for _ in range(k)], zero_net(iset))
    # sometimes step off the members: at an index past every support, or at infinity
    nudge = draw(st.sampled_from((None, None, 5, INF_INDEX)))
    if nudge == 5:
        b = net_add(b, e_net(iset, 5))
    elif nudge == INF_INDEX:
        b = net_add(b, make_net(iset, {}, 0, 1))
    return generated_monoid(iset, atoms), (b if not b.is_zero else atoms[0]), draw(st.integers(0, 8))


@settings(max_examples=150, deadline=None)
@given(case=small_generated())
@example(case=_case(DENSE_THIRDS, DENSE_ATOMS, (2, 3, 1), 0, 8))
@example(case=_case(DENSE_THIRDS, DENSE_ATOMS, (1, 1, 1), Fraction(1, 5), 8))
def test_member_table_agrees_with_bfs(case):
    _check_table_against_bfs(*case)


@settings(max_examples=100, deadline=None)
@given(case=small_omega_generated())
def test_member_table_over_omega_agrees_with_bfs(case):
    _check_table_against_bfs(*case)


TRIO = finite_indices("A", "B", "C")


def _trio(atoms, b):
    return generated_monoid(TRIO, [parse_net(TRIO, a) for a in atoms]), parse_net(TRIO, b)


def _omega(iset, atoms, b):
    return generated_monoid(iset, [make_net(iset, *a) for a in atoms]), make_net(iset, *b)


# the table packs each coordinate into a field one bit wider than b's largest
# coordinate, whose top bit guards the bound test
@pytest.mark.parametrize("m, b", [
    # a top of 2**3 - 1 fills its field but the guard bit; 2**3 widens it
    _trio(["A:1", "B:1", "A:3,C:1"], "A:7,B:2,C:1"),
    _trio(["A:1", "B:1", "A:3,C:1"], "A:8,B:2,C:1"),
    # A:7 + A:7 = 14 sets the guard bit of A's 4-bit field; the fields of B
    # and C above it must read as before, so (7, 1, 0) stays a member and
    # (14, 1, 0) is none
    _trio(["A:7", "A:1", "B:1"], "A:7,B:1,C:1"),
    _trio(["A:8", "B:1,C:1", "C:1"], "A:8,B:1,C:2"),
    # an atom above b in one coordinate takes no part; packed into 5-bit
    # fields, A:32 would read as B:1
    _trio(["A:1", "A:9", "B:5,C:1", "B:1"], "A:8,B:2"),
    _trio(["A:1", "A:32"], "A:8,B:1"),
    _trio(["A:2,B:1", "B:3"], "A:1,B:1"),
    # scale 6 at the dense label, with b off the lattice there
    (generated_monoid(DENSE_THIRDS, [make_net(DENSE_THIRDS, a) for a in DENSE_ATOMS]),
     make_net(DENSE_THIRDS, {"X": Fraction(11, 6), "Y": 3})),
    (generated_monoid(DENSE_THIRDS, [make_net(DENSE_THIRDS, a) for a in DENSE_ATOMS]),
     make_net(DENSE_THIRDS, {"X": Fraction(7, 5), "Y": 2})),
    # over omega plus a point: the tail and infinity columns are fields too
    _omega(OMEGA, [({1: 0}, 1, 1), ({2: 1},), ({}, 0, 1)], ({1: 1, 2: 3}, 2, 3)),
    _omega(DENSE_POINT, [({1: 0}, 1, Fraction(1, 2)), ({}, 0, Fraction(1, 3)), ({3: 2},)],
           ({3: 4}, 1, Fraction(7, 6))),
])
def test_packed_member_walk_edge_cases(m, b):
    _check_table_against_bfs(m, b, 8)


def test_generated_over_omega_sees_every_index():
    m = generated_monoid(OMEGA, [e_net(OMEGA, 1)])
    assert not m.contains(e_net(OMEGA, 5))
    assert m.contains(make_net(OMEGA, {1: 3}))
    assert monoid_divisors(m, make_net(OMEGA, {1: 2})) == [e_net(OMEGA, 1),
                                                        make_net(OMEGA, {1: 2})]
    assert monoid_divisors(m, make_net(OMEGA, {1: 2, 5: 1})) == []
    assert net_factorizations(m, e_net(OMEGA, 5)) == ()


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(small_generated(), small_omega_generated()))
@example(case=(M3, fnet(3, 3), 8))
def test_find_atomic_is_the_first_factorization(case):
    m, b, depth = case
    facts = net_factorizations(m, b)
    out = find_atomic_factorization(m, b, depth)
    assert (out.status, out.value) == (("found", facts[0]) if facts else ("proven_none", None))


def _idempotent_oracle(m):
    """Every atom positive at a dense index is positive at a discrete one,
    read index by index: over omega plus a point, indices 1 to two past the
    last support index (the tail shows there) and infinity."""
    iset = m.index_set
    if iset.kind == "finite":
        indices = list(iset.labels)
    else:
        top = max((i for g in m.atoms for i in g.support_indices()), default=0)
        indices = [*range(1, top + 3), INF_INDEX]
    for g in m.atoms:
        tags = {iset.tag_of(i) for i in indices if g.value_at(i) > 0}
        if DENSE in tags and DISCRETE not in tags:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(small_generated(), small_omega_generated()))
def test_idempotent_cover_agrees_with_atom_oracle(case):
    m = case[0]
    assert idempotent_cover_check(m) == _idempotent_oracle(m)


# two atoms positive from index 2 (resp. 4) on, but zero at infinity: only
# the tail coordinate shows that they overlap
TAILED = generated_monoid(OMEGA, [make_net(OMEGA, {1: 0}, 1, 0),
                                  make_net(OMEGA, {1: 0, 2: 0, 3: 0}, 1, 0)])


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(small_generated(), small_omega_generated()),
       cand=st.lists(st.sampled_from(("L0", "L1", "L2", 1, 2, 3, 4, 6, 9, INF_INDEX)),
                     max_size=4))
@example(case=(TAILED, reduce(net_add, TAILED.atoms), 8), cand=[7])
def test_comax_and_cover_agree_with_support_oracles(case, cand):
    # atoms of small_omega_generated sit on indices 1-3 (5 at most for b),
    # so 4, 6 and 9 are off every support and read the tail
    m, b, depth = case
    cand = [i for i in cand if m.index_set.valid_index(i)]
    for k in (1, 2, 3):
        assert comaximal_family(m, b, k, depth) == _comax_oracle(m, b, k, depth)
    assert finite_cover_check(m, b, cand, depth) == _cover_oracle(m, b, cand, depth)


def test_comax_and_cover_build_one_table_and_list_no_divisors(monkeypatch, table_builds):
    listed = []
    monkeypatch.setattr(vn, "monoid_divisors", lambda *a: listed.append(a))
    assert comaximal_family(M2, fnet(4, 4), 2) == [fnet(2, 0), fnet(0, 2)]
    assert len(table_builds) == 1
    assert not finite_cover_check(M2, fnet(4, 4), ["M1"])
    assert len(table_builds) == 1 and listed == []


def _check_table_against_bfs(m, b, depth):
    # the full member set, whatever the (ignored) depth
    mem = _bfs_members(m, b)
    t = vn._Table(m, b)
    assert {t.net(v) for v in t.members} == mem
    assert m.contains(b, depth) == (b in mem)
    assert monoid_divisors(m, b, depth) == _bfs_divisors(mem, b)
    assert ffd_window(m, b, depth) == DivisorCount(len(_bfs_divisors(mem, b)), True)
    assert [f.atoms for f in net_factorizations(m, b)] == _bfs_factorizations(mem, b)


HALVES = finite_indices("X:dense", "Y:dense")


def _typed(values):
    return {(type(v), v) for v in values}


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(small_generated(), small_omega_generated()))
@example(case=_case(HALVES, ({"X": Fraction(1, 2)}, {"Y": Fraction(1, 2)}, {"X": 1}),
                    (3, 1, 0), 0, 8))
@example(case=_case(DENSE_THIRDS, DENSE_ATOMS, (2, 3, 1), 0, 8))
@example(case=(*_omega(DENSE_POINT, [({1: 0}, 1, Fraction(1, 2)), ({}, 0, Fraction(1, 3)),
                                     ({3: 2},)], ({1: 0, 3: 3}, 1, Fraction(7, 6))), 8))
def test_s_b_is_the_length_set_of_the_divisor_nets(case):
    # equal in value and in type: the halves of two dense labels sum to
    # Fraction(1), which S_b must not turn into the int 1, nor the reverse
    m, b, depth = case
    t = vn._Table(m, b)
    nets = [t.net(d) for d in t.divisors(t.vec(b))]
    assert _typed(S_b(m, b, depth)) == _typed({length(d) for d in nets})
    if m.index_set == HALVES:
        assert {(int, 1), (Fraction, 1)} <= _typed(length(d) for d in nets)


def test_length_sets_build_no_nets(monkeypatch):
    calls = []
    net = vn._Table.net
    monkeypatch.setattr(vn._Table, "net", lambda t, v: calls.append(v) or net(t, v))
    dense = generated_monoid(DENSE_THIRDS, [make_net(DENSE_THIRDS, a) for a in DENSE_ATOMS])
    m_omega, b_omega = _omega(DENSE_POINT, [({1: 0}, 1, Fraction(1, 2)), ({}, 0, Fraction(1, 3)),
                                            ({3: 2},)], ({3: 4}, 0, Fraction(2, 3)))
    for m, b in ((M2, fnet(6, 4)), (dense, make_net(DENSE_THIRDS, {"X": Fraction(11, 6), "Y": 3})),
                 (m_omega, b_omega)):
        assert S_b(m, b) and inf_S_b(m, b) > 0 and bfd_bound(m, b) >= 1
        assert calls == []
    # the wrapper does see the nets a divisor list builds
    monoid_divisors(M2, fnet(6, 4))
    assert calls


def test_one_member_table_per_factorization_call(table_builds):
    triple = finite_indices("P", "Q", "R")
    m = generated_monoid(triple, [parse_net(triple, text) for text in (
        "P:1,Q:1", "Q:1,R:1", "P:1,R:1", "P:2", "Q:3", "R:2")])
    b = parse_net(m, "P:8,Q:8,R:8")
    facts = net_factorizations(m, b)
    assert len(table_builds) == 1
    assert len(facts) == 27
    for f in facts:
        assert reduce(net_add, f.atoms) == b


# ---------------------------------------------------------------------------
# eps values and ideal norms


def test_eps_add_identities():
    # attained values add plainly
    assert eps_add(EpsVal(2), EpsVal(3), DISCRETE) == EpsVal(5, True)
    # a dangling eps in a discrete group is a full step
    assert eps_add(EpsVal(1, False), EpsVal(2, True), DISCRETE) == EpsVal(4, True)
    # in a dense group the eps survives
    assert eps_add(EpsVal(1, False), EpsVal(2, True), DENSE) == EpsVal(3, False)
    assert eps_add(EpsVal(1, False), EpsVal(2, False), DENSE) == EpsVal(3, False)
    assert str(EpsVal(2, False)) == "2+eps"
    assert str(EpsVal(2)) == "2"


def test_ideal_norm():
    n = ideal_norm(SEQ, [B23, e_net(OMEGA, 1)])
    assert n[1] == EpsVal(1, True)
    assert n[3] == EpsVal(0, True)
    assert n["tail"] == EpsVal(0, True)
    assert n["inf"] == EpsVal(0, True)
    m = ideal_norm(SEQ, [W1, omega_net(OMEGA, 2)])
    assert m["tail"] == EpsVal(1, True)
    assert m[1] == EpsVal(0, True) and m[2] == EpsVal(0, True)
    with pytest.raises(ValueError):
        ideal_norm(SEQ, [])
    with pytest.raises(IndexMismatch):
        ideal_norm(SEQ, [fnet(1, 0)])


def test_ideal_norm_product_additivity():
    assert ideal_norm_product_check(SEQ, [e_net(OMEGA, 1)], [e_net(OMEGA, 1)])
    assert ideal_norm_product_check(SEQ, [B23, e_net(OMEGA, 1)], [W1])
    assert ideal_norm_product_check(SEQ, [W1, omega_net(OMEGA, 3)], [Q, B23])
    assert ideal_norm_product_check(M2, [fnet(2, 0)], [fnet(0, 2), fnet(1, 1)])


@given(st.data())
def test_ideal_norm_product_random(data):
    members = st.builds(
        lambda vals, tail: make_net(OMEGA, vals, tail=tail),
        st.dictionaries(st.integers(1, 6), st.integers(0, 3), max_size=4),
        st.integers(0, 2),
    )
    gens_i = data.draw(st.lists(members, min_size=1, max_size=3))
    gens_j = data.draw(st.lists(members, min_size=1, max_size=3))
    assert ideal_norm_product_check(SEQ, gens_i, gens_j)


# ---------------------------------------------------------------------------
# parsing and monoid files


def test_parse_value():
    assert parse_value("1/2") == Fraction(1, 2)
    assert parse_value(" 3 ") == 3
    assert isinstance(parse_value("4/2"), Fraction)


def test_parse_net_named():
    assert parse_net(SEQ, "q") == Q
    assert parse_net(SEQ, "0") == zero_net(OMEGA)
    assert parse_net(SEQ, "omega3") == omega_net(OMEGA, 3)
    assert parse_net(SEQ, "w3") == omega_net(OMEGA, 3)
    assert parse_net(SEQ, "e7") == e_net(OMEGA, 7)
    assert parse_net(OMEGA, "e7") == e_net(OMEGA, 7)  # bare index set works


def test_parse_net_sparse():
    got = parse_net(SEQ, "1:2, 3:1, tail:1, inf:1")
    assert got == make_net(OMEGA, {1: 2, 3: 1}, tail=1, at_infinity=1)
    assert parse_net(M2, "M1:2,M2:2") == fnet(2, 2)
    half = parse_net(MIX, "M1:1/2")
    assert half.value_at("M1") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_net(SEQ, "garbage")
    with pytest.raises(ValueError):
        parse_net(M2, "M9:1")


@pytest.mark.parametrize("m, text, key", [
    (M2, "M1:1,M1:2", "M1"),
    (SEQ, "1:1, 3:2, 1:2", "1"),
    (SEQ, "01:1,1:1", "1"),
    (SEQ, "tail:1,2:1,tail:0", "tail"),
    (SEQ, "inf:1,inf:1", "inf"),
    (M2, "M1:1,inf:0,inf:0", "inf"),
])
def test_parse_net_refuses_a_repeated_index(m, text, key):
    # the last value used to win silently
    with pytest.raises(ValueError, match=f"^{key} is given twice in net "):
        parse_net(m, text)


def test_load_net_monoid_generated(tmp_path):
    p = tmp_path / "mono.valnet"
    p.write_text(
        "# a two-generator test monoid\n"
        "indexset finite M1:dense M2:discrete\n"
        "kind generated\n"
        "name mixed pair\n"
        "atom M1:1/2,M2:1\n"
        "atom M2:1\n",
        encoding="utf-8",
    )
    m = load_net_monoid(p)
    assert m.kind == "generated" and m.name == "mixed pair"
    assert len(m.atoms) == 2
    assert m.atoms[0].value_at("M1") == Fraction(1, 2)
    assert m.contains(net_add(m.atoms[0], m.atoms[1]))


def test_load_net_monoid_sequence(tmp_path):
    p = tmp_path / "seq.valnet"
    p.write_text(
        "indexset omega_plus_point dense\n"
        "kind sequence_domain\n",
        encoding="utf-8",
    )
    m = load_net_monoid(p)
    assert m.kind == "sequence_domain"
    assert m.index_set.infinity_tag == DENSE
    assert m.contains(parse_net(m, "q"))


def test_load_net_monoid_errors(tmp_path):
    p = tmp_path / "bad.valnet"
    p.write_text("indexset omega_plus_point\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_net_monoid(p)
    p.write_text("frobnicate 3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_net_monoid(p)
    p.write_text("indexset finite A B\nkind generated\natom A:1,A:2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="A is given twice"):
        load_net_monoid(p)
