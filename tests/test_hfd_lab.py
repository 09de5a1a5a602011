"""Half-factoriality verdicts, elasticity by Davenport, and the full
imaginary classification table. Every not_hfd witness is re-multiplied.
"""

import json
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from normset_lab import (
    BadDiscriminant,
    WitnessSearchExhausted,
    bounded_hfd_check,
    carlitz_verdict,
    classification_check,
    elasticity_via_davenport,
    order_hfd_witness,
    order_of,
)
from normset_lab import hfd_lab, monoid_core
from normset_lab.hfd_lab import HFD_DS, UFD_DS
from normset_lab.arith import factorize, is_squarefree
from normset_lab.class_groups import class_number
from normset_lab.cli import main
from normset_lab.monoid_core import FactorMultiset, FactorSession
from normset_lab.quadratic import QuadElem, _element_kernel, canonical_associate, factor_element


def _remultiplies(verdict) -> bool:
    short, long_ = verdict.witness
    return (canonical_associate(reduce(mul, short.atoms)) == verdict.element
            and canonical_associate(reduce(mul, long_.atoms)) == verdict.element)


# ---------------------------------------------------------------------------
# class-number dichotomy


def test_carlitz_ufd_and_hfd():
    for d in (-1, -2, -163):
        v = carlitz_verdict(order_of(d))
        assert v.verdict == "ufd" and bool(v)
        assert v.witness is None and v.method == "carlitz"
    for d in (-5, -10, -15):
        v = carlitz_verdict(order_of(d))
        assert v.verdict == "hfd" and bool(v)


def test_carlitz_witness_d_minus_14():
    v = carlitz_verdict(order_of(-14))
    assert v.verdict == "not_hfd" and not bool(v)
    assert str(v.element) == "18+0*w"
    short, long_ = v.witness
    assert (short.length, long_.length) == (2, 3)
    assert sorted(str(a) for a in short) == ["-2+1*w", "2+1*w"]
    assert sorted(str(a) for a in long_) == ["2+0*w", "3+0*w", "3+0*w"]
    assert _remultiplies(v)


def test_carlitz_rejects_wrong_orders():
    with pytest.raises(ValueError):
        carlitz_verdict(order_of(34))
    with pytest.raises(ValueError):
        carlitz_verdict(order_of(-3, 2))


def test_carlitz_tiny_bound_exhausts(monkeypatch):
    monkeypatch.setattr(hfd_lab, "HFD_WITNESS_BOUND", 2)
    with pytest.raises(WitnessSearchExhausted, match="window size <= 2"):
        carlitz_verdict(order_of(-14))


# ---------------------------------------------------------------------------
# elasticity


def test_elasticity_via_davenport():
    assert elasticity_via_davenport(order_of(-1)) == Fraction(1)
    assert elasticity_via_davenport(order_of(-5)) == Fraction(1)   # D(Z_2)/2
    assert elasticity_via_davenport(order_of(-14)) == Fraction(2)  # D(Z_4)/2
    assert elasticity_via_davenport(order_of(-41)) == Fraction(4)  # D(Z_8)/2
    assert elasticity_via_davenport(order_of(34)) == Fraction(1)   # wide Z_2
    with pytest.raises(ValueError):
        elasticity_via_davenport(order_of(-1, 2))


# ---------------------------------------------------------------------------
# bounded window checks


def test_bounded_check_z2i():
    chk = bounded_hfd_check(order_of(-1, 2), 10)
    assert not chk.holds
    x, short, long_ = chk.witness
    assert x.norm() == 64  # the element 8
    assert (short.length, long_.length) == (2, 3)


def test_bounded_check_exceptional_order():
    assert bounded_hfd_check(order_of(-3, 2), 400).holds
    with pytest.raises(ValueError):
        bounded_hfd_check(order_of(34), 10)


# ---------------------------------------------------------------------------
# non-maximal orders


def test_order_witness_exception_pair():
    v = order_hfd_witness(-3, 2)
    assert v.verdict == "hfd" and v.method == "order_argument"
    assert v.witness is None


@pytest.mark.parametrize("d,n,elem_str", [
    (-1, 2, "8+0*w"),
    (-2, 3, "18+0*w"),
    (-7, 2, "8+0*w"),
])
def test_order_witness_direct_branches(d, n, elem_str):
    v = order_hfd_witness(d, n)
    assert v.verdict == "not_hfd" and v.method == "order_argument"
    assert str(v.element) == elem_str
    short, long_ = v.witness
    assert short.length == 2 and long_.length >= 3
    assert _remultiplies(v)


def test_order_witness_d_minus_3_window():
    v = order_hfd_witness(-3, 3)
    assert v.verdict == "not_hfd" and v.method == "direct_window"
    assert str(v.element) == "27+0*w"
    short, long_ = v.witness
    assert (short.length, long_.length) == (2, 3)
    assert sorted(str(a) for a in short) == ["-6+1*w", "3+1*w"]
    assert _remultiplies(v)


def _lam(N: int) -> Fraction:
    # lambda(p) = 1 for p = 3 and p = 1 mod 3, 1/2 for p = 2 mod 3
    return sum((Fraction(e, 2) if p % 3 == 2 else Fraction(e)
                for p, e in factorize(N)), Fraction(0))


def test_exception_pair_lengths_are_lambda_of_the_norm():
    # the conductor lemma's length formula, checked element by element
    order = order_of(-3, 2)
    kernel = _element_kernel(order)
    session = FactorSession(kernel)
    elements = list(kernel.elements_up_to(600))
    assert len(elements) == 1119
    for x in elements:
        assert session.lengths(x) == {_lam(QuadElem(order, *x).norm())}, x


def test_exception_pair_runs_no_window(monkeypatch):
    window = hfd_lab.is_hfm_window
    scanned = []
    monkeypatch.setattr(hfd_lab, "is_hfm_window",
                        lambda view, B: scanned.append(view.name) or window(view, B))
    v = order_hfd_witness(-3, 2)
    assert (v.verdict, v.method, v.witness, v.element) == ("hfd", "order_argument", None, None)
    report = classification_check()
    assert len(report) == 151 and report.ok
    assert scanned == []


def test_witness_skips_a_failing_candidate(monkeypatch):
    # in Z[sqrt(-3)], 2 + w = sqrt(-3)*(1 - sqrt(-3)) splits: no witness
    exception = order_of(-3, 2)
    assert not FactorSession(_element_kernel(exception)).is_atom((2, 1))
    with pytest.raises(WitnessSearchExhausted, match="none passed"):
        hfd_lab._norm_witness(exception, 0, [(2, 1)], "direct_window", "none passed")
    # a square of the d = -14 witness splits and is passed over for the next
    order = order_of(-14)
    g = (2, 1)
    square = _element_kernel(order).op(g, g)
    assert square[1] and not FactorSession(_element_kernel(order)).is_atom(square)
    v = hfd_lab._norm_witness(order, 0, [(3, 0), square, g], "carlitz", "none passed")
    assert v == carlitz_verdict(order)
    # and so is an atom whose norm has a rational prime that is no atom
    is_atom = FactorSession.is_atom
    monkeypatch.setattr(FactorSession, "is_atom", lambda self, x: x != (3, 0) and is_atom(self, x))
    with pytest.raises(WitnessSearchExhausted, match="none passed"):
        hfd_lab._norm_witness(order, 0, [g], "carlitz", "none passed")


@pytest.mark.parametrize("name,value", [
    ("class_number", lambda disc: 2),
    ("kronecker", lambda a, n: 1),
    ("units", lambda order: range(4 if order.is_maximal else 2)),  # index 2
])
def test_exception_pair_without_the_lemma_is_no_verdict(monkeypatch, name, value):
    # no candidate passes in a half-factorial order, and none is a verdict
    monkeypatch.setattr(hfd_lab, name, value)
    with pytest.raises(WitnessSearchExhausted, match="no two-length element"):
        order_hfd_witness(-3, 2)


def test_order_witness_split_generator_raises(monkeypatch):
    monkeypatch.setattr(hfd_lab.FactorSession, "is_atom", lambda self, x: False)
    with pytest.raises(WitnessSearchExhausted, match="unexpectedly splits"):
        order_hfd_witness(-1, 2)


NON_MAXIMAL = [(d, n) for d in range(-1, -60, -1) if d != -3 and is_squarefree(d)
               for n in range(2, 7)]


def test_order_witness_is_the_first_shortest_and_longest_factorization():
    # the constructed witness is what listing every factorization of N(g)
    # and keeping the first shortest and first longest one gives
    for d, n in NON_MAXIMAL:
        v = order_hfd_witness(d, n)
        facts = factor_element(order_of(d, n), v.element)
        assert v.witness == (min(facts, key=len), max(facts, key=len)), (d, n)


def test_order_witness_is_two_atoms_against_the_primes_of_the_norm():
    for d, n in NON_MAXIMAL:
        v = order_hfd_witness(d, n)
        order = order_of(d, n)
        g = order.element(n, 1) if d == -1 else order.element(0, 1)
        short, long_ = v.witness
        assert v.element == order.element(g.norm())
        assert set(short) == {g, -g.conj()}
        assert [x.a for x in long_] == sorted(
            p for p, e in factorize(g.norm()) for _ in range(e))
        assert (short.length, long_.length) == (2, sum(e for _, e in factorize(g.norm())))
        session = FactorSession(_element_kernel(order))
        assert all(session.is_atom((x.a, x.b)) for x in (*short, *long_)), (d, n)
        assert _remultiplies(v)


MAXIMAL_H3 = [order_of(d) for d in range(-14, -400, -1)
              if is_squarefree(d) and class_number(order_of(d).discriminant) >= 3]
D_MINUS_3 = [order_of(-3, n) for n in range(3, 13)]


def test_verdicts_run_no_window_and_list_no_factorizations(monkeypatch):
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(name) or real(*a))

    for owner, name in ((hfd_lab, "is_hfm_window"), (monoid_core, "is_hfm_window"),
                        (FactorSession, "factorizations"), (FactorSession, "lengths")):
        counted(owner, name)
    assert len(MAXIMAL_H3) == 218
    assert classification_check().ok
    assert all(carlitz_verdict(o).verdict == "not_hfd" for o in MAXIMAL_H3)
    assert calls == []


@pytest.fixture(scope="module")
def window_verdicts():
    return [carlitz_verdict(o) for o in MAXIMAL_H3] + [
        order_hfd_witness(-3, o.n) for o in D_MINUS_3]


def test_witness_is_the_window_witness(window_verdicts):
    # bounded_hfd_check is the oracle: the first element of the window with
    # two lengths, its first shortest and its first longest factorization
    for v in window_verdicts:
        chk = bounded_hfd_check(v.order, hfd_lab.HFD_WITNESS_BOUND)
        assert (v.element, *v.witness) == chk.witness, v.order


def test_every_witness_is_atoms_multiplying_to_the_norm(window_verdicts, report):
    rows = [r for r in report if r.witness is not None]
    assert len(rows) == 123
    assert all(_remultiplies(v) for v in window_verdicts)
    witnessed = [(v.order, v.witness) for v in window_verdicts] + [
        (order_of(r.d, r.n), r.witness) for r in rows]
    for order, (short, long_) in witnessed:
        session = FactorSession(_element_kernel(order))
        assert all(session.is_atom((x.a, x.b)) for x in (*short, *long_)), order
        m = short.atoms[0].norm()
        assert canonical_associate(reduce(mul, short.atoms)) == order.element(m)
        assert reduce(mul, long_.atoms) == order.element(m)
        assert (short.length, long_.length) == (2, sum(e for _, e in factorize(m))), order


def test_d_minus_3_fallback_passes_at_every_n(monkeypatch):
    # with no window, n + w is the witness: N = 3n^2, lengths 2 and 1 + 2*Omega(n)
    monkeypatch.setattr(hfd_lab, "HFD_WITNESS_BOUND", 0)
    for n in range(3, 41):
        v = order_hfd_witness(-3, n)
        order = v.order
        assert v.element == order.element(3 * n * n)
        assert order.element(n, 1) in v.witness[0].atoms
        omega = sum(e for _, e in factorize(n))
        assert (len(v.witness[0]), len(v.witness[1])) == (2, 1 + 2 * omega)
        assert _remultiplies(v)


def test_order_witness_validation():
    with pytest.raises(BadDiscriminant):
        order_hfd_witness(-4, 2)
    with pytest.raises(BadDiscriminant):
        order_hfd_witness(5, 2)
    with pytest.raises(ValueError):
        order_hfd_witness(-3, 1)


# ---------------------------------------------------------------------------
# the classification table


@pytest.fixture(scope="module")
def report():
    return classification_check()


def test_classification_counts_and_ok(report):
    assert len(report) == 151
    assert report.ok
    by_expected = {}
    for row in report:
        by_expected[row.expected] = by_expected.get(row.expected, 0) + 1
    assert by_expected == {"h=1": 9, "h=2": 18, "hfd": 1, "not_hfd": 123}


def test_classification_spot_rows(report):
    rows = {(r.d, r.n): r for r in report}
    assert rows[(-163, 1)].computed == "h=1"
    assert rows[(-427, 1)].computed == "h=2"
    assert rows[(-3, 2)].computed == "hfd"
    assert rows[(-1, 2)].computed == "not_hfd"
    assert all(r.ok for r in report)


def test_classification_records_are_plain(capsys):
    assert main(["classify-hfd", "--format", "json"]) == 0
    for rec in json.loads(capsys.readouterr().out)["rows"]:
        assert set(rec) == {"d", "n", "expected", "computed", "ok", "witness"}
        w = rec["witness"]
        assert w is None or isinstance(w, (int, str, list))
        if isinstance(w, list):
            assert all(isinstance(t, str) for t in w)


def _elements_of(order, f):
    return isinstance(f, FactorMultiset) and all(
        type(x) is QuadElem and x.order == order for x in f)


def test_witnesses_are_elements_of_the_order(report):
    # the element kernel runs on (a, b) pairs; what comes back is QuadElem
    for d, n, B in ((-1, 2, 10), (-14, 1, 100), (-3, 3, 400)):
        order = order_of(d, n)
        x, short, long_ = bounded_hfd_check(order, B).witness
        assert type(x) is QuadElem and x.order == order
        assert _elements_of(order, short) and _elements_of(order, long_)
    witnessed = [r for r in report if r.witness is not None]
    assert len(witnessed) == 123
    for r in witnessed:
        order = order_of(r.d, r.n)
        assert all(_elements_of(order, f) for f in r.witness), (r.d, r.n)


def test_known_discriminant_lists():
    assert len(UFD_DS) == 9
    assert len(HFD_DS) == 18
    assert -163 in UFD_DS and -427 in HFD_DS
