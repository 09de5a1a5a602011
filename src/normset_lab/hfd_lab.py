"""Half-factorial verdicts for imaginary quadratic orders.

For maximal orders the class-number dichotomy is exact: class number 1 is
a UFD, 2 a proper HFD, and 3 or more not half-factorial. Elasticity of a
maximal order comes from the Davenport constant of the class group, again
exactly. (d, n) = (-3, 2), the one non-maximal half-factorial order
(Halter-Koch, "Factorization of algebraic integers", Graz report 191,
1983), is hfd by a conductor lemma whose three hypotheses are computed
(_conductor_lemma_holds), with no element search.

Every not_hfd witness comes from one rule (_norm_witness), with no length
set and no factorization list: an atom g off Z with N(g) = g*conj(g) =
p_1*...*p_k, k >= 3, each rational prime p_i an atom too, so N(g) has
lengths 2 and k. The candidates are g = n*xi (n + n*i when d = -1) for a
non-maximal order off d = -3, and the element window's stream otherwise,
with n + w as the d = -3 fallback (order_hfd_witness has the proofs).
The atom checks run on the integer element kernel
(quadratic._element_kernel) over (a, b) pairs; only the witnesses
returned become QuadElem.

classification_check() replays the whole table: the nine unit-class
discriminants, the eighteen class-number-two discriminants, the (d, n) =
(-3, 2) exception, and a 123-pair sweep of non-maximal orders that must all
fail half-factoriality with an explicit two-length witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Any, Iterable

from .arith import factorize, is_squarefree, kronecker
from .class_groups import class_group, class_number
from .errors import BadDiscriminant, WitnessSearchExhausted
from .monoid_core import FactorSession, WindowVerdict, davenport, is_hfm_window
from .quadratic import (QuadElem, QuadraticOrder, _as_elements, _element_kernel,
                        order_of, units)

# _norm_witness's window: all known witnesses sit at size <= ~100
HFD_WITNESS_BOUND = 10_000


@dataclass(frozen=True)
class HfdVerdict:
    """Half-factoriality verdict with its evidence.

    A not_hfd verdict carries a witness pair of factorizations of `element`
    with different lengths; both re-multiply to (an associate of) that
    element. method records which argument produced the verdict.
    """

    order: QuadraticOrder
    verdict: str  # ufd | hfd | not_hfd
    witness: tuple | None = None  # (shorter FactorMultiset, longer FactorMultiset)
    element: Any = None
    method: str = ""  # carlitz | direct_window | order_argument

    def __bool__(self):
        return self.verdict != "not_hfd"

    def __str__(self):
        base = f"{self.order}: {self.verdict} [{self.method}]"
        if self.witness is not None:
            s, l = self.witness
            return f"{base} ({self.element} = {s} = {l})"
        return base


def carlitz_verdict(order: QuadraticOrder) -> HfdVerdict:
    """Exact verdict for a maximal imaginary order via the class-number
    dichotomy; class number >= 3 also gets a concrete two-length witness,
    the first of the window stream up to HFD_WITNESS_BOUND to pass.
    """
    if not (order.is_imaginary and order.is_maximal):
        raise ValueError("the class-number dichotomy needs a maximal imaginary order")
    h = class_number(order.discriminant)
    if h == 1:
        return HfdVerdict(order, "ufd", method="carlitz")
    if h == 2:
        return HfdVerdict(order, "hfd", method="carlitz")
    return _norm_witness(order, HFD_WITNESS_BOUND, (), "carlitz",
                         f"h={h} makes {order} not half-factorial, but no witness "
                         f"appeared at window size <= {HFD_WITNESS_BOUND}")


def elasticity_via_davenport(order: QuadraticOrder) -> Fraction:
    """Exact elasticity of a maximal order: 1 for class number 1, else half
    the Davenport constant of the class group. Exact at any class number
    when the class group is a p-group or has rank <= 2 (Olson's formula);
    any other class group goes to the Davenport search and raises
    CapExceeded above order 64.
    """
    if not order.is_maximal:
        raise ValueError("the Davenport formula is for maximal orders")
    cg = class_group(order.discriminant)
    if cg.class_number == 1:
        return Fraction(1)
    return Fraction(davenport(cg.structure), 2)


def bounded_hfd_check(order: QuadraticOrder, B: int) -> WindowVerdict:
    """Exhaustive equal-lengths check over the element window of size B."""
    if not order.is_imaginary:
        raise ValueError("the element window is imaginary-only")
    chk = is_hfm_window(_element_kernel(order), B)
    if chk.holds:
        return chk
    x, short, long_ = chk.witness
    return WindowVerdict(False, B, (QuadElem(order, *x), _as_elements(order, short),
                                    _as_elements(order, long_)))


def _norm_witness(order: QuadraticOrder, bound: int, extra: Iterable[tuple[int, int]],
                  method: str, exhausted: str) -> HfdVerdict:
    """The not_hfd verdict of the first candidate g off Z, among the element
    window's stream up to `bound` and then the kernel pairs `extra`, with
    k = Omega(N(g)) >= 3 that is an atom and whose norm's rational primes
    are atoms too. N(g) = g*conj(g) = p_1*...*p_k then has lengths 2 and k:
    short is g and conj(g) in the kernel's key order, long the primes
    ascending with multiplicity. No candidate passing raises
    WitnessSearchExhausted with the message `exhausted`.
    """
    session = FactorSession(_element_kernel(order))
    view = session.view
    for g in chain(view.elements_up_to(bound), extra):
        if not g[1]:
            continue  # factoring s^2 for every integer s costs more than the search
        m = QuadElem(order, *g).norm()
        primes = [(p, 0) for p, e in factorize(m) for _ in range(e)]
        if len(primes) >= 3 and session.is_atom(g) and all(map(session.is_atom, primes)):
            short = sorted((g, view.divide(g, (m, 0))), key=view.key)
            witness = _as_elements(order, short), _as_elements(order, primes)
            return HfdVerdict(order, "not_hfd", witness, order.element(m), method)
    raise WitnessSearchExhausted(exhausted)


def _conductor_lemma_holds() -> bool:
    """The hypotheses under which O = Z[sqrt(-3)] = Z + 2*Z[w] is
    half-factorial, w = (1+sqrt(-3))/2: Z[w] is a UFD (h(-3) = 1), 2 is
    inert in it (so Z[w]/2 = F_4), and [Z[w]^x : O^x] = 3 = |F_4^x|.

    Then the six units of Z[w] map onto F_4^x, so each x in Z[w] prime to 2
    has exactly one associate +-w^j*x in O (the one = 1 mod 2), and 2*Z[w]
    lies in O. The atoms of O, up to sign, are the primes pi != 2 of Z[w]
    normalized into O, and 2, 2w, 2w^2 (norm 4; no element has norm 2). So
    an x = 2^k*y, 2 not dividing y, has exactly k atoms of the second kind
    in every factorization and L(x) = {lambda(N(x))}, lambda additive with
    lambda(p) = 1 for p = 3 and p = 1 (mod 3), 1/2 for p = 2 (mod 3).
    Geroldinger & Halter-Koch, Non-Unique Factorizations (2006, 3.7), set
    this in the theory of orders and their conductors.
    """
    return (class_number(-3) == 1 and kronecker(-3, 2) == -1
            and len(units(order_of(-3))) == 3 * len(units(order_of(-3, 2))))


def order_hfd_witness(d: int, n: int) -> HfdVerdict:
    """Verdict for the non-maximal order Z[n*xi], n >= 2.

    Every such order except (d, n) = (-3, 2) fails, by a witness that
    _norm_witness checks with no factorization search (Geroldinger &
    Halter-Koch, Non-Unique Factorizations, 2006, 3.7). Off d = -3 its one
    candidate is g = n*xi, or g = n + n*i when d = -1. g is an atom
    (checked: FactorSession.is_atom lists no proper divisor), and so is
    conj(g), conjugation being an automorphism of the order. The integer
    N(g) = g*conj(g) then factors as that conjugate pair (length 2) and as
    its rational primes, which are atoms too:

    - every element a + b*g with b != 0 has norm >= n^2*|D_K|/4, since
      4*N(x) = t^2 + |D|*b^2 with D = n^2*D_K;
    - a prime p | N(g) divides n or N(xi) (2 or n when d = -1), so
      p < n^2*|D_K|/4 for n >= 2;
    - a proper factor of p would have norm p, but a rational element's norm
      is a square and every other element's norm exceeds p.

    So the lengths are 2 and Omega(N(g)) >= 3, since n^2 | N(g) and
    N(xi) >= 2 when d != -3 (N(g) = 2n^2 when d = -1).

    For d = -3, n = 2 is hfd by the conductor lemma (_conductor_lemma_holds).
    Otherwise the candidates are the window's, then g = n + w = n*(1 + omega)
    of norm 3n^2, which passes at every n >= 3: an element off Z has norm
    >= 3n^2/4, above 3 and each prime p | n, and no rational element has a
    prime norm, so 3 and each p are atoms; g = r*(c + e*w) with r rational
    forces r*e = 1, and two factors off Z have norms of product >= 9n^4/16
    > 3n^2, so g is an atom. The lengths are 2 and 1 + 2*Omega(n).
    """
    if d >= 0 or not is_squarefree(d):
        raise BadDiscriminant(f"d = {d} must be negative and squarefree")
    if n < 2:
        raise ValueError("maximal orders go through carlitz_verdict")
    order = order_of(d, n)
    if d == -3:
        if n == 2 and _conductor_lemma_holds():
            return HfdVerdict(order, "hfd", method="order_argument")
        return _norm_witness(
            order, HFD_WITNESS_BOUND, [(n, 1)], "direct_window",
            f"no two-length element in {order} at window size <= {HFD_WITNESS_BOUND}")
    g = (n, 1) if d == -1 else (0, 1)
    return _norm_witness(order, 0, [g], "order_argument",
                         f"{order.element(*g)} unexpectedly splits in {order}")


# ---------------------------------------------------------------------------
# the full classification table


UFD_DS = (-1, -2, -3, -7, -11, -19, -43, -67, -163)
HFD_DS = (-5, -6, -10, -13, -15, -22, -35, -37, -51, -58,
          -91, -115, -123, -187, -235, -267, -403, -427)


@dataclass(frozen=True)
class ClassificationRow:
    d: int
    n: int
    expected: str
    computed: str
    ok: bool
    witness: Any = None


@dataclass(frozen=True)
class ClassificationReport:
    rows: tuple[ClassificationRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __str__(self):
        good = sum(r.ok for r in self.rows)
        return f"classification: {good}/{len(self.rows)} rows pass"


def classification_check() -> ClassificationReport:
    """Recompute the complete imaginary quadratic HFD classification:
    maximal orders by class number, Z[sqrt(-3)] by the conductor lemma,
    and every other non-maximal order (|d| <= 50, n <= 5) by explicit
    witness: g*conj(g) = N(g) against the rational primes of N(g), each an
    atom (order_hfd_witness). No row computes a length set or lists a
    factorization.
    """
    rows = []
    for d in UFD_DS:
        h = class_number(order_of(d).discriminant)
        rows.append(ClassificationRow(d, 1, "h=1", f"h={h}", h == 1))
    for d in HFD_DS:
        h = class_number(order_of(d).discriminant)
        rows.append(ClassificationRow(d, 1, "h=2", f"h={h}", h == 2))

    v = order_hfd_witness(-3, 2)
    rows.append(ClassificationRow(-3, 2, "hfd", v.verdict, v.verdict == "hfd", v.witness))

    for d in range(-1, -51, -1):
        if not is_squarefree(d):
            continue
        for n in range(2, 6):
            if (d, n) == (-3, 2):
                continue
            v = order_hfd_witness(d, n)
            rows.append(ClassificationRow(
                d, n, "not_hfd", v.verdict, v.verdict == "not_hfd", v.witness))
    return ClassificationReport(tuple(rows))
