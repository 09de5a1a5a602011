"""The normset of a quadratic order: the integers that occur as norms.

Membership has two independent backends. The form/element search looks for
an actual element of the requested norm; it is exact for imaginary orders
(the coordinate range is finite) and for real orders whenever the search
bound dominates the unit-reduction bound. The ideal-theoretic backend
factors |m|, walks the splitting type of each prime, collects the ideal
classes that can carry an ideal of norm |m|, and asks whether the principal
class is among them; for real fields the narrow class group resolves which
sign of m is achieved. Its "yes" still carries an element as witness, the
element search's, so a query runs that search at most once. Running both
and asserting agreement is the module's own correctness oracle: the ideal
answer comes from the class test alone.

Sign convention: imaginary normsets are sets of positive integers; real
normsets may contain negative integers, and contain -1 exactly when the
fundamental unit of the order has norm -1. Atom and factorization questions
are always relative to divisibility inside the normset, never plain integer
divisibility: an integer can be a member and composite in Z while remaining
an atom because its integer divisors are not norms.

Verdicts are three-valued. "no" is only ever produced by an exact path;
bounded real searches that come up empty answer "unknown" and record the
bound they used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .arith import factorize, lower_divisors
from .class_groups import (
    ClassGroupData,
    class_group,
    class_group_imaginary,
    ideal_class_options,
    ideal_class_table,
    minkowski_bound,
    narrow_class_group_real,
    splitting_type,
)
from .errors import NeedsBound, NotMember
from .monoid_core import FactorMultiset, FactorSession, MonoidView
from .quadratic import (
    QuadElem,
    QuadraticOrder,
    _norm_table,
    divide_exact,
    elements_of_norm,
    exact_real_search_bound,
    order_fundamental_unit,
)

_POLICIES = ("auto", "form_search", "ideal_theoretic", "both")

# a real search whose exact bound exceeds this refuses to run unbounded
_REAL_SEARCH_CEILING = 10**7


@dataclass(frozen=True)
class Verdict:
    """A three-valued answer with its provenance.

    For membership queries a "yes" carries a witness element whose norm is
    the queried integer (re-verifiable); window and search verdicts reuse
    the type with the witness documenting the failure, so a passing window
    has witness None. "no" is only emitted by exact backends; bounded
    searches that exhaust return "unknown" with the bound they used.
    """

    answer: str
    witness: Any = None
    bound_used: int | None = None
    backend: str = ""
    query: Any = None

    def __bool__(self):
        return self.answer == "yes"

    def __str__(self):
        extra = "" if self.witness is None else f", witness {self.witness}"
        return f"{self.answer}{extra} [{self.backend}]"


class NormsetHandle:
    """The normset of one quadratic order, with a backend policy.

    auto routes imaginary orders and non-maximal real orders to the element
    search and maximal real orders to the ideal-theoretic path;
    "both" runs the two backends side by side and hard-asserts agreement.
    The two share one element search per query, whose witness the ideal
    backend reports; alone, it searches only when its class test says yes.

    Besides its verdict memo, a handle holds the window tables that
    members_up_to(B) fills for every 2 <= |m| <= B: always a norm table of
    the element backend (quadratic._norm_table(order, -B, B, b_max), one
    norm scan on either kind of order, b_max the exact search bound that
    members_up_to solved at B for a real order), and, when the policy asks
    the ideal backend, a class table (class_groups.ideal_class_table, one
    sieve). The window's membership is read from them, and every later
    query of such an m that would search at the exact bound, or compute the
    classes of norm |m|, reads them too, with the same verdict. A real order
    whose exact search bound at B passes the ceiling gets no tables and asks
    each m in turn. Memo and tables are caches only; concurrent queries at
    worst recompute an entry.
    """

    def __init__(self, order: QuadraticOrder, policy: str = "auto"):
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        self.order = order
        self.policy = policy
        self._verdicts: dict = {}
        self._norms: dict[int, QuadElem] = {}
        self._classes: list[set[int] | None] | None = None  # ideal backend only
        self._norms_bound = 1  # the tables cover 2 <= |m| <= this

    # -- membership ---------------------------------------------------

    def contains(self, m: int, bound: int | None = None) -> Verdict:
        if m == 0:
            raise ValueError("0 is not in any normset")
        key = (m, bound)
        hit = self._verdicts.get(key)
        if hit is None:
            hit = self._decide(m, bound)
            self._verdicts[key] = hit
        return hit

    def _backend(self) -> str:
        """The policy with auto resolved: the ideal backend for maximal real
        orders, the element search for every other order.
        """
        if self.policy != "auto":
            return self.policy
        order = self.order
        return ("ideal_theoretic" if (not order.is_imaginary and order.is_maximal)
                else "form_search")

    def _decide(self, m: int, bound: int | None) -> Verdict:
        order = self.order
        if abs(m) == 1:
            return _unit_verdict(order, m)
        policy = self._backend()
        table, classes = ((self._norms, self._classes) if abs(m) <= self._norms_bound
                          else (None, None))
        if policy == "ideal_theoretic":
            return _ideal_contains(order, m, bound, table, classes)
        v1 = _form_search_contains(order, m, bound, table)
        if policy == "form_search":
            return v1
        v2 = _ideal_contains(order, m, bound, table, classes, v1)
        if v1.answer != "unknown" and v1.answer != v2.answer:
            raise _disagreement(self, m, v1.answer, v2.answer)
        best = v1 if v1.answer != "unknown" else v2
        return Verdict(best.answer, best.witness, best.bound_used, "both", m)

    # -- enumeration ----------------------------------------------------

    def members_up_to(self, size_bound: int) -> list[int]:
        """Members m with 2 <= |m| <= size_bound, ascending by |m| with the
        positive sign first. Unit members (+-1) are excluded.

        The window is read from the tables the policy names, filled up to
        size_bound first; under "both" the two tables must agree on every m,
        and a "yes" of the ideal backend must find its witness in the norm
        table. A real order whose exact search bound at size_bound passes
        the ceiling asks contains(m) for each m instead.
        """
        order = self.order
        signs = (1,) if order.is_imaginary else (1, -1)
        if size_bound > self._norms_bound:
            b_max = None if order.is_imaginary else exact_real_search_bound(order, size_bound)
            if b_max is None or b_max <= _REAL_SEARCH_CEILING:
                if self._backend() != "form_search":
                    self._classes = ideal_class_table(_ideal_group(order), size_bound)
                self._norms = _norm_table(order, -size_bound, size_bound, b_max)
                self._norms_bound = size_bound
        window = [s * k for k in range(2, size_bound + 1) for s in signs]
        if size_bound > self._norms_bound:
            return [m for m in window if self.contains(m).answer == "yes"]
        if self._classes is None:
            return [m for m in window if m in self._norms]
        cg = _ideal_group(order)
        both = self._backend() == "both"
        out = []
        for m in window:
            ideal = _is_ideal_norm(cg, m, self._classes)
            if ideal and m not in self._norms:
                raise _uncertified(order, m)
            if both and not ideal and m in self._norms:
                raise _disagreement(self, m, "yes", "no")
            if ideal:
                out.append(m)
        return out

    def __str__(self):
        return f"normset of {self.order}"

    __repr__ = __str__


def normset_of(order: QuadraticOrder, policy: str = "auto") -> NormsetHandle:
    return NormsetHandle(order, policy)


def _unit_verdict(order: QuadraticOrder, m: int) -> Verdict:
    if m == 1:
        return Verdict("yes", order.one(), None, "units", m)
    if order.is_imaginary:
        return Verdict("no", None, None, "units", m)
    eps, sign = order_fundamental_unit(order)
    if sign == -1:
        return Verdict("yes", eps, None, "units", m)
    return Verdict("no", None, None, "units", m)


def _form_search_contains(order: QuadraticOrder, m: int, bound: int | None,
                          table: dict | None) -> Verdict:
    """The element search under the bound rule. An imaginary search is
    always exact. A real search runs to |b| <= min(bound, exact bound), to
    the exact bound when no bound is given, and is refused with NeedsBound
    when that passes the ceiling. A search at the exact bound reads the
    entry for m of a norm table, the window's when it covers m, else
    norm_table(order, m, m) built at the exact bound held here, and answers
    yes or no; a shorter one that finds nothing answers unknown.
    """
    exact_b = None if order.is_imaginary else exact_real_search_bound(order, m)
    sb = exact_b if bound is None or exact_b is None else min(bound, exact_b)
    if exact_b is not None and sb > _REAL_SEARCH_CEILING:
        hint = ("pass an explicit bound" if bound is None
                else f"pass a bound <= {_REAL_SEARCH_CEILING}")
        raise NeedsBound(
            f"exact search for norm {m} in {order} needs |b| <= {exact_b}; {hint}")
    if sb == exact_b:
        wit = (_norm_table(order, m, m, exact_b) if table is None else table).get(m)
        return Verdict("no" if wit is None else "yes", wit, sb, "form_search", m)
    sols = elements_of_norm(order, m, search_bound=sb)
    if sols:
        return Verdict("yes", sols[0], sb, "form_search", m)
    return Verdict("unknown", None, sb, "form_search", m)


def _ideal_group(order: QuadraticOrder) -> ClassGroupData:
    """The class group the ideal backend reads: the form class group of an
    imaginary maximal order, the narrow one of a real maximal order (its
    neg_principal_index carries the sign of a norm).
    """
    if not order.is_maximal:
        raise ValueError("the ideal-theoretic backend needs a maximal order")
    D = order.discriminant
    return class_group_imaginary(D) if order.is_imaginary else narrow_class_group_real(D)


def _disagreement(ns: NormsetHandle, m: int, form: str, ideal: str) -> AssertionError:
    return AssertionError(f"backend disagreement at m={m} in {ns}: "
                          f"form_search={form}, ideal_theoretic={ideal}")


def _uncertified(order: QuadraticOrder, m: int) -> AssertionError:
    return AssertionError(f"ideal backend certified norm {m} in {order} but the "
                          f"exact element search found nothing")


def _is_ideal_norm(cg: ClassGroupData, m: int, classes: list | None) -> bool:
    """Whether some ideal of norm |m| lies in the class that makes m a norm:
    the principal class for m > 0, the narrow class of the -1 form for
    m < 0. The classes of norm |m| come from the class table when there is
    one.
    """
    # imaginary norms are positive: a definite group has no neg_principal_index
    target = cg.identity_index if m > 0 else cg.neg_principal_index
    if target is None:
        return False
    opts = classes[abs(m)] if classes is not None else ideal_class_options(cg, abs(m))
    return opts is not None and target in opts


def _ideal_contains(order: QuadraticOrder, m: int, bound: int | None,
                    table: dict | None, classes: list | None,
                    search: Verdict | None = None) -> Verdict:
    """The class test, and for a "yes" the witness of the element search:
    `search` when the caller already ran it, else a search run here. The
    search must find one at the exact bound; a shorter bound that finds
    nothing raises NeedsBound, since a "yes" must carry its witness.
    """
    if not _is_ideal_norm(_ideal_group(order), m, classes):
        return Verdict("no", None, None, "ideal_theoretic", m)
    if search is None:
        search = _form_search_contains(order, m, bound, table)
    if search.answer == "no":
        raise _uncertified(order, m)
    if search.answer == "unknown":
        raise NeedsBound(
            f"norm {m} in {order} has an element but none with |b| <= "
            f"{search.bound_used}; the exact search needs |b| <= "
            f"{exact_real_search_bound(order, m)}")
    return Verdict("yes", search.witness, None, "ideal_theoretic", m)


# ---------------------------------------------------------------------------
# the normset as a monoid


def normset_monoid_view(ns: NormsetHandle) -> MonoidView:
    """The normset as a MonoidView over integers.

    When -1 is a member the two signs of m are associates and the positive
    one is canonical; otherwise members keep their sign and the only unit
    is 1. Divisibility is normset divisibility: d | m requires the integer
    cofactor to be a member too.
    """
    neg_unit = ns.contains(-1).answer == "yes"
    signs = (1,) if (ns.order.is_imaginary or neg_unit) else (1, -1)

    def member(m: int) -> bool:
        return ns.contains(m).answer == "yes"

    def canon(m: int) -> int:
        return abs(m) if neg_unit else m

    def divide(q: int, x: int):
        if x % q:
            return None
        c = x // q
        if abs(c) == 1:
            return 1 if (c == 1 or neg_unit) else None
        c = canon(c)
        return c if member(c) else None

    def proper_divisors(x: int):
        # magnitudes 2 <= k <= sqrt|x| only; canon(x // c) == u gives (c, u) unless k^2 = |x|
        ax = abs(x)
        for k in lower_divisors(ax):
            for s in signs:
                u = s * k
                if not member(u):
                    continue
                c = canon(x // u)
                if member(c):
                    yield u, c
                    if k * k < ax:
                        yield c, u

    def elements_up_to(bound: int) -> list[int]:
        return ns.members_up_to(bound) if signs == (1, -1) else [
            m for m in ns.members_up_to(bound) if m > 0]

    return MonoidView(
        name=str(ns),
        op=lambda a, b: canon(a * b),
        divide=divide,
        proper_divisors=proper_divisors,
        key=lambda m: (abs(m), m < 0),
        elements_up_to=elements_up_to,
    )


def irreducibles_up_to(ns: NormsetHandle, B: int) -> list[int]:
    """Normset atoms of magnitude <= B: the members that the normset view
    (normset_monoid_view) finds no proper divisor of, i.e. with no splitting
    into two members of magnitude >= 2. Needs B >= 2.
    """
    if B < 2:
        raise ValueError("atom enumeration needs B >= 2")
    session = FactorSession(normset_monoid_view(ns))
    return [m for m in ns.members_up_to(B) if session.is_atom(m)]


def factor_in_normset(ns: NormsetHandle, m: int) -> set[FactorMultiset]:
    """All factorizations of the member m into normset atoms. Complete:
    candidate atoms live in the (finite) divisor lattice of m in Z. A unit
    member (+-1) has no factorization into atoms and raises ValueError.
    Membership is asked with no bound, so it is exact or raises NeedsBound.
    """
    v = ns.contains(m)
    if v.answer != "yes":
        raise NotMember(f"{m} is not in {ns}")
    if abs(m) == 1:
        raise ValueError("factor nonunit members only")
    x = abs(m) if ns.contains(-1).answer == "yes" else m
    return set(FactorSession(normset_monoid_view(ns)).factorizations(x))


# ---------------------------------------------------------------------------
# UFD criterion


@dataclass(frozen=True)
class UfdCriterionRow:
    p: int
    f_p: int
    target: int
    member: bool
    witness: QuadElem | None

    def __str__(self):
        tail = f"witness {self.witness}" if self.member else "no norm +-target"
        return f"p={self.p} f={self.f_p} target={self.target}: {tail}"


@dataclass(frozen=True)
class UfdCertificate:
    """Outcome of the residue-degree norm criterion: the order is a UFD iff
    every prime p with p^{f_p} below the Minkowski bound has +-p^{f_p} in
    the normset. Rows record one check per qualifying prime.
    """

    value: bool
    minkowski: Fraction
    rows: tuple[UfdCriterionRow, ...]

    def __bool__(self):
        return self.value

    @property
    def criterion_primes(self) -> tuple[int, ...]:
        return tuple(r.p for r in self.rows)

    def __str__(self):
        head = "UFD" if self.value else "not a UFD"
        return f"{head} (M ~ {float(self.minkowski):.6f}, " \
               f"primes {list(self.criterion_primes)})"


def is_ufd(order: QuadraticOrder) -> UfdCertificate:
    if not order.is_maximal:
        raise ValueError("the norm criterion applies to maximal orders")
    M = minkowski_bound(order)
    ns = NormsetHandle(order)
    rows = []
    ok = True
    for p in range(2, int(M) + 1):
        if factorize(p) != [(p, 1)]:
            continue
        f = splitting_type(order.field, p).f_p
        t = p**f
        if t > M:
            continue
        wit = None
        for signed in ((t,) if order.is_imaginary else (t, -t)):
            v = ns.contains(signed)
            if v.answer == "yes":
                wit = v.witness
                break
        rows.append(UfdCriterionRow(p, f, t, wit is not None, wit))
        ok = ok and wit is not None
    return UfdCertificate(ok, M, tuple(rows))


# ---------------------------------------------------------------------------
# saturation family


def is_saturated(order: QuadraticOrder) -> bool:
    """Exact: the normset is saturated iff the class group (wide, for real
    fields) is trivial or 2-elementary, i.e. has exponent <= 2.
    """
    if not order.is_maximal:
        raise ValueError("saturation criterion wants the maximal order")
    return class_group(order.discriminant).structure.exponent <= 2


def is_strictly_saturated_window(order: QuadraticOrder, B: int) -> Verdict:
    """Search members x | y (integer divisibility, |x|,|y| <= B) whose
    quotient y/x leaves the normset, i.e. that the normset view does not
    divide. First failure wins; a pass is only evidence up to B.
    """
    if B < 4:
        raise ValueError("window bound must be >= 4")
    ns = NormsetHandle(order)
    view = normset_monoid_view(ns)
    members = ns.members_up_to(B)
    for yi, y in enumerate(members):
        for x in members[: yi + 1]:
            if y % x == 0 and view.divide(x, y) is None:
                return Verdict("no", (x, y, y // x), B, "window",
                               ("strictly_saturated", B))
    return Verdict("yes", None, B, "window", ("strictly_saturated", B))


def strong_saturation_check(order: QuadraticOrder, alpha: QuadElem,
                            beta: QuadElem) -> Verdict:
    """Look for a ring divisor gamma of beta with N(gamma) = N(alpha).
    Exact on both kinds. A real order lists one solution per same-norm
    associate class at the exact bound, and divisibility does not depend on
    the associate, so an exhausted list is a "no"; when that bound passes
    the ceiling of _form_search_contains the check is refused with
    NeedsBound, naming both.
    """
    na = alpha.norm()
    nb = beta.norm()
    query = ("strong_saturation", str(alpha), str(beta))
    if na == 0 or nb == 0:
        raise ValueError("zero is not a valid argument")
    if nb % na:
        # gamma | beta forces N(gamma) | N(beta), so no candidate exists
        return Verdict("no", None, None, "exact", query)
    sb = None if order.is_imaginary else exact_real_search_bound(order, na)
    if sb is not None and sb > _REAL_SEARCH_CEILING:
        raise NeedsBound(f"strong saturation search for norm {na} in {order} needs "
                         f"|b| <= {sb}, past the search ceiling {_REAL_SEARCH_CEILING}")
    backend = "exact" if order.is_imaginary else "form_search"
    for g in elements_of_norm(order, na, search_bound=sb):
        if divide_exact(beta, g) is not None:
            return Verdict("yes", g, sb, backend, query)
    return Verdict("no", None, sb, backend, query)


# ---------------------------------------------------------------------------
# the norm group window


def norm_group_window(order: QuadraticOrder, B: int):
    """(H_size, G_size, classes_in_H) for an imaginary maximal order.

    H starts from every class that carries an ideal whose norm <= B also
    occurs as the norm of a principal ideal <= B, then closes under
    composition (the true H is a subgroup, so the closure is still a lower
    bound). H can only grow with B; no stabilization is claimed. G_size is
    |Cl| / |H|, the order of the quotient the normset actually sees.
    """
    if not (order.is_imaginary and order.is_maximal):
        raise ValueError("norm group window needs an imaginary maximal order")
    cg = class_group_imaginary(order.discriminant)
    ident = cg.identity_index
    H = {ident}
    for opts in ideal_class_table(cg, B)[1:]:
        if opts is not None and ident in opts:
            H |= opts
    while True:
        grown = H | {cg.compose_indices(x, y) for x in H for y in H}
        if grown == H:
            break
        H = grown
    h = cg.class_number
    assert h % len(H) == 0
    return len(H), h // len(H), tuple(sorted(H))
