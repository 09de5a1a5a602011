"""The normset of a quadratic order: the integers that occur as norms.

Membership has two independent backends. The form/element search looks for
an actual element of the requested norm; it is exact for imaginary orders
(the coordinate range is finite) and for real orders whenever the search
bound dominates the unit-reduction bound. The ideal-theoretic backend
factors |m|, walks the splitting type of each prime, collects the ideal
classes that can carry an ideal of norm |m|, and asks whether the principal
class is among them; for real fields the narrow class group resolves which
sign of m is achieved. Running both and asserting agreement is the module's
own correctness oracle.

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

from .arith import divisors
from .class_groups import (
    class_group_imaginary,
    class_group_real,
    ideal_class_options,
    minkowski_bound,
    narrow_class_group_real,
    splitting_type,
)
from .errors import NeedsBound, NotMember
from .monoid_core import FactorMultiset, FactorSession, MonoidView
from .quadratic import (
    QuadElem,
    QuadraticOrder,
    canonical_associate,
    divide_exact,
    elements_of_norm,
    exact_real_search_bound,
    order_fundamental_unit,
    real_norm_table,
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

    def to_record(self) -> dict:
        def enc(v):
            if v is None or isinstance(v, (int, str, bool)):
                return v
            if isinstance(v, (list, tuple)):
                return [enc(t) for t in v]
            return str(v)

        return {
            "query": enc(self.query),
            "answer": self.answer,
            "witness": enc(self.witness),
            "bound_used": self.bound_used,
            "backend": self.backend,
        }

    def __str__(self):
        extra = "" if self.witness is None else f", witness {self.witness}"
        return f"{self.answer}{extra} [{self.backend}]"


class NormsetHandle:
    """The normset of one quadratic order, with a backend policy.

    auto routes imaginary orders and non-maximal real orders to the element
    search and maximal real orders to the ideal-theoretic path;
    "both" runs the two backends side by side and hard-asserts agreement.

    Besides its verdict memo, a handle on a real order holds a norm table
    (quadratic.real_norm_table): members_up_to(B) fills it for every
    2 <= |m| <= B with one domain sweep, and every element search that would
    run at the exact bound for such an m reads the table instead, with the
    same verdict. Both are caches only; concurrent queries at worst
    recompute an entry.
    """

    def __init__(self, order: QuadraticOrder, policy: str = "auto",
                 default_bound: int = 500):
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        self.order = order
        self.policy = policy
        self.default_bound = default_bound
        self._verdicts: dict = {}
        self._norms: dict[int, QuadElem] = {}
        self._norms_bound = 1  # the table covers 2 <= |m| <= this

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

    def _decide(self, m: int, bound: int | None) -> Verdict:
        order = self.order
        if abs(m) == 1:
            return _unit_verdict(order, m)
        policy = self.policy
        table = self._norms if abs(m) <= self._norms_bound else None
        if policy == "auto":
            policy = ("ideal_theoretic"
                      if (not order.is_imaginary and order.is_maximal)
                      else "form_search")
        if policy == "form_search":
            return _form_search_contains(order, m, bound, table)
        if policy == "ideal_theoretic":
            return _ideal_contains(order, m, bound, table)
        v1 = _form_search_contains(order, m, bound, table)
        v2 = _ideal_contains(order, m, bound, table)
        if v1.answer != "unknown" and v1.answer != v2.answer:
            raise AssertionError(
                f"backend disagreement at m={m} in {self}: "
                f"form_search={v1.answer}, ideal_theoretic={v2.answer}")
        best = v1 if v1.answer != "unknown" else v2
        return Verdict(best.answer, best.witness, best.bound_used, "both", m)

    # -- enumeration ----------------------------------------------------

    def members_up_to(self, size_bound: int) -> list[int]:
        """Members m with 2 <= |m| <= size_bound, ascending by |m| with the
        positive sign first. Unit members (+-1) are excluded.

        On a real order whose exact search bound at size_bound stays under
        the ceiling, one sweep first fills the norm table up to size_bound.
        """
        neg = not self.order.is_imaginary
        if (neg and size_bound > self._norms_bound
                and exact_real_search_bound(self.order, size_bound) <= _REAL_SEARCH_CEILING):
            self._norms = real_norm_table(self.order, size_bound)
            self._norms_bound = size_bound
        out = []
        for k in range(2, size_bound + 1):
            for m in ((k, -k) if neg else (k,)):
                if self.contains(m).answer == "yes":
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


def _real_search(order: QuadraticOrder, m: int, bound: int | None,
                 table: dict | None) -> tuple[list[QuadElem], int, int]:
    """The real element search under the bound rule, as (solutions, bound
    used, exact bound). No bound means the exact bound, refused with
    NeedsBound above the ceiling; a bound searches up to the exact bound at
    most. At the exact bound a norm table covering m answers instead.
    """
    exact_b = exact_real_search_bound(order, m)
    if bound is None and exact_b > _REAL_SEARCH_CEILING:
        raise NeedsBound(
            f"exact search for norm {m} in {order} needs |b| <= {exact_b}; "
            f"pass an explicit bound")
    sb = exact_b if bound is None else min(bound, exact_b)
    if table is not None and sb == exact_b:
        hit = table.get(m)
        return ([] if hit is None else [hit]), sb, exact_b
    return elements_of_norm(order, m, search_bound=sb), sb, exact_b


def _form_search_contains(order: QuadraticOrder, m: int, bound: int | None,
                          table: dict | None) -> Verdict:
    if order.is_imaginary:
        sols = elements_of_norm(order, m)
        if sols:
            return Verdict("yes", canonical_associate(sols[0]), None,
                           "form_search", m)
        return Verdict("no", None, None, "form_search", m)
    sols, sb, exact_b = _real_search(order, m, bound, table)
    if sols:
        return Verdict("yes", sols[0], sb, "form_search", m)
    if sb == exact_b:
        return Verdict("no", None, sb, "form_search", m)
    return Verdict("unknown", None, sb, "form_search", m)


def _ideal_contains(order: QuadraticOrder, m: int, bound: int | None,
                    table: dict | None) -> Verdict:
    if not order.is_maximal:
        raise ValueError("the ideal-theoretic backend needs a maximal order")
    D = order.discriminant
    if order.is_imaginary:
        if m < 0:
            return Verdict("no", None, None, "ideal_theoretic", m)
        cg = class_group_imaginary(D)
        opts = ideal_class_options(cg, m)
        if opts is None or cg.identity_index not in opts:
            return Verdict("no", None, None, "ideal_theoretic", m)
        wit = _element_witness(order, m, bound, table)
        return Verdict("yes", wit, None, "ideal_theoretic", m)
    nar = narrow_class_group_real(D)
    opts = ideal_class_options(nar, abs(m))
    target = nar.identity_index if m > 0 else nar.neg_principal_index
    if opts is None or target not in opts:
        return Verdict("no", None, None, "ideal_theoretic", m)
    wit = _element_witness(order, m, bound, table)
    return Verdict("yes", wit, None, "ideal_theoretic", m)


def _element_witness(order: QuadraticOrder, m: int, bound: int | None,
                     table: dict | None) -> QuadElem:
    """Fetch an element of norm m after the ideal backend certified one
    exists. Real orders follow the bound rule of the element search
    (_real_search); a bound below the exact one that finds nothing raises
    NeedsBound, since a "yes" must carry its witness. At the exact bound the
    search must find one.
    """
    if order.is_imaginary:
        sols = elements_of_norm(order, m)
        return canonical_associate(sols[0])
    sols, sb, exact_b = _real_search(order, m, bound, table)
    if not sols and sb < exact_b:
        raise NeedsBound(
            f"norm {m} in {order} has an element but none with |b| <= {sb}; "
            f"the exact search needs |b| <= {exact_b}")
    if not sols:
        raise AssertionError(
            f"ideal backend certified norm {m} in {order} but the exact "
            f"element search found nothing")
    return sols[0]


# ---------------------------------------------------------------------------
# the normset as a monoid


def _neg_unit(order: QuadraticOrder) -> bool:
    if order.is_imaginary:
        return False
    return order_fundamental_unit(order)[1] == -1


def normset_monoid_view(ns: NormsetHandle) -> MonoidView:
    """The normset as a MonoidView over integers.

    When -1 is a member the two signs of m are associates and the positive
    one is canonical; otherwise members keep their sign and the only unit
    is 1. Divisibility is normset divisibility: d | m requires the integer
    cofactor to be a member too.
    """
    order = ns.order
    neg_unit = _neg_unit(order)
    signs = (1,) if (order.is_imaginary or neg_unit) else (1, -1)

    def member(m: int) -> bool:
        return ns.contains(m).answer == "yes"

    def canon(m: int) -> int:
        return abs(m) if neg_unit else m

    def op(a: int, b: int) -> int:
        return canon(a * b)

    def divide(q: int, x: int):
        if x % q:
            return None
        c = x // q
        if abs(c) == 1:
            return 1 if (c == 1 or neg_unit) else None
        c = canon(c)
        return c if member(c) else None

    def proper_divisors(x: int):
        ax = abs(x)
        for k in divisors(ax):
            if k < 2 or k > ax // 2:
                continue
            for s in signs:
                u = s * k
                if not member(u):
                    continue
                c = canon(x // u)
                if member(c):
                    yield u, c

    def elements_up_to(bound: int) -> list[int]:
        return ns.members_up_to(bound) if signs == (1, -1) else [
            m for m in ns.members_up_to(bound) if m > 0]

    return MonoidView(
        name=str(ns),
        identity=1,
        op=op,
        divide=divide,
        proper_divisors=proper_divisors,
        key=lambda m: (abs(m), m < 0),
        size=abs,
        elements_up_to=elements_up_to,
        divides_hint=lambda q, a, b: (a * b) % q == 0,
    )


def irreducibles_up_to(ns: NormsetHandle, B: int) -> list[int]:
    """Normset atoms of magnitude <= B: members with no splitting into two
    members of magnitude >= 2. Needs B >= 2.
    """
    if B < 2:
        raise ValueError("atom enumeration needs B >= 2")
    members = ns.members_up_to(B)
    memberset = set(members)
    out = []
    for m in members:
        am = abs(m)
        split = False
        for k in divisors(am):
            if k < 2 or k > am // 2:
                continue
            for u in (k, -k):
                if u in memberset and m // u in memberset:
                    split = True
                    break
            if split:
                break
        if not split:
            out.append(m)
    return out


def factor_in_normset(ns: NormsetHandle, m: int) -> set[FactorMultiset]:
    """All factorizations of the member m into normset atoms. Complete:
    candidate atoms live in the (finite) divisor lattice of m in Z.
    """
    v = ns.contains(m)
    if v.answer == "unknown":
        raise NeedsBound(f"membership of {m} in {ns} undecided within bound")
    if v.answer != "yes":
        raise NotMember(f"{m} is not in {ns}")
    view = normset_monoid_view(ns)
    neg_unit = _neg_unit(ns.order)
    x = abs(m) if neg_unit else m
    return set(FactorSession(view).factorizations(x))


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


def _small_primes_up_to(n: int) -> list[int]:
    out = []
    for p in range(2, n + 1):
        if all(p % q for q in out):
            out.append(p)
    return out


def is_ufd(order: QuadraticOrder) -> UfdCertificate:
    if not order.is_maximal:
        raise ValueError("the norm criterion applies to maximal orders")
    M = minkowski_bound(order)
    ns = NormsetHandle(order)
    rows = []
    ok = True
    for p in _small_primes_up_to(int(M)):
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
    D = order.discriminant
    cg = class_group_imaginary(D) if D < 0 else class_group_real(D)
    return cg.structure.exponent <= 2


def is_strictly_saturated_window(order: QuadraticOrder, B: int) -> Verdict:
    """Search members x | y (integer divisibility, |x|,|y| <= B) whose
    quotient y/x leaves the normset. First failure wins; a pass is only
    evidence up to B.
    """
    if B < 4:
        raise ValueError("window bound must be >= 4")
    ns = NormsetHandle(order)
    members = ns.members_up_to(B)
    for yi, y in enumerate(members):
        for x in members[: yi + 1]:
            if y % x:
                continue
            q = y // x
            if abs(q) == 1:
                ok = q == 1 or _neg_unit(order)
            else:
                ok = ns.contains(q).answer == "yes"
            if not ok:
                return Verdict("no", (x, y, q), B, "window",
                               ("strictly_saturated", B))
    return Verdict("yes", None, B, "window", ("strictly_saturated", B))


def strong_saturation_check(order: QuadraticOrder, alpha: QuadElem,
                            beta: QuadElem) -> Verdict:
    """Look for a ring divisor gamma of beta with N(gamma) = N(alpha).
    Exact for imaginary orders; the bounded real search answers unknown
    when it exhausts.
    """
    na = alpha.norm()
    nb = beta.norm()
    query = ("strong_saturation", str(alpha), str(beta))
    if na == 0 or nb == 0:
        raise ValueError("zero is not a valid argument")
    if nb % na:
        # gamma | beta forces N(gamma) | N(beta), so no candidate exists
        return Verdict("no", None, None, "exact", query)
    if order.is_imaginary:
        for g in elements_of_norm(order, na):
            if divide_exact(beta, g) is not None:
                return Verdict("yes", g, None, "exact", query)
        return Verdict("no", None, None, "exact", query)
    sb = exact_real_search_bound(order, na)
    for g in elements_of_norm(order, na, search_bound=sb):
        if divide_exact(beta, g) is not None:
            return Verdict("yes", g, sb, "form_search", query)
    return Verdict("unknown", None, sb, "form_search", query)


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
    for q in range(1, B + 1):
        opts = ideal_class_options(cg, q)
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
