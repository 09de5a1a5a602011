"""Valuation-net simulator: norms of elements as nets over an index set.

An element's norm is its tuple of valuations, one per maximal-ideal index;
multiplication becomes componentwise addition and divisibility becomes the
componentwise order. The simulator works with two monoid descriptions:

* generated: elements are finite sums of declared atom nets over a finite
  labeled index set (values are non-negative integers at discrete indices,
  non-negative rationals at dense ones);
* sequence_domain: the index set is N plus one point at infinity, and the
  elements are exactly the eventually constant nets whose value at infinity
  equals the tail constant. Atoms are the one-hot nets e_n; the nets
  omega_k (zero through index k, then ones) and q (all ones) reproduce the
  classical non-ACCP behavior: omega_k = e_{k+1} + omega_{k+1} descends
  forever, and q = e_1 + omega_1 lies in every index's ideal.

Nets are canonical: the support stores only deviations from the tail, so
equality of nets is equality of functions. A net of a generated monoid has
finitely many members below it, so every query there is exact (or raises
CapExceeded past a million members). Those members make one table per
(monoid, net), walked as packed ints: one field per coordinate with a guard
bit on top, so a sum and its bound test are an addition, a subtraction and a
mask; the members are decoded into int tuples once. The last table built is
kept, so the next query on the same net reuses it and at most one table
stays in memory between calls. Only the infinite divisor lists of
positive-tail sequence nets are cut at a depth, by default DEFAULT_DEPTH
(32) in every function that takes one. A sequence net whose value at
infinity is off its tail is no member and has no divisors: its divisor list
is empty and its S_b is the empty set.

One rule for a net over another index set, on both kinds of monoid: it is
no member (contains answers False, and accp_chain with k = 1 returns the
one-net chain before reading the monoid), and every other query raises
IndexMismatch before it reads the net (_own_net).

Ideal norms carry an attainment flag: (gamma, attained=False) encodes the
value gamma + epsilon of an infimum that no element reaches. Epsilons
collapse additively (m*eps ~ eps) and normalize to a full unit step in a
discrete value group (eps ~ 1).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, lru_cache
from itertools import compress, islice
from math import ceil, inf, lcm, prod
from operator import add, le, mul, sub
from typing import Any, Iterable

from .errors import CapExceeded, IndexMismatch
from .monoid_core import FactorMultiset, FactorSession, MonoidView

INF_INDEX = "inf"
DISCRETE, DENSE = "discrete", "dense"
DEFAULT_DEPTH = 32  # the one default of every depth parameter


# ---------------------------------------------------------------------------
# index sets and nets


@dataclass(frozen=True)
class IndexSet:
    """Either finitely many labeled indices (each tagged discrete or dense)
    or N plus a point at infinity, where every finite index is discrete and
    only the infinite one may be dense.
    """

    kind: str  # "finite" | "omega_plus_point"
    labels: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    infinity_tag: str = DISCRETE

    def __post_init__(self):
        if self.kind not in ("finite", "omega_plus_point"):
            raise ValueError(f"unknown index set kind {self.kind!r}")
        if self.kind == "finite":
            if len(self.labels) != len(self.tags) or not self.labels:
                raise ValueError("finite index sets need one tag per label")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("duplicate index labels")
        for t in tuple(self.tags) + (self.infinity_tag,):
            if t not in (DISCRETE, DENSE):
                raise ValueError(f"unknown value tag {t!r}")
        # each label's place, read by every net built over this set; not a
        # field, so equality and hashing ignore it
        object.__setattr__(self, "_position", {lab: k for k, lab in enumerate(self.labels)})

    def tag_of(self, idx) -> str:
        if self.kind == "finite":
            return self.tags[self._position[idx]]
        return self.infinity_tag if idx == INF_INDEX else DISCRETE

    def valid_index(self, idx) -> bool:
        if self.kind == "finite":
            return idx in self.labels
        return idx == INF_INDEX or (isinstance(idx, int) and idx >= 1)


def finite_indices(*labeled: str) -> IndexSet:
    """IndexSet from "label:tag" strings, e.g. finite_indices("M1:dense", "M2:discrete")."""
    labels, tags = [], []
    for item in labeled:
        lab, _, tag = item.partition(":")
        labels.append(lab)
        tags.append(tag or DISCRETE)
    return IndexSet("finite", tuple(labels), tuple(tags))


def omega_indices(infinity_tag: str = DISCRETE) -> IndexSet:
    return IndexSet("omega_plus_point", infinity_tag=infinity_tag)


def _check_value(v, tag: str):
    if type(v) is int:  # the common case, spared the ABC checks on Fraction
        if v < 0:
            raise ValueError("net values are non-negative")
        return v
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise ValueError(f"net values are integers or fractions, got {v!r}")
    if v < 0:
        raise ValueError("net values are non-negative")
    if tag == DISCRETE and (isinstance(v, Fraction) and v.denominator != 1):
        raise ValueError(f"index is discrete but value {v} is fractional")
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


@dataclass(frozen=True, slots=True)
class ValNet:
    """An eventually constant valuation net, stored sparsely.

    support lists only the indices whose value differs from tail, so two
    nets are equal as dataclasses iff they are equal as functions. The zero
    net (empty support, zero tail, zero at infinity) represents the units.
    """

    index_set: IndexSet
    support: tuple[tuple[Any, Any], ...] = ()
    tail: Any = 0
    at_infinity: Any = 0

    def value_at(self, idx):
        if idx == INF_INDEX:
            return self.at_infinity
        for i, v in self.support:
            if i == idx:
                return v
        return self.tail

    @property
    def is_zero(self) -> bool:
        return not self.support and self.tail == 0 and self.at_infinity == 0

    def support_indices(self) -> tuple:
        return tuple(i for i, _ in self.support)

    def __str__(self):
        parts = [f"{i}:{v}" for i, v in self.support]
        if self.index_set.kind == "omega_plus_point":
            parts.append(f"tail:{self.tail}")
            parts.append(f"inf:{self.at_infinity}")
        return "(" + ", ".join(parts) + ")" if parts else "(0)"


def make_net(index_set: IndexSet, values: dict | None = None, tail=0,
             at_infinity=None) -> ValNet:
    """Canonical net constructor; values is a sparse index -> value map."""
    values = values or {}
    if index_set.kind == "finite":
        if tail != 0:
            raise ValueError("finite index sets have tail 0")
        if at_infinity not in (None, 0):
            raise ValueError("finite index sets have no point at infinity")
        at_infinity = 0
    else:
        tail = _check_value(tail, DISCRETE)
        if at_infinity is None:
            at_infinity = tail
        at_infinity = _check_value(at_infinity, index_set.infinity_tag)
    sup = []
    for i, v in values.items():
        if i == INF_INDEX:
            raise ValueError("pass the infinity value via at_infinity")
        if not index_set.valid_index(i):
            raise ValueError(f"{i!r} is not an index of {index_set.kind}")
        v = _check_value(v, index_set.tag_of(i))
        if v != tail:
            sup.append((i, v))
    if index_set.kind == "finite":
        sup.sort(key=lambda p: index_set._position[p[0]])
    else:
        sup.sort()
    return _canon_net(index_set, tuple(sup), tail, at_infinity)


# ValNet's slot setters, which bypass its frozen __setattr__
_SET_INDEX_SET, _SET_SUPPORT, _SET_TAIL, _SET_AT_INFINITY = (
    ValNet.__dict__[f.name].__set__ for f in fields(ValNet))


def _canon_net(index_set: IndexSet, support: tuple, tail=0, at_infinity=0) -> ValNet:
    """ValNet(index_set, support, tail, at_infinity) for fields that are
    already canonical (support sorted, free of the tail value, every value
    checked), filled through the slots instead of the dataclass __init__."""
    x = object.__new__(ValNet)
    _SET_INDEX_SET(x, index_set)
    _SET_SUPPORT(x, support)
    _SET_TAIL(x, tail)
    _SET_AT_INFINITY(x, at_infinity)
    return x


def zero_net(index_set: IndexSet) -> ValNet:
    return make_net(index_set)


def _same_index_set(a: ValNet, b: ValNet):
    if a.index_set != b.index_set:
        raise IndexMismatch("nets live over different index sets")


def _union_indices(a: ValNet, b: ValNet) -> list:
    seen = dict.fromkeys(a.support_indices())
    seen.update(dict.fromkeys(b.support_indices()))
    return list(seen)


def net_add(a: ValNet, b: ValNet) -> ValNet:
    _same_index_set(a, b)
    vals = {i: a.value_at(i) + b.value_at(i) for i in _union_indices(a, b)}
    return make_net(a.index_set, vals, tail=a.tail + b.tail,
                    at_infinity=a.at_infinity + b.at_infinity)


def net_sub(a: ValNet, b: ValNet) -> ValNet | None:
    """a - b componentwise, or None if any component would go negative."""
    _same_index_set(a, b)
    vals = {}
    for i in _union_indices(a, b):
        w = a.value_at(i) - b.value_at(i)
        if w < 0:
            return None
        vals[i] = w
    if a.tail < b.tail or a.at_infinity < b.at_infinity:
        return None
    return make_net(a.index_set, vals, tail=a.tail - b.tail,
                    at_infinity=a.at_infinity - b.at_infinity)


def net_leq(a: ValNet, b: ValNet) -> bool:
    _same_index_set(a, b)
    if a.tail > b.tail or a.at_infinity > b.at_infinity:
        return False
    return all(a.value_at(i) <= b.value_at(i) for i in _union_indices(a, b))


def net_lt(a: ValNet, b: ValNet) -> bool:
    return net_leq(a, b) and a != b


def divides(a: ValNet, b: ValNet) -> bool:
    """Model divisibility: a | b iff the net of a is componentwise <= that
    of b (the cofactor is then the componentwise difference).
    """
    return net_leq(a, b)


def length(b: ValNet):
    """The norm-sum ||b||: total of all components. Infinite as soon as the
    tail is positive; otherwise the support sum plus the value at infinity.
    """
    if b.tail != 0:
        return inf
    return sum(v for _, v in b.support) + b.at_infinity


# ---------------------------------------------------------------------------
# monoid descriptions


@dataclass(frozen=True)
class NetMonoid:
    """A monoid of nets: either finitely generated by declared atoms or the
    full sequence domain (eventually constant, value at infinity == tail).
    """

    index_set: IndexSet
    kind: str  # "generated" | "sequence_domain"
    atoms: tuple[ValNet, ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("generated", "sequence_domain"):
            raise ValueError(f"unknown monoid kind {self.kind!r}")
        if self.kind == "generated":
            if not self.atoms:
                raise ValueError("generated monoids need at least one atom")
            for g in self.atoms:
                if g.index_set != self.index_set:
                    raise IndexMismatch("atom over the wrong index set")
                if g.is_zero:
                    raise ValueError("the zero net is a unit, not an atom")
        elif self.index_set.kind != "omega_plus_point":
            raise ValueError("the sequence domain lives over omega plus a point")

    def zero(self) -> ValNet:
        return zero_net(self.index_set)

    def contains(self, x: ValNet, depth: int = DEFAULT_DEPTH) -> bool:
        """Exact membership; `depth` is accepted and ignored."""
        if x.index_set != self.index_set:
            return False
        if self.kind == "sequence_domain":
            return x.at_infinity == x.tail
        if x.is_zero:
            return True
        t = _table(self, x)
        return t.vec(x) in t.members

    def __str__(self):
        return self.name or f"{self.kind} net monoid"


def _own_net(m: NetMonoid, b: ValNet):
    """Raise IndexMismatch unless b lives over m's index set: the first
    step of every query on b but contains."""
    if b.index_set != m.index_set:
        raise IndexMismatch("nets live over different index sets")


def sequence_domain(infinity_tag: str = DISCRETE) -> NetMonoid:
    return NetMonoid(omega_indices(infinity_tag), "sequence_domain",
                     name="sequence domain")


def generated_monoid(index_set: IndexSet, atoms: Iterable[ValNet],
                     name: str = "") -> NetMonoid:
    return NetMonoid(index_set, "generated", tuple(atoms), name)


def e_net(index_set: IndexSet, i: int) -> ValNet:
    """The atom e_i of the sequence domain: one at index i, zero elsewhere."""
    return make_net(index_set, {i: 1}, tail=0, at_infinity=0)


def omega_net(index_set: IndexSet, k: int) -> ValNet:
    """omega_k: zero at indices 1..k, one beyond and at infinity."""
    if k < 0:
        raise ValueError("omega_k needs k >= 0")
    return make_net(index_set, {i: 0 for i in range(1, k + 1)},
                    tail=1, at_infinity=1)


def q_net(index_set: IndexSet) -> ValNet:
    """The all-ones net: the image of the element q lying in every ideal."""
    return make_net(index_set, {}, tail=1, at_infinity=1)


def _net_key(x: ValNet):
    return (x.tail, x.at_infinity, tuple((str(i), v) for i, v in x.support))


_DIVISOR_CAP = 10_000
_MEMBER_CAP = 1_000_000


class _Table:
    """The members of a generated monoid below one net b, as int vectors.

    The labels are those of a finite index set, or, over omega plus a
    point, the support indices of b and the atoms, one index past them all
    (the tail) and infinity. Each label is scaled by the lcm of the atom
    denominators there (1 at a discrete label), so a net becomes a
    fixed-length int tuple and an atom a tuple to add.

    Members are found layer by layer, layer k holding those whose least
    atom count is k, on packed ints: a tuple becomes one int of w-bit
    fields, w one bit more than the largest coordinate of b needs, and
    `guard` masks the top bit of every field. A member x and an atom g are
    at most b, so x + g stays below 2**w in every field and carries into no
    neighbour. With `ceiling` = b | guard, no field borrows in
    ceiling - (x + g) either, so x + g is at most b exactly when that
    difference keeps every guard bit. Atoms above b somewhere are left out.
    Every atom is positive in some coordinate, so the layers end by
    themselves; past _MEMBER_CAP members the table raises CapExceeded. The
    members are decoded into int tuples once, and the packed ints dropped.
    A member below any x <= b is below b, so one table answers membership
    and divisibility for all x <= b.
    """

    def __init__(self, m: NetMonoid, b: ValNet):
        self.m, self.labels = m, m.index_set.labels
        if m.index_set.kind == "omega_plus_point":
            # every net in play equals its tail past the last support index,
            # so the first index beyond them all stands for the tail
            sup = sorted({i for x in (*m.atoms, b) for i in x.support_indices()})
            self.labels = (*sup, max(sup, default=0) + 1, INF_INDEX)
        self.scale = tuple(lcm(*(g.value_at(i).denominator for g in m.atoms))
                           for i in self.labels)
        top = tuple(v.numerator * s // v.denominator
                    for v, s in zip(map(b.value_at, self.labels), self.scale))
        w = max(top).bit_length() + 1
        shifts = range(0, w * len(top), w)

        def pack(v):
            return sum(x << s for x, s in zip(v, shifts))

        guard = pack((1 << (w - 1),) * len(top))
        ceiling = pack(top) | guard
        atoms = [pack(g) for g in map(self.vec, m.atoms) if all(map(le, g, top))]
        frontier = {0}
        members = {0}
        while frontier:
            frontier = {y for x in frontier for g in atoms
                        if (ceiling - (y := x + g)) & guard == guard} - members
            members |= frontier
            if len(members) > _MEMBER_CAP:
                raise CapExceeded(f"more than {_MEMBER_CAP} members below {b}",
                                  cap=_MEMBER_CAP)
        mask = (1 << w) - 1
        self.members = {tuple([p >> s & mask for s in shifts]) for p in members}
        # d <= x implies sum(d) <= sum(x): divisors of x lie in a prefix
        self.order = sorted(self.members, key=sum)
        self.totals = [sum(d) for d in self.order]

    def vec(self, x: ValNet) -> tuple:
        """x as an int tuple. A value off the members' lattice reads -1, so
        such an x is no member and has no divisors."""
        w = [(v.numerator * s, v.denominator)
             for v, s in zip(map(x.value_at, self.labels), self.scale)]
        return tuple(n // d if n % d == 0 else -1 for n, d in w)

    def net(self, v) -> ValNet:
        vals = [x // s if x % s == 0 else Fraction(x, s) for x, s in zip(v, self.scale)]
        tail = at_inf = 0
        if self.m.index_set.kind == "omega_plus_point":
            # the labels are sorted, and every value off infinity is discrete
            *vals, tail, at_inf = vals
        return _canon_net(self.m.index_set,
                          tuple((i, x) for i, x in zip(self.labels, vals) if x != tail),
                          tail, at_inf)

    def lengths(self, vs) -> set:
        """{length(self.net(v)) for v in vs} without the nets, equal in value
        and in type: a sum with a fractional term is a Fraction even when it
        is whole, and the set is filled in the same order, so of an int and
        a Fraction of one value the same one stays."""
        den = lcm(*self.scale)
        weights = [den // s for s in self.scale]
        scaled = [(k, s) for k, s in enumerate(self.scale) if s != 1]
        # over omega plus a point, a positive tail column makes the length inf
        tail = -2 if self.m.index_set.kind == "omega_plus_point" else None
        out = set()
        for v in vs:
            n = sum(map(mul, v, weights))
            if tail is not None and v[tail]:
                out.add(inf)
            elif any(v[k] % s for k, s in scaled):
                out.add(Fraction(n, den))
            else:
                out.add(n // den)
        return out

    def key(self, v):
        """Sorts int tuples as _net_key sorts their nets."""
        if self.m.index_set.kind == "finite":
            return tuple(compress(zip(self.labels, v), v))
        *vals, tail, at_inf = v
        return tail, at_inf, tuple((str(i), x) for i, x in zip(self.labels, vals) if x != tail)

    def divisors(self, x) -> list:
        """Nonzero members d <= x whose cofactor x - d is a member."""
        below = self.order[1:bisect_right(self.totals, sum(x))]
        return [d for d in below if tuple(map(sub, x, d)) in self.members]

    def view(self) -> MonoidView:
        def proper_divisors(x):
            return ((d, tuple(map(sub, x, d))) for d in self.divisors(x) if d != x)

        def divide(d, x):
            c = tuple(map(sub, x, d))
            return c if c in self.members else None

        return MonoidView(name=str(self.m), divide=divide,
                          op=lambda x, y: tuple(map(add, x, y)), key=self.key,
                          proper_divisors=proper_divisors, elements_up_to=lambda B: [])


@lru_cache(maxsize=1)
def _table(m: NetMonoid, b: ValNet) -> _Table:
    """_Table(m, b), kept until a call on another (monoid, net): consecutive
    queries on one net share one table, and at most one outlives a call."""
    return _Table(m, b)


def monoid_divisors(m: NetMonoid, b: ValNet, depth: int = DEFAULT_DEPTH) -> list[ValNet]:
    """Nonunit divisors of b inside m, i.e. members d <= b whose cofactor
    b - d is also a member, sorted by _net_key.

    Generated monoids: complete (see _Table for its cap); the member table
    is reused by the next query on the same (monoid, net). Sequence domain
    with zero tail: complete (every nonzero net below b), written in
    _net_key order without a sort, or CapExceeded beyond 10,000 divisors,
    before any is listed. With a positive tail b has infinitely many
    divisors, and the list is truncated by `depth`. A sequence net with its
    value at infinity off its tail is no member, and neither is any b - d,
    so it has no divisors.
    """
    _own_net(m, b)
    if m.kind == "generated":
        t = _table(m, b)
        return [t.net(d) for d in sorted(t.divisors(t.vec(b)), key=t.key)]
    if not m.contains(b):
        return []
    if b.tail == 0:
        count = prod(v + 1 for _, v in b.support) - 1
        if count > _DIVISOR_CAP:
            raise CapExceeded(f"{b} has {count} divisors, more than {_DIVISOR_CAP} "
                              "to list", cap=_DIVISOR_CAP)
        # _net_key compares a support's first pair (str(i), x), then the
        # rest, which lies over later indices. rows[k] lists the supports
        # below b over its indices from position k on in that order, the
        # empty one first: index j in str order, x = 1 .. v_j, then rows[j + 1]
        sup = b.support
        by_str = sorted(range(len(sup)), key=lambda j: str(sup[j][0]))
        rows = [[()] for _ in range(len(sup) + 1)]
        for k in reversed(range(len(sup))):
            for j in by_str:
                if j >= k:
                    i, v = sup[j]
                    for x in range(1, v + 1):
                        head = ((i, x),)
                        rows[k] += [head + rest for rest in rows[j + 1]]
        return [_canon_net(m.index_set, s) for s in islice(rows[0], 1, None)]
    # finite-support divisors over the next `depth` indices, of total mass
    # at most depth, then those that keep the tail
    idxs = _tail_window(b, depth)

    def below(pos, budget):
        """Supports of the finite nets under b at idxs[pos:], of mass <= budget."""
        if pos == len(idxs):
            yield ()
            return
        i = idxs[pos]
        for v in range(min(b.value_at(i), budget) + 1):
            for rest in below(pos + 1, budget - v):
                yield ((i, v),) + rest if v else rest
    # the first support below is the zero net's
    out = [_canon_net(m.index_set, sup) for sup in islice(below(0, depth), 1, _DIVISOR_CAP + 1)]
    out += [b] + [net_sub(b, e_net(m.index_set, i)) for i in idxs]
    return sorted(set(out), key=_net_key)


def _tail_window(b: ValNet, depth: int) -> list:
    """The indices 1 .. max(support) + depth where b is positive: those the
    depth-cut divisor list of a positive-tail sequence net reads, and the
    atoms comaximal_family picks from."""
    hi = max([*b.support_indices(), 0]) + depth
    return [i for i in range(1, hi + 1) if b.value_at(i) > 0]


# ---------------------------------------------------------------------------
# length analytics


def S_b(m: NetMonoid, b: ValNet, depth: int = DEFAULT_DEPTH) -> set:
    """Lengths ||d|| of nonunit divisors of b in m. Exact for generated
    monoids, read off the member table, which the next query on the same
    (monoid, net) reuses. Exact for zero-tail sequence nets, where every
    total from 1 to ||b|| occurs. A positive tail allows every finite
    total, and infinity joins (b divides b); the finite totals are cut at
    b's mass over the indices 1 .. max(support) + depth, the window of
    monoid_divisors. A sequence net that is no member has no divisors and
    answers the empty set.
    """
    _own_net(m, b)
    if m.kind == "sequence_domain":
        if b.is_zero or not m.contains(b):
            return set()
        if b.tail == 0:
            top = length(b)
            return set(range(1, top + 1))
        finite_top = sum(map(b.value_at, _tail_window(b, depth)))
        return set(range(1, finite_top + 1)) | {inf}
    t = _table(m, b)
    return t.lengths(t.divisors(t.vec(b)))


def inf_S_b(m: NetMonoid, b: ValNet, depth: int = DEFAULT_DEPTH):
    s = S_b(m, b, depth)
    return min(s) if s else None


def bfd_bound(m: NetMonoid, b: ValNet, depth: int = DEFAULT_DEPTH) -> int | None:
    """ceil(||b|| / inf S_b): a bound on the length of every factorization
    of b. None when ||b|| is infinite or b is a unit.
    """
    t = inf_S_b(m, b, depth)
    lb = length(b)
    if t is None or lb == inf:
        return None
    return ceil(Fraction(lb) / Fraction(t))


# ---------------------------------------------------------------------------
# factorization and chains


@dataclass(frozen=True)
class SearchOutcome:
    """Found / proven_none / none_within_depth, with the payload when found.
    none_within_depth is the answer for positive-tail sequence nets only."""

    status: str
    value: Any = None

    def __bool__(self):
        return self.status == "found"

    def __str__(self):
        return self.status if self.value is None else f"{self.status}: {self.value}"


def net_factorizations(m: NetMonoid, b: ValNet) -> tuple[FactorMultiset, ...]:
    """All factorizations of b into atoms of a generated monoid."""
    _own_net(m, b)
    if m.kind != "generated":
        raise ValueError("exhaustive factorization is for generated monoids")
    if b.is_zero:
        raise ValueError("the zero net is a unit")
    t = _table(m, b)
    if t.vec(b) not in t.members:
        return ()  # not a sum of atoms at all
    return tuple(FactorMultiset(tuple(map(t.net, f.atoms)))
                 for f in FactorSession(t.view()).factorizations(t.vec(b)))


def find_atomic_factorization(m: NetMonoid, b: ValNet,
                              depth: int = DEFAULT_DEPTH) -> SearchOutcome:
    """One factorization of b into atoms, three-valued; `depth` is accepted
    and ignored.

    Generated monoids: found, or proven_none. The factorization found is
    net_factorizations(m, b)[0], the key-least one, searched directly
    instead of listing them all. Sequence domain: zero tail
    means b is literally a finite sum of e_i (found); a positive tail never
    resolves within finite depth, so the honest answer is none_within_depth,
    not a proof of absence.
    """
    _own_net(m, b)
    if b.is_zero:
        raise ValueError("the zero net is a unit")
    if m.kind == "sequence_domain":
        if not m.contains(b):
            raise ValueError(f"{b} is not in {m}")
        if b.tail == 0:
            atoms = []
            for i, v in b.support:
                atoms.extend([e_net(m.index_set, i)] * v)
            return SearchOutcome("found", FactorMultiset(tuple(atoms)))
        return SearchOutcome("none_within_depth")
    t = _table(m, b)
    x = t.vec(b)
    if x not in t.members:
        return SearchOutcome("proven_none")
    # the irreducible atoms below b in key order; a declared atom that is a
    # sum of others has a proper divisor and is left out
    atoms = sorted({g for g in map(t.vec, m.atoms) if t.divisors(g) == [g]}, key=t.key)
    # Take the key-least atom g with x - g a member, and go on from x - g.
    # Each atom g' of x - g has x - g' a member, so g' comes no earlier than
    # g: the atoms taken ascend, and each is the least any factorization of
    # what is left can start with. That is net_factorizations(m, b)[0].
    out = []
    while any(x):
        g = next(g for g in atoms if tuple(map(sub, x, g)) in t.members)
        out.append(g)
        x = tuple(map(sub, x, g))
    return SearchOutcome("found", FactorMultiset(tuple(map(t.net, out))))


def accp_chain(m: NetMonoid, b: ValNet, k: int) -> list[ValNet] | None:
    """A chain of k nets starting at b, each a strictly smaller nonunit
    divisor of the previous: a length-k witness against the ascending chain
    condition when it exists, else None.
    """
    if k < 1 or b.is_zero:
        return None
    chain = [b]
    if k == 1:
        return chain
    _own_net(m, b)
    if m.kind == "sequence_domain":
        if not m.contains(b):
            return None
        cur = b
        while len(chain) < k:
            if cur.tail > 0:
                # strip one unit at the first tail index beyond the support
                nxt_idx = max([*cur.support_indices(), 0]) + 1
            else:
                # a nonzero zero-tail member is positive on its support
                nxt_idx = cur.support[0][0]
            cur = net_sub(cur, e_net(m.index_set, nxt_idx))
            if cur.is_zero:
                return None
            chain.append(cur)
        return chain

    t = _table(m, b)

    @cache
    def below(x):
        return sorted((d for d in t.divisors(x) if d != x), key=t.key)

    # memoized: a member that many descents reach is searched once per need
    @cache
    def extend(cur, need):
        # each d is strictly below cur, so the chain never repeats a member
        if need == 0:
            return []
        for d in below(cur):
            rest = extend(d, need - 1)
            if rest is not None:
                return [d] + rest
        return None

    tail = extend(t.vec(b), k - 1)
    return None if tail is None else chain + [t.net(d) for d in tail]


# ---------------------------------------------------------------------------
# comaximal families, covers, counting


def comaximal_family(m: NetMonoid, b: ValNet, k: int,
                     depth: int = DEFAULT_DEPTH) -> list[ValNet] | None:
    """k nonunit divisors of b with pairwise disjoint positive regions, or
    None if b has no such family; `depth` is accepted and ignored. On a
    generated monoid two divisors are disjoint when no table coordinate is
    positive in both; the tail and infinity coordinates stand for the
    cofinite and infinite parts of the regions. In the sequence domain the
    family is the first k atoms e_i dividing b: b's positive indices up to
    its last support index, then, with a positive tail, the next k indices.
    """
    _own_net(m, b)
    if k < 1:
        return None
    if m.kind == "sequence_domain":
        idxs = _tail_window(b, k if b.tail > 0 else 0)
        if len(idxs) < k or not m.contains(b):
            return None
        return [e_net(m.index_set, i) for i in idxs[:k]]
    t = _table(m, b)
    # disjointness reads only where a divisor is positive, and the least
    # family takes the key-least divisor of each positive pattern it uses
    least: dict[tuple, tuple] = {}
    for d in sorted(t.divisors(t.vec(b)), key=t.key):
        least.setdefault(tuple(v > 0 for v in d), d)
    pool = list(least.values())

    def pick(start, acc):
        if len(acc) == k:
            return acc
        for j in range(start, len(pool)):
            if not any(any(map(min, pool[j], d)) for d in acc):
                got = pick(j + 1, acc + [pool[j]])
                if got is not None:
                    return got
        return None

    got = pick(0, [])
    return None if got is None else [t.net(d) for d in got]


def finite_cover_check(m: NetMonoid, b: ValNet, candidate: list,
                       depth: int = DEFAULT_DEPTH) -> bool:
    """Do the candidate indices cover the divisors of b: does every nonunit
    divisor have positive value at some candidate index? `depth` is
    accepted and ignored. In the sequence domain the binding cases are the
    atoms e_i (single-index divisors): b is covered when its tail is zero
    and every support index is a candidate, since a positive tail puts e_i
    below b for indices past every candidate.
    """
    _own_net(m, b)
    cand = set(candidate)
    for idx in cand:
        if not m.index_set.valid_index(idx):
            raise ValueError(f"{idx!r} is not an index here")
    if m.kind == "sequence_domain":
        return not m.contains(b) or (b.tail == 0 and cand.issuperset(b.support_indices()))
    t = _table(m, b)
    # over omega plus a point, an index off the labels reads the tail column
    cols = {t.labels.index(i) if i in t.labels else len(t.labels) - 2 for i in cand}
    return all(any(d[c] > 0 for c in cols) for d in t.divisors(t.vec(b)))


def idempotent_cover_check(m: NetMonoid) -> bool:
    """Every member positive at a dense index must be positive at some
    discrete index. Exact: sums inherit positivity, so checking the atoms
    settles every member. The sequence domain declares no atoms and holds:
    a positive value at the (possibly dense) infinite point forces a
    positive tail. The atoms are read in the coordinates of a member table
    built here, which leaves the query table of _table in place; over omega
    plus a point the tail and the infinite point count too.
    """
    t = _Table(m, m.zero())
    tags = [m.index_set.tag_of(i) for i in t.labels]
    for g in map(t.vec, m.atoms):
        positive = {tag for tag, v in zip(tags, g) if v > 0}
        if DENSE in positive and DISCRETE not in positive:
            return False
    return True


@dataclass(frozen=True)
class DivisorCount:
    count: int
    exact: bool  # False: a positive-tail sequence net's list, cut at the depth

    def __str__(self):
        return str(self.count) if self.exact else f">={self.count} (depth hit)"


def ffd_window(m: NetMonoid, b: ValNet, depth: int = DEFAULT_DEPTH) -> DivisorCount:
    """Number of distinct nonunit divisors of b. Exact for generated
    monoids and zero-tail sequence members, and 0 (exact) for a sequence
    net that is no member. A positive tail has infinitely many divisors,
    and the count of monoid_divisors(m, b, depth), the depth-truncated
    list, is a lower bound.
    """
    _own_net(m, b)
    if m.kind == "sequence_domain":
        if not m.contains(b):
            return DivisorCount(0, True)
        if b.tail == 0:
            return DivisorCount(prod(v + 1 for _, v in b.support) - 1, True)
        # monoid_divisors' list, counted without building it: the nonzero
        # finite nets below b over the window of mass <= depth (at most
        # _DIVISOR_CAP of them), then b and each b - e_i
        idxs = _tail_window(b, depth)
        ways = [1] + [0] * depth  # ways[s]: finite nets of mass s so far
        for i in idxs:
            v = b.value_at(i)
            ways = [sum(ways[max(0, s - v):s + 1]) for s in range(depth + 1)]
        return DivisorCount(min(sum(ways) - 1, _DIVISOR_CAP) + 1 + len(idxs), False)
    t = _table(m, b)
    return DivisorCount(len(t.divisors(t.vec(b))), True)


# ---------------------------------------------------------------------------
# epsilon-flagged ideal norms


@dataclass(frozen=True)
class EpsVal:
    """A value gamma plus an attainment flag; attained=False reads as
    gamma + epsilon (an infimum no element reaches).
    """

    gamma: Any
    attained: bool = True

    def __str__(self):
        return str(self.gamma) if self.attained else f"{self.gamma}+eps"


def eps_add(x: EpsVal, y: EpsVal, tag: str = DISCRETE) -> EpsVal:
    """Add two epsilon-flagged values. Epsilons absorb (eps + eps ~ eps);
    in a discrete value group a dangling epsilon is a whole step, so the
    result normalizes to (gamma + 1, attained).
    """
    g = x.gamma + y.gamma
    att = x.attained and y.attained
    if not att and tag == DISCRETE:
        return EpsVal(g + 1, True)
    return EpsVal(g, att)


def ideal_norm(m: NetMonoid, generators: list[ValNet]) -> dict:
    """Norm of a finitely generated net ideal: at each index the minimum
    over the generators, attained (the minimizing generator realizes it).
    Keys: every deviation index of any generator, plus "tail" and "inf".
    """
    if not generators:
        raise ValueError("ideal_norm needs at least one generator")
    for g in generators:
        if g.index_set != m.index_set:
            raise IndexMismatch("generator over the wrong index set")
    idxs: dict = {}
    for g in generators:
        idxs.update(dict.fromkeys(g.support_indices()))
    out = {i: EpsVal(min(g.value_at(i) for g in generators), True)
           for i in idxs}
    out["tail"] = EpsVal(min(g.tail for g in generators), True)
    out["inf"] = EpsVal(min(g.at_infinity for g in generators), True)
    return out


def ideal_norm_product_check(m: NetMonoid, gens_i: list[ValNet],
                             gens_j: list[ValNet]) -> bool:
    """Additivity of the ideal norm: the product ideal (all pairwise sums
    of generators) must have norm equal to the eps-sum of the factors'
    norms at every index.
    """
    prod = [net_add(a, b) for a in gens_i for b in gens_j]
    ni, nj, np_ = ideal_norm(m, gens_i), ideal_norm(m, gens_j), ideal_norm(m, prod)
    keys = set(ni) | set(nj) | set(np_)

    def at(n, k):
        return n.get(k, n["tail"])

    # ideal_norm builds attained values only, so no epsilon, and no value
    # tag, takes part in the sum
    return all(eps_add(at(ni, k), at(nj, k)) == at(np_, k) for k in keys)


# ---------------------------------------------------------------------------
# declarative monoid files and net literals


def parse_value(text: str):
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    return int(text)


def parse_net(m, text: str) -> ValNet:
    """Net literals: named nets of the sequence domain ("e5", "w3"/"omega3",
    "q", "0"), or sparse "idx:val,idx:val,tail:v,inf:v" lists (indices are
    labels for finite index sets, positive integers otherwise). Accepts a
    NetMonoid or a bare IndexSet.
    """
    text = text.strip()
    iset = m.index_set if isinstance(m, NetMonoid) else m
    if iset.kind == "omega_plus_point":
        low = text.lower()
        if low == "q":
            return q_net(iset)
        for pre in ("omega", "w"):
            if low.startswith(pre) and low[len(pre):].isdigit():
                return omega_net(iset, int(low[len(pre):]))
        if low.startswith("e") and low[1:].isdigit():
            return e_net(iset, int(low[1:]))
    if text == "0":
        return zero_net(iset)
    vals: dict = {}
    for item in text.split(","):
        if not item.strip():
            continue
        key, sep, val = item.partition(":")
        if not sep:
            raise ValueError(f"bad net component {item!r}; want idx:value")
        key = key.strip()
        v = parse_value(val)
        if key not in ("tail", INF_INDEX) and iset.kind == "omega_plus_point":
            key = int(key)
        if key in vals:
            raise ValueError(f"{key} is given twice in net {text!r}")
        vals[key] = v
    tail = vals.pop("tail", 0)
    at_inf = vals.pop(INF_INDEX, None)
    return make_net(iset, vals, tail=tail, at_infinity=at_inf)


def load_net_monoid(path) -> NetMonoid:
    """Read a monoid description:

        # comment lines and blanks are skipped
        indexset finite M1:dense M2:discrete      (or: indexset omega_plus_point [dense])
        kind generated                            (or: sequence_domain)
        atom M1:1/2,M2:1
        atom M2:1
        name my monoid                            (optional)
    """
    iset = None
    kind = None
    name = ""
    atom_lines: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            word, _, rest = line.partition(" ")
            rest = rest.strip()
            if word == "indexset":
                parts = rest.split()
                if parts[0] == "finite":
                    iset = finite_indices(*parts[1:])
                elif parts[0] == "omega_plus_point":
                    iset = omega_indices(*(parts[1:] or [DISCRETE]))
                else:
                    raise ValueError(f"unknown index set {parts[0]!r}")
            elif word == "kind":
                kind = rest
            elif word == "atom":
                atom_lines.append(rest)
            elif word == "name":
                name = rest
            else:
                raise ValueError(f"unknown directive {word!r}")
    if iset is None or kind is None:
        raise ValueError("monoid file needs indexset and kind directives")
    if kind == "sequence_domain":
        return NetMonoid(iset, kind, name=name or "sequence domain")
    if kind != "generated":
        raise ValueError(f"unknown monoid kind {kind!r}")
    atoms = tuple(parse_net(iset, text) for text in atom_lines)
    return NetMonoid(iset, "generated", atoms, name)
