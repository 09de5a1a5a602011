"""Reduced commutative cancellative monoids: atoms, factorizations, windows.

Everything here runs against a MonoidView, which adapts a concrete monoid
(normset integers, quadratic-order elements up to associates, additive
numerical monoids) to one small interface. Views hand us canonical
representatives only; associate reduction is the adapter's job.

Global properties (UFM, HFM, length-factorial, elasticity) are reported as
verdicts over an explicit window bound, never as proofs. Callers that need
the distinction keep the bound around; WindowVerdict carries it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Any, Callable, Iterable

from .arith import factorize
from .errors import CapExceeded, SearchBudgetExceeded

# ---------------------------------------------------------------------------
# finite abelian groups and the Davenport constant


@dataclass(frozen=True)
class AbelianGroup:
    """Finite abelian group in invariant-factor form: Z_d1 x ... x Z_dk with
    d1 | d2 | ... | dk and every d_i >= 2. The empty tuple is the trivial group.
    """

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        fs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for d in fs:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisor chain, got {a} then {b}")

    @classmethod
    def from_cyclic(cls, orders: Iterable[int]) -> "AbelianGroup":
        """Build from any list of cyclic orders, e.g. [2, 3] -> Z_6."""
        parts: dict[int, list[int]] = {}
        for m in orders:
            m = int(m)
            if m < 1:
                raise ValueError(f"cyclic order {m} < 1")
            for p, e in factorize(m) if m > 1 else []:
                parts.setdefault(p, []).append(e)
        for exps in parts.values():
            exps.sort(reverse=True)
        rank = max((len(v) for v in parts.values()), default=0)
        # largest invariant factor collects the largest exponent of every prime
        descending = []
        for i in range(rank):
            descending.append(prod(p ** exps[i] for p, exps in parts.items() if i < len(exps)))
        return cls(tuple(reversed(descending)))

    @classmethod
    def from_string(cls, text: str) -> "AbelianGroup":
        """Parse 'trivial', 'Z_2 x Z_4', or bare comma lists like '3,3'."""
        t = text.strip().lower()
        if t in ("trivial", "1", "z_1", "()", ""):
            return cls(())
        chunks = t.replace("x", ",").split(",")
        orders = []
        for chunk in chunks:
            c = chunk.strip()
            if not c:
                continue
            c = c.removeprefix("z_").removeprefix("z")
            orders.append(int(c))
        return cls.from_cyclic(orders)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.invariant_factors)

    def elements(self):
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.invariant_factors))

    def __str__(self):
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z_{d}" for d in self.invariant_factors)


def davenport_witness(g: AbelianGroup, cap: int = 64,
                      state_budget: int = 200_000) -> tuple[int, tuple]:
    """Davenport constant of g with a certificate.

    Returns (D, witness) where D is the least n such that every multiset of n
    group elements has a nonempty zero-sum sub-multiset, and witness is a
    zero-sum-free multiset of the maximal size D-1.

    p-groups and groups of rank <= 2 are exact at any order: Olson (J. Number
    Theory 1, 1969) proved D = 1 + sum(d_i - 1) for them, and the basis
    sequence e_1^(d_1-1) ... e_r^(d_r-1), sorted ascending, is the witness.
    `cap` and `state_budget` do not apply there. Every other group (rank >= 3
    and not a p-group, such as Z_2 x Z_2 x Z_6) goes to the frontier search,
    which raises CapExceeded above order `cap` and SearchBudgetExceeded past
    `state_budget` frontier states.
    """
    fs = g.invariant_factors
    if len(fs) <= 2 or _is_prime_power(g.exponent):
        basis = [tuple(int(i == k) for i in range(len(fs))) for k in range(len(fs))]
        witness = sorted(e for e, d in zip(basis, fs) for _ in range(d - 1))
        return 1 + sum(d - 1 for d in fs), tuple(witness)
    return _davenport_search(g, cap, state_budget)


def _is_prime_power(n: int) -> bool:
    # the scan to the least prime p costs no more than the witness, which
    # holds at least p - 1 elements
    p = next(q for q in range(2, n + 1) if n % q == 0)
    while n % p == 0:
        n //= p
    return n == 1


def _davenport_search(g: AbelianGroup, cap: int = 64,
                      state_budget: int = 200_000) -> tuple[int, tuple]:
    """Davenport constant of any g of order <= cap, by search.

    Grow zero-sum-free multisets one element at a time (elements
    nondecreasing to enumerate multisets once); D is the first size where no
    extension survives. States with equal subset-sum sets extend identically,
    so the frontier is deduplicated on (sums, last element) -- an optimization
    only, the frontier still covers every viable multiset profile. The
    frontier can still blow up exponentially near the cap, so its size is
    budgeted rather than trusted.

    Element k is the k-th tuple of g.elements(), i.e. the mixed-radix integer
    of its coordinates, and a subset-sum set is the bitmask of its elements.
    Adding c in coordinate i rotates each block of that coordinate: the bits
    whose coordinate stays below d_i move up by c * stride_i, the others wrap
    down by (d_i - c) * stride_i.
    """
    if g.order > cap:
        raise CapExceeded(f"group order {g.order} exceeds brute-force cap {cap}", cap=cap)
    fs, n = g.invariant_factors, g.order
    if n == 1:
        return 1, ()
    coords = list(g.elements())
    strides = [prod(fs[i + 1:]) for i in range(len(fs))]
    full = (1 << n) - 1

    def rotation(i, c):
        low = sum(1 << k for k, x in enumerate(coords) if x[i] < fs[i] - c)
        return low, c * strides[i], full ^ low, (fs[i] - c) * strides[i]

    moves = [[rotation(i, c) for i, c in enumerate(x) if c] for x in coords]
    neg = [sum(a * s for a, s in zip(g.neg(x), strides)) for x in coords]
    frontier: dict[tuple[int, int], tuple] = {(1 << k, k): (k,) for k in range(1, n)}
    size = 1
    last = frontier
    while frontier:
        nxt: dict[tuple[int, int], tuple] = {}
        for (sums, i), rep in frontier.items():
            for j in range(i, n):
                if sums >> neg[j] & 1:
                    continue  # -e_j is already a subset sum
                shifted = sums
                for low, up, high, down in moves[j]:
                    shifted = (shifted & low) << up | (shifted & high) >> down
                key = (sums | shifted | 1 << j, j)
                if key not in nxt:
                    nxt[key] = rep + (j,)
            if len(nxt) > state_budget:
                raise SearchBudgetExceeded(
                    f"davenport frontier for {g} exceeded {state_budget} "
                    f"states at multiset size {size + 1}")
        last, frontier = frontier, nxt
        size += 1
    return size, tuple(coords[k] for k in next(iter(last.values())))


def davenport(g: AbelianGroup) -> int:
    return davenport_witness(g)[0]


def invariant_factors_from_table(elements: list, add: Callable, zero) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group given by its elements and
    operation. Counts, for each prime p and each k, the solutions of p^k x = 0;
    the counts determine the p-part partitions, whose prime-power cyclic
    orders AbelianGroup.from_cyclic assembles into the divisor chain.
    """
    n = len(elements)
    if n == 1:
        return ()
    orders: list[int] = []
    for p, _ in factorize(n):
        current = list(elements)
        logs = [0]  # logs[k] = log_p of #{x : p^k x = 0}
        while True:
            nxt = []
            for x in current:
                y = x
                for _ in range(p - 1):
                    y = add(y, x)
                nxt.append(y)
            count = sum(1 for y in nxt if y == zero)
            # count = number of x killed by p^(k+1); it is a power of p
            e = 0
            c = count
            while c > 1:
                if c % p:
                    raise ValueError("operation table is not a group table")
                c //= p
                e += 1
            logs.append(e)
            if count == n or logs[-1] == logs[-2]:
                break
            current = nxt
        # conjugate partition: number of parts >= k is logs[k] - logs[k-1]
        col = [logs[k] - logs[k - 1] for k in range(1, len(logs))]
        for k, t in enumerate(col, start=1):
            nxt_t = col[k] if k < len(col) else 0
            orders.extend([p ** k] * (t - nxt_t))
    fs = AbelianGroup.from_cyclic(orders).invariant_factors
    if prod(fs) != n:
        raise ValueError("operation table is not a group table")
    return fs


# ---------------------------------------------------------------------------
# factorization machinery


@dataclass(frozen=True)
class FactorMultiset:
    """A factorization into atoms, stored as a tuple sorted by the owning
    view's canonical key. Equal multisets compare equal regardless of the
    order the search found the atoms in.
    """

    atoms: tuple

    @property
    def length(self) -> int:
        return len(self.atoms)

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __str__(self):
        return " * ".join(str(a) for a in self.atoms)


@dataclass(frozen=True)
class MonoidView:
    """Adapter interface a concrete monoid provides to the generic machinery.

    Elements are hashable canonical representatives, one per associate
    class; sessions memoize on them.
    - `name` labels the monoid in messages.
    - `op(a, b)` is the canonical representative of the product.
    - `divide(d, x)` returns the canonical cofactor when d | x and None
      otherwise; a unit cofactor (d, x associates) is returned, not None.
    - `proper_divisors(x)` yields (d, cofactor) pairs with both parts nonunit
      members; it must be finite and complete for every element it is asked
      about, so x is an atom exactly when it yields nothing. Each pair is
      listed exactly once, in any order; callers rely on nothing else.
    - `key` is a total sort key.
    - `elements_up_to(B)` returns an iterable, possibly lazy, of every
      member the view measures as <= B, in its window order; window scans
      stop at their first witness, so that order decides which witness
      they report.
    """

    name: str
    op: Callable[[Any, Any], Any]
    divide: Callable[[Any, Any], Any]          # -> cofactor or None
    proper_divisors: Callable[[Any], Iterable[tuple]]
    key: Callable[[Any], Any]
    elements_up_to: Callable[[int], Iterable]


class FactorSession:
    """Memoized exhaustive factorization over one MonoidView.

    Results are exact for every queried element (completeness is inherited
    from the view's proper_divisors); the session is only a cache plus a
    work budget, not a window. Memos are keyed on the canonical elements
    themselves; the view's key only orders factorizations.

    Each element's divisor pairs are walked once. `is_atom` on an undecided
    element pulls the first pair only and keeps the live walk; the first
    call to `factorizations` or `lengths` resumes it and stores the pairs
    (atom d, cofactor), one per distinct d, for both to read. The budget
    charges one unit per undecided atom verdict and one per pair listed,
    each pair once.
    """

    def __init__(self, view: MonoidView, budget: int = 10_000_000):
        self.view = view
        self.budget = budget
        self.spent = 0
        self._atom: dict = {}
        self._walks: dict = {}
        self._pairs: dict = {}
        self._facts: dict = {}
        self._lengths: dict = {}

    def _charge(self):
        self.spent += 1
        if self.spent > self.budget:
            raise SearchBudgetExceeded(
                f"factorization budget {self.budget} exhausted in {self.view.name}")

    def is_atom(self, x) -> bool:
        hit = self._atom.get(x)
        if hit is None:
            self._charge()
            walk = iter(self.view.proper_divisors(x))
            first = next(walk, None)
            hit = self._atom[x] = first is None
            if not hit:
                self._walks[x] = itertools.chain((first,), walk)
        return hit

    def _atom_pairs(self, x) -> dict:
        """{atom d: cofactor} over x's divisor pairs; empty for an atom."""
        hit = self._pairs.get(x)
        if hit is None:
            hit = {}
            if not self.is_atom(x):
                # is_atom is called only on a memo miss, so the charges are
                # those of the plain loop
                atom, is_atom, charge = self._atom.get, self.is_atom, self._charge
                # a walk that the budget cut short starts over
                for d, q in self._walks.pop(x, None) or self.view.proper_divisors(x):
                    charge()
                    if d not in hit:
                        a = atom(d)
                        if a is None:
                            a = is_atom(d)
                        if a:
                            hit[d] = q
            self._pairs[x] = hit
        return hit

    def factorizations(self, x) -> tuple[FactorMultiset, ...]:
        """All factorizations of x into atoms, sorted by their atoms' keys;
        empty tuple means x admits none."""
        hit = self._facts.get(x)
        if hit is None:
            pairs = self._atom_pairs(x)
            if self._atom[x]:
                hit = (FactorMultiset((x,)),)
            else:
                # each multiset is found once, at its key-minimal atom, and
                # taking d in key order lists the multisets in key order
                key, out = self.view.key, []
                for d, q in sorted(pairs.items(), key=lambda p: key(p[0])):
                    kd = key(d)
                    out.extend(FactorMultiset((d,) + rest.atoms)
                               for rest in self.factorizations(q) if key(rest.atoms[0]) >= kd)
                hit = tuple(out)
            self._facts[x] = hit
        return hit

    def lengths(self, x) -> frozenset:
        """The length set of x: {1} for an atom, else {1 + n : (d, q) an
        atom pair of x, n in lengths(q)}; empty when x admits no
        factorization."""
        hit = self._lengths.get(x)
        if hit is None:
            pairs = self._atom_pairs(x)
            if self._atom[x]:
                hit = frozenset((1,))
            else:
                hit = frozenset(n + 1 for q in pairs.values() for n in self.lengths(q))
            self._lengths[x] = hit
        return hit


# ---------------------------------------------------------------------------
# window verdicts


@dataclass(frozen=True)
class WindowVerdict:
    """Outcome of an exhaustive check over all elements of size <= bound.
    Truthiness is the verdict; the bound rides along because a pass is only
    evidence up to the window.
    """

    holds: bool
    bound: int
    witness: Any = None

    def __bool__(self):
        return self.holds

    def __str__(self):
        tag = "holds" if self.holds else "fails"
        extra = "" if self.witness is None else f", witness {self.witness}"
        return f"{tag} up to {self.bound}{extra}"


class WindowElasticity(Fraction):
    """Maximal element elasticity seen in a window. Compares and computes as
    the exact rational; bound and witness ride along as attributes.
    """

    bound: int
    witness: Any

    def __new__(cls, value, bound, witness=None):
        self = super().__new__(cls, value)
        self.bound = bound
        self.witness = witness
        return self


def _window_members(view: MonoidView, bound: int) -> list:
    return list(view.elements_up_to(bound))


def is_hfm_window(view: MonoidView, bound: int, session: FactorSession | None = None) -> WindowVerdict:
    """Half-factorial over the window: every member of size <= bound has all
    its factorizations of one length. Reads length sets; only a witness
    element has its factorizations listed.
    """
    session = session or FactorSession(view)
    for x in view.elements_up_to(bound):
        if len(session.lengths(x)) > 1:
            facts = session.factorizations(x)
            short = min(facts, key=lambda f: f.length)
            long = max(facts, key=lambda f: f.length)
            return WindowVerdict(False, bound, (x, short, long))
    return WindowVerdict(True, bound)


def is_length_factorial_window(view: MonoidView, bound: int, session: FactorSession | None = None) -> WindowVerdict:
    """At most one factorization of each length, for every member in the window."""
    session = session or FactorSession(view)
    for x in view.elements_up_to(bound):
        by_len: dict[int, FactorMultiset] = {}
        for f in session.factorizations(x):
            other = by_len.setdefault(f.length, f)
            if other is not f:
                return WindowVerdict(False, bound, (x, other, f))
    return WindowVerdict(True, bound)


def is_ufm_window(view: MonoidView, bound: int, session: FactorSession | None = None) -> WindowVerdict:
    """Unique factorization over the window, checked in two exhaustive legs:

    (a) every member of size <= bound has exactly one atom multiset;
    (b) every atom q <= bound is prime relative to the window: whenever
        q | a*b with a, b window members, q divides a or b.

    Leg (b) matters. A monoid can factor uniquely below a bound while the
    first colliding element sits far above it; a non-prime atom betrays the
    failure with witnesses of roughly the atom's own size. A unique
    factorization monoid passes both legs at every bound, since its atoms
    are prime outright.
    """
    session = session or FactorSession(view)
    members = _window_members(view, bound)
    for x in members:
        facts = session.factorizations(x)
        if len(facts) > 1:
            return WindowVerdict(False, bound, ("non_unique", x, facts[0], facts[1]))
    atoms = [x for x in members if session.is_atom(x)]
    for q in atoms:
        clear = [a for a in members if view.divide(q, a) is None]
        for i, a in enumerate(clear):
            for b in clear[i:]:
                if view.divide(q, view.op(a, b)) is not None:
                    return WindowVerdict(False, bound, ("non_prime_atom", q, a, b))
    return WindowVerdict(True, bound)


def elasticity_window(view: MonoidView, bound: int, session: FactorSession | None = None) -> WindowElasticity:
    """Maximum element elasticity over the window, with a witness element.
    The empty window reports 1 (the elasticity of a monoid with no nonunits).
    """
    session = session or FactorSession(view)
    best = Fraction(1)
    witness = None
    for x in _window_members(view, bound):
        lengths = session.lengths(x)
        if not lengths:
            continue
        rho = Fraction(max(lengths), min(lengths))
        if rho > best:
            best, witness = rho, x
    return WindowElasticity(best, bound, witness)


# ---------------------------------------------------------------------------
# additive numerical monoids, e.g. <2,3> inside N_0


def numerical_monoid_view(*generators: int) -> MonoidView:
    """The additive submonoid of N_0 generated by the given positive integers."""
    gens = tuple(sorted(set(int(g) for g in generators)))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    member_cache = [True]  # index 0: the identity

    def member(x: int) -> bool:
        if x < 0:
            return False
        while len(member_cache) <= x:
            y = len(member_cache)
            member_cache.append(any(g <= y and member_cache[y - g] for g in gens))
        return member_cache[x]

    def divide(d, x):
        c = x - d
        return c if c >= 0 and member(c) else None

    def proper_divisors(x):
        for d in range(gens[0], x - gens[0] + 1):
            if member(d) and member(x - d):
                yield d, x - d

    def elements_up_to(bound):
        return [m for m in range(1, bound + 1) if member(m)]

    return MonoidView(
        name="<" + ",".join(str(g) for g in gens) + ">",
        op=lambda a, b: a + b,
        divide=divide,
        proper_divisors=proper_divisors,
        key=lambda x: x,
        elements_up_to=elements_up_to,
    )
