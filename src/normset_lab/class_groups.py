"""Binary quadratic forms and class groups of quadratic discriminants.

Forms (a, b, c) of discriminant D = b^2 - 4ac realize the ideal class group.
Composition is the classical united-forms congruence algorithm, applied
uniformly (no squaring shortcut; the general path is valid for every pair
of primitive forms with equal discriminant).

Every group is a partition of the primitive reduced forms of D, built by one
builder (_group) and read through one form -> class map: a class is one
reduced form for D < 0, and one rho-cycle of reduced indefinite forms in the
narrow group of D > 0. The wide group of D > 0 is the narrow group modulo
the class of the form with leading coefficient -1, so a wide class is the
union of the cycles of one coset. Both are exposed since saturation
arguments want the wide group while sign questions about norms want the
narrow one.

Also here: Minkowski bounds with outward rational rounding, prime splitting
via the Kronecker symbol, and the class-index calculus (which classes carry
an ideal of a given norm) that the normset membership backend runs on, for
one norm (ideal_class_options) or for a whole window of norms from one
sieve (ideal_class_table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .arith import divisors, factorize, kronecker
from .errors import BadDiscriminant
from .monoid_core import AbelianGroup, invariant_factors_from_table
from .quadratic import QuadraticField, QuadraticOrder


@dataclass(frozen=True)
class BQForm:
    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


def _validate_disc(D: int):
    if D % 4 not in (0, 1):
        raise BadDiscriminant(f"{D} is not congruent to 0 or 1 mod 4")
    if D >= 0 and isqrt(D) ** 2 == D:
        raise BadDiscriminant(f"{D} is a square, not a field-like discriminant")


def principal_form(D: int) -> BQForm:
    _validate_disc(D)
    if D < 0:
        b = D % 2
        return BQForm(1, b, (b * b - D) // 4)
    s = isqrt(D)
    b = s if (s - D) % 2 == 0 else s - 1
    return BQForm(1, b, (b * b - D) // 4)


# ---------------------------------------------------------------------------
# reduction


def is_reduced_definite(f: BQForm) -> bool:
    a, b, c = f.a, f.b, f.c
    if abs(b) > a or a > c:
        return False
    if b < 0 and (abs(b) == a or a == c):
        return False
    return True


def reduce_definite(f: BQForm) -> BQForm:
    if f.discriminant() >= 0:
        raise BadDiscriminant("definite reduction needs negative discriminant")
    a, b, c = f.a, f.b, f.c
    if a <= 0:
        raise BadDiscriminant("positive definite forms have a > 0")
    while True:
        if c < a:
            a, b, c = c, -b, a
        elif not (-a < b <= a):
            r = (a - b) // (2 * a)
            b2 = b + 2 * r * a
            c = a * r * r + b * r + c
            b = b2
        elif b < 0 and (b == -a or a == c):
            b = -b
        else:
            return BQForm(a, b, c)


def is_reduced_indefinite(f: BQForm) -> bool:
    D = f.discriminant()
    if D <= 0:
        return False
    s = isqrt(D)
    return 0 < f.b <= s and s + 1 - f.b <= 2 * abs(f.a) <= s + f.b


def rho_step(f: BQForm) -> BQForm:
    """One step of the indefinite reduction operator; on reduced forms it
    walks the form's cycle.
    """
    D = f.discriminant()
    s = isqrt(D)
    c = f.c
    ac = abs(c)
    # r = -b mod 2|c|, placed in (-|c|, |c|] or (s - 2|c|, s]
    lo = (-ac + 1) if ac > s else (s - 2 * ac + 1)
    r = lo + ((-f.b - lo) % (2 * ac))
    return BQForm(c, r, (r * r - D) // (4 * c))


def reduce_indefinite(f: BQForm) -> BQForm:
    if f.discriminant() <= 0:
        raise BadDiscriminant("indefinite reduction needs positive discriminant")
    for _ in range(10000):
        if is_reduced_indefinite(f):
            return f
        f = rho_step(f)
    raise AssertionError("indefinite reduction failed to terminate")


def reduce_form(f: BQForm) -> BQForm:
    return reduce_definite(f) if f.discriminant() < 0 else reduce_indefinite(f)


def form_cycle(f: BQForm) -> tuple[BQForm, ...]:
    """The full rho-cycle of a reduced indefinite form."""
    f = reduce_indefinite(f)
    out = [f]
    g = rho_step(f)
    while g != f:
        out.append(g)
        g = rho_step(g)
    return tuple(out)


# ---------------------------------------------------------------------------
# composition


def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """Least x >= 0 with a*x = b (mod m), plus the solution stride m/gcd."""
    g = gcd(a, m)
    if b % g:
        raise ValueError("linear congruence has no solution")
    mm = m // g
    if mm == 1:
        return 0, 1
    x = ((b // g) % mm) * pow((a // g) % mm, -1, mm) % mm
    return x, mm


def _positive_a(f: BQForm) -> BQForm:
    if f.a > 0:
        return f
    # reduced indefinite cycles alternate the sign of a
    f = reduce_indefinite(f)
    return f if f.a > 0 else rho_step(f)


def compose(f: BQForm, g: BQForm) -> BQForm:
    """Gauss composition of primitive forms of one discriminant, reduced."""
    D = f.discriminant()
    if g.discriminant() != D:
        raise BadDiscriminant(f"discriminants differ: {D} vs {g.discriminant()}")
    if not (f.is_primitive and g.is_primitive):
        raise BadDiscriminant("composition needs primitive forms")
    if D < 0:
        f, g = reduce_definite(f), reduce_definite(g)
    else:
        f, g = _positive_a(f), _positive_a(g)
    a1, b1, c1 = f.tuple()
    a2, b2, _ = g.tuple()
    bsum = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = gcd(gcd(a1, a2), bsum)
    s, t, u = a1 // w, a2 // w, bsum // w
    mu, nu = _solve_linmod(t * u, h * u + s * c1, s * t)
    lam = _solve_linmod(t * nu, h - t * mu, s)[0]
    k = mu + nu * lam
    el = (k * t - h) // s
    m = (t * u * k - h * u - c1 * s) // (s * t)
    raw = BQForm(s * t, w * u - (k * t + el * s), k * el - w * m)
    return reduce_form(raw)


# ---------------------------------------------------------------------------
# class groups


def reduced_forms(D: int) -> list[BQForm]:
    """All primitive reduced positive definite forms of discriminant D < 0.
    The primitivity filter is what makes non-fundamental discriminants give
    the Picard group of the order rather than an inflated count.
    """
    _validate_disc(D)
    if D >= 0:
        raise BadDiscriminant("reduced_forms enumerates definite forms; D must be < 0")
    out = []
    for b in range(abs(D) % 2, isqrt(-D // 3) + 1, 2):
        m4 = (b * b - D) // 4
        for a in divisors(m4):
            if a * a > m4:
                break
            if a < max(b, 1):
                continue
            c = m4 // a
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append(BQForm(a, b, c))
            if 0 < b < a < c:
                out.append(BQForm(a, -b, c))
    return sorted(out, key=lambda f: (f.a, abs(f.b), f.b < 0, f.c))


def reduced_indefinite_forms(D: int) -> list[BQForm]:
    _validate_disc(D)
    if D <= 0:
        raise BadDiscriminant("indefinite enumeration needs D > 0")
    s = isqrt(D)
    out = []
    for b in range(2 - (D % 2), s + 1, 2):
        m4 = (D - b * b) // 4
        for u in divisors(m4):
            if not (s + 1 - b <= 2 * u <= s + b):
                continue
            c = m4 // u
            for f in (BQForm(u, b, -c), BQForm(-u, b, c)):
                if f.is_primitive:
                    out.append(f)
    return sorted(out, key=lambda f: (abs(f.a), f.a < 0, f.b, f.c))


@dataclass(frozen=True)
class ClassGroupData:
    """A class group as a partition of the reduced forms of its discriminant.

    classes[i] is the representative of class i; composition_table gives the
    group operation on indices. form_index maps every reduced form to the
    index of its class, so index_of is a reduction and one lookup. It is left
    out of eq, hash and repr: the other fields determine it.
    """

    discriminant: int
    classes: tuple[BQForm, ...]
    structure: AbelianGroup
    composition_table: tuple[tuple[int, ...], ...]
    identity_index: int
    kind: str = "definite"  # definite | narrow | wide
    neg_principal_index: int | None = None
    form_index: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def class_number(self) -> int:
        return len(self.classes)

    def compose_indices(self, i: int, j: int) -> int:
        return self.composition_table[i][j]

    def inverse_index(self, i: int) -> int:
        row = self.composition_table[i]
        return row.index(self.identity_index)

    def power_index(self, i: int, k: int) -> int:
        if k < 0:
            i, k = self.inverse_index(i), -k
        out = self.identity_index
        for _ in range(k):
            out = self.composition_table[out][i]
        return out

    def index_of(self, f: BQForm) -> int:
        if f.discriminant() != self.discriminant:
            raise BadDiscriminant("form has the wrong discriminant")
        i = self.form_index.get(reduce_form(f))
        if i is None:
            raise ValueError(f"{f} does not reduce into any class of D={self.discriminant}")
        return i

    def is_principal(self, f: BQForm) -> bool:
        return self.index_of(f) == self.identity_index

    def __str__(self):
        return f"Cl({self.discriminant}) = {self.structure} ({self.kind})"


def _group(D: int, partition, kind: str, product) -> ClassGroupData:
    """The group whose classes are the tuples of reduced forms in
    `partition`, representative first; form_index lists the forms in that
    order. Row i, column j of the table is the class of product(rep_i,
    rep_j), which must be a reduced form of the partition. A narrow group
    also records the class of the -1 form.
    """
    reps = tuple(cls[0] for cls in partition)
    index = {f: i for i, cls in enumerate(partition) for f in cls}
    table = tuple(tuple(index[product(f, g)] for g in reps) for f in reps)
    one = principal_form(D)
    ident = index[reduce_form(one)]
    neg = index[reduce_form(BQForm(-1, one.b, -one.c))] if kind == "narrow" else None
    fs = invariant_factors_from_table(range(len(reps)), lambda i, j: table[i][j], ident)
    return ClassGroupData(D, reps, AbelianGroup(fs), table, ident, kind, neg, index)


@lru_cache(maxsize=None)
def class_group_imaginary(D: int) -> ClassGroupData:
    return _group(D, [(f,) for f in reduced_forms(D)], "definite", compose)


@lru_cache(maxsize=None)
def narrow_class_group_real(D: int) -> ClassGroupData:
    """The narrow class group: one class per rho-cycle of reduced forms,
    represented by its least form with a > 0.
    """
    cycles, seen = [], set()
    for f in reduced_indefinite_forms(D):
        if f not in seen:
            cyc = form_cycle(f)
            seen.update(cyc)
            rep = min((g for g in cyc if g.a > 0), key=BQForm.tuple)
            cycles.append((rep, *(g for g in cyc if g != rep)))
    return _group(D, cycles, "narrow", compose)


@lru_cache(maxsize=None)
def class_group_real(D: int) -> ClassGroupData:
    """The wide class group: narrow classes modulo the class of the leading
    coefficient -1 form. Equals the narrow group exactly when the fundamental
    unit has norm -1. A class is the forms of one coset of narrow classes,
    taken by narrow index, so the coset's least narrow class comes first and
    represents it; the table is read from the narrow one.
    """
    nar = narrow_class_group_real(D)
    at = nar.form_index
    cosets: dict[int, list[BQForm]] = {}
    for f, i in sorted(at.items(), key=lambda fi: fi[1]):
        cosets.setdefault(min(i, nar.compose_indices(i, nar.neg_principal_index)), []).append(f)
    return _group(D, list(cosets.values()), "wide",
                  lambda f, g: nar.classes[nar.compose_indices(at[f], at[g])])


def class_group(D: int) -> ClassGroupData:
    return class_group_imaginary(D) if D < 0 else class_group_real(D)


def class_number(D: int) -> int:
    if D < 0:
        return len(reduced_forms(D))
    return class_group_real(D).class_number


# ---------------------------------------------------------------------------
# splitting, Minkowski bound, ideal-class calculus


@dataclass(frozen=True)
class PrimeSplit:
    p: int
    kind: str  # split | inert | ramified
    f_p: int   # residue degree: 2 iff inert

    def __str__(self):
        return f"{self.p}: {self.kind} (f={self.f_p})"


def _field_of(obj) -> QuadraticField:
    if isinstance(obj, QuadraticOrder):
        return obj.field
    if isinstance(obj, QuadraticField):
        return obj
    raise TypeError(f"expected a quadratic field or order, got {obj!r}")


def splitting_type(field, p: int) -> PrimeSplit:
    D = _field_of(field).field_discriminant
    chi = kronecker(D, p)
    if chi == 0:
        return PrimeSplit(p, "ramified", 1)
    if chi == 1:
        return PrimeSplit(p, "split", 1)
    return PrimeSplit(p, "inert", 2)


def minkowski_bound(field) -> Fraction:
    """Rational M-hat with M <= M-hat < M + 2e-6, M the Minkowski bound
    (2/pi)sqrt|D| (imaginary) or sqrt(D)/2 (real). Outward rounding only:
    a downward error could silently drop a prime from the UFD criterion set.
    """
    D = _field_of(field).field_discriminant
    s = isqrt(abs(D) * 10**24)  # s <= sqrt|D| * 10^12 < s+1
    if D < 0:
        pi15 = 3141592653589793  # truncation of pi * 10^15
        k = -(-(2 * (s + 1) * 10**9) // pi15)
    else:
        k = -(-(s + 1) // (2 * 10**6))
    return Fraction(k, 10**6)


def prime_form(D: int, p: int) -> BQForm:
    """A form of discriminant D representing p: the class of a prime ideal
    above p. Exists iff p is not inert.
    """
    for b in range(0, 2 * p):
        if (b * b - D) % (4 * p) == 0:
            return BQForm(p, b, (b * b - D) // (4 * p))
    raise ValueError(f"{p} is inert at discriminant {D}; no ideal of norm {p}")


def _conductor(D: int) -> int:
    """The f of D = f^2 * D_K: the largest f with D / f^2 = 0 or 1 (mod 4)."""
    f = 1
    for p, e in factorize(abs(D)):
        while e >= 2 and (D // (f * p) ** 2) % 4 < 2:
            f, e = f * p, e - 2
    return f


def _prime_ideal(cg: ClassGroupData, p: int) -> tuple[int, int | None]:
    """(chi, class): the Kronecker symbol of p (-1 inert, 0 ramified, 1 split)
    and the class index of a prime ideal above p, None when p is inert. The
    ideals above a prime of the conductor are not invertible: ValueError.
    """
    D = cg.discriminant
    chi = kronecker(D, p)
    if chi == 0 and D % (p * p) == 0 and D // (p * p) % 4 < 2:  # D / p^2 a discriminant
        raise ValueError(f"p = {p} divides the conductor {_conductor(D)} of D = {D}; "
                         f"the ideals above it have no class")
    return chi, (None if chi == -1 else cg.index_of(prime_form(D, p)))


def _prime_power_options(cg: ClassGroupData, chi: int, pi: int | None,
                         e: int) -> set[int] | None:
    """Indices of the classes of the ideals of norm p^e, (chi, pi) =
    _prime_ideal(cg, p), or None when there is none: an inert prime needs an
    even e and gives the principal class; a ramified prime gives its unique
    class to the power e; a split prime gives [P]^(e-2i) as the exponent
    splits between P and its conjugate.
    """
    if chi == -1:
        return None if e % 2 else {cg.identity_index}
    if chi == 0:
        return {cg.power_index(pi, e)}
    return {cg.power_index(pi, e - 2 * i) for i in range(e + 1)}


def ideal_class_options(cg: ClassGroupData, q: int) -> set[int] | None:
    """Indices of the classes containing an ideal of norm q, or None when no
    ideal of norm q exists: the composition over the prime powers p^e of q
    of their options (_prime_power_options). A prime of q that divides the
    conductor of the group's discriminant is refused with ValueError.
    """
    if q < 1:
        raise ValueError("ideal norms are positive")
    opts = {cg.identity_index}
    for p, e in factorize(q):
        per = _prime_power_options(cg, *_prime_ideal(cg, p), e)
        if per is None:
            return None
        opts = {cg.compose_indices(x, y) for x in opts for y in per}
    return opts


def ideal_class_table(cg: ClassGroupData, bound: int) -> list[set[int] | None]:
    """ideal_class_options(cg, q) at index q for every 1 <= q <= bound; index
    0 holds None. A smallest-prime-factor sieve writes q = p^e * r with p
    the least prime of q. A prime power gets its options directly, from the
    class of p, which is reduced once per table; any other q composes the
    entries of p^e and r, both already in the table. A prime <= bound that
    divides the conductor of the group's discriminant is refused with
    ValueError.
    """
    spf = list(range(bound + 1))
    for i in range(2, bound + 1):
        if spf[i] == i:
            for j in range(i * i, bound + 1, i):
                if spf[j] == j:
                    spf[j] = i
    table: list[set[int] | None] = [None] * (bound + 1)
    if bound >= 1:
        table[1] = {cg.identity_index}
    primes: dict[int, tuple[int, int | None]] = {}
    for q in range(2, bound + 1):
        p, r, e = spf[q], q // spf[q], 1
        while r % p == 0:
            r //= p
            e += 1
        if r == 1:
            if e == 1:
                primes[p] = _prime_ideal(cg, p)
            table[q] = _prime_power_options(cg, *primes[p], e)
        elif table[r] is not None and table[q // r] is not None:
            table[q] = {cg.compose_indices(x, y)
                        for x in table[q // r] for y in table[r]}
    return table
