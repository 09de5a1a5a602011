"""Seeded operation lists for the three workloads.

Each operation is a JSON-ready dict naming one library call that a CLI
subcommand handler makes, with the handler's arguments. A workload is a
list of strata (one kind of query on one kind of input); each stratum holds
a fixed pool of candidates drawn once per workload, and a seed takes a
fixed number of them, about three in four, then shuffles the whole list.
So the length and the make-up by stratum never depend on the seed, every
run attempts whole rounds of the same shape, and two seeds share most of
their inputs: medians and tails move little from seed to seed. Selection
asks normset-lab for class numbers and real search bounds, so it runs in
the parent process and never warms a worker's caches.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from . import oracle

WORKLOADS = ("ring-factorization", "normset-queries", "net-monoid")

# ---------------------------------------------------------------------------
# ring-factorization

# imaginary orders whose element factorizations are exercised, maximal ones
# with class number >= 2 plus non-maximal ones; every seed uses each equally
RING_ORDERS = ((-5, 1), (-6, 1), (-10, 1), (-13, 1), (-14, 1), (-15, 1),
               (-17, 1), (-21, 1), (-23, 1), (-26, 1), (-29, 1), (-30, 1),
               (-1, 2), (-1, 3), (-2, 2), (-3, 3), (-7, 2), (-11, 2))
# every finite abelian group of order <= 16, plus Z_2^5
DAVENPORT_GROUPS = tuple(str(k) for k in range(2, 17)) + (
    "2,2", "2,4", "2,6", "2,8", "3,3", "4,4", "2,2,2", "2,2,4", "2,2,2,2",
    "2,2,2,2,2")
HFD_SAMPLE = 20
NORM_PER_ORDER = 2
FACTOR_PER_ORDER = 3

# ---------------------------------------------------------------------------
# normset-queries

# A real-order operation is kept only when its element searches are bounded:
# (norms it may search) x (2 * exact_real_search_bound(largest norm) + 1)
# must stay under this many b-values.
REAL_SCAN_CAP = 1_000_000
# fields whose fundamental unit is slow to find today; "is -1 a norm?"
# reaches fundamental_unit without any element search
SLOW_UNIT_FIELDS = (193, 217)
MEMBER_BOUND = 10**6  # the --bound a careful user passes for an exact answer
# per order category; membership and ufd are sub-millisecond, so windows
# make up most of the list and the median lands among them
KINDS_PER_CATEGORY = {"member": 3, "atoms": 7, "nfactor": 3, "elasticity": 5}
MAXIMAL_ONLY = {"saturation": 8, "ufd": 4}

# ---------------------------------------------------------------------------
# net-monoid

NET_FILES = {
    # two labels, three atoms: the README's example
    "pair.net": "indexset finite A B\nkind generated\n"
                "atom A:2\natom B:2\natom A:1,B:1\n",
    # three labels, six atoms
    "triple.net": "indexset finite P Q R\nkind generated\n"
                  "atom P:1,Q:1\natom Q:1,R:1\natom P:1,R:1\n"
                  "atom P:2\natom Q:3\natom R:2\n",
    # a dense label carrying fractional values
    "dense.net": "indexset finite X:dense Y Z\nkind generated\n"
                 "atom X:1/2,Y:1\natom X:1/3,Z:1\natom Y:1,Z:1\n"
                 "atom X:1,Y:1\natom Z:2\n",
    # four labels, six atoms
    "quad.net": "indexset finite S T U V\nkind generated\n"
                "atom S:1,T:1\natom U:1,V:1\natom S:1,U:1\natom T:1,V:1\n"
                "atom S:2\natom V:2\n",
    "seq.net": "indexset omega_plus_point\nkind sequence_domain\n",
}
# atoms per generated net: (for `factor`, for every other query). Fixed
# counts keep each query's cost in a narrow band; `factor` costs 15-50
# times a divisor list, so its nets are lighter and it ends well within 1 s.
NET_MASS = {"pair.net": (8, 12), "triple.net": (4, 6), "dense.net": (4, 6),
            "quad.net": (5, 6)}
NET_QUERIES = (("member", 4), ("divisors", 4), ("sb", 3), ("bfd", 3),
               ("factor", 6), ("accp", 3), ("comax", 3), ("cover", 3),
               ("ideal-norm", 2), ("product", 2))
SEQ_QUERIES = (("member", 3), ("divisors", 3), ("sb", 3), ("bfd", 2),
               ("factor", 3), ("accp", 3), ("comax", 2), ("cover", 2),
               ("ideal-norm", 2), ("product", 2))
NET_DEPTH = 32
# zero-tail sequence nets heavier than the depth: monoid_divisors cuts the
# list at total mass `depth` yet the record says exact (ROADMAP 3c). Kept
# on purpose, the same in every round and seed; they count as failed.
KEPT_FAILING_DIVISORS = ("1:40", "1:20,2:20", "1:9,2:9,3:9,4:9", "3:17,5:17")


def build(workload: str, seed: int) -> dict:
    """{'workload', 'seed', 'ops': [...], 'nets': {file: text}}."""
    makers = {"ring-factorization": _ring, "normset-queries": _normset,
              "net-monoid": _nets}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    strata = makers[workload](random.Random(f"{workload}:pool"))
    rng = random.Random(f"{workload}:{seed}")
    ops = [dict(op) for pool, take in strata for op in rng.sample(pool, take)]
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    nets = NET_FILES if workload == "net-monoid" else {}
    return {"workload": workload, "seed": seed, "ops": ops, "nets": dict(nets)}


def _stratum(make, take: int) -> tuple[list, int]:
    """A pool of take + ceil(take / 3) candidates, of which a seed takes `take`."""
    return [make() for _ in range(take - (-take // 3))], take


def _fmt(x) -> str:
    a, b = x
    return f"{a}{b:+d}*w"


# ---------------------------------------------------------------------------


def _small_element(rng, d, n, lo, hi):
    for _ in range(10_000):
        x = (rng.randint(-12, 12), rng.randint(1, 3))
        if lo <= oracle.norm(d, n, x) <= hi:
            return x
    raise RuntimeError(f"no element of norm in [{lo}, {hi}] in ({d}, {n})")


def _ring(rng) -> list[tuple[list, int]]:
    from normset_lab.class_groups import class_number

    hfd_pool = [{"kind": "hfd", "d": d} for d in range(-14, -101, -1)
                if oracle.is_squarefree(d)
                and class_number(oracle.field_discriminant(d)) >= 3]
    strata = [([{"kind": "classify"}], 1), (hfd_pool, HFD_SAMPLE),
              ([{"kind": "davenport", "group": g} for g in DAVENPORT_GROUPS],
               len(DAVENPORT_GROUPS))]
    for d, n in RING_ORDERS:
        def norm_op():
            x = oracle.mul(d, n, _small_element(rng, d, n, 4, 30),
                           _small_element(rng, d, n, 4, 30))
            return {"kind": "norm", "d": d, "n": n, "elem": _fmt(x)}

        def factor_op():
            x = oracle.multiply_all(d, n, [_small_element(rng, d, n, 4, 30)
                                           for _ in range(3)])
            return {"kind": "factor_element", "d": d, "n": n, "elem": _fmt(x)}

        strata += [_stratum(norm_op, NORM_PER_ORDER), _stratum(factor_op, FACTOR_PER_ORDER)]
    return strata


# ---------------------------------------------------------------------------


class _RealCap:
    """The real-order search rule, with exact_real_search_bound memoized."""

    def __init__(self):
        from normset_lab.quadratic import exact_real_search_bound, order_of

        self._bound = exact_real_search_bound
        self._order = order_of
        self._memo: dict = {}

    def ok(self, d: int, n: int, norms: int, largest: int) -> bool:
        if d < 0:
            return True
        key = (d, n, abs(largest))
        eb = self._memo.get(key)
        if eb is None:
            eb = self._bound(self._order(d, n), abs(largest))
            self._memo[key] = eb
        return norms * (2 * eb + 1) <= REAL_SCAN_CAP


CATEGORIES = {
    "imaginary_maximal": [(d, 1) for d in range(-1, -101, -1) if oracle.is_squarefree(d)],
    "imaginary_nonmaximal": [(d, n) for d in (-1, -2, -3, -5, -6, -7, -10, -11, -15)
                             for n in (2, 3, 4)],
    "real_maximal": [(d, 1) for d in range(2, 231) if oracle.is_squarefree(d)
                     and d not in SLOW_UNIT_FIELDS],
    "real_nonmaximal": [(d, n) for d in (2, 3, 5, 6, 7, 10, 11, 13) for n in (2, 3)],
}


def _pick(rng, pool, accept, what):
    for _ in range(2000):
        cand = accept(rng.choice(pool))
        if cand is not None:
            return cand
    raise RuntimeError(f"no admissible {what}")


def _normset(rng) -> list[tuple[list, int]]:
    from normset_lab.class_groups import class_number

    cap = _RealCap()
    ns_memo: dict = {}

    def normset(d, n):
        if (d, n) not in ns_memo:
            ns_memo[(d, n)] = oracle.Normset(d, n)
        return ns_memo[(d, n)]

    def h(d, n):
        return class_number(oracle.field_discriminant(d) * n * n)

    strata = [([{"kind": "member", "d": d, "n": 1, "value": -1, "bound": MEMBER_BOUND}
                for d in SLOW_UNIT_FIELDS], len(SLOW_UNIT_FIELDS))]
    for cat, pool in CATEGORIES.items():
        def member(dn):
            d, n = dn
            if rng.random() < 0.5:
                x = (rng.randint(-900, 900), rng.randint(1, 40))
                m = oracle.norm(d, n, x)
            else:
                m = rng.randint(2, 10**6) * (rng.choice((1, -1)) if d > 0 else 1)
            if not 2 <= abs(m) <= 10**6 or not cap.ok(d, n, 1, m):
                return None
            return {"kind": "member", "d": d, "n": n, "value": m, "bound": MEMBER_BOUND}

        def atoms(dn):
            d, n = dn
            B = rng.randint(300, 400)
            if not cap.ok(d, n, 2 * B, B):
                return None
            return {"kind": "atoms", "d": d, "n": n, "bound": B}

        def nfactor(dn):
            d, n = dn
            if not cap.ok(d, n, 2, 60):  # keeps the own norm searches below cheap
                return None
            ns = normset(d, n)
            small = [s * k for k in range(2, 31) for s in ns.signs if ns.member(s * k)]
            m = 1
            for _ in range(3):
                m *= rng.choice(small)
            ndiv = 2 * len(oracle.divisors_of(m))
            if not cap.ok(d, n, ndiv, m) or len(ns.factorizations(m)) < 2:
                return None
            return {"kind": "nfactor", "d": d, "n": n, "value": m}

        def elasticity(dn):
            d, n = dn
            B = rng.randint(200, 300)
            if h(d, n) > 16 or not cap.ok(d, n, 2 * B, B):
                return None
            if d < 0 and n == 1 and oracle.imaginary_class_structure(
                    oracle.field_discriminant(d)) is None:
                return None
            return {"kind": "elasticity", "d": d, "n": n, "bound": B}

        makers = {"member": member, "atoms": atoms, "nfactor": nfactor,
                  "elasticity": elasticity}
        for kind, count in KINDS_PER_CATEGORY.items():
            strata.append(_stratum(
                lambda: _pick(rng, pool, makers[kind], f"{kind} on {cat}"), count))

    for cat in ("imaginary_maximal", "real_maximal"):
        pool = CATEGORIES[cat]

        def saturation(dn):
            d, _ = dn
            B = rng.randint(200, 300)
            if not cap.ok(d, 1, 2 * B, B):
                return None
            if d > 0 and not _real_saturation_decidable(h(d, 1)):
                return None
            return {"kind": "saturation", "d": d, "bound": B}

        def ufd(dn):
            d, _ = dn
            D = oracle.field_discriminant(d)
            M = isqrt(D // 4) + 1 if d > 0 else isqrt(-D) + 1
            if not cap.ok(d, 1, 2 * M, M):
                return None
            return {"kind": "ufd", "d": d}

        makers = {"saturation": saturation, "ufd": ufd}
        for kind, count in MAXIMAL_ONLY.items():
            strata.append(_stratum(
                lambda: _pick(rng, pool, makers[kind], f"{kind} on {cat}"), count))
    return strata


def _real_saturation_decidable(h: int) -> bool:
    """Class numbers whose value alone settles 'exponent <= 2'."""
    return h in (1, 2) or any(p > 2 for p in oracle.prime_factors(h))


# ---------------------------------------------------------------------------


def parse_atoms(text: str):
    """Labels and atoms ({label: Fraction}) of a generated net file's text."""
    labels, atoms = [], []
    for line in text.splitlines():
        word, _, rest = line.partition(" ")
        if word == "indexset":
            labels = [lab.partition(":")[0] for lab in rest.split()[1:]]
        elif word == "atom":
            atoms.append({k: Fraction(v) for k, v in (p.split(":") for p in rest.split(","))})
    return labels, atoms


def _net_literal(labels, vec) -> str:
    return ",".join(f"{lab}:{v}" for lab, v in zip(labels, vec) if v)


def _random_sum(rng, labels, atoms, lo, hi):
    vec = [Fraction(0)] * len(labels)
    for _ in range(rng.randint(lo, hi)):
        a = rng.choice(atoms)
        for i, lab in enumerate(labels):
            vec[i] += a.get(lab, 0)
    return vec


def _nets(rng) -> list[tuple[list, int]]:
    strata = []
    for name, text in NET_FILES.items():
        if name == "seq.net":
            continue
        labels, atoms = parse_atoms(text)
        dp = oracle.NetDP(labels, atoms)
        k_factor, k_other = NET_MASS[name]

        def make(query):
            k = k_factor if query == "factor" else k_other
            vec = _random_sum(rng, labels, atoms, k, k)
            if query == "member" and rng.random() < 0.5:
                i = rng.randrange(len(labels))
                vec[i] += Fraction(1, 2) if "dense" in text and i == 0 else 1
            args = [_net_literal(labels, vec)]
            if query == "accp":
                args.append(str(min(3, dp.length_max(vec))))
            elif query == "comax":
                args.append("2")
            elif query == "cover":
                args.append(",".join(rng.sample(labels, rng.randint(1, len(labels) - 1))))
            elif query in ("ideal-norm", "product"):
                args = [";".join(_net_literal(labels, _random_sum(rng, labels, atoms, 1, 3))
                                 for _ in range(rng.randint(2, 3)))
                        for _ in range(1 if query == "ideal-norm" else 2)]
            return {"kind": "valnet", "file": name, "query": [query] + args,
                    "depth": NET_DEPTH}

        strata += [_stratum(lambda: make(query), count) for query, count in NET_QUERIES]
    strata += [_stratum(lambda: {"kind": "valnet", "file": "seq.net", "depth": NET_DEPTH,
                                 "query": _seq_query(rng, query)}, count)
               for query, count in SEQ_QUERIES]
    kept = [{"kind": "valnet", "file": "seq.net", "query": ["divisors", b],
             "depth": NET_DEPTH, "kept_failing": True} for b in KEPT_FAILING_DIVISORS]
    return strata + [(kept, len(kept))]


def _seq_finite(rng, mass_hi: int) -> str:
    """A zero-tail sequence net of total mass at most mass_hi."""
    idxs = sorted(rng.sample(range(1, 9), rng.randint(1, 4)))
    vals, left = [], mass_hi
    for _ in idxs:
        v = rng.randint(1, max(1, min(4, left - 1)))
        vals.append(v)
        left -= v
    return ",".join(f"{i}:{v}" for i, v in zip(idxs, vals))


def _seq_query(rng, query: str) -> list[str]:
    finite = _seq_finite(rng, 14)
    tailed = rng.choice(("q", f"w{rng.randint(1, 6)}"))
    net = rng.choice((finite, tailed))
    if query in ("divisors", "sb", "bfd"):
        return [query, finite]
    if query == "accp":
        return [query, f"w{rng.randint(1, 6)}", str(rng.randint(3, 8))]
    if query == "comax":
        return [query, finite, str(min(2, finite.count(",") + 1))]
    if query == "cover":
        idxs = finite.split(",")
        return [query, finite, ",".join(p.partition(":")[0] for p in idxs)]
    if query in ("ideal-norm", "product"):
        lists = [";".join(rng.choice((_seq_finite(rng, 8), tailed)) for _ in range(2))
                 for _ in range(1 if query == "ideal-norm" else 2)]
        return [query] + lists
    return [query, net]
