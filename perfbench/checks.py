"""Checks of every operation's output against perfbench/oracle.py.

`Checker.check(op, output)` returns None when the output is right and a
one-line reason when it is not. An output already verified for the same
operation is accepted by comparison, so later rounds cost nothing.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import ceil

from . import oracle


class Checker:
    def __init__(self):
        self._verified: dict = {}
        self._normsets: dict = {}

    def check(self, op: dict, out) -> str | None:
        key = (json.dumps(op, sort_keys=True), json.dumps(out, sort_keys=True))
        if key in self._verified:
            return self._verified[key]
        if isinstance(out, dict) and "error" in out:
            problem = f"raised {out['error']}"
        else:
            try:
                problem = CHECKS[op["kind"]](self, op, out)
            except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
                problem = f"malformed output ({type(exc).__name__}: {exc})"
        self._verified[key] = problem
        return problem

    def normset(self, d: int, n: int) -> oracle.Normset:
        if (d, n) not in self._normsets:
            self._normsets[(d, n)] = oracle.Normset(d, n)
        return self._normsets[(d, n)]


# ---------------------------------------------------------------------------
# ring side


def _two_lengths(d, n, element, short, long_) -> str | None:
    """A two-length witness: both sides re-multiply to associates of the
    element, their lengths differ, and every atom is irreducible.
    """
    ps, pl = oracle.multiply_all(d, n, short), oracle.multiply_all(d, n, long_)
    if element is not None and not oracle.associated(d, n, ps, element):
        return f"short side multiplies to {ps}, not an associate of {element}"
    if not oracle.associated(d, n, ps, pl):
        return f"sides multiply to {ps} and {pl}, not associates"
    if len(short) == len(long_):
        return "both factorizations have the same length"
    for a in short + long_:
        if not oracle.is_irreducible(d, n, a):
            return f"atom {a} is reducible"
    return None


def check_classify(_, op, rows) -> str | None:
    by_key = {(r["d"], r["n"]): r for r in rows}
    want = {(d, 1) for d in oracle.CLASS_NUMBER_ONE + oracle.CLASS_NUMBER_TWO}
    want.add((-3, 2))
    want |= {(d, n) for d in range(-1, -51, -1) if oracle.is_squarefree(d)
             for n in range(2, 6) if (d, n) != (-3, 2)}
    if set(by_key) != want or len(rows) != len(want):
        return f"rows cover {sorted(set(by_key) ^ want)[:6]} wrongly"
    for (d, n), r in by_key.items():
        if not r["ok"]:
            return f"row {(d, n)} not ok"
        if n == 1:
            h = oracle.class_number_imaginary(oracle.field_discriminant(d))
            exp = "h=1" if d in oracle.CLASS_NUMBER_ONE else "h=2"
            if r["expected"] != exp or r["computed"] != f"h={h}" or f"h={h}" != exp:
                return f"row {(d, n)}: {r['expected']}/{r['computed']}, own h={h}"
        elif (d, n) == (-3, 2):
            # Halter-Koch: the only half-factorial non-maximal order
            if r["computed"] != "hfd":
                return "Z[sqrt(-3)] must be half-factorial"
        else:
            if r["computed"] != "not_hfd" or r["witness"] is None:
                return f"row {(d, n)} must be not_hfd with a witness"
            short, long_ = ([tuple(a) for a in f] for f in r["witness"])
            problem = _two_lengths(d, n, None, short, long_)
            if problem:
                return f"row {(d, n)}: {problem}"
    return None


def check_hfd(_, op, out) -> str | None:
    d = op["d"]
    h = oracle.class_number_imaginary(oracle.field_discriminant(d))
    if h < 3:
        return f"own class number {h} < 3; the sample wants h >= 3"
    # Carlitz: h >= 3 means not half-factorial
    if out["verdict"] != "not_hfd" or out["witness"] is None:
        return f"verdict {out['verdict']} for h={h}"
    short, long_ = ([tuple(a) for a in f] for f in out["witness"])
    return _two_lengths(d, 1, tuple(out["element"]), short, long_)


def check_norm(_, op, out) -> str | None:
    d, n = op["d"], op["n"]
    x = oracle.parse_elem(op["elem"])
    if out["norm"] != oracle.norm(d, n, x):
        return f"norm {out['norm']}, own {oracle.norm(d, n, x)}"
    if not oracle.associated(d, n, tuple(out["canonical"]), x):
        return f"canonical {out['canonical']} is not an associate"
    own = oracle.is_irreducible(d, n, x)
    if out["irreducible"] != own:
        return f"irreducible {out['irreducible']}, brute force {own}"
    return None


def check_factor_element(_, op, facts) -> str | None:
    d, n = op["d"], op["n"]
    x = oracle.parse_elem(op["elem"])
    if not facts:
        return "no factorization of a nonzero nonunit"
    seen = set()
    for f in facts:
        atoms = [tuple(a) for a in f]
        key = tuple(sorted(atoms))
        if key in seen:
            return f"factorization {key} listed twice"
        seen.add(key)
        if not oracle.associated(d, n, oracle.multiply_all(d, n, atoms), x):
            return f"{atoms} does not multiply to an associate of {x}"
        for a in atoms:
            if not oracle.is_irreducible(d, n, a):
                return f"atom {a} is reducible"
    return None


def check_davenport(_, op, out) -> str | None:
    orders = [int(t) for t in op["group"].split(",")]
    factors = oracle.invariant_factors(orders)
    D = oracle.olson_davenport(factors)
    if out["davenport"] != D:
        return f"D = {out['davenport']}, Olson gives {D}"
    w = [tuple(e) for e in out["witness"]]
    if len(w) != D - 1:
        return f"witness has {len(w)} elements, want {D - 1}"
    if any(len(e) != len(factors) or any(not 0 <= v < f for v, f in zip(e, factors))
           for e in w):
        return "witness element outside the group"
    if not oracle.zero_sum_free(factors, w):
        return "witness has a zero-sum subsequence"
    return None


# ---------------------------------------------------------------------------
# normset side


def check_member(ch, op, out) -> str | None:
    d, n, m = op["d"], op["n"], op["value"]
    own = ch.normset(d, n).member(m)
    if out["answer"] == "yes":
        if out["witness"] is None or oracle.norm(d, n, tuple(out["witness"])) != m:
            return f"witness {out['witness']} does not have norm {m}"
        return None if own else f"own search finds no element of norm {m}"
    if out["answer"] != "no":
        return f"answer {out['answer']} where an exact answer was asked for"
    if d < 0:
        return f"{m} is a norm by direct search" if own else None
    if own or oracle.real_has_norm_sympy(d, n, m):
        return f"{m} is a norm (Nagell search / diop_DN)"
    return None


def _window_members(ns, bound):
    return ns.window(bound, both_signs=ns.d > 0)


def check_atoms(ch, op, atoms) -> str | None:
    ns = ch.normset(op["d"], op["n"])
    members = _window_members(ns, op["bound"])
    memberset = set(members)
    own = [m for m in members if not ns.splits(m, memberset)]
    if atoms != own:
        diff = sorted(set(atoms) ^ set(own), key=abs)[:5]
        return f"atom list differs from own, e.g. at {diff}"
    return None


def check_nfactor(ch, op, out) -> str | None:
    ns = ch.normset(op["d"], op["n"])
    m = op["value"]
    if not ns.member(m):
        return None if out is None else f"{m} is not a member, yet factored"
    if out is None:
        return f"{m} is a member, reported as not"
    own = sorted(sorted(f) for f in ns.factorizations(m))
    if out != own:
        return f"{len(out)} factorizations, own {len(own)}"
    return None


def _window_elasticity(ns, bound):
    """Maximal max/min length ratio over the window, first maximizer."""
    best, witness = Fraction(1), None
    both = ns.d > 0 and not ns.neg_unit
    for x in ns.window(bound, both_signs=ns.d > 0):
        if not both and x < 0:
            continue
        lengths = [len(f) for f in ns.factorizations(x)]
        if not lengths:
            continue
        rho = Fraction(max(lengths), min(lengths))
        if rho > best:
            best, witness = rho, x
    return best, witness


def check_elasticity(ch, op, out) -> str | None:
    d, n = op["d"], op["n"]
    rho, witness = _window_elasticity(ch.normset(d, n), op["bound"])
    if Fraction(out["normset_elasticity"]) != rho or out["witness"] != witness:
        return f"elasticity {out['normset_elasticity']} at {out['witness']}, own {rho} at {witness}"
    if d < 0 and n == 1:
        D = oracle.field_discriminant(d)
        structure = oracle.imaginary_class_structure(D)
        if structure is None:
            raise ValueError(f"h and the 2-rank do not settle Cl({D})")
        # class number 1: a UFD, elasticity 1; else D(Cl) / 2
        want = Fraction(1) if structure == () else Fraction(oracle.olson_davenport(structure), 2)
        if Fraction(out["ring_elasticity_formula"]) != want:
            return f"ring elasticity {out['ring_elasticity_formula']}, D(Cl)/2 = {want}"
    elif out["ring_elasticity_formula"] is not None:
        return "ring elasticity reported outside maximal imaginary orders"
    return None


def _saturated(d: int) -> bool:
    """Class group of exponent <= 2, from class numbers and genus theory."""
    D = oracle.field_discriminant(d)
    if d < 0:
        return oracle.class_number_imaginary(D) == 2 ** (oracle.genus_count(D) - 1)
    h = oracle.wide_class_number_real(d)
    if h in (1, 2):
        return True
    if any(p > 2 for p in oracle.prime_factors(h)):
        return False
    raise ValueError(f"wide class number {h} does not settle saturation")


def check_saturation(ch, op, out) -> str | None:
    d, B = op["d"], op["bound"]
    own = _saturated(d)
    if out["saturated"] != own:
        return f"saturated {out['saturated']}, own {own}"
    ns = ch.normset(d, 1)
    members = _window_members(ns, B)
    witness = None
    for yi, y in enumerate(members):
        for x in members[: yi + 1]:
            if y % x:
                continue
            q = y // x
            ok = (q == 1 or ns.neg_unit) if abs(q) == 1 else ns.member(q)
            if not ok:
                witness = [x, y, q]
                break
        if witness:
            break
    want = "yes" if witness is None else "no"
    if out["answer"] != want or out["witness"] != witness:
        return f"strict window {out['answer']} {out['witness']}, own {want} {witness}"
    return None


def check_ufd(ch, op, out) -> str | None:
    d = op["d"]
    D = oracle.field_discriminant(d)
    h = oracle.class_number_imaginary(D) if d < 0 else oracle.wide_class_number_real(d)
    if out["verdict"] != (h == 1):
        return f"verdict {out['verdict']} with own class number {h}"
    # Minkowski bound (2/pi) sqrt|D| or sqrt(D)/2, rounded outward by < 2e-6
    M = 2 * abs(D) ** 0.5 / 3.141592653589793 if d < 0 else D ** 0.5 / 2
    if not -1e-9 <= float(Fraction(out["minkowski"])) - M < 2e-6 + 1e-9:
        return f"Minkowski bound {out['minkowski']}, own {M}"
    want = []
    for p in range(2, int(M) + 1):
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            f = 2 if oracle.legendre_kind(D, p) == -1 else 1
            if p ** f <= M:
                want.append((p, f))
    if [(r["p"], r["f"]) for r in out["rows"]] != want:
        return f"criterion primes {[r['p'] for r in out['rows']]}, own {want}"
    ns = ch.normset(d, 1)
    for r in out["rows"]:
        t = r["p"] ** r["f"]
        targets = (t,) if d < 0 else (t, -t)
        if r["member"] != any(ns.member(s) for s in targets):
            return f"row p={r['p']}: member {r['member']}"
        if r["member"] and oracle.norm(d, 1, tuple(r["witness"])) not in targets:
            return f"row p={r['p']}: witness of the wrong norm"
    return None


# ---------------------------------------------------------------------------
# nets


class _Seq:
    """A sequence-domain net: finite support over 1, 2, ... plus tail."""

    @staticmethod
    def parse(text: str):
        low = text.strip().lower()
        if low == "q":
            return {}, 1
        if low.startswith("w"):
            return {i: 0 for i in range(1, int(low[1:]) + 1)}, 1
        vals = {}
        for item in text.split(","):
            k, _, v = item.partition(":")
            vals[int(k)] = int(v)
        return vals, 0

    @staticmethod
    def of(net: dict):
        return ({int(i): v for i, v in net["support"]}, net["tail"], net["inf"])


def _gen_vec(labels, net: dict):
    vals = {i: Fraction(v) for i, v in net["support"]}
    if net["tail"] != 0 or net["inf"] != 0:
        raise ValueError("finite index sets carry no tail")
    return tuple(vals.get(lab, Fraction(0)) for lab in labels)


def _gen_literal(labels, text: str):
    vals = {}
    for item in text.split(","):
        if item.strip():
            k, _, v = item.partition(":")
            vals[k.strip()] = Fraction(v)
    return tuple(vals.get(lab, Fraction(0)) for lab in labels)


def _dp_for(op):
    from .workloads import NET_FILES, parse_atoms
    labels, atoms = parse_atoms(NET_FILES[op["file"]])
    return labels, oracle.NetDP(labels, atoms)


def _ideal_norm_own(vectors):
    return tuple(min(v[i] for v in vectors) for i in range(len(vectors[0])))


def check_valnet(ch, op, out) -> str | None:
    if op["file"] == "seq.net":
        return _check_seq(op, out)
    q, *args = op["query"]
    labels, dp = _dp_for(op)
    if q in ("ideal-norm", "product"):
        gens = [[_gen_literal(labels, t) for t in a.split(";") if t] for a in args]
        if q == "product":
            return None if out is True else "ideal norm not additive on a finite index set"
        want = _ideal_norm_own(gens[0])
        got = {k: (Fraction(v), att) for k, (v, att) in out.items()}
        for lab, w in zip(labels, want):
            if got.get(lab, got["tail"]) != (w, True):
                return f"ideal norm at {lab}: {got.get(lab)}, own {w}"
        return None
    b = _gen_literal(labels, args[0])
    mem = dp.below(b)
    divs = dp.divisors(b)
    if q == "member":
        return None if out == (b in mem) else f"member {out}, own {b in mem}"
    if q == "divisors":
        got = [_gen_vec(labels, x) for x in out["divisors"]]
        if set(got) != divs or len(got) != len(divs):
            return f"{len(got)} divisors, own {len(divs)}"
        if out["count"] != len(divs) or out["exact"] is not True:
            return f"count {out['count']} exact {out['exact']}, own {len(divs)}"
        return None
    lengths = {sum(d) for d in divs}
    if q == "sb":
        got = {Fraction(v) for v in out["S_b"]}
        if got != lengths or out["has_inf"] or Fraction(out["inf_S_b"]) != min(lengths):
            return f"S_b {sorted(got)}, own {sorted(lengths)}"
        return None
    if q == "bfd":
        want = ceil(Fraction(sum(b)) / min(lengths))
        return None if out == want else f"bfd {out}, own {want}"
    if q == "factor":
        if b not in mem:
            return None if out["status"] == "proven_none" else f"status {out['status']} for a non-member"
        if out["status"] != "found":
            return f"status {out['status']} for a member"
        atoms = dp.atoms_set()
        got = [_gen_vec(labels, x) for x in out["factorization"]]
        if any(a not in atoms for a in got):
            return "factorization uses a non-atom"
        if tuple(sum(col, Fraction(0)) for col in zip(*got)) != b:
            return "factorization does not sum to the net"
        return None
    if q == "accp":
        k = int(args[1])
        if out is None:
            return None if dp.length_max(b) < k else f"no chain, own longest {dp.length_max(b)}"
        chain = [_gen_vec(labels, x) for x in out]
        if len(chain) != k or chain[0] != b:
            return "chain has the wrong length or start"
        for big, small in zip(chain, chain[1:]):
            if small == big or small not in dp.divisors(big):
                return "chain step is not a proper divisor"
        return None
    if q == "comax":
        fam = None if out is None else [_gen_vec(labels, x) for x in out]
        return _check_comax(divs, int(args[1]), fam)
    if q == "cover":
        idx = [labels.index(t) for t in args[1].split(",") if t]
        want = all(any(d[i] > 0 for i in idx) for d in divs)
        return None if out == want else f"cover {out}, own {want}"
    raise ValueError(f"unknown query {q}")


def _check_comax(divs, k, fam):
    def disjoint(x, y):
        return not any(a > 0 and c > 0 for a, c in zip(x, y))

    if fam is None:
        # no k pairwise disjoint divisors: greedy over supports cannot
        # decide in general, so search exhaustively
        pool = sorted(divs)

        def pick(start, acc):
            if len(acc) == k:
                return True
            return any(pick(j + 1, acc + [pool[j]]) for j in range(start, len(pool))
                       if all(disjoint(pool[j], a) for a in acc))
        return "a comaximal family exists" if pick(0, []) else None
    if len(fam) != k or any(x not in divs for x in fam):
        return "family members are not divisors"
    if any(not disjoint(x, y) for i, x in enumerate(fam) for y in fam[i + 1:]):
        return "family members overlap"
    return None


def _check_seq(op, out) -> str | None:
    q, *args = op["query"]
    if q in ("ideal-norm", "product"):
        if q == "product":
            return None if out is True else "ideal norm not additive"
        gens = [_Seq.parse(t) for t in args[0].split(";") if t]
        idx = sorted({i for vals, _ in gens for i in vals})
        for i in idx:
            want = min(vals.get(i, tail) for vals, tail in gens)
            if Fraction(out[str(i)][0]) != want:
                return f"ideal norm at {i}: {out[str(i)]}, own {want}"
        tail = min(t for _, t in gens)
        if Fraction(out["tail"][0]) != tail or Fraction(out["inf"][0]) != tail:
            return "ideal norm tail wrong"
        return None
    vals, tail = _Seq.parse(args[0])
    pos = {i: v for i, v in vals.items() if v > 0}
    mass = sum(pos.values())
    if q == "member":
        return None if out is True else "sequence nets with inf == tail are members"
    if q == "divisors":
        # zero tail: divisors are the nonzero nets below b, prod(v+1) - 1
        want = 1
        for v in pos.values():
            want *= v + 1
        want -= 1
        got = {tuple(sorted(_Seq.of(x)[0].items())) for x in out["divisors"]}
        if len(out["divisors"]) != want or len(got) != want:
            return f"{len(out['divisors'])} divisors listed, {want} exist"
        if out["count"] != want or out["exact"] is not True:
            return f"count {out['count']} exact {out['exact']}, own {want}"
        for x in out["divisors"]:
            sup, t, inf_ = _Seq.of(x)
            if t or inf_ or any(v > pos.get(i, 0) for i, v in sup.items()):
                return "listed divisor is not below the net"
        return None
    if q == "sb":
        if out["S_b"] != list(range(1, mass + 1)) or out["has_inf"] or out["inf_S_b"] != 1:
            return f"S_b wrong for mass {mass}"
        return None
    if q == "bfd":
        return None if out == mass else f"bfd {out}, own {mass}"
    if q == "factor":
        if tail:
            # omega_k and q have no atomic factorization at any finite depth
            return None if out["status"] == "none_within_depth" else f"status {out['status']}"
        counts: dict = {}
        for a in out["factorization"] or ():
            sup, t, _ = _Seq.of(a)
            if t or list(sup.values()) != [1]:
                return "factor is not an atom e_i"
            i = next(iter(sup))
            counts[i] = counts.get(i, 0) + 1
        return None if out["status"] == "found" and counts == pos else "factorization wrong"
    if q == "accp":
        k = int(args[1])
        if out is None or len(out) != k:
            return "omega_k starts chains of every length"
        prev = None
        for x in out:
            sup, t, inf_ = _Seq.of(x)
            if t != inf_:
                return "chain leaves the sequence domain"
            cur = (sup, t)
            if prev is not None and not _seq_proper_divisor(cur, prev):
                return "chain step is not a proper divisor"
            prev = cur
        return None
    if q == "comax":
        k = int(args[1])
        if out is None or len(out) != k:
            return f"no family of {k}, yet b has {len(pos)} positive indices"
        idxs = []
        for x in out:
            sup, t, _ = _Seq.of(x)
            if t or list(sup.values()) != [1] or next(iter(sup)) not in pos:
                return "family member is not an atom dividing b"
            idxs.append(next(iter(sup)))
        return None if len(set(idxs)) == k else "family members overlap"
    if q == "cover":
        cand = {int(t) for t in args[1].split(",") if t}
        want = not tail and set(pos) <= cand
        return None if out == want else f"cover {out}, own {want}"
    raise ValueError(f"unknown query {q}")


def _seq_proper_divisor(small, big) -> bool:
    (s_sup, s_tail), (b_sup, b_tail) = small, big
    if s_tail > b_tail:
        return False
    idx = set(s_sup) | set(b_sup)
    le = all(s_sup.get(i, s_tail) <= b_sup.get(i, b_tail) for i in idx)
    differs = s_tail != b_tail or any(s_sup.get(i, s_tail) != b_sup.get(i, b_tail) for i in idx)
    nonzero = s_tail > 0 or any(v > 0 for v in s_sup.values())
    return le and differs and nonzero


CHECKS = {
    "classify": check_classify, "hfd": check_hfd, "norm": check_norm,
    "factor_element": check_factor_element, "davenport": check_davenport,
    "member": check_member, "atoms": check_atoms, "nfactor": check_nfactor,
    "elasticity": check_elasticity, "saturation": check_saturation,
    "ufd": check_ufd, "valnet": check_valnet,
}
