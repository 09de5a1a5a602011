"""The library call behind each CLI subcommand, and its output as plain data.

`run` makes the calls a fresh `normset-lab` process makes for one
subcommand, minus argument parsing and printing; every name is looked up
on its module at call time, so a traced run sees the wrapped functions.
`plain` turns a result into JSON data after the timing has stopped.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import inf

import normset_lab.hfd_lab as hl
import normset_lab.monoid_core as mc
import normset_lab.normsets as ns
import normset_lab.quadratic as qd
import normset_lab.valnet_sim as vn
from normset_lab.errors import NotMember


class Failed:
    """An operation that raised; the exception is its output."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


def run(op: dict, net_dir: str):
    kind = op["kind"]
    if kind == "classify":
        return hl.classification_check()
    if kind == "hfd":
        return hl.carlitz_verdict(qd.order_of(op["d"]))
    if kind == "davenport":
        return mc.davenport_witness(mc.AbelianGroup.from_string(op["group"]))
    if kind == "valnet":
        return _valnet(op, net_dir)
    order = qd.order_of(op["d"], op.get("n", 1))
    if kind == "norm":
        x = qd.parse_element(order, op["elem"])
        return x, x.norm(), qd.canonical_associate(x), qd.is_irreducible(x)
    if kind == "factor_element":
        return qd.factor_element(order, qd.parse_element(order, op["elem"]))
    if kind == "member":
        return ns.normset_of(order).contains(op["value"], op["bound"])
    if kind == "atoms":
        return ns.irreducibles_up_to(ns.normset_of(order), op["bound"])
    if kind == "nfactor":
        try:
            return ns.factor_in_normset(ns.normset_of(order), op["value"])
        except NotMember:
            return None
    if kind == "elasticity":
        rho = mc.elasticity_window(ns.normset_monoid_view(ns.normset_of(order)), op["bound"])
        ring = hl.elasticity_via_davenport(order) \
            if order.is_imaginary and order.is_maximal else None
        return rho, ring
    if kind == "saturation":
        return ns.is_strictly_saturated_window(order, op["bound"]), ns.is_saturated(order)
    if kind == "ufd":
        return ns.is_ufd(order)
    raise ValueError(f"unknown operation kind {kind!r}")


def _valnet(op: dict, net_dir: str):
    m = vn.load_net_monoid(os.path.join(net_dir, op["file"]))
    q, *args = op["query"]
    depth = op["depth"]
    if q == "ideal-norm":
        return vn.ideal_norm(m, _gens(m, args[0]))
    if q == "product":
        return vn.ideal_norm_product_check(m, _gens(m, args[0]), _gens(m, args[1]))
    b = vn.parse_net(m, args[0])
    if q == "member":
        return m.contains(b, depth)
    if q == "sb":
        return vn.S_b(m, b, depth), vn.inf_S_b(m, b, depth)
    if q == "bfd":
        return vn.bfd_bound(m, b, depth)
    if q == "factor":
        return vn.find_atomic_factorization(m, b, depth)
    if q == "divisors":
        return vn.monoid_divisors(m, b, depth), vn.ffd_window(m, b, depth)
    if q == "accp":
        return vn.accp_chain(m, b, int(args[1]))
    if q == "comax":
        return vn.comaximal_family(m, b, int(args[1]), depth)
    if q == "cover":
        idxs = [t if t == vn.INF_INDEX or m.index_set.kind == "finite" else int(t)
                for t in args[1].split(",") if t]
        return vn.finite_cover_check(m, b, idxs, depth)
    raise ValueError(f"unknown valnet query {q!r}")


def _gens(m, text: str):
    return [vn.parse_net(m, part) for part in text.split(";") if part.strip()]


# ---------------------------------------------------------------------------


def _elem(x) -> list[int]:
    return [x.a, x.b]


def _fact(f) -> list:
    return [_elem(a) for a in f]


def _value(v):
    if isinstance(v, Fraction):
        return str(v)
    if v == inf:
        return "inf"
    return v


def _net(x) -> dict:
    return {"support": [[str(i), _value(v)] for i, v in x.support],
            "tail": _value(x.tail), "inf": _value(x.at_infinity)}


def plain(op: dict, res):
    """JSON data for the checks; what a CLI record would carry, unrounded."""
    if isinstance(res, Failed):
        return {"error": res.error}
    kind = op["kind"]
    if kind == "classify":
        return [{"d": r.d, "n": r.n, "expected": r.expected, "computed": r.computed,
                 "ok": r.ok, "witness": None if r.witness is None
                 else [_fact(r.witness[0]), _fact(r.witness[1])]} for r in res]
    if kind == "hfd":
        return {"verdict": res.verdict, "method": res.method,
                "element": None if res.element is None else _elem(res.element),
                "witness": None if res.witness is None
                else [_fact(res.witness[0]), _fact(res.witness[1])]}
    if kind == "davenport":
        D, witness = res
        return {"davenport": D, "witness": [list(e) for e in witness]}
    if kind == "norm":
        x, nm, canon, irreducible = res
        return {"norm": nm, "canonical": _elem(canon), "irreducible": irreducible}
    if kind == "factor_element":
        return [_fact(f) for f in res]
    if kind == "member":
        return {"answer": res.answer, "backend": res.backend, "bound_used": res.bound_used,
                "witness": None if res.witness is None else _elem(res.witness)}
    if kind == "atoms":
        return list(res)
    if kind == "nfactor":
        return None if res is None else sorted(sorted(f.atoms) for f in res)
    if kind == "elasticity":
        rho, ring = res
        return {"normset_elasticity": str(Fraction(rho)), "witness": rho.witness,
                "ring_elasticity_formula": None if ring is None else str(ring)}
    if kind == "saturation":
        strict, saturated = res
        return {"saturated": saturated, "answer": strict.answer,
                "witness": None if strict.witness is None else list(strict.witness)}
    if kind == "ufd":
        return {"verdict": res.value, "minkowski": str(res.minkowski),
                "rows": [{"p": r.p, "f": r.f_p, "target": r.target, "member": r.member,
                          "witness": None if r.witness is None else _elem(r.witness)}
                         for r in res.rows]}
    return _plain_valnet(op["query"][0], res)


def _plain_valnet(q: str, res):
    if q == "ideal-norm":
        return {str(k): [_value(v.gamma), v.attained] for k, v in res.items()}
    if q in ("product", "member", "bfd", "cover"):
        return res
    if q == "sb":
        vals, low = res
        return {"S_b": [_value(v) for v in sorted(v for v in vals if v != inf)],
                "has_inf": inf in vals, "inf_S_b": _value(low)}
    if q == "factor":
        return {"status": res.status,
                "factorization": None if res.value is None else [_net(a) for a in res.value]}
    if q == "divisors":
        ds, count = res
        return {"divisors": [_net(d) for d in ds], "count": count.count, "exact": count.exact}
    # accp, comax: a list of nets or None
    return None if res is None else [_net(x) for x in res]
