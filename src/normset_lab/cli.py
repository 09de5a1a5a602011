"""Command line frontend: every computation as a subcommand.

One process, batch semantics: parse flags, run one computation, print one
report (text lines or a single JSON record with a schema_version field),
exit. Exit status taxonomy: 0 success, 1 usage error, 2 the computation
ended in an unknown verdict (bound exhausted, search cap or budget hit, or
no atomic factorization found for a positive-tail sequence net).

JSON reports are deterministic (sorted keys, no floats) and round-trip
byte-identically through json.loads/json.dumps with the same options.
The default window bound is 500, overridable by the NORMSET_LAB_BOUND
environment variable and per-run by --bound; only the subcommands that
take --bound read the variable. Each flag's range is checked once, by its
argparse type, and the handlers hand library values to _emit unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import inf

from . import valnet_sim as vn
from .class_groups import class_group, narrow_class_group_real
from .errors import (BadDiscriminant, CapExceeded, NeedsBound, NotMember,
                     SearchBudgetExceeded, UsageError, WitnessSearchExhausted)
from .hfd_lab import (carlitz_verdict, classification_check,
                      elasticity_via_davenport, order_hfd_witness)
from .monoid_core import AbelianGroup, FactorMultiset, davenport_witness, elasticity_window
from .normsets import (factor_in_normset, irreducibles_up_to, is_saturated,
                       is_strictly_saturated_window, is_ufd,
                       normset_monoid_view, normset_of)
from .quadratic import canonical_associate, is_irreducible, order_of, parse_element

SCHEMA_VERSION = 1
EXIT_OK, EXIT_USAGE, EXIT_UNKNOWN = 0, 1, 2

_JSON_OPTS = dict(sort_keys=True, indent=2)


def _plain(v):
    """Make a value JSON-safe: exact rationals and domain objects become
    strings, infinities become the string "infinity", keys become strings.
    """
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return "infinity" if v == inf else v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, FactorMultiset):
        return [_plain(a) for a in v]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        items = [_plain(x) for x in v]
        if isinstance(v, (set, frozenset)):
            items.sort(key=lambda x: (str(type(x)), str(x)))
        return items
    return str(v)


def _emit(fmt: str, record: dict):
    record = _plain({"schema_version": SCHEMA_VERSION, **record})
    if fmt == "json":
        print(json.dumps(record, **_JSON_OPTS))
        return
    for k in sorted(record):
        v = record[k]
        if isinstance(v, (dict, list)):
            v = json.dumps(v, sort_keys=True)
        print(f"{k}: {v}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload dict, exit code)


def _cmd_classgroup(args):
    order = order_of(args.d, args.n)
    cg = class_group(order.discriminant)
    payload = {
        "command": "classgroup",
        "d": args.d,
        "n": args.n,
        "discriminant": order.discriminant,
        "kind": cg.kind,
        "class_number": cg.class_number,
        "structure": cg.structure,
        "invariant_factors": cg.structure.invariant_factors,
        "classes": cg.classes,
    }
    if not order.is_imaginary:
        payload["narrow_class_number"] = \
            narrow_class_group_real(order.discriminant).class_number
    return payload, EXIT_OK


def _cmd_norm(args):
    order = order_of(args.d, args.n)
    x = parse_element(order, args.elem)
    payload = {
        "command": "norm",
        "order": order,
        "elem": x,
        "norm": x.norm(),
    }
    if order.is_imaginary and not (x.is_zero() or x.is_unit()):
        payload["canonical"] = canonical_associate(x)
        payload["irreducible"] = is_irreducible(x)
    return payload, EXIT_OK


def _cmd_normset(args):
    order = order_of(args.d, args.n)
    ns = normset_of(order)
    if args.normset_op == "member":
        v = ns.contains(args.value, args.bound)
        payload = {"command": "normset member", "order": order,
                   "value": args.value, **vars(v)}
        return payload, EXIT_UNKNOWN if v.answer == "unknown" else EXIT_OK
    if args.normset_op == "atoms":
        atoms = irreducibles_up_to(ns, args.bound)
        return {"command": "normset atoms", "order": order,
                "bound": args.bound, "atoms": atoms}, EXIT_OK
    # factor
    try:
        facts = factor_in_normset(ns, args.value)
    except NotMember:
        return {"command": "normset factor", "order": order,
                "value": args.value, "member": False}, EXIT_OK
    flists = sorted([list(f) for f in facts], key=lambda f: (len(f), f))
    return {
        "command": "normset factor",
        "order": order,
        "value": args.value,
        "member": True,
        "factorizations": flists,
        "lengths": sorted({len(f) for f in flists}),
    }, EXIT_OK


def _cmd_ufd(args):
    order = order_of(args.d, args.n)
    cert = is_ufd(order)
    rows = [{"p": r.p, "f": r.f_p, "target": r.target, "member": r.member,
             "witness": r.witness}
            for r in cert.rows]
    return {
        "command": "ufd",
        "order": order,
        "verdict": cert.value,
        "P": cert.criterion_primes,
        "minkowski": cert.minkowski,
        "rows": rows,
    }, EXIT_OK


def _cmd_saturation(args):
    order = order_of(args.d, args.n)
    strict = is_strictly_saturated_window(order, args.bound)
    return {
        "command": "saturation",
        "order": order,
        "saturated": is_saturated(order),
        "strict_window": dict(vars(strict)),
    }, EXIT_OK


def _cmd_hfd(args):
    if args.n == 1:
        hv = carlitz_verdict(order_of(args.d))
    else:
        hv = order_hfd_witness(args.d, args.n)
    payload = {
        "command": "hfd",
        "order": hv.order,
        "verdict": hv.verdict,
        "method": hv.method,
        "element": hv.element,
    }
    if hv.witness is not None:
        short, long_ = hv.witness
        payload["witness"] = {"short": short, "long": long_}
    return payload, EXIT_OK


def _cmd_classify_hfd(args):
    report = classification_check()
    # a witness prints as its two factorizations' strings
    rows = [{**vars(r), "witness": None if r.witness is None else [str(f) for f in r.witness]}
            for r in report]
    counts: dict[str, int] = {}
    for r in report:
        counts[r.expected] = counts.get(r.expected, 0) + 1
    return {
        "command": "classify-hfd",
        "rows": rows,
        "total": len(report),
        "all_ok": report.ok,
        "expected_counts": counts,
    }, EXIT_OK


def _cmd_elasticity(args):
    order = order_of(args.d, args.n)
    view = normset_monoid_view(normset_of(order))
    rho = elasticity_window(view, args.bound)
    payload = {
        "command": "elasticity",
        "order": order,
        "bound": args.bound,
        "normset_elasticity": rho,
        "witness": rho.witness,
    }
    if order.is_imaginary and order.is_maximal:
        payload["ring_elasticity_formula"] = elasticity_via_davenport(order)
    return payload, EXIT_OK


def _cmd_davenport(args):
    g = AbelianGroup.from_string(args.group)
    D, witness = davenport_witness(g)
    return {
        "command": "davenport",
        "group": g,
        "davenport": D,
        "witness": witness,
    }, EXIT_OK


def _valnet_indices(m: vn.NetMonoid, text: str) -> list:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok == vn.INF_INDEX or m.index_set.kind == "finite":
            out.append(tok)
        else:
            out.append(int(tok))
    return out


def _valnet_gens(m: vn.NetMonoid, text: str) -> list[vn.ValNet]:
    return [vn.parse_net(m, part) for part in text.split(";") if part.strip()]


def _cmd_valnet(args):
    m = vn.load_net_monoid(args.file)
    toks = list(args.query)
    op = toks.pop(0).lower()
    depth = args.depth
    base = {"command": "valnet", "monoid": m, "query": op}

    def take(what: str) -> str:
        if not toks:
            raise UsageError(f"valnet {op} needs {what}")
        return toks.pop(0)

    def take_count(what: str) -> int:
        try:
            return _at_least(1)(take(what))
        except argparse.ArgumentTypeError as e:
            raise UsageError(f"valnet {op}: {what} {e}") from None

    if op == "atoms":
        if m.kind == "generated":
            return {**base, "atoms": m.atoms}, EXIT_OK
        return {**base, "atoms": "e_n for every index n >= 1"}, EXIT_OK
    if op == "idempotent":
        return {**base, "covered": vn.idempotent_cover_check(m)}, EXIT_OK
    if op == "ideal-norm":
        gens = _valnet_gens(m, take("a ;-separated generator list"))
        return {**base, "norm": vn.ideal_norm(m, gens)}, EXIT_OK
    if op == "product":
        gi, gj = take("two generator lists"), take("two generator lists")
        ok = vn.ideal_norm_product_check(m, _valnet_gens(m, gi), _valnet_gens(m, gj))
        return {**base, "additive": ok}, EXIT_OK

    b = vn.parse_net(m, take("a net argument"))
    base["net"] = b
    if op == "member":
        return {**base, "member": m.contains(b)}, EXIT_OK
    if op == "length":
        return {**base, "length": vn.length(b)}, EXIT_OK
    if op == "sb":
        vals = vn.S_b(m, b, depth)
        return {**base, "S_b": sorted(vals, key=lambda v: (v == inf, v)),
                "inf_S_b": min(vals) if vals else None}, EXIT_OK
    if op == "bfd":
        return {**base, "bfd_bound": vn.bfd_bound(m, b, depth)}, EXIT_OK
    if op == "factor":
        out = vn.find_atomic_factorization(m, b)
        payload = {**base, "status": out.status, "depth": depth,
                   "factorization": out.value}
        return payload, EXIT_UNKNOWN if out.status == "none_within_depth" else EXIT_OK
    if op == "divisors":
        ds = vn.monoid_divisors(m, b, depth)
        ffd = vn.ffd_window(m, b, depth)
        return {**base, "divisors": ds, "count": ffd.count, "exact": ffd.exact}, EXIT_OK
    if op == "accp":
        k = take_count("a chain length")
        chain = vn.accp_chain(m, b, k)
        return {**base, "k": k, "found": chain is not None, "chain": chain}, EXIT_OK
    if op == "comax":
        k = take_count("a family size")
        fam = vn.comaximal_family(m, b, k)
        return {**base, "k": k, "found": fam is not None, "family": fam}, EXIT_OK
    if op == "cover":
        idxs = _valnet_indices(m, take("a comma-separated index list"))
        return {**base, "indices": [str(i) for i in idxs],
                "covered": vn.finite_cover_check(m, b, idxs)}, EXIT_OK
    raise UsageError(f"unknown valnet query {op!r}")


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least(low: int, note: str = ""):
    """An argparse type: an integer >= low. Every range rule of a flag is
    stated here, once; argparse reports a failure as a usage error.
    """
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}{note}")
    return parse


def _add_common(p, *, d=False, n=False, bound=False, value=False, depth=False):
    if d:
        p.add_argument("--d", type=int, required=True,
                       help="squarefree integer defining Q(sqrt(d))")
    if n:
        p.add_argument("--n", type=_at_least(1), default=1, help="conductor (default 1)")
    if bound:
        # a string default passes through the type too, so a bad variable
        # fails only the subcommands that read it
        p.add_argument("--bound", type=_at_least(4, " (from --bound, else NORMSET_LAB_BOUND)"),
                       default=os.environ.get("NORMSET_LAB_BOUND", "500"),
                       help="window bound (default 500 or NORMSET_LAB_BOUND)")
    if value:
        p.add_argument("--value", type=int, required=True,
                       help="integer queried against the normset")
    if depth:
        p.add_argument("--depth", type=_at_least(1), default=vn.DEFAULT_DEPTH,
                       help="index window for the infinite divisor lists of "
                            "positive-tail sequence nets (divisors, sb); every "
                            "other valnet answer is exact at any depth")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="normset-lab",
                     description="Norm monoids of quadratic orders and "
                                 "valuation-net factorization experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", parents=[], help="form class group of an order")
    _add_common(p, d=True, n=True)
    p.set_defaults(handler=_cmd_classgroup)

    p = sub.add_parser("norm", help="norm of an element a+b*w of the order")
    _add_common(p, d=True, n=True)
    p.add_argument("--elem", required=True, help="element like '3+2w' or '7'")
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("normset", help="membership, atoms, factorizations")
    ops = p.add_subparsers(dest="normset_op", required=True)
    q = ops.add_parser("member", help="is --value a norm?")
    _add_common(q, d=True, n=True, bound=True, value=True)
    q.set_defaults(handler=_cmd_normset)
    q = ops.add_parser("atoms", help="normset irreducibles up to --bound")
    _add_common(q, d=True, n=True, bound=True)
    q.set_defaults(handler=_cmd_normset)
    q = ops.add_parser("factor", help="all normset factorizations of --value")
    _add_common(q, d=True, n=True, bound=True, value=True)
    q.set_defaults(handler=_cmd_normset)

    p = sub.add_parser("ufd", help="norm criterion for unique factorization")
    _add_common(p, d=True)
    p.set_defaults(handler=_cmd_ufd, n=1)

    p = sub.add_parser("saturation", help="saturation and strict-saturation window")
    _add_common(p, d=True, bound=True)
    p.set_defaults(handler=_cmd_saturation, n=1)

    p = sub.add_parser("hfd", help="half-factoriality verdict for an order")
    _add_common(p, d=True, n=True)
    p.set_defaults(handler=_cmd_hfd)

    p = sub.add_parser("classify-hfd", help="run the full classification table")
    _add_common(p)
    p.set_defaults(handler=_cmd_classify_hfd)

    p = sub.add_parser("elasticity", help="window elasticity of the normset")
    _add_common(p, d=True, n=True, bound=True)
    p.set_defaults(handler=_cmd_elasticity)

    p = sub.add_parser("davenport", help="Davenport constant: Olson's formula for "
                       "p-groups and rank <= 2, a search otherwise")
    p.add_argument("--group", required=True,
                   help="finite abelian group, e.g. '3,3' or 'Z_2 x Z_4'")
    _add_common(p)
    p.set_defaults(handler=_cmd_davenport)

    p = sub.add_parser("valnet", help="valuation-net monoid queries")
    p.add_argument("file", help="net-monoid description file")
    p.add_argument("query", nargs="+",
                   help="e.g. 'length q', 'factor w1', 'accp w1 10', 'sb e3', "
                        "'cover q 1,2', 'ideal-norm e1;w1', 'product e1 e2'")
    _add_common(p, depth=True)
    p.set_defaults(handler=_cmd_valnet)

    return parser


def _glue_elem(argv: list[str]) -> list[str]:
    """Rewrite '--elem -3+2w' as '--elem=-3+2w': argparse reads a token with
    a leading minus as an option, so the element would go missing.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--elem" and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"--elem={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _glue_elem(sys.argv[1:] if argv is None else argv))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        payload, code = args.handler(args)
    except BadDiscriminant as e:
        print(f"usage error: --d/--n invalid: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, FileNotFoundError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NeedsBound, WitnessSearchExhausted, SearchBudgetExceeded,
            CapExceeded) as e:
        command = " ".join(filter(None, (args.command, getattr(args, "normset_op", None))))
        record = {"command": command, "answer": "unknown",
                  "reason": type(e).__name__, "detail": str(e)}
        # a refused search names the bound it was given, null for none
        if isinstance(e, NeedsBound):
            record["bound_used"] = e.bound
        elif getattr(args, "bound", None) is not None:
            record["bound_used"] = args.bound
        _emit(args.format, record)
        return EXIT_UNKNOWN
    _emit(args.format, payload)
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
