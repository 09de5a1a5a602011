#!/usr/bin/env python3
"""Walk one quadratic order's normset: members, atoms, collisions, windows.

Examples:
    python3 scripts/normset_explorer.py -10
    python3 scripts/normset_explorer.py -41 --bound 300
    python3 scripts/normset_explorer.py 34 --bound 60
"""
import argparse
from collections import Counter

from normset_lab.monoid_core import FactorSession, elasticity_window, is_ufm_window
from normset_lab.normsets import (factor_in_normset, irreducibles_up_to,
                                  is_saturated, is_strictly_saturated_window,
                                  is_ufd, normset_monoid_view, normset_of)
from normset_lab.quadratic import order_of


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("d", type=int, help="squarefree generator of the field")
    ap.add_argument("--n", type=int, default=1, help="conductor (default maximal)")
    ap.add_argument("--bound", type=int, default=100)
    args = ap.parse_args()

    order = order_of(args.d, args.n)
    ns = normset_of(order)
    B = args.bound
    print(f"order {order}, discriminant {order.discriminant}")

    members = ns.members_up_to(B)
    atoms = irreducibles_up_to(ns, B)
    print(f"members up to {B} ({len(members)}): {members}")
    print(f"atoms up to {B} ({len(atoms)}): {atoms}")

    # elements whose atom factorizations are not unique, with length spreads
    facs = {m: factor_in_normset(ns, m) for m in members}
    collisions = [m for m in members if len(facs[m]) > 1]
    if collisions:
        print(f"non-unique members up to {B}:")
        for m in collisions:
            lens = sorted({f.length for f in facs[m]})
            shapes = sorted(tuple(sorted(f.atoms)) for f in facs[m])
            print(f"  {m}: {len(facs[m])} factorizations, lengths {lens}, {shapes}")
    else:
        print(f"every member up to {B} factors uniquely")

    spread = Counter(map(len, facs.values()))
    print(f"factorization-count profile: {dict(sorted(spread.items()))}")

    view = normset_monoid_view(ns)
    ufm = is_ufm_window(view, B)
    tag = "" if ufm.witness is None else f" (witness {ufm.witness})"
    print(f"window-unique up to {B}: {ufm.holds}{tag}")

    if order.is_maximal:
        cert = is_ufd(order)
        print(f"UFD: {bool(cert)} (minkowski {cert.minkowski}, "
              f"criterion primes {list(cert.criterion_primes)})")
        print(f"saturated: {is_saturated(order)}")
        strict = is_strictly_saturated_window(order, max(B, 10))
        print(f"strictly saturated up to {max(B, 10)}: {strict.answer}"
              + (f" (witness {strict.witness})" if strict.witness else ""))

    e = elasticity_window(view, B, FactorSession(view))
    wit = f" at {e.witness}" if e.witness is not None else ""
    print(f"normset elasticity window {B}: {e}{wit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
