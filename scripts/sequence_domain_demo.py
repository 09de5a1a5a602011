#!/usr/bin/env python3
"""Tour of the valuation-net sequence domain and small generated net monoids.

Shows the standard pathologies: omega_1 heads an infinite strictly
descending divisor chain yet never resolves into atoms, q = e_1 + omega_1
is positive everywhere, bounded-factorization bounds from divisor length
sets, and epsilon arithmetic with the ideal-norm additivity check.
"""
import random

from normset_lab.valnet_sim import (DENSE, DISCRETE, EpsVal, accp_chain,
                                    bfd_bound, comaximal_family, e_net, eps_add,
                                    find_atomic_factorization, finite_cover_check,
                                    finite_indices, generated_monoid,
                                    ideal_norm, ideal_norm_product_check,
                                    length, make_net, net_add,
                                    net_factorizations, omega_indices,
                                    omega_net, q_net, sequence_domain, S_b)


def main() -> int:
    omega = omega_indices()
    seq = sequence_domain()
    w1 = omega_net(omega, 1)
    q = q_net(omega)

    print("== sequence domain ==")
    print(f"q = {q}, length {length(q)}")
    print(f"omega_1 = {w1}, length {length(w1)}")
    print(f"e_1 + omega_1 == q: {net_add(e_net(omega, 1), w1) == q}")

    chain = accp_chain(seq, w1, 8)
    print("descending divisor chain from omega_1:")
    for step in chain:
        print(f"  {step}")
    print(f"atomic factorization of omega_1: "
          f"{find_atomic_factorization(seq, w1)}")

    b = make_net(omega, {1: 2, 3: 3})
    facs = find_atomic_factorization(seq, b)
    print(f"\nb = {b}: S_b {sorted(S_b(seq, b), key=str)}, "
          f"bfd bound {bfd_bound(seq, b)}, atoms {facs.value}")
    print(f"comaximal family for b: "
          f"{[str(x) for x in comaximal_family(seq, b, 2)]}")
    print(f"finite cover of q by indices [1, 2, 3]: "
          f"{finite_cover_check(seq, q, [1, 2, 3])}")

    print("\n== generated monoid over {M1, M2} ==")
    fin = finite_indices("M1", "M2")

    def fnet(x, y):
        return make_net(fin, {"M1": x, "M2": y})

    m = generated_monoid(fin, [fnet(2, 0), fnet(0, 2), fnet(1, 1)])
    x = fnet(2, 2)
    print(f"atoms: {[str(a) for a in m.atoms]}")
    print(f"factorizations of {x} (bfd bound {bfd_bound(m, x)}):")
    for f in net_factorizations(m, x):
        print(f"  {[str(a) for a in f.atoms]}")

    print("\n== epsilon arithmetic ==")
    print(f"(3, attained) + (2, attained) -> {eps_add(EpsVal(3, True), EpsVal(2, True))}")
    print(f"(1+eps) + (1+eps) dense      -> {eps_add(EpsVal(1, False), EpsVal(1, False), DENSE)}")
    print(f"(0+eps) + (0, attained) disc -> {eps_add(EpsVal(0, False), EpsVal(0, True), DISCRETE)}")

    gens_i = [make_net(omega, {1: 1, 2: 3}), make_net(omega, {1: 2, 2: 1})]
    gens_j = [make_net(omega, {1: 2, 3: 1})]
    print(f"ideal norm of I = <{', '.join(map(str, gens_i))}>: "
          f"{ {k: str(v) for k, v in ideal_norm(seq, gens_i).items()} }")
    rng = random.Random(7)
    trials = 50
    ok = sum(
        ideal_norm_product_check(
            seq,
            [make_net(omega, {i: rng.randint(0, 3) for i in rng.sample(range(1, 6), 2)},
                      tail=rng.randint(0, 1)) for _ in range(rng.randint(1, 3))],
            [make_net(omega, {i: rng.randint(0, 3) for i in rng.sample(range(1, 6), 2)},
                      tail=rng.randint(0, 1)) for _ in range(rng.randint(1, 3))])
        for _ in range(trials))
    print(f"ideal norm additivity: {ok}/{trials} random pairs")
    print(f"product check on I, J above: {ideal_norm_product_check(seq, gens_i, gens_j)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
