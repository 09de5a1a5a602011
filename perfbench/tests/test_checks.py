"""Each check accepts a hand-verified answer and rejects a wrong one.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from fractions import Fraction
from math import ceil, pi, sqrt

import pytest

from perfbench import checks, oracle


def ok(op, out):
    return checks.Checker().check(op, out) is None


def test_published_class_numbers_match_own_form_count():
    for d in oracle.CLASS_NUMBER_ONE:
        assert oracle.class_number_imaginary(oracle.field_discriminant(d)) == 1
    for d in oracle.CLASS_NUMBER_TWO:
        assert oracle.class_number_imaginary(oracle.field_discriminant(d)) == 2
    assert oracle.class_number_imaginary(-56) == 4  # Q(sqrt(-14))


def test_real_membership_agrees_with_diop_dn():
    for d, n in ((2, 1), (5, 1), (13, 1), (34, 1), (3, 2), (5, 2), (10, 3)):
        for m in list(range(-40, -1)) + list(range(2, 41)):
            assert oracle.real_has_norm(d, n, m) == oracle.real_has_norm_sympy(d, n, m), (d, n, m)


def test_davenport():
    op = {"kind": "davenport", "group": "3,3"}
    good = [[0, 1], [0, 1], [1, 0], [1, 0]]
    assert ok(op, {"davenport": 5, "witness": good})
    assert not ok(op, {"davenport": 4, "witness": good[:3]})
    # (0,1) + (0,2) sums to zero
    assert not ok(op, {"davenport": 5, "witness": [[0, 1], [0, 2], [1, 0], [1, 0]]})


def test_member_imaginary():
    op = {"kind": "member", "d": -10, "n": 1, "bound": 500}
    assert ok(dict(op, value=100), {"answer": "yes", "witness": [10, 0]})
    assert ok(dict(op, value=5), {"answer": "no", "witness": None})
    assert not ok(dict(op, value=100), {"answer": "yes", "witness": [9, 1]})
    # 14 = N(2 + sqrt(-10))
    assert not ok(dict(op, value=14), {"answer": "no", "witness": None})
    assert not ok(dict(op, value=5), {"answer": "unknown", "witness": None})


def test_member_real_both_kinds():
    op = {"kind": "member", "n": 1, "bound": 500}
    # 7 = 3^2 - 2*1^2; 3 is inert in Q(sqrt(2))
    assert ok(dict(op, d=2, value=7), {"answer": "yes", "witness": [3, 1]})
    assert ok(dict(op, d=2, value=3), {"answer": "no", "witness": None})
    assert not ok(dict(op, d=2, value=7), {"answer": "no", "witness": None})
    # N(a + b(1+sqrt5)/2) = a^2 + ab - b^2: 11 at (3, 1), -1 at (0, 1); 2 inert
    assert ok(dict(op, d=5, value=11), {"answer": "yes", "witness": [3, 1]})
    assert ok(dict(op, d=5, value=-1), {"answer": "yes", "witness": [0, 1]})
    assert ok(dict(op, d=5, value=2), {"answer": "no", "witness": None})
    assert not ok(dict(op, d=5, value=-1), {"answer": "no", "witness": None})


def test_normset_factor():
    op = {"kind": "nfactor", "d": -10, "n": 1, "value": 100}
    assert ok(op, [[4, 25], [10, 10]])
    assert not ok(op, [[10, 10]])
    assert not ok(dict(op, value=5), [[5]])


def test_normset_atoms():
    # norms of Z[i] up to 20: 2 4 5 8 9 10 13 16 17 18 20
    op = {"kind": "atoms", "d": -1, "n": 1, "bound": 20}
    assert ok(op, [2, 5, 9, 13, 17])
    assert not ok(op, [2, 5, 13, 17])


def test_two_length_witness():
    # Z[sqrt(-14)], h = 4: 81 = 3^4 = (5 + 2w)(5 - 2w), all atoms irreducible
    op = {"kind": "hfd", "d": -14}
    good = {"verdict": "not_hfd", "method": "carlitz", "element": [81, 0],
            "witness": [[[5, 2], [5, -2]], [[3, 0]] * 4]}
    assert ok(op, good)
    assert not ok(op, dict(good, witness=[[[5, 2], [5, -2]], [[9, 0], [3, 0], [3, 0]]]))
    assert not ok(op, dict(good, verdict="hfd"))
    assert not ok(dict(op, d=-5), good)  # h = 2: not in the sample's range


def test_factor_element_and_norm():
    op = {"kind": "factor_element", "d": -5, "n": 1, "elem": "6+0*w"}
    assert ok(op, [[[2, 0], [3, 0]], [[1, 1], [1, -1]]])
    assert not ok(op, [[[6, 0]]])
    assert not ok(op, [[[2, 0], [2, 0]]])
    op = {"kind": "norm", "d": -5, "n": 1, "elem": "1+1*w"}
    assert ok(op, {"norm": 6, "canonical": [1, 1], "irreducible": True})
    assert not ok(op, {"norm": 6, "canonical": [1, 1], "irreducible": False})
    assert not ok(op, {"norm": 6, "canonical": [2, 1], "irreducible": True})


def test_elasticity_and_saturation_of_gaussian_integers():
    op = {"kind": "elasticity", "d": -1, "n": 1, "bound": 50}
    good = {"normset_elasticity": "1", "witness": None, "ring_elasticity_formula": "1"}
    assert ok(op, good)
    assert not ok(op, dict(good, ring_elasticity_formula="3/2"))
    op = {"kind": "saturation", "d": -1, "bound": 50}
    assert ok(op, {"saturated": True, "answer": "yes", "witness": None})
    assert not ok(op, {"saturated": True, "answer": "no", "witness": [2, 4, 2]})


def test_ufd():
    # Q(sqrt(-5)): M = 2 sqrt(20) / pi ~ 2.85; 2 ramifies and is no norm
    M = Fraction(ceil(2 * sqrt(20) / pi * 10**6), 10**6)
    op = {"kind": "ufd", "d": -5}
    good = {"verdict": False, "minkowski": str(M),
            "rows": [{"p": 2, "f": 1, "target": 2, "member": False, "witness": None}]}
    assert ok(op, good)
    assert not ok(op, dict(good, verdict=True))
    assert not ok(op, dict(good, rows=[]))


def _net(support, tail=0, inf=0):
    return {"support": [[str(i), v] for i, v in support], "tail": tail, "inf": inf}


def test_generated_net_queries():
    # pair.net: atoms A:2, B:2, A:1+B:1
    op = {"kind": "valnet", "file": "pair.net", "depth": 32}
    assert ok(dict(op, query=["member", "A:2,B:2"]), True)
    assert ok(dict(op, query=["member", "A:1"]), False)
    assert not ok(dict(op, query=["member", "A:1"]), True)
    divs = [_net([("A", 2)]), _net([("B", 2)]), _net([("A", 1), ("B", 1)]),
            _net([("A", 2), ("B", 2)])]
    good = {"divisors": divs, "count": 4, "exact": True}
    assert ok(dict(op, query=["divisors", "A:2,B:2"]), good)
    assert not ok(dict(op, query=["divisors", "A:2,B:2"]), dict(good, divisors=divs[:3]))
    # longest factorization of (2, 2) has two atoms
    chain = [_net([("A", 2), ("B", 2)]), _net([("A", 1), ("B", 1)])]
    assert ok(dict(op, query=["accp", "A:2,B:2", "2"]), chain)
    assert ok(dict(op, query=["accp", "A:2,B:2", "3"]), None)
    assert not ok(dict(op, query=["accp", "A:2,B:2", "2"]), None)


def test_sequence_divisors_and_the_kept_failure():
    op = {"kind": "valnet", "file": "seq.net", "depth": 32}
    support = [[(1, 1)], [(1, 2)], [(3, 1)], [(1, 1), (3, 1)], [(1, 2), (3, 1)]]
    good = {"divisors": [_net(s) for s in support], "count": 5, "exact": True}
    assert ok(dict(op, query=["divisors", "1:2,3:1"]), good)
    assert not ok(dict(op, query=["divisors", "1:2,3:1"]),
                  dict(good, divisors=good["divisors"][:4]))
    # monoid_divisors stops at total mass `depth` but says exact
    cut = {"divisors": [_net([(1, k)]) for k in range(1, 33)], "count": 40, "exact": True}
    assert not ok(dict(op, query=["divisors", "1:40"]), cut)


@pytest.mark.parametrize("out", [None, {"answer": "yes"}, [1, 2], "text"])
def test_malformed_output_is_rejected_not_raised(out):
    assert not ok({"kind": "davenport", "group": "2"}, out)
