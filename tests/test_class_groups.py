"""Form reduction, composition, and class group tables.

Class numbers and reduced-form lists are frozen against the standard tables;
composition is cross-checked through the represented-value product property
(f represents m, g represents n, gcd(m,n)=1 => the composed class represents
mn), which does not share code with the congruence solver.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normset_lab import (
    AbelianGroup,
    BadDiscriminant,
    BQForm,
    class_group,
    class_group_imaginary,
    class_group_real,
    class_number,
    compose,
    form_cycle,
    ideal_class_options,
    minkowski_bound,
    narrow_class_group_real,
    order_of,
    prime_form,
    principal_form,
    reduced_forms,
    reduced_indefinite_forms,
    splitting_type,
)
from normset_lab.arith import is_squarefree
from normset_lab.class_groups import (
    ideal_class_table,
    is_reduced_definite,
    is_reduced_indefinite,
    reduce_definite,
    reduce_indefinite,
    rho_step,
)
from normset_lab.monoid_core import invariant_factors_from_table

# standard table of class numbers h(D) for fundamental D < 0
H_TABLE = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2,
    -23: 3, -24: 2, -31: 3, -35: 2, -40: 2, -43: 1, -47: 5,
    -56: 4, -67: 1, -84: 4, -163: 1, -164: 8,
}


def test_form_basics():
    f = BQForm(2, 2, 3)
    assert f.discriminant() == -20
    assert f.is_primitive
    assert f.tuple() == (2, 2, 3)
    assert not BQForm(2, 0, 2).is_primitive
    assert str(f) == "(2,2,3)"


def test_principal_forms():
    assert principal_form(-4) == BQForm(1, 0, 1)
    assert principal_form(-20) == BQForm(1, 0, 5)
    assert principal_form(-7) == BQForm(1, 1, 2)
    assert principal_form(40) == BQForm(1, 6, -1)
    assert principal_form(136) == BQForm(1, 10, -9)
    for D in (-4, -20, 40, 136):
        assert principal_form(D).discriminant() == D


def test_discriminant_validation():
    for bad in (-6, -5, 7, 16, 9):
        with pytest.raises(BadDiscriminant):
            principal_form(bad)
    with pytest.raises(BadDiscriminant):
        reduce_definite(BQForm(1, 0, -1))
    with pytest.raises(BadDiscriminant):
        reduce_indefinite(BQForm(1, 0, 1))


# ---------------------------------------------------------------------------
# reduction


@given(
    a=st.integers(min_value=1, max_value=25),
    b=st.integers(min_value=-60, max_value=60),
    c=st.integers(min_value=1, max_value=400),
)
def test_definite_reduction_properties(a, b, c):
    f = BQForm(a, b, c)
    if f.discriminant() >= 0:
        return
    g = reduce_definite(f)
    assert g.discriminant() == f.discriminant()
    assert is_reduced_definite(g)
    assert reduce_definite(g) == g


def test_reduction_respects_equivalence():
    # unimodular moves (translation and flip) never change the class
    f = BQForm(3, 2, 14)
    assert reduce_definite(f) == f
    for k in (-3, -1, 1, 2, 5):
        shifted = BQForm(f.a, f.b + 2 * f.a * k, f.a * k * k + f.b * k + f.c)
        assert reduce_definite(shifted) == f
    assert reduce_definite(BQForm(f.c, -f.b, f.a)) == f


def test_reduced_forms_frozen_lists():
    assert [f.tuple() for f in reduced_forms(-4)] == [(1, 0, 1)]
    assert [f.tuple() for f in reduced_forms(-20)] == [(1, 0, 5), (2, 2, 3)]
    assert [f.tuple() for f in reduced_forms(-56)] == [
        (1, 0, 14), (2, 0, 7), (3, 2, 5), (3, -2, 5),
    ]
    assert [f.tuple() for f in reduced_forms(-164)] == [
        (1, 0, 41), (2, 2, 21), (3, 2, 14), (3, -2, 14),
        (5, 4, 9), (5, -4, 9), (6, 2, 7), (6, -2, 7),
    ]


def test_class_number_table():
    for D, h in H_TABLE.items():
        assert class_number(D) == h, f"h({D})"
        assert len(reduced_forms(D)) == h


def test_reduced_forms_are_reduced_and_primitive():
    for D in (-20, -56, -163, -164):
        for f in reduced_forms(D):
            assert is_reduced_definite(f)
            assert f.is_primitive
            assert f.discriminant() == D


# ---------------------------------------------------------------------------
# composition


def test_composition_fixtures():
    # D = -20: the non-principal class has order 2
    assert compose(BQForm(2, 2, 3), BQForm(2, 2, 3)) == BQForm(1, 0, 5)
    # D = -56: (3,2,5) generates the cyclic group of order 4
    g = BQForm(3, 2, 5)
    g2 = compose(g, g)
    assert g2 == BQForm(2, 0, 7)
    assert compose(g2, g) == BQForm(3, -2, 5)
    assert compose(g2, g2) == BQForm(1, 0, 14)
    # D = -164: conjugate classes are inverse
    assert compose(BQForm(3, 2, 14), BQForm(3, -2, 14)) == BQForm(1, 0, 41)
    # D = 40: the -1 form has a < 0, which compose makes positive first;
    # it squares to the principal class
    assert compose(BQForm(-1, 6, 1), BQForm(-1, 6, 1)) == principal_form(40)


def test_composition_identity_and_commutativity():
    for D in (-20, -56, -164):
        e = reduce_definite(principal_form(D))
        for f in reduced_forms(D):
            assert compose(e, f) == f
            for g in reduced_forms(D):
                assert compose(f, g) == compose(g, f)


def test_composition_input_validation():
    with pytest.raises(BadDiscriminant):
        compose(BQForm(1, 0, 5), BQForm(1, 0, 14))
    with pytest.raises(BadDiscriminant):
        compose(BQForm(2, 0, 2), BQForm(2, 0, 2))


def _represents(f: BQForm, m: int, box: int) -> bool:
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if f.a * x * x + f.b * x * y + f.c * y * y == m:
                return True
    return False


def test_composition_against_represented_values():
    # independent characterization: if gcd(m, n) = 1 with f -> m and g -> n,
    # the class f*g represents mn
    for D in (-20, -164):
        forms = reduced_forms(D)
        for f in forms:
            for g in forms:
                m, n = f.a, g.a
                if gcd(m, n) != 1:
                    continue
                assert _represents(compose(f, g), m * n, 30), (D, f, g)


def test_composition_hand_picked_products():
    # (2,2,3) represents 2, 3 and 7; squares land in the principal class
    p = BQForm(1, 0, 5)
    q = BQForm(2, 2, 3)
    assert compose(q, q) == p
    for prod in (4, 6, 14, 21):  # 2*2, 2*3, 2*7, 3*7
        assert _represents(p, prod, 10)
    assert compose(p, q) == q
    assert _represents(q, 15, 10)  # 5 * 3, principal times q


# ---------------------------------------------------------------------------
# indefinite forms and real class groups


def test_indefinite_reduction():
    for D in (5, 40, 136):
        for f in reduced_indefinite_forms(D):
            assert is_reduced_indefinite(f)
            assert f.is_primitive
            g = rho_step(f)
            assert is_reduced_indefinite(g)
            assert g.discriminant() == D
    # a translate of the principal form reduces back into the principal cycle
    shifted = BQForm(1, 16, 30)
    assert shifted.discriminant() == 136
    assert not is_reduced_indefinite(shifted)
    red = reduce_indefinite(shifted)
    assert is_reduced_indefinite(red)
    nar = narrow_class_group_real(136)
    assert nar.index_of(red) == nar.identity_index


def test_rho_cycles_partition_d136():
    forms = reduced_indefinite_forms(136)
    assert len(forms) == 20
    seen = set()
    cycles = []
    for f in forms:
        if f in seen:
            continue
        cyc = form_cycle(f)
        cycles.append(cyc)
        seen.update(cyc)
    assert len(cycles) == 4
    assert sum(len(c) for c in cycles) == 20
    for cyc in cycles:
        # rho permutes each cycle cyclically
        for i, f in enumerate(cyc):
            assert rho_step(f) == cyc[(i + 1) % len(cyc)]


def test_narrow_and_wide_d136():
    nar = narrow_class_group_real(136)
    assert nar.class_number == 4
    assert nar.structure == AbelianGroup((4,))
    assert nar.kind == "narrow"
    assert nar.neg_principal_index is not None
    # eps(34) = 35 + 6*sqrt(34) has norm +1, so -1 is not a totally positive
    # unit times a square: the narrow group strictly covers the wide one
    assert nar.neg_principal_index != nar.identity_index
    wide = class_group_real(136)
    assert wide.class_number == 2
    assert wide.structure == AbelianGroup((2,))
    assert wide.kind == "wide"
    assert class_number(136) == 2


def test_narrow_equals_wide_when_norm_minus_one():
    # eps(10) = 3 + sqrt(10) has norm -1
    nar = narrow_class_group_real(40)
    assert nar.class_number == 2
    assert nar.neg_principal_index == nar.identity_index
    assert class_group_real(40).class_number == 2
    one = narrow_class_group_real(5)
    assert one.class_number == 1
    assert one.neg_principal_index == one.identity_index


def test_index_of_constant_on_cycles():
    nar = narrow_class_group_real(136)
    for f in reduced_indefinite_forms(136):
        assert nar.index_of(f) == nar.index_of(rho_step(f))
    assert nar.index_of(principal_form(136)) == nar.identity_index


# ---------------------------------------------------------------------------
# group table sanity


@pytest.mark.parametrize("cg", [
    class_group_imaginary(-164),
    class_group_imaginary(-56),
    narrow_class_group_real(136),
    class_group_real(136),
])
def test_table_is_an_abelian_group(cg):
    n = cg.class_number
    table = cg.composition_table
    assert cg.structure.order == n
    for i in range(n):
        assert sorted(table[i]) == list(range(n))  # rows permute
        assert table[cg.identity_index][i] == i
        assert table[i][cg.inverse_index(i)] == cg.identity_index
        for j in range(n):
            assert table[i][j] == table[j][i]
            for k in range(n):
                assert table[table[i][j]][k] == table[i][table[j][k]]


def test_group_data_methods():
    cg = class_group_imaginary(-164)
    i = cg.index_of(BQForm(3, 2, 14))
    j = cg.index_of(BQForm(3, -2, 14))
    assert cg.inverse_index(i) == j
    assert cg.power_index(i, -1) == j
    assert cg.power_index(i, 0) == cg.identity_index
    assert cg.power_index(i, 8) == cg.identity_index
    assert cg.structure == AbelianGroup((8,))
    assert cg.is_principal(BQForm(1, 0, 41))
    assert not cg.is_principal(BQForm(3, 2, 14))
    with pytest.raises(BadDiscriminant):
        cg.index_of(BQForm(1, 0, 5))


def test_dispatch_and_module_level_principal():
    assert class_group(-20).kind == "definite"
    assert class_group(136).kind == "wide"
    assert class_group(-20).is_principal(BQForm(1, 0, 5))
    assert not class_group(-20).is_principal(BQForm(2, 2, 3))
    assert class_group(136).is_principal(BQForm(2, 12, 1))  # disc 136, reduces into principal cycle?
    # the form (2,12,1) has disc 144-8=136; verify by index rather than guess
    wide = class_group_real(136)
    assert class_group(136).is_principal(BQForm(2, 12, 1)) == (
        wide.index_of(BQForm(2, 12, 1)) == wide.identity_index
    )


# ---------------------------------------------------------------------------
# the three builders that each worked out their own classes, kept as oracles
# for the one partition builder


def _oracle_structure(table, ident):
    return AbelianGroup(invariant_factors_from_table(
        list(range(len(table))), lambda i, j: table[i][j], ident))


def _oracle_imaginary(D):
    forms = reduced_forms(D)
    index = {f.tuple(): i for i, f in enumerate(forms)}
    table = tuple(
        tuple(index[compose(fi, fj).tuple()] for fj in forms) for fi in forms
    )
    ident = index[reduce_definite(principal_form(D)).tuple()]
    return {"classes": tuple(forms), "table": table, "identity": ident,
            "neg": None, "kind": "definite", "cycles": [{f} for f in forms]}


def _oracle_narrow(D):
    forms = reduced_indefinite_forms(D)
    cycles, seen = [], set()
    for f in forms:
        if f.tuple() in seen:
            continue
        cyc = form_cycle(f)
        seen.update(g.tuple() for g in cyc)
        cycles.append(cyc)
    reps = [min((g for g in cyc if g.a > 0), key=BQForm.tuple) for cyc in cycles]
    cycle_sets = [frozenset(cyc) for cyc in cycles]

    def locate(form):
        g = reduce_indefinite(form)
        for i, cyc in enumerate(cycle_sets):
            if g in cyc:
                return i
        raise AssertionError("reduced form escaped the cycle partition")

    table = tuple(tuple(locate(compose(ri, rj)) for rj in reps) for ri in reps)
    s = isqrt(D)
    b0 = s if (s - D) % 2 == 0 else s - 1
    return {"classes": tuple(reps), "table": table,
            "identity": locate(principal_form(D)),
            "neg": locate(BQForm(-1, b0, (D - b0 * b0) // 4)), "kind": "narrow",
            "cycles": cycle_sets}


def _oracle_wide(D):
    nar = _oracle_narrow(D)
    sub = {nar["identity"], nar["neg"]}
    cosets = []
    for i in range(len(nar["classes"])):
        cs = frozenset(nar["table"][i][h] for h in sub)
        if cs not in cosets:
            cosets.append(cs)
    cosets.sort(key=min)
    where = {i: ci for ci, cs in enumerate(cosets) for i in cs}
    table = tuple(
        tuple(where[nar["table"][min(ci)][min(cj)]] for cj in cosets)
        for ci in cosets
    )
    return {"classes": tuple(nar["classes"][min(cs)] for cs in cosets),
            "table": table, "identity": where[nar["identity"]], "neg": None,
            "kind": "wide",
            "cycles": [frozenset().union(*(nar["cycles"][i] for i in cs))
                       for cs in cosets]}


# order discriminants n^2 * D_K of squarefree |d| < 60, n <= 3
ORACLE_DISCRIMINANTS = sorted({n * n * order_of(d).field.field_discriminant
                               for d in range(-59, 60)
                               if d not in (0, 1) and is_squarefree(d)
                               for n in (1, 2, 3)})


@pytest.mark.parametrize("D", ORACLE_DISCRIMINANTS)
def test_partition_builder_matches_the_three_builders(D):
    pairs = ([(class_group_imaginary(D), _oracle_imaginary(D))] if D < 0 else
             [(narrow_class_group_real(D), _oracle_narrow(D)),
              (class_group_real(D), _oracle_wide(D))])
    for cg, rec in pairs:
        assert cg.classes == rec["classes"]
        assert cg.composition_table == rec["table"]
        assert cg.identity_index == rec["identity"]
        assert cg.neg_principal_index == rec["neg"]
        assert cg.kind == rec["kind"]
        assert cg.structure == _oracle_structure(rec["table"], rec["identity"])
        # every reduced form lies in the class of the oracle's partition
        assert sum(map(len, rec["cycles"])) == len(cg.form_index)
        for i, cyc in enumerate(rec["cycles"]):
            for f in cyc:
                assert cg.index_of(f) == i
    assert class_group(D) == pairs[-1][0]


def test_group_data_stays_hashable_without_its_form_map():
    cg = narrow_class_group_real(160)
    assert hash(cg) == hash(narrow_class_group_real.__wrapped__(160))
    assert cg == narrow_class_group_real.__wrapped__(160)
    assert "form_index" not in repr(cg)
    # (2,12,-2) has discriminant 160 but is not primitive: it has no class
    with pytest.raises(ValueError, match="does not reduce into any class"):
        cg.index_of(BQForm(2, 12, -2))
    with pytest.raises(BadDiscriminant):
        cg.index_of(BQForm(1, 0, -5))


# ---------------------------------------------------------------------------
# Minkowski bounds, splitting, prime forms


MINKOWSKI_FROZEN = {
    -1: Fraction(31831, 25000),          # 1.273240
    -10: Fraction(4026337, 1000000),     # 4.026337
    -14: Fraction(4764027, 1000000),     # 4.764027
    -41: Fraction(8152711, 1000000),     # 8.152711
    34: Fraction(5830952, 1000000),      # 5.830952
}


def test_minkowski_frozen_values():
    for d, expect in MINKOWSKI_FROZEN.items():
        assert minkowski_bound(order_of(d)) == expect, d


def test_minkowski_outward_rounding():
    import math
    for d in (-1, -2, -10, -41, 2, 34, 79):
        fld = order_of(d).field
        D = fld.field_discriminant
        true = (2 / math.pi) * math.sqrt(-D) if D < 0 else math.sqrt(D) / 2
        got = float(minkowski_bound(fld))
        assert true - 1e-9 <= got < true + 2.1e-6, d


def test_splitting_fixtures():
    # Q(i): odd p splits iff p = 1 mod 4
    assert splitting_type(order_of(-1), 2).kind == "ramified"
    assert splitting_type(order_of(-1), 5).kind == "split"
    assert splitting_type(order_of(-1), 3).kind == "inert"
    assert splitting_type(order_of(-1), 3).f_p == 2
    assert splitting_type(order_of(-1), 5).f_p == 1
    for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97):
        assert splitting_type(order_of(-1), p).kind == "split"
    for p in (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83):
        assert splitting_type(order_of(-1), p).kind == "inert"


def test_splitting_brute_oracle():
    # split <=> D is a nonzero square mod p (odd p coprime to D)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    for d in (-10, -14, 34, 79):
        D = order_of(d).field.field_discriminant
        for p in primes:
            kind = splitting_type(order_of(d), p).kind
            if D % p == 0:
                assert kind == "ramified"
            elif any((x * x - D) % p == 0 for x in range(p)):
                assert kind == "split"
            else:
                assert kind == "inert"


def test_prime_form_validity():
    for D, p in ((-164, 3), (-164, 2), (-164, 41), (-40, 7), (136, 2), (136, 3)):
        f = prime_form(D, p)
        assert f.a == p
        assert f.discriminant() == D
        assert f.is_primitive
    with pytest.raises(ValueError):
        prime_form(-4, 3)  # 3 is inert in Q(i)


# ---------------------------------------------------------------------------
# ideal class options


def test_ideal_class_options_imaginary():
    cg = class_group_imaginary(-40)
    ident = cg.identity_index
    other = 1 - ident  # h = 2
    assert ideal_class_options(cg, 1) == {ident}
    assert ideal_class_options(cg, 2) == {other}
    assert ideal_class_options(cg, 5) == {other}
    assert ideal_class_options(cg, 7) == {other}
    assert ideal_class_options(cg, 3) is None       # inert, odd exponent
    assert ideal_class_options(cg, 9) == {ident}    # the prime (3) itself
    assert ideal_class_options(cg, 4) == {ident}    # ramified square
    assert ideal_class_options(cg, 10) == {ident}   # N(sqrt(-10))
    assert ideal_class_options(cg, 14) == {ident}   # N(2 + sqrt(-10))
    assert ideal_class_options(cg, 6) is None


def test_ideal_class_options_narrow_real():
    nar = narrow_class_group_real(136)
    ident, neg = nar.identity_index, nar.neg_principal_index
    # 2 = N(6 + sqrt(34)): the ramified prime above 2 is narrowly principal
    assert ideal_class_options(nar, 2) == {ident}
    # -9 = N(5 + sqrt(34)): P_3^2 lands in the negative principal class
    opts9 = ideal_class_options(nar, 9)
    assert neg in opts9 and ident in opts9
    # neither 3 nor -3 is a norm: the classes above 3 avoid both signs of 1
    opts3 = ideal_class_options(nar, 3)
    assert opts3 is not None
    assert ident not in opts3 and neg not in opts3
    # -25 = N(3 + sqrt(34)) and -18 = N(4 + sqrt(34))
    assert neg in ideal_class_options(nar, 25)
    assert neg in ideal_class_options(nar, 18)


def test_ideal_class_options_validation():
    cg = class_group_imaginary(-40)
    with pytest.raises(ValueError):
        ideal_class_options(cg, 0)
    with pytest.raises(ValueError):
        ideal_class_options(cg, -4)


@pytest.mark.parametrize("D,p", [(-12, 2), (-36, 3)])
def test_conductor_primes_are_refused(D, p):
    # (2,2,2) at D = -12 and (3,0,3) at D = -36 are not primitive: the
    # ideals above a prime of the conductor are not invertible
    cg = class_group_imaginary(D)
    message = f"p = {p} divides the conductor {p} of D = {D}"
    with pytest.raises(ValueError, match=message):
        ideal_class_options(cg, p)
    with pytest.raises(ValueError, match=message):
        ideal_class_table(cg, 2 * p)


def test_other_primes_of_a_non_maximal_order_keep_their_classes():
    cg = class_group_imaginary(-12)
    assert ideal_class_options(cg, 7) == {cg.identity_index}  # 7 = N(2 + sqrt(-3))
    assert ideal_class_table(cg, 1)[1] == {cg.identity_index}


def test_ideal_class_options_closed_under_composition():
    # options(q1) * options(q2) lands inside options(q1*q2)
    cg = class_group_imaginary(-164)
    pairs = [(2, 5), (5, 9), (2, 25), (6, 7), (10, 10)]
    for q1, q2 in pairs:
        o1, o2 = ideal_class_options(cg, q1), ideal_class_options(cg, q2)
        if o1 is None or o2 is None:
            continue
        o12 = ideal_class_options(cg, q1 * q2)
        assert o12 is not None
        prods = {cg.compose_indices(x, y) for x in o1 for y in o2}
        assert prods <= o12, (q1, q2)


# fundamental discriminants: definite groups, and narrow groups of real
# fields whose fundamental unit has norm +1 (12, 40, 136) or -1 (5, 145)
SIEVE_DISCRIMINANTS = [-3, -4, -20, -23, -40, -56, -164, 5, 12, 40, 136, 145]


@pytest.mark.parametrize("D", SIEVE_DISCRIMINANTS)
def test_ideal_class_table_matches_options(D):
    cg = class_group_imaginary(D) if D < 0 else narrow_class_group_real(D)
    table = ideal_class_table(cg, 300)
    assert len(table) == 301 and table[0] is None
    for q in range(1, 301):
        assert table[q] == ideal_class_options(cg, q), q


def test_sieve_discriminants_cover_every_prime_power_kind():
    # (splitting, exponent) of the prime powers <= 300 the sieve builds
    kinds = {(splitting_type(order_of(D if D % 4 == 1 else D // 4), p).kind, e)
             for D in SIEVE_DISCRIMINANTS
             for p in range(2, 18) if all(p % k for k in range(2, p))
             for e in range(1, 9) if p ** e <= 300}
    assert {("inert", 1), ("inert", 2), ("inert", 3), ("ramified", 1),
            ("ramified", 2), ("ramified", 3), ("split", 3)} <= kinds
