import math
import random

import pytest

from omsemi.errors import NotAssociative, NotAPartialOrder, ParseError
from omsemi.semigroup import (
    FiniteSemigroup,
    green_classes,
    semigroup_from_text,
    semigroup_to_text,
    stabilized_prime_power_residue,
)

from util import (
    full_transformation_monoid,
    naive_power,
    random_small_semigroup,
    rectangular_band,
    transformation_semigroup,
)


def test_associativity_checked():
    # left zero semigroup is fine
    FiniteSemigroup([[0, 0], [1, 1]])
    # a table that is not associative is rejected
    with pytest.raises(NotAssociative):
        FiniteSemigroup([[1, 0], [0, 0]])


def test_identity_validation():
    S = FiniteSemigroup([[0, 1], [1, 0]], identity=0)
    assert S.identity == 0
    with pytest.raises(ValueError):
        FiniteSemigroup([[0, 0], [0, 0]], identity=0)


def test_monogenic_c22():
    S = FiniteSemigroup.cyclic(2, 2)
    s = 0
    data = S.monogenic_data(s)
    assert data.index == 2 and data.period == 2
    # cycle is {s^2, s^3}; the idempotent is s^2
    assert S.idempotent_power(s) == 1
    assert set(data.cycle) == {1, 2}


def test_monogenic_cyclic_group():
    S = FiniteSemigroup.cyclic(1, 4)
    data = S.monogenic_data(0)
    assert data.index == 1 and data.period == 4
    assert S.idempotent_power(0) == S.identity == 3


def test_omega_plus_k_cyclic_group_translates():
    # cyclic group of order 3: g^omega = e, g^(omega+1) = g, g^(omega-1) = g^2
    S = FiniteSemigroup.cyclic(1, 3)
    g = 0
    e = S.identity
    assert S.omega_plus_k(g, 0) == e
    assert S.omega_plus_k(g, 1) == g
    assert S.omega_plus_k(g, -1) == S.table[g][g]
    assert S.omega_plus_k(g, -4) == S.omega_plus_k(g, 2)


def test_omega_plus_k_against_naive_powering():
    # s^(omega+k) equals s^(720+k) whenever index <= 720 and period | 720,
    # which holds for every semigroup of order <= 6
    rng = random.Random(7)
    assert 720 == math.factorial(6)
    for _ in range(100):
        S = random_small_semigroup(rng)
        assert S.n <= 6
        for s in range(S.n):
            for k in range(-3, 4):
                assert S.omega_plus_k(s, k) == naive_power(S, s, 720 + k)
            e = S.idempotent_power(s)
            assert S.table[e][e] == e


def test_idempotent_power_is_unique_idempotent_in_cycle():
    rng = random.Random(11)
    for _ in range(60):
        S = random_small_semigroup(rng)
        for s in range(S.n):
            data = S.monogenic_data(s)
            idems = [x for x in data.cycle if S.table[x][x] == x]
            assert idems == [S.idempotent_power(s)]


def crt_prime_power_residue(p, period):
    """Independent oracle: r = 0 mod p^a, r = 1 mod m, period = p^a * m."""
    a = 0
    m = period
    while m % p == 0:
        m //= p
        a += 1
    pa = p ** a
    for r in range(period):
        if r % pa == 0 and r % m == 1 % m:
            return r
    raise AssertionError("no CRT solution")


def test_stabilized_prime_power_residue_oracle():
    for p in (2, 3, 5, 7, 11, 13):
        for period in range(1, 40):
            assert stabilized_prime_power_residue(p, period) == \
                crt_prime_power_residue(p, period)


def test_p_omega_power_examples():
    # aperiodic C(3,1): s^(2^omega) = s^3, the absorbing idempotent
    S = FiniteSemigroup.cyclic(3, 1)
    assert S.p_omega_power(0, 2) == 2
    # cyclic group of order 3: 2^(n!) mod 3 stabilises at 1, so g^(2^omega) = g
    S = FiniteSemigroup.cyclic(1, 3)
    assert S.p_omega_power(0, 2) == 0
    # cyclic group of order 2: 2^(n!) mod 2 = 0, so g^(2^omega) = identity
    S = FiniteSemigroup.cyclic(1, 2)
    assert S.p_omega_power(0, 2) == S.identity


def test_p_omega_power_against_direct_limit():
    # p^(n!) with n = 6 is already stable for periods <= 6, so compare with
    # naive powering at exponent p^720 reduced mod the period by hand
    rng = random.Random(23)
    for _ in range(40):
        S = random_small_semigroup(rng)
        for s in range(S.n):
            data = S.monogenic_data(s)
            for p in (2, 3, 5):
                big = pow(p, 720, data.period) if data.period > 1 else 0
                want = S.omega_plus_k(s, big)
                assert S.p_omega_power(s, p) == want


def test_green_full_transformation_monoid_2():
    S, elems = full_transformation_monoid(2)
    ident = elems.index((0, 1))
    swap = elems.index((1, 0))
    c0 = elems.index((0, 0))
    c1 = elems.index((1, 1))
    g = green_classes(S)
    assert set(g.h_class(ident)) == {ident, swap}
    assert set(g.r_class(c0)) == {c0, c1}
    assert set(g.l_class(c0)) == {c0}
    assert set(g.j_class(c0)) == {c0, c1}


def test_green_rectangular_band():
    S = rectangular_band(2, 2)
    g = green_classes(S)
    # one J-class, R-classes are rows, L-classes are columns, H trivial
    assert len(g.j) == 1
    assert len(g.r) == 2 and len(g.l) == 2
    assert all(len(c) == 1 for c in g.h)


def test_green_on_group_is_single_class():
    S = FiniteSemigroup.cyclic(1, 6)
    g = green_classes(S)
    assert len(g.j) == len(g.r) == len(g.l) == len(g.h) == 1


def test_order_validation():
    # two-element semilattice {1, e} with e <= 1
    S = FiniteSemigroup([[0, 1], [1, 1]], order=[(1, 0)], identity=0)
    assert S.leq(1, 0) and not S.leq(0, 1)
    with pytest.raises(NotAPartialOrder):
        FiniteSemigroup([[0, 1], [1, 1]], order=[(1, 0), (0, 1)])
    # an unstable order: left zero semigroup with 0 <= 1 fails 0*0 <= 1*1?
    # 0*0=0 <= 1*1=1 holds, but 0*1=0 <= 1*0? product order needs 0 <= 1 both
    # coordinates; here mul(0,1)=0, mul(1,0)=1 wait that IS 0<=1.  Use a
    # genuine failure: cyclic group of order 2 with 0 <= 1.
    with pytest.raises(NotAPartialOrder):
        FiniteSemigroup([[1, 0], [0, 1]], order=[(0, 1)])


def test_with_identity_adjoined():
    S = rectangular_band(2, 2)
    M = S.with_identity_adjoined()
    assert M.n == S.n + 1 and M.identity == S.n
    for a in range(S.n):
        for b in range(S.n):
            assert M.table[a][b] == S.table[a][b]
    # a semigroup that already has a neutral element is not extended
    G = FiniteSemigroup.cyclic(1, 3)
    assert G.with_identity_adjoined() is G
    # a neutral element that is not declared is not the identity: a fresh
    # one is adjoined
    H = FiniteSemigroup([[0, 1], [1, 0]])
    M2 = H.with_identity_adjoined()
    assert M2.n == 3 and M2.identity == 2


def test_direct_product():
    A = FiniteSemigroup.cyclic(1, 2)
    B = FiniteSemigroup.cyclic(2, 1)
    P = FiniteSemigroup.direct_product(A, B)
    assert P.n == 4
    data = P.monogenic_data(0 * B.n + 0)
    # (g, s) has index 2 (from s) and period 2 (from g)
    assert data.index == 2 and data.period == 2


def test_power_matches_naive():
    rng = random.Random(3)
    for _ in range(30):
        S = random_small_semigroup(rng)
        for s in range(S.n):
            for k in range(1, 12):
                assert S.power(s, k) == naive_power(S, s, k)


def test_text_roundtrip_plain():
    S = rectangular_band(2, 2)
    text = semigroup_to_text(S)
    T = semigroup_from_text(text)
    assert T.table == S.table and T.order is None and T.identity is None


def test_text_roundtrip_ordered_monoid():
    S = FiniteSemigroup([[0, 1], [1, 1]], order=[(1, 0)], identity=0)
    text = semigroup_to_text(S)
    assert text.splitlines()[0] == "2 ordered monoid=0"
    T = semigroup_from_text(text)
    assert T.table == S.table and T.identity == 0
    assert T.order == S.order


@pytest.mark.parametrize("text, where", [
    ("", "no header"),
    ("2\n0 1", "line 2"),
    ("2\n0 1\n1 x", "line 3"),
    ("2 monoid=\n0 1\n1 1", "line 1"),
    ("2 monoid=5\n0 1\n1 1", "line 1"),
    ("2 ordered\n0 1\n1 1\norder:\n0<1", "line 5"),
])
def test_text_malformed_raises_parse_error(text, where):
    with pytest.raises(ParseError, match=where):
        semigroup_from_text(text)


def test_generator_map():
    from omsemi.errors import UnboundLetter
    from omsemi.semigroup import GeneratorMap
    S = FiniteSemigroup.cyclic(1, 3)
    g = GeneratorMap(S, {"x": 0})
    assert g("x") == 0
    assert g.image_of_word("xxx") == S.identity
    with pytest.raises(UnboundLetter):
        g("y")
    with pytest.raises(ValueError):
        g.image_of_word("")
