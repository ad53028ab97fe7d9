import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from omsemi.errors import (MalformedTable, NotAssociative, NotAPartialOrder,
                           OmsemiError)
from omsemi.semigroup import (
    FiniteSemigroup,
    GeneratorMap,
    green_classes,
    stabilized_prime_power_residue,
)

from util import (
    crt_merge,
    find_identity,
    full_transformation_monoid,
    generates,
    is_associative,
    is_stable,
    naive_power,
    random_small_semigroup,
    rectangular_band,
    right_cayley_rows,
    squaring_power,
    table_of_right_cayley,
)
from test_kernel import presentations


def test_associativity_checked():
    # left zero semigroup is fine
    FiniteSemigroup([[0, 0], [1, 1]])
    # a table that is not associative is rejected
    with pytest.raises(NotAssociative):
        FiniteSemigroup([[1, 0], [0, 0]])


def test_repr_of_a_half_built_semigroup():
    # Light's test fails in __init__ once the fields are set: the self left
    # in the traceback prints as the semigroup it was to be
    with pytest.raises(NotAssociative) as info:
        FiniteSemigroup([[0, 1], [0, 0]])
    selves, tb = [], info.tb
    while tb is not None:
        if "self" in tb.tb_frame.f_locals:
            selves.append(tb.tb_frame.f_locals["self"])
        tb = tb.tb_next
    assert selves
    for S in selves:
        assert repr(S) == "<semigroup of order 2>"
    # nothing set at all
    assert repr(FiniteSemigroup.__new__(FiniteSemigroup)) == \
        "<semigroup of order ?>"


def test_identity_validation():
    S = FiniteSemigroup([[0, 1], [1, 0]], identity=0)
    assert S.identity == 0
    with pytest.raises(ValueError):
        FiniteSemigroup([[0, 0], [0, 0]], identity=0)


@pytest.mark.parametrize("make", [
    lambda: FiniteSemigroup([[0, 1], [1]]),
    lambda: FiniteSemigroup([[0, 2], [1, 1]]),
    lambda: FiniteSemigroup([[0, -1], [1, 1]]),
    lambda: FiniteSemigroup([[0]], identity=5),
    lambda: FiniteSemigroup([[0, 0], [0, 0]], identity=0),
    lambda: FiniteSemigroup([[0]], generators=[1]),
    lambda: FiniteSemigroup([[1, 0], [0, 1]], generators=[1]),
    lambda: FiniteSemigroup([]),
    lambda: FiniteSemigroup([[0.0]]),
    lambda: FiniteSemigroup([["0"]]),
    lambda: FiniteSemigroup([[False, True], [True, True]]),
    lambda: FiniteSemigroup([[0]], identity=False),
    lambda: FiniteSemigroup([[0]], generators=[False]),
    lambda: FiniteSemigroup([[0, 1], [1, 1]], generators=[True, 0]),
    lambda: FiniteSemigroup([[0, 1], [1, 1]], generators=[0, "0"]),
    lambda: FiniteSemigroup(5),
    lambda: FiniteSemigroup([5]),
    lambda: FiniteSemigroup([[0]], generators=5),
    lambda: GeneratorMap(FiniteSemigroup([[0]]), 5),
    lambda: GeneratorMap(FiniteSemigroup([[0]]), [("x", 0)]),
], ids=["ragged", "entry-too-large", "entry-negative", "identity-range",
        "not-an-identity", "generator-range",
        "not-generating", "empty", "entry-float",
        "entry-string", "entry-bool", "identity-bool", "generator-bool",
        "generator-bool-beside-int", "generator-string-beside-int",
        "table-not-iterable", "row-not-iterable", "generators-not-iterable",
        "assignment-not-a-dict", "assignment-pairs"])
def test_malformed_table_is_typed(make):
    with pytest.raises(MalformedTable) as info:
        make()
    assert isinstance(info.value, OmsemiError)


# the group of order 2 over its generator 1: rows[x] = [x 1]
Z2_ROWS = [[1], [0]]


@pytest.mark.parametrize("rows,generators,identity", [
    ([[1], [0, 0]], [1], None),
    ([[1], [-1]], [1], None),
    ([[1], [2]], [1], None),
    ([[True], [0]], [1], None),
    ([[1.0], [0]], [1], None),
    ([["1"], [0]], [1], None),
    (Z2_ROWS, [2], None),
    (Z2_ROWS, [-1], None),
    (Z2_ROWS, [True], None),
    (Z2_ROWS, [1, 0], None),
    ([[1, 0], [0, 1]], [1, 1], None),
    ([[0], [1]], [0], None),
    ([[0, 0], [1, 1]], [], None),
    (Z2_ROWS, [1], 1),
    (Z2_ROWS, [1], 2),
    (Z2_ROWS, [1], False),
    ([], [], None),
    (5, [1], None),
    ([5], [1], None),
    (Z2_ROWS, 5, None),
], ids=["ragged", "entry-negative", "entry-too-large", "entry-bool",
        "entry-float", "entry-string", "generator-too-large",
        "generator-negative", "generator-bool", "too-few-entries",
        "repeated-generator-columns-differ", "not-generating",
        "no-generators", "not-an-identity", "identity-range",
        "identity-bool", "empty", "rows-not-iterable", "row-not-iterable",
        "generators-not-iterable"])
def test_malformed_cayley_graph_is_typed(rows, generators, identity):
    with pytest.raises(MalformedTable) as info:
        FiniteSemigroup.from_right_cayley(rows, generators, identity)
    assert isinstance(info.value, OmsemiError)


def test_cayley_graph_failing_light_is_not_associative():
    # every element a generator, so the graph is the table: (1 0) 1 = 0
    # but 1 (0 1) = 1
    with pytest.raises(NotAssociative):
        FiniteSemigroup.from_right_cayley([[0, 0], [1, 0]], [0, 1])
    # over its generator 1, the group of order 2
    S = FiniteSemigroup.from_right_cayley(Z2_ROWS, [1], identity=0)
    assert S.table == [[0, 1], [1, 0]] and S.generators == (1,)


def test_light_test_over_generators():
    # C(2, 2) = {s, s^2, s^3} is generated by s alone
    S = FiniteSemigroup.cyclic(2, 2)
    assert S.generators == (0,)
    FiniteSemigroup(S.table, generators=[0])
    # a table that fails associativity only at its generator
    with pytest.raises(NotAssociative):
        FiniteSemigroup([[1, 0], [0, 0]], generators=[0])


def test_constructors_declare_generators():
    S = FiniteSemigroup.cyclic(3, 2)
    M = S.with_identity_adjoined()
    assert M.generators == (0, S.n)
    assert FiniteSemigroup.direct_product(S, S).generators == \
        tuple(range(S.n ** 2))
    assert rectangular_band(2, 2).generators == (0, 1, 2, 3)


def test_monogenic_c22():
    S = FiniteSemigroup.cyclic(2, 2)
    s = 0
    data = S.monogenic_data(s)
    assert data.index == 2 and data.period == 2
    # cycle is {s^2, s^3}; the idempotent is s^2
    assert S.omega_plus_k(s, 0) == 1
    assert set(data.powers[data.index - 1:]) == {1, 2}


def test_monogenic_cyclic_group():
    S = FiniteSemigroup.cyclic(1, 4)
    data = S.monogenic_data(0)
    assert data.index == 1 and data.period == 4
    assert S.omega_plus_k(0, 0) == S.identity == 3


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
            e = S.omega_plus_k(s, 0)
            assert S.table[e][e] == e


def test_idempotent_power_is_unique_idempotent_in_cycle():
    rng = random.Random(11)
    for _ in range(60):
        S = random_small_semigroup(rng)
        for s in range(S.n):
            data = S.monogenic_data(s)
            cycle = data.powers[data.index - 1:]
            idems = [x for x in cycle if S.table[x][x] == x]
            assert idems == [S.omega_plus_k(s, 0)]


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
    primes = [p for p in range(2, 80) if all(p % d for d in range(2, p))]
    for p in primes + [2 ** 31 - 1, 1000003]:
        for period in range(1, 300):
            assert stabilized_prime_power_residue(p, period) == \
                crt_prime_power_residue(p, period)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]),
       st.lists(st.integers(1, 60), min_size=1, max_size=4))
def test_residue_modulo_the_lcm_is_the_merged_residue(p, periods):
    # unroll takes a prime-omega exponent's residue modulo the lcm of the
    # periods in one step; merging the periods' own residues one by one
    # by the Chinese remainder theorem gives the same residue
    residue, modulus = 0, 1
    for period in periods:
        residue, modulus = crt_merge(
            residue, modulus, stabilized_prime_power_residue(p, period),
            period)
    assert modulus == math.lcm(*periods)
    assert stabilized_prime_power_residue(p, modulus) == residue


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
    assert (ident, swap) in g.h
    assert (c0, c1) in g.r
    assert (c0,) in g.l
    assert (c0, c1) in g.j


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
    assert (1, 0) in S.order and (0, 1) not in S.order
    with pytest.raises(NotAPartialOrder):
        FiniteSemigroup([[0, 1], [1, 1]], order=[(1, 0), (0, 1)])
    # an unstable order: left zero semigroup with 0 <= 1 fails 0*0 <= 1*1?
    # 0*0=0 <= 1*1=1 holds, but 0*1=0 <= 1*0? product order needs 0 <= 1 both
    # coordinates; here mul(0,1)=0, mul(1,0)=1 wait that IS 0<=1.  Use a
    # genuine failure: cyclic group of order 2 with 0 <= 1.
    with pytest.raises(NotAPartialOrder):
        FiniteSemigroup([[1, 0], [0, 1]], order=[(0, 1)])


@pytest.mark.parametrize("order", [
    [(0.5, 0)], [5], [("0", 0)], [(0, 1, 2)], [(0,)], [(False, 0)], [None],
    ["00"], 5,
])
def test_malformed_order_pairs_are_typed(order):
    with pytest.raises(NotAPartialOrder):
        FiniteSemigroup([[0]], order=order)


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


# cyclic, with_identity_adjoined and direct_product build their tables
# unproven; these tests prove what the constructors no longer do


@pytest.mark.parametrize("index", range(1, 8))
def test_cyclic_tables_are_built_right(index):
    for period in range(1, 8):
        C = FiniteSemigroup.cyclic(index, period)
        for S in (C, C.with_identity_adjoined()):
            assert is_associative(S.table)
            assert generates(S.table, S.generators)
            # element k - 1 is s^k, and s^(index+period) = s^index first
            assert [naive_power(S, 0, k) for k in range(1, index + period)] \
                == list(range(index + period - 1))
            assert naive_power(S, 0, index + period) == \
                naive_power(S, 0, index)
            assert S.identity == find_identity(S)
        assert (C.identity is None) == (index > 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(presentations())
def test_adjoined_identity_keeps_the_order(sp):
    M = sp.ordered_semigroup().with_identity_adjoined()
    assert is_associative(M.table) and generates(M.table, M.generators)
    assert M.identity == find_identity(M)
    pairs = M.order
    assert all((a, a) in pairs for a in range(M.n))
    assert all(a == b or (b, a) not in pairs for a, b in pairs)
    assert all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c)
    assert is_stable(M.table, pairs)


def test_direct_products_are_built_right():
    small = [FiniteSemigroup.cyclic(i, p) for i in (1, 2, 3)
             for p in (1, 2, 3)] + [rectangular_band(1, 2),
                                    rectangular_band(2, 2)]
    for A in small:
        for B in small:
            P = FiniteSemigroup.direct_product(A, B)
            assert is_associative(P.table)
            # (a, b) is the element a |B| + b, multiplied coordinatewise
            assert P.table == [[A.table[a][c] * B.n + B.table[b][d]
                                for c in range(A.n) for d in range(B.n)]
                               for a in range(A.n) for b in range(B.n)]
            if A.identity is None or B.identity is None:
                assert P.identity is None
            else:
                assert P.identity == A.identity * B.n + B.identity
                assert P.identity == find_identity(P)


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


def test_generator_map():
    from omsemi.errors import UnboundLetter
    S = FiniteSemigroup.cyclic(1, 3)
    g = GeneratorMap(S, {"x": 0})
    assert g("x") == 0
    assert g.image_of_word("xxx") == S.identity
    with pytest.raises(UnboundLetter):
        g("y")
    with pytest.raises(ValueError):
        g.image_of_word("")


@pytest.mark.parametrize("image", [3, -1, 0.5, 1.0, True, "0", None])
def test_generator_map_rejects_non_element_images(image):
    with pytest.raises(MalformedTable):
        GeneratorMap(FiniteSemigroup.cyclic(1, 3), {"x": image})


# a semigroup of order <= 6, a monogenic one, or a syntactic semigroup of
# a random DFA over {a, b}
semigroups = st.one_of(
    st.integers(0, 2 ** 32).map(
        lambda seed: random_small_semigroup(random.Random(seed))),
    st.builds(FiniteSemigroup.cyclic, st.integers(1, 7), st.integers(1, 7)),
    presentations().map(lambda sp: sp.semigroup))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(semigroups, st.lists(st.integers(1, 10 ** 30), min_size=1,
                            max_size=4))
def test_powers_match_repeated_squaring(S, big):
    n = S.n
    for s in range(n):
        d = S.monogenic_data(s)
        # index and period from the oracle: the first repeat is
        # s^(index+period) = s^index, and the powers before it differ
        seq = [squaring_power(S, s, k) for k in range(1, d.index + d.period)]
        assert len(set(seq)) == len(seq)
        assert squaring_power(S, s, d.index + d.period) == \
            squaring_power(S, s, d.index)
        for k in list(range(1, 3 * n + 1)) + big:
            assert S.power(s, k) == squaring_power(S, s, k)
        for k in range(-n, n + 1):
            # the least exponent N >= index with N = k mod period
            N = d.index
            while (N - k) % d.period:
                N += 1
            assert S.omega_plus_k(s, k) == squaring_power(S, s, N)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(semigroups)
def test_right_cayley_graph_gives_back_the_table(S):
    # each generator listed twice, once in reverse order
    gens = list(S.generators) + list(reversed(S.generators))
    T = FiniteSemigroup.from_right_cayley(
        right_cayley_rows(S.table, gens), gens, S.identity)
    assert (T.table, T.generators, T.identity, T.order) == (
        S.table, S.generators, S.identity, None)


@st.composite
def right_cayley_graphs(draw):
    """n <= 5 rows over 1 to 3 generators, a generator possibly repeated:
    mostly not the right Cayley graph of any semigroup."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=len(gens),
                                  max_size=len(gens)),
                         min_size=n, max_size=n))
    return rows, gens


@settings(max_examples=300, deadline=None, derandomize=True)
@given(right_cayley_graphs())
def test_right_cayley_matches_the_entrywise_fill(graph):
    rows, gens = graph
    columns = {}
    for i, g in enumerate(gens):
        columns.setdefault(g, set()).add(tuple(row[i] for row in rows))
    table = table_of_right_cayley(rows, gens)
    if any(len(c) > 1 for c in columns.values()) or table is None:
        expected = MalformedTable
    elif not is_associative(table):
        expected = NotAssociative
    else:
        S = FiniteSemigroup.from_right_cayley(rows, gens)
        assert S.table == table
        assert right_cayley_rows(S.table, gens) == rows
        return
    with pytest.raises(expected):
        FiniteSemigroup.from_right_cayley(rows, gens)
