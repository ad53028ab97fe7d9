import hashlib
import random
from collections import Counter

from omsemi.groups_catalog import (
    all_groups_up_to_24,
    alternating_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    pauli_group,
    semidirect_cyclic,
    special_linear_2_3,
    symmetric_group,
)
from omsemi.semigroup import FiniteSemigroup
from omsemi.terms import parse_term, satisfies_identity

from util import (
    element_orders,
    find_identity,
    groups_are_isomorphic,
    groups_of_order,
    is_associative,
    is_group,
    rectangular_band,
)

EXPECTED_PER_ORDER = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
                      9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1,
                      16: 14, 17: 1, 18: 5, 19: 1, 20: 5, 21: 2, 22: 2,
                      23: 1, 24: 15}


def test_catalog_tables_are_pinned():
    # sha256 of every name and table, in catalogue order, recorded before
    # the closures moved to omsemi.graphs: the element order of a closure
    # is the order of its table, which check --variety g witnesses print
    text = "".join("%s %r\n" % (name, S.table)
                   for name, S in all_groups_up_to_24())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "02dc680150a161a48e310e09f623f3fdb7ca076957307dbd58d568c8165cfa21")


def test_counts_per_order():
    cat = all_groups_up_to_24()
    assert len(cat) == 74
    assert Counter(S.n for _, S in cat) == EXPECTED_PER_ORDER
    names = [name for name, _ in cat]
    assert len(set(names)) == 74


def test_every_entry_is_a_group():
    for name, S in all_groups_up_to_24():
        assert is_group(S), name
        assert S.identity is not None
        e = S.identity
        assert all(S.table[e][a] == a and S.table[a][e] == a
                   for a in range(S.n))


def test_pairwise_non_isomorphic():
    for n in EXPECTED_PER_ORDER:
        gs = groups_of_order(n)
        for i in range(len(gs)):
            for j in range(i + 1, len(gs)):
                assert not groups_are_isomorphic(gs[i][1], gs[j][1]), \
                    (gs[i][0], gs[j][0])


def test_iso_recognizes_equal_groups():
    assert groups_are_isomorphic(dihedral_group(3), symmetric_group(3))
    assert groups_are_isomorphic(semidirect_cyclic(3, 2, 2), dihedral_group(3))
    C2xC3 = FiniteSemigroup.direct_product(cyclic_group(2), cyclic_group(3))
    assert groups_are_isomorphic(cyclic_group(6), C2xC3)


def test_iso_recognizes_relabeled_copy():
    rng = random.Random(71)
    S = symmetric_group(4)
    perm = list(range(S.n))
    rng.shuffle(perm)
    inv = [0] * S.n
    for a, pa in enumerate(perm):
        inv[pa] = a
    table = [[perm[S.table[inv[x]][inv[y]]] for y in range(S.n)]
             for x in range(S.n)]
    T = FiniteSemigroup(table)
    assert groups_are_isomorphic(S, T)


def test_iso_separates_order_16_ties():
    # these pairs share their element-order multisets, so the test has to
    # run the full generator-mapping search to tell them apart
    by_name = dict(all_groups_up_to_24())
    for a, b in [("C8xC2", "M16"), ("C4xC4", "Q8xC2"), ("Q8xC2", "C4:C4"),
                 ("C4xC2xC2", "V:C4"), ("V:C4", "Pauli16")]:
        assert element_orders(by_name[a]) == element_orders(by_name[b])
        assert not groups_are_isomorphic(by_name[a], by_name[b])


def test_iso_basic_negatives():
    assert not groups_are_isomorphic(dicyclic_group(2), dihedral_group(4))
    assert not groups_are_isomorphic(
        cyclic_group(4),
        FiniteSemigroup.direct_product(cyclic_group(2), cyclic_group(2)))


def test_closure_construction_sizes():
    assert symmetric_group(4).n == 24
    assert alternating_group().n == 12
    assert special_linear_2_3().n == 24
    assert pauli_group().n == 16


def test_element_order_examples():
    assert element_orders(dicyclic_group(2)) == (1, 2, 4, 4, 4, 4, 4, 4)
    s4 = set(element_orders(symmetric_group(4)))
    assert s4 == {1, 2, 3, 4}
    assert set(element_orders(special_linear_2_3())) == {1, 2, 3, 4, 6}


def test_catalog_entries_are_groups_with_their_identity():
    # the catalogue builds its tables unproven; is_group takes
    # associativity for granted, so it is checked on its own
    for name, S in all_groups_up_to_24():
        assert is_associative(S.table), name
        assert S.identity is not None and S.identity == find_identity(S), \
            name
        assert is_group(S), name


def test_abelian_groups_up_to_12():
    abelian = [S for _, S in all_groups_up_to_24()
               if S.n <= 12 and all(S.table[a][b] == S.table[b][a]
                                    for a in range(S.n) for b in range(S.n))]
    assert len(abelian) == 17


def test_groups_are_completely_regular():
    lhs, rhs = parse_term("x^(w+1)"), parse_term("x")
    for name, S in all_groups_up_to_24():
        assert satisfies_identity(S, lhs, rhs), name


def test_is_group_rejects_non_groups():
    assert not is_group(rectangular_band(2, 2))
    assert not is_group(FiniteSemigroup.cyclic(2, 2))
