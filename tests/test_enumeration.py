import hashlib
from itertools import permutations, product

import pytest

from omsemi.enumeration import _canonical_tables, enumerate_semigroups
from omsemi.errors import SizeTooLarge
from omsemi.terms import parse_term, satisfies_identity

from util import find_identity, is_associative, leaf_canonical_tables


def brute_canonical_tables(n):
    """All associative tables, quotiented by relabeling, as lex-min forms."""
    classes = set()
    perms = list(permutations(range(n)))
    for flat in product(range(n), repeat=n * n):
        t = [flat[i * n:(i + 1) * n] for i in range(n)]
        if any(t[t[a][b]][c] != t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n)):
            continue
        best = min(
            tuple(p[t[inv[x]][inv[y]]] for x in range(n) for y in range(n))
            for p, inv in ((p, _inverse(p)) for p in perms))
        classes.add(best)
    return classes


def _inverse(p):
    inv = [0] * len(p)
    for a, pa in enumerate(p):
        inv[pa] = a
    return inv


def _flatten(S):
    return tuple(S.table[i][j] for i in range(S.n) for j in range(S.n))


def test_counts_match_brute_force():
    for n in (1, 2, 3):
        got = [_flatten(S) for S in enumerate_semigroups(n)]
        want = brute_canonical_tables(n)
        assert set(got) == want
        assert len(got) == len(want)
    assert len(set(brute_canonical_tables(2))) == 5
    assert len(set(brute_canonical_tables(3))) == 24


def test_count_order_four():
    assert sum(1 for _ in enumerate_semigroups(4)) == 188


def test_pruned_search_matches_leaf_search():
    # pruning relabelled prefixes keeps exactly the tables that the test
    # at complete tables keeps, in the same order
    for n in (1, 2, 3, 4):
        assert _canonical_tables(n) == leaf_canonical_tables(n)


def test_enumerated_tables_are_associative():
    # the enumeration builds its semigroups unproven: plain tables of
    # lists, every element a generator, no identity or order declared
    for n in (1, 2, 3, 4):
        for S in enumerate_semigroups(n):
            assert is_associative(S.table)
            assert type(S.table) is list
            assert all(type(row) is list for row in S.table)
            assert (S.n, S.generators, S.identity, S.order) == (
                n, tuple(range(n)), None, None)


def test_stream_is_sorted_and_duplicate_free():
    tables = [_flatten(S) for S in enumerate_semigroups(3)]
    assert tables == sorted(set(tables))


def test_representatives_are_lex_min():
    perms = list(permutations(range(4)))
    for S in enumerate_semigroups(4):
        t = S.table
        flat = _flatten(S)
        for p in perms:
            inv = _inverse(p)
            cand = tuple(p[t[inv[x]][inv[y]]] for x in range(4)
                         for y in range(4))
            assert cand >= flat


def test_identity_pair_predicate():
    def satisfying(lhs, rhs):
        lhs, rhs = parse_term(lhs), parse_term(rhs)
        return [S for S in enumerate_semigroups(3)
                if satisfies_identity(S, lhs, rhs)]

    assert len(satisfying("x^(w+1)", "x")) == 13
    assert len(satisfying("x y", "y x")) == 12


def test_callable_predicate():
    monoids = [S for S in enumerate_semigroups(3)
               if find_identity(S) is not None]
    assert len(monoids) == 7
    def is_group(S):
        e = find_identity(S)
        if e is None:
            return False
        return all(any(S.table[a][b] == e and S.table[b][a] == e
                       for b in range(S.n)) for a in range(S.n))

    assert sum(map(is_group, enumerate_semigroups(2))) == 1
    assert sum(map(is_group, enumerate_semigroups(4))) == 2


def test_size_guards():
    with pytest.raises(SizeTooLarge):
        list(enumerate_semigroups(0))
    with pytest.raises(SizeTooLarge):
        list(enumerate_semigroups(7))


# sha256 of the order-5 stream of the search that tested canonicity only
# at complete tables
ORDER_FIVE_SHA256 = (
    "cf3296d9d59beddda8c2696613fa944696898cd1455b5bba3ead07ee5ef742da")


def _stream_sha256(n):
    tables = [tuple(map(tuple, S.table)) for S in enumerate_semigroups(n)]
    return len(tables), hashlib.sha256(repr(tables).encode()).hexdigest()


def test_count_order_five():
    assert _stream_sha256(5) == (1915, ORDER_FIVE_SHA256)


# sha256 of the order-6 stream: 28,634 classes, OEIS A027851
ORDER_SIX_SHA256 = (
    "f749b3708852616974ae86ba1ccdfcd5c868dc86f714d57016b1ee3724652ef9")


def test_count_order_six():
    assert _stream_sha256(6) == (28634, ORDER_SIX_SHA256)


def test_calls_yield_the_same_semigroups():
    for n in (4, 5):
        first = list(enumerate_semigroups(n))
        # an identity filter fills the power caches of the shared objects
        lhs, rhs = parse_term("x^(w+1)"), parse_term("x")
        for S in enumerate_semigroups(n):
            satisfies_identity(S, lhs, rhs)
        second = list(enumerate_semigroups(n))
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))
    assert _stream_sha256(5) == (1915, ORDER_FIVE_SHA256)
