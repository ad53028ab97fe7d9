"""Properties of the Cayley-graph kernel on random complete DFAs over
{a, b}: the table, which the kernel fills unproven and which is checked
against the composed actions, the public constructor, associativity and
its identity, the kept Cayley automaton, the syntactic order, Green's
classes and the words of finite classes agree with the brute-force
oracles in util, each class language accepts its class's own word, the
size guard is exact, Light's test finds a corrupted cell of the table or
of the right Cayley graph, and the order check refuses an order that is
not stable."""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from omsemi.dfa import Dfa, enumerate_accepted, is_finite_language
from omsemi.errors import (MalformedTable, NotAPartialOrder, NotAssociative,
                           SizeTooLarge)
from omsemi.semigroup import FiniteSemigroup, green_classes
from omsemi.syntactic import syntactic_semigroup

from util import (cayley_automaton, composition_table, context_order,
                  generates, ideal_green_classes, is_associative, is_stable,
                  random_dfa, right_cayley_rows, table_of_right_cayley)

MAX_CLASSES = 60   # keeps the cubic oracles quick
kernel_settings = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def dfas(draw, min_states=1):
    """A complete DFA with min_states to 6 states.  A DFA of two or
    more states has both an accepting and a rejecting state."""
    n = draw(st.integers(min_states, 6))
    state = st.integers(0, n - 1)
    transitions = draw(st.lists(st.lists(state, min_size=2, max_size=2),
                                min_size=n, max_size=n))
    if n == 1:
        accepting = draw(st.sets(state))
    else:
        accepting = draw(st.sets(state, min_size=1, max_size=n - 1))
    return Dfa("ab", transitions, 0, accepting)


@st.composite
def presentations(draw, min_states=1):
    try:
        sp = syntactic_semigroup(draw(dfas(min_states)),
                                 max_elements=MAX_CLASSES)
    except SizeTooLarge:
        assume(False)
    return sp


@st.composite
def random_presentations(draw):
    """The presentation of a `util.random_dfa`, which has an accepting
    and a rejecting state and up to 6 states, drawn from a seed."""
    try:
        return syntactic_semigroup(
            random_dfa(random.Random(draw(st.integers(0, 2 ** 32)))),
            max_elements=MAX_CLASSES)
    except SizeTooLarge:
        assume(False)


@kernel_settings
@given(st.one_of(presentations(), random_presentations()))
def test_table_matches_composition(sp):
    # the table is filled from the right Cayley graph with nothing proven,
    # so it is checked here against the composed actions, against what
    # the public, proven constructor builds from the same graph, and
    # against associativity and the neutrality of its identity
    S = sp.semigroup
    assert S.table == composition_table(sp)
    letters = [q - 1 for q in sp.cayley[0]]
    assert set(S.generators) == set(sp.gens.assignment.values())
    T =FiniteSemigroup.from_right_cayley(
        [[q - 1 for q in row] for row in sp.cayley[1:]], letters, S.identity)
    assert (T.table, T.generators, T.identity) == (
        S.table, S.generators, S.identity)
    assert is_associative(S.table)
    one = tuple(range(sp.dfa.n_states))
    assert S.identity == next(
        (e for e, t in enumerate(sp.elements) if t == one), None)
    if S.identity is not None:
        assert all(S.table[S.identity][x] == x == S.table[x][S.identity]
                   for x in range(S.n))


@kernel_settings
@given(presentations())
def test_walk_keeps_the_cayley_automaton(sp):
    assert sp.cayley == cayley_automaton(sp)


@kernel_settings
@given(presentations())
def test_size_guard_is_exact(sp):
    n = len(sp.elements)
    again = syntactic_semigroup(sp.dfa, max_elements=n)
    assert again.elements == sp.elements and again.words == sp.words
    with pytest.raises(SizeTooLarge):
        syntactic_semigroup(sp.dfa, max_elements=n - 1)


@kernel_settings
@given(presentations())
def test_finite_class_words_match_class_language(sp):
    for e in range(len(sp.elements)):
        d = sp.class_language(e)
        assert sp.finite_class_words(e) == (
            enumerate_accepted(d, d.n_states)
            if is_finite_language(d) else None)


@kernel_settings
@given(presentations())
@example(syntactic_semigroup("ab"))
def test_every_class_accepts_its_own_word(sp):
    # in ab no t has (ab)t = ab, so the state after ab has the key that
    # its accepting flag alone keeps apart from the dead key
    for e, w in enumerate(sp.words):
        assert sp.class_language(e).accepts(w)
        words = sp.finite_class_words(e)
        assert words is None or w in words


@kernel_settings
@given(presentations())
def test_order_matches_contexts(sp):
    assert sp.syntactic_order() == context_order(sp)
    assert sp.ordered_semigroup().order == context_order(sp)


@kernel_settings
@given(presentations())
def test_green_matches_ideals(sp):
    S = sp.semigroup
    for T in (S, S.with_identity_adjoined(), FiniteSemigroup(S.table)):
        assert green_classes(T) == ideal_green_classes(T)


def corruptions(rows, start):
    """Copies of n rows of elements with one entry changed to another
    element, from entry `start` on."""
    n, k = len(rows), len(rows[0])
    for c in range(start, start + n * k):
        i, j = divmod(c % (n * k), k)
        for v in range(n):
            if v != rows[i][j]:
                bad = [list(row) for row in rows]
                bad[i][j] = v
                yield bad


@kernel_settings
@given(presentations(min_states=2), st.integers(0, MAX_CLASSES ** 2))
def test_light_finds_a_corrupted_cell(sp, start):
    S = sp.semigroup
    assume(S.n >= 2)
    table = next((bad for bad in corruptions(S.table, start)
                  if not is_associative(bad)), None)
    assume(table is not None)
    with pytest.raises(NotAssociative):
        FiniteSemigroup(table)
    expected = (NotAssociative if generates(table, S.generators)
                else MalformedTable)
    with pytest.raises(expected):
        FiniteSemigroup(table, generators=S.generators)
    # and one corrupted entry of the right Cayley graph over the letters:
    # the first, from `start` on, that leaves two letters of one class
    # with one column and reaches every class, but whose filled table is
    # not associative
    letters = [q - 1 for q in sp.cayley[0]]
    twins = [(i, j) for i, g in enumerate(letters)
             for j, h in enumerate(letters) if i < j and g == h]

    def fails_light(rows):
        filled = table_of_right_cayley(rows, letters)
        return (all(row[i] == row[j] for row in rows for i, j in twins)
                and filled is not None and not is_associative(filled))

    graph = next((bad for bad in corruptions(
        right_cayley_rows(S.table, letters), start) if fails_light(bad)),
        None)
    if graph is not None:
        with pytest.raises(NotAssociative):
            FiniteSemigroup.from_right_cayley(graph, letters, S.identity)


@kernel_settings
@given(presentations(), st.data())
def test_check_order_accepts_exactly_the_stable_orders(sp, data):
    S = sp.semigroup
    element = st.integers(0, S.n - 1)
    pairs = set(data.draw(st.lists(st.tuples(element, element), max_size=4)))
    pairs |= {(a, a) for a in range(S.n)}
    while True:
        more = {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs
        if not more:
            break
        pairs |= more
    assume(all(a == b or (b, a) not in pairs for a, b in pairs))
    if is_stable(S.table, pairs):
        assert S._check_order(pairs) == frozenset(pairs)
    else:
        with pytest.raises(NotAPartialOrder, match="not stable"):
            S._check_order(pairs)
