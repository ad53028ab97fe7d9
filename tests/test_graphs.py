"""The breadth-first walks of omsemi.graphs against a naive fixpoint, and
the product-automaton walks of omsemi.dfa against every short word."""

import itertools

from hypothesis import given, settings, strategies as st

from omsemi.dfa import Dfa, has_common_word, languages_equal
from omsemi.graphs import breadth_first, reachable

graph_settings = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def graphs(draw):
    """Successor lists over the nodes 0..n-1, repeats and loops allowed,
    and a list of start nodes, repeats allowed."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    succ = draw(st.lists(st.lists(node, max_size=4), min_size=n, max_size=n))
    starts = draw(st.lists(node, min_size=1, max_size=4))
    return succ, starts


def naive_closure(succ, starts):
    seen = set(starts)
    while True:
        more = seen | {y for x in seen for y in succ[x]}
        if more == seen:
            return seen
        seen = more


def assert_first_in_first_out(order, succ, starts):
    """The starts come first, each once; every later node is ordered by
    the position of the first node listing it, then by its first place
    in that node's successor list."""
    heads = list(dict.fromkeys(starts))
    assert order[:len(heads)] == heads
    pos = {x: i for i, x in enumerate(order)}
    keys = []
    for y in order[len(heads):]:
        p = min(pos[x] for x in order if y in succ[x])
        assert p < pos[y]
        keys.append((p, succ[order[p]].index(y)))
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


@graph_settings
@given(graphs())
def test_reachable_is_the_closure_in_fifo_order(graph):
    succ, starts = graph
    order = reachable(starts, succ.__getitem__)
    assert len(order) == len(set(order))
    assert set(order) == naive_closure(succ, starts)
    assert_first_in_first_out(order, succ, starts)


@graph_settings
@given(graphs())
def test_breadth_first_numbers_the_closure(graph):
    succ, starts = graph
    order, rows = breadth_first(starts[0], succ.__getitem__)
    assert order == reachable(starts[:1], succ.__getitem__)
    assert_first_in_first_out(order, succ, starts[:1])
    assert rows == [[order.index(y) for y in succ[x]] for x in order]


def test_walks_take_any_hashable_nodes():
    step = {"a": ["b", "c"], "b": ["c", "a"], "c": ["b"], "d": ["a"]}
    assert reachable(["c", "c"], step.__getitem__) == ["c", "b", "a"]
    assert breadth_first("a", step.__getitem__) == (
        ["a", "b", "c"], [[1, 2], [2, 0], [1]])


@st.composite
def dfa_pairs(draw):
    """Two complete DFAs over {a, b} of 1-3 states each, any initial state
    and any accepting set."""
    def dfa():
        n = draw(st.integers(1, 3))
        state = st.integers(0, n - 1)
        trans = draw(st.lists(st.lists(state, min_size=2, max_size=2),
                              min_size=n, max_size=n))
        return Dfa("ab", trans, draw(state), draw(st.sets(state)))
    return dfa(), dfa()


@graph_settings
@given(dfa_pairs())
def test_product_walks_match_every_short_word(pair):
    # a shortest word that separates the two automata, or that both
    # accept, labels a simple path in their n1*n2-state product
    d1, d2 = pair
    words = ["".join(w) for k in range(d1.n_states * d2.n_states + 1)
             for w in itertools.product("ab", repeat=k)]
    verdicts = [(d1.accepts(w), d2.accepts(w)) for w in words]
    assert languages_equal(d1, d2) == all(x == y for x, y in verdicts)
    assert has_common_word(d1, d2) == any(x and y for x, y in verdicts)
