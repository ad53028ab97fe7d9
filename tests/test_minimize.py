"""Properties of Hopcroft minimisation and of the trimmed class automata:
`Dfa.minimize` gives the automaton of Moore's refinement, and every class
language equals the minimised full Cayley automaton (oracles in util)."""

from hypothesis import given, settings, strategies as st

from omsemi.dfa import Dfa, dfa_to_text

from test_kernel import presentations
from util import full_class_language, moore_minimize

minimize_settings = settings(max_examples=200, deadline=None,
                             derandomize=True)


@st.composite
def any_dfas(draw):
    """A complete DFA of 1-8 states over {a, b} or {a, b, c}, with any
    initial state and any accepting set, so some have unreachable states,
    no accepting state or only accepting states."""
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    n = draw(st.integers(1, 8))
    state = st.integers(0, n - 1)
    row = st.lists(state, min_size=len(alphabet), max_size=len(alphabet))
    transitions = draw(st.lists(row, min_size=n, max_size=n))
    return Dfa(alphabet, transitions, draw(state), draw(st.sets(state)))


def same_dfa(d1, d2):
    return (d1.alphabet, d1.transitions, d1.initial, d1.accepting) == (
        d2.alphabet, d2.transitions, d2.initial, d2.accepting)


@minimize_settings
@given(any_dfas())
def test_hopcroft_matches_moore(d):
    m = d.minimize()
    assert same_dfa(m, moore_minimize(d))
    assert same_dfa(m.minimize(), m)
    assert same_dfa(Dfa(d.alphabet, m.transitions, 0, m.accepting)
                    .minimize(), m)


def test_hopcroft_edge_cases():
    # no accepting state, every state accepting, an unreachable state
    for accepting in (set(), {0, 1, 2}, {2}):
        d = Dfa("ab", [[1, 0], [0, 1], [2, 2]], 0, accepting)
        m = d.minimize()
        assert same_dfa(m, moore_minimize(d))
        assert m.n_states == 1
        assert m.accepting == ({0} if 0 in accepting else set())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(presentations())
def test_class_language_matches_full_cayley_automaton(sp):
    for e in range(len(sp.elements)):
        assert dfa_to_text(sp.class_language(e)) == dfa_to_text(
            full_class_language(sp, e))
