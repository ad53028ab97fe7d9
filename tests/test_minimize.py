"""Properties of Hopcroft minimisation and of the class languages:
`Dfa.minimize` gives the automaton of Moore's refinement, every class
language read off the table equals the minimised full Cayley automaton
and the minimised trimmed one, the pair-marking state preorder equals
the repeated sweep, and the text of state elimination equals the text of
the former elimination over trees (oracles in util)."""

import time

from hypothesis import assume, given, settings

from omsemi.dfa import Dfa, compile_min_dfa
from omsemi.errors import SizeTooLarge
from omsemi.syntactic import _state_preorder, syntactic_semigroup

from test_kernel import MAX_CLASSES, presentations
from util import (any_dfas, full_class_language, moore_minimize,
                  regex_text, same_dfa, sweep_state_preorder,
                  tree_dfa_to_regex, trimmed_class_language)

minimize_settings = settings(max_examples=200, deadline=None,
                             derandomize=True)


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


def test_minimizing_a_long_word_is_not_quadratic():
    # a split costs the states it moves, not the block they leave; costing
    # the block makes this 20000-letter word's chain take seconds
    t = time.perf_counter()
    d = compile_min_dfa("ab" * 10000)
    assert time.perf_counter() - t < 2.0
    assert d.n_states == 20002


def assert_class_languages_match_oracles(sp):
    for e in range(len(sp.elements)):
        d = sp.class_language(e)
        assert same_dfa(d, full_class_language(sp, e))
        assert same_dfa(d, trimmed_class_language(sp, e))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(presentations())
def test_class_language_matches_full_cayley_automaton(sp):
    assert_class_languages_match_oracles(sp)


@minimize_settings
@given(any_dfas())
def test_class_language_matches_oracles_on_any_dfa(d):
    try:
        sp = syntactic_semigroup(d, max_elements=MAX_CLASSES)
    except SizeTooLarge:
        assume(False)
    assert_class_languages_match_oracles(sp)


@minimize_settings
@given(any_dfas())
def test_package_built_automata_pass_the_public_checks(d):
    # compile_min_dfa, minimize and class_language build their automata
    # unchecked; rebuilt through Dfa(...), each comes back unchanged
    built = [d.minimize()]
    text = regex_text(d)
    if text is not None:        # None for the empty language
        built.append(compile_min_dfa(text, d.alphabet))
    try:
        sp = syntactic_semigroup(d, max_elements=MAX_CLASSES)
    except SizeTooLarge:
        assume(False)
    built += [sp.class_language(e) for e in range(len(sp.elements))]
    for m in built:
        again = Dfa(m.alphabet, m.transitions, m.initial, m.accepting)
        assert same_dfa(again, m) and vars(again) == vars(m)


@minimize_settings
@given(any_dfas())
def test_pair_marking_preorder_matches_sweep(d):
    m = d.minimize()
    assert _state_preorder(m) == sweep_state_preorder(m)


@minimize_settings
@given(any_dfas())
def test_elimination_text_matches_tree_oracle(d):
    assert regex_text(d) == tree_dfa_to_regex(d)
    try:
        sp = syntactic_semigroup(d, max_elements=MAX_CLASSES)
    except SizeTooLarge:
        assume(False)
    for e in range(len(sp.elements)):
        if sp.finite_class_words(e) is None:
            assert sp.class_expression(e) == \
                tree_dfa_to_regex(sp.class_language(e))
