"""Properties of the folds over the postorder of a syntax tree: each term
walk equals the recursive walk kept in util as its oracle, and parsing
inverts formatting for terms and for regexes.  The nodes' own ``repr``,
``==`` and ``hash`` agree with recursive oracles too."""

import copy
import itertools
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from omsemi import terms as terms_module
from omsemi.errors import UnsupportedPrimePower
from omsemi.regex import (Concat as RConcat, Empty, Plus, Star, Sym, Union,
                          format_regex, parse_regex)
from omsemi.terms import (Concat, FinitePower, Letter, OmegaPower,
                          PrimeOmegaPower, ab_image, com_exponents,
                          concat_all, eval_term, expand_for_factors,
                          find_identity_failure, format_term,
                          free_group_normal_form, parse_term, term_alphabet,
                          unroll, _postorder, _shape)
from omsemi.syntactic import syntactic_semigroup

from util import (random_dfa, random_generator_map, random_small_semigroup,
                  rebuild, recursive_ab_image, recursive_com_exponents,
                  recursive_eval_term, recursive_expand_for_factors,
                  recursive_format_term, recursive_free_group_normal_form,
                  recursive_node_repr, recursive_structure, recursive_unroll)

fold_settings = settings(max_examples=150, deadline=None, derandomize=True)


def _term_extend(children):
    # concatenations are left combs of non-concatenation factors, the
    # shape parse_term gives
    factors = children.filter(lambda t: type(t) is not Concat)
    return st.one_of(
        st.lists(factors, min_size=2, max_size=4).map(concat_all),
        st.builds(OmegaPower, children, st.integers(-3, 3)),
        st.builds(FinitePower, children, st.integers(1, 3)),
        st.builds(PrimeOmegaPower, children, st.sampled_from((2, 3, 5))))


terms = st.recursive(st.sampled_from("xyz").map(Letter), _term_extend,
                     max_leaves=10)
# right-nested concatenations too, which the parser never builds
any_terms = st.recursive(
    st.sampled_from("xyz").map(Letter),
    lambda children: st.one_of(_term_extend(children),
                               st.builds(Concat, children, children)),
    max_leaves=10)


def _regex_extend(children):
    # unions and concatenations nest to the left, as parse_regex builds them
    return st.one_of(
        st.builds(Union, children,
                  children.filter(lambda r: type(r) is not Union)),
        st.builds(RConcat, children,
                  children.filter(lambda r: type(r) is not RConcat)),
        st.builds(Star, children),
        st.builds(Plus, children))


regexes = st.recursive(
    st.one_of(st.just(Empty()), st.sampled_from("abc").map(Sym)),
    _regex_extend, max_leaves=10)


def _outcome(walk, t):
    try:
        return walk(t)
    except UnsupportedPrimePower:
        return "unsupported"


@fold_settings
@given(any_terms)
def test_images_match_recursive_walks(t):
    assert _outcome(ab_image, t) == _outcome(recursive_ab_image, t)
    assert _outcome(com_exponents, t) == _outcome(recursive_com_exponents, t)
    assert _outcome(free_group_normal_form, t) == \
        _outcome(recursive_free_group_normal_form, t)


@fold_settings
@given(any_terms, st.integers(0, 3))
def test_text_walks_match_recursive_walks(t, k):
    assert format_term(t) == recursive_format_term(t)
    assert expand_for_factors(t, k) == recursive_expand_for_factors(t, k)


@fold_settings
@given(any_terms, st.randoms(use_true_random=False), st.integers(1, 3),
       st.integers(0, 5))
def test_eval_and_unroll_match_recursive_walks(t, rng, n_targets, pad):
    targets = []
    for _ in range(n_targets):
        S = random_small_semigroup(rng)
        targets.append((S, random_generator_map(rng, S, "xyz")))
    for S, g in targets:
        assert eval_term(S, g, t) == recursive_eval_term(S, g, t)
    assert unroll(t, targets, pad) == recursive_unroll(t, targets, pad)


def _first_failure(S, lhs, rhs, mode="equality"):
    letters = sorted(term_alphabet(lhs) | term_alphabet(rhs))
    for values in itertools.product(range(S.n), repeat=len(letters)):
        g = dict(zip(letters, values)).__getitem__
        a, b = recursive_eval_term(S, g, lhs), recursive_eval_term(S, g, rhs)
        if a != b if mode == "equality" else (a, b) not in S.order:
            return dict(zip(letters, values))
    return None


def _small_ordered_semigroup(rng):
    """The ordered syntactic semigroup of a random language, resampled
    until it has at most 6 elements."""
    while True:
        S = syntactic_semigroup(random_dfa(rng, 3)).ordered_semigroup()
        if S.n <= 6:
            return S


@fold_settings
@given(terms, terms, st.randoms(use_true_random=False), st.integers(0, 9999))
def test_identity_search_finds_the_first_failure(lhs, rhs, rng, seed):
    # blocks of 1 leave every variable to the loop over leading ones, and
    # blocks of 5 split three variables over 2 to 5 elements between it
    # and the columns
    ordered = _small_ordered_semigroup(random.Random(seed))
    for S, mode in ((random_small_semigroup(rng), "equality"),
                    (ordered, "inequality")):
        expected = _first_failure(S, lhs, rhs, mode)
        for block in (1, 5, terms_module._BLOCK):
            with mock.patch.object(terms_module, "_BLOCK", block):
                assert find_identity_failure(S, lhs, rhs, mode) == expected


@fold_settings
@given(any_terms, any_terms)
def test_shape_compares_as_node_equality(t, u):
    # a copy built anew, and another term, mostly a different one
    for other in (rebuild(recursive_structure(t)), u):
        assert (_shape(_postorder(t)) == _shape(_postorder(other))) == \
            (t == other)


@fold_settings
@given(terms)
def test_parse_inverts_format_term(t):
    assert parse_term(format_term(t)) == t


@fold_settings
@given(regexes)
def test_parse_inverts_format_regex(r):
    assert parse_regex(format_regex(r)) == r


trees = st.one_of(any_terms, regexes)


@fold_settings
@given(trees, trees)
def test_node_methods_match_recursive_oracles(a, b):
    assert repr(a) == recursive_node_repr(a)
    assert (a == b) == (recursive_structure(a) == recursive_structure(b))
    assert (a != b) == (recursive_structure(a) != recursive_structure(b))
    if a == b:
        assert hash(a) == hash(b)
    twin = rebuild(recursive_structure(a))
    assert twin is not a and twin == a and hash(twin) == hash(a)
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


# Sym and Concat set their fields in their own __init__; each test below
# pins what they had through Node's


def test_sym_and_concat_refuse_a_wrong_field_count():
    for build in (lambda: Sym(), lambda: Sym("a", "b"),
                  lambda: RConcat(Sym("a")),
                  lambda: RConcat(Sym("a"), Sym("b"), Sym("c"))):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(AttributeError):
        Sym("a").ch = "b"


def test_sym_and_concat_equality():
    r = RConcat(Sym("a"), Union(Sym("b"), Empty()))
    assert r == parse_regex("a(b|)") and not r != parse_regex("a(b|)")
    assert Sym("a") != Sym("b")
    assert RConcat(Sym("a"), Sym("b")) != Union(Sym("a"), Sym("b"))
    # a regex node never equals a term node of the same shape
    assert Sym("a") != Letter("a")
    assert RConcat(Sym("a"), Sym("b")) != Concat(Letter("a"), Letter("b"))


def test_sym_and_concat_hash():
    r = RConcat(Sym("a"), Star(Sym("b")))
    assert hash(r) == hash((RConcat, Sym, "a", Star, Sym, "b"))
    assert hash(Sym("a")) == hash((Sym, "a"))


def test_sym_and_concat_repr():
    assert repr(RConcat(Sym("a"), Empty())) == \
        "Concat(left=Sym(ch='a'), right=Empty())"


def test_sym_and_concat_pickle():
    r = RConcat(Sym("a"), Plus(Sym("b")))
    assert r.__reduce__() == (RConcat, (Sym("a"), Plus(Sym("b"))))
    twin = pickle.loads(pickle.dumps(r))
    assert twin == r and type(twin.left) is Sym and type(twin) is RConcat
