import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from omsemi.errors import (AlphabetMismatch, EmptyAlphabet, MalformedTable,
                           ParseError)
from omsemi.dfa import (
    Dfa,
    compile_min_dfa,
    enumerate_accepted,
    has_common_word,
    is_empty,
    is_finite_language,
    languages_equal,
)
from omsemi.graphs import reachable
from omsemi.regex import (
    Concat,
    Empty,
    Plus,
    Star,
    Sym,
    Union,
    _postorder,
    nfa_of_regex,
    parse_regex,
    regex_alphabet,
)

from util import any_dfas, regex_text, same_dfa


def naive_matches(r, w, memo=None):
    """Independent matcher straight off the syntax tree."""
    if memo is None:
        memo = {}
    # key by value, not id(): the Plus branch allocates temporary Star nodes,
    # and a recycled id would hand back some other node's cached answer
    key = (r, w)
    if key in memo:
        return memo[key]
    if isinstance(r, Empty):
        out = w == ""
    elif isinstance(r, Sym):
        out = w == r.ch
    elif isinstance(r, Union):
        out = naive_matches(r.left, w, memo) or naive_matches(r.right, w, memo)
    elif isinstance(r, Concat):
        out = any(naive_matches(r.left, w[:i], memo)
                  and naive_matches(r.right, w[i:], memo)
                  for i in range(len(w) + 1))
    elif isinstance(r, Star):
        out = w == "" or any(naive_matches(r.body, w[:i], memo)
                             and naive_matches(r, w[i:], memo)
                             for i in range(1, len(w) + 1))
    elif isinstance(r, Plus):
        if w == "":
            out = naive_matches(r.body, "", memo)
        else:
            out = any(naive_matches(r.body, w[:i], memo)
                      and naive_matches(Star(r.body), w[i:], memo)
                      for i in range(1, len(w) + 1))
    else:
        raise TypeError(r)
    memo[key] = out
    return out


def all_words(alphabet, max_len):
    for l in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=l):
            yield "".join(tup)


def distinguishable(d, p, q):
    """Pair-graph search for a word accepted from exactly one of p, q."""
    seen = {(p, q)}
    queue = [(p, q)]
    while queue:
        x, y = queue.pop()
        if (x in d.accepting) != (y in d.accepting):
            return True
        for a in range(len(d.alphabet)):
            nxt = (d.transitions[x][a], d.transitions[y][a])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def random_regex(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Sym(rng.choice("ab"))
    k = rng.randrange(5)
    if k == 0:
        return Union(random_regex(rng, depth - 1), random_regex(rng, depth - 1))
    if k == 1:
        return Concat(random_regex(rng, depth - 1), random_regex(rng, depth - 1))
    if k == 2:
        return Star(random_regex(rng, depth - 1))
    if k == 3:
        return Plus(random_regex(rng, depth - 1))
    return Empty()


def test_parse_basics():
    r = parse_regex("(a|b)*ab")
    assert regex_alphabet(r) == {"a", "b"}
    assert parse_regex("") == Empty()
    assert parse_regex("a b  c") == Concat(Concat(Sym("a"), Sym("b")), Sym("c"))
    assert parse_regex("(|a)") == Union(Empty(), Sym("a"))


def test_parse_errors():
    for bad in ["(a", "a)", "*a", "a||*", "(()"]:
        with pytest.raises(ParseError):
            parse_regex(bad)


def test_compile_state_counts():
    assert compile_min_dfa("(ab)*").n_states == 3
    assert compile_min_dfa("a*", alphabet="ab").n_states == 2
    assert compile_min_dfa("(a|b)*").n_states == 1
    assert compile_min_dfa("a*").n_states == 1


def test_compile_alphabet_handling():
    with pytest.raises(EmptyAlphabet):
        compile_min_dfa("")
    with pytest.raises(AlphabetMismatch):
        compile_min_dfa("abc", alphabet="ab")
    d = compile_min_dfa("", alphabet="a")
    assert d.accepts("") and not d.accepts("a")


def test_languages_equal_examples():
    d1 = compile_min_dfa("(ab)*a")
    d2 = compile_min_dfa("a(ba)*")
    assert languages_equal(d1, d2)
    assert not languages_equal(d1, compile_min_dfa("(ab)*", alphabet="ab"))
    with pytest.raises(AlphabetMismatch):
        languages_equal(compile_min_dfa("a"), compile_min_dfa("b"))


def test_minimal_dfa_canonical_bytes():
    d1 = compile_min_dfa("(ab)*a")
    d2 = compile_min_dfa("a(ba)*")
    assert same_dfa(d1, d2)


def deep_random_regexes():
    rng = random.Random(41)
    return [random_regex(rng, 5) for _ in range(40)]


def test_compile_agrees_with_naive_matcher():
    # the nullable, first and last positions of the position automaton are
    # easiest to get wrong under nested stars and empty branches
    fixed = ["(ab)*", "a*b*", "(a|b)*abb", "aab|b+", "(a+b)*|b",
             "((aab)(aab))*|((abb)(abb))*", "aaa*bb*aa", "(()*)*a",
             "(a*)*b", "(|a)+b", "((a|())*)*", "a(|b)(|a)b",
             "(a|b)*a(a|b)(a|b)"]
    rng = random.Random(31)
    trees = [parse_regex(s) for s in fixed]
    trees += [random_regex(rng, 3) for _ in range(40)]
    trees += deep_random_regexes()
    for r in trees:
        if not regex_alphabet(r):
            continue
        d = compile_min_dfa(r, alphabet="ab")
        memo = {}
        for w in all_words("ab", 6):
            assert d.accepts(w) == naive_matches(r, w, memo), (r, w)


def test_position_automaton_has_no_empty_moves():
    # state 0 is the start and state p the p-th letter, so every move
    # reads a letter of the regex, and every letter is read
    for r in deep_random_regexes():
        n, trans, start, accepting = nfa_of_regex(r)
        assert all(ch is not None for _, ch, _ in trans)
        assert n == 1 + sum(type(node) is Sym for node in _postorder(r))
        assert {ch for _, ch, _ in trans} == regex_alphabet(r)


def test_compiled_dfa_is_minimal():
    rng = random.Random(33)
    trees = [random_regex(rng, 3) for _ in range(40)]
    trees.append(parse_regex("((aab)(aab))*|((abb)(abb))*"))
    for r in trees:
        if not regex_alphabet(r):
            continue
        d = compile_min_dfa(r, alphabet="ab")
        assert sorted(reachable([d.initial], d.transitions.__getitem__)) == \
            list(range(d.n_states))
        for p in range(d.n_states):
            for q in range(p + 1, d.n_states):
                assert distinguishable(d, p, q), (r, p, q)


def test_plus_expansion_invariant():
    rng = random.Random(37)
    for _ in range(30):
        r = random_regex(rng, 2)
        if not regex_alphabet(r):
            continue
        d1 = compile_min_dfa(Plus(r), alphabet="ab")
        d2 = compile_min_dfa(Concat(r, Star(r)), alphabet="ab")
        assert languages_equal(d1, d2)


def test_has_common_word_and_emptiness():
    a = compile_min_dfa("a", alphabet="ab")
    b = compile_min_dfa("b", alphabet="ab")
    assert not has_common_word(a, b)
    assert has_common_word(compile_min_dfa("a+", alphabet="ab"),
                           compile_min_dfa("aa*", alphabet="ab"))
    dead = Dfa("ab", [[0, 0]], 0, set())
    assert is_empty(dead)
    assert not is_empty(a)


def test_finiteness():
    assert is_finite_language(compile_min_dfa("aab|b", alphabet="ab"))
    assert not is_finite_language(compile_min_dfa("(ab)*"))
    assert is_finite_language(Dfa("ab", [[0, 0]], 0, set()))


def test_finiteness_of_long_chains():
    # a^0 -> a^1 -> ... -> a^(n-1), the last state a sink
    n = 3000
    chain = [[q + 1] for q in range(n - 1)] + [[n - 1]]
    assert is_finite_language(Dfa("a", chain, 0, {n - 2}))
    assert not is_finite_language(Dfa("a", chain, 0, {n - 1}))
    # a loop from the middle back to a third of the way along
    back = chain[:n // 2] + [[n // 3]] + chain[n // 2 + 1:]
    assert not is_finite_language(Dfa("a", back, 0, {n // 2}))
    assert is_finite_language(Dfa("a", back, 0, {n // 4}))


@st.composite
def small_dfas(draw):
    """A complete DFA of 1-5 states over {a, b}, any initial state and
    any accepting set."""
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    transitions = draw(st.lists(st.lists(state, min_size=2, max_size=2),
                                min_size=n, max_size=n))
    return Dfa("ab", transitions, draw(state), draw(st.sets(state)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_dfas())
def test_finite_iff_no_word_between_n_and_2n(d):
    # an n-state automaton with an accepted word of n or more letters
    # pumps its shortest one down to fewer than 2n letters
    n = d.n_states
    long_word = any(d.accepts(w) for k in range(n, 2 * n)
                    for w in itertools.product("ab", repeat=k))
    assert is_finite_language(d) == (not long_word)


def test_enumerate_accepted():
    d = compile_min_dfa("(ab)*")
    assert enumerate_accepted(d, 6) == ["", "ab", "abab", "ababab"]
    d2 = compile_min_dfa("a+b", alphabet="ab")
    assert enumerate_accepted(d2, 4) == ["ab", "aab", "aaab"]


@pytest.mark.parametrize("trans,initial,accepting", [
    ([[0]], 5, set()),          # initial state out of range
    ([[0]], -1, set()),
    ([[0]], "0", set()),
    ([[0]], 0, {7}),            # accepting state out of range
    ([[0]], 0, {0, -1}),
    ([[0, 0]], 0, set()),       # row of the wrong arity
    ([[1]], 0, set()),          # target out of range
    ([], 0, set()),             # no state at all
    ([[0.5]], 0, set()),        # target not an integer
    ([["0"]], 0, set()),
    ([[False]], 0, set()),      # bools equal states but are not ones
    ([[0]], False, set()),
    ([[0], [0]], 0, {True}),
    ([5], 0, set()),            # not collections
    (5, 0, set()),
    ([[0]], 0, 5),
    ([[0]], 0, [[0]]),          # an unhashable accepting state
])
def test_malformed_dfa_tables(trans, initial, accepting):
    with pytest.raises(MalformedTable) as info:
        Dfa("a", trans, initial, accepting)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("alphabet", [5, None, [["a"]]])
def test_malformed_dfa_alphabets(alphabet):
    with pytest.raises(MalformedTable):
        Dfa(alphabet, [[0]], 0, set())


def test_repeated_letter_is_malformed():
    # the second a would hide the first column
    with pytest.raises(MalformedTable):
        Dfa("aa", [[0, 0]], 0, {0})


def test_run_from_state():
    d = compile_min_dfa("(ab)*")
    q = d.run("ab")
    assert q == d.initial
    with pytest.raises(AlphabetMismatch):
        d.run("c")


def test_format_regex_inverts_parse():
    rng = random.Random(91)
    for _ in range(200):
        from omsemi.regex import format_regex
        r = random_regex(rng, 3)
        again = parse_regex(format_regex(r))
        d1 = compile_min_dfa(r, alphabet="ab")
        d2 = compile_min_dfa(again, alphabet="ab")
        assert languages_equal(d1, d2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(any_dfas())
def test_dfa_to_regex_roundtrip(d):
    s = regex_text(d)
    if s is None:
        assert is_empty(d)
    else:
        assert languages_equal(d, compile_min_dfa(s, d.alphabet))


def test_dfa_to_regex_of_a_long_cycle():
    # a^333 (a^400)*: eliminating the cycle nests the label hundreds deep
    d = Dfa("ab", [[(q + 1) % 400, 400] for q in range(400)] + [[400, 400]],
            0, {333})
    assert languages_equal(d, compile_min_dfa(regex_text(d), "ab"))


def test_dfa_to_regex_empty_language():
    d = Dfa("ab", [[0, 0]], 0, set())
    assert regex_text(d) is None


def test_dfa_to_regex_examples():
    d = compile_min_dfa("a(a|b)*", "ab")
    s = regex_text(d)
    assert languages_equal(compile_min_dfa(s, "ab"), d)
    d_eps = compile_min_dfa("", "ab")
    s_eps = regex_text(d_eps)
    assert languages_equal(compile_min_dfa(s_eps, "ab"), d_eps)


@pytest.mark.parametrize("regex, text", [
    ("", "()"),
    ("(ab)*", "()|a(ba)*b"),          # the empty word in a union
    ("(|a)b*", "()|(a|b)b*"),         # a union inside a concatenation
    ("a(a|b)*", "a(a|b)*"),
])
def test_dfa_to_regex_exact_text(regex, text):
    assert regex_text(compile_min_dfa(regex, "ab")) == text
