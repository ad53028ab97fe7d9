import itertools
import random

import pytest

from omsemi.dfa import (Dfa, compile_min_dfa, enumerate_accepted,
                        is_finite_language, languages_equal)
from omsemi.errors import (AlphabetMismatch, ElementNotWordImage, InternalError,
                           SizeTooLarge)
from omsemi.semigroup import GeneratorMap
from omsemi import syntactic
from omsemi.syntactic import syntactic_semigroup

from test_regex_dfa import random_regex
from omsemi.regex import regex_alphabet
from util import trimmed_class_language


def all_words(alphabet, lo, hi):
    for l in range(lo, hi + 1):
        for tup in itertools.product(alphabet, repeat=l):
            yield "".join(tup)


def context_equivalent(d, u, v, xmax, ymax):
    """Brute-force syntactic congruence via accepting contexts."""
    for x in all_words(d.alphabet, 0, xmax):
        for y in all_words(d.alphabet, 0, ymax):
            if d.accepts(x + u + y) != d.accepts(x + v + y):
                return False
    return True


def context_below(d, u, v, xmax, ymax):
    for x in all_words(d.alphabet, 0, xmax):
        for y in all_words(d.alphabet, 0, ymax):
            if d.accepts(x + u + y) and not d.accepts(x + v + y):
                return False
    return True


def test_dfa_input_is_always_minimised():
    # a two-state automaton of a*: the syntactic semigroup has one class
    sp = syntactic_semigroup(Dfa("a", [[1], [0]], 0, {0, 1}))
    assert sp.words == ["a"]
    assert sp.dfa.n_states == 1
    with pytest.raises(TypeError):
        Dfa("a", [[1], [0]], 0, {0, 1}, minimal=True)


def test_words_containing_a():
    sp = syntactic_semigroup("(a|b)*a(a|b)*")
    assert len(sp.elements) == 2
    ca, cb = sp.classof("a"), sp.classof("b")
    assert ca != cb
    # b acts as the empty word does, so its class is the identity
    assert sp.semigroup.identity == cb
    # 1 <= [a]: appending letters can only help membership
    order = sp.syntactic_order()
    assert (cb, ca) in order and (ca, cb) not in order


def test_classof_is_a_homomorphism():
    sp = syntactic_semigroup("((aab)(aab))*|((abb)(abb))*")
    rng = random.Random(41)
    for _ in range(200):
        u = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 7)))
        v = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 7)))
        assert sp.classof(u + v) == \
            sp.semigroup.table[sp.classof(u)][sp.classof(v)]


def test_labels_are_shortest_representatives():
    sp = syntactic_semigroup("((aab)(aab))*|((abb)(abb))*")
    for e, w in enumerate(sp.words):
        assert sp.classof(w) == e
    lens = [len(w) for w in sp.words]
    # shortlex discovery: lengths never decrease along the element order
    assert lens == sorted(lens)


def test_congruence_against_context_oracle():
    # xmax covers every reachable state, ymax every transition action, so
    # the bounded context scan is an exact oracle for these languages
    for rex in ["(ab)*", "(a|b)*a(a|b)*", "aab|b+", "a*b*"]:
        sp = syntactic_semigroup(rex, alphabet="ab")
        d = sp.dfa
        xmax = d.n_states
        ymax = max(len(w) for w in sp.words)
        words = list(all_words("ab", 1, 4))
        for u in words:
            cu = sp.classof(u)
            for v in words:
                assert (cu == sp.classof(v)) == \
                    context_equivalent(d, u, v, xmax, ymax), (rex, u, v)


def test_order_against_context_oracle():
    for rex in ["(a|b)*a(a|b)*", "(ab)*", "aab|b+"]:
        sp = syntactic_semigroup(rex, alphabet="ab")
        d = sp.dfa
        xmax = d.n_states
        ymax = max(len(w) for w in sp.words)
        order = sp.syntactic_order()
        reps = sp.words
        for i, u in enumerate(reps):
            for j, v in enumerate(reps):
                assert ((i, j) in order) == context_below(d, u, v, xmax, ymax)


def test_order_is_stable_partial_order():
    # the order is attached without a proof; the proof that a caller's
    # order gets accepts it unchanged
    for rex in ["(a|b)*a(a|b)*", "((aab)(aab))*|((abb)(abb))*", "aaaa*bb*aa"]:
        sp = syntactic_semigroup(rex)
        S = sp.ordered_semigroup()
        order = sp.syntactic_order()
        assert S.order == order
        assert S._check_order(order) == order


def test_class_languages_partition_nonempty_words():
    rng = random.Random(43)
    rexes = ["(ab)*", "aaaa*bb*aa"]
    for _ in range(10):
        r = random_regex(rng, 2)
        if regex_alphabet(r):
            rexes.append(r)
    for rex in rexes:
        sp = syntactic_semigroup(rex, alphabet="ab")
        langs = [sp.class_language(e) for e in range(len(sp.elements))]
        for w in all_words("ab", 1, 8 if len(langs) < 30 else 5):
            hits = [e for e, d in enumerate(langs) if d.accepts(w)]
            assert hits == [sp.classof(w)]
        # finiteness is read off the table, without the class's DFA
        for e, d in enumerate(langs):
            assert sp.finite_class_words(e) == (
                enumerate_accepted(d, d.n_states)
                if is_finite_language(d) else None)


def test_class_language_rejects_empty_word():
    sp = syntactic_semigroup("(ab)*")
    for e in range(len(sp.elements)):
        assert not sp.class_language(e).accepts("")
    with pytest.raises(ElementNotWordImage):
        sp.class_language(len(sp.elements))
    with pytest.raises(ValueError):
        sp.classof("")
    with pytest.raises(AlphabetMismatch):
        sp.classof("abc")


def test_finite_class_words_stop_where_rows_disagree_with_the_table():
    # the table says [ab] is finite; Cayley rows changed so that ab a is in
    # [ab] give it a word of every length, and the walk stops past |S| = 4
    # letters with an internal error rather than listing them forever
    sp = syntactic_semigroup("ab")
    e = sp.words.index("ab")
    assert len(sp.elements) == 4 and sp.finite_class_words(e) == ["ab"]
    sp.cayley[1 + e][sp.alphabet.index("a")] = 1 + e
    with pytest.raises(InternalError, match="word of 5 letters"):
        sp.finite_class_words(e)


@pytest.mark.parametrize("index", [-1, 1.0, "1", None, True, False])
def test_class_language_rejects_non_class_index(index):
    sp = syntactic_semigroup("(ab)*")
    with pytest.raises(ElementNotWordImage):
        sp.class_language(index)
    with pytest.raises(ElementNotWordImage):
        sp.finite_class_words(index)


def test_class_languages_merge_identity_with_start():
    # [b] acts as the identity of b*ab*, so reading b from the start leaves
    # the residual unchanged in every class language but that of [b],
    # where the state after b also accepts the empty word
    sp = syntactic_semigroup("b*ab*")
    b = sp.gens("b")
    assert sp.semigroup.identity == b
    for e in range(len(sp.elements)):
        d = sp.class_language(e)
        assert d.n_states == trimmed_class_language(sp, e).n_states
        after_b = d.transitions[0][d.letter_index["b"]]
        assert (after_b == 0) == (e != b)


def test_monoid_completion_adjoins_when_needed():
    # in (ab)* no nonempty word acts as the identity on the minimal DFA
    sp = syntactic_semigroup("(ab)*")
    assert sp.semigroup.identity is None
    m = sp.semigroup.with_identity_adjoined()
    assert m.n == len(sp.elements) + 1
    assert m.identity == m.n - 1
    gm = GeneratorMap(m, dict(sp.gens.assignment))
    assert gm.image_of_word("ab") == sp.classof("ab")


def test_ordered_semigroup_is_the_semigroup():
    sp = syntactic_semigroup("b*ab*")
    S = sp.ordered_semigroup()
    assert S is sp.semigroup and sp.gens.target is S
    assert S.order == sp.syntactic_order()


def test_size_guard():
    with pytest.raises(SizeTooLarge):
        syntactic_semigroup("((aab)(aab))*|((abb)(abb))*", max_elements=10)


def test_size_guard_refuses_before_the_closure(monkeypatch):
    # the minimal DFA of one word of 100 letters has 102 states, the 101
    # prefixes and the dead state, so at least 101 classes: a cap below
    # that is refused before the closure walks a single class, and the
    # cap of 101 walks it
    d = compile_min_dfa("ab" * 50)
    assert d.n_states == 102

    def tripwire(*args):
        raise AssertionError("closure walked")

    monkeypatch.setattr(syntactic, "breadth_first", tripwire)
    with pytest.raises(SizeTooLarge, match="exceeds 100 elements"):
        syntactic_semigroup(d, max_elements=100)
    with pytest.raises(AssertionError, match="closure walked"):
        syntactic_semigroup(d, max_elements=101)


def test_case_study_com_language():
    sp = syntactic_semigroup("((aab)(aab))*|((abb)(abb))*")
    assert len(sp.elements) == 41
    s = sp.classof("babb")
    t = sp.classof("aaba")
    assert languages_equal(sp.class_language(s),
                           compile_min_dfa("babb((abb)(abb))*", alphabet="ab"))
    assert languages_equal(sp.class_language(t),
                           compile_min_dfa("((aab)(aab))*aaba", alphabet="ab"))
    S = sp.semigroup
    for w in ("abb", "aab"):
        c = sp.classof(w)
        assert S.omega_plus_k(c, -1) == c


def test_case_study_group_language():
    sp = syntactic_semigroup("aaaa*bb*aa")
    assert len(sp.elements) == 16
    a = sp.classof("a")
    assert languages_equal(sp.class_language(a),
                           compile_min_dfa("a", alphabet="ab"))
    assert sp.classof("aaaa") == sp.classof("aaa")
    assert sp.classof("bb") == sp.classof("b")
    s = sp.classof("aaabaa")
    assert languages_equal(sp.class_language(s),
                           compile_min_dfa("aaaa*bb*aa", alphabet="ab"))


def test_case_study_cr_language():
    sp = syntactic_semigroup("aabaab(aab)+(abb)+aabaab")
    assert len(sp.elements) == 117
    aab = sp.classof("aab")
    assert languages_equal(sp.class_language(aab),
                           compile_min_dfa("aab", alphabet="ab"))
    S = sp.semigroup
    assert S.power(aab, 4) == S.power(aab, 3)
    abb = sp.classof("abb")
    assert S.power(abb, 2) == abb
