"""Tests for word solutions, bounded term search, and the verifiers."""

import random
import subprocess
import sys

import pytest

from omsemi import cli
from omsemi.dfa import Dfa
from omsemi.errors import (MalformedTable, NotASolution, SizeTooLarge,
                           SubwordObstruction, Unreachable)
from omsemi.reducibility import (
    COM_LANGUAGE,
    SolutionTriple,
    VerificationReport,
    bounded_omega_solution_search,
    integer_exponent_system,
    jplus_word_solution,
    loop_removal,
    simple_path_word,
    syntactic_solution_triple,
    verify_com_counterexample,
    verify_cr_counterexample,
    verify_groups_counterexample,
)
from omsemi.semigroup import FiniteSemigroup, GeneratorMap
from omsemi.syntactic import SyntacticPresentation, syntactic_semigroup
from omsemi.terms import Letter, eval_term, format_term, parse_term
from omsemi.words import scattered_subword

from util import (
    deque_simple_path_word,
    random_dfa,
    random_superterm,
    random_term,
    random_transition_monoid,
    scan_loop_removal,
)


def shortest_distances(M, gens, letters):
    """Breadth-first distances from the identity in the right Cayley graph."""
    from collections import deque
    dist = {M.identity: 0}
    queue = deque([M.identity])
    while queue:
        e = queue.popleft()
        for ch in letters:
            f = M.table[e][gens(ch)]
            if f not in dist:
                dist[f] = dist[e] + 1
                queue.append(f)
    return dist


def path_states(M, gens, word):
    states = [M.identity]
    for ch in word:
        states.append(M.table[states[-1]][gens(ch)])
    return states


def word_image(M, gens, word):
    e = M.identity
    for ch in word:
        e = M.table[e][gens(ch)]
    return e


def diagonal_ordered(M):
    order = frozenset((i, i) for i in range(M.n))
    return FiniteSemigroup(M.table, order=order,
                           identity=M.identity)


def test_simple_path_word_cyclic():
    C3 = FiniteSemigroup.cyclic(1, 3)
    g = GeneratorMap(C3, {"x": 0})
    assert simple_path_word(C3, g, C3.identity) == ""
    assert simple_path_word(C3, g, 0) == "x"
    assert simple_path_word(C3, g, 1) == "xx"


def test_simple_path_word_unreachable():
    C2 = FiniteSemigroup.cyclic(1, 2)
    g = GeneratorMap(C2, {"x": C2.identity})
    with pytest.raises(Unreachable):
        simple_path_word(C2, g, 0)


def test_simple_path_word_without_identity():
    # the empty word lies outside S, so paths are those of S^1
    S = FiniteSemigroup.cyclic(2, 2)
    M = S.with_identity_adjoined()
    g, gm = GeneratorMap(S, {"x": 0}), GeneratorMap(M, {"x": 0})
    for target in range(S.n):
        assert simple_path_word(S, g, target) == \
            simple_path_word(M, gm, target)


def test_simple_path_word_is_shortest_and_simple():
    rng = random.Random(20240)
    for _ in range(25):
        M, gm = random_transition_monoid(rng, max_states=5, max_elements=60)
        letters = sorted(gm.assignment)
        dist = shortest_distances(M, gm, letters)
        for target in range(M.n):
            if target not in dist:
                with pytest.raises(Unreachable):
                    simple_path_word(M, gm, target)
                continue
            w = simple_path_word(M, gm, target)
            assert word_image(M, gm, w) == target
            assert len(w) == dist[target]
            assert len(w) < M.n
            states = path_states(M, gm, w)
            assert len(states) == len(set(states))


def random_monoids_with_and_without_identity(rng, count):
    """(S, letter map) pairs: transition monoids, whose identity is the
    empty word, alternating with syntactic semigroups that have no
    identity, where the empty word lies outside S."""
    for i in range(count):
        if i % 2:
            sp = syntactic_semigroup(random_dfa(rng, max_states=5))
            while sp.semigroup.identity is not None:
                sp = syntactic_semigroup(random_dfa(rng, max_states=5))
            yield sp.semigroup, sp.gens
        else:
            yield random_transition_monoid(rng, max_states=5,
                                           max_elements=60)


def test_simple_path_word_matches_deque_oracle():
    rng = random.Random(20244)
    for S, g in random_monoids_with_and_without_identity(rng, 40):
        for target in range(S.n):
            try:
                expected = deque_simple_path_word(S, g, target)
            except Unreachable:
                with pytest.raises(Unreachable):
                    simple_path_word(S, g, target)
                continue
            assert simple_path_word(S, g, target) == expected


def test_loop_removal_matches_scan_oracle():
    rng = random.Random(20245)
    for S, g in random_monoids_with_and_without_identity(rng, 60):
        letters = sorted(g.assignment)
        for _ in range(5):
            word = "".join(rng.choice(letters)
                           for _ in range(rng.randrange(200)))
            assert loop_removal(word, S, g) == scan_loop_removal(word, S, g)
    # a long word whose loops are long: x^k over C(1, 500) for k past the
    # period, with a second generator that cuts the path short
    C = FiniteSemigroup.cyclic(1, 500)
    g = GeneratorMap(C, {"x": 0, "y": 7})
    word = "".join(rng.choice("xxxxxxxy") for _ in range(20000))
    assert loop_removal(word, C, g) == scan_loop_removal(word, C, g)


def test_loop_removal_cyclic():
    C3 = FiniteSemigroup.cyclic(1, 3)
    g = GeneratorMap(C3, {"x": 0})
    assert loop_removal("xxxx", C3, g) == "x"
    assert loop_removal("xxx", C3, g) == ""
    assert loop_removal("xx", C3, g) == "xx"
    assert loop_removal("", C3, g) == ""


def test_loop_removal_without_identity():
    S = FiniteSemigroup.cyclic(2, 2)
    M = S.with_identity_adjoined()
    g, gm = GeneratorMap(S, {"x": 0}), GeneratorMap(M, {"x": 0})
    for k in range(8):
        assert loop_removal("x" * k, S, g) == loop_removal("x" * k, M, gm)
    rng = random.Random(20243)
    for _ in range(40):
        sp = syntactic_semigroup(random_dfa(rng, max_states=3))
        S = sp.semigroup
        M = S.with_identity_adjoined()
        gm = GeneratorMap(M, dict(sp.gens.assignment))
        w = "".join(rng.choice("ab") for _ in range(rng.randrange(30)))
        assert loop_removal(w, S, sp.gens) == loop_removal(w, M, gm)


def test_loop_removal_postconditions():
    rng = random.Random(20241)
    for _ in range(60):
        M, gm = random_transition_monoid(rng, max_states=5, max_elements=60)
        letters = sorted(gm.assignment)
        word = "".join(rng.choice(letters) for _ in range(rng.randrange(41)))
        out = loop_removal(word, M, gm)
        assert scattered_subword(out, word)
        assert word_image(M, gm, out) == word_image(M, gm, word)
        assert len(out) < M.n
        states = path_states(M, gm, out)
        assert len(states) == len(set(states))


def test_jplus_word_solution_identity_instance():
    # x <= y x y over the monoid where y acts as the identity
    sp = syntactic_semigroup("b*ab*")
    S = sp.semigroup
    g = GeneratorMap(S, {"x": sp.classof("a"), "y": sp.classof("b")})
    u, v = parse_term("x"), parse_term("y x y")
    triple = SolutionTriple(S, eval_term(S, g, u), eval_term(S, g, v), g,
                            mode="inequality")
    wu, wv = jplus_word_solution(triple, u, v)
    assert wu == "x"
    assert scattered_subword(wu, wv)
    assert eval_term(S, g, parse_term(" ".join(wv))) == triple.t


def test_jplus_word_solution_identity_not_the_empty_word():
    # [bbb] is a two-sided identity of the table, but it does not act on
    # the minimal DFA as the empty word does, so u' may not be empty
    d = Dfa("ab", [[3, 1], [1, 3], [3, 1], [1, 2]], 0, {0, 1, 3})
    u, v = parse_term("(y^w)^w"), parse_term("y y x (y^w)^w y")
    triple = syntactic_solution_triple(d, {"x": "a", "y": "b"}, u, v,
                                       mode="inequality")
    S, bbb = triple.S, triple.gens.image_of_word("yyy")
    assert all(S.table[bbb][j] == j == S.table[j][bbb] for j in range(S.n))
    assert S.identity is None
    wu, wv = jplus_word_solution(triple, u, v)
    assert wu and triple.gens.image_of_word(wu) == triple.s
    assert triple.gens.image_of_word(wv) == triple.t
    assert scattered_subword(wu, wv)


_POSTCONDITION_SCRIPT = """
import omsemi.cli
import omsemi.reducibility as r
assert not __debug__
u, v = r.parse_term("x"), r.parse_term(%(v)r)
triple = r.syntactic_solution_triple("b*ab*", {"x": "a", "y": "b"}, u, v,
                                     mode="inequality")
r.%(patched)s = lambda *args: "xx"
try:
    r.jplus_word_solution(triple, u, v)
except r.InternalError as exc:
    print(exc)
r.%(patched)s = lambda *args: "aa"
print(omsemi.cli.main(["reduce", "jplus", "--regex", "b*ab*", "--u", "a",
                       "--v", %(word)r]))
"""


@pytest.mark.parametrize("v, patched", [
    ("x y x", "loop_removal"),
    ("y x y", "simple_path_word"),
])
def test_jplus_postconditions_checked_under_optimize(v, patched):
    # "xx" embeds in the unrolling of v, but its image [aa] is not s = [a],
    # and not t = [a] for v = y x y; the checks must survive python -O,
    # and `omsemi reduce` reports the broken invariant with exit 2
    word = v.replace("x", "a").replace("y", "b")
    r = subprocess.run([sys.executable, "-O", "-c", _POSTCONDITION_SCRIPT
                        % {"v": v, "patched": patched, "word": word}],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "the images of u' and v' are not s and t\n2\n"
    assert r.stderr == "error: the images of u' and v' are not s and t\n"


def test_jplus_path_builds_no_syntactic_order(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the J+ reduction built a syntactic order")

    monkeypatch.setattr(SyntacticPresentation, "syntactic_order", refuse)
    monkeypatch.setattr(SyntacticPresentation, "ordered_semigroup", refuse)
    u, v = parse_term("x"), parse_term("y x y")
    triple = syntactic_solution_triple("b*ab*", {"x": "a", "y": "b"}, u, v,
                                       mode="inequality")
    assert triple.S.order is None
    assert jplus_word_solution(triple, u, v) == ("x", "x")
    assert cli.main(["reduce", "jplus", "--regex", "b*ab*", "--u", "a",
                     "--v", "b a b"]) == 0
    assert capsys.readouterr().out == "u' = a\nv' = a\n"


def test_jplus_word_solution_requires_inequality_mode():
    C2 = FiniteSemigroup.cyclic(1, 2)
    g = GeneratorMap(C2, {"x": 0})
    triple = SolutionTriple(C2, 0, 0, g)
    with pytest.raises(ValueError):
        jplus_word_solution(triple, Letter("x"), Letter("x"))


def test_jplus_word_solution_checks_evaluation():
    C2 = FiniteSemigroup.cyclic(1, 2)
    g = GeneratorMap(C2, {"x": 0})
    triple = SolutionTriple(C2, C2.identity, C2.identity, g,
                            mode="inequality")
    with pytest.raises(NotASolution):
        jplus_word_solution(triple, Letter("x"), parse_term("x x"))


@pytest.mark.parametrize("u,v,s,t,message", [
    # u's word has more than EXPANSION_CAP letters
    ("x^1000001", "x", 1, 0, "u does not evaluate to s"),
    ("x^2000000", "y", 1, 0, "v does not evaluate to t"),
    # u' = x does not embed into v's word y
    ("x", "y", 0, 0, "v does not evaluate to t"),
])
def test_jplus_wrong_triple_is_refused_before_spelling(u, v, s, t, message):
    # a caller-built triple whose s or t is not the value of u or v raises
    # NotASolution, not the SizeTooLarge or SubwordObstruction that spelling
    # out and embedding the words would raise
    C2 = FiniteSemigroup.cyclic(1, 2)
    g = GeneratorMap(C2, {"x": 0, "y": C2.identity})
    triple = SolutionTriple(C2, s, t, g, mode="inequality")
    with pytest.raises(NotASolution, match=message):
        jplus_word_solution(triple, parse_term(u), parse_term(v))


def test_jplus_word_solution_subword_obstruction():
    triple = syntactic_solution_triple("a(a|b)*", {"x": "a", "y": "b"},
                                       "x", "y", mode="inequality")
    with pytest.raises(SubwordObstruction):
        jplus_word_solution(triple, Letter("x"), Letter("y"))


def test_jplus_word_solution_random_valid_instances():
    rng = random.Random(20242)
    done = 0
    while done < 40:
        S, gm = random_transition_monoid(rng, max_states=5, max_elements=60)
        letters = sorted(gm.assignment)
        g = GeneratorMap(S, {tl: gm(ll)
                             for tl, ll in zip("xy", letters)})
        u = random_term(rng, "xy", depth=2)
        v = random_superterm(rng, u)
        triple = SolutionTriple(S, eval_term(S, g, u), eval_term(S, g, v), g,
                                mode="inequality")
        wu, wv = jplus_word_solution(triple, u, v)
        assert word_image(S, g, wu) == triple.s
        assert word_image(S, g, wv) == triple.t
        assert scattered_subword(wu, wv)
        assert len(wu) < S.n
        states = path_states(S, g, wu)
        assert len(states) == len(set(states))
        done += 1


def test_solution_triple_validation():
    C2 = FiniteSemigroup.cyclic(1, 2)
    g = GeneratorMap(C2, {"x": 0})
    with pytest.raises(ValueError):
        SolutionTriple(C2, 0, 0, g, mode="weird")
    with pytest.raises(ValueError):
        SolutionTriple(C2, 5, 0, g)
    # an inequality instance needs no order: the reduction reads none, and
    # gives the same words as on a copy with an order attached
    u, v = Letter("x"), parse_term("x x x")
    bare = SolutionTriple(C2, 0, 0, g, mode="inequality")
    Co = diagonal_ordered(C2)
    ordered = SolutionTriple(Co, 0, 0, GeneratorMap(Co, {"x": 0}),
                             mode="inequality")
    assert C2.order is None
    assert jplus_word_solution(bare, u, v) == \
        jplus_word_solution(ordered, u, v) == ("x", "x")
    other = GeneratorMap(FiniteSemigroup.cyclic(1, 2), {"x": 0})
    with pytest.raises(ValueError):
        SolutionTriple(C2, 0, 0, other)
    # the records are immutable tuples, and _replace checks like the
    # constructor
    triple = SolutionTriple(C2, 0, 0, g)
    assert triple == (C2, 0, 0, g, "equality")
    with pytest.raises(AttributeError):
        triple.s = 1
    with pytest.raises(ValueError):
        triple._replace(mode="weird")
    with pytest.raises(MalformedTable):
        g._replace(assignment={"x": 5})


@pytest.mark.parametrize("s,t", [(0.5, 0), (True, 0), (1.0, 0), (0, False),
                                 ("0", 0), (None, 0), (0, -1), (3, 0)])
def test_solution_triple_takes_only_elements(s, t):
    C3 = FiniteSemigroup.cyclic(1, 3)
    g = GeneratorMap(C3, {"x": 1})
    with pytest.raises(MalformedTable):
        SolutionTriple(C3, s, t, g)


def test_search_trivial_instance():
    C2 = FiniteSemigroup.cyclic(1, 2)
    g = GeneratorMap(C2, {"x": 0})
    triple = SolutionTriple(C2, C2.identity, C2.identity, g)
    for variety in ("ab", "com", "g"):
        res = bounded_omega_solution_search(triple, variety, max_size=4)
        assert res is not None
        u, v = res
        assert format_term(u) == "x^w"
        assert format_term(v) == "x^w"


def test_search_argument_validation():
    C2 = FiniteSemigroup.cyclic(1, 2)
    g = GeneratorMap(C2, {"x": 0})
    triple = SolutionTriple(C2, 0, 0, g)
    with pytest.raises(ValueError):
        bounded_omega_solution_search(triple, "jplus", max_size=3)
    with pytest.raises(SizeTooLarge):
        bounded_omega_solution_search(triple, "ab", max_size=13)


def com_instance():
    return syntactic_solution_triple(
        COM_LANGUAGE, {"x": "a", "y": "b"},
        "y (x y^2)^(w-1)", "(x^2 y)^(w-1) x")


def test_search_plain_omega_finds_nothing_on_com_instance():
    triple = com_instance()
    assert bounded_omega_solution_search(triple, "com", max_size=10) is None


def test_search_with_omega_minus_one_finds_com_solution():
    triple = com_instance()
    res = bounded_omega_solution_search(triple, "com", max_size=10,
                                        offsets=(0, -1))
    assert res is not None
    u, v = res
    assert format_term(u) == "y (x y y)^(w-1)"
    assert format_term(v) == "x (x y x)^(w-1)"
    S, g = triple.S, triple.gens
    assert eval_term(S, g, u) == triple.s
    assert eval_term(S, g, v) == triple.t
    from omsemi.varieties import com_satisfies
    assert com_satisfies(u, v)
    again = bounded_omega_solution_search(triple, "com", max_size=10,
                                          offsets=(0, -1))
    assert (format_term(again[0]), format_term(again[1])) == \
        (format_term(u), format_term(v))


def test_exponent_system_cases():
    assert integer_exponent_system(
        parse_term("y x y^2"), parse_term("(x y^2)^2"),
        parse_term("x^2 y x"), parse_term("(x^2 y)^2")) == {
            "solution": (-1, -1), "unique": True, "natural": False}
    assert integer_exponent_system(
        parse_term("x y"), parse_term("x^2 y"),
        parse_term("x"), parse_term("x y")) == {
            "solution": (1, 2), "unique": True, "natural": True}
    assert integer_exponent_system(
        parse_term("y"), parse_term("x^2"),
        parse_term("x"), parse_term("y^2")) == {
            "solution": None, "unique": True, "natural": False}
    assert integer_exponent_system(
        parse_term("z"), parse_term("x y"),
        parse_term("z z x y"), parse_term("x")) == {
            "solution": None, "unique": True, "natural": False}
    assert integer_exponent_system(
        parse_term("x"), parse_term("x"),
        parse_term("x"), parse_term("x")) == {
            "solution": None, "unique": False, "natural": False}


def test_report_rendering_and_json():
    report = VerificationReport(section="9")
    report.add("first", True, True)
    report.add("second", 3, 4)
    assert not report.passed
    report.millis = 12.5
    d = report.to_json_dict()
    assert d["millis"] == 0
    assert d["pass"] is False
    assert d["checks"][0] == {"name": "first", "expected": True,
                              "computed": True, "pass": True}
    text = report.render_text()
    assert "  PASS first" in text
    assert "  FAIL second: expected 3, computed 4" in text
    assert "section 9 overall: FAIL (2 checks)" in text


def test_verify_com_counterexample_passes():
    report = verify_com_counterexample()
    assert report.passed
    assert len(report.checks) == 10


def test_verify_groups_counterexample_passes():
    report = verify_groups_counterexample()
    assert report.passed
    assert len(report.checks) == 11


def test_verify_cr_counterexample_passes():
    report = verify_cr_counterexample(bound=4)
    assert report.passed
    assert len(report.checks) == 12
    assert verify_cr_counterexample(bound=5).passed


def test_verify_all_and_determinism():
    def verify_all():
        return [r.to_json_dict() for r in (
            verify_com_counterexample(), verify_groups_counterexample(),
            verify_cr_counterexample(bound=2))]

    first = verify_all()
    second = verify_all()
    assert first == second
    assert [r["section"] for r in first] == ["4", "5", "6"]
    assert all(r["pass"] for r in first)


def test_mutated_com_language_fails(monkeypatch):
    monkeypatch.setattr("omsemi.reducibility.COM_LANGUAGE",
                        "(aabaab)*|(abbbabbb)*")
    report = verify_com_counterexample()
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "syntactic semigroup order" in failed


def test_mutated_groups_language_fails(monkeypatch):
    # a^{>=2} b+ a^2 instead of a^{>=3} b+ a^2: the smaller quotient still
    # keeps {a} as a singleton class, but the order and the class language
    # of s both change
    monkeypatch.setattr("omsemi.reducibility.GROUPS_LANGUAGE", "aaa*bb*aa")
    report = verify_groups_counterexample()
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "syntactic semigroup order" in failed
    assert "class language of s is a^3 a^* b b^* a^2" in failed
    assert "class of a is the singleton {a}" not in failed


def test_mutated_cr_language_fails(monkeypatch):
    monkeypatch.setattr("omsemi.reducibility.CR_LANGUAGE",
                        "aabaab(aab)+(abb)+")
    report = verify_cr_counterexample(bound=2)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "syntactic semigroup order" in failed
