"""Acceptance suite: one test per headline guarantee.

Each test states a contract the package promises: the three verification
suites pass inside their time budgets, the constructive algorithms never
fail on randomized valid inputs, the identity deciders agree with
exhaustive oracles, and the command-line reports are byte-deterministic.
"""

import hashlib
import json
import random
import subprocess
import sys
import time

from omsemi.enumeration import enumerate_semigroups
from omsemi.reducibility import (
    SolutionTriple,
    bounded_omega_solution_search,
    jplus_word_solution,
    loop_removal,
    syntactic_solution_triple,
)
from omsemi.semigroup import FiniteSemigroup, GeneratorMap
from omsemi.terms import (com_exponents, eval_term, parse_term,
                           satisfies_identity)
from omsemi.varieties import com_satisfies, com_witness, g_satisfies
from omsemi.words import is_cube_free, ptm_iterate, scattered_subword
from omsemi.reducibility import (
    verify_com_counterexample,
    verify_cr_counterexample,
    verify_groups_counterexample,
)

from util import (
    random_superterm,
    random_term,
    random_transition_monoid,
    naive_power,
)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def test_com_counterexample_verifies_under_a_second():
    report, secs = timed(verify_com_counterexample)
    assert report.passed
    assert secs < 1.0


def test_groups_counterexample_verifies_under_a_second():
    report, secs = timed(verify_groups_counterexample)
    assert report.passed
    assert secs < 1.0


def test_cr_counterexample_verifies_at_bound_four():
    report, secs = timed(verify_cr_counterexample, bound=4)
    assert report.passed
    assert secs < 60.0


def test_jplus_reduction_on_a_thousand_random_instances():
    rng = random.Random(1009)
    failures = 0
    lines = []
    for i in range(1000):
        S, gm = random_transition_monoid(rng, max_states=6, max_elements=120)
        letters = sorted(gm.assignment)
        g = GeneratorMap(S, {tl: gm(ll) for tl, ll in zip("xy", letters)})
        u = random_term(rng, "xy", depth=2)
        v = random_superterm(rng, u)
        triple = SolutionTriple(S, eval_term(S, g, u), eval_term(S, g, v),
                                g, mode="inequality")
        wu, wv = jplus_word_solution(triple, u, v)
        img = lambda w: eval_term(S, g, parse_term(" ".join(w))) if w \
            else S.identity
        if not (img(wu) == triple.s and img(wv) == triple.t
                and scattered_subword(wu, wv)):
            failures += 1
        lines.append("%s %s" % (wu, wv))
    assert failures == 0
    # the output stream is pinned: loop removal, the leftmost embedding and
    # the shortest gap words each fix one word among many valid ones
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "b2399257ee5a357ecb35648f03fb1be83326bd2b389072f5abd9650149290aae")


def test_loop_removal_on_five_hundred_random_monoids():
    rng = random.Random(1013)
    failures = 0
    for i in range(500):
        M, gm = random_transition_monoid(rng, max_states=4, max_elements=30)
        letters = sorted(gm.assignment)
        word = "".join(rng.choice(letters) for _ in range(rng.randrange(61)))
        out = loop_removal(word, M, gm)
        image = M.identity
        for ch in word:
            image = M.table[image][gm(ch)]
        image_out = M.identity
        for ch in out:
            image_out = M.table[image_out][gm(ch)]
        if not (len(out) < M.n and image_out == image
                and scattered_subword(out, word)):
            failures += 1
    assert failures == 0


def naive_omega_data(S, s):
    """Idempotent power and period of s by plain iteration."""
    seen = {}
    powers = []
    e = s
    k = 1
    while e not in seen:
        seen[e] = k
        powers.append(e)
        e = S.table[e][s]
        k += 1
    period = k - seen[e]
    idem = next(p for p in powers if S.table[p][p] == p)
    return idem, period


def test_power_operations_agree_with_naive_iteration():
    from util import random_small_semigroup
    rng = random.Random(1019)
    for _ in range(100):
        S = random_small_semigroup(rng)
        for s in range(S.n):
            idem, period = naive_omega_data(S, s)
            assert S.omega_plus_k(s, 0) == idem
            for k in range(-7, 8):
                expected = idem
                for _ in range(k % period):
                    expected = S.table[expected][s]
                assert S.omega_plus_k(s, k) == expected
            for k in range(1, 9):
                assert S.power(s, k) == naive_power(S, s, k)


def commutative_semigroups_up_to(bound):
    out = []
    xy, yx = parse_term("x y"), parse_term("y x")
    for n in range(1, bound + 1):
        out.extend(S for S in enumerate_semigroups(n)
                   if satisfies_identity(S, xy, yx))
    return out


def test_com_decider_sound_against_exhaustive_evaluation():
    from util import commuted_copy
    sample = commutative_semigroups_up_to(4)
    assert len(sample) == 74
    rng = random.Random(1021)
    checked = 0
    for i in range(200):
        u = random_term(rng, "xy", 2)
        # even rounds pair u with a reordering that is equal by
        # construction; odd rounds with an unrelated term
        v = commuted_copy(rng, u) if i % 2 == 0 else random_term(rng, "xy", 2)
        verdict = com_satisfies(u, v)
        if i % 2 == 0:
            assert verdict
        if verdict:
            for S in sample:
                assert satisfies_identity(S, u, v)
            checked += 1
    assert checked >= 100


def test_com_witness_found_for_small_exponent_differences():
    rng = random.Random(1031)
    found = 0
    while found < 100:
        u = random_term(rng, "xy", 2)
        v = random_term(rng, "xy", 2)
        if com_satisfies(u, v):
            continue
        exps = list(com_exponents(u).values()) + list(com_exponents(v).values())
        if any(abs(value) > 6 for _, value in exps):
            continue
        w = com_witness(u, v)
        assert w is not None
        S = FiniteSemigroup(w["table"])
        g = GeneratorMap(S, w["assignment"])
        assert eval_term(S, g, u) == w["lhs_value"]
        assert eval_term(S, g, v) == w["rhs_value"]
        assert w["lhs_value"] != w["rhs_value"]
        found += 1


def test_group_decider_sound_against_catalog():
    from omsemi.groups_catalog import all_groups_up_to_24
    groups = all_groups_up_to_24()
    rng = random.Random(1033)
    checked = 0
    for _ in range(200):
        u = random_term(rng, "xy", 2)
        v = random_term(rng, "xy", 2)
        if g_satisfies(u, v):
            for name, G in groups:
                assert satisfies_identity(G, u, v), name
            checked += 1
    assert checked > 20


def test_thue_morse_iterates():
    t0 = time.perf_counter()
    for n in range(17):
        assert len(ptm_iterate(n)) == 2 ** n
    assert is_cube_free(ptm_iterate(12))
    assert time.perf_counter() - t0 < 1.0


def test_bounded_search_separates_omega_signatures():
    triple = syntactic_solution_triple(
        "(aabaab)*|(abbabb)*", {"x": "a", "y": "b"},
        "y (x y^2)^(w-1)", "(x^2 y)^(w-1) x")
    t0 = time.perf_counter()
    assert bounded_omega_solution_search(triple, "com", max_size=10) is None
    res = bounded_omega_solution_search(triple, "com", max_size=10,
                                        offsets=(0, -1))
    assert res is not None
    u, v = res
    S, g = triple.S, triple.gens
    assert eval_term(S, g, u) == triple.s
    assert eval_term(S, g, v) == triple.t
    assert com_satisfies(u, v)
    assert time.perf_counter() - t0 < 300.0


def test_cli_verification_report_is_byte_deterministic():
    cmd = [sys.executable, "-m", "omsemi.cli", "verify-paper",
           "--section", "all", "--json", "-"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    docs = json.loads(r1.stdout)
    assert all(doc["pass"] for doc in docs)
