import random
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from omsemi import cli, terms
from omsemi.enumeration import enumerate_semigroups
from omsemi.errors import (InequalityWithoutOrder, SizeTooLarge,
                           UnsupportedPrimePower)
from omsemi.semigroup import FiniteSemigroup, GeneratorMap, green_classes
from omsemi.groups_catalog import all_groups_up_to_24
from omsemi.terms import (
    Concat,
    FinitePower,
    Letter,
    OmegaPower,
    eval_term,
    parse_term,
    satisfies_identity,
)
from omsemi.varieties import (
    ab_satisfies,
    ab_witness,
    check_identity,
    com_satisfies,
    com_witness,
    cr_core,
    cr_sample_satisfies,
    cr_semigroups,
    cr_witness,
    g_satisfies,
    g_witness,
    jplus_leq,
)

from util import full_pool_cr_witness, random_term

P = parse_term

_COMMUTATIVE_4 = None


def commutative_semigroups_up_to_4():
    global _COMMUTATIVE_4
    if _COMMUTATIVE_4 is None:
        _COMMUTATIVE_4 = [
            S for n in range(1, 5) for S in enumerate_semigroups(n)
            if all(S.table[a][b] == S.table[b][a]
                   for a in range(n) for b in range(n))]
    return _COMMUTATIVE_4


def agree_everywhere(groups, u, v):
    for S in groups:
        if not satisfies_identity(S, u, v):
            return False
    return True


def test_spec_level_examples():
    u, v = P("y (x y^2)^(w-1)"), P("(x^2 y)^(w-1) x")
    assert ab_satisfies(P("x y"), P("y x"))
    assert ab_satisfies(u, v)
    assert not ab_satisfies(P("x"), P("x^2"))
    assert com_satisfies(u, v)
    assert not com_satisfies(P("x^w"), P("x"))
    assert com_satisfies(P("x^2 (x^3)^w x"), P("x^(w+3)"))
    assert g_satisfies(P("x^(w-1) y^w x^2"), P("x"))
    assert not g_satisfies(P("x y"), P("y x"))
    assert not g_satisfies(P("x^(w-1) y^(w-1) x y"), P("x^w"))
    assert jplus_leq("xy", "xxy")
    assert not jplus_leq("xyx", "xxy")


def test_absent_letters_count_as_zero():
    # x^w = y^w holds in groups (both are 1) but not in commutative
    # semigroups (an aperiodic zero separates them)
    assert ab_satisfies(P("x^w"), P("y^w"))
    assert not com_satisfies(P("x^w"), P("y^w"))


def test_prime_powers_rejected():
    with pytest.raises(UnsupportedPrimePower):
        ab_satisfies(P("x^(2^w)"), P("x"))
    with pytest.raises(UnsupportedPrimePower):
        com_satisfies(P("x^(3^w)"), P("x"))
    with pytest.raises(UnsupportedPrimePower):
        g_satisfies(P("x^(5^w)"), P("x"))


def test_ab_is_congruence():
    rng = random.Random(83)
    for _ in range(60):
        u = random_term(rng, depth=2)
        v = random_term(rng, depth=2)
        # uv ~ vu always, since letter counts add commutatively
        assert ab_satisfies(Concat(u, v), Concat(v, u))
        if ab_satisfies(u, v):
            w = random_term(rng, depth=1)
            assert ab_satisfies(Concat(u, w), Concat(v, w))
            assert ab_satisfies(Concat(w, u), Concat(w, v))
            k = rng.choice((0, 1, -1))
            assert ab_satisfies(OmegaPower(u, k), OmegaPower(v, k))


def test_ab_soundness_on_abelian_groups():
    abelian = [S for _, S in all_groups_up_to_24()
               if S.n <= 12 and all(S.table[a][b] == S.table[b][a]
                                    for a in range(S.n) for b in range(S.n))]
    assert len(abelian) == 17
    rng = random.Random(89)
    checked = 0
    for _ in range(40):
        u = random_term(rng, depth=2)
        v = random_term(rng, depth=2)
        pairs = [(Concat(u, v), Concat(v, u))]
        if ab_satisfies(u, v):
            pairs.append((u, v))
        for a, b in pairs:
            assert agree_everywhere(abelian, a, b)
            checked += 1
    assert checked >= 40


def test_com_soundness_on_commutative_semigroups():
    sample = commutative_semigroups_up_to_4()
    assert len(sample) == 74
    rng = random.Random(97)
    for _ in range(25):
        u = random_term(rng, depth=2)
        v = random_term(rng, depth=2)
        assert com_satisfies(Concat(u, v), Concat(v, u))
        assert agree_everywhere(sample, Concat(u, v), Concat(v, u))
        if com_satisfies(u, v):
            assert agree_everywhere(sample, u, v)


def test_com_refines_ab():
    rng = random.Random(101)
    for _ in range(150):
        u = random_term(rng, depth=2)
        v = random_term(rng, depth=2)
        if com_satisfies(u, v):
            assert ab_satisfies(u, v)


def test_com_witness_for_finite_exponent_gaps():
    rng = random.Random(103)
    for _ in range(40):
        u = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 7)))
        v = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 7)))
        tu, tv = P(" ".join(u)), P(" ".join(v))
        if com_satisfies(tu, tv):
            continue
        w = com_witness(tu, tv)
        assert w is not None
        _check_witness(w, tu, tv)


def test_com_witness_mixed_exponents():
    for lhs, rhs in [("x^w", "x"), ("x^(w+1)", "x^(w+2)"),
                     ("x^3", "x^(w+3)"), ("x y^(w-1)", "x y^(w+1)")]:
        w = com_witness(P(lhs), P(rhs))
        assert w is not None
        _check_witness(w, P(lhs), P(rhs))


def test_g_soundness_on_catalog():
    groups = [S for _, S in all_groups_up_to_24()]
    rng = random.Random(107)
    for _ in range(25):
        u = random_term(rng, depth=2)
        v = random_term(rng, depth=2)
        # appending an omega power is invisible to every group
        assert g_satisfies(Concat(u, OmegaPower(v, 0)), u)
        assert agree_everywhere(groups[:40], Concat(u, OmegaPower(v, 0)), u)
        if g_satisfies(u, v):
            assert agree_everywhere(groups[:40], u, v)


def test_g_witness_examples():
    w = g_witness(P("x y"), P("y x"))
    assert w is not None and w["order"] == 6 and w["group"] == "S3"
    _check_witness(w, P("x y"), P("y x"))
    w2 = g_witness(P("x^2"), P("x"))
    assert w2 is not None and w2["order"] == 2
    _check_witness(w2, P("x^2"), P("x"))


def _check_witness(w, u, v):
    S = FiniteSemigroup(w["table"])
    g = GeneratorMap(S, w["assignment"])
    assert eval_term(S, g, u) == w["lhs_value"]
    assert eval_term(S, g, v) == w["rhs_value"]
    assert w["lhs_value"] != w["rhs_value"]


def test_jplus_order_laws():
    rng = random.Random(109)
    for _ in range(150):
        u = "".join(rng.choice("xyz") for _ in range(rng.randrange(0, 7)))
        assert jplus_leq(u, u)
        # build v and w by scattering extra letters into u, then v
        v = _scatter(rng, u)
        w = _scatter(rng, v)
        assert jplus_leq(u, v) and jplus_leq(v, w)
        assert jplus_leq(u, w)
        pad = "".join(rng.choice("xyz") for _ in range(3))
        assert jplus_leq(pad + u, pad + v)
        assert jplus_leq(u + pad, v + pad)


def _scatter(rng, u):
    out = list(u)
    for _ in range(rng.randrange(0, 4)):
        out.insert(rng.randrange(len(out) + 1), rng.choice("xyz"))
    return "".join(out)


def test_cr_sample_core_identities():
    assert cr_sample_satisfies(
        P("(x^2 y)^(w-1) (x y^2)^w (x^2 y)^2"), P("x^2 y"), 4)
    assert cr_sample_satisfies(P("(y x) (y^2 x)^w"), P("y x"), 4)
    assert not cr_sample_satisfies(P("x^2"), P("x"), 4)
    w = cr_witness(P("x^2"), P("x"), 4)
    assert w is not None and w["order"] == 2
    _check_witness(w, P("x^2"), P("x"))


def test_cr_pass_sets_shrink_with_bound():
    identities = [("x^(w+1)", "x"), ("x y", "y x"), ("x^2", "x"),
                  ("(x y)^w", "(y x)^w"), ("x^w y^w", "y^w x^w"),
                  ("(x^2 y)^(w-1) (x y^2)^w (x^2 y)^2", "x^2 y")]
    for lhs, rhs in identities:
        u, v = P(lhs), P(rhs)
        previous = True
        for bound in (1, 2, 3, 4):
            now = cr_sample_satisfies(u, v, bound)
            if not previous:
                assert not now
            previous = now


def test_cr_counts_and_guards():
    assert len(cr_semigroups(1)) == 1
    assert len(cr_semigroups(2)) == 5
    assert len(cr_semigroups(3)) == 18
    assert len(cr_semigroups(4)) == 85
    with pytest.raises(SizeTooLarge):
        cr_semigroups(6)
    with pytest.raises(SizeTooLarge):
        cr_sample_satisfies(P("x"), P("x"), 0)


def test_identical_sides_evaluate_nothing(monkeypatch, capsys):
    # twelve letters: |S|^12 assignments per member, hours without the
    # shortcut, so the first evaluation is counted and stops the test
    side = " ".join("abcdefghijkl")
    t, again = parse_term(side), parse_term(side)
    assert t is not again
    calls = []

    def evaluate(*args):
        calls.append(args)
        raise AssertionError("an assignment was evaluated")

    # the block search, and the single evaluation a witness would make
    monkeypatch.setattr(terms, "_block_failure", evaluate)
    monkeypatch.setattr(terms, "_evaluate", evaluate)
    for S in cr_core(4):
        assert terms.find_identity_failure(S, t, again) is None
    assert calls == []
    assert cli.main(["check", "--variety", "cr:4", "--lhs", side,
                     "--rhs", side]) == 0
    assert '"verdict": true' in capsys.readouterr().out
    assert calls == []


# the same tree written with its letter runs cut differently: a run of
# letters is one Word leaf only at the start of a group
RUN_CHAIN = Concat(Concat(Concat(Letter("x"), Letter("y")), Letter("z")),
                   Letter("u"))


@pytest.mark.parametrize("lhs, rhs", [
    (P("x y z u"), P("x y z u")), (P("x y z u"), P("(x y) z u")),
    (P("(x y z) u"), P("x y z u")), (P("x y z u"), RUN_CHAIN),
    (P("(x y z u)^w y x"), P("((x y) z u)^w y x"))])
def test_identical_sides_with_runs_try_no_assignment(monkeypatch, lhs, rhs):
    assert lhs == rhs
    tried = []
    search = terms._block_failure

    def block_failure(*args):
        tried.append(args)
        return search(*args)

    monkeypatch.setattr(terms, "_block_failure", block_failure)
    S = next(S for S in cr_semigroups(4) if S.n == 4)
    assert terms.find_identity_failure(S, lhs, rhs) is None
    assert tried == []
    # sides that differ are searched
    terms.find_identity_failure(S, lhs, P("x y u z"))
    assert len(tried) == 1


@pytest.mark.parametrize("lhs, rhs", [
    ("x y", "y x"), ("x^(w+1)", "x"), ("(x y)^w", "(y x)^w"),
    ("x y x", "x y^(w+1) x"), ("x^w y z", "x^w z y"), ("x^2 y", "x y^2")])
def test_pool_search_agrees_with_each_member(lhs, rhs):
    # one pass over a pool, its postorders and block layouts shared,
    # against a search of its own per member; the pools hold members of
    # several orders, the catalogue some too large for one block
    u, v = P(lhs), P(rhs)
    catalog = [G for _, G in all_groups_up_to_24()]
    for pool in (cr_semigroups(4), catalog):
        assert list(terms.identity_failures(pool, u, v)) == \
            [terms.find_identity_failure(S, u, v) for S in pool]


def test_pool_search_error_order():
    x, xy = P("x"), P("x y")
    plain = FiniteSemigroup.cyclic(1, 2)
    # a bad mode is refused before a member's missing order
    with pytest.raises(ValueError):
        next(terms.identity_failures([plain], x, xy, mode="equal"))
    with pytest.raises(ValueError):
        terms.find_identity_failure(plain, x, xy, mode="equal")
    # an unordered member is refused when it is reached, identical sides
    # or not
    for rhs in (xy, P("x")):
        found = terms.identity_failures([plain], x, rhs, mode="inequality")
        with pytest.raises(InequalityWithoutOrder):
            next(found)


def test_cr_semigroups_match_identity_filter():
    # the semigroups satisfying x^(w+1) = x under every assignment, in
    # enumeration order, against the omega-power test over each element
    cr = [S.table for n in range(1, 6) for S in enumerate_semigroups(n)
          if satisfies_identity(S, P("x^(w+1)"), P("x"))]
    for bound in range(1, 6):
        assert [S.table for S in cr_semigroups(bound)] == \
            [t for t in cr if len(t) <= bound]
    assert len(cr_semigroups(5)) == 438


def test_cr_l_equivalence_is_two_omega_identities():
    # in a completely regular semigroup a L b iff a b^w = a and b a^w = b,
    # which lets section 6 check "q p L q^2 p" as two identities;
    # cr_semigroups(5) holds cr_semigroups(4) as its first members
    pairs = 0
    for S in cr_semigroups(5):
        l_class = {a: cls for cls in green_classes(S).l for a in cls}
        for a in range(S.n):
            for b in range(S.n):
                absorbs = (S.table[a][S.omega_plus_k(b, 0)] == a
                           and S.table[b][S.omega_plus_k(a, 0)] == b)
                assert absorbs == (b in l_class[a])
                pairs += 1
    assert pairs == 10031


def _cr_rewrite(rng, t):
    """A term equal to t in every completely regular semigroup, by one
    rewrite at a random node: s -> s^(w+1), s^(w+k) -> s^(w+k-1) s or
    s s^(w+k-1), s^(w+k) <-> s^k for k >= 1, and
    (s r)^(w+1) -> s (r s)^w r."""
    if type(t) is Concat and rng.random() < 0.7:
        if rng.random() < 0.5:
            return Concat(_cr_rewrite(rng, t.left), t.right)
        return Concat(t.left, _cr_rewrite(rng, t.right))
    if type(t) not in (Letter, Concat) and rng.random() < 0.4:
        exponent = getattr(t, type(t).__slots__[1])  # its k, p or m
        return type(t)(_cr_rewrite(rng, t.base), exponent)
    moves = [OmegaPower(t, 1)]
    if type(t) is OmegaPower:
        s, k = t.base, t.k
        moves += [Concat(OmegaPower(s, k - 1), s),
                  Concat(s, OmegaPower(s, k - 1))]
        if k >= 1:
            moves.append(FinitePower(s, k))
        if k == 1 and type(s) is Concat:
            moves.append(Concat(s.left, Concat(
                OmegaPower(Concat(s.right, s.left), 0), s.right)))
    if type(t) is FinitePower:
        moves.append(OmegaPower(t.base, t.m))
    return rng.choice(moves)


def _core_against_full_pool(rng, rewrite, bound, alphabet):
    # prime-omega and omega-1 powers included; a rewrite must hold
    u = random_term(rng, alphabet, offsets=(0, 1, -1), primes=(2, 3))
    v = (_cr_rewrite(rng, u) if rewrite
         else random_term(rng, alphabet, offsets=(0, 1, -1), primes=(2, 3)))
    witness = cr_witness(u, v, bound)
    assert witness == full_pool_cr_witness(u, v, bound)
    if rewrite:
        assert witness is None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.booleans(),
       st.sampled_from([(3, "xyz"), (4, "xy")]))
def test_cr_core_verdict_equals_full_pool(rng, rewrite, case):
    _core_against_full_pool(rng, rewrite, *case)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.booleans())
def test_cr_core_verdict_equals_full_pool_at_bound_five(rng, rewrite):
    _core_against_full_pool(rng, rewrite, 5, "xy")


@lru_cache(maxsize=None)
def _partitions(n):
    """Every set partition of range(n), as its restricted growth string."""
    return [p for p in product(range(n), repeat=n)
            if all(p[i] <= max(p[:i], default=-1) + 1 for i in range(n))]


def _minimal_congruences(t):
    """The minimal members of the congruences of table t other than
    equality, found among all set partitions."""
    n = len(t)
    congruences = [p for p in _partitions(n) if len(set(p)) < n and all(
        p[t[a][c]] == p[t[b][c]] and p[t[c][a]] == p[t[c][b]]
        for a in range(n) for b in range(n) if p[a] == p[b]
        for c in range(n))]

    def finer(q, p):
        return q != p and all(p[a] == p[b] for a in range(n)
                              for b in range(n) if q[a] == q[b])

    return [p for p in congruences
            if not any(finer(q, p) for q in congruences)]


def _embeds(s, t):
    """Is table s isomorphic to a subsemigroup of table t?"""
    n = len(s)
    return any(all(f[s[a][b]] == t[f[a]][f[b]]
                   for a in range(n) for b in range(n))
               for f in permutations(range(len(t)), n))


def test_cr_core_against_brute_force():
    assert [len(cr_core(b)) for b in range(2, 6)] == [4, 6, 7, 11]
    # cr_semigroups(5) holds each smaller sample as its first members
    irreducible = [S.table for S in cr_semigroups(5)
                   if len(_minimal_congruences(S.table)) == 1]
    for bound in range(2, 6):
        core = [S.table for S in cr_core(bound)]
        for t in core:
            assert len(_minimal_congruences(t)) == 1
        for s, t in permutations(core, 2):
            assert not _embeds(s, t)
        for s in irreducible:
            if len(s) <= bound:
                assert any(_embeds(s, t) for t in core)


def test_check_identity_dispatch():
    r = check_identity("ab", "x y", "y x")
    assert r["verdict"] is True and r["witness"] is None
    r = check_identity("com", "x^w", "x")
    assert r["verdict"] is False and r["witness"]["order"] == 2
    r = check_identity("g", "x y", "y x")
    assert r["verdict"] is False and r["witness"]["group"] == "S3"
    r = check_identity("jplus", "xy", "xxy", leq=True)
    assert r["verdict"] is True
    r = check_identity("jplus", "x y x", "x y", leq=True)
    assert r["verdict"] is False
    assert r["witness"] == {"obstruction_word": "xyx"}
    r = check_identity("jplus", "xy", "xxy")
    assert r["verdict"] is False
    assert r["witness"] == {"obstruction_word": "xxy"}
    r = check_identity("cr:4", "(y x) (y^2 x)^w", "y x")
    assert r["verdict"] is True
    with pytest.raises(ValueError):
        check_identity("ab", "x", "x", leq=True)
    with pytest.raises(ValueError):
        check_identity("nope", "x", "x")
    with pytest.raises(ValueError):
        check_identity("cr:x", "x", "x")


def test_ab_witness_example():
    w = ab_witness(P("x"), P("x^2"))
    assert w is not None
    _check_witness(w, P("x"), P("x^2"))


def test_ab_witness_past_twelve():
    # 27720 = lcm(1..12), so the least modulus that separates is 13
    w = ab_witness(P("x^27721"), P("x"))
    assert w is not None and w["order"] == 13
    _check_witness(w, P("x^27721"), P("x"))
    assert check_identity("ab", "x^27721", "x")["witness"] == w
    w = ab_witness(P("x^(w+27721) y"), P("y x^(w+1)"))
    assert w is not None and w["order"] == 13


def test_ab_witness_none_on_ab_equal_pairs():
    for lhs, rhs in [("x y", "y x"), ("x^(w-1) y x", "y"),
                     ("x^27721 y^w", "y^(w+1) x^27721 y^(w-1)")]:
        assert ab_satisfies(P(lhs), P(rhs))
        assert ab_witness(P(lhs), P(rhs)) is None
