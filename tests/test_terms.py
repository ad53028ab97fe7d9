import random
import time

import pytest

from omsemi.errors import (
    DepthCap,
    InequalityWithoutOrder,
    ParseError,
    SizeTooLarge,
    UnsupportedPrimePower,
)
from omsemi.semigroup import FiniteSemigroup, GeneratorMap
from omsemi.terms import (
    EXPANSION_CAP,
    PRIME_TEST_CAP,
    Concat,
    FinitePower,
    Letter,
    OmegaPower,
    PrimeOmegaPower,
    Word,
    ab_image,
    bounded_factors,
    com_exponents,
    commutator,
    eval_term,
    expand_for_factors,
    find_identity_failure,
    format_term,
    free_group_normal_form,
    iterated_commutator,
    normal_form,
    parse_term,
    satisfies_identity,
    term_alphabet,
    unroll,
    _is_prime,
    _postorder,
)
from omsemi.syntactic import syntactic_semigroup
from omsemi.varieties import _jplus_word, check_identity

from util import (
    full_transformation_monoid,
    naive_power_signed,
    random_generator_map,
    random_small_semigroup,
    random_term,
    rectangular_band,
)


def test_parse_basic_shapes():
    t = parse_term("xy")
    assert t == Concat(Letter("x"), Letter("y"))
    assert parse_term("x^w") == OmegaPower(Letter("x"), 0)
    assert parse_term("x^(w+2)") == OmegaPower(Letter("x"), 2)
    assert parse_term("x^(w-1)") == OmegaPower(Letter("x"), -1)
    assert parse_term("x^(2^w)") == PrimeOmegaPower(Letter("x"), 2)
    assert parse_term("x^3") == FinitePower(Letter("x"), 3)
    assert parse_term("(x y)^w") == OmegaPower(Concat(Letter("x"), Letter("y")), 0)


def test_parse_composite_term():
    t = parse_term("(x^2 y)^(w-1) (x y^2)^w (x^2 y)^2")
    base = Concat(FinitePower(Letter("x"), 2), Letter("y"))
    assert isinstance(t, Concat)
    assert term_alphabet(t) == {"x", "y"}
    assert len(_postorder(parse_term("x"))) == 1
    # a group's leading run of two or more letters is one Word leaf; a
    # power takes the letter before it, and later letters stay Letters
    assert [type(node) for node in _postorder(parse_term("x y"))] == [Word]
    assert _postorder(parse_term("x y z^2 x"))[0].run == "xy"
    assert [type(node) for node in _postorder(parse_term("x y z^2 x"))] == [
        Word, Letter, FinitePower, Concat, Letter, Concat]
    assert len(_postorder(parse_term("x^w"))) == 2
    # stacked powers bind to the atom on their left
    assert parse_term("x^2^w") == OmegaPower(FinitePower(Letter("x"), 2), 0)
    assert OmegaPower(base, -1) == t.left.left


def test_parse_errors():
    for bad in ["", "()", "x^0", "x^(w*1)", "(x", "x)", "x^", "x^(4^w)",
                "x^(w+)", "2x", "x^-1", "x^(w"]:
        with pytest.raises(ParseError):
            parse_term(bad)


def test_parse_errors_on_numbers_int_rejects():
    # past int()'s 4300-digit limit, and a digit that is not decimal
    for bad in ["x^" + "9" * 5000, "x^(w+" + "9" * 5000 + ")", "x^\u00b2"]:
        with pytest.raises(ParseError):
            parse_term(bad)
    assert parse_term("x^" + "9" * 4300).m == int("9" * 4300)


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_prime_test_matches_trial_division():
    assert [p for p in range(20001) if _is_prime(p)] == [
        p for p in range(20001) if _trial_division(p)]


def test_prime_test_on_large_exponents():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime up
    # to 23: composite, and refused
    for composite in (3215031751, 3825123056546413051):
        assert not _is_prime(composite)
        with pytest.raises(ParseError, match="not prime"):
            parse_term("x^(%d^w)" % composite)
    start = time.perf_counter()
    t = parse_term("x^(1000000000000000003^w)")
    assert time.perf_counter() - start < 1
    assert t == PrimeOmegaPower(Letter("x"), 10 ** 18 + 3)
    with pytest.raises(ParseError, match="below"):
        parse_term("x^(%d^w)" % PRIME_TEST_CAP)


def test_expansion_cap():
    S = FiniteSemigroup.cyclic(1, 2)
    targets = [(S, GeneratorMap(S, {"x": 0}))]
    at_cap = parse_term("x^%d" % EXPANSION_CAP)
    assert len(expand_for_factors(at_cap, 2)) == EXPANSION_CAP
    assert len(unroll(at_cap, targets)) == EXPANSION_CAP
    assert len(free_group_normal_form(at_cap)) == EXPANSION_CAP
    assert len(_jplus_word("x^%d" % EXPANSION_CAP)) == EXPANSION_CAP
    squares = "x" + "^2" * 20   # 2^20 letters, just past the cap
    for text in ("x^%d" % (EXPANSION_CAP + 1), squares,
                 "x^%d x" % EXPANSION_CAP):
        t = parse_term(text)
        for expansion in (lambda: expand_for_factors(t, 2),
                          lambda: unroll(t, targets),
                          lambda: free_group_normal_form(t),
                          lambda: _jplus_word(text)):
            with pytest.raises(SizeTooLarge):
                expansion()
    # omega powers count k + 2 times in factor expansion, the exponent it
    # picks (here at least pad) in unroll, and |k| times in the free group
    # image, where only reduced words count
    wide = parse_term("(x^%d)^w" % (EXPANSION_CAP // 2))
    with pytest.raises(SizeTooLarge):
        expand_for_factors(wide, 1)
    with pytest.raises(SizeTooLarge):
        unroll(wide, targets, pad=3)
    assert len(free_group_normal_form(wide)) == 0
    with pytest.raises(SizeTooLarge):
        free_group_normal_form(parse_term("(x^%d)^(w-3)"
                                          % (EXPANSION_CAP // 2)))
    assert free_group_normal_form(parse_term(
        "(x x^(w-1))^%d" % (2 * EXPANSION_CAP))) == ()


def _flat(t):
    # concatenation is associative, so compare terms modulo grouping
    if isinstance(t, Concat):
        return _flat(t.left) + _flat(t.right)
    if isinstance(t, Letter):
        return (t,)
    if isinstance(t, OmegaPower):
        return (OmegaPower(concat_of(_flat(t.base)), t.k),)
    if isinstance(t, PrimeOmegaPower):
        return (PrimeOmegaPower(concat_of(_flat(t.base)), t.p),)
    return (FinitePower(concat_of(_flat(t.base)), t.m),)


def concat_of(parts):
    out = parts[0]
    for p in parts[1:]:
        out = Concat(out, p)
    return out


def test_format_parse_roundtrip():
    rng = random.Random(51)
    for _ in range(300):
        t = random_term(rng, depth=3, primes=(2, 3))
        back = parse_term(format_term(t))
        assert _flat(back) == _flat(t)
        assert format_term(back) == format_term(t)


def test_eval_monogenic_examples():
    # C(3,1): x^(w+1) = s^3 since the cycle is the fixed point s^3
    S = FiniteSemigroup.cyclic(3, 1)
    g = GeneratorMap(S, {"x": 0})
    assert eval_term(S, g, parse_term("x^(w+1)")) == 2
    assert eval_term(S, g, parse_term("x^w")) == 2
    # C(1,3): omega power is the identity, offsets walk the cycle
    G = FiniteSemigroup.cyclic(1, 3)
    h = GeneratorMap(G, {"x": 0})
    assert eval_term(G, h, parse_term("x^w")) == G.identity
    assert eval_term(G, h, parse_term("x^(w-1)")) == 1
    assert eval_term(G, h, parse_term("x^(2^w)")) == 0


def test_eval_concat_and_powers():
    S, elems = full_transformation_monoid(2)
    g = GeneratorMap(S, {"x": elems.index((1, 0)), "y": elems.index((0, 0))})
    xy = eval_term(S, g, parse_term("x y"))
    assert xy == S.table[g("x")][g("y")]
    assert eval_term(S, g, parse_term("x^2")) == S.identity
    assert eval_term(S, g, parse_term("(x^2)^w")) == S.identity
    assert eval_term(S, g, parse_term("y^w")) == g("y")


def test_eval_matches_unrolled_word():
    rng = random.Random(53)
    for _ in range(400):
        t = random_term(rng, depth=3, offsets=(0, 1, -1, 2, -2),
                        primes=(2, 3, 5))
        targets = []
        for _ in range(rng.randrange(1, 4)):
            S = random_small_semigroup(rng)
            targets.append((S, random_generator_map(rng, S)))
        word = unroll(t, targets)
        assert word
        for S, g in targets:
            assert g.image_of_word(word) == eval_term(S, g, t)


def test_unroll_minimal_exponents():
    G2 = FiniteSemigroup.cyclic(1, 2)
    C31 = FiniteSemigroup.cyclic(3, 1)
    gx = lambda S: GeneratorMap(S, {"x": 0})
    t = parse_term("x^(w+1)")
    assert unroll(t, [(G2, gx(G2))]) == "x"
    assert unroll(t, [(C31, gx(C31))]) == "xxx"
    assert unroll(t, [(G2, gx(G2)), (C31, gx(C31))]) == "xxx"
    assert unroll(parse_term("x^w"), [(G2, gx(G2))]) == "xx"


def test_unroll_prime_power_crt():
    G2 = FiniteSemigroup.cyclic(1, 2)
    G3 = FiniteSemigroup.cyclic(1, 3)
    gx = lambda S: GeneratorMap(S, {"x": 0})
    t = parse_term("x^(2^w)")
    assert unroll(t, [(G3, gx(G3))]) == "x"
    assert unroll(t, [(G2, gx(G2))]) == "xx"
    # residues 1 mod 3 and 0 mod 2 merge to 4 mod 6
    assert unroll(t, [(G2, gx(G2)), (G3, gx(G3))]) == "xxxx"


def test_unroll_pad_keeps_image_and_extends():
    from omsemi.words import scattered_subword
    rng = random.Random(59)
    for _ in range(200):
        t = random_term(rng, depth=2)
        S = random_small_semigroup(rng)
        g = random_generator_map(rng, S)
        short = unroll(t, [(S, g)])
        long = unroll(t, [(S, g)], pad=7)
        assert g.image_of_word(long) == g.image_of_word(short)
        assert scattered_subword(short, long)


def test_ab_image_examples():
    assert ab_image(parse_term("x^w")) == {"x": 0}
    assert ab_image(parse_term("x^(w+2) y")) == {"x": 2, "y": 1}
    u = parse_term("y (x y^2)^(w-1)")
    v = parse_term("(x^2 y)^(w-1) x")
    assert ab_image(u) == {"x": -1, "y": -1}
    assert ab_image(v) == {"x": -1, "y": -1}
    with pytest.raises(UnsupportedPrimePower):
        ab_image(parse_term("x^(2^w)"))


def test_com_exponents_examples():
    # x^2 (x^3)^w x has exponent omega+3: the omega power freezes the block
    t = parse_term("x^2 (x^3)^w x")
    assert com_exponents(t) == {"x": (True, 3)}
    u = parse_term("y (x y^2)^(w-1)")
    v = parse_term("(x^2 y)^(w-1) x")
    assert com_exponents(u) == {"x": (True, -1), "y": (True, -1)}
    assert com_exponents(u) == com_exponents(v)
    assert com_exponents(parse_term("x y x")) == \
        {"x": (False, 2), "y": (False, 1)}
    # omega of omega collapses: (x^w)^(w+5) has the same image as x^w
    assert com_exponents(parse_term("(x^w)^(w+5)")) == \
        com_exponents(parse_term("x^w"))
    with pytest.raises(UnsupportedPrimePower):
        com_exponents(parse_term("(x y)^(3^w)"))


# term -> letter -> its com exponent, an (infinite, value) pair
COM_EXPONENT_PINS = {
    "x^(w-1) x": {"x": (True, 0)},
    "(x y^2)^(w+3) x^5": {"x": (True, 8), "y": (True, 6)},
    "((x^2)^w)^3": {"x": (True, 0)},
    "x y x": {"x": (False, 2), "y": (False, 1)},
}


def test_com_exponents_pins():
    for text, want in COM_EXPONENT_PINS.items():
        got = com_exponents(parse_term(text))
        assert all(type(e) is tuple for e in got.values())
        assert got == want


def test_com_normal_form_is_the_sorted_exponents():
    rng = random.Random(19)
    for _ in range(300):
        t = random_term(rng, depth=rng.randrange(1, 6),
                        offsets=(-2, -1, 0, 1, 2))
        assert normal_form("com", t) == tuple(sorted(com_exponents(t).items()))


# term -> its com normal form: sums, omega powers and finite powers of
# the (infinite, value) multiplicities
COM_ARITHMETIC = {
    "x^2 x^3": (("x", (False, 5)),),
    "x^2 x^(w-1)": (("x", (True, 1)),),
    "x^(w+1) x^(w+2)": (("x", (True, 3)),),
    "x^(w+5) y": (("x", (True, 5)), ("y", (False, 1))),
    "(x^2)^(w-1)": (("x", (True, -2)),),
    "(x^(w+3))^(w+2)": (("x", (True, 6)),),
    "(x^3)^4": (("x", (False, 12)),),
    "(x^(w-1))^2": (("x", (True, -2)),),
}


def test_exponent_value_arithmetic():
    for text, want in COM_ARITHMETIC.items():
        assert normal_form("com", parse_term(text)) == want, text


def test_free_group_normal_form():
    assert free_group_normal_form(parse_term("x^w")) == ()
    assert free_group_normal_form(parse_term("x^(w-1)")) == (("x", -1),)
    assert free_group_normal_form(parse_term("x^(w-1) y^w x^2")) == (("x", 1),)
    nf = free_group_normal_form(commutator(Letter("x"), Letter("y")))
    assert nf == (("x", -1), ("y", -1), ("x", 1), ("y", 1))
    assert free_group_normal_form(parse_term("x y y^(w-1) x^(w-1)")) == ()
    assert free_group_normal_form(parse_term("x y y^(w-1) y x^(w-1)")) == \
        (("x", 1), ("y", 1), ("x", -1))
    with pytest.raises(UnsupportedPrimePower):
        free_group_normal_form(parse_term("x^(5^w)"))


def test_free_group_powers_match_naive():
    rng = random.Random(61)
    for _ in range(100):
        t = random_term(rng, depth=2)
        # a conjugate s t s^-1, whose powers need the cyclic reduction
        s = random_term(rng, depth=1)
        for base in (t, concat_of([s, t, OmegaPower(s, -1)])):
            nf = list(free_group_normal_form(base))
            for k in (2, 3):
                got = free_group_normal_form(FinitePower(base, k))
                want = free_group_normal_form(concat_of([base] * k))
                assert got == want
            for k in (-3, -2, -1, 0, 1, 2, 3):
                got = free_group_normal_form(OmegaPower(base, k))
                assert got == tuple(naive_power_signed(nf, k))


def test_free_group_powers_of_long_exponents():
    # cyclic reduction keeps these linear in |w| |k|
    assert free_group_normal_form(parse_term("(x y)^(w+20000)")) == \
        (("x", 1), ("y", 1)) * 20000
    assert free_group_normal_form(parse_term("(x y x^(w-1))^1000")) == \
        (("x", 1),) + (("y", 1),) * 1000 + (("x", -1),)
    assert free_group_normal_form(parse_term("(x y x^(w-1))^(w-3000)")) == \
        (("x", 1),) + (("y", -1),) * 3000 + (("x", -1),)


def test_free_group_runs_answer_past_the_letter_cap():
    # the cap counts runs in g: a power of one run is one run, and a core
    # whose ends share a letter repeats with the seam merged
    answer = check_identity("g", "x^1000001", "x")
    assert answer["verdict"] is False and answer["witness"]["group"] == "C3"
    assert check_identity("g", "(x y x^(w-1))^1000001",
                          "x y^1000001 x^(w-1)")["verdict"] is True
    for text, runs in (("(x y)^500000", EXPANSION_CAP),
                       ("(x y x)^499999", EXPANSION_CAP - 1)):
        assert len(normal_form("g", parse_term(text))) == runs
    for text in ("(x y)^(w+2000000)", "(x y)^500001", "(x y x)^500000",
                 "(x y x)^(w-500000)"):
        with pytest.raises(SizeTooLarge, match="1000000 runs"):
            normal_form("g", parse_term(text))


def test_bounded_factors_simple():
    fd = bounded_factors(parse_term("x^w"), 3)
    assert fd.factors == {"x", "xx", "xxx"}
    assert fd.prefix == "xxx" and fd.suffix == "xxx"
    fd2 = bounded_factors(parse_term("(x y)^w"), 2)
    assert fd2.factors == {"x", "y", "xy", "yx"}
    assert fd2.prefix == "xy" and fd2.suffix == "xy"


def test_bounded_factors_of_commutators():
    fd = bounded_factors(iterated_commutator(2), 3)
    assert "xyx" in fd.factors and "yxy" in fd.factors


def test_bounded_factors_stability():
    # expanding omega powers further never changes the bounded factor data
    from omsemi.words import factors_up_to
    rng = random.Random(67)
    for _ in range(100):
        t = random_term(rng, depth=2, primes=(2,))
        for k in (1, 2, 3):
            fd = bounded_factors(t, k)
            w_more = _expand_with(t, k + 4)
            assert fd.factors == frozenset(factors_up_to(w_more, k))
            assert fd.prefix == w_more[:k]
            assert fd.suffix == w_more[-k:]


def _expand_with(t, m):
    if isinstance(t, Letter):
        return t.ch
    if isinstance(t, Concat):
        return _expand_with(t.left, m) + _expand_with(t.right, m)
    if isinstance(t, FinitePower):
        return _expand_with(t.base, m) * t.m
    return _expand_with(t.base, m) * m


def test_commutator_shapes():
    assert format_term(commutator(Letter("x"), Letter("y"))) == \
        "x^(w-1) y^(w-1) x y"
    c2 = iterated_commutator(2)
    c1 = iterated_commutator(1)
    assert c2 == commutator(c1, Letter("y"))
    with pytest.raises(DepthCap):
        iterated_commutator(9)
    iterated_commutator(8)


def test_satisfies_identity_equality():
    T3, _ = full_transformation_monoid(3)
    lhs, rhs = parse_term("x^(w+1)"), parse_term("x")
    assert not satisfies_identity(T3, lhs, rhs)
    bad = find_identity_failure(T3, lhs, rhs)
    assert bad is not None
    G = FiniteSemigroup.cyclic(1, 6)
    assert satisfies_identity(G, lhs, rhs)
    assert satisfies_identity(G, parse_term("x y"), parse_term("y x"))
    B = rectangular_band(2, 2)
    assert satisfies_identity(B, lhs, rhs)
    assert not satisfies_identity(B, parse_term("x y"), parse_term("y x"))


def test_satisfies_identity_witness_is_minimal_failure():
    # the witness in the full transformation monoid on 3 points maps x to a
    # non-regular-power element like (1,2,2): index 2, period 1
    T3, elems = full_transformation_monoid(3)
    bad = find_identity_failure(T3, parse_term("x^(w+1)"), parse_term("x"))
    x = bad["x"]
    data = T3.monogenic_data(x)
    assert data.index > 1


def test_satisfies_identity_inequality():
    sp = syntactic_semigroup("(a|b)*a(a|b)*")
    S = sp.ordered_semigroup()
    assert satisfies_identity(S, parse_term("x"), parse_term("x y"),
                              mode="inequality")
    assert not satisfies_identity(S, parse_term("x y"), parse_term("x"),
                                  mode="inequality")
    plain = FiniteSemigroup.cyclic(1, 2)
    with pytest.raises(InequalityWithoutOrder):
        satisfies_identity(plain, parse_term("x"), parse_term("x y"),
                           mode="inequality")
