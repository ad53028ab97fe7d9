"""The bounded omega-term search: it returns the pair of the search over all
terms (kept in util as its oracle), the class congruence that lets it keep
one term per (value, normal form) class, the one normal-form definition
per variety that the search and terms.normal_form share, checked against
the recursive oracles (g's runs spelt out, with exponents up to 50 and up
to 10^9), its pins on the commutative instance at bounds the full
enumeration cannot reach, and its argument and size errors."""

import pytest
from hypothesis import given, settings, strategies as st

from omsemi import reducibility, terms, varieties
from omsemi.errors import SizeTooLarge
from omsemi.reducibility import SolutionTriple, bounded_omega_solution_search
from omsemi.semigroup import FiniteSemigroup, GeneratorMap
from omsemi.terms import (Concat, FinitePower, Letter, OmegaPower, format_term,
                          normal_form, parse_term)

from test_folds import _outcome
from test_reducibility import com_instance
from util import (all_terms_search, commuted_copy, random_generator_map,
                  random_small_semigroup, random_term, recursive_ab_image,
                  recursive_com_exponents, recursive_free_group_normal_form)

search_settings = settings(max_examples=200, deadline=None, derandomize=True)

VARIETIES = ("ab", "com", "g")
OFFSETS = ((), (0,), (0, -1), (1, 0), (-1, 0, 1), (0, 0), (2,))
COM_PAIR = ("y (x y y)^(w-1)", "x (x y x)^(w-1)")


def _formatted(pair):
    return pair and tuple(format_term(t) for t in pair)


@search_settings
@given(st.randoms(use_true_random=False), st.sampled_from(VARIETIES),
       st.sampled_from(OFFSETS), st.integers(1, 7))
def test_search_returns_the_pair_of_the_full_enumeration(rng, variety,
                                                         offsets, bound):
    S = random_small_semigroup(rng)
    triple = SolutionTriple(S, rng.randrange(S.n), rng.randrange(S.n),
                            random_generator_map(rng, S))
    assert bounded_omega_solution_search(triple, variety, bound, offsets) == \
        all_terms_search(triple, variety, bound, offsets)


def _cancelled_copy(rng, t):
    """t with s s^(w-1), for a random term s, put next to the whole term or
    next to some of its subterms: the free group image is unchanged."""
    s = random_term(rng, depth=2)
    unit = Concat(s, OmegaPower(s, -1))
    if type(t) is Concat and rng.random() < 0.5:
        t = Concat(_cancelled_copy(rng, t.left), _cancelled_copy(rng, t.right))
    elif type(t) is OmegaPower and rng.random() < 0.5:
        t = OmegaPower(_cancelled_copy(rng, t.base), t.k)
    return Concat(unit, t) if rng.random() < 0.5 else Concat(t, unit)


@search_settings
@given(st.randoms(use_true_random=False), st.sampled_from(VARIETIES))
def test_normal_forms_are_congruences(rng, variety):
    keyfn = lambda t: normal_form(variety, t)
    left = random_term(rng)
    right = random_term(rng)
    if variety == "g":
        other = _cancelled_copy(rng, left)
    else:
        other = commuted_copy(rng, left)
    assert keyfn(left) == keyfn(other)
    assert keyfn(Concat(left, right)) == keyfn(Concat(other, right))
    assert keyfn(Concat(right, left)) == keyfn(Concat(right, other))
    for k in (-1, 0, 1):
        assert keyfn(OmegaPower(left, k)) == keyfn(OmegaPower(other, k))


ORACLES = {
    "ab": lambda t: tuple(sorted((ch, m) for ch, m in
                                 recursive_ab_image(t).items() if m)),
    "com": lambda t: tuple(sorted(recursive_com_exponents(t).items())),
    "g": recursive_free_group_normal_form,
}


def _spelt(runs):
    """A g normal form, runs (letter, nonzero exponent), spelt out as the
    reduced word of (letter, +-1) it stands for."""
    return tuple((ch, 1 if e > 0 else -1) for ch, e in runs
                 for _ in range(abs(e)))


def _form(variety, t):
    """The normal form of t as its oracle gives it: g's runs spelt out."""
    nf = normal_form(variety, t)
    return _spelt(nf) if variety == "g" else nf


@search_settings
@given(st.randoms(use_true_random=False), st.sampled_from(VARIETIES))
def test_normal_forms_match_the_recursive_oracles(rng, variety):
    # the search and all_terms_search share these steps, so this property
    # is what checks them
    t = random_term(rng, depth=rng.randrange(1, 6), offsets=(-2, -1, 0, 1, 2),
                    primes=(2, 3) if rng.random() < 0.2 else ())
    assert _outcome(lambda t: _form(variety, t), t) == \
        _outcome(ORACLES[variety], t)


def _power_term(rng, depth):
    """A random term over x, y and z whose finite powers and omega offsets
    go up to 50: runs of many letters, and cores whose ends share a
    letter."""
    if depth == 0 or rng.random() < 0.3:
        return Letter(rng.choice("xyz"))
    sub = lambda: _power_term(rng, depth - 1)
    k = rng.randrange(4)
    if k <= 1:
        return Concat(sub(), sub())
    if k == 2:
        return FinitePower(sub(), rng.randint(1, 50))
    return OmegaPower(sub(), rng.randint(-50, 50))


@search_settings
@given(st.randoms(use_true_random=False))
def test_free_group_runs_spell_the_letter_word(rng):
    t = _power_term(rng, rng.randrange(1, 4))
    runs = normal_form("g", t)
    assert all(e != 0 for _, e in runs)
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
    assert _spelt(runs) == recursive_free_group_normal_form(t)


@search_settings
@given(st.integers(1, 10 ** 9), st.integers(-10 ** 9, 10 ** 9).filter(bool),
       st.integers(1, 10 ** 9))
def test_conjugate_powers_stay_three_runs(a, b, k):
    # x^a y^b x^-a and its k-th power, at the cost of the exponents' digits
    conjugate = "x^%d y^(w%+d) x^(w-%d)" % (a, b, a)
    assert normal_form("g", parse_term(conjugate)) == \
        (("x", a), ("y", b), ("x", -a))
    assert normal_form("g", parse_term("(%s)^%d" % (conjugate, k))) == \
        (("x", a), ("y", b * k), ("x", -a))


def test_search_never_folds_a_whole_term(monkeypatch):
    triple = com_instance()

    def refuse(*args):
        raise AssertionError("the search folded a whole term")

    for module in (terms, varieties, reducibility):
        for name in ("normal_form", "com_exponents",
                     "free_group_normal_form"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for variety in VARIETIES:
        assert _formatted(bounded_omega_solution_search(
            triple, variety, 10, (0, -1))) == COM_PAIR


def test_com_normal_form_of_a_long_word():
    # com's multiplicities are (infinite, value) pairs, counted per run
    word = terms.parse_term("x y y " * 666 + "x y")
    assert normal_form("com", word) == (("x", (False, 667)),
                                        ("y", (False, 1333)))


def test_search_in_g_raises_size_too_large_for_a_large_offset():
    # a power of one letter is one run, however large; (x y)^(w+10^6) is
    # 2 * 10^6 runs, past the cap, and is built at size 4
    C = FiniteSemigroup.cyclic(2, 2)
    gens = GeneratorMap(C, {"x": 0, "y": 1})
    assert C.n == 3
    for s in range(C.n):
        for t in range(C.n):
            triple = SolutionTriple(C, s, t, gens)
            bounded_omega_solution_search(triple, "g", 3, (10 ** 6,))
            with pytest.raises(SizeTooLarge):
                bounded_omega_solution_search(triple, "g", 4, (10 ** 6,))


def test_search_pins_on_com_instance_at_bound_twelve():
    triple = com_instance()
    for variety in ("ab", "com", "g"):
        assert _formatted(bounded_omega_solution_search(
            triple, variety, 12, (-1, 0, 1))) == COM_PAIR


def test_search_pins_on_com_instance_agree_across_varieties():
    triple = com_instance()
    for bound in (8, 9, 10):
        for variety in ("ab", "com", "g"):
            assert _formatted(bounded_omega_solution_search(
                triple, variety, bound, (0, -1))) == COM_PAIR
            assert bounded_omega_solution_search(
                triple, variety, bound, (0,)) is None


def test_search_rejects_non_integer_arguments():
    C2 = FiniteSemigroup.cyclic(1, 2)
    triple = SolutionTriple(C2, 0, 0, GeneratorMap(C2, {"x": 0}))
    for bound in (5.5, True, "3", None):
        with pytest.raises(ValueError):
            bounded_omega_solution_search(triple, "ab", bound)
    for offsets in ((0.5,), ("0",), (True,), (0, None)):
        with pytest.raises(ValueError):
            bounded_omega_solution_search(triple, "ab", 3, offsets)
    for bound in (0, -1, 13):
        with pytest.raises(SizeTooLarge):
            bounded_omega_solution_search(triple, "ab", bound)
