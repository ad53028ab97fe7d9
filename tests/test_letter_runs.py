"""A run of letters that parse_term reads as one Word leaf means the same
as the left-nested Letter/Concat chain it stands for.  Random terms with
long runs, nested groups and every kind of power are written out as text
and built by hand as Letter/Concat trees, one node per letter; the parsed
tree and the hand-built one must be equal and agree on every fold."""

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from omsemi.groups_catalog import all_groups_up_to_24
from omsemi.semigroup import GeneratorMap
from omsemi.terms import (Concat, FinitePower, Letter, OmegaPower,
                          PrimeOmegaPower, Word, bounded_factors, eval_term,
                          format_term, normal_form, parse_term, term_alphabet,
                          unrolling, _postorder)
from omsemi.varieties import cr_semigroups

LETTERS = "xyzw"

# (text, build): m, w, (w+k) and (p^w), each with the node it gives
EXPONENTS = st.sampled_from([
    ("2", lambda b: FinitePower(b, 2)), ("3", lambda b: FinitePower(b, 3)),
    ("1", lambda b: FinitePower(b, 1)), ("w", lambda b: OmegaPower(b, 0)),
    ("(w+1)", lambda b: OmegaPower(b, 1)),
    ("(w-2)", lambda b: OmegaPower(b, -2)),
    ("(2^w)", lambda b: PrimeOmegaPower(b, 2)),
    ("(3^w)", lambda b: PrimeOmegaPower(b, 3))])
powers = st.one_of(st.none(), EXPONENTS)


@st.composite
def _run(draw):
    """A run of letters, written with or without spaces, and maybe a power
    on its last letter: (text, the factors the old parser built)."""
    run = draw(st.text(st.sampled_from(LETTERS), min_size=1, max_size=40))
    text = draw(st.sampled_from(["", " ", "  "])).join(run)
    factors = [Letter(ch) for ch in run]
    power = draw(powers)
    if power is not None:
        text += "^" + power[0]
        factors[-1] = power[1](factors[-1])
    return text, factors


def _sequence(factor):
    """One to four factors side by side: (text, left-nested tree)."""
    def join(parts):
        return (" ".join(text for text, _ in parts),
                reduce(Concat, [node for _, nodes in parts
                                for node in nodes]))
    return st.lists(factor, min_size=1, max_size=4).map(join)


def _group(child):
    """A parenthesised term, maybe raised to a power, as one factor."""
    def build(args):
        (text, tree), power = args
        if power is None:
            return "(%s)" % text, [tree]
        return "(%s)^%s" % (text, power[0]), [power[1](tree)]
    return st.tuples(child, powers).map(build)


texts_and_trees = st.recursive(
    _sequence(_run()),
    lambda child: _sequence(st.one_of(_run(), _group(child))),
    max_leaves=5)

run_settings = settings(max_examples=200, deadline=None, derandomize=True)

SEMIGROUPS = cr_semigroups(3) + [G for _, G in all_groups_up_to_24()[:8]]


def _outcome(walk, t):
    try:
        return walk(t)
    except Exception as exc:
        return type(exc), str(exc)


def _walk(t):
    """The tree read the way code outside the package reads it: a node
    with ch is a letter, one with left and right a concatenation, and any
    other a power of its base."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if hasattr(t, "ch"):
            out.append(t.ch)
        elif hasattr(t, "left"):
            out.append(".")
            stack += (t.right, t.left)
        else:
            out.append((type(t), getattr(t, t.__slots__[-1])))
            stack.append(t.base)
    return out


def _images(t):
    """Every fold of t that must not see whether its runs are leaves."""
    letters = sorted(term_alphabet(t))
    maps = [GeneratorMap(S, {ch: i % S.n for i, ch in enumerate(letters)})
            for S in SEMIGROUPS]
    targets = [(S, g) for S, g in zip(SEMIGROUPS, maps)][::5]

    def unrolled(t):
        values, spell = unrolling(t, targets)
        return values, spell(), spell(4)

    return {
        "letters": term_alphabet(t),
        "walk": _walk(t),
        "format": format_term(t),
        "values": [eval_term(S, g, t) for S, g in zip(SEMIGROUPS, maps)],
        "forms": [_outcome(lambda t: normal_form(v, t), t)
                  for v in ("ab", "com", "g")],
        "unrolled": _outcome(unrolled, t),
        "factors": [_outcome(lambda t: bounded_factors(t, k), t)
                    for k in range(4)],
    }


@run_settings
@given(texts_and_trees)
def test_parsed_runs_equal_their_letter_chains(case):
    text, tree = case
    parsed = parse_term(text)
    assert parsed == tree and hash(parsed) == hash(tree)
    assert repr(parsed) == repr(tree)
    # format_term writes concatenation without its grouping, so text reads
    # back as the same tree when no concatenation is a right factor
    again = parse_term(format_term(parsed))
    assert again == parse_term(format_term(tree))
    assert format_term(again) == format_term(tree)
    if not any(type(node) is Concat and isinstance(node.right, Concat)
               for node in _postorder(tree)):
        for t in (parsed, tree):
            assert again == t and hash(again) == hash(t)
    assert _images(parsed) == _images(tree)


def test_word_fields_and_chain():
    w = Word("xyz")
    assert w == Concat(Concat(Letter("x"), Letter("y")), Letter("z"))
    assert w.left == Word("xy") and type(w.left) is Word
    assert w.left.left == Letter("x") and type(w.left.left) is Letter
    assert w.right == Letter("z") and isinstance(w, Concat)
    assert repr(w) == ("Concat(left=Concat(left=Letter(ch='x'), "
                       "right=Letter(ch='y')), right=Letter(ch='z'))")
    assert w.__reduce__() == (Word, ("xyz",))
    for short in ("", "x"):
        with pytest.raises(ValueError):
            Word(short)
