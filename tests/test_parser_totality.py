"""The term and regex parsers are total: on any text they return a syntax
tree or raise a typed error, and they do so quickly.  Malformed text gets
the exact ParseError message pinned here, input that is not text gets a
ParseError naming its type, a tree that is not a regex's is refused by
compile_min_dfa, and parentheses nest to any depth."""

import pytest
from hypothesis import given, settings, strategies as st

from omsemi.dfa import compile_min_dfa
from omsemi.errors import ParseError, SizeTooLarge
from omsemi.regex import (Concat as RConcat, Star, Sym, format_regex,
                          parse_regex)
from omsemi.syntactic import syntactic_semigroup
from omsemi.terms import Letter, Word, format_term, parse_term

# the characters of both grammars, letters, ASCII and non-ASCII digits
# (which str.isdigit accepts but int() may not) and whitespace, plus any
# other character now and then
TEXT = st.text(st.one_of(st.sampled_from("()^|*+-w xyab0123456789²٣\t\n"),
                         st.characters()), max_size=60)


@settings(max_examples=1500, deadline=1000, derandomize=True)
@given(TEXT)
def test_parsers_return_or_raise_typed_errors(text):
    for parse in (parse_term, parse_regex):
        try:
            parse(text)
        except (ParseError, SizeTooLarge):
            pass


def _deep(inner, depth, extra=""):
    return "(" * depth + inner + ")" * depth + extra


# malformed text, and the ParseError message each parser gives it
REGEX_ERRORS = [
    ("(" * 10000 + "a", "missing closing parenthesis"),
    (_deep("a", 100, ")"), "unexpected ')' at position 201"),
    ("a)b", "unexpected ')' at position 1"),
    ("*a", "unexpected '*'"),
    ("+", "unexpected '+'"),
    ("a|*", "unexpected '*'"),
    ("(*a)", "unexpected '*'"),
    ("a||+", "unexpected '+'"),
    ("x**(+)", "unexpected '+'"),
    ("(a", "missing closing parenthesis"),
    ("((a)", "missing closing parenthesis"),
    ("(a|b", "missing closing parenthesis"),
    (" (  (a ) ", "missing closing parenthesis"),
    ("((((", "missing closing parenthesis"),
    ("(a(b|c(d*|e)+)", "missing closing parenthesis"),
    (")", "unexpected ')' at position 0"),
    ("a ) ", "unexpected ')' at position 2"),
    ("(|)*)", "unexpected ')' at position 4"),
    ("ab(c)d)e", "unexpected ')' at position 6"),
    ("a|b)|c", "unexpected ')' at position 3"),
]

TERM_ERRORS = [
    ("(" * 10000 + "x", "missing closing parenthesis"),
    (_deep("x", 100, ")"), "unexpected ')' at position 201"),
    ("x(", "empty term"),
    ("", "empty term"),
    ("()", "empty term"),
    ("x^(w", "expected + or - after w"),
    ("x^(w*1)", "expected + or - after w"),
    ("x^1" + "0" * 4999,
     "number at position 2 has too many digits or is not decimal"),
    ("x^²", "number at position 2 has too many digits or is not decimal"),
    ("x^(w+²)", "number at position 5 has too many digits or is not decimal"),
    ("x^(4^w)", "4 is not prime"),
    ("x^(" + "9" * 30 + "^w)",
     "prime exponents must be below 3317044064679887385961981"),
    ("x^(w+)", "expected a number at position 5"),
    ("x^(w+1", "missing ) in exponent"),
    ("x^(3^v)", "expected p^w in exponent"),
    ("x^ ", "bad exponent at position 3"),
    ("x^-1", "bad exponent at position 2"),
    ("x^0", "finite power must be >= 1"),
    ("a)b", "unexpected ')' at position 1"),
    ("x ^ (w - 1) ) y", "unexpected ')' at position 12"),
    ("*a", "expected a letter, got '*'"),
    ("^x", "expected a letter, got '^'"),
    ("(x", "missing closing parenthesis"),
    # letters and runs of letters, whitespace counted in the positions
    ("x1", "expected a letter, got '1'"),
    ("2x", "expected a letter, got '2'"),
    ("xy1z", "expected a letter, got '1'"),
    ("x y 1", "expected a letter, got '1'"),
    ("x\u00e91", "expected a letter, got '1'"),
    ("x\x00y", "expected a letter, got '\\x00'"),
    ("x^3.5", "expected a letter, got '.'"),
    ("x^w2", "expected a letter, got '2'"),
    ("x)", "unexpected ')' at position 1"),
    ("x y)", "unexpected ')' at position 3"),
    ("xy z ) ", "unexpected ')' at position 5"),
    ("x  y\t)", "unexpected ')' at position 5"),
    ("x^2y^3)", "unexpected ')' at position 6"),
    ("x^(w+1)z)", "unexpected ')' at position 8"),
    ("x^(5^w)y)", "unexpected ')' at position 8"),
    ("x^(3^w )  )", "unexpected ')' at position 10"),
    ("(", "empty term"),
    (")x", "empty term"),
    ("x^(w+1)(", "empty term"),
    # every exponent error of _power, after runs and groups
    ("x^", "bad exponent at position 2"),
    ("x^w^", "bad exponent at position 4"),
    ("x^ w ^", "bad exponent at position 6"),
    ("(x y z)^", "bad exponent at position 8"),
    ("xyz^-2", "bad exponent at position 4"),
    ("x^(", "expected a number at position 3"),
    ("x y ^ (", "expected a number at position 7"),
    ("x y ^ ( w", "expected + or - after w"),
    ("xy^(w+2x)", "missing ) in exponent"),
    ("x^(2^wx)", "missing ) in exponent"),
    ("x^(2^w", "missing ) in exponent"),
    ("x^(2", "expected p^w in exponent"),
    ("x y^(9^w)", "9 is not prime"),
    ("x y^00", "finite power must be >= 1"),
    ("x y^(w-" + "1" * 5000 + ")",
     "number at position 7 has too many digits or is not decimal"),
]


@pytest.mark.parametrize("parse,text,message", [
    (parse_regex, text, message) for text, message in REGEX_ERRORS] + [
    (parse_term, text, message) for text, message in TERM_ERRORS],
    ids=["regex-%d" % i for i in range(len(REGEX_ERRORS))]
    + ["term-%d" % i for i in range(len(TERM_ERRORS))])
def test_parse_errors_are_pinned(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert type(info.value) is ParseError
    assert str(info.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda: compile_min_dfa(None, alphabet="ab"),
     "a regex is a str or a regex.Node tree, not NoneType"),
    (lambda: syntactic_semigroup(5, alphabet="ab"),
     "a regex is a str or a regex.Node tree, not int"),
    (lambda: compile_min_dfa(5), "a regex is a str or a regex.Node tree, "
     "not int"),
    (lambda: parse_regex(b"ab"), "a regex is a str, not bytes"),
    (lambda: parse_term(None), "a term is a str, not NoneType"),
    (lambda: parse_term(b"x"), "a term is a str, not bytes"),
    (lambda: parse_term(["x", "y"]), "a term is a str, not list"),
    # a tree that is not a regex's: a term, or a field that is not a node
    (lambda: compile_min_dfa(parse_term("x y"), alphabet="ab"),
     "a regex tree is made of regex nodes, not terms.Word"),
    (lambda: compile_min_dfa(RConcat(Sym("a"), 5), alphabet="ab"),
     "a regex tree is made of regex nodes, not int"),
    (lambda: compile_min_dfa(Star(parse_term("(x y z)^w x"))),
     "a regex tree is made of regex nodes, not terms.Concat"),
    (lambda: syntactic_semigroup(RConcat(Sym("a"), Star(Word("ab")))),
     "a regex tree is made of regex nodes, not terms.Word"),
    (lambda: compile_min_dfa(RConcat(Sym("a"), Letter("b")), alphabet="ab"),
     "a regex tree is made of regex nodes, not terms.Letter")],
    ids=["compile-none", "syntactic-int", "compile-int", "regex-bytes",
         "term-none", "term-bytes", "term-list", "compile-term-word",
         "compile-int-field", "compile-term-power", "syntactic-word",
         "compile-term-letter"])
def test_input_that_is_not_text_is_a_parse_error(call, message):
    with pytest.raises(ParseError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("text,plain", [
    ("x  y\t z", "x y z"), ("x  y\t z", "xyz"), ("(x y)z", "(x y) z"),
    ("(x y)z", "x y z"), (" x\n^ ( w - 1 ) y ", "x^(w-1) y"),
    ("(x y ) ^ 2 z w", "(xy)^2 zw"), ("\tx y\u00a0y\u2003x", "xyyx")])
def test_whitespace_is_ignored(text, plain):
    assert parse_term(text) == parse_term(plain)
    assert hash(parse_term(text)) == hash(parse_term(plain))
    assert format_term(parse_term(text)) == format_term(parse_term(plain))


@pytest.mark.parametrize("depth", [101, 10000])
def test_deep_parentheses_parse_and_round_trip(depth):
    assert parse_regex(_deep("a", depth)) == Sym("a")
    assert parse_term(_deep("x", depth)) == Letter("x")
    # each group nests inside the last: a(b|a(b|...c)) is a tree 2 * depth
    # deep, and (x (x ... y)^2)^2 one of depth powers over concatenations
    regex = "a(b|" * depth + "c" + ")" * depth
    term = "(x " * depth + "y" + ")^2" * depth
    for parse, show, text in ((parse_regex, format_regex, regex),
                              (parse_term, format_term, term)):
        tree = parse(text)
        assert show(tree) == text
        assert parse(show(tree)) == tree
