"""The term and regex parsers are total: on any text they return a syntax
tree or raise a typed error, and they do so quickly."""

from hypothesis import given, settings, strategies as st

from omsemi.errors import ParseError, SizeTooLarge
from omsemi.regex import parse_regex
from omsemi.terms import parse_term

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
