"""A derandomized property over generated command lines: each of the six
subcommands, run in-process through `cli.main`, exits with 0, 1 or 2 and
lets no exception out, whatever terms, regexes and options it is given.
The terms include free-group powers with exponents far past the expansion
cap, and some arguments are random characters."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from omsemi import cli
from omsemi.regex import format_regex
from omsemi.terms import format_term

from test_regex_dfa import random_regex
from util import random_term

argv_settings = settings(max_examples=300, deadline=None, derandomize=True)

# past EXPANSION_CAP, so a word spelt out from them is refused, while the
# normal forms keep them as exponents
HUGE = (10 ** 6 + 1, 10 ** 9, 2 ** 64, 10 ** 30)
POWERS = ("(%s)^%d", "(%s)^(w+%d)", "(%s)^(w-%d)", "%s y^%d x^(w-1)")
# orders and bounds past 4 are left out: enum 6 and the cold order-5
# completely regular sample take seconds to minutes, not milliseconds
VARIETIES = ("ab", "com", "g", "g", "g", "jplus", "cr:1", "cr:3", "cr:4",
             "cr:9", "bogus")


def _noise(rng, alphabet):
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))


def _term(rng, letters="xyz"):
    """Term text: a random term, often raised to a huge power, sometimes
    random characters."""
    roll = rng.random()
    if roll < 0.1:
        return _noise(rng, letters + "()^w+-0123456789 ")
    text = format_term(random_term(rng, letters, depth=rng.randrange(4)))
    if roll < 0.5:
        text = rng.choice(POWERS) % (text, rng.choice(HUGE))
    return text


def _regex(rng):
    if rng.random() < 0.1:
        return _noise(rng, "ab()*|+ ")
    return format_regex(random_regex(rng, 3))


def _flags(rng, *flags, odds=0.4):
    return [flag for flag in flags if rng.random() < odds]


def _argv(rng):
    command = rng.choice(("syn", "eval", "check", "check", "check", "reduce",
                          "enum", "verify-paper"))
    if command == "syn":
        return ["syn", _regex(rng)] + _flags(rng, "--order", "--green",
                                             "--classes")
    if command == "eval":
        argv = ["eval", "--regex", _regex(rng), "--term", _term(rng, "xab")]
        if rng.random() < 0.6:
            argv += ["--map", ",".join(
                "%s=%s" % (ch, rng.choice(("a", "b", "ab", "ba", "c", "")))
                for ch in "xab" if rng.random() < 0.8)]
        return argv
    if command == "check":
        return ["check", "--variety", rng.choice(VARIETIES),
                "--lhs", _term(rng), "--rhs", _term(rng)] + \
            _flags(rng, "--leq", odds=0.1)
    if command == "reduce":
        return ["reduce", "jplus", "--regex", _regex(rng),
                "--u", _term(rng, "ab"), "--v", _term(rng, "ab")]
    if command == "enum":
        argv = ["enum", str(rng.choice((-1, 0, 1, 2, 3, 4, 7)))]
        if rng.random() < 0.5:
            argv += ["--identity", rng.choice(("%s = %s", "%s %s")) % (
                _term(rng), _term(rng))]
        return argv
    argv = ["verify-paper", "--section", rng.choice(("4", "5", "6", "all"))]
    if rng.random() < 0.3:
        argv += ["--cr-bound", rng.choice(("3", "4"))]
    return argv + (["--json", "-"] if rng.random() < 0.5 else [])


def _run(argv):
    """cli.main's exit code and what it wrote, argparse's usage errors
    included; any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# a true Random, seeded by the derandomized run, so that each choice keeps
# the odds written here and not Hypothesis's lean towards small draws
@argv_settings
@given(st.randoms(use_true_random=True))
def test_every_command_line_exits_0_1_or_2(rng):
    argv = _argv(rng)
    code, out, err = _run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert err, argv
