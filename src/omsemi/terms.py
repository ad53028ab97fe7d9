"""Omega-terms: words with omega powers, and their finite semantics.

A term is built from single-character letters by concatenation, finite
powers t^m, omega powers t^(w+k) for an integer offset k, and prime-omega
powers t^(p^w).  In a finite semigroup t^(w+k) evaluates to the cycle
element s^(omega+k) of s = eval(t), and t^(p^w) to the limit of s^(p^(n!)).

Concrete syntax: juxtaposition concatenates, ``^w``, ``^(w+2)``, ``^(w-1)``,
``^(2^w)`` and ``^3`` are powers, parentheses group.  Whitespace is ignored.
`parse_term` reads the text in one pass with a stack of the open groups'
factors: ``^`` wraps the last factor, whose exponent `_power` reads.
Parentheses may nest to any depth.  A run of letters is one step of the
pass, and a group's leading run of two or more letters is one leaf, a
`Word`, which stands for the left-nested Concat chain of its Letters.
The nodes derive from `regex.Node`, whose ``==``, ``hash`` and ``repr``
do not recurse either, and read a Word as its chain.

Every walk over a term (alphabet, concrete syntax, evaluation, the
commutative, abelian and free-group images, unrolling, factor expansion)
is a fold over `_postorder`, the node list with each node after its
subterms, so no walk recurses however long or deep the term.  A fold
reads a Word as its chain, letter by letter, unless it has a step that
takes the whole run at once: the normal forms, spelling out and printing
do.  Evaluation is one fold with two kinds of value: `eval_term` folds a
term to an element, and `identity_failures`, which `find_identity_failure`
runs on one semigroup, folds both sides of an identity to columns, a
node's values over a block of assignments, taking the postorders once per
pool.

The normal forms over abelian groups (ab), commutative semigroups (com)
and groups (g) are each a (letter, concat, power, run, freeze) entry of
`VARIETY_STEPS`.  `normal_form` folds a whole term with them, and
`com_exponents`, `ab_image` and `free_group_normal_form` read its
result.  The bounded search of `reducibility` combines its candidates'
g forms with the same steps, but packs ab and com multiplicities into
integers; the test that its pairs are those of a search over all terms
by `normal_form` ties the two encodings together.  com's form maps each
letter to an (infinite, value) pair for its multiplicity in N u (omega+Z), (False, n) for n and
(True, k) for omega+k, and `com_exponents` returns those pairs as a
dict.  ab keeps plain int multiplicities, since the omega power of an
element of a finite abelian group is 1: an ab multiplicity is the com
one with omega+k read as k (Almeida, "Finite Semigroups and Universal
Algebra", 1994).  g keeps the reduced free group
word as runs (letter, nonzero exponent), so a power's cost follows its
exponent's digits, not its value; `free_group_normal_form` spells the
runs out.

Spelling out a term (`unroll`, `expand_for_factors`, the jplus decider and
`free_group_normal_form`) stops at EXPANSION_CAP letters with
SizeTooLarge; g's normal form counts runs against the same cap instead.
"""

import itertools
import math
from collections import namedtuple
from functools import reduce
from operator import eq, getitem

from .errors import (
    DepthCap,
    InequalityWithoutOrder,
    ParseError,
    SizeTooLarge,
    UnsupportedPrimePower,
)
from .regex import Node
from .semigroup import stabilized_prime_power_residue
from .words import factors_up_to


# Letter and Concat, which parse_term builds once per letter outside a
# group's leading run (that run is one Word leaf), set their fields
# directly rather than through Node's loop
class Letter(Node):
    __slots__ = ("ch",)

    def __init__(self, ch):
        object.__setattr__(self, "ch", ch)


class Concat(Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Word(Concat):
    """A run of two or more letters as one leaf, standing for the
    left-nested Concat chain of their Letters.  It is the chain's root
    Concat: it compares, hashes and prints as the chain, and its left and
    right are the chain's, built when asked for."""
    __slots__ = ("run",)

    def __init__(self, run):
        if len(run) < 2:
            raise ValueError("a Word is a run of at least two letters")
        object.__setattr__(self, "run", run)

    @property
    def left(self):
        rest = self.run[:-1]
        return Word(rest) if len(rest) > 1 else Letter(rest)

    @property
    def right(self):
        return Letter(self.run[-1])

    def _tree(self):
        return reduce(Concat, map(Letter, self.run))


class OmegaPower(Node):
    """base^(omega+k); k may be negative (inverse walk around the cycle)."""
    __slots__ = ("base", "k")


class PrimeOmegaPower(Node):
    """base^(p^omega) for a prime p."""
    __slots__ = ("base", "p")


class FinitePower(Node):
    __slots__ = ("base", "m")

    def __init__(self, base, m):
        if m < 1:
            raise ValueError("finite power must be >= 1 (terms are nonempty)")
        Node.__init__(self, base, m)


def _postorder(t):
    """The nodes of t, each after its subterms and left before right,
    walked with an explicit stack."""
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        out.append(node)
        kind = type(node)
        if kind is Concat:
            stack.append(node.left)
            stack.append(node.right)
        elif kind is not Letter and kind is not Word:
            stack.append(node.base)
    out.reverse()
    return out


def _fold(nodes, letter, concat, power, word=None):
    """Fold a postorder with a value stack: a letter's value is letter(ch),
    a concatenation's concat(left value, right value), and a power node's
    power(node, value of its base).  A Word's value is word(run), by
    default the fold of its Concat chain: letter on its first letter, then
    concat with each next one; a caller passes word only to get the same
    value in fewer steps."""
    if word is None:
        def word(run):
            return reduce(concat, map(letter, run))
    out = []
    for node in nodes:
        kind = type(node)
        if kind is Letter:
            out.append(letter(node.ch))
        elif kind is Concat:
            right = out.pop()
            out[-1] = concat(out[-1], right)
        elif kind is Word:
            out.append(word(node.run))
        else:
            out[-1] = power(node, out[-1])
    return out[0]


# The longest word a term may expand to: stacked finite powers grow
# exponentially, and x^2^2...^2 with twenty squares already has 2^20 letters.
# g's normal form counts its runs against it, not its letters.
EXPANSION_CAP = 10 ** 6


def _check_length(n, unit="letters"):
    if n > EXPANSION_CAP:
        raise SizeTooLarge("term expands to more than %d %s"
                           % (EXPANSION_CAP, unit))


def _expand(nodes, repeats):
    """The word of a postorder in which each power node repeats its base
    repeats(node) >= 1 times.  Its length is folded first, in Python ints,
    which cannot overflow, and a word of more than EXPANSION_CAP letters
    raises SizeTooLarge before it is built; no subterm's word is longer."""
    _check_length(_fold(nodes, lambda ch: 1, int.__add__,
                        lambda node, n: n * repeats(node), len))
    return _fold(nodes, str, str.__add__,
                 lambda node, word: word * repeats(node), str)


def _letters(nodes):
    """The set of letters of a postorder."""
    found = {node.ch for node in nodes if type(node) is Letter}
    found.update(*[node.run for node in nodes if type(node) is Word])
    return found


def term_alphabet(t):
    return _letters(_postorder(t))


def concat_all(parts):
    if not parts:
        raise ValueError("empty concatenation")
    return reduce(Concat, parts)


# The 13 primes up to 41 as Miller-Rabin bases decide primality exactly
# below 3317044064679887385961981 = 1287836182261 * 2575672364521, the
# least strong pseudoprime to all of them (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
PRIME_TEST_CAP = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p):
    """Deterministic Miller-Rabin, exact for every p below PRIME_TEST_CAP;
    from the cap up, p raises ParseError."""
    if p >= PRIME_TEST_CAP:
        raise ParseError("prime exponents must be below %d" % PRIME_TEST_CAP)
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _position(text, i):
    """The index in text of the i-th character that is not whitespace, or
    len(text) if there are no more: where a parse error is reported."""
    for pos, ch in enumerate(text):
        if not ch.isspace():
            if i == 0:
                return pos
            i -= 1
    return len(text)


def _number(text, s, i):
    """The decimal number whose digits start at s[i], and the index of the
    first character after them; s is text without its whitespace."""
    j = i
    while s[j:j + 1].isdigit():
        j += 1
    if j == i:
        raise ParseError("expected a number at position %d"
                         % _position(text, i))
    try:
        return int(s[i:j]), j
    except ValueError:  # past int()'s digit limit, or not decimal
        raise ParseError("number at position %d has too many digits or "
                         "is not decimal" % _position(text, i)) from None


def _power(base, text, s, i):
    """base raised to the exponent that starts at s[i], one of w, m,
    (w+k), (w-k) and (p^w), and the index of the character after it.
    s is text without its whitespace, and a slice past its end is empty."""
    ch = s[i:i + 1]
    if ch == "w":
        return OmegaPower(base, 0), i + 1
    if ch.isdigit():
        m, i = _number(text, s, i)
        if m < 1:
            raise ParseError("finite power must be >= 1")
        return FinitePower(base, m), i
    if ch != "(":
        raise ParseError("bad exponent at position %d" % _position(text, i))
    if s[i + 1:i + 2] == "w":
        sign = s[i + 2:i + 3]
        if sign != "+" and sign != "-":
            raise ParseError("expected + or - after w")
        k, i = _number(text, s, i + 3)
        if s[i:i + 1] != ")":
            raise ParseError("missing ) in exponent")
        return OmegaPower(base, k if sign == "+" else -k), i + 1
    p, i = _number(text, s, i + 1)
    if s[i:i + 2] != "^w":
        raise ParseError("expected p^w in exponent")
    if s[i + 2:i + 3] != ")":
        raise ParseError("missing ) in exponent")
    if not _is_prime(p):
        raise ParseError("%d is not prime" % p)
    return PrimeOmegaPower(base, p), i + 3


def parse_term(text):
    """The term tree of text: one pass over it with its whitespace
    dropped, keeping a stack of the open groups' factors.  A run of
    letters is sliced out whole and checked with str.isalpha, so Python
    steps happen only at parentheses, powers and runs.  A group's leading
    run of two or more letters is one Word; a power takes the letter just
    before it, and every other letter is a Letter."""
    if not isinstance(text, str):
        raise ParseError("a term is a str, not %s" % type(text).__name__)
    s = "".join(text.split())
    # the index of each '(', ')' and '^', then len(s): a run of letters
    # ends at the first of them after its start, if not before
    stops, at = [], -1
    for piece in s.replace("(", "^").replace(")", "^").split("^"):
        at += len(piece) + 1
        stops.append(at)
    stack = [[]]
    i = k = 0
    while True:
        ch = s[i:i + 1]
        factors = stack[-1]
        if ch.isalpha():
            while stops[k] < i:
                k += 1
            run, i = s[i:stops[k]], stops[k]
            if not run.isalpha():
                raise ParseError("expected a letter, got %r" % next(
                    c for c in run if not c.isalpha()))
            powered = s[i:i + 1] == "^"
            lead = run[:-1] if powered else run
            if not factors and len(lead) > 1:
                factors.append(Word(lead))
            else:
                factors += map(Letter, lead)
            if powered:
                factors.append(Letter(run[-1]))
            continue
        i += 1
        if ch == "(":
            stack.append([])
        elif ch == "" or ch == ")":
            if not factors:
                raise ParseError("empty term")
            stack.pop()
            if ch == "":
                if stack:
                    raise ParseError("missing closing parenthesis")
                return concat_all(factors)
            if not stack:
                raise ParseError("unexpected ')' at position %d"
                                 % _position(text, i - 1))
            stack[-1].append(concat_all(factors))
        elif ch == "^" and factors:
            factors[-1], i = _power(factors[-1], text, s, i)
        else:
            raise ParseError("expected a letter, got %r" % ch)


def _exponent(node):
    if type(node) is OmegaPower:
        return "^w" if node.k == 0 else "^(w%+d)" % node.k
    if type(node) is PrimeOmegaPower:
        return "^(%d^w)" % node.p
    return "^%d" % node.m


def format_term(t):
    """t as text, up to the grouping of its concatenations: a product is
    written as its factors side by side, so `w (w w)` prints as `w w w`.
    parse_term reads that text back as a term with t's value in every
    semigroup (by associativity), not always as t itself.  Printing the
    grouping would change the terms the bounded search prints."""
    def power(node, base):
        if type(node.base) is not Letter:
            base = "(%s)" % base
        return base + _exponent(node)

    return _fold(_postorder(t), str, "{} {}".format, power, " ".join)


def _power_value(S, node, s):
    """Value in S of a power node whose base has value s."""
    if type(node) is OmegaPower:
        return S.omega_plus_k(s, node.k)
    if type(node) is FinitePower:
        return S.power(s, node.m)
    return S.p_omega_power(s, node.p)


def _evaluate(S, nodes, letter):
    """Value in S of the term whose postorder is nodes, a letter's value
    being letter(ch): the one term evaluator."""
    table = S.table
    return _fold(nodes, letter, lambda a, b: table[a][b],
                 lambda node, s: _power_value(S, node, s))


def eval_term(S, g, t):
    """Value of a term in S under the letter assignment g."""
    return _evaluate(S, _postorder(t), g)


def _shape(nodes):
    """Each node of a postorder as its type and the field that is not a
    subterm, if it has one, a Word as the postorder of its Concat chain.
    A type fixes how many subterms come before its node, so two terms are
    the same iff their shapes are equal: the comparison of Node.__eq__,
    read off postorders already taken."""
    out = []
    for node in nodes:
        kind = type(node)
        if kind is Concat:
            out.append((Concat,))
        elif kind is Word:
            out.append((Letter, node.run[0]))
            for ch in node.run[1:]:
                out += (Letter, ch), (Concat,)
        else:
            out.append((kind, getattr(node, node.__slots__[-1])))
    return out


# The most assignments an identity search evaluates together.  The sorted
# variables split in two: the trailing j whose n^j assignments fit in a
# block are evaluated together, each node's value a column of n^j values,
# and the leading ones are looped over.  One map call per node and block
# replaces a Python call per node and assignment.  A larger block wastes
# more work past a failure, which a search over a pool mostly meets within
# a few assignments; 256 holds every assignment of three letters in a
# semigroup of order up to 6.
_BLOCK = 256


def _block_layout(n, k):
    """How k sorted variables over n elements are searched: the n^j
    assignments of the trailing j variables in lexicographic order, the
    column of each trailing variable over them, and the constant column
    of each value of a leading variable."""
    j = 0
    while j < k and n ** (j + 1) <= _BLOCK:
        j += 1
    block = list(itertools.product(range(n), repeat=j))
    trailing = [list(column) for column in zip(*block)]
    return block, trailing, [[v] * len(block) for v in range(n)]


def _block_failure(S, left, right, variables, mode, layout):
    """The first assignment in lexicographic order under which the sides
    with postorders left and right fail in S, or None.  The leading
    variables run through their values in order; for each of their
    assignments both sides are folded once over the block's columns.  A
    power node's values on the n elements are taken on its first use."""
    n = S.n
    block, trailing, constants = layout
    leading = variables[:len(variables) - len(trailing)]
    columns = dict(zip(variables[len(leading):], trailing))
    rows = S.table.__getitem__
    powers = {}

    def concat(a, b):
        return list(map(getitem, map(rows, a), b))

    def power(node, a):
        values = powers.get(id(node))
        if values is None:
            values = powers[id(node)] = [_power_value(S, node, s)
                                         for s in range(n)]
        return list(map(values.__getitem__, a))

    for values in itertools.product(range(n), repeat=len(leading)):
        for var, v in zip(leading, values):
            columns[var] = constants[v]
        a = _fold(left, columns.__getitem__, concat, power)
        b = _fold(right, columns.__getitem__, concat, power)
        if mode == "equality":
            if a == b:
                continue
            i = list(map(eq, a, b)).index(False)
        else:
            holds = list(map(S.order.__contains__, zip(a, b)))
            if False not in holds:
                continue
            i = holds.index(False)
        return dict(zip(variables, values + block[i]))
    return None


def identity_failures(semigroups, lhs, rhs, mode="equality"):
    """Each member's first assignment violating lhs = rhs (or lhs <= rhs),
    or None, in turn, for an iterable of semigroups.

    Assignments run through the sorted letters' values in lexicographic
    order, in blocks (see _BLOCK).  The postorders, the variables and the
    test for identical sides are taken once for the pool.  Two sides that
    are the same term hold under every assignment, the order being
    reflexive, and so does every identity in a semigroup of one element,
    so neither tries any.  A bad mode raises ValueError before any member
    is read, and a member without an order in inequality mode raises
    InequalityWithoutOrder when it is reached."""
    if mode not in ("equality", "inequality"):
        raise ValueError("mode must be equality or inequality")
    left, right = _postorder(lhs), _postorder(rhs)
    same = _shape(left) == _shape(right)
    variables = sorted(_letters(left) | _letters(right))
    layouts = {}
    for S in semigroups:
        if mode == "inequality" and S.order is None:
            raise InequalityWithoutOrder("semigroup carries no order")
        if same or S.n == 1:
            yield None
            continue
        if S.n not in layouts:
            layouts[S.n] = _block_layout(S.n, len(variables))
        yield _block_failure(S, left, right, variables, mode, layouts[S.n])


def find_identity_failure(S, lhs, rhs, mode="equality"):
    """An assignment violating lhs = rhs (or lhs <= rhs) in S, or None:
    the first in lexicographic order, as a plain dict."""
    return next(identity_failures([S], lhs, rhs, mode))


def satisfies_identity(S, lhs, rhs, mode="equality"):
    """Does S satisfy the identity (all assignments of the variables)?"""
    return find_identity_failure(S, lhs, rhs, mode) is None


# ---------------------------------------------------------------------------
# normal forms over ab, com and g


def _add_com_exponents(left, right):
    """The com multiplicities of l r from the (infinite, value) dicts of l
    and r, summed into `left` in place: omega+i plus n is omega+(i+n)."""
    get = left.get
    for ch, e in right.items():
        old = get(ch)
        left[ch] = e if old is None else (old[0] or e[0], old[1] + e[1])
    return left


def reduced_concat(left, right):
    """left right as a reduced word of runs (letter, nonzero exponent),
    adjacent runs on different letters, for reduced left and right: the
    runs that meet at the seam merge or cancel, in place in left.  A
    result of more than EXPANSION_CAP runs raises SizeTooLarge."""
    i = 0
    while left and i < len(right) and left[-1][0] == right[i][0]:
        ch, e = right[i]
        e += left[-1][1]
        i += 1
        if e:
            left[-1] = (ch, e)
            break
        left.pop()
    left += right[i:]
    _check_length(len(left), "runs")
    return left


def reduced_power(word, k):
    """word^k for a reduced word of runs, by cyclic reduction: word =
    a c a^-1 with c cyclically reduced gives a c^k a^-1, itself reduced
    (Lyndon & Schupp, "Combinatorial Group Theory", 1977).  A one-run c
    gives one run; otherwise c's runs repeat, the last and the first
    merged where they share a letter.  The cap is checked before the word
    is built."""
    if k == 0:
        return []
    if k < 0:
        word, k = [(ch, -e) for ch, e in reversed(word)], -k
    n, i = len(word), 0
    while i < n - 1 - i and word[i] == (word[-1 - i][0], -word[-1 - i][1]):
        i += 1
    head, core, tail = word[:i], word[i:n - i], word[n - i:]
    if len(core) < 2:
        return head + [(ch, e * k) for ch, e in core] + tail
    (ch, first), (last_ch, last) = core[0], core[-1]
    merged = ch == last_ch
    _check_length(n + (k - 1) * (len(core) - merged), "runs")
    if not merged:
        return head + core * k + tail
    mid = core[1:-1]
    return (head + core[:1] + (mid + [(ch, first + last)]) * (k - 1) + mid +
            core[-1:] + tail)


# variety -> (letter, concat, power, run, freeze): the definition of its
# normal form that normal_form folds with; the bounded search shares g's
# and packs ab and com multiplicities into integers.  A working form is built from letter(ch), concat(l, r)
# for l r (it may extend l in place, so a fold stays linear in the word),
# and power(l, e, is_omega) for l^(w+e) or, when is_omega is false, l^e.
# run(word) is the form of a run of letters, the one concat of their
# letter forms would build, in C-level steps where it can be.
# freeze(f) is the canonical hashable form: two terms are equal over the
# variety iff their frozen forms are.  com keeps the letter multiplicities
# in N u (omega+Z) as (infinite, value) pairs and freezes them sorted; an
# omega power makes every letter of its base infinite.  The dict holds only letters present, each
# with a nonzero count: a multiplicity starts at 1, finite powers are
# >= 1 (FinitePower.__init__) and sums only grow; a run counts each of its
# letters with str.count.  ab keeps plain int multiplicities, since x^w = 1
# in a finite abelian group (omega+k read as k), and drops a letter whose
# count reaches 0, so it freezes as com does, sorted.  g keeps the reduced
# word as runs (letter, nonzero exponent), whose omega part vanishes in
# any group, and freezes it as a tuple; a run of letters groups its equal
# neighbours, and past EXPANSION_CAP runs raises SizeTooLarge as its
# concats would.
def _add_ab_exponents(left, right):
    """The ab multiplicities of l r from the int dicts of l and r, summed
    into `left` in place; a letter whose sum is 0 is dropped."""
    get = left.get
    for ch, v in right.items():
        v += get(ch, 0)
        if v:
            left[ch] = v
        else:
            del left[ch]
    return left


def _free_run(word):
    runs = [(ch, len(list(same))) for ch, same in itertools.groupby(word)]
    _check_length(len(runs), "runs")
    return runs


def _sorted_items(exps):
    return tuple(sorted(exps.items()))


VARIETY_STEPS = {
    "ab": (lambda ch: {ch: 1}, _add_ab_exponents,
           lambda exps, e, is_omega: {ch: v * e for ch, v in exps.items()}
           if e else {},
           lambda word: {ch: word.count(ch) for ch in set(word)},
           _sorted_items),
    "com": (lambda ch: {ch: (False, 1)}, _add_com_exponents,
            lambda exps, e, is_omega: {ch: (is_omega or f, v * e)
                                       for ch, (f, v) in exps.items()},
            lambda word: {ch: (False, word.count(ch)) for ch in set(word)},
            _sorted_items),
    "g": (lambda ch: [(ch, 1)], reduced_concat,
          lambda word, k, is_omega: reduced_power(word, k), _free_run, tuple),
}


def normal_form(variety, t):
    """The frozen normal form of t over ab, com or g, folded by the
    variety's VARIETY_STEPS.  A prime-omega power raises
    UnsupportedPrimePower; in g a reduced word of more than EXPANSION_CAP
    runs on the way raises SizeTooLarge, a power's before it is built."""
    letter, concat, power, run, freeze = VARIETY_STEPS[variety]

    def power_node(node, value):
        if type(node) is PrimeOmegaPower:
            raise UnsupportedPrimePower("normal forms of prime-omega powers "
                                        "are not supported")
        if type(node) is OmegaPower:
            return power(value, node.k, True)
        return power(value, node.m, False)

    return freeze(_fold(_postorder(t), letter, concat, power_node, run))


def com_exponents(t):
    """Letter multiplicities of t in N u (omega+Z), as a dict of
    (infinite, value) pairs: (False, n) for n and (True, k) for omega+k."""
    return dict(normal_form("com", t))


def ab_image(t):
    """Integer letter multiplicities (omega collapses to its offset): the
    offsets of the commutative exponents, whose arithmetic they share."""
    return {ch: value for ch, (_, value) in normal_form("com", t)}


def free_group_normal_form(t):
    """Image of the term in the free group, as a reduced tuple of
    (letter, +-1): its runs spelt out, and past EXPANSION_CAP letters
    SizeTooLarge."""
    runs = normal_form("g", t)
    _check_length(sum(abs(e) for _, e in runs))
    return tuple(itertools.chain.from_iterable(
        [(ch, 1 if e > 0 else -1)] * abs(e) for ch, e in runs))


# ---------------------------------------------------------------------------
# unrolling


def unroll(t, targets, pad=0):
    """A word with the same value as t in every target.

    Each omega power t^(w+k) becomes a finite power t^N with N at least
    every index, congruent to k modulo every period, and at least pad
    (pad lets callers force long expansions; the image is unchanged).
    A prime-omega power's exponent meets the stabilised residue of
    p^(n!) modulo the lcm of the periods, which reduced modulo each
    period is that period's own stabilised residue.  A fold over
    the values in every target fixes each power's exponent; the word is
    spelt out after, unless it has more than EXPANSION_CAP letters, when
    SizeTooLarge is raised.
    """
    return unrolling(t, targets)[1](pad)


def unrolling(t, targets):
    """The values of t in every target, and spell(pad=0), which returns
    unroll(t, targets, pad).

    The values come from unroll's one fold, so a caller can check them
    before any word is spelt out: the fold fixes each omega-type power's
    least exponent and the residue and modulus its exponent must meet,
    and spell raises the least exponent to pad."""
    if not targets:
        raise ValueError("unroll needs at least one target")
    semigroups = [S for S, _ in targets]
    # id of a power node -> m for t^m, else (least exponent, residue,
    # modulus) of how often its base repeats
    reps = {}

    def letter(ch):
        return [g(ch) for _, g in targets]

    def concat(left, right):
        return [S.table[a][b] for S, a, b in zip(semigroups, left, right)]

    def power(node, values):
        if type(node) is FinitePower:
            reps[id(node)] = node.m
        else:
            datas = [S.monogenic_data(s) for S, s in zip(semigroups, values)]
            modulus = math.lcm(*[d.period for d in datas])
            residue = (node.k % modulus if type(node) is OmegaPower else
                       stabilized_prime_power_residue(node.p, modulus))
            reps[id(node)] = (max([d.index for d in datas] + [1]), residue,
                              modulus)
        return [_power_value(S, node, s) for S, s in zip(semigroups, values)]

    nodes = _postorder(t)
    values = _fold(nodes, letter, concat, power)

    def spell(pad=0):
        counts = {}
        for key, rep in reps.items():
            if type(rep) is not int:
                need, residue, modulus = rep
                need = max(need, pad)
                # at least every index and meeting every period's residue,
                # so s^rep is the node's value in each target
                rep = need + (residue - need) % modulus
            counts[key] = rep
        return _expand(nodes, lambda node: counts[id(node)])

    return values, spell


# ---------------------------------------------------------------------------
# bounded factors


FactorData = namedtuple("FactorData", "factors prefix suffix")


def expand_for_factors(t, k):
    """Replace every omega-type power by k+2 repetitions of its base.

    Factors of length <= k, the prefix and the suffix of the result agree
    with those of any longer expansion, hence with the limit.  A result
    longer than EXPANSION_CAP letters raises SizeTooLarge.
    """
    return _expand(_postorder(t), lambda node: (
        node.m if type(node) is FinitePower else k + 2))


def bounded_factors(t, k):
    w = expand_for_factors(t, k)
    return FactorData(factors=frozenset(factors_up_to(w, k)),
                      prefix=w[:k], suffix=w[-k:] if k else "")


# ---------------------------------------------------------------------------
# commutators


def commutator(s, t):
    """[s, t] = s^(w-1) t^(w-1) s t."""
    return concat_all([OmegaPower(s, -1), OmegaPower(t, -1), s, t])


COMMUTATOR_DEPTH_CAP = 8


def iterated_commutator(n):
    """[x, n y]: [x, 1 y] = [x, y], [x, n+1 y] = [[x, n y], y]."""
    if n < 1:
        raise ValueError("commutator depth must be >= 1")
    if n > COMMUTATOR_DEPTH_CAP:
        raise DepthCap("iterated commutator capped at depth %d"
                       % COMMUTATOR_DEPTH_CAP)
    x, y = Letter("x"), Letter("y")
    t = commutator(x, y)
    for _ in range(n - 1):
        t = commutator(t, y)
    return t
