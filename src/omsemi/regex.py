"""Regular expressions: abstract syntax, parser, Thompson automaton.

Concrete syntax is ASCII: single-character letters, juxtaposition for
concatenation, ``|`` for union, postfix ``*`` and ``+``, parentheses.
Whitespace is ignored.  An empty branch denotes the empty word, so ``""``
and ``(|a)`` are both valid.  Parentheses nest at most NESTING_DEPTH_CAP
deep; the `Scanner` that enforces this is shared with the term parser.

Every walk over a regex tree (its alphabet, the Thompson automaton, the
concrete syntax) is a fold over `_postorder`, the node list with each
node after its subexpressions, so no walk recurses however deep the tree.
"""

from dataclasses import dataclass

from .errors import ParseError

_SPECIAL = set("|*+()")


@dataclass(frozen=True)
class Empty:
    """The empty word."""


@dataclass(frozen=True)
class Sym:
    ch: str


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class Concat:
    left: object
    right: object


@dataclass(frozen=True)
class Star:
    body: object


@dataclass(frozen=True)
class Plus:
    body: object


def _postorder(r):
    """The nodes of r, each after its subexpressions and left before right,
    walked with an explicit stack."""
    out, stack = [], [r]
    while stack:
        node = stack.pop()
        out.append(node)
        kind = type(node)
        if kind is Union or kind is Concat:
            stack.append(node.left)
            stack.append(node.right)
        elif kind is Star or kind is Plus:
            stack.append(node.body)
    out.reverse()
    return out


def regex_alphabet(r):
    return {node.ch for node in _postorder(r) if type(node) is Sym}


NESTING_DEPTH_CAP = 100


class Scanner:
    """The character stream of the regex and term parsers.  Whitespace is
    skipped, and parentheses nested deeper than NESTING_DEPTH_CAP raise
    ParseError, which keeps recursive descent off the recursion limit."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def open_group(self):
        """Count a group whose "(" was just taken."""
        self.depth += 1
        if self.depth > NESTING_DEPTH_CAP:
            raise ParseError("parentheses nested deeper than %d at position %d"
                             % (NESTING_DEPTH_CAP, self.pos))

    def close_group(self):
        if self.take() != ")":
            raise ParseError("missing closing parenthesis")
        self.depth -= 1


class _Parser(Scanner):
    def parse(self):
        r = self.alternation()
        if self.peek() is not None:
            raise ParseError("unexpected %r at position %d"
                             % (self.peek(), self.pos))
        return r

    def alternation(self):
        r = self.concatenation()
        while self.peek() == "|":
            self.take()
            r = Union(r, self.concatenation())
        return r

    def concatenation(self):
        parts = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            parts.append(self.postfixed())
        if not parts:
            return Empty()
        r = parts[0]
        for p in parts[1:]:
            r = Concat(r, p)
        return r

    def postfixed(self):
        r = self.atom()
        while self.peek() in ("*", "+"):
            r = Star(r) if self.take() == "*" else Plus(r)
        return r

    def atom(self):
        ch = self.take()
        if ch == "(":
            self.open_group()
            r = self.alternation()
            self.close_group()
            return r
        if ch is None or ch in _SPECIAL:
            raise ParseError("unexpected %r" % (ch,))
        return Sym(ch)


def parse_regex(text):
    return _Parser(text).parse()


def nfa_of_regex(r):
    """Thompson's epsilon-NFA as (n_states, transitions, start, accept).

    A fold over the postorder: each node allocates its states after its
    children's and leaves its fragment's (start, end) on the stack."""
    trans, frags, n = [], [], 0
    for node in _postorder(r):
        kind = type(node)
        if kind is Empty:
            frags.append((n, n))
            n += 1
            continue
        if kind is Concat:
            (s1, e1), (s2, e2) = frags.pop(-2), frags.pop()
            trans.append((e1, None, s2))
            frags.append((s1, e2))
            continue
        s, e = n, n + 1
        n += 2
        if kind is Sym:
            trans.append((s, node.ch, e))
        elif kind is Union:
            (s1, e1), (s2, e2) = frags.pop(-2), frags.pop()
            trans += [(s, None, s1), (s, None, s2),
                      (e1, None, e), (e2, None, e)]
        else:
            # e+ = e e*, sharing one copy of the body via the loop edge;
            # e* adds the edge that skips the body
            s1, e1 = frags.pop()
            trans += [(s, None, s1), (e1, None, s1), (e1, None, e)]
            if kind is Star:
                trans.append((s, None, e))
        frags.append((s, e))
    return n, trans, *frags.pop()


def format_regex(r):
    """Concrete syntax for a regex tree; parse_regex inverts it.

    A fold over the postorder with (text, precedence) pairs: a union is
    precedence 0, a concatenation 1, atoms and postfix nodes 2, and a
    child is parenthesised when its precedence is below what its parent
    needs."""

    def operand(pair, need):
        return "(%s)" % pair[0] if pair[1] < need else pair[0]

    out = []
    for node in _postorder(r):
        kind = type(node)
        if kind is Empty or kind is Sym:
            out.append(("()" if kind is Empty else node.ch, 2))
        elif kind is Star or kind is Plus:
            out[-1] = (operand(out[-1], 2) + ("*" if kind is Star else "+"),
                       2)
        else:
            prec = 0 if kind is Union else 1
            right = operand(out.pop(), prec)
            out[-1] = (operand(out[-1], prec) + ("|" if prec == 0 else "")
                       + right, prec)
    return out[0][0]


def _alt(a, b):
    """Union with None standing for the empty language."""
    if a is None:
        return b
    if b is None or a == b:
        return a
    return Union(a, b)


def _cat(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, Empty):
        return b
    if isinstance(b, Empty):
        return a
    return Concat(a, b)


def _star(a):
    if a is None or isinstance(a, Empty):
        return Empty()
    if isinstance(a, Star):
        return a
    if isinstance(a, Plus):
        return Star(a.body)
    return Star(a)


def dfa_to_regex(d):
    """A regex tree for the language of a DFA, or None if it is empty.

    Classic state elimination on the generalized automaton, removing DFA
    states in index order; the output is deterministic in the input.
    Only the states from which acceptance is reachable get edges and are
    eliminated: no path through another state reaches the accepting end,
    so the trees built for it would all be thrown away."""
    n = d.n_states
    start, accept = n, n + 1
    useful = sorted(d.coaccessible_states())
    alive = set(useful)
    edges = {}

    def put(i, j, r):
        edges[i, j] = _alt(edges.get((i, j)), r)

    for q in useful:
        for ch, r in zip(d.alphabet, d.transitions[q]):
            if r in alive:
                put(q, r, Sym(ch))
    if d.initial in alive:
        put(start, d.initial, Empty())
    for q in d.accepting:
        put(q, accept, Empty())

    for k in useful:
        loop = _star(edges.pop((k, k), None))
        into = [(i, r) for (i, j), r in edges.items() if j == k]
        out = [(j, r) for (i, j), r in edges.items() if i == k]
        for i, _ in into:
            edges.pop((i, k))
        for j, _ in out:
            edges.pop((k, j))
        for i, rin in into:
            for j, rout in out:
                put(i, j, _cat(rin, _cat(loop, rout)))
    return edges.get((start, accept))
