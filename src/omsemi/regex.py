"""Regular expressions: abstract syntax, parser, Thompson automaton.

Concrete syntax is ASCII: single-character letters, juxtaposition for
concatenation, ``|`` for union, postfix ``*`` and ``+``, parentheses.
Whitespace is ignored.  An empty branch denotes the empty word, so ``""``
and ``(|a)`` are both valid.

`parse_regex` reads the text in one pass with a stack of the open groups,
each a list of branches and each branch a list of factors, so it does not
recurse either.  Parentheses nest at most NESTING_DEPTH_CAP deep, in terms
too, and deeper text raises ParseError.  The dataclass-generated
``__eq__``, ``__hash__`` and ``__repr__`` of the nodes recurse, but no
package code calls them: `dfa_to_regex` never compares labels.  The cap
protects callers who compare or print trees, as parentheses cannot make
trees deep for those three methods.  It does not bound the left-nested
concatenations of a long word: a word of a few hundred letters is already
too deep for them.

Every walk over a regex tree (its alphabet, the Thompson automaton, the
concrete syntax) is a fold over `_postorder`, the node list with each
node after its subexpressions, so no walk recurses however deep the tree.
"""

from dataclasses import dataclass
from functools import reduce

from .errors import ParseError


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


# how deep parentheses nest in a regex or a term; see the module docstring
NESTING_DEPTH_CAP = 100


def _group(branches):
    """One tree for the branches of a group, each a list of factors:
    concatenations and unions nest to the left, and an empty branch is
    the empty word."""
    return reduce(Union, [reduce(Concat, factors) if factors else Empty()
                          for factors in branches])


def parse_regex(text):
    """The regex tree of text: one pass over its characters, whitespace
    skipped, with a stack of the open groups' branches."""
    stack = [[[]]]
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        factors = stack[-1][-1]
        if ch == "(":
            if len(stack) > NESTING_DEPTH_CAP:
                raise ParseError("parentheses nested deeper than %d at "
                                 "position %d" % (NESTING_DEPTH_CAP, pos + 1))
            stack.append([[]])
        elif ch == "|":
            stack[-1].append([])
        elif ch == ")":
            if len(stack) == 1:
                raise ParseError("unexpected ')' at position %d" % pos)
            group = _group(stack.pop())
            stack[-1][-1].append(group)
        elif ch == "*" or ch == "+":
            if not factors:
                raise ParseError("unexpected %r" % ch)
            factors[-1] = (Star if ch == "*" else Plus)(factors[-1])
        else:
            factors.append(Sym(ch))
    if len(stack) > 1:
        raise ParseError("missing closing parenthesis")
    return _group(stack[0])


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


def _cat(a, b):
    if isinstance(a, Empty):
        return b
    if isinstance(b, Empty):
        return a
    return Concat(a, b)


def dfa_to_regex(d):
    """A regex tree for the language of a DFA, or None if it is empty.

    Classic state elimination on the generalized automaton, removing DFA
    states in index order; the output is deterministic in the input.
    Only the states from which acceptance is reachable get edges and are
    eliminated: no path through another state reaches the accepting end,
    so the trees built for it would all be thrown away.

    Why no label is ever compared or simplified:
    - every edge label denotes a nonempty set of words;
    - the automaton is deterministic, so a word fixes the states its run
      passes through, and the words that take i to j through k are
      disjoint from those that avoid k: the two labels `put` joins are
      never equal, so the expression is unambiguous (Book, Even,
      Greibach & Ott, "Ambiguity in graphs and expressions", 1971);
    - an ``Empty`` label sits only on an edge out of the start or into
      the accepting end, so a self-loop's label is never ``Empty``,
      ``Star`` or ``Plus`` and starring it needs no case."""
    n = d.n_states
    start, accept = n, n + 1
    useful = sorted(d.coaccessible_states())
    alive = set(useful)
    edges = {}

    def put(i, j, r):
        edges[i, j] = Union(edges[i, j], r) if (i, j) in edges else r

    for q in useful:
        for ch, r in zip(d.alphabet, d.transitions[q]):
            if r in alive:
                put(q, r, Sym(ch))
    if d.initial in alive:
        put(start, d.initial, Empty())
    for q in d.accepting:
        put(q, accept, Empty())

    for k in useful:
        loop = edges.pop((k, k), None)
        into = [(i, r) for (i, j), r in edges.items() if j == k]
        out = [(j, r if loop is None else _cat(Star(loop), r))
               for (i, j), r in edges.items() if i == k]
        for i, _ in into:
            edges.pop((i, k))
        for j, _ in out:
            edges.pop((k, j))
        for i, rin in into:
            for j, rout in out:
                put(i, j, _cat(rin, rout))
    return edges.get((start, accept))
