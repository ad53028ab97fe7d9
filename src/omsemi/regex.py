"""Regular expressions: abstract syntax, parser, position automaton.

Concrete syntax is ASCII: single-character letters, juxtaposition for
concatenation, ``|`` for union, postfix ``*`` and ``+``, parentheses.
Whitespace is ignored.  An empty branch denotes the empty word, so ``""``
and ``(|a)`` are both valid.

`parse_regex` reads the text in one pass with a stack of the open groups,
each a list of branches and each branch a list of factors, so it does not
recurse either, and parentheses may nest to any depth.

The nodes of both tree families, these and the terms', derive from
`Node`, whose ``==``, ``hash`` and ``repr`` walk the tree with an explicit
stack, so they return on a word of any length: the left-nested
concatenations of a long word are as deep as it is long.

Every walk over a regex tree (its alphabet, the position automaton, the
concrete syntax) is a fold over `_postorder`, the node list with each
node after its subexpressions, so no walk recurses however deep the tree.
`dfa_to_regex` goes the other way, from an automaton straight to the
concrete syntax that `format_regex` would print for its tree.
"""

from functools import reduce

from .errors import ParseError, SizeTooLarge


class Node:
    """An immutable syntax tree node, whose fields are named by its class's
    ``__slots__``.  Equality and hashing go through one tuple, each node's
    type followed by its field values in preorder; a type fixes how many
    fields follow it, so the tuple determines the tree.  ``repr`` prints
    ``Concat(left=Sym(ch='a'), right=Empty())``.  All three walk the tree
    with an explicit stack, and each reads a node as its `_tree()`: the
    node itself, or for a leaf that stands for a subtree (`terms.Word`)
    that subtree."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError("%s takes %d fields, not %d" % (
                type(self).__name__, len(self.__slots__), len(values)))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s nodes are immutable" % type(self).__name__)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def _tree(self):
        return self

    def _key(self):
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Node):
                node = node._tree()
                out.append(type(node))
                stack += [getattr(node, f) for f in reversed(node.__slots__)]
            else:
                out.append(node)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, Node):
                out.append(item)
                continue
            item = item._tree()
            parts = [type(item).__qualname__ + "("]
            for i, name in enumerate(item.__slots__):
                value = getattr(item, name)
                parts += [(", " if i else "") + name + "=",
                          value if isinstance(value, Node) else repr(value)]
            stack += reversed(parts + [")"])
        return "".join(out)


class Empty(Node):
    """The empty word."""
    __slots__ = ()


# Sym and Concat, which parse_regex builds once per letter of a word, set
# their fields directly rather than through Node's loop
class Sym(Node):
    __slots__ = ("ch",)

    def __init__(self, ch):
        object.__setattr__(self, "ch", ch)


class Union(Node):
    __slots__ = ("left", "right")


class Concat(Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Star(Node):
    __slots__ = ("body",)


class Plus(Node):
    __slots__ = ("body",)


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


def _group(branches):
    """One tree for the branches of a group, each a list of factors:
    concatenations and unions nest to the left, and an empty branch is
    the empty word."""
    return reduce(Union, [reduce(Concat, factors) if factors else Empty()
                          for factors in branches])


def parse_regex(text):
    """The regex tree of text: one pass over its characters, whitespace
    skipped, with a stack of the open groups' branches."""
    if not isinstance(text, str):
        raise ParseError("a regex is a str, not %s" % type(text).__name__)
    stack = [[[]]]
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        factors = stack[-1][-1]
        if ch == "(":
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
    """Glushkov's position automaton, which has no empty moves, as
    (n_states, transitions, start, accepting) (Glushkov, "The abstract
    theory of automata", 1961; Berry & Sethi, "From regular expressions
    to deterministic automata", TCS 1986).

    State 0 is the start, and state p >= 1 is the p-th letter of r in
    postorder; a move (p, a, q) reads a, the letter of q.  A fold over
    the postorder keeps (nullable, first positions, last positions) for
    each subexpression on a stack, and adds a move from each last
    position to each first one of the next factor at a concatenation,
    and of the body itself at a star or a plus.  The start moves to the
    first positions of r, and the accepting states are its last
    positions, with 0 when r is nullable.

    The moves are as many as the pairs of positions that can follow one
    another: a star of a union of n equal letters, ``(a|a|...|a)*``, has
    n^2 of them.

    A node of any other type, a term tree or a field that is not a node
    at all, raises ParseError naming the first one in postorder."""
    letter, trans, stack = [None], [], []
    for node in _postorder(r):
        kind = type(node)
        if kind is Sym:
            stack.append((False, [len(letter)], [len(letter)]))
            letter.append(node.ch)
        elif kind is Empty:
            stack.append((True, [], []))
        elif kind is Union:
            # each list belongs to one stack entry, so it is extended in
            # place: a long union of letters costs its length, not its square
            n2, f2, l2 = stack.pop()
            n1, f1, l1 = stack[-1]
            f1 += f2
            l1 += l2
            stack[-1] = n1 or n2, f1, l1
        elif kind is Concat:
            n2, f2, l2 = stack.pop()
            n1, f1, l1 = stack[-1]
            trans += [(p, letter[q], q) for p in l1 for q in f2]
            if n1:
                f1 += f2
            if n2:
                l2 += l1
            stack[-1] = n1 and n2, f1, l2
        elif kind is Star or kind is Plus:
            n1, f1, l1 = stack[-1]
            trans += [(p, letter[q], q) for p in l1 for q in f1]
            stack[-1] = n1 or kind is Star, f1, l1
        else:
            module = kind.__module__.rpartition(".")[2]
            raise ParseError("a regex tree is made of regex nodes, not %s" % (
                kind.__qualname__ if module == "builtins"
                else module + "." + kind.__qualname__))
    nullable, first, last = stack.pop()
    trans += [(0, letter[q], q) for q in first]
    return len(letter), trans, 0, set(last + [0] * nullable)


def _operand(label, need):
    """The text of a (text, precedence) label, parenthesised when its
    precedence is below what its parent needs."""
    return "(%s)" % label[0] if label[1] < need else label[0]


def format_regex(r):
    """Concrete syntax for a regex tree; parse_regex inverts it.

    A fold over the postorder with (text, precedence) pairs: a union is
    precedence 0, a concatenation 1, atoms and postfix nodes 2, and a
    child is parenthesised when its precedence is below what its parent
    needs."""
    out = []
    for node in _postorder(r):
        kind = type(node)
        if kind is Empty or kind is Sym:
            out.append(("()" if kind is Empty else node.ch, 2))
        elif kind is Star or kind is Plus:
            out[-1] = (_operand(out[-1], 2) + ("*" if kind is Star else "+"),
                       2)
        else:
            prec = 0 if kind is Union else 1
            right = _operand(out.pop(), prec)
            out[-1] = (_operand(out[-1], prec) + ("|" if prec == 0 else "")
                       + right, prec)
    return out[0][0]


# the label of the empty word: it prints "()" and _cat drops it
_EPSILON = ("()", 2)


def _cat(a, b):
    if a is _EPSILON:
        return b
    if b is _EPSILON:
        return a
    return _operand(a, 1) + _operand(b, 1), 1


# The longest edge label dfa_to_regex builds.  State elimination can need
# an expression exponentially longer than its automaton (Ehrenfeucht &
# Zeiger, "Complexity measures for regular expressions", 1976), and a
# label past this cap raises SizeTooLarge where it is joined; the class
# expressions of the paper's languages and of the benchmark's pools stay
# below 2000 characters.
LABEL_CAP = 10 ** 5


def dfa_to_regex(alphabet, rows, initial, accepting, states):
    """Concrete syntax for the language of a DFA, or None if it is empty.

    The DFA is given by its rows (rows[q][i]: the state letter i of the
    alphabet takes q to), its initial and accepting states, and the
    states to eliminate, in order: those from which acceptance is
    reachable.  An edge into any other state is left out, since no path
    through it reaches the accepting end.  Classic state elimination on
    the generalized automaton, with a start and an accepting end added;
    the output is deterministic in the input, and parse_regex reads it.

    Each edge label is the text of its expression with its precedence,
    the (text, precedence) pairs format_regex folds with: a union is 0,
    a concatenation 1, a letter or a star 2.  A union's operands are
    never parenthesised, a concatenation's are when they are unions, and
    a star's body when it is not a letter or a star; so the text is the
    one format_regex prints for the tree of the same unions,
    concatenations and stars, however they nest.  The empty word is the
    one label _EPSILON, which prints "()" and which _cat drops.

    Why no label is ever compared or simplified:
    - every edge label denotes a nonempty set of words;
    - the automaton is deterministic, so a word fixes the states its run
      passes through, and the words that take i to j through k are
      disjoint from those that avoid k: the two labels `put` joins are
      never equal, so the expression is unambiguous (Book, Even,
      Greibach & Ott, "Ambiguity in graphs and expressions", 1971);
    - _EPSILON sits only on an edge out of the start or into the
      accepting end, so a self-loop's label is never _EPSILON or a star,
      and starring it needs no case.

    Each state keeps its edges out (out_of[i][j], the label) and the
    sources of its edges in (into[j]), so eliminating a state touches
    only its own edges.  Every label is stored through `put`, which
    raises SizeTooLarge for one longer than LABEL_CAP characters."""
    start, accept = object(), object()
    out_of = {q: {} for q in states}
    into = {q: {} for q in states}
    out_of[start] = {}
    into[accept] = {}

    def put(i, j, label):
        out = out_of[i]
        if j in out:
            label = out[j][0] + "|" + label[0], 0
        else:
            into[j][i] = None
        if len(label[0]) > LABEL_CAP:
            raise SizeTooLarge("regular expression exceeds %d characters"
                               % LABEL_CAP)
        out[j] = label

    for q in states:
        for ch, r in zip(alphabet, rows[q]):
            if r in into:
                put(q, r, (ch, 2))
    if initial in out_of:
        put(start, initial, _EPSILON)
    for q in accepting:
        put(q, accept, _EPSILON)

    for k in states:
        out = out_of.pop(k)
        loop = out.pop(k, None)
        sources = into.pop(k)
        sources.pop(k, None)
        for j in out:
            del into[j][k]
        if loop is not None:
            star = (_operand(loop, 2) + "*", 2)
            out = {j: _cat(star, label) for j, label in out.items()}
        for i in sources:
            label_in = out_of[i].pop(k)
            for j, label_out in out.items():
                put(i, j, _cat(label_in, label_out))
    label = out_of[start].get(accept)
    return None if label is None else label[0]
