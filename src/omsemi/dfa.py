"""Complete deterministic finite automata.

States are 0..n-1; transitions are total.  ``compile_min_dfa`` takes a
regex (string or syntax tree) to the minimal complete DFA, renumbered
canonically by breadth-first search from the initial state, so equal
languages over the same alphabet give equal automata.

``Dfa.minimize`` is Hopcroft's partition refinement, O(n |A| log n)
(Hopcroft, "An n log n algorithm for minimizing states in a finite
automaton", 1971; Valmari, "Fast brief practical DFA minimization",
Information Processing Letters 112, 2012).  The minimal DFA is unique up
to isomorphism, so the breadth-first numbering makes its result
independent of the refinement order.  Two callers minimise:
``compile_min_dfa`` and ``syntactic_semigroup`` given a ``Dfa``; class
languages are read off the multiplication table instead.

Every walk over states goes through the walks of ``omsemi.graphs``: the
reachable and co-accessible states, the subset construction of
``compile_min_dfa``, whose subsets are sets of positions of the regex's
position automaton (it has no empty moves, so a subset needs no
closure), the two numberings of ``minimize`` and the reachable state
pairs of the product automaton that ``languages_equal`` and
``has_common_word`` inspect are breadth-first, and
``is_finite_language`` reads the strongly connected components.
``minimize`` and the syntactic order's pair marking share one table of
each state's predecessors under each letter, ``_predecessors``.

An automaton is checked where it enters.  A ``Dfa`` built by a caller
from a table of the wrong shape (the one ``errors._checked_rows`` test
that semigroup tables pass too), an alphabet that repeats a letter or
holds an unhashable one, or an initial or accepting state that is not a
state raises ``MalformedTable``.  The automata the package builds itself,
the subset automaton of ``compile_min_dfa``, the result of ``minimize``
and a class language, go through the private ``Dfa._of``, which sets the
fields and checks nothing.
"""

from collections import Counter

from .errors import (AlphabetMismatch, EmptyAlphabet, MalformedTable,
                     ParseError, _checked_rows, listed)
from .graphs import _scc_labels, breadth_first, reachable
from .regex import Node, nfa_of_regex, parse_regex, regex_alphabet


class Dfa:
    def __init__(self, alphabet, transitions, initial, accepting):
        alphabet = listed(alphabet, "alphabet")
        rows = _checked_rows(transitions, len(alphabet))
        try:
            d = self._of(alphabet, rows, initial,
                         listed(accepting, "accepting states"))
        except TypeError:
            raise MalformedTable("a letter or accepting state is not "
                                 "hashable") from None
        if len(d.letter_index) != len(d.alphabet):
            raise MalformedTable("alphabet repeats a letter: %r"
                                 % (d.alphabet,))
        if type(initial) is not int or not 0 <= initial < d.n_states:
            raise MalformedTable("initial state out of range: %r"
                                 % (initial,))
        for q in d.accepting:
            if type(q) is not int or not 0 <= q < d.n_states:
                raise MalformedTable("accepting state out of range: %r"
                                     % (q,))
        vars(self).update(vars(d))

    @classmethod
    def _of(cls, alphabet, transitions, initial, accepting):
        """The automaton with these fields, `transitions` a list of lists,
        and nothing checked: the one place the fields are set.  The
        package builds its own automata through it; __init__ checks a
        caller's input and sets it here."""
        d = cls.__new__(cls)
        d.alphabet = tuple(alphabet)
        d.transitions = transitions
        d.n_states = len(transitions)
        d.initial = initial
        d.letter_index = {a: i for i, a in enumerate(d.alphabet)}
        d.accepting = frozenset(accepting)
        return d

    def run(self, word):
        q = self.initial
        for ch in word:
            i = self.letter_index.get(ch)
            if i is None:
                raise AlphabetMismatch("letter %r not in alphabet" % ch)
            q = self.transitions[q][i]
        return q

    def accepts(self, word):
        return self.run(word) in self.accepting

    def coaccessible_states(self):
        """The states from which an accepting state is reachable,
        breadth-first backwards from the accepting states."""
        back = [[] for _ in range(self.n_states)]
        for q in range(self.n_states):
            for r in self.transitions[q]:
                back[r].append(q)
        return reachable(sorted(self.accepting), back.__getitem__)

    def minimize(self):
        """The minimal complete DFA of the same language, numbered by
        breadth-first search from its initial state, so that equal
        languages over the same alphabet give equal automata.

        The reachable states are refined by Hopcroft's algorithm: a
        worklist of (block, letter) splitters, each splitting every block
        by whether a state's letter-successor lies in the splitter, and
        the smaller half of a split block going on the worklist, in
        O(n |A| log n) (Hopcroft 1971; Valmari, "Fast brief practical DFA
        minimization", IPL 2012)."""
        k = len(self.alphabet)
        order, trans = breadth_first(self.initial,
                                     self.transitions.__getitem__)
        n = len(order)
        final = [q in self.accepting for q in order]
        preds = _predecessors(trans, k)
        blocks = [b for b in ({q for q in range(n) if final[q]},
                              {q for q in range(n) if not final[q]}) if b]
        blocks.sort(key=len)
        block_of = [0] * n
        for i, b in enumerate(blocks):
            for q in b:
                block_of[q] = i
        work = [(0, a) for a in range(k)] if len(blocks) == 2 else []
        waiting = set(work)
        while work:
            splitter = work.pop()
            waiting.discard(splitter)
            b, a = splitter
            # each touched block, with its states that a takes into b
            touched = {}
            for r in blocks[b]:
                for q in preds[a][r]:
                    touched.setdefault(block_of[q], set()).add(q)
            for c, inside in touched.items():
                rest = blocks[c]
                if len(inside) == len(rest):
                    continue
                # what stays costs nothing: a split costs the moved states
                rest -= inside
                new = len(blocks)
                blocks.append(inside)
                for q in inside:
                    block_of[q] = new
                half = new if len(inside) <= len(rest) else c
                for x in range(k):
                    pending = (new if (c, x) in waiting else half, x)
                    waiting.add(pending)
                    work.append(pending)
        border, qtrans = breadth_first(block_of[0], lambda b: [
            block_of[r] for r in trans[min(blocks[b])]])
        qaccept = {i for i, b in enumerate(border) if final[min(blocks[b])]}
        return Dfa._of(self.alphabet, qtrans, 0, qaccept)


def _predecessors(transitions, k):
    """preds[a][r]: the states whose a-successor is r, in increasing
    order, for a table of k letters."""
    preds = [[[] for _ in transitions] for _ in range(k)]
    for q, row in enumerate(transitions):
        for a, r in enumerate(row):
            preds[a][r].append(q)
    return preds


def compile_min_dfa(r, alphabet=None):
    """Minimal complete DFA of a regex, a str or a syntax tree, over the
    given (or inferred) alphabet.  A tree is checked to be a regex's by
    nfa_of_regex, which reads it first; text gets a tree from parse_regex,
    which is one."""
    if isinstance(r, str):
        r = parse_regex(r)
    elif not isinstance(r, Node):
        raise ParseError("a regex is a str or a regex.Node tree, not %s"
                         % type(r).__name__)
    n, trans, start, accept = nfa_of_regex(r)
    letters = regex_alphabet(r)
    if alphabet is not None:
        extra = letters - set(alphabet)
        if extra:
            raise AlphabetMismatch("letters %s not in declared alphabet"
                                   % sorted(extra))
        letters = set(alphabet)
    if not letters:
        raise EmptyAlphabet("regex has no letters and no alphabet was given")
    alpha = tuple(sorted(letters))
    moves = [{} for _ in range(n)]
    for p, ch, q in trans:
        moves[p].setdefault(ch, []).append(q)

    def successors(subset):
        return [frozenset([q for p in subset for q in moves[p].get(ch, ())])
                for ch in alpha]

    # the subset construction over the sets of positions reachable from
    # the start
    order, dtrans = breadth_first(frozenset([start]), successors)
    daccept = {i for i, subset in enumerate(order) if accept & subset}
    return Dfa._of(alpha, dtrans, 0, daccept).minimize()


def _reachable_pairs(d1, d2):
    """The state pairs of the product automaton that are reachable from
    the pair of initial states."""
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatch("%r vs %r" % (d1.alphabet, d2.alphabet))
    t1, t2 = d1.transitions, d2.transitions
    return reachable([(d1.initial, d2.initial)],
                     lambda pair: zip(t1[pair[0]], t2[pair[1]]))


def languages_equal(d1, d2):
    """Language equality: no reachable state pair separates a word."""
    a1, a2 = d1.accepting, d2.accepting
    return all((p in a1) == (q in a2) for p, q in _reachable_pairs(d1, d2))


def has_common_word(d1, d2):
    """True iff the two automata accept some word in common."""
    a1, a2 = d1.accepting, d2.accepting
    return any(p in a1 and q in a2 for p, q in _reachable_pairs(d1, d2))


def is_empty(d):
    return d.accepting.isdisjoint(
        reachable([d.initial], d.transitions.__getitem__))


def is_finite_language(d):
    """True iff the accepted language is finite: no useful state, one
    that is reachable and co-accessible, lies on a cycle, that is, in a
    strongly connected component of two or more states or on a loop.  A
    component holding a useful state holds only useful states."""
    useful = (set(reachable([d.initial], d.transitions.__getitem__))
              & set(d.coaccessible_states()))
    comp = _scc_labels(d.transitions)
    size = Counter(comp)
    return all(size[comp[q]] == 1 and q not in d.transitions[q]
               for q in useful)


def enumerate_accepted(d, max_len):
    """Accepted words in length-lexicographic order, up to max_len.

    Prunes prefixes that cannot reach an accepting state; intended for
    thin languages.
    """
    useful = set(d.coaccessible_states())
    out = []
    level = [("", d.initial)]
    for _ in range(max_len + 1):
        nxt = []
        for w, q in level:
            if q in d.accepting:
                out.append(w)
            for a, ch in enumerate(d.alphabet):
                r = d.transitions[q][a]
                if r in useful:
                    nxt.append((w + ch, r))
        level = nxt
    return out
