"""Syntactic semigroups of regular languages.

The syntactic semigroup is computed as the transition semigroup of the
minimal complete DFA: each nonempty word acts on the state set, and two
words are syntactically congruent iff they induce the same action.  Class
representatives are the shortest words in shortlex order, discovered by
one breadth-first walk of the letter actions from the empty word.

The walk composes each class with each letter once, in one C call per
letter, which gives the right Cayley graph; its rows are kept as the
right Cayley automaton.  One pass over its tree edges then labels each
class with its word and fills the table column by column: the column of
a class, x -> xw for every class x, is its parent's column followed by
one step of the graph (Froidure & Pin, "Algorithms for computing finite
semigroups", 1997).  The table goes to `FiniteSemigroup._of`, with the
letter classes as the generators, and is not proven: a transition
semigroup is associative and generated by its letters by construction,
and the class that acts as the empty word is neutral.

A minimal DFA of n states has at least n - 1 classes, the actions of
words that take its start to each other state, so a DFA with more than
one state past the cap is refused before the walk.

A class language is read off the same table, with no minimisation: the
residuals of the class of e are keyed by the solutions t of st = e, which
one pass over the table lists for every e and s at once.  Each distinct
set of solutions is numbered with an even number, and a key is that
number plus one iff the residual holds the empty word, so a key is
accepting iff it is odd.  Every class with no solution shares the dead
key 0, whose residual is empty; every other key's residual is nonempty.
So `class_expression` hands the key rows to `dfa_to_regex` to eliminate
every key but the dead one, with no DFA in between.  Whether a class is
finite is read off the table as well, and `finite_class_words` lists a
finite class's words from its residual keys, so no class builds a DFA
unless `class_language` asks.

The syntactic order rests on the residual-inclusion preorder on states,
found by Moore's pair marking: the pairs (accepting, rejecting) are
marked first, and each marked pair marks its predecessor pairs under
each letter, each pair at most once.  The order is stable by theorem, so
it is attached to the semigroup without a proof.
"""

from itertools import count
from operator import itemgetter

from .dfa import Dfa, _predecessors, compile_min_dfa
from .errors import (AlphabetMismatch, ElementNotWordImage, InternalError,
                     SizeTooLarge)
from .graphs import breadth_first, reachable
from .regex import dfa_to_regex
from .semigroup import FiniteSemigroup, GeneratorMap

# the residual key of every class with no solution t: the empty residual
_DEAD = 0


class SyntacticPresentation:
    """A syntactic semigroup together with its word-class bookkeeping.

    `cayley` holds the rows of the right Cayley automaton: state 0 is the
    start, state 1 + i the class i, and letter a takes the start to
    1 + [a] and 1 + i to 1 + i[a]."""

    def __init__(self, dfa, elements, words, cayley, table, identity):
        self.dfa = dfa
        self.elements = elements
        self.words = words
        self.cayley = cayley
        letters = [q - 1 for q in cayley[0]]
        self.semigroup = FiniteSemigroup._of(
            table, tuple(sorted(set(letters))), identity)
        self.gens = GeneratorMap(self.semigroup,
                                 dict(zip(dfa.alphabet, letters)))
        self._order = None
        self._sol = None
        self._infinite = None

    @property
    def alphabet(self):
        return self.dfa.alphabet

    def classof(self, word):
        """Syntactic class of a nonempty word: the product in the table of
        its letters' classes."""
        if not word:
            raise ValueError("the empty word has no syntactic class")
        letters = self.gens.assignment
        table = self.semigroup.table
        e = None
        for ch in word:
            g = letters.get(ch)
            if g is None:
                raise AlphabetMismatch("letter %r not in alphabet" % ch)
            e = g if e is None else table[e][g]
        return e

    def syntactic_order(self):
        """The stable partial order: [u] <= [v] iff every accepting context
        of u is an accepting context of v.

        On the minimal DFA every state is reached, so this says p.u <= p.v
        for every state p in the residual-inclusion preorder on states,
        where p <= q iff every word accepted from p is accepted from q
        (Pin, "Syntactic semigroups", Handbook of Formal Languages I,
        1997)."""
        if self._order is None:
            below = _state_preorder(self.dfa)
            nq = self.dfa.n_states
            # at[p][r]: the classes u with p.u = r, as a bit set
            at = [[0] * nq for _ in range(nq)]
            for u, ut in enumerate(self.elements):
                bit = 1 << u
                for p, r in enumerate(ut):
                    at[p][r] |= bit
            # above[p][r]: the classes v with r <= p.v
            above = [[0] * nq for _ in range(nq)]
            for p in range(nq):
                for r in range(nq):
                    for s in range(nq):
                        if below[r][s]:
                            above[p][r] |= at[p][s]
            pairs = []
            for u, ut in enumerate(self.elements):
                vs = -1
                for p, r in enumerate(ut):
                    vs &= above[p][r]
                while vs:
                    low = vs & -vs
                    pairs.append((u, low.bit_length() - 1))
                    vs ^= low
            self._order = frozenset(pairs)
        return self._order

    def ordered_semigroup(self):
        """The syntactic semigroup with its syntactic order attached.  The
        order is a reflexive stable partial order by theorem, so it is not
        proven again."""
        S = self.semigroup
        if S.order is None:
            S.order = self.syntactic_order()
        return S

    def _check_class(self, e):
        if (isinstance(e, bool) or not isinstance(e, int)
                or not 0 <= e < len(self.elements)):
            raise ElementNotWordImage("no class with index %r" % (e,))

    def _solutions(self):
        """sol[e][s]: the number of the fiber of e over s, the classes t
        with st = e, for each class s that has one.  One pass over the
        table, built once per presentation.  Each distinct fiber, as an
        increasing tuple, gets one even number 2, 4, 6, ..., kept in
        `_fibers`, so equal fibers share their number."""
        if self._sol is None:
            self._sol = sol = [{} for _ in self.elements]
            self._fibers = fibers = {}
            for s, row in enumerate(self.semigroup.table):
                by_e = {}
                for t, e in enumerate(row):
                    by_e.setdefault(e, []).append(t)
                for e, ts in by_e.items():
                    sol[e][s] = fibers.setdefault(tuple(ts),
                                                  2 * len(fibers) + 2)
        return self._sol

    def _residual_keys(self, e):
        """The residual keys of class e, walked breadth-first from the
        start's, and each key's successors by letter, as positions.

        The residual of the class by a word of class s is the set of
        words of the classes t with st = e, together with the empty word
        iff s = e; the residual of the class by the empty word is the
        class itself.  So each state 1 + s of the Cayley automaton
        accepting at 1 + e has the key sol[e][s] + (s == e), the number
        of its fiber plus one iff it accepts, the start has the number of
        the fiber (e,), and two states have the same residual iff they
        have the same key (Pin, Mathematical Foundations of Automata
        Theory, ch. IV).  A key is accepting iff it is odd.  Every class
        with no solution t has the dead key 0, the one key whose residual
        is empty; a class e with no solution of et = e has the key 1."""
        self._check_class(e)
        rows = self.cayley
        sol = self._solutions()[e]
        fibers = self._fibers
        accept = 1 + e
        start = fibers.setdefault((e,), 2 * len(fibers) + 2)
        # reps[i]: the first Cayley state found with the i-th key, whose
        # row stands for the row of every state with that key.  Written
        # out rather than run through graphs.breadth_first, with no
        # successor closure, because it measured faster.
        keys, reps, num, trans = [start], [0], {start: 0}, []
        for q in reps:      # the list grows as keys are found
            row = []
            for r in rows[q]:
                k = sol.get(r - 1, 0) + (r == accept)
                i = num.get(k)
                if i is None:
                    i = num[k] = len(keys)
                    keys.append(k)
                    reps.append(r)
                row.append(i)
            trans.append(row)
        return keys, trans

    def class_language(self, e):
        """Minimal DFA for the set of nonempty words in class e: the
        residual keys are its states, numbered as Dfa.minimize numbers
        them."""
        keys, trans = self._residual_keys(e)
        return Dfa._of(self.alphabet, trans, 0,
                       {i for i, k in enumerate(keys) if k & 1})

    def class_expression(self, e):
        """A regular expression for the words in class e, in concrete
        syntax, eliminating the residual keys in order.  Every key but the
        dead one has a nonempty residual, so it is eliminated; no DFA is
        built."""
        keys, trans = self._residual_keys(e)
        return dfa_to_regex(self.alphabet, trans, 0,
                            [i for i, k in enumerate(keys) if k & 1],
                            [i for i, k in enumerate(keys) if k != _DEAD])

    def finite_class_words(self, e):
        """Every word of class e in length-lexicographic order, or None if
        the class is infinite.

        The class is infinite iff e lies in the ideal S^1 E S^1 that the
        idempotents generate: e = a f b with f = f^k has words with f's
        word k times over for every k, and a word of more than |S| letters
        has two prefixes of one class s, so s = s v = s v^omega, with the
        idempotent v^omega.  The ideal is walked once per presentation,
        from the idempotents along the left and right Cayley graphs.  A
        finite class's words are read off its residual keys level by
        level, pruning the dead key: every other key has a nonempty
        residual, so a finite class has no cycle through them.  Its words
        have at most |S| letters, so a level past that raises
        InternalError: the table and the Cayley rows disagree."""
        self._check_class(e)
        if self._infinite is None:
            t = self.semigroup.table
            gens = self.semigroup.generators
            self._infinite = set(reachable(
                [f for f, row in enumerate(t) if row[f] == f],
                lambda a: [t[a][g] for g in gens] + [t[g][a] for g in gens]))
        if e in self._infinite:
            return None
        keys, trans = self._residual_keys(e)
        words, level = [], [("", 0)]
        for _ in range(len(self.elements) + 1):
            words += [w for w, q in level if keys[q] & 1]
            level = [(w + ch, r) for w, q in level
                     for ch, r in zip(self.alphabet, trans[q])
                     if keys[r] != _DEAD]
            if not level:
                return words
        raise InternalError("class %d is finite by its table but has a "
                            "word of %d letters" % (e, len(level[0][0])))

    def __repr__(self):
        return "<syntactic semigroup: %d classes over %s>" % (
            len(self.elements), "".join(self.alphabet))


def _state_preorder(d):
    """below[p][q]: every word accepted from state p is accepted from q.

    Moore's pair marking: a pair (p, q) is not below when p accepts and q
    rejects, or when some letter takes it to a pair that is not below.
    The base pairs are marked first; each marked pair, popped from the
    worklist, marks the unmarked pairs of its predecessors under each
    letter, so each pair is marked at most once."""
    nq = d.n_states
    acc = d.accepting
    preds = _predecessors(d.transitions, len(d.alphabet))
    below = [[True] * nq for _ in range(nq)]
    marked = [(p, q) for p in acc for q in range(nq) if q not in acc]
    for p, q in marked:
        below[p][q] = False
    while marked:
        p, q = marked.pop()
        for into in preds:
            sources = into[q]
            for a in into[p]:
                row = below[a]
                for b in sources:
                    if row[b]:
                        row[b] = False
                        marked.append((a, b))
    return below


def syntactic_semigroup(d, alphabet=None, max_elements=2000):
    """Syntactic presentation of a regular language.

    Accepts a Dfa, which is minimised first, or a regex string or syntax
    tree, which compile_min_dfa takes to its minimal DFA.
    """
    if isinstance(d, Dfa):
        d = d.minimize()
    else:
        d = compile_min_dfa(d, alphabet=alphabet)
    if d.n_states - 1 > max_elements:
        raise SizeTooLarge("transition semigroup exceeds %d elements"
                           % max_elements)
    acts = [tuple(row[i] for row in d.transitions)
            for i in range(len(d.alphabet))]
    # successors is called once per node, in order: node k > max_elements
    # exists iff there are more than max_elements classes
    calls = count()

    def successors(t):
        if next(calls) > max_elements:
            raise SizeTooLarge("transition semigroup exceeds %d elements"
                               % max_elements)
        # t followed by each letter, in one C call per letter; with one
        # state every action is (0,), and itemgetter of one index would
        # return a bare entry
        if t is None or len(t) == 1:
            return acts
        return list(map(itemgetter(*t), acts))

    # node 0 is the empty word, node 1 + j the class j
    nodes, rows = breadth_first(None, successors)
    # right[i]: the column x -> x a_i of the i-th letter, over the classes
    right = [tuple(q - 1 for q in col) for col in zip(*rows[1:])]
    # the first edge into a node is its tree edge: its word is the
    # parent's word and that letter, and its column is the letter's
    # column read at each entry of the parent's, or the letter's own
    # when the parent is the empty word
    words = [""] + [None] * (len(nodes) - 1)
    columns = [None] * len(nodes)
    for p, row in enumerate(rows):
        for i, k in enumerate(row):
            if words[k] is None:
                words[k] = words[p] + d.alphabet[i]
                # p and k are two classes here, so itemgetter of the
                # parent's n >= 2 entries gives a tuple
                columns[k] = (itemgetter(*columns[p])(right[i]) if p
                              else right[i])
    elements = nodes[1:]
    # the identity is the class of a word acting as the empty word does
    one = tuple(range(d.n_states))
    return SyntacticPresentation(
        d, elements, words[1:], rows, list(map(list, zip(*columns[1:]))),
        next((j for j, t in enumerate(elements) if t == one), None))
