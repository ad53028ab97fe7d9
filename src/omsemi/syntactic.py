"""Syntactic semigroups of regular languages.

The syntactic semigroup is computed as the transition semigroup of the
minimal complete DFA: each nonempty word acts on the state set, and two
words are syntactically congruent iff they induce the same action.  Class
representatives are the shortest words in shortlex order, discovered by
breadth-first closure of the letter actions.
"""

from .dfa import Dfa, compile_min_dfa
from .errors import ElementNotWordImage, SizeTooLarge
from .semigroup import FiniteSemigroup, GeneratorMap


def _compose(f, g):
    """Action of a word uv given the actions of u and v (u applied first)."""
    return tuple(g[q] for q in f)


class SyntacticPresentation:
    """A syntactic semigroup together with its word-class bookkeeping."""

    def __init__(self, dfa, elements, words, table, letter_map):
        self.dfa = dfa
        self.elements = elements
        self.index = {t: i for i, t in enumerate(elements)}
        self.words = words
        # the identity is the class of a word acting as the empty word does
        self.semigroup = FiniteSemigroup(
            table, labels=list(words),
            identity=self.index.get(tuple(range(dfa.n_states))))
        self.gens = GeneratorMap(self.semigroup, dict(letter_map))
        self._order = None

    @property
    def alphabet(self):
        return self.dfa.alphabet

    def classof(self, word):
        """Syntactic class of a nonempty word."""
        if not word:
            raise ValueError("the empty word has no syntactic class")
        t = None
        for ch in word:
            i = self.dfa.letter_index.get(ch)
            if i is None:
                raise KeyError("letter %r not in alphabet" % ch)
            step = tuple(self.dfa.transitions[q][i]
                         for q in range(self.dfa.n_states))
            t = step if t is None else _compose(t, step)
        return self.index[t]

    def _monoid_actions(self):
        acts = list(self.elements)
        if self.semigroup.identity is None:
            acts.append(tuple(range(self.dfa.n_states)))
        return acts

    def syntactic_order(self):
        """The stable partial order: [u] <= [v] iff every accepting context
        of u is an accepting context of v."""
        if self._order is None:
            accept = [q in self.dfa.accepting
                      for q in range(self.dfa.n_states)]
            acts = self._monoid_actions()
            states = range(self.dfa.n_states)
            n = len(self.elements)
            pairs = set()
            for u in range(n):
                ut = self.elements[u]
                for v in range(n):
                    vt = self.elements[v]
                    if all(accept[h[vt[q]]]
                           for q in states for h in acts if accept[h[ut[q]]]):
                        pairs.add((u, v))
            self._order = frozenset(pairs)
        return self._order

    def ordered_semigroup(self):
        """The syntactic semigroup, with its syntactic order attached once
        the order has been proven stable."""
        S = self.semigroup
        if S.order is None:
            S.order = S._check_order(self.syntactic_order())
        return S

    def class_language(self, e):
        """Minimal DFA for the set of nonempty words in class e."""
        if not (0 <= e < len(self.elements)):
            raise ElementNotWordImage("no class with index %r" % (e,))
        n = len(self.elements)
        table = self.semigroup.table
        gens = self.gens
        # fresh start state 0, then one state per class
        trans = [[1 + gens(ch) for ch in self.alphabet]]
        for i in range(n):
            trans.append([1 + table[i][gens(ch)] for ch in self.alphabet])
        d = Dfa(self.alphabet, trans, 0, {1 + e})
        return d.minimize()

    def __repr__(self):
        return "<syntactic semigroup: %d classes over %s>" % (
            len(self.elements), "".join(self.alphabet))


def syntactic_semigroup(d, alphabet=None, max_elements=2000):
    """Syntactic presentation of a regular language.

    Accepts a Dfa, a regex string, or a regex syntax tree; anything not
    already a minimal DFA is minimised first.
    """
    if not isinstance(d, Dfa):
        d = compile_min_dfa(d, alphabet=alphabet)
    elif not d.minimal:
        d = d.minimize()
    nq = d.n_states
    letters = list(d.alphabet)
    letter_acts = [tuple(d.transitions[q][i] for q in range(nq))
                   for i in range(len(letters))]
    elements = []
    words = []
    index = {}
    for i, ch in enumerate(letters):
        t = letter_acts[i]
        if t not in index:
            index[t] = len(elements)
            elements.append(t)
            words.append(ch)
    pos = 0
    while pos < len(elements):
        t = elements[pos]
        w = words[pos]
        pos += 1
        for i, ch in enumerate(letters):
            nt = _compose(t, letter_acts[i])
            if nt not in index:
                if len(elements) >= max_elements:
                    raise SizeTooLarge(
                        "transition semigroup exceeds %d elements"
                        % max_elements)
                index[nt] = len(elements)
                elements.append(nt)
                words.append(w + ch)
    n = len(elements)
    table = [[index[_compose(elements[i], elements[j])] for j in range(n)]
             for i in range(n)]
    letter_map = {ch: index[letter_acts[i]] for i, ch in enumerate(letters)}
    return SyntacticPresentation(d, elements, words, table, letter_map)
