"""Complete deterministic finite automata.

States are 0..n-1; transitions are total.  ``compile_min_dfa`` takes a
regex (string or syntax tree) to the minimal complete DFA, renumbered
canonically by breadth-first search from the initial state, so equal
languages over the same alphabet give byte-identical dumps.

``Dfa.minimize`` is Hopcroft's partition refinement, O(n |A| log n)
(Hopcroft, "An n log n algorithm for minimizing states in a finite
automaton", 1971; Valmari, "Fast brief practical DFA minimization",
Information Processing Letters 112, 2012).  The minimal DFA is unique up
to isomorphism, so the breadth-first numbering makes its result
independent of the refinement order.
"""

from .errors import AlphabetMismatch, EmptyAlphabet, ParseError
from .regex import nfa_of_regex, parse_regex, regex_alphabet


class Dfa:
    def __init__(self, alphabet, transitions, initial, accepting,
                 minimal=False):
        self.alphabet = tuple(alphabet)
        self.letter_index = {a: i for i, a in enumerate(self.alphabet)}
        self.transitions = [list(row) for row in transitions]
        self.n_states = len(self.transitions)
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.minimal = minimal
        for row in self.transitions:
            if len(row) != len(self.alphabet):
                raise ValueError("transition row has wrong arity")
            for q in row:
                if not (0 <= q < self.n_states):
                    raise ValueError("transition target out of range")

    def step(self, state, letter):
        return self.transitions[state][self.letter_index[letter]]

    def run(self, word, start=None):
        q = self.initial if start is None else start
        for ch in word:
            i = self.letter_index.get(ch)
            if i is None:
                raise AlphabetMismatch("letter %r not in alphabet" % ch)
            q = self.transitions[q][i]
        return q

    def accepts(self, word):
        return self.run(word) in self.accepting

    def reachable_states(self):
        seen = [False] * self.n_states
        seen[self.initial] = True
        stack = [self.initial]
        while stack:
            q = stack.pop()
            for r in self.transitions[q]:
                if not seen[r]:
                    seen[r] = True
                    stack.append(r)
        return [q for q in range(self.n_states) if seen[q]]

    def coaccessible_states(self):
        back = [[] for _ in range(self.n_states)]
        for q in range(self.n_states):
            for r in self.transitions[q]:
                back[r].append(q)
        seen = [False] * self.n_states
        stack = list(self.accepting)
        for q in stack:
            seen[q] = True
        while stack:
            q = stack.pop()
            for r in back[q]:
                if not seen[r]:
                    seen[r] = True
                    stack.append(r)
        return [q for q in range(self.n_states) if seen[q]]

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
        if self.minimal:
            return self
        k = len(self.alphabet)
        order, trans = _breadth_first(self.initial,
                                      self.transitions.__getitem__)
        n = len(order)
        final = [q in self.accepting for q in order]
        # preds[a][r]: the states whose a-successor is r
        preds = [[[] for _ in range(n)] for _ in range(k)]
        for q, row in enumerate(trans):
            for a, r in enumerate(row):
                preds[a][r].append(q)
        blocks = [b for b in ([q for q in range(n) if final[q]],
                              [q for q in range(n) if not final[q]]) if b]
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
                    touched.setdefault(block_of[q], []).append(q)
            for c, inside in touched.items():
                if len(inside) == len(blocks[c]):
                    continue
                moved = set(inside)
                rest = [q for q in blocks[c] if q not in moved]
                new = len(blocks)
                blocks[c] = rest
                blocks.append(inside)
                for q in inside:
                    block_of[q] = new
                half = new if len(inside) <= len(rest) else c
                for x in range(k):
                    pending = (new if (c, x) in waiting else half, x)
                    waiting.add(pending)
                    work.append(pending)
        border, qtrans = _breadth_first(
            block_of[0], lambda b: [block_of[r] for r in trans[blocks[b][0]]])
        qaccept = {i for i, b in enumerate(border) if final[blocks[b][0]]}
        return Dfa(self.alphabet, qtrans, 0, qaccept, minimal=True)


def _breadth_first(start, successors):
    """The nodes reachable from start in breadth-first order, successors
    taken in order, and for each node its successors' positions in that
    order."""
    num = {start: 0}
    order = [start]
    rows = []
    for x in order:     # the list grows as nodes are found
        row = []
        for y in successors(x):
            if y not in num:
                num[y] = len(order)
                order.append(y)
            row.append(num[y])
        rows.append(row)
    return order, rows


def compile_min_dfa(r, alphabet=None):
    """Minimal complete DFA of a regex over the given (or inferred) alphabet."""
    if isinstance(r, str):
        r = parse_regex(r)
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
    n, trans, start, accept = nfa_of_regex(r)
    eps = [[] for _ in range(n)]
    by_letter = [{} for _ in range(n)]
    for s, ch, t in trans:
        if ch is None:
            eps[s].append(t)
        else:
            by_letter[s].setdefault(ch, []).append(t)

    def closure(states):
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for r2 in eps[q]:
                if r2 not in seen:
                    seen.add(r2)
                    stack.append(r2)
        return frozenset(seen)

    start_set = closure([start])
    subsets = {start_set: 0}
    order = [start_set]
    dtrans = []
    i = 0
    while i < len(order):
        cur = order[i]
        i += 1
        row = []
        for ch in alpha:
            nxt = closure([t for q in cur for t in by_letter[q].get(ch, ())])
            if nxt not in subsets:
                subsets[nxt] = len(order)
                order.append(nxt)
            row.append(subsets[nxt])
        dtrans.append(row)
    daccept = {subsets[s] for s in order if accept in s}
    d = Dfa(alpha, dtrans, 0, daccept)
    return d.minimize()


def languages_equal(d1, d2):
    """Language equality by search for a separating word on the pair graph."""
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatch("%r vs %r" % (d1.alphabet, d2.alphabet))
    seen = {(d1.initial, d2.initial)}
    queue = [(d1.initial, d2.initial)]
    while queue:
        p, q = queue.pop()
        if (p in d1.accepting) != (q in d2.accepting):
            return False
        for a in range(len(d1.alphabet)):
            nxt = (d1.transitions[p][a], d2.transitions[q][a])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def has_common_word(d1, d2):
    """True iff the two automata accept some word in common."""
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatch("%r vs %r" % (d1.alphabet, d2.alphabet))
    seen = {(d1.initial, d2.initial)}
    queue = [(d1.initial, d2.initial)]
    while queue:
        p, q = queue.pop()
        if p in d1.accepting and q in d2.accepting:
            return True
        for a in range(len(d1.alphabet)):
            nxt = (d1.transitions[p][a], d2.transitions[q][a])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def is_empty(d):
    return not any(q in d.accepting for q in d.reachable_states())


def is_finite_language(d):
    """True iff the accepted language is finite (no useful cycle).

    Kahn's peel of the useful subgraph: a state is peeled once all its
    useful predecessors are, and a state on or after a cycle never is."""
    useful = set(d.reachable_states()) & set(d.coaccessible_states())
    indegree = dict.fromkeys(useful, 0)
    for q in useful:
        for r in d.transitions[q]:
            if r in useful:
                indegree[r] += 1
    peeled = [q for q in useful if indegree[q] == 0]
    for q in peeled:    # the list grows as states are peeled
        for r in d.transitions[q]:
            if r in useful:
                indegree[r] -= 1
                if indegree[r] == 0:
                    peeled.append(r)
    return len(peeled) == len(useful)


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


def dfa_to_text(d):
    lines = ["states %d" % d.n_states,
             "alphabet %s" % " ".join(d.alphabet),
             "initial %d" % d.initial,
             "accepting %s" % " ".join(str(q) for q in sorted(d.accepting)),
             "trans:"]
    for q in range(d.n_states):
        for a, ch in enumerate(d.alphabet):
            lines.append("%d %s %d" % (q, ch, d.transitions[q][a]))
    return "\n".join(lines) + "\n"


def dfa_from_text(text):
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    fields = {}
    trans_lines = []
    in_trans = False
    for ln in lines:
        if ln == "trans:":
            in_trans = True
            continue
        if in_trans:
            trans_lines.append(ln)
        else:
            key, _, rest = ln.partition(" ")
            fields[key] = rest.strip()
    n = int(fields["states"])
    alphabet = tuple(fields["alphabet"].split())
    initial = int(fields["initial"])
    accepting = {int(v) for v in fields.get("accepting", "").split()}
    letter_index = {ch: i for i, ch in enumerate(alphabet)}
    trans = [[-1] * len(alphabet) for _ in range(n)]
    for ln in trans_lines:
        src, ch, dst = ln.split()
        trans[int(src)][letter_index[ch]] = int(dst)
    for row in trans:
        if -1 in row:
            raise ParseError("incomplete transition table")
    return Dfa(alphabet, trans, initial, accepting)
