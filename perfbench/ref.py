"""Reference computations made apart from omsemi.

Nothing here imports the program.  The benchmark checks the program's
outputs against these: minimal DFAs by Brzozowski derivatives and Moore
refinement, transition monoids in shortlex order, the syntactic order from
residual inclusion, Green's classes from strongly connected components of
the Cayley graphs, an omega-term parser and evaluator, the abelian,
commutative and free-group normal forms, and a pool of small completely
regular semigroups.
"""

import itertools

# ---------------------------------------------------------------------------
# regular expressions, as nested tuples:
#   ("0",) empty set, ("e",) empty word, ("c", ch) letter,
#   (".", parts) concatenation, ("|", frozenset) union, ("*", r) star

EMPTY = ("0",)
EPS = ("e",)


def cat(*parts):
    flat = []
    for p in parts:
        if p == EMPTY:
            return EMPTY
        if p == EPS:
            continue
        flat.extend(p[1] if p[0] == "." else (p,))
    if not flat:
        return EPS
    return flat[0] if len(flat) == 1 else (".", tuple(flat))


def alt(*items):
    flat = set()
    for r in items:
        if r == EMPTY:
            continue
        flat.update(r[1] if r[0] == "|" else (r,))
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return next(iter(flat))
    return ("|", frozenset(flat))


def star(r):
    if r in (EMPTY, EPS):
        return EPS
    return r if r[0] == "*" else ("*", r)


def parse_regex(text):
    """Regex syntax of the program: letters, juxtaposition, |, postfix * and
    +, parentheses; an empty branch is the empty word."""
    toks = [ch for ch in text if not ch.isspace()]
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def alternation():
        r = concatenation()
        while peek() == "|":
            pos[0] += 1
            r = alt(r, concatenation())
        return r

    def concatenation():
        parts = []
        while peek() is not None and peek() not in "|)":
            r = atom()
            while peek() in ("*", "+"):
                r = star(r) if toks[pos[0]] == "*" else cat(r, star(r))
                pos[0] += 1
            parts.append(r)
        return cat(*parts)

    def atom():
        ch = peek()
        pos[0] += 1
        if ch == "(":
            r = alternation()
            if peek() != ")":
                raise ValueError("missing )")
            pos[0] += 1
            return r
        if ch is None or ch in "|*+)":
            raise ValueError("unexpected %r" % (ch,))
        return ("c", ch)

    r = alternation()
    if peek() is not None:
        raise ValueError("trailing input")
    return r


def nullable(r):
    kind = r[0]
    if kind in ("e", "*"):
        return True
    if kind == ".":
        return all(nullable(p) for p in r[1])
    if kind == "|":
        return any(nullable(p) for p in r[1])
    return False


def derivative(r, a):
    kind = r[0]
    if kind == "c":
        return EPS if r[1] == a else EMPTY
    if kind == "|":
        return alt(*(derivative(p, a) for p in r[1]))
    if kind == "*":
        return cat(derivative(r[1], a), r)
    if kind == ".":
        head, rest = r[1][0], cat(*r[1][1:])
        d = cat(derivative(head, a), rest)
        return alt(d, derivative(rest, a)) if nullable(head) else d
    return EMPTY


def letters_of(text):
    return tuple(sorted({ch for ch in text if ch not in "|*+() \t\n"}))


class Automaton:
    """A complete DFA: states 0..n-1, initial 0."""

    def __init__(self, alphabet, trans, accepting):
        self.alphabet = tuple(alphabet)
        self.trans = [list(row) for row in trans]
        self.accepting = frozenset(accepting)
        self.n = len(self.trans)


def derivative_dfa(text):
    """DFA whose states are the derivatives of the regex."""
    alphabet = letters_of(text)
    start = parse_regex(text)
    index = {start: 0}
    order = [start]
    trans = []
    i = 0
    while i < len(order):
        r = order[i]
        i += 1
        row = []
        for a in alphabet:
            d = derivative(r, a)
            if d not in index:
                index[d] = len(order)
                order.append(d)
            row.append(index[d])
        trans.append(row)
    return Automaton(alphabet, trans,
                     {q for q, r in enumerate(order) if nullable(r)})


def minimal_dfa(d):
    """Moore refinement of the reachable part, renumbered breadth-first."""
    reach = [0]
    seen = {0}
    for q in reach:
        for r in d.trans[q]:
            if r not in seen:
                seen.add(r)
                reach.append(r)
    cls = {q: int(q in d.accepting) for q in reach}
    while True:
        sig = {}
        new = {}
        for q in reach:
            key = (cls[q],) + tuple(cls[r] for r in d.trans[q])
            new[q] = sig.setdefault(key, len(sig))
        if len(set(new.values())) == len(set(cls.values())):
            break
        cls = new
    order = [cls[0]]
    pos = {cls[0]: 0}
    rep = {}
    for q in reach:
        rep.setdefault(cls[q], q)
    for c in order:
        for r in d.trans[rep[c]]:
            if cls[r] not in pos:
                pos[cls[r]] = len(order)
                order.append(cls[r])
    trans = [[pos[cls[r]] for r in d.trans[rep[c]]] for c in order]
    accepting = {pos[cls[q]] for q in reach if q in d.accepting}
    return Automaton(d.alphabet, trans, accepting)


def regex_min_dfa(text):
    return minimal_dfa(derivative_dfa(text))


# ---------------------------------------------------------------------------
# transition monoids


def compose(f, g):
    """Action of uv from the actions of u and v (u acts first)."""
    return tuple(g[q] for q in f)


def letter_actions(d):
    return [tuple(d.trans[q][i] for q in range(d.n))
            for i in range(len(d.alphabet))]


class TransitionSemigroup:
    """The actions of the nonempty words, labelled by shortlex-least words
    and numbered in shortlex order of their labels."""

    def __init__(self, d, limit=None):
        self.dfa = d
        self.letters = letter_actions(d)
        elements, labels, index = [], [], {}
        frontier = [("", None)]
        while frontier:
            nxt = []
            for w, t in frontier:
                for a, act in zip(d.alphabet, self.letters):
                    u = act if t is None else compose(t, act)
                    if u not in index:
                        if limit is not None and len(elements) >= limit:
                            raise OverflowError("more than %d elements"
                                                % limit)
                        index[u] = len(elements)
                        elements.append(u)
                        labels.append(w + a)
                        nxt.append((w + a, u))
            frontier = nxt
        self.elements, self.labels, self.index = elements, labels, index
        self.n = len(elements)

    @property
    def table(self):
        idx, el = self.index, self.elements
        return [[idx[compose(f, g)] for g in el] for f in el]

    def identity_element(self):
        """A two-sided identity of the semigroup, or None."""
        table = self.table
        return next((e for e in range(self.n)
                     if all(table[e][x] == x == table[x][e]
                            for x in range(self.n))), None)

    def monoid_order(self):
        ident = tuple(range(self.dfa.n))
        return self.n if ident in self.index else self.n + 1

    def action_of(self, word):
        t = tuple(range(self.dfa.n))
        for ch in word:
            t = compose(t, self.letters[self.dfa.alphabet.index(ch)])
        return t

    def class_of(self, word):
        return self.index[self.action_of(word)]

    def syntactic_order(self):
        """Pairs (i, j), i != j, with [i] <= [j]: q.i's residual is contained
        in q.j's for every state q."""
        d = self.dfa
        states = range(d.n)
        incl = {(p, q) for p in states for q in states
                if p not in d.accepting or q in d.accepting}
        changed = True
        while changed:
            changed = False
            for p, q in list(incl):
                if any((d.trans[p][a], d.trans[q][a]) not in incl
                       for a in range(len(d.alphabet))):
                    incl.discard((p, q))
                    changed = True
        el = self.elements
        return sorted((i, j) for i in range(self.n) for j in range(self.n)
                      if i != j and all((el[i][q], el[j][q]) in incl
                                        for q in states))

    def green(self):
        """R, L, J and H partitions, each a sorted list of sorted lists."""
        right = [[self.index[compose(f, a)] for a in self.letters]
                 for f in self.elements]
        left = [[self.index[compose(a, f)] for a in self.letters]
                for f in self.elements]
        both = [r + l for r, l in zip(right, left)]
        r, l, j = (_scc_partition(g) for g in (right, left, both))
        rcls = {e: tuple(c) for c in r for e in c}
        lcls = {e: tuple(c) for c in l for e in c}
        h = {}
        for e in range(self.n):
            h.setdefault((rcls[e], lcls[e]), []).append(e)
        return r, l, j, sorted(h.values())


def _scc_partition(succ):
    n = len(succ)
    reach = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            for t in succ[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach.append(seen)
    parts = {}
    for s in range(n):
        key = min(t for t in reach[s] if s in reach[t])
        parts.setdefault(key, []).append(s)
    return sorted(parts.values())


def render_syn_head(ts):
    """The table, order and Green sections `omsemi syn` must print."""
    labels = ts.labels
    width = max(len(x) for x in labels)
    lines = ["order %d" % ts.n, "table",
             " " * width + " | " + " ".join(x.rjust(width) for x in labels)]
    for i, row in enumerate(ts.table):
        lines.append(labels[i].rjust(width) + " | "
                     + " ".join(labels[k].rjust(width) for k in row))
    lines.append("syntactic order")
    lines.extend("  %s <= %s" % (labels[i], labels[j])
                 for i, j in ts.syntactic_order())
    for name, part in zip("RLJH", ts.green()):
        lines.append("%s-classes" % name)
        lines.extend("  " + " ".join(labels[e] for e in c) for c in part)
    lines.append("classes")
    return lines


# ---------------------------------------------------------------------------
# omega-terms, as nested tuples:
#   ("L", ch), ("C", parts), ("W", base, k) for base^(w+k),
#   ("P", base, m) for base^m


def letter(ch):
    return ("L", ch)


def concat(*parts):
    flat = []
    for p in parts:
        flat.extend(p[1] if p[0] == "C" else (p,))
    return flat[0] if len(flat) == 1 else ("C", tuple(flat))


def word(w):
    return concat(*(letter(ch) for ch in w))


def format_term(t):
    """Concrete syntax the program parses."""
    if t[0] == "L":
        return t[1]
    if t[0] == "C":
        return " ".join(format_term(p) for p in t[1])
    base = format_term(t[1]) if t[1][0] == "L" else "(%s)" % format_term(t[1])
    if t[0] == "P":
        return "%s^%d" % (base, t[2])
    return base + ("^w" if t[2] == 0 else "^(w%+d)" % t[2])


def parse_term(text):
    toks = [ch for ch in text if not ch.isspace()]
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take(expected=None):
        ch = peek()
        if ch is None or (expected is not None and ch != expected):
            raise ValueError("bad term %r" % text)
        pos[0] += 1
        return ch

    def number():
        digits = ""
        while peek() is not None and peek().isdigit():
            digits += take()
        if not digits:
            raise ValueError("bad term %r" % text)
        return int(digits)

    def concatenation():
        parts = []
        while peek() not in (None, ")"):
            parts.append(postfixed())
        if not parts:
            raise ValueError("empty term in %r" % text)
        return concat(*parts)

    def postfixed():
        if peek() == "(":
            take()
            t = concatenation()
            take(")")
        else:
            ch = take()
            if not ch.isalpha():
                raise ValueError("bad term %r" % text)
            t = letter(ch)
        while peek() == "^":
            take()
            if peek() == "w":
                take()
                t = ("W", t, 0)
            elif peek() == "(":
                take()
                take("w")
                sign = take()
                k = number()
                take(")")
                t = ("W", t, k if sign == "+" else -k)
            else:
                t = ("P", t, number())
        return t

    t = concatenation()
    if peek() is not None:
        raise ValueError("trailing input in %r" % text)
    return t


def term_size(t):
    """Syntax-tree nodes, counting a product of k factors as k - 1."""
    if t[0] == "L":
        return 1
    if t[0] == "C":
        return len(t[1]) - 1 + sum(term_size(p) for p in t[1])
    return 1 + term_size(t[1])


def variables(t):
    if t[0] == "L":
        return {t[1]}
    if t[0] == "C":
        return set().union(*(variables(p) for p in t[1]))
    return variables(t[1])


def cycle(x, mul):
    """(index, period, powers) of x; powers[i] is x^(i+1)."""
    powers = [x]
    seen = {x: 1}
    while True:
        y = mul(powers[-1], x)
        if y in seen:
            return seen[y], len(powers) + 1 - seen[y], powers
        powers.append(y)
        seen[y] = len(powers)


def omega_power(x, k, mul):
    index, period, powers = cycle(x, mul)
    n = k % period
    while n < index or n < 1:
        n += period
    return powers[n - 1]


def finite_power(x, m, mul):
    index, period, powers = cycle(x, mul)
    if m > index:
        m = index + (m - index) % period
    return powers[m - 1]


def evaluate(t, assign, mul):
    """Value of a term under a letter assignment in a finite semigroup given
    by its multiplication."""
    kind = t[0]
    if kind == "L":
        return assign[t[1]]
    if kind == "C":
        vals = [evaluate(p, assign, mul) for p in t[1]]
        acc = vals[0]
        for v in vals[1:]:
            acc = mul(acc, v)
        return acc
    base = evaluate(t[1], assign, mul)
    if kind == "W":
        return omega_power(base, t[2], mul)
    return finite_power(base, t[2], mul)


def ab_image(t):
    """Letter exponents in the free abelian group (omega counts 0)."""
    if t[0] == "L":
        return {t[1]: 1}
    if t[0] == "C":
        out = {}
        for p in t[1]:
            for ch, m in ab_image(p).items():
                out[ch] = out.get(ch, 0) + m
        return {ch: m for ch, m in out.items() if m}
    scale = t[2]
    return {ch: m * scale for ch, m in ab_image(t[1]).items() if m * scale}


def com_image(t):
    """Letter exponents in N or omega+Z, as (is_omega, value) pairs."""
    if t[0] == "L":
        return {t[1]: (False, 1)}
    if t[0] == "C":
        out = {}
        for p in t[1]:
            for ch, (inf, m) in com_image(p).items():
                if ch in out:
                    out[ch] = (out[ch][0] or inf, out[ch][1] + m)
                else:
                    out[ch] = (inf, m)
        return out
    inner = com_image(t[1])
    if t[0] == "P":
        return {ch: (inf, m * t[2]) for ch, (inf, m) in inner.items()}
    return {ch: (True, m * t[2]) for ch, (inf, m) in inner.items()}


def free_group_image(t):
    """Reduced signed word of the image in the free group."""
    out = []

    def push(seq):
        for ch, s in seq:
            if out and out[-1] == (ch, -s):
                out.pop()
            else:
                out.append((ch, s))

    def expand(t):
        if t[0] == "L":
            return [(t[1], 1)]
        if t[0] == "C":
            return [x for p in t[1] for x in expand(p)]
        base = expand(t[1])
        k = t[2]
        if k < 0:
            base = [(ch, -s) for ch, s in reversed(base)]
        return base * abs(k)

    push(expand(t))
    return tuple(out)


# ---------------------------------------------------------------------------
# finite semigroups given by tables


def is_associative(table):
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def is_commutative(table):
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(n))


def is_group(table):
    n = len(table)
    ids = [e for e in range(n)
           if all(table[e][x] == x == table[x][e] for x in range(n))]
    return bool(ids) and all(e in table[x] for e in ids for x in range(n))


def is_completely_regular(table):
    mul = _table_mul(table)
    return all(omega_power(x, 1, mul) == x for x in range(len(table)))


def _table_mul(table):
    return lambda a, b: table[a][b]


def separates(table, assign, lhs, rhs):
    """(lhs value, rhs value) under the assignment."""
    mul = _table_mul(table)
    return evaluate(lhs, assign, mul), evaluate(rhs, assign, mul)


def identity_holds(table, lhs, rhs):
    letters = sorted(variables(lhs) | variables(rhs))
    mul = _table_mul(table)
    for vals in itertools.product(range(len(table)), repeat=len(letters)):
        a = dict(zip(letters, vals))
        if evaluate(lhs, a, mul) != evaluate(rhs, a, mul):
            return False
    return True


def _canonical(table):
    n = len(table)
    best = None
    for p in itertools.permutations(range(n)):
        inv = [0] * n
        for a, pa in enumerate(p):
            inv[pa] = a
        key = tuple(p[table[inv[x]][inv[y]]] for x in range(n)
                    for y in range(n))
        if best is None or key < best:
            best = key
    return best


def _product(s, t):
    m = len(t)
    n = len(s) * m
    return [[s[a // m][b // m] * m + t[a % m][b % m] for b in range(n)]
            for a in range(n)]


def _adjoin(table, zero):
    """S^0 (zero=True) or S^1 (zero=False) on one new element."""
    n = len(table)
    out = [row + [n if zero else a] for a, row in enumerate(table)]
    out.append([n] * (n + 1) if zero else list(range(n)) + [n])
    return out


def cr_pool():
    """Completely regular semigroups: every one of order <= 3 up to
    isomorphism, and order-4 ones built as products, as S^0 and S^1, and
    the cyclic group C4."""
    small = {}
    for n in (1, 2, 3):
        for cells in itertools.product(range(n), repeat=n * n):
            table = [list(cells[i * n:(i + 1) * n]) for i in range(n)]
            if is_associative(table) and is_completely_regular(table):
                small.setdefault(_canonical(table), table)
    four = [[[(a + b) % 4 for b in range(4)] for a in range(4)]]
    order2 = [t for t in small.values() if len(t) == 2]
    order3 = [t for t in small.values() if len(t) == 3]
    four += [_product(s, t) for s in order2 for t in order2]
    four += [_adjoin(t, z) for t in order3 for z in (True, False)]
    pool = dict(small)
    for table in four:
        if is_associative(table) and is_completely_regular(table):
            pool.setdefault(_canonical(table), table)
    return sorted(pool.values(), key=lambda t: (len(t), t))
