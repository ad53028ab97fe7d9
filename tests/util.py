"""Shared helpers for the test suite."""

import itertools

from hypothesis import strategies as st

from omsemi import regex, terms
from omsemi.graphs import reachable
from omsemi.groups_catalog import all_groups_up_to_24
from omsemi.semigroup import FiniteSemigroup


def transformation_closure(gens):
    """Closure of a set of transformations (tuples) under composition.

    Composition order matches word reading: the product of f and g acts as
    f first, then g.  Returns (elements, table) with elements in discovery
    order.
    """
    k = len(gens[0])
    elems = []
    index = {}
    for g in gens:
        if g not in index:
            index[g] = len(elems)
            elems.append(g)
    frontier = list(elems)
    while frontier:
        new = []
        for f in frontier:
            for g in list(elems):
                for h in (tuple(g[f[i]] for i in range(k)),
                          tuple(f[g[i]] for i in range(k))):
                    if h not in index:
                        index[h] = len(elems)
                        elems.append(h)
                        new.append(h)
        frontier = new
    table = [[index[tuple(g[f[i]] for i in range(k))] for g in elems]
             for f in elems]
    return elems, table


def transformation_semigroup(gens):
    elems, table = transformation_closure(gens)
    return FiniteSemigroup(table)


def full_transformation_monoid(k):
    """All k^k transformations of {0..k-1}."""
    gens = [tuple(t) for t in itertools.product(range(k), repeat=k)]
    elems, table = transformation_closure(gens)
    S = FiniteSemigroup(table)
    S.identity = elems.index(tuple(range(k)))
    return S, elems


def rectangular_band(r, c):
    """(i,j)(k,l) = (i,l) on r*c elements."""
    n = r * c
    table = [[(a // c) * c + (b % c) for b in range(n)] for a in range(n)]
    return FiniteSemigroup(table)


def random_small_semigroup(rng):
    """A deterministic pseudo-random semigroup of order <= 6."""
    kind = rng.randrange(3)
    if kind == 0:
        i = rng.randrange(1, 6)
        p = rng.randrange(1, 7 - i)
        return FiniteSemigroup.cyclic(i, p)
    if kind == 1:
        a = FiniteSemigroup.cyclic(rng.randrange(1, 3), rng.randrange(1, 3))
        b = FiniteSemigroup.cyclic(rng.randrange(1, 3), rng.randrange(1, 3))
        if a.n * b.n <= 6:
            return FiniteSemigroup.direct_product(a, b)
        return a
    while True:
        k = rng.randrange(2, 4)
        gens = [tuple(rng.randrange(k) for _ in range(k))
                for _ in range(rng.randrange(1, 3))]
        elems, table = transformation_closure(gens)
        if len(elems) <= 6:
            return FiniteSemigroup(table)


def is_associative(table):
    """The n^3 associativity proof."""
    r = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in r for b in r for c in r)


def generates(table, gens):
    """Is every element a product (..(g1 g2)..) gk of generators, taken
    from the left?  (In a table that is not associative, other bracketings
    can reach more.)"""
    got = set(gens)
    while True:
        more = {table[a][g] for a in got for g in gens} - got
        if not more:
            return len(got) == len(table)
        got |= more


def right_cayley_rows(table, gens):
    """rows[x][i] = x gens[i]: the right Cayley graph of a table."""
    return [[row[g] for g in gens] for row in table]


def table_of_right_cayley(rows, gens):
    """The table filled entry by entry from a right Cayley graph: x times
    an element w follows x along a word of w: a generator's word is its
    first position, and any other element's the positions of a path to
    it from a generator, found depth first.  None if the graph does not
    reach every element from the generators."""
    words = {}
    for i, g in enumerate(gens):
        words.setdefault(g, (i,))
    stack = list(words)
    while stack:
        w = stack.pop()
        for i, v in enumerate(rows[w]):
            if v not in words:
                words[v] = words[w] + (i,)
                stack.append(v)
    if len(words) != len(rows):
        return None

    def times(x, w):
        for i in words[w]:
            x = rows[x][i]
        return x

    return [[times(x, w) for w in range(len(rows))] for x in range(len(rows))]


def is_stable(table, pairs):
    """a <= b and c <= d give ac <= bd, tried on every two pairs."""
    return all((table[a][c], table[b][d]) in pairs
               for a, b in pairs for c, d in pairs)


def composition_table(sp):
    """The table of a syntactic presentation by composing every two
    class actions."""
    index = {t: i for i, t in enumerate(sp.elements)}
    return [[index[tuple(g[q] for q in f)] for g in sp.elements]
            for f in sp.elements]


def context_order(sp):
    """The syntactic order by trying every monoid context: [u] <= [v] iff
    q.u.h accepting implies q.v.h accepting, for every state q and every
    action h of a word, the empty word included."""
    d = sp.dfa
    accept = [q in d.accepting for q in range(d.n_states)]
    acts = list(sp.elements) + [tuple(range(d.n_states))]
    pairs = set()
    for u, ut in enumerate(sp.elements):
        for v, vt in enumerate(sp.elements):
            if all(accept[h[vt[q]]] for q in range(d.n_states)
                   for h in acts if accept[h[ut[q]]]):
                pairs.add((u, v))
    return frozenset(pairs)


def ideal_green_classes(S):
    """Green's relations by comparing the principal ideals aS^1, S^1a and
    S^1aS^1 of every element."""
    from omsemi.semigroup import GreenClasses
    n = S.n
    t = S.table

    def partition(keys):
        groups = {}
        for a, key in enumerate(keys):
            groups.setdefault(key, []).append(a)
        return tuple(tuple(c) for c in sorted(groups.values()))

    right, left, two = [], [], []
    for a in range(n):
        right.append(frozenset([a] + [t[a][s] for s in range(n)]))
        left.append(frozenset([a] + [t[s][a] for s in range(n)]))
        ja = set(right[a] | left[a])
        for s in range(n):
            ja.update(t[t[s][a]][u] for u in range(n))
        two.append(frozenset(ja))
    return GreenClasses(r=partition(right), l=partition(left),
                        j=partition(two),
                        h=partition(list(zip(right, left))))


def naive_power(S, s, k):
    """s^k by plain left-to-right multiplication."""
    e = s
    for _ in range(k - 1):
        e = S.table[e][s]
    return e


def squaring_power(S, s, k):
    """s^k for k >= 1 by repeated squaring on the table, in about
    2 log2(k) products however large k is."""
    acc = None
    base = s
    while k:
        if k & 1:
            acc = base if acc is None else S.table[acc][base]
        k >>= 1
        if k:
            base = S.table[base][base]
    return acc


def random_term(rng, alphabet="xy", depth=3, offsets=(0, 1, -1), primes=()):
    from omsemi.terms import (Concat, FinitePower, Letter, OmegaPower,
                              PrimeOmegaPower)
    if depth == 0 or rng.random() < 0.35:
        return Letter(rng.choice(alphabet))
    k = rng.randrange(8)
    sub = lambda: random_term(rng, alphabet, depth - 1, offsets, primes)
    if k <= 3:
        return Concat(sub(), sub())
    if k <= 5:
        return OmegaPower(sub(), rng.choice(offsets))
    if k == 6:
        return FinitePower(sub(), rng.randrange(1, 4))
    if primes and rng.random() < 0.5:
        return PrimeOmegaPower(sub(), rng.choice(primes))
    return OmegaPower(sub(), rng.choice(offsets))


def full_pool_cr_witness(u, v, bound=4):
    """cr_witness as it was before the core: the first member of the whole
    completely regular sample, in pool order, where u = v fails."""
    from omsemi.terms import find_identity_failure
    from omsemi.varieties import _semigroup_witness, cr_semigroups
    for S in cr_semigroups(bound):
        bad = find_identity_failure(S, u, v)
        if bad is not None:
            return _semigroup_witness(S, bad, u, v)
    return None


def random_generator_map(rng, S, alphabet="xy"):
    from omsemi.semigroup import GeneratorMap
    return GeneratorMap(S, {ch: rng.randrange(S.n) for ch in alphabet})


def random_dfa(rng, max_states=6, alphabet="ab"):
    """A random complete DFA with at least one accepting and one rejecting
    state, so its minimal form is never the trivial automaton."""
    from omsemi.dfa import Dfa
    while True:
        n = rng.randrange(2, max_states + 1)
        transitions = [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
        accepting = {q for q in range(n) if rng.random() < 0.4}
        if 0 < len(accepting) < n:
            return Dfa(alphabet, transitions, 0, accepting)


def random_transition_monoid(rng, max_states=6, alphabet="ab",
                             max_elements=300):
    """Transition monoid of a random language, resampled until it fits
    under max_elements.  Returns (monoid, letter -> element map)."""
    from omsemi.errors import SizeTooLarge
    from omsemi.semigroup import GeneratorMap
    from omsemi.syntactic import syntactic_semigroup
    while True:
        d = random_dfa(rng, max_states, alphabet)
        try:
            pres = syntactic_semigroup(d, max_elements=max_elements)
        except SizeTooLarge:
            continue
        m = pres.semigroup.with_identity_adjoined()
        if m.n <= max_elements:
            return m, GeneratorMap(m, dict(pres.gens.assignment))


def _cayley_step(M, e, g):
    return g if e is None else M.table[e][g]


def deque_simple_path_word(M, gens, target):
    """Oracle for reducibility.simple_path_word: a breadth-first walk with
    a deque and a parent map, the word read back from the target."""
    from collections import deque
    from omsemi.errors import Unreachable
    start = M.identity
    if target == start:
        return ""
    letters = sorted(gens.assignment)
    parent = {start: None}
    queue = deque([start])
    while queue:
        m = queue.popleft()
        for ch in letters:
            nxt = _cayley_step(M, m, gens(ch))
            if nxt not in parent:
                parent[nxt] = (m, ch)
                if nxt == target:
                    out = []
                    at = nxt
                    while parent[at] is not None:
                        at, ch2 = parent[at]
                        out.append(ch2)
                    return "".join(reversed(out))
                queue.append(nxt)
    raise Unreachable(f"element {target} is not a product of generators")


def scan_loop_removal(w, M, gens):
    """Oracle for reducibility.loop_removal: the path is a list, and each
    step scans it for the new vertex, so a run costs O(|w| |M|)."""
    stack = [M.identity]
    kept = []
    for ch in w:
        nxt = _cayley_step(M, stack[-1], gens(ch))
        if nxt in stack:
            i = stack.index(nxt)
            del stack[i + 1:]
            del kept[i:]
        else:
            stack.append(nxt)
            kept.append(ch)
    return "".join(kept)


def term_spine(t):
    """Top-level concatenation factors of a term, left to right."""
    from omsemi.terms import Concat
    if isinstance(t, Concat):
        return term_spine(t.left) + term_spine(t.right)
    return [t]


def concat_all(parts):
    from omsemi.terms import Concat
    out = parts[0]
    for p in parts[1:]:
        out = Concat(out, p)
    return out


def commuted_copy(rng, t):
    """A copy of t with concatenation children randomly swapped; the
    commutative image is unchanged."""
    from omsemi.terms import (Concat, FinitePower, OmegaPower,
                              PrimeOmegaPower)
    if isinstance(t, Concat):
        left = commuted_copy(rng, t.left)
        right = commuted_copy(rng, t.right)
        return Concat(right, left) if rng.random() < 0.5 else Concat(left, right)
    if isinstance(t, OmegaPower):
        return OmegaPower(commuted_copy(rng, t.base), t.k)
    if isinstance(t, PrimeOmegaPower):
        return PrimeOmegaPower(commuted_copy(rng, t.base), t.p)
    if isinstance(t, FinitePower):
        return FinitePower(commuted_copy(rng, t.base), t.m)
    return t


def random_superterm(rng, t, alphabet="xy", max_insert=3):
    """A term containing t: random short words interleaved into t's
    top-level concatenation spine.  Unrolling the result always contains
    an unrolling of t as a scattered subword."""
    from omsemi.terms import Letter
    word = lambda: concat_all([Letter(rng.choice(alphabet))
                               for _ in range(rng.randrange(1, max_insert + 1))])
    out = []
    for part in term_spine(t):
        while rng.random() < 0.4:
            out.append(word())
        out.append(part)
    while rng.random() < 0.6:
        out.append(word())
    return concat_all(out)


# ---------------------------------------------------------------------------
# recursive term walks: the former isinstance recursions of omsemi.terms,
# kept as oracles for the folds over the postorder


def recursive_eval_term(S, g, t):
    from omsemi.terms import (Concat, FinitePower, Letter, OmegaPower,
                              PrimeOmegaPower)
    if isinstance(t, Letter):
        return g(t.ch)
    if isinstance(t, Concat):
        return S.table[recursive_eval_term(S, g, t.left)][
            recursive_eval_term(S, g, t.right)]
    if isinstance(t, OmegaPower):
        return S.omega_plus_k(recursive_eval_term(S, g, t.base), t.k)
    if isinstance(t, PrimeOmegaPower):
        return S.p_omega_power(recursive_eval_term(S, g, t.base), t.p)
    if isinstance(t, FinitePower):
        return S.power(recursive_eval_term(S, g, t.base), t.m)
    raise TypeError("not a term: %r" % (t,))


def recursive_format_term(t):
    from omsemi.terms import Concat, Letter, OmegaPower, PrimeOmegaPower
    if isinstance(t, Letter):
        return t.ch
    if isinstance(t, Concat):
        return "%s %s" % (recursive_format_term(t.left),
                          recursive_format_term(t.right))
    if isinstance(t, OmegaPower):
        exp = "^w" if t.k == 0 else "^(w%+d)" % t.k
    elif isinstance(t, PrimeOmegaPower):
        exp = "^(%d^w)" % t.p
    else:
        exp = "^%d" % t.m
    base = recursive_format_term(t.base)
    if not isinstance(t.base, Letter):
        base = "(%s)" % base
    return base + exp


# the fields of each node class, in the order its constructor takes them
NODE_FIELDS = {
    regex.Empty: (), regex.Sym: ("ch",), regex.Union: ("left", "right"),
    regex.Concat: ("left", "right"), regex.Star: ("body",),
    regex.Plus: ("body",), terms.Letter: ("ch",),
    terms.Concat: ("left", "right"), terms.OmegaPower: ("base", "k"),
    terms.PrimeOmegaPower: ("base", "p"), terms.FinitePower: ("base", "m"),
}


def recursive_node_repr(t):
    """The repr of a node in the format of a dataclass, e.g.
    Concat(left=Letter(ch='x'), right=FinitePower(base=Letter(ch='x'), m=2))."""
    if type(t) not in NODE_FIELDS:
        return repr(t)
    return "%s(%s)" % (type(t).__name__, ", ".join(
        "%s=%s" % (f, recursive_node_repr(getattr(t, f)))
        for f in NODE_FIELDS[type(t)]))


def recursive_structure(t):
    """A node as the nested tuple (type, field values...)."""
    if type(t) not in NODE_FIELDS:
        return t
    return (type(t),) + tuple(recursive_structure(getattr(t, f))
                              for f in NODE_FIELDS[type(t)])


def rebuild(structure):
    """A new tree of new nodes from recursive_structure's tuple."""
    if type(structure) is not tuple:
        return structure
    return structure[0](*map(rebuild, structure[1:]))


def recursive_com_exponents(t):
    """The com multiplicities of t's letters as (infinite, value) pairs,
    omega+k being (True, k), with arithmetic of their own."""
    from omsemi.errors import UnsupportedPrimePower
    from omsemi.terms import (Concat, FinitePower, Letter, OmegaPower,
                              PrimeOmegaPower)
    if isinstance(t, Letter):
        return {t.ch: (False, 1)}
    if isinstance(t, Concat):
        out = dict(recursive_com_exponents(t.left))
        for ch, (f, v) in recursive_com_exponents(t.right).items():
            g, w = out.get(ch, (False, 0))
            out[ch] = (f or g, v + w)
        return out
    if isinstance(t, OmegaPower):
        # every letter of the base occurs omega + (its count * k) times
        return {ch: (True, v * t.k)
                for ch, (_, v) in recursive_com_exponents(t.base).items()}
    if isinstance(t, FinitePower):
        return {ch: (f, v * t.m)
                for ch, (f, v) in recursive_com_exponents(t.base).items()}
    if isinstance(t, PrimeOmegaPower):
        raise UnsupportedPrimePower("prime-omega power")
    raise TypeError("not a term: %r" % (t,))


def recursive_ab_image(t):
    from omsemi.errors import UnsupportedPrimePower
    from omsemi.terms import (Concat, FinitePower, Letter, OmegaPower,
                              PrimeOmegaPower)
    if isinstance(t, Letter):
        return {t.ch: 1}
    if isinstance(t, Concat):
        out = dict(recursive_ab_image(t.left))
        for ch, n in recursive_ab_image(t.right).items():
            out[ch] = out.get(ch, 0) + n
        return out
    if isinstance(t, OmegaPower):
        return {ch: n * t.k for ch, n in recursive_ab_image(t.base).items()}
    if isinstance(t, FinitePower):
        return {ch: n * t.m for ch, n in recursive_ab_image(t.base).items()}
    if isinstance(t, PrimeOmegaPower):
        raise UnsupportedPrimePower("prime-omega power")
    raise TypeError("not a term: %r" % (t,))


def reduce_signed(seq):
    """Free reduction of a word of (letter, +-1) pairs."""
    out = []
    for ch, s in seq:
        if out and out[-1][0] == ch and out[-1][1] == -s:
            out.pop()
        else:
            out.append((ch, s))
    return out


def naive_power_signed(seq, k):
    """seq^k, reducing after each of the |k| factors."""
    body = seq if k > 0 else [(ch, -s) for ch, s in reversed(seq)]
    out = []
    for _ in range(abs(k)):
        out = reduce_signed(out + body)
    return out


def recursive_free_group_normal_form(t):
    from omsemi.errors import UnsupportedPrimePower
    from omsemi.terms import (Concat, FinitePower, Letter, OmegaPower,
                              PrimeOmegaPower)
    if isinstance(t, Letter):
        return ((t.ch, 1),)
    if isinstance(t, Concat):
        return tuple(reduce_signed(
            list(recursive_free_group_normal_form(t.left)) +
            list(recursive_free_group_normal_form(t.right))))
    if isinstance(t, (OmegaPower, FinitePower)):
        k = t.k if isinstance(t, OmegaPower) else t.m
        return tuple(naive_power_signed(
            list(recursive_free_group_normal_form(t.base)), k))
    if isinstance(t, PrimeOmegaPower):
        raise UnsupportedPrimePower("prime-omega power")
    raise TypeError("not a term: %r" % (t,))


def crt_merge(r1, m1, r2, m2):
    """The residue modulo lcm(m1, m2) that is r1 mod m1 and r2 mod m2, by
    the Chinese remainder theorem, and that modulus."""
    import math
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise ValueError("incompatible residues %d mod %d, %d mod %d"
                         % (r1, m1, r2, m2))
    l = m1 // g * m2
    step = m1 // g
    inv = pow(step % (m2 // g), -1, m2 // g) if m2 // g > 1 else 0
    k = ((r2 - r1) // g * inv) % (m2 // g)
    return (r1 + m1 * k) % l, l


def recursive_unroll(t, targets, pad=0):
    """unroll as a recursion, with each prime-omega residue merged across
    the targets by crt_merge, one period at a time."""
    import math
    from omsemi.semigroup import stabilized_prime_power_residue
    from omsemi.terms import (Concat, FinitePower, Letter, OmegaPower,
                              PrimeOmegaPower)
    if isinstance(t, Letter):
        return t.ch
    if isinstance(t, Concat):
        return (recursive_unroll(t.left, targets, pad) +
                recursive_unroll(t.right, targets, pad))
    if isinstance(t, FinitePower):
        return recursive_unroll(t.base, targets, pad) * t.m
    if isinstance(t, (OmegaPower, PrimeOmegaPower)):
        datas = [S.monogenic_data(recursive_eval_term(S, g, t.base))
                 for S, g in targets]
        if isinstance(t, OmegaPower):
            modulus = math.lcm(*[d.period for d in datas])
            residue = t.k % modulus
        else:
            residue, modulus = 0, 1
            for d in datas:
                r = stabilized_prime_power_residue(t.p, d.period)
                residue, modulus = crt_merge(residue, modulus, r, d.period)
        need = max([d.index for d in datas] + [1, pad])
        n = residue
        while n < need:
            n += modulus
        return recursive_unroll(t.base, targets, pad) * n
    raise TypeError("not a term: %r" % (t,))


def recursive_expand_for_factors(t, k):
    from omsemi.terms import Concat, FinitePower, Letter
    if isinstance(t, Letter):
        return t.ch
    if isinstance(t, Concat):
        return (recursive_expand_for_factors(t.left, k) +
                recursive_expand_for_factors(t.right, k))
    if isinstance(t, FinitePower):
        return recursive_expand_for_factors(t.base, k) * t.m
    return recursive_expand_for_factors(t.base, k) * (k + 2)


# ---------------------------------------------------------------------------
# DFA minimisation: Moore's rounds, the untrimmed class automaton and the
# trimmed one minimised by Hopcroft, the former code of omsemi.dfa and
# omsemi.syntactic, kept as oracles


def same_dfa(d1, d2):
    return (d1.alphabet, d1.transitions, d1.initial, d1.accepting) == (
        d2.alphabet, d2.transitions, d2.initial, d2.accepting)


def moore_minimize(d):
    """The minimal DFA of d by Moore partition refinement, renumbered by
    breadth-first search from the initial state."""
    from omsemi.dfa import Dfa
    reach = reachable([d.initial], d.transitions.__getitem__)
    pos = {q: i for i, q in enumerate(reach)}
    trans = [[pos[d.transitions[q][a]] for a in range(len(d.alphabet))]
             for q in reach]
    accept = {pos[q] for q in d.accepting if q in pos}
    n = len(reach)
    cls = [1 if q in accept else 0 for q in range(n)]
    while True:
        sig = {}
        new = [0] * n
        for q in range(n):
            key = (cls[q], tuple(cls[r] for r in trans[q]))
            if key not in sig:
                sig[key] = len(sig)
            new[q] = sig[key]
        if new == cls:
            break
        cls = new
    qtrans = [None] * len(set(cls))
    for q in range(n):
        if qtrans[cls[q]] is None:
            qtrans[cls[q]] = [cls[r] for r in trans[q]]
    initial = cls[pos[d.initial]]
    qaccept = {cls[q] for q in accept}
    order = [initial]
    num = {initial: 0}
    for q in order:
        for r in qtrans[q]:
            if r not in num:
                num[r] = len(order)
                order.append(r)
    return Dfa(d.alphabet, [[num[r] for r in qtrans[q]] for q in order], 0,
               {num[q] for q in qaccept})


def cayley_automaton(sp):
    """The right Cayley graph with a start state, read off the table as
    the rows of an automaton: state 0 is the start, state 1 + i the class
    i, and letter a takes the start to 1 + [a] and 1 + i to 1 + i[a]."""
    letters = [sp.gens(ch) for ch in sp.alphabet]
    rows = [[1 + g for g in letters]]
    rows += [[1 + row[g] for g in letters] for row in sp.semigroup.table]
    return rows


def full_class_language(sp, e):
    """The class language of e by minimising with Moore the whole
    Cayley automaton: a start state, then one state per class."""
    from omsemi.dfa import Dfa
    return moore_minimize(Dfa(sp.alphabet, cayley_automaton(sp), 0, {1 + e}))


def trimmed_class_language(sp, e):
    """The class language of e by minimising with Dfa.minimize the Cayley
    automaton cut down to the states that can reach 1 + e, with every
    other edge sent to one rejecting sink."""
    from omsemi.dfa import Dfa
    from omsemi.graphs import reachable
    rows = cayley_automaton(sp)
    preds = [[] for _ in rows]
    for q, row in enumerate(rows):
        for r in row:
            preds[r].append(q)
    target = 1 + e
    # the start state reaches every class, so it is kept and sorts first
    keep = sorted(reachable([target], preds.__getitem__))
    sink = len(keep)
    num = {q: i for i, q in enumerate(keep)}
    trans = [[num.get(r, sink) for r in rows[q]] for q in keep]
    trans.append([sink] * len(sp.alphabet))
    return Dfa(sp.alphabet, trans, 0, {num[target]}).minimize()


# the residual-inclusion preorder by repeated sweeps over every state pair,
# and state elimination over regex trees printed by format_regex, the
# former code of omsemi.syntactic and omsemi.regex, kept as oracles


def sweep_state_preorder(d):
    """below[p][q]: every word accepted from state p is accepted from q,
    found by deleting pairs until no letter leads out of the relation."""
    nq = d.n_states
    acc = d.accepting
    trans = d.transitions
    below = [[p not in acc or q in acc for q in range(nq)]
             for p in range(nq)]
    changed = True
    while changed:
        changed = False
        for p in range(nq):
            for q in range(nq):
                if below[p][q] and not all(
                        below[a][b] for a, b in zip(trans[p], trans[q])):
                    below[p][q] = False
                    changed = True
    return below


def regex_text(d):
    """dfa_to_regex on a Dfa, eliminating its coaccessible states in
    index order."""
    from omsemi.regex import dfa_to_regex
    return dfa_to_regex(d.alphabet, d.transitions, d.initial, d.accepting,
                        sorted(d.coaccessible_states()))


def tree_dfa_to_regex(d):
    """The text of d's language by state elimination over regex trees in
    index order on the coaccessible states, printed by format_regex, or
    None if the language is empty."""
    from omsemi.regex import Concat, Empty, Star, Sym, Union, format_regex

    def cat(a, b):
        if isinstance(a, Empty):
            return b
        if isinstance(b, Empty):
            return a
        return Concat(a, b)

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
        out = [(j, r if loop is None else cat(Star(loop), r))
               for (i, j), r in edges.items() if i == k]
        for i, _ in into:
            edges.pop((i, k))
        for j, _ in out:
            edges.pop((k, j))
        for i, rin in into:
            for j, rout in out:
                put(i, j, cat(rin, rout))
    r = edges.get((start, accept))
    return None if r is None else format_regex(r)


# ---------------------------------------------------------------------------
# semigroup enumeration: the search that tests canonicity only at complete
# tables, as omsemi.enumeration did before it pruned relabelled prefixes,
# written from the definitions and kept as an oracle


def leaf_canonical_tables(n):
    """The lex-least associative table of each isomorphism class of order
    n, in lex order: every labelled associative table is reached, and one
    is kept when no relabelling of it is smaller."""
    from itertools import permutations
    perms = [p for p in permutations(range(n)) if p != tuple(range(n))]
    table = [[None] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    out = []

    def consistent():
        t = table
        r = range(n)
        return all(t[t[a][b]][c] == t[a][t[b][c]]
                   for a in r for b in r for c in r
                   if t[a][b] is not None and t[b][c] is not None
                   and t[t[a][b]][c] is not None
                   and t[a][t[b][c]] is not None)

    def is_canonical():
        flat = tuple(v for row in table for v in row)
        return all(tuple(p[table[inv[x]][inv[y]]] for x in range(n)
                         for y in range(n)) >= flat
                   for p, inv in ((p, sorted(range(n), key=p.__getitem__))
                                  for p in perms))

    def fill(idx):
        if idx == len(cells):
            if is_canonical():
                out.append(tuple(tuple(row) for row in table))
            return
        i, j = cells[idx]
        for k in range(n):
            table[i][j] = k
            if consistent():
                fill(idx + 1)
        table[i][j] = None

    fill(0)
    return out


# ---------------------------------------------------------------------------
# bounded term search: the full enumeration that omsemi.reducibility ran
# before it kept one term per (value, normal form) class, kept as an oracle


def all_terms_search(triple, variety, max_size, offsets=(0,)):
    """Exhaustive search for a term solution of x = y over the variety.

    Enumerates all terms built from letters, concatenation, and omega powers
    with the given offsets (plain omega signature: offsets=(0,)), up to
    `max_size` syntax-tree nodes, in a fixed deterministic order.  Returns
    the first valid pair (u, v) with eval(u) = s, eval(v) = t, and matching
    variety normal forms, or None."""
    from omsemi.errors import SizeTooLarge
    from omsemi.terms import VARIETY_STEPS, Concat, Letter, OmegaPower, \
        normal_form
    if variety not in VARIETY_STEPS:
        raise ValueError("variety must be one of ab, com, g")
    if not 1 <= max_size <= 12:
        raise SizeTooLarge("term node bound must be between 1 and 12")
    keyfn = lambda t: normal_form(variety, t)
    S, gens = triple.S, triple.gens
    letters = sorted(gens.assignment)

    by_size = {}
    ordered = []
    for size in range(1, max_size + 1):
        bucket = []
        if size == 1:
            bucket.extend((Letter(ch), gens(ch)) for ch in letters)
        if size >= 2:
            for off in offsets:
                for base, val in by_size[size - 1]:
                    bucket.append((OmegaPower(base, off),
                                   S.omega_plus_k(val, off)))
            for lsize in range(1, size - 1):
                for left, lval in by_size[lsize]:
                    for right, rval in by_size[size - 1 - lsize]:
                        bucket.append((Concat(left, right),
                                       S.table[lval][rval]))
        by_size[size] = bucket
        ordered.extend(bucket)

    best_u = {}
    for term, val in ordered:
        if val == triple.s:
            k = keyfn(term)
            if k not in best_u:
                best_u[k] = term
    for term, val in ordered:
        if val == triple.t:
            k = keyfn(term)
            if k in best_u:
                return best_u[k], term
    return None


def groups_of_order(n):
    return [(name, S) for name, S in all_groups_up_to_24() if S.n == n]


def find_identity(S):
    """The two-sided identity of S's table, declared or not, or None."""
    for e in range(S.n):
        if all(S.table[e][j] == j and S.table[j][e] == j
               for j in range(S.n)):
            return e
    return None


def is_group(S):
    """Identity plus two-sided inverses (associativity is constructive)."""
    e = find_identity(S)
    if e is None:
        return False
    return all(any(S.table[a][b] == e and S.table[b][a] == e
                   for b in range(S.n)) for a in range(S.n))


def element_orders(S):
    """Multiset of element orders, assuming S is a group."""
    orders = []
    for s in range(S.n):
        d = S.monogenic_data(s)
        orders.append(d.period if d.index == 1 else 0)
    return tuple(sorted(orders))


def _generating_sequence(S):
    """A small generating tuple, found greedily by descending element order."""
    e = find_identity(S)
    by_order = sorted(range(S.n),
                      key=lambda s: (-S.monogenic_data(s).period, s))
    gens = []
    have = {e}
    for s in by_order:
        if s in have:
            continue
        gens.append(s)
        have = _subgroup_closure(S, gens)
        if len(have) == S.n:
            break
    return gens


def _subgroup_closure(S, gens):
    """The set of elements of the subgroup generated by gens."""
    e = find_identity(S)
    t = S.table
    return set(reachable([e, *gens], lambda a: [t[a][g] for g in gens]))


def groups_are_isomorphic(G, H):
    """Exact isomorphism test by mapping a generating tuple of G into H."""
    if G.n != H.n:
        return False
    if element_orders(G) != element_orders(H):
        return False
    gens = _generating_sequence(G)
    gen_orders = [G.monogenic_data(g).period for g in gens]
    pools = [[h for h in range(H.n)
              if H.monogenic_data(h).period == d] for d in gen_orders]
    # every assignment of images of the same orders, in lexicographic order
    return any(_extends_to_isomorphism(G, H, gens, images)
               for images in itertools.product(*pools))


def _extends_to_isomorphism(G, H, gens, images):
    eG = find_identity(G)
    eH = find_identity(H)
    phi = {eG: eH}
    for g, h in zip(gens, images):
        if phi.get(g, h) != h:
            return False
        phi[g] = h
    queue = list(phi)
    while queue:
        a = queue.pop()
        for g, h in zip(gens, images):
            b = G.table[a][g]
            hb = H.table[phi[a]][h]
            if b in phi:
                if phi[b] != hb:
                    return False
            else:
                phi[b] = hb
                queue.append(b)
    if len(phi) != G.n or len(set(phi.values())) != G.n:
        return False
    return all(phi[G.table[a][b]] == H.table[phi[a]][phi[b]]
               for a in range(G.n) for b in range(G.n))


@st.composite
def any_dfas(draw):
    """A complete DFA of 1-8 states over {a, b} or {a, b, c}, with any
    initial state and any accepting set, so some have unreachable states,
    no accepting state or only accepting states."""
    from omsemi.dfa import Dfa
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    n = draw(st.integers(1, 8))
    state = st.integers(0, n - 1)
    row = st.lists(state, min_size=len(alphabet), max_size=len(alphabet))
    transitions = draw(st.lists(row, min_size=n, max_size=n))
    return Dfa(alphabet, transitions, draw(state), draw(st.sets(state)))
