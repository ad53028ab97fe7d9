"""Finite semigroups as explicit multiplication tables.

Elements are integers 0..n-1.  A table is a list of n rows of n entries,
``table[a][b]`` being the product ab.  A table is proven associative where
it enters: the public constructor and `FiniteSemigroup.from_right_cayley`
check what they are given and prove it by Light's test over a generating
set.  When the generating set is known (a caller's right Cayley graph
or ``generators``) this costs n^2 per generator; otherwise the
generators are all n elements and it is the full n^3 proof.  A smaller
generating set is first checked to generate the table, by the
breadth-first closure of ``omsemi.graphs`` under right multiplication by
the generators.  A semigroup may optionally carry a stable partial order
and a distinguished identity element; a monoid is just a semigroup whose
``identity`` is set.

The tables the package derives itself are associative, generated and
neutral at their identity by construction, so they are built through the
private `FiniteSemigroup._of`, which sets the fields and proves nothing:
cyclic semigroups, adjoined identities, direct products, the groups of
``omsemi.groups_catalog`` and the tables of ``omsemi.enumeration``.

A semigroup may also be given by its right Cayley graph over the
generators, x -> xg for each generator g.  The table is filled inside
the class from the graph, one column per element along a breadth-first
spanning tree from the generators, by the private
`FiniteSemigroup._of_right_cayley`, which proves nothing either: that is
how syntactic semigroups are built, from the letter actions of a minimal
DFA, a transition semigroup and so associative by construction.  A
caller's graph goes through `FiniteSemigroup.from_right_cayley`, which
checks the graph's n entries per generator and that the generators
reach every element, then runs the same fill, Light's test and the
identity check.

Green's relations are the strongly connected components of the Cayley
graphs over the generators (Froidure & Pin, "Algorithms for computing
finite semigroups", 1997), found by the component walk of
``omsemi.graphs``.

Every power of an element, finite or omega, is read off one sequence: the
powers s, s^2, ... up to the first repeat, walked once per element.  From
the index on they run round the cycle, so s^(omega+k) is s^N for any
N >= index with N = k mod period (Almeida, "Finite Semigroups and
Universal Algebra", 1994).
"""

from collections import namedtuple
from math import gcd
from operator import itemgetter

from .errors import (MalformedTable, NotAssociative, NotAPartialOrder,
                     UnboundLetter, _checked_rows, listed)
from .graphs import _scc_labels, reachable


# The power sequence of one element, with its index and period.  The
# powers s, s^2, s^3, ... are eventually periodic: the first repeated value
# occurs at s^(index+period) = s^index.  ``powers`` lists s, ...,
# s^(index+period-1), so every power of s is one of its entries.
MonogenicData = namedtuple("MonogenicData", "index period powers")


class FiniteSemigroup:
    """A multiplication table, proven associative where it enters.

    The public constructor and `from_right_cayley` check what they are
    given and prove it; `_of` sets the fields of a table the package
    derived itself, and `_of_right_cayley` fills one from the package's
    own right Cayley graph; neither proves anything.  `generators` is a
    set of elements that generates the semigroup; it defaults to every
    element.
    Associativity and the stability of `order` are proven over it, and
    Green's classes walk the Cayley graphs over it, so a small generating
    set makes all three cheaper.
    """

    def __init__(self, table, order=None, identity=None, generators=None):
        t = _checked_rows(table)
        n = len(t)
        if generators is not None:
            gens = _checked_generators(listed(generators, "generators"), n)
            generators = tuple(sorted(set(gens)))
            if len(generators) < n and len(reachable(
                    gens, lambda a: map(t[a].__getitem__, gens))) != n:
                raise MalformedTable("generators do not generate the table")
        # the fields are set as _of sets them, then proven in place
        vars(self).update(vars(self._of(t, generators, identity)))
        self._prove()
        if order is not None:
            self.order = self._check_order(order)

    @classmethod
    def _of(cls, table, generators=None, identity=None, order=None):
        """The semigroup of `table`, a list of n lists, with the sorted
        tuple `generators` (every element when None), `identity` and the
        frozenset `order` as given, and nothing checked or proven.  The
        package builds its own tables here, associative, generated,
        neutral at `identity` and ordered stably by construction.  The
        public constructors set their fields here too and prove them
        after; __init__ then attaches a caller's order once it is proven,
        as `ordered_semigroup` attaches the syntactic order."""
        S = cls.__new__(cls)
        S.table = table
        S.n = n = len(table)
        S.generators = tuple(range(n)) if generators is None else generators
        S.identity = identity
        S.order = order
        S._mono = {}
        return S

    @classmethod
    def from_right_cayley(cls, rows, generators, identity=None):
        """The semigroup whose right Cayley graph over `generators` is
        `rows`: rows[x][i] is the product of x and generators[i].

        The rows, generators and identity are checked: a generator listed
        twice must have the same column each time, and the generators
        must reach every element along the graph.  The table is then
        filled by `_of_right_cayley`, so every entry is a value of a
        checked row, and Light's test and the identity check run as in
        __init__."""
        generators = listed(generators, "generators")
        rows = _checked_rows(rows, len(generators))
        _checked_generators(generators, len(rows))
        columns = {}
        for g, col in zip(generators, zip(*rows)):
            if columns.setdefault(g, col) != col:
                raise MalformedTable("generator %d has two different columns"
                                     % g)
        if len(reachable(generators, rows.__getitem__)) != len(rows):
            raise MalformedTable("generators do not generate the table")
        S = cls._of_right_cayley(rows, generators, identity)
        S._prove()
        return S

    @classmethod
    def _of_right_cayley(cls, rows, generators, identity=None):
        """The semigroup of the right Cayley graph `rows` over the list
        `generators`, with nothing checked or proven.  The table is filled
        one column per element, x -> xw for the element w, along a
        breadth-first spanning tree from the generators: the column of
        w = pg_i is the column of p followed by one step of the graph
        (Froidure & Pin, "Algorithms for computing finite semigroups",
        1997).  Syntactic semigroups are built here, from the letter
        actions of a minimal DFA: a transition semigroup is associative,
        generated by its letters and neutral at the class acting as the
        empty word by construction.  The graph must be generated, and a
        generator listed twice must have one column; `from_right_cayley`
        proves both before it calls this."""
        # right[i]: the column x -> x g_i of the graph
        right = list(zip(*rows))
        columns = [None] * len(rows)
        for g, col in zip(generators, right):
            columns[g] = col
        found = list(dict.fromkeys(generators))
        for p in found:     # the list grows as elements are found
            for i, w in enumerate(rows[p]):
                if columns[w] is None:
                    # n >= 2 here, since the one element of a table of
                    # order 1 is a generator, so itemgetter gives a tuple
                    columns[w] = itemgetter(*columns[p])(right[i])
                    found.append(w)
        return cls._of(list(map(list, zip(*columns))),
                       tuple(sorted(set(generators))), identity)

    def _prove(self):
        """Light's test, then the identity check: what both public
        constructors run once the fields are set from a checked table
        whose generators are known to generate it."""
        self._check_associative()
        identity = self.identity
        if identity is not None:
            if type(identity) is not int or not 0 <= identity < self.n:
                raise MalformedTable("identity out of range: %r"
                                     % (identity,))
            row = self.table[identity]
            for j in range(self.n):
                if row[j] != j or self.table[j][identity] != j:
                    raise MalformedTable("element %d is not an identity"
                                         % identity)

    def _check_associative(self):
        """Light's test: the elements a with (xa)y = x(ay) for all x, y
        form a subsemigroup, so checking them on a generating set proves
        the whole table associative."""
        t = self.table
        if self.n == 1:
            # [[0]] is associative; itemgetter of one index returns a bare
            # entry, not a tuple
            return
        for g in self.generators:
            rg = t[g]
            # x(gy) for every y, gathered from row x in one call
            gather = itemgetter(*rg)
            for x, tx in enumerate(t):
                # (xg)y for every y, against x(gy) for every y
                if t[tx[g]] != list(gather(tx)):
                    y = next(y for y in range(self.n)
                             if t[tx[g]][y] != tx[rg[y]])
                    raise NotAssociative(
                        "(%d %d) %d != %d (%d %d)" % (x, g, y, x, g, y))

    def _check_order(self, order):
        """The reflexive closure of `order` as a frozenset of pairs, once
        it is proven a partial order that is stable under multiplication.
        Stability is checked against the generators only: a <= b gives
        ag <= bg and ga <= gb for every generator g, hence ac <= bc and
        ca <= cb for every product c of generators, and with transitivity
        ac <= bc <= bd whenever a <= b and c <= d."""
        pairs = set()
        n = self.n
        for pair in listed(order, "order", NotAPartialOrder):
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise NotAPartialOrder("order entry is not a pair: %r"
                                       % (pair,)) from None
            if type(i) is not int or type(j) is not int \
                    or not (0 <= i < n and 0 <= j < n):
                raise NotAPartialOrder("order pair out of range: %r"
                                       % (pair,))
            pairs.add((i, j))
        for i in range(n):
            pairs.add((i, i))
        for i, j in pairs:
            if i != j and (j, i) in pairs:
                raise NotAPartialOrder("antisymmetry fails at %d, %d" % (i, j))
        above = {}
        for i, j in pairs:
            above.setdefault(i, set()).add(j)
        for i, j in pairs:
            for k in above.get(j, ()):
                if (i, k) not in pairs:
                    raise NotAPartialOrder("transitivity fails")
        t = self.table
        for a, b in pairs:
            ta, tb = t[a], t[b]
            for g in self.generators:
                if ((ta[g], tb[g]) not in pairs
                        or (t[g][a], t[g][b]) not in pairs):
                    raise NotAPartialOrder(
                        "order not stable: %d<=%d, generator %d" % (a, b, g))
        return frozenset(pairs)

    def power(self, s, k):
        """s^k for k >= 1, read off the power sequence of s: from the
        index on, s^k is the cycle element s^(omega+k)."""
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        data = self.monogenic_data(s)
        if k < data.index:
            return data.powers[k - 1]
        return self.omega_plus_k(s, k)

    def monogenic_data(self, s):
        """The power sequence of s, with its index and period."""
        cached = self._mono.get(s)
        if cached is not None:
            return cached
        exponent = {}    # s^k -> k, in the order of k
        cur = s
        while cur not in exponent:
            exponent[cur] = len(exponent) + 1
            cur = self.table[cur][s]
        index = exponent[cur]
        data = MonogenicData(index, len(exponent) + 1 - index,
                             tuple(exponent))
        self._mono[s] = data
        return data

    def omega_plus_k(self, s, k):
        """The cycle element s^(omega+k): the limit of s^(n!+k).

        For any exponent N >= index with N = k mod period, s^N is this
        element, read off the power sequence of s at the least such N;
        negative k walks backwards around the cycle group.
        """
        data = self.monogenic_data(s)
        return data.powers[data.index - 1 + (k - data.index) % data.period]

    def p_omega_power(self, s, p):
        """The limit of s^(p^(n!)) for a prime p.

        The exponent residues p^(n!) mod period stabilise; the result is the
        cycle element at the stabilised residue.
        """
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        data = self.monogenic_data(s)
        r = stabilized_prime_power_residue(p, data.period)
        return self.omega_plus_k(s, r)

    def with_identity_adjoined(self):
        """S^1: self if an identity is declared, else S with a fresh one
        adjoined (an undeclared neutral element is not taken as one)."""
        if self.identity is not None:
            return self
        n = self.n
        table = [row + [i] for i, row in enumerate(self.table)] + \
                [list(range(n)) + [n]]
        # the new element is neutral, so the order stays stable
        order = None if self.order is None else self.order | {(n, n)}
        return self._of(table, self.generators + (n,), n, order)

    def __repr__(self):
        # safe on an object whose construction stopped part way, such as
        # the self of a MalformedTable traceback: __init__ sets no field
        # before the table's shape is checked
        kind = ("monoid" if getattr(self, "identity", None) is not None
                else "semigroup")
        return "<%s of order %s>" % (kind, getattr(self, "n", "?"))

    @classmethod
    def cyclic(cls, index, period):
        """The monogenic semigroup C(index, period): s^(index+period) = s^index."""
        if index < 1 or period < 1:
            raise ValueError("index and period must be >= 1")
        n = index + period - 1

        def reduce(m):
            return m if m <= n else index + (m - index) % period

        table = [[reduce(a + b) - 1 for b in range(1, n + 1)]
                 for a in range(1, n + 1)]
        # s^period is the identity of the cyclic group
        return cls._of(table, (0,), period - 1 if index == 1 else None)

    @classmethod
    def direct_product(cls, a, b):
        # (i1, j1)(i2, j2) is (i1 i2, j1 j2), the pair (i, j) at i|B| + j
        table = [[x * b.n + y for x in ra for y in rb]
                 for ra in a.table for rb in b.table]
        if a.identity is None or b.identity is None:
            return cls._of(table)
        return cls._of(table, identity=a.identity * b.n + b.identity)


def _checked_generators(generators, n):
    """The list generators, once each is proven an int in range(n)."""
    for g in generators:
        if type(g) is not int or not 0 <= g < n:
            raise MalformedTable("generator out of range: %r" % (g,))
    return generators


def stabilized_prime_power_residue(p, period):
    """The eventual value of p^(n!) mod period.

    Split period into rest, made of the primes dividing p, and coprime,
    made of the others.  Once n! passes every exponent in rest and is a
    multiple of the order of p modulo coprime, p^(n!) is 0 mod rest and 1
    mod coprime, which the Chinese remainder theorem joins into one
    residue mod period.
    """
    coprime = period
    while (g := gcd(coprime, p)) > 1:
        coprime //= g
    rest = period // coprime
    return rest * pow(rest, -1, coprime) % period


class GeneratorMap(namedtuple("GeneratorMap", "target assignment")):
    """Assignment of letters to elements of a target semigroup."""

    __slots__ = ()

    def __new__(cls, target, assignment):
        if not isinstance(assignment, dict):
            raise MalformedTable("assignment is not a dict: %r"
                                 % (assignment,))
        for letter, e in assignment.items():
            if type(e) is not int or not 0 <= e < target.n:
                raise MalformedTable("image of %r out of range: %r"
                                     % (letter, e))
        return super().__new__(cls, target, assignment)

    # namedtuple's _make, which _replace calls, would skip those checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __call__(self, letter):
        try:
            return self.assignment[letter]
        except KeyError:
            raise UnboundLetter("letter %r has no image" % letter) from None

    def image_of_word(self, word):
        """Homomorphic image of a nonempty word."""
        if not word:
            raise ValueError("empty word has no image in a semigroup")
        e = self(word[0])
        t = self.target.table
        for ch in word[1:]:
            e = t[e][self(ch)]
        return e


# partitions of a semigroup into R, L, J and H classes
GreenClasses = namedtuple("GreenClasses", "r l j h")


def _partition_by(keys):
    groups = {}
    for a, key in enumerate(keys):
        groups.setdefault(key, []).append(a)
    classes = sorted(groups.values(), key=lambda c: c[0])
    return tuple(tuple(c) for c in classes)


def green_classes(S):
    """Green's relations from the Cayley graphs over S.generators: the R-,
    L- and J-classes are the strongly connected components of the right
    (a -> ag), left (a -> ga) and two-sided graphs, since b is reachable
    from a exactly when b lies in aS^1, S^1a or S^1aS^1; H = R n L.  Each
    class lists its elements in increasing order, and the classes are
    sorted by their least element."""
    t = S.table
    gens = S.generators
    right = [[t[a][g] for g in gens] for a in range(S.n)]
    left = [[t[g][a] for g in gens] for a in range(S.n)]
    r_of = _scc_labels(right)
    l_of = _scc_labels(left)
    j_of = _scc_labels([r + l for r, l in zip(right, left)])
    return GreenClasses(r=_partition_by(r_of), l=_partition_by(l_of),
                        j=_partition_by(j_of),
                        h=_partition_by(list(zip(r_of, l_of))))
