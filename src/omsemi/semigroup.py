"""Finite semigroups as explicit multiplication tables.

Elements are integers 0..n-1.  A table is a list of n rows of n entries,
``table[a][b]`` being the product ab.  Associativity is checked on
construction, so every FiniteSemigroup in the package is genuinely a
semigroup.  A semigroup may optionally carry a stable partial order and a
distinguished identity element; a monoid is just a semigroup whose
``identity`` is set.
"""

from dataclasses import dataclass

from .errors import NotAssociative, NotAPartialOrder, ParseError


@dataclass(frozen=True)
class MonogenicData:
    """Index and period of the power sequence of one element.

    The powers s, s^2, s^3, ... are eventually periodic: the first repeated
    value occurs at s^(index+period) = s^index.  ``cycle`` lists the cycle
    elements s^index, ..., s^(index+period-1) in order.
    """

    index: int
    period: int
    cycle: tuple


class FiniteSemigroup:
    def __init__(self, table, labels=None, order=None, identity=None):
        self.n = len(table)
        self.table = [list(row) for row in table]
        for row in self.table:
            if len(row) != self.n:
                raise ValueError("table is not square")
            for v in row:
                if not (0 <= v < self.n):
                    raise ValueError("table entry out of range: %r" % (v,))
        self._check_associative()
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label count does not match table size")
        self.identity = identity
        if identity is not None:
            row = self.table[identity]
            for j in range(self.n):
                if row[j] != j or self.table[j][identity] != j:
                    raise ValueError("element %d is not an identity" % identity)
        self.order = self._check_order(order) if order is not None else None
        self._mono = {}
        self._omega = {}

    def _check_associative(self):
        t = self.table
        for a in range(self.n):
            ra = t[a]
            for b in range(self.n):
                ab = ra[b]
                rb = t[b]
                tab = t[ab]
                for c in range(self.n):
                    if tab[c] != ra[rb[c]]:
                        raise NotAssociative(
                            "(%d %d) %d != %d (%d %d)" % (a, b, c, a, b, c))

    def _check_order(self, order):
        pairs = set()
        for i, j in order:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise NotAPartialOrder("order pair out of range")
            pairs.add((i, j))
        for i in range(self.n):
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
        plist = sorted(pairs)
        for a, b in plist:
            for c, d in plist:
                if (t[a][c], t[b][d]) not in pairs:
                    raise NotAPartialOrder(
                        "order not stable: %d<=%d, %d<=%d" % (a, b, c, d))
        return frozenset(pairs)

    def leq(self, a, b):
        if self.order is None:
            return None
        return (a, b) in self.order

    def mul(self, a, b):
        return self.table[a][b]

    def power(self, s, k):
        """s^k for k >= 1, by repeated squaring on the table."""
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        acc = None
        base = s
        while k:
            if k & 1:
                acc = base if acc is None else self.table[acc][base]
            k >>= 1
            if k:
                base = self.table[base][base]
        return acc

    def monogenic_data(self, s):
        """Index and period of the subsemigroup generated by s."""
        cached = self._mono.get(s)
        if cached is not None:
            return cached
        seen = {s: 1}
        seq = [s]
        cur = s
        while True:
            cur = self.table[cur][s]
            if cur in seen:
                index = seen[cur]
                period = len(seq) + 1 - index
                break
            seq.append(cur)
            seen[cur] = len(seq)
        data = MonogenicData(index, period, tuple(seq[index - 1:]))
        self._mono[s] = data
        return data

    def idempotent_power(self, s):
        """The unique idempotent in the cycle of the powers of s."""
        return self.omega_plus_k(s, 0)

    def omega_plus_k(self, s, k):
        """The cycle element s^(omega+k): the limit of s^(n!+k).

        For any exponent N >= index with N = k mod period, s^N is this
        element; negative k walks backwards around the cycle group.
        """
        key = (s, k)
        cached = self._omega.get(key)
        if cached is not None:
            return cached
        data = self.monogenic_data(s)
        m = k % data.period
        n = m
        while n < data.index or n < 1:
            n += data.period
        result = self.power(s, n)
        self._omega[key] = result
        return result

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

    def is_idempotent(self, s):
        return self.table[s][s] == s

    def idempotents(self):
        return [s for s in range(self.n) if self.table[s][s] == s]

    def find_identity(self):
        for e in range(self.n):
            if all(self.table[e][j] == j and self.table[j][e] == j
                   for j in range(self.n)):
                return e
        return None

    def with_identity_adjoined(self):
        """S^1: self if an identity is declared, else S with a fresh one
        adjoined (an undeclared neutral element is not taken as one)."""
        if self.identity is not None:
            return self
        n = self.n
        table = [row + [i] for i, row in enumerate(self.table)] + \
                [list(range(n)) + [n]]
        labels = self.labels + ["1"] if self.labels is not None else None
        order = None
        if self.order is not None:
            order = set(self.order) | {(n, n)}
        return FiniteSemigroup(table, labels=labels, order=order, identity=n)

    def label(self, s):
        if self.labels is not None:
            return self.labels[s]
        return str(s)

    def __repr__(self):
        kind = "monoid" if self.identity is not None else "semigroup"
        return "<%s of order %d>" % (kind, self.n)

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
        labels = ["s" if k == 1 else "s^%d" % k for k in range(1, n + 1)]
        ident = None
        if index == 1:
            ident = period - 1  # s^period is the identity of the cyclic group
        return cls(table, labels=labels, identity=ident)

    @classmethod
    def direct_product(cls, a, b):
        n = a.n * b.n

        def idx(i, j):
            return i * b.n + j

        table = [[0] * n for _ in range(n)]
        for i1 in range(a.n):
            for j1 in range(b.n):
                for i2 in range(a.n):
                    for j2 in range(b.n):
                        table[idx(i1, j1)][idx(i2, j2)] = \
                            idx(a.table[i1][i2], b.table[j1][j2])
        labels = None
        if a.labels is not None and b.labels is not None:
            labels = ["(%s,%s)" % (a.labels[i], b.labels[j])
                      for i in range(a.n) for j in range(b.n)]
        ident = None
        if a.identity is not None and b.identity is not None:
            ident = idx(a.identity, b.identity)
        return cls(table, labels=labels, identity=ident)


def stabilized_prime_power_residue(p, period):
    """The eventual value of p^(n!) mod period.

    Iterates r_1 = p mod period, r_{n+1} = r_n^(n+1) mod period and returns
    the stabilised value.  The cap is generous: stabilisation happens once
    n! kills both the p-part of the period and the multiplicative order of
    p modulo the rest.
    """
    if period == 1:
        return 0
    cap = period + p.bit_length() + 4
    r = p % period
    prev = None
    for n in range(2, cap + 1):
        prev = r
        r = pow(r, n, period)
    if r != prev:
        raise AssertionError("prime power residue failed to stabilise")
    return r


@dataclass(frozen=True)
class GeneratorMap:
    """Assignment of letters to elements of a target semigroup."""

    target: FiniteSemigroup
    assignment: dict

    def __post_init__(self):
        for letter, e in self.assignment.items():
            if not (0 <= e < self.target.n):
                raise ValueError("image of %r out of range" % letter)

    def __call__(self, letter):
        from .errors import UnboundLetter
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

    def letters(self):
        return tuple(sorted(self.assignment))


@dataclass(frozen=True)
class GreenClasses:
    """Partitions of a semigroup into R, L, J and H classes."""

    r: tuple
    l: tuple
    j: tuple
    h: tuple

    def _find(self, partition, a):
        for cls in partition:
            if a in cls:
                return cls
        raise ValueError("element out of range")

    def r_class(self, a):
        return self._find(self.r, a)

    def l_class(self, a):
        return self._find(self.l, a)

    def j_class(self, a):
        return self._find(self.j, a)

    def h_class(self, a):
        return self._find(self.h, a)

    def same_r(self, a, b):
        return b in self.r_class(a)

    def same_l(self, a, b):
        return b in self.l_class(a)

    def same_j(self, a, b):
        return b in self.j_class(a)

    def same_h(self, a, b):
        return b in self.h_class(a)


def _partition_by(keys):
    groups = {}
    for a, key in enumerate(keys):
        groups.setdefault(key, []).append(a)
    classes = sorted(groups.values(), key=lambda c: c[0])
    return tuple(tuple(c) for c in classes)


def green_classes(S):
    """Green's relations via comparison of principal ideals."""
    n = S.n
    t = S.table
    right = []
    left = []
    two = []
    for a in range(n):
        ra = frozenset([a] + [t[a][s] for s in range(n)])
        la = frozenset([a] + [t[s][a] for s in range(n)])
        ja = set([a])
        ja.update(t[a][s] for s in range(n))
        ja.update(t[s][a] for s in range(n))
        for s in range(n):
            sa = t[s][a]
            ja.update(t[sa][u] for u in range(n))
        right.append(ra)
        left.append(la)
        two.append(frozenset(ja))
    r = _partition_by(right)
    l = _partition_by(left)
    j = _partition_by(two)
    h = _partition_by([(right[a], left[a]) for a in range(n)])
    return GreenClasses(r=r, l=l, j=j, h=h)


def semigroup_to_text(S):
    """Dump in the plain text exchange format."""
    head = [str(S.n)]
    if S.order is not None:
        head.append("ordered")
    if S.identity is not None:
        head.append("monoid=%d" % S.identity)
    lines = [" ".join(head)]
    for row in S.table:
        lines.append(" ".join(str(v) for v in row))
    if S.order is not None:
        lines.append("order:")
        for i, j in sorted(S.order):
            if i != j:
                lines.append("%d<=%d" % (i, j))
    return "\n".join(lines) + "\n"


def semigroup_from_text(text):
    """Parse the plain text exchange format; malformed text raises
    ParseError naming its line."""
    rows = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1)
            if ln.strip()]
    if not rows:
        raise ParseError("no header line")

    def ints(no, fields):
        try:
            return [int(v) for v in fields]
        except ValueError:
            raise ParseError("line %d: expected integers" % no) from None

    no, head = rows[0]
    n = ints(no, head[:1])[0]
    identity = None
    for tok in head[1:]:
        if tok.startswith("monoid="):
            identity = ints(no, [tok[len("monoid="):]])[0]
            if not 0 <= identity < n:
                raise ParseError("line %d: identity out of range" % no)
    if len(rows) <= n:
        raise ParseError("line %d: expected %d table rows"
                         % (rows[-1][0], n))
    table = [ints(no, fields) for no, fields in rows[1:1 + n]]
    order = None
    rest = rows[1 + n:]
    if rest and rest[0][1] == ["order:"]:
        order = []
        for no, fields in rest[1:]:
            pair = ints(no, "".join(fields).split("<="))
            if len(pair) != 2:
                raise ParseError("line %d: expected an order pair i<=j" % no)
            order.append(tuple(pair))
    elif "ordered" in head[1:] and not rest:
        order = []
    return FiniteSemigroup(table, order=order, identity=identity)
