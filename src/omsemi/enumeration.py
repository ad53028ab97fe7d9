"""Exhaustive enumeration of small semigroups up to isomorphism.

The search fills a multiplication table cell by cell in row-major order,
trying the values in increasing order and checking after each cell the
associativity triples that the cell completes.  Symmetry is broken inside
the search by the lex-leader test (Distler, *Classification and
enumeration of finite semigroups*, PhD thesis, St Andrews 2010): after
every consistent cell, each relabelling pi(T) of the partial table T is
compared with T in row-major order up to the first cell that is unfilled
on either side, and the branch is pruned as soon as a decided cell of
pi(T) is the smaller.  Every completion of a pruned branch has a smaller
relabelling, so exactly the lexicographically least table of each class
survives, and the classes come out in lexicographic order.
"""

from itertools import permutations

from .errors import SizeTooLarge
from .semigroup import FiniteSemigroup

_CACHE = {}


def enumerate_semigroups(n):
    """Yield one semigroup per isomorphism class of order n, 1 <= n <= 5.

    Each class is represented by its lexicographically smallest table, and
    classes come out in lexicographic table order, so the stream is
    deterministic.  The semigroups of each order are built once per
    process, so every call yields the same objects, with the powers they
    have cached; callers must treat them as read-only.
    """
    if not 1 <= n <= 5:
        raise SizeTooLarge(f"can only enumerate orders 1..5, got {n}")
    if n not in _CACHE:
        _CACHE[n] = [FiniteSemigroup(table) for table in _canonical_tables(n)]
    yield from _CACHE[n]


def _canonical_tables(n):
    inverses = [(p, sorted(range(n), key=p.__getitem__))
                for p in permutations(range(n)) if p != tuple(range(n))]

    table = [[None] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    out = []

    def consistent(i, j):
        # recheck only the triples that mention the cell just assigned
        t = table
        k = t[i][j]
        for c in range(n):
            lhs = t[k][c]
            q = t[j][c]
            if lhs is not None and q is not None:
                rhs = t[i][q]
                if rhs is not None and lhs != rhs:
                    return False
        for a in range(n):
            rhs = t[a][k]
            p = t[a][i]
            if rhs is not None and p is not None:
                lhs = t[p][j]
                if lhs is not None and lhs != rhs:
                    return False
        for a in range(n):
            row = t[a]
            for b in range(n):
                if row[b] == i:
                    q = t[b][j]
                    if q is not None:
                        rhs = t[a][q]
                        if rhs is not None and rhs != k:
                            return False
        for b in range(n):
            rowb = table[b]
            for c in range(n):
                if rowb[c] == j:
                    p = table[i][b]
                    if p is not None:
                        lhs = table[p][c]
                        if lhs is not None and lhs != k:
                            return False
        return True

    def is_canonical():
        # no relabelling is smaller on the cells decided on both sides;
        # on a complete table, no relabelling is smaller at all
        t = table
        for perm, inv in inverses:
            for x in range(n):
                tx = t[inv[x]]
                row = t[x]
                for y in range(n):
                    w = row[y]
                    u = tx[inv[y]]
                    if w is None or u is None:
                        break
                    v = perm[u]
                    if v < w:
                        return False
                    if v > w:
                        break
                else:
                    continue
                break
        return True

    # depth-first over the cells: the value in a cell is the last one
    # tried there, and None before the first
    last = len(cells) - 1
    idx = 0
    while idx >= 0:
        i, j = cells[idx]
        k = 0 if table[i][j] is None else table[i][j] + 1
        if k == n:
            table[i][j] = None
            idx -= 1
            continue
        table[i][j] = k
        if consistent(i, j) and is_canonical():
            if idx == last:
                out.append(tuple(tuple(row) for row in table))
            else:
                idx += 1
    return out
