"""Exhaustive enumeration of small semigroups up to isomorphism.

The search fills a multiplication table cell by cell in row-major order,
trying the values in increasing order and checking after each cell the
associativity triples that the cell completes.  For the triples in which
the new value k = T[i][j] sits inside a product, (a b) j with a b = i and
i (b c) with b c = j, the cells holding i and j are read from a value
index, one list of cells per value, kept up to date as cells are assigned
and cleared.

Symmetry is broken inside the search by the lex-leader test (Distler,
*Classification and enumeration of finite semigroups*, PhD thesis, St
Andrews 2010): each relabelling pi(T) of the partial table T is compared
with T in row-major order up to the first cell that is unfilled on either
side, and the branch is pruned as soon as a decided cell of pi(T) is the
smaller.  Every completion of a pruned branch has a smaller relabelling,
so exactly the lexicographically least table of each class survives, and
the classes come out in lexicographic order.

The test is incremental.  A relabelling still tied with T is kept with
the cell at which its comparison resumes, and it waits on the later of
the two cells that comparison reads, T[x][y] and T[inv x][inv y]: only
when the search fills that cell is the comparison taken further.  One
that turns out greater is dropped for the whole subtree, one that turns
out smaller prunes the node, and one still tied waits on its next cell;
the others are not touched.
"""

from itertools import permutations

from .errors import SizeTooLarge
from .semigroup import FiniteSemigroup

_CACHE = {}


def enumerate_semigroups(n):
    """Yield one semigroup per isomorphism class of order n, 1 <= n <= 6.

    Each class is represented by its lexicographically smallest table, and
    classes come out in lexicographic table order, so the stream is
    deterministic.  The semigroups of each order are built once per
    process, so every call yields the same objects, with the powers they
    have cached; callers must treat them as read-only.

    The search keeps, for each value, the cells that hold it, so the
    associativity triples a new cell completes are found without a scan
    of the table; and it keeps each relabelling still tied with the
    partial table in a list for the cell its comparison waits on, with the
    cell where that comparison resumes, so a filled cell advances only the
    relabellings that wait on it.
    """
    if not 1 <= n <= 6:
        raise SizeTooLarge(f"can only enumerate orders 1..6, got {n}")
    if n not in _CACHE:
        # the search checked every triple, so the tables go in unproven
        _CACHE[n] = [FiniteSemigroup._of(list(map(list, table)))
                     for table in _canonical_tables(n)]
    yield from _CACHE[n]


def _canonical_tables(n):
    size = n * n
    cells = [(i, j) for i in range(n) for j in range(n)]
    table = [[None] * n for _ in range(n)]
    flat = [None] * size        # the same values, by row-major cell index
    # value -> the cells holding it; cells change last in, first out, so
    # a cell leaving a value is the last one appended to its list
    holders = [[] for _ in range(n)]
    # waiting[c] holds (perm, partner, wakes, pos) for each relabelling tied
    # with the table so far whose comparison resumes at cell pos and waits
    # on cell c = wakes[pos]: pi(T) at pos is perm[T at partner[pos]], and
    # wakes[pos] is the later of pos and partner[pos].  trail[c] lists the
    # waiting lists appended to at cell c, to be undone when c changes.
    waiting = [[] for _ in range(size + 1)]
    trail = [[] for _ in range(size)]
    for perm in permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        inv = sorted(range(n), key=perm.__getitem__)
        partner = [inv[x] * n + inv[y] for x in range(n) for y in range(n)]
        # a relabelling that ties on the whole table waits on no cell
        wakes = [max(c, d) for c, d in enumerate(partner)] + [size]
        waiting[wakes[0]].append((perm, partner, wakes, 0))
    out = []

    def consistent(i, j, k):
        # recheck only the triples that mention the cell just assigned
        t = table
        rowi, rowj, rowk = t[i], t[j], t[k]
        for c in range(n):
            lhs = rowk[c]
            q = rowj[c]
            if lhs is not None and q is not None:
                rhs = rowi[q]
                if rhs is not None and lhs != rhs:
                    return False
        for row in t:
            rhs = row[k]
            p = row[i]
            if rhs is not None and p is not None:
                lhs = t[p][j]
                if lhs is not None and lhs != rhs:
                    return False
        for a, b in holders[i]:
            q = t[b][j]
            if q is not None:
                rhs = t[a][q]
                if rhs is not None and rhs != k:
                    return False
        for b, c in holders[j]:
            p = rowi[b]
            if p is not None:
                lhs = t[p][c]
                if lhs is not None and lhs != k:
                    return False
        return True

    def lex_leader(idx):
        # advance the relabellings waiting on cell idx; False when one of
        # them is smaller on the cells filled on both sides
        pushed = trail[idx]
        for perm, partner, wakes, pos in waiting[idx]:
            while wakes[pos] <= idx:
                v = perm[flat[partner[pos]]]
                w = flat[pos]
                if v != w:
                    break
                pos += 1
            else:
                c = wakes[pos]
                waiting[c].append((perm, partner, wakes, pos))
                pushed.append(c)
                continue
            if v < w:
                return False
            # v > w: pi(T) is greater on every completion, so it is dropped
        return True

    # depth-first over the cells: the value in a cell is the last one
    # tried there, and None before the first
    last = size - 1
    idx = 0
    while idx >= 0:
        pushed = trail[idx]
        while pushed:
            waiting[pushed.pop()].pop()
        i, j = cells[idx]
        k = table[i][j]
        if k is None:
            k = 0
        else:
            holders[k].pop()
            k += 1
            if k == n:
                table[i][j] = flat[idx] = None
                idx -= 1
                continue
        table[i][j] = flat[idx] = k
        holders[k].append((i, j))
        if consistent(i, j, k) and lex_leader(idx):
            if idx == last:
                out.append(tuple(tuple(row) for row in table))
            else:
                idx += 1
    return out
