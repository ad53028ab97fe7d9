"""The closure walks of the package: two breadth-first searches and one
depth-first search for strongly connected components.

A graph is given by a function from a node to its successors, in order;
nodes are any hashable values.  Both breadth-first walks visit the nodes
first in first out, successors in the order given, so their output order
is fixed by the graph alone:

- ``reachable``: the reachable and co-accessible states of a DFA, the
  state pairs reachable in the product of two DFAs (language equality
  and intersection), the ideal of the infinite syntactic classes and the
  groups of the catalogue built by permutation and matrix closures;
- ``breadth_first``, for the walks that need each node's successor
  positions: the subset construction over the sets of positions of a
  regex's position automaton, the two numberings of ``Dfa.minimize`` and
  the syntactic closure of ``syntactic_semigroup``, whose rows are kept
  as the right Cayley automaton.  One pass over those rows in order
  follows each class's tree edge, the first edge into it, and labels the
  class with its word and fills its column of the table from its
  parent's.

The component walk, ``_scc_labels``, is Tarjan's depth-first search over
a graph on 0..n-1 given by its successor lists.  Green's R-, L- and
J-classes (``semigroup.green_classes``) and the finiteness test of
``dfa.is_finite_language`` read their components off it.

Two walks are their own loops, each over a list that grows as nodes are
found, as ``reachable`` does:

- ``reducibility.simple_path_word`` walks the right Cayley graph,
  records each node's word when it first finds the node and returns when
  its target comes up;
- ``SyntacticPresentation._residual_keys`` numbers the residual keys of
  a class language breadth-first, as ``breadth_first`` would, keeping
  the first Cayley state found with each key; with no successor
  closure it measured faster.
"""


def reachable(starts, successors):
    """The nodes reachable from starts, in breadth-first order: the starts
    first, each once, then each newly found successor in turn."""
    seen = set()
    order = []
    for x in starts:
        if x not in seen:
            seen.add(x)
            order.append(x)
    for x in order:     # the list grows as nodes are found
        for y in successors(x):
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def breadth_first(start, successors):
    """The nodes reachable from start in breadth-first order, and for each
    node its successors' positions in that order."""
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


def _scc_labels(succ):
    """Strongly connected component of each vertex of the graph with
    successor lists succ (Tarjan 1972, iterative)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack = []
    counter = ncomp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]   # w is still on the stack
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
    return comp
