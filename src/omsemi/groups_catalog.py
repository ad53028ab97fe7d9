"""Every group of order at most 24, built by explicit construction.

The catalog is the fixed witness pool for free-group identity checks: the
74 pairwise non-isomorphic groups of order at most 24, stated once each
as a name in ``_NAMES``.  A name in ``_BUILDERS`` has its own
constructor; any other name with ``x`` in it is the direct product of the
groups it names, left to right; ``C<n>`` is the cyclic group of order n
and ``D<n>`` the dihedral group of order 2n.  A catalogue build makes
each name once, so a product reuses the factors built before it.

Every group built as a split extension (``semidirect_cyclic``, and so
the dihedral groups, V:C4, DihC3xC3 and C3:D4) is built by one semidirect
product, ``_semidirect``, whose elements are the pairs (n, k) listed
n-major.  The dicyclic groups are not split and keep their own
operation.  The permutation and matrix groups are breadth-first closures
under right multiplication by the generators (``omsemi.graphs.reachable``).
The order in which a construction lists the elements is the order of the
group's table, and that table is printed in ``check --variety g``
witnesses.
"""

from functools import cache, reduce

from .graphs import reachable
from .semigroup import FiniteSemigroup

_CATALOG = None


def cyclic_group(n):
    return FiniteSemigroup.cyclic(1, n)


def _table_group(elems, op):
    """The group on the element list `elems` under op, its table in the
    order of the list.  Its identity is its only idempotent.  Every op
    here is a group operation, so the table is associative and that
    idempotent neutral by construction, and nothing is proven on the way
    in; tests/test_groups_catalog.py checks both on every entry."""
    idx = {e: k for k, e in enumerate(elems)}
    table = [[idx[op(a, b)] for b in elems] for a in elems]
    return FiniteSemigroup._of(table, identity=next(
        a for a in range(len(table)) if table[a][a] == a))


def _semidirect(ns, n_op, ks, k_op, act):
    """N x| K on the pairs (n, k), listed n-major, where k acts on N as
    act(k, -): (n, k)(n2, k2) = (n act(k, n2), k k2)."""
    def op(a, b):
        (n, k), (n2, k2) = a, b
        return (n_op(n, act(k, n2)), k_op(k, k2))

    return _table_group([(n, k) for n in ns for k in ks], op)


def _add_mod(m):
    return lambda a, b: (a + b) % m


def _table_op(G):
    return lambda a, b: G.table[a][b]


def _square(p):
    """C_p x C_p: its pairs (u, v), listed u-major, and its operation."""
    return ([(u, v) for u in range(p) for v in range(p)],
            lambda a, b: ((a[0] + b[0]) % p, (a[1] + b[1]) % p))


def semidirect_cyclic(m, k, r):
    """C_m x| C_k where the C_k generator acts on C_m as multiplication by r."""
    if pow(r, k, m) != 1 % m:
        raise ValueError(f"{r}^{k} is not 1 mod {m}")
    return _semidirect(range(m), _add_mod(m), range(k), _add_mod(k),
                       lambda j, i: i * pow(r, j, m))


def dihedral_group(n):
    """Symmetries of the n-gon, order 2n."""
    return semidirect_cyclic(n, 2, n - 1)


def dicyclic_group(q):
    """Order 4q: a^(2q)=1, b^2=a^q, b a b^-1 = a^-1.  q=2 is the quaternions."""
    if q < 2:
        raise ValueError("dicyclic needs q >= 2")
    m = 2 * q

    def op(a, b):
        (i, j), (i2, j2) = a, b
        if j == 0:
            return ((i + i2) % m, j2)
        if j2 == 0:
            return ((i - i2) % m, 1)
        return ((i - i2 + q) % m, 0)

    return _table_group([(i, j) for i in range(m) for j in range(2)], op)


def _closure_group(gens, compose):
    """Group generated by `gens` under `compose`, its elements in the
    breadth-first order of right multiplication by the generators: the
    order of the table, which is printed in witnesses."""
    return _table_group(
        reachable(gens, lambda a: [compose(a, g) for g in gens]), compose)


def _perm_compose(f, g):
    return tuple(f[q] for q in g)


def symmetric_group(k):
    if k == 1:
        return cyclic_group(1)
    cycle = tuple(list(range(1, k)) + [0])
    swap = tuple([1, 0] + list(range(2, k)))
    return _closure_group([swap, cycle], _perm_compose)


def alternating_group():
    """A4: the even permutations of four points."""
    return _closure_group([(1, 2, 0, 3), (1, 0, 3, 2)], _perm_compose)


def special_linear_2_3():
    """SL(2,3): determinant-one 2x2 matrices over the field with 3 elements."""
    def mul(a, b):
        (a11, a12, a21, a22), (b11, b12, b21, b22) = a, b
        return ((a11 * b11 + a12 * b21) % 3, (a11 * b12 + a12 * b22) % 3,
                (a21 * b11 + a22 * b21) % 3, (a21 * b12 + a22 * b22) % 3)

    return _closure_group([(1, 1, 0, 1), (0, 2, 1, 0)], mul)


def pauli_group():
    """Order 16: closure of the Pauli matrices X, Z and the scalar iI."""
    def cmul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def mul(a, b):
        (a11, a12, a21, a22), (b11, b12, b21, b22) = a, b
        add = lambda u, v: (u[0] + v[0], u[1] + v[1])
        return (add(cmul(a11, b11), cmul(a12, b21)),
                add(cmul(a11, b12), cmul(a12, b22)),
                add(cmul(a21, b11), cmul(a22, b21)),
                add(cmul(a21, b12), cmul(a22, b22)))

    one, zero, i = (1, 0), (0, 0), (0, 1)
    x = (zero, one, one, zero)
    z = (one, zero, zero, (-1, 0))
    ii = (i, zero, zero, i)
    return _closure_group([x, z, ii], mul)


def _prod(*groups):
    return reduce(FiniteSemigroup.direct_product, groups)


# the catalogue, by order and the cyclic group first at each order
_NAMES = """
    C1 C2 C3 C4 C2xC2 C5 C6 S3 C7
    C8 C4xC2 C2xC2xC2 D4 Q8
    C9 C3xC3 C10 D5 C11
    C12 C6xC2 D6 A4 Dic3
    C13 C14 D7 C15
    C16 C8xC2 C4xC4 C4xC2xC2 C2^4 D8 SD16 M16 Q16 D4xC2 Q8xC2 C4:C4
    V:C4 Pauli16
    C17 C18 C6xC3 D9 S3xC3 DihC3xC3
    C19 C20 C10xC2 D10 Dic5 F20
    C21 C7:C3 C22 D11 C23
    C24 C12xC2 C6xC2xC2 S4 SL23 A4xC2 D12 Dic6 C3:C8 S3xC4 S3xC2xC2 D4xC3
    Q8xC3 Dic3xC2 C3:D4
""".split()

_BUILDERS = {
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
    "A4": alternating_group,
    "SL23": special_linear_2_3,
    "Pauli16": pauli_group,
    "Q8": lambda: dicyclic_group(2),
    "Q16": lambda: dicyclic_group(4),
    "Dic3": lambda: dicyclic_group(3),
    "Dic5": lambda: dicyclic_group(5),
    "Dic6": lambda: dicyclic_group(6),
    "SD16": lambda: semidirect_cyclic(8, 2, 3),
    "M16": lambda: semidirect_cyclic(8, 2, 5),
    "C4:C4": lambda: semidirect_cyclic(4, 4, 3),
    "F20": lambda: semidirect_cyclic(5, 4, 2),
    "C7:C3": lambda: semidirect_cyclic(7, 3, 2),
    "C3:C8": lambda: semidirect_cyclic(3, 8, 2),
    # C4's generator swaps the two coordinates of C2 x C2
    "V:C4": lambda: _semidirect(
        *_square(2), range(4), _add_mod(4),
        lambda j, v: v[::-1] if j % 2 else v),
    # the involution inverts both coordinates of C3 x C3
    "DihC3xC3": lambda: _semidirect(
        *_square(3), range(2), _add_mod(2),
        lambda j, v: (-v[0], -v[1]) if j else v),
    # D4's element 2i + j is r^i s^j; its odd rotations invert C3
    "C3:D4": lambda: _semidirect(
        range(3), _add_mod(3), range(8), _table_op(dihedral_group(4)),
        lambda d, c: -c if d // 2 % 2 else c),
    "C2^4": lambda: _prod(*[cyclic_group(2)] * 4),
}


def all_groups_up_to_24():
    """The 74 isomorphism classes of groups of order <= 24, as (name, group)."""
    global _CATALOG
    if _CATALOG is None:
        @cache
        def group(name):
            """The group of a name in _BUILDERS or without an x."""
            if name in _BUILDERS:
                return _BUILDERS[name]()
            make = cyclic_group if name[0] == "C" else dihedral_group
            return make(int(name[1:]))

        entries = []
        for name in _NAMES:
            factors = [name] if name in _BUILDERS else name.split("x")
            entries.append((name, _prod(*map(group, factors))))
        _CATALOG = entries
    return _CATALOG
