"""Every group of order at most 24, built by explicit construction.

The catalog is the fixed witness pool for free-group identity checks: 74
pairwise non-isomorphic groups assembled from cyclic pieces, direct and
semidirect products, dicyclic presentations, permutation closures, and two
matrix groups.

The permutation and matrix groups are breadth-first closures under right
multiplication by the generators (``omsemi.graphs.reachable``).  The order
in which a closure finds the elements is the order of the group's table,
and that table is printed in ``check --variety g`` witnesses.
"""

from functools import reduce

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


def _pair_group(ms, ks, op):
    """The group on the element list ms x ks under op."""
    return _table_group([(i, j) for i in ms for j in ks], op)


def semidirect_cyclic(m, k, r):
    """C_m x| C_k where the C_k generator acts on C_m as multiplication by r."""
    if pow(r, k, m) != 1 % m:
        raise ValueError(f"{r}^{k} is not 1 mod {m}")

    def op(a, b):
        (i, j), (i2, j2) = a, b
        return ((i + i2 * pow(r, j, m)) % m, (j + j2) % k)

    return _pair_group(range(m), range(k), op)


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

    return _pair_group(range(m), range(2), op)


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


def _mat_compose_mod(p):
    def mul(a, b):
        (a11, a12, a21, a22), (b11, b12, b21, b22) = a, b
        return ((a11 * b11 + a12 * b21) % p, (a11 * b12 + a12 * b22) % p,
                (a21 * b11 + a22 * b21) % p, (a21 * b12 + a22 * b22) % p)
    return mul


def special_linear_2_3():
    """SL(2,3): determinant-one 2x2 matrices over the field with 3 elements."""
    return _closure_group([(1, 1, 0, 1), (0, 2, 1, 0)], _mat_compose_mod(3))


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


def klein_semidirect_c4():
    """(C2 x C2) x| C4 with the C4 generator swapping the two coordinates."""
    def op(a, b):
        ((u, v), j), ((u2, v2), j2) = a, b
        if j % 2:
            u2, v2 = v2, u2
        return (((u + u2) % 2, (v + v2) % 2), (j + j2) % 4)

    pairs = [(u, v) for u in range(2) for v in range(2)]
    return _pair_group(pairs, range(4), op)


def generalized_dihedral_c3c3():
    """(C3 x C3) x| C2 with the involution inverting both coordinates."""
    def op(a, b):
        ((u, v), j), ((u2, v2), j2) = a, b
        if j:
            u2, v2 = -u2, -v2
        return (((u + u2) % 3, (v + v2) % 3), (j + j2) % 2)

    pairs = [(u, v) for u in range(3) for v in range(3)]
    return _pair_group(pairs, range(2), op)


def c3_semidirect_d4():
    """C3 x| D4 where a rotation inverts C3 and reflections fix it."""
    def d4(d, d2):
        (i, j), (i2, j2) = d, d2
        if j % 2:
            i2 = -i2
        return ((i + i2) % 4, (j + j2) % 2)

    def op(a, b):
        (c, d), (c2, d2) = a, b
        if d[0] % 2:
            c2 = -c2
        return ((c + c2) % 3, d4(d, d2))

    flags = [(i, j) for i in range(4) for j in range(2)]
    return _pair_group(range(3), flags, op)


def _prod(*groups):
    return reduce(FiniteSemigroup.direct_product, groups)


def all_groups_up_to_24():
    """The 74 isomorphism classes of groups of order <= 24, as (name, group)."""
    global _CATALOG
    if _CATALOG is not None:
        return _CATALOG
    C = cyclic_group
    entries = []
    for n in range(1, 25):
        entries.append((f"C{n}", C(n)))
        if n == 4:
            entries.append(("C2xC2", _prod(C(2), C(2))))
        elif n == 6:
            entries.append(("S3", symmetric_group(3)))
        elif n == 8:
            entries.append(("C4xC2", _prod(C(4), C(2))))
            entries.append(("C2xC2xC2", _prod(C(2), C(2), C(2))))
            entries.append(("D4", dihedral_group(4)))
            entries.append(("Q8", dicyclic_group(2)))
        elif n == 9:
            entries.append(("C3xC3", _prod(C(3), C(3))))
        elif n == 10:
            entries.append(("D5", dihedral_group(5)))
        elif n == 12:
            entries.append(("C6xC2", _prod(C(6), C(2))))
            entries.append(("D6", dihedral_group(6)))
            entries.append(("A4", alternating_group()))
            entries.append(("Dic3", dicyclic_group(3)))
        elif n == 14:
            entries.append(("D7", dihedral_group(7)))
        elif n == 16:
            entries.append(("C8xC2", _prod(C(8), C(2))))
            entries.append(("C4xC4", _prod(C(4), C(4))))
            entries.append(("C4xC2xC2", _prod(C(4), C(2), C(2))))
            entries.append(("C2^4", _prod(C(2), C(2), C(2), C(2))))
            entries.append(("D8", dihedral_group(8)))
            entries.append(("SD16", semidirect_cyclic(8, 2, 3)))
            entries.append(("M16", semidirect_cyclic(8, 2, 5)))
            entries.append(("Q16", dicyclic_group(4)))
            entries.append(("D4xC2", _prod(dihedral_group(4), C(2))))
            entries.append(("Q8xC2", _prod(dicyclic_group(2), C(2))))
            entries.append(("C4:C4", semidirect_cyclic(4, 4, 3)))
            entries.append(("V:C4", klein_semidirect_c4()))
            entries.append(("Pauli16", pauli_group()))
        elif n == 18:
            entries.append(("C6xC3", _prod(C(6), C(3))))
            entries.append(("D9", dihedral_group(9)))
            entries.append(("S3xC3", _prod(symmetric_group(3), C(3))))
            entries.append(("DihC3xC3", generalized_dihedral_c3c3()))
        elif n == 20:
            entries.append(("C10xC2", _prod(C(10), C(2))))
            entries.append(("D10", dihedral_group(10)))
            entries.append(("Dic5", dicyclic_group(5)))
            entries.append(("F20", semidirect_cyclic(5, 4, 2)))
        elif n == 21:
            entries.append(("C7:C3", semidirect_cyclic(7, 3, 2)))
        elif n == 22:
            entries.append(("D11", dihedral_group(11)))
        elif n == 24:
            entries.append(("C12xC2", _prod(C(12), C(2))))
            entries.append(("C6xC2xC2", _prod(C(6), C(2), C(2))))
            entries.append(("S4", symmetric_group(4)))
            entries.append(("SL23", special_linear_2_3()))
            entries.append(("A4xC2", _prod(alternating_group(), C(2))))
            entries.append(("D12", dihedral_group(12)))
            entries.append(("Dic6", dicyclic_group(6)))
            entries.append(("C3:C8", semidirect_cyclic(3, 8, 2)))
            entries.append(("S3xC4", _prod(symmetric_group(3), C(4))))
            entries.append(("S3xC2xC2", _prod(symmetric_group(3), C(2), C(2))))
            entries.append(("D4xC3", _prod(dihedral_group(4), C(3))))
            entries.append(("Q8xC3", _prod(dicyclic_group(2), C(3))))
            entries.append(("Dic3xC2", _prod(dicyclic_group(3), C(2))))
            entries.append(("C3:D4", c3_semidirect_d4()))
    _CATALOG = entries
    return entries
