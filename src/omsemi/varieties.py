"""Identity decision procedures for the varieties with finite normal forms
(abelian groups, commutative semigroups, groups, subword-ordered monoids)
plus the completely regular semigroups up to a bound on the order.

Abelian groups (ab), commutative semigroups (com) and groups (g) are
decided by `terms.normal_form`, whose steps are defined once per variety
in `terms.VARIETY_STEPS`; `check_identity` pairs each of the three with
its pool of separating structures.

The completely regular sample of order <= N is enumerated, and an
identity is decided on its core (`cr_core`): the few subdirectly
irreducible members that embed in no other.  An identity that fails in
some member fails in one of them."""

from itertools import combinations, permutations

from .enumeration import enumerate_semigroups
from .errors import ParseError, SizeTooLarge
from .groups_catalog import all_groups_up_to_24
from .semigroup import FiniteSemigroup, GeneratorMap
from .terms import (
    FinitePower,
    _expand,
    _postorder,
    eval_term,
    identity_failures,
    normal_form,
    parse_term,
    term_alphabet,
)
from .words import scattered_subword

_CR_CACHE = {}
_CORE_CACHE = {}


def ab_satisfies(u, v):
    """Equality over all finite abelian groups."""
    return normal_form("ab", u) == normal_form("ab", v)


def com_satisfies(u, v):
    """Equality over all finite commutative semigroups."""
    return normal_form("com", u) == normal_form("com", v)


def g_satisfies(u, v):
    """Equality over all finite groups, via free-group word reduction."""
    return normal_form("g", u) == normal_form("g", v)


def jplus_leq(u, v):
    """u <= v over subword-ordered monoids: every scattered subword of u is
    one of v, which for words just means u embeds in v."""
    return scattered_subword(u, v)


def _jplus_word(text):
    """The word a jplus side spells out.  The side is parsed as a term, so
    ``a^2`` is ``aa`` and spaces only separate letters; omega powers have
    no word, and a side containing one raises ParseError."""

    def repeats(node):
        if type(node) is not FinitePower:
            raise ParseError("jplus sides are words, but %r has an omega "
                             "power" % text)
        return node.m

    return _expand(_postorder(parse_term(text)), repeats)


def cr_semigroups(bound):
    """All semigroups of order <= bound satisfying x^(w+1) = x, cached."""
    if not 1 <= bound <= 5:
        raise SizeTooLarge(f"completely regular sample bound must be 1..5, "
                           f"got {bound}")
    if bound not in _CR_CACHE:
        found = []
        for n in range(1, bound + 1):
            for S in enumerate_semigroups(n):
                if all(S.omega_plus_k(s, 1) == s for s in range(S.n)):
                    found.append(S)
        _CR_CACHE[bound] = found
    return _CR_CACHE[bound]


def cr_core(bound):
    """The core of cr_semigroups(bound), computed once per bound: the
    subdirectly irreducible members that are not isomorphic to a proper
    subsemigroup of another subdirectly irreducible member, in pool order.

    An identity holds in every member iff it holds in the core.  A finite
    semigroup is a subdirect product of its subdirectly irreducible
    quotients (Birkhoff, "Subdirect unions in universal algebra", Bull.
    AMS 1944), omega-identities pass to quotients, subsemigroups and finite
    products (Almeida, "Finite Semigroups and Universal Algebra", 1994),
    and the pool holds every quotient and subsemigroup of its members up
    to isomorphism.  So a failure in a member is a failure in one of its
    subdirectly irreducible quotients, and so in a core member that holds
    a copy of it.  Pool tables are their class's least relabelling in
    row-major order, so a subsemigroup is matched by its own least
    relabelling."""
    if bound not in _CORE_CACHE:
        irreducible = [S for S in cr_semigroups(bound)
                       if _subdirectly_irreducible(S.table)]
        embedded = set()
        for S in irreducible:
            embedded |= _proper_subsemigroup_tables(S.table)
        _CORE_CACHE[bound] = [S for S in irreducible
                              if tuple(map(tuple, S.table)) not in embedded]
    return _CORE_CACHE[bound]


def _subdirectly_irreducible(t):
    """Do the congruences other than equality meet in one other than
    equality?  Each of them holds a principal congruence theta(a, b) with
    a != b, so it is enough to meet those: two elements related in every
    one share their tuple of class labels."""
    n = len(t)
    labels = [_principal_congruence(t, a, b)
              for a, b in combinations(range(n), 2)]
    return n > 1 and len(set(zip(*labels))) < n


def _principal_congruence(t, a, b):
    """Each element's class label in theta(a, b), the least congruence
    relating a and b: merging two classes relates the left and right
    multiples of the pair that merged them."""
    label = list(range(len(t)))
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        old, new = label[x], label[y]
        if old != new:
            label = [new if c == old else c for c in label]
            pending += [(row[x], row[y]) for row in t]
            pending += zip(t[x], t[y])
    return label


def _proper_subsemigroup_tables(t):
    """The least relabelling, in row-major order, of every proper
    subsemigroup of t with at least two elements."""
    found = set()
    for k in range(2, len(t)):
        for sub in combinations(range(len(t)), k):
            if all(t[x][y] in sub for x in sub for y in sub):
                found.add(min(
                    tuple(tuple(rank[t[x][y]] for y in order)
                          for x in order)
                    for order in permutations(sub)
                    for rank in [{s: i for i, s in enumerate(order)}]))
    return found


def cr_sample_satisfies(u, v, bound=4):
    """Does u = v hold in every completely regular semigroup of order
    <= bound under every assignment?  Decided exactly on cr_core(bound)."""
    return cr_witness(u, v, bound) is None


def cr_witness(u, v, bound=4):
    """The first member of cr_semigroups(bound) in which u = v fails, as a
    witness with the first failing assignment there, or None when u = v
    holds in all of them.  The verdict is decided on cr_core(bound); only
    a failure goes on to the whole pool, so the witness does not depend
    on the core."""
    if all(bad is None for bad in identity_failures(cr_core(bound), u, v)):
        return None
    pool = cr_semigroups(bound)
    for S, bad in zip(pool, identity_failures(pool, u, v)):
        if bad is not None:
            return _semigroup_witness(S, bad, u, v)


def ab_witness(u, v):
    """The cyclic group C_m of least order m >= 2 that separates u and v,
    with one letter at its generator and the others at the identity.
    C_m separates them iff m does not divide some letter's exponent
    difference d, and m = |d| + 1 never does, so the moduli stop there;
    an ab-equal pair has no difference and gets None.  A prime-omega power
    raises UnsupportedPrimePower, as in ab_satisfies."""
    alphabet = sorted(term_alphabet(u) | term_alphabet(v))
    lhs, rhs = dict(normal_form("ab", u)), dict(normal_form("ab", v))
    gap = max(abs(lhs.get(ch, 0) - rhs.get(ch, 0)) for ch in alphabet)
    return _single_letter_witness(
        (FiniteSemigroup.cyclic(1, m) for m in range(2, gap + 2)),
        alphabet, u, v)


def com_witness(u, v):
    """A separating commutative monoid among monogenic-with-identity
    C(i,p)^1 for i, p <= 7, one letter at the generator."""
    return _single_letter_witness(
        (FiniteSemigroup.cyclic(i, p).with_identity_adjoined()
         for i in range(1, 8) for p in range(1, 8)),
        sorted(term_alphabet(u) | term_alphabet(v)), u, v)


def _single_letter_witness(pool, alphabet, u, v):
    """The first monoid of the pool, with its first assignment, that
    separates u and v when one letter goes to the generator and the rest
    to the identity, or None; each monoid is monogenic with an identity,
    and its generator is element 0."""
    for S in pool:
        for ch in alphabet:
            assignment = {b: S.identity for b in alphabet}
            assignment[ch] = 0
            g = GeneratorMap(S, assignment)
            if eval_term(S, g, u) != eval_term(S, g, v):
                return _semigroup_witness(S, assignment, u, v)
    return None


def g_witness(u, v):
    """A separating group from the order-<=24 catalog, smallest first."""
    catalog = all_groups_up_to_24()
    for (name, G), bad in zip(catalog, identity_failures(
            (G for _, G in catalog), u, v)):
        if bad is not None:
            witness = _semigroup_witness(G, bad, u, v)
            witness["group"] = name
            return witness
    return None


def _semigroup_witness(S, assignment, u, v):
    g = GeneratorMap(S, assignment)
    return {
        "order": S.n,
        "table": [list(row) for row in S.table],
        "assignment": {ch: assignment[ch] for ch in sorted(assignment)},
        "lhs_value": eval_term(S, g, u),
        "rhs_value": eval_term(S, g, v),
    }


# variety decided by its normal form -> its pool of separating structures
_WITNESSES = {"ab": ab_witness, "com": com_witness, "g": g_witness}


def check_identity(variety, lhs, rhs, leq=False):
    """Decide lhs = rhs (or lhs <= rhs for jplus) over the named variety.

    `variety` is one of ab | com | g | jplus | cr:N.  Returns a JSON-ready
    dict with the verdict and, when the verdict is false and the witness
    pools find one, a concrete separating structure."""
    if leq and variety != "jplus":
        raise ValueError("--leq only applies to the jplus variety")
    result = {"variety": variety, "lhs": lhs, "rhs": rhs}
    if variety in _WITNESSES:
        u, v = parse_term(lhs), parse_term(rhs)
        result["verdict"] = normal_form(variety, u) == normal_form(variety, v)
        result["witness"] = (None if result["verdict"]
                             else _WITNESSES[variety](u, v))
    elif variety == "jplus":
        u, v = _jplus_word(lhs), _jplus_word(rhs)
        # the witness is the first side that does not embed in the other
        pairs = [(u, v)] if leq else [(u, v), (v, u)]
        result["witness"] = next(({"obstruction_word": w} for w, x in pairs
                                  if not jplus_leq(w, x)), None)
        result["verdict"] = result["witness"] is None
    elif variety.startswith("cr:"):
        digits = variety[3:]
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad bound in variety tag {variety!r}")
        bound = int(digits)
        u, v = parse_term(lhs), parse_term(rhs)
        result["witness"] = cr_witness(u, v, bound)
        result["verdict"] = result["witness"] is None
    else:
        raise ValueError(f"unknown variety {variety!r}")
    return {k: result[k] for k in ("variety", "lhs", "rhs", "verdict",
                                   "witness")}
