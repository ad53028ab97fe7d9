"""Identity decision procedures for the varieties with finite normal forms
(abelian groups, commutative semigroups, groups, subword-ordered monoids)
plus an enumeration-backed sampler for completely regular semigroups.

Abelian groups (ab), commutative semigroups (com) and groups (g) are
decided by `terms.normal_form`, whose steps are defined once per variety
in `terms.VARIETY_STEPS`; `check_identity` pairs each of the three with
its pool of separating structures."""

from .enumeration import enumerate_semigroups
from .errors import ParseError, SizeTooLarge
from .groups_catalog import all_groups_up_to_24
from .semigroup import FiniteSemigroup, GeneratorMap
from .terms import (
    FinitePower,
    _expand,
    _postorder,
    eval_term,
    find_identity_failure,
    normal_form,
    parse_term,
    term_alphabet,
)
from .words import scattered_subword

_CR_CACHE = {}


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


def cr_sample_satisfies(u, v, bound=4):
    """Necessary-condition sampler: does u = v hold in every completely
    regular semigroup of order <= bound under every assignment?"""
    return cr_witness(u, v, bound) is None


def cr_witness(u, v, bound=4):
    for S in cr_semigroups(bound):
        bad = find_identity_failure(S, u, v)
        if bad is not None:
            return _semigroup_witness(S, bad, u, v)
    return None


def ab_witness(u, v):
    """A separating abelian group among the cyclic groups of order <= 12."""
    alphabet = sorted(term_alphabet(u) | term_alphabet(v))
    for m in range(2, 13):
        G = FiniteSemigroup.cyclic(1, m)
        witness = _single_letter_witness(G, alphabet, u, v)
        if witness is not None:
            return witness
    return None


def com_witness(u, v):
    """A separating commutative monoid among monogenic-with-identity
    C(i,p)^1 for i, p <= 7, one letter at the generator."""
    alphabet = sorted(term_alphabet(u) | term_alphabet(v))
    for i in range(1, 8):
        for p in range(1, 8):
            S = FiniteSemigroup.cyclic(i, p).with_identity_adjoined()
            witness = _single_letter_witness(S, alphabet, u, v)
            if witness is not None:
                return witness
    return None


def _single_letter_witness(S, alphabet, u, v):
    """Try assignments sending one letter to the generator and the rest to
    the identity; S must be monogenic-with-identity (generator element 0)."""
    for ch in alphabet:
        assignment = {b: S.identity for b in alphabet}
        assignment[ch] = 0
        g = GeneratorMap(S, assignment)
        lhs, rhs = eval_term(S, g, u), eval_term(S, g, v)
        if lhs != rhs:
            return _semigroup_witness(S, assignment, u, v)
    return None


def g_witness(u, v):
    """A separating group from the order-<=24 catalog, smallest first."""
    for name, G in all_groups_up_to_24():
        bad = find_identity_failure(G, u, v)
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
        try:
            bound = int(variety.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad bound in variety tag {variety!r}")
        u, v = parse_term(lhs), parse_term(rhs)
        result["witness"] = cr_witness(u, v, bound)
        result["verdict"] = result["witness"] is None
    else:
        raise ValueError(f"unknown variety {variety!r}")
    return {k: result[k] for k in ("variety", "lhs", "rhs", "verdict",
                                   "witness")}
