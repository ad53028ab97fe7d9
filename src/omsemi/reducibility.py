"""Constructive word-solution algorithms over finite semigroups, a bounded
search for omega-term solutions, and three scripted verification suites
covering the commutative, group, and completely regular case studies."""

from collections import namedtuple

from .dfa import (
    compile_min_dfa,
    enumerate_accepted,
    has_common_word,
    languages_equal,
)
from .errors import (InternalError, MalformedTable, NotASolution,
                     SizeTooLarge, SubwordObstruction, Unreachable)
from .semigroup import GeneratorMap
from .syntactic import syntactic_semigroup
from .terms import (
    Concat,
    Letter,
    OmegaPower,
    VARIETY_STEPS,
    ab_image,
    eval_term,
    iterated_commutator,
    bounded_factors,
    parse_term,
    unrolling,
)
from .varieties import (
    com_satisfies,
    cr_sample_satisfies,
    g_satisfies,
)
from .words import count_occurrences, is_cube_free, ptm_iterate


class SolutionTriple(namedtuple("SolutionTriple", "S s t gens mode")):
    """An instance (S, s, t) of the single equation x = y (or x <= y).

    The mode names the equation.  An inequality instance needs no order on
    S: the J+ reduction reads only the table and the generator map."""

    __slots__ = ()

    def __new__(cls, S, s, t, gens, mode="equality"):
        if mode not in ("equality", "inequality"):
            raise ValueError("mode must be equality or inequality")
        for e in (s, t):
            if type(e) is not int or not 0 <= e < S.n:
                raise MalformedTable("s and t must be elements of S, not %r"
                                     % (e,))
        if gens.target is not S:
            raise ValueError("generator map must land in S")
        return super().__new__(cls, S, s, t, gens, mode)

    # namedtuple's _make, which _replace calls, would skip those checks
    _make = classmethod(lambda cls, fields: cls(*fields))


class Check(namedtuple("Check", "name expected computed")):
    __slots__ = ()

    @property
    def passed(self):
        return self.expected == self.computed


class VerificationReport:
    def __init__(self, section):
        self.section = section
        self.checks = []

    def add(self, name, expected, computed):
        self.checks.append(Check(name, expected, computed))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json_dict(self):
        # millis is pinned to zero so that identical runs serialize to
        # identical bytes
        return {
            "section": self.section,
            "checks": [{"name": c.name, "expected": c.expected,
                        "computed": c.computed, "pass": c.passed}
                       for c in self.checks],
            "pass": self.passed,
            "millis": 0,
        }

    def render_text(self):
        lines = [f"section {self.section}"]
        for c in self.checks:
            if c.passed:
                lines.append(f"  PASS {c.name}")
            else:
                lines.append(f"  FAIL {c.name}: expected {c.expected!r}, "
                             f"computed {c.computed!r}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"section {self.section} overall: {verdict} "
                     f"({len(self.checks)} checks)")
        return "\n".join(lines)


def _step(M, e, g):
    """e g in M, where e = None stands for the empty word outside M."""
    return g if e is None else M.table[e][g]


def simple_path_word(M, gens, target):
    """Shortest word reaching `target` from the empty word (M.identity, or
    a vertex outside M if that is None) in the right Cayley graph.

    The walk is breadth-first over a list that grows as nodes are found,
    and each node's word is recorded when the node is first found, so the
    first discovery fixes it.  The walk stops when the target comes up.
    The path is simple, so the word has length < |M^1|."""
    start = M.identity
    if target == start:
        return ""
    letters = sorted(gens.assignment)
    words = {start: ""}
    order = [start]
    for m in order:     # the list grows as nodes are found
        for ch in letters:
            nxt = _step(M, m, gens(ch))
            if nxt not in words:
                words[nxt] = words[m] + ch
                if nxt == target:
                    return words[nxt]
                order.append(nxt)
    raise Unreachable(f"element {target} is not a product of generators")


def loop_removal(w, M, gens):
    """Excise loops from the Cayley-graph path that w traces from the
    empty word (M.identity, or a vertex outside M when that is None).

    Output: a scattered subword of w with the same image whose path is
    simple, hence of length < |M^1|.  Loops are removed leftmost-innermost,
    which fixes one representative among the many valid ones.  Each vertex
    on the path keeps its position in a dict, so a step costs O(1)
    amortized and the whole run is linear in |w|."""
    stack = [M.identity]
    at = {M.identity: 0}
    kept = []
    for ch in w:
        nxt = _step(M, stack[-1], gens(ch))
        i = at.get(nxt)
        if i is None:
            at[nxt] = len(stack)
            stack.append(nxt)
            kept.append(ch)
        else:
            while len(stack) > i + 1:
                del at[stack.pop()]
            del kept[i:]
    return "".join(kept)


def _image_of(gens, word):
    """Image of a word; the empty word's is the identity, or None."""
    if word == "":
        return gens.target.identity
    return gens.image_of_word(word)


def jplus_word_solution(triple, u, v):
    """Turn a term solution of x <= y into a word solution u' <= v'.

    u' comes from loop removal on an unrolling of u.  One pass over an
    unrolling of v embeds u' greedily, leftmost first, and compresses
    every gap to the shortest word with the same image; a letter of u'
    not found raises SubwordObstruction.  Postconditions: image(u') = s,
    image(v') = t, and u' is a scattered subword of v'; the images are
    checked, and a broken one raises InternalError.

    Each term is folded once: the fold that fixes its unrolling also gives
    its value, which is checked against s or t before any word is spelt
    out, so a wrong triple raises NotASolution first."""
    if triple.mode != "inequality":
        raise ValueError("jplus_word_solution expects an inequality triple")
    S, gens = triple.S, triple.gens
    (s,), spell_u = unrolling(u, [(S, gens)])
    if s != triple.s:
        raise NotASolution("u does not evaluate to s")
    (t,), spell_v = unrolling(v, [(S, gens)])
    if t != triple.t:
        raise NotASolution("v does not evaluate to t")
    u_simple = loop_removal(spell_u(), S, gens)
    v_word = spell_v(pad=len(u_simple) + 1)
    parts = []
    start = 0
    for ch in u_simple:
        k = v_word.find(ch, start)
        if k < 0:
            raise SubwordObstruction(
                "the short form of u does not embed into the unrolling of "
                "v; the input pair is not a subword-order solution")
        parts.append(simple_path_word(S, gens,
                                      _image_of(gens, v_word[start:k])))
        parts.append(ch)
        start = k + 1
    parts.append(simple_path_word(S, gens, _image_of(gens, v_word[start:])))
    v_out = "".join(parts)
    if (_image_of(gens, u_simple), _image_of(gens, v_out)) != \
            (triple.s, triple.t):
        raise InternalError("the images of u' and v' are not s and t")
    return u_simple, v_out


def bounded_omega_solution_search(triple, variety, max_size, offsets=(0,)):
    """Bounded search for a term solution of x = y over the variety.

    Terms are built from letters, concatenation, and omega powers with the
    given offsets (plain omega signature: offsets=(0,)), up to `max_size`
    syntax-tree nodes, in a fixed deterministic order: by size, then powers
    for each offset, then concatenations by the size of the left factor.
    Returns the first valid pair (u, v) with eval(u) = s, eval(v) = t, and
    matching variety normal forms, or None.

    Only the first term of each class (value in S, normal form) is kept,
    and powers and concatenations are built from kept terms alone.  A
    candidate's class is combined from its children's: its value by the
    table or the cycle of its base's value, its normal form by the
    variety's steps in terms.VARIETY_STEPS, the ones terms.normal_form
    folds a whole term with.  Each kept term keeps its working form beside
    its frozen one, and a concatenation extends a copy of the left child's
    working form, so no kept form changes.  So a term's class depends only
    on its children's classes, and putting the first term of a child's
    class in place of the child gives a term of the same class that comes
    earlier: every first term is built from kept terms, and the pair
    returned is the one the search over all terms would return.  No
    candidate term is folded, and a candidate's term is built only when
    its class is new.  A non-integer bound or offset raises ValueError.
    Every candidate gets its normal form, so in g an offset large enough
    that some candidate's free group image passes terms.EXPANSION_CAP
    runs raises SizeTooLarge, whatever that candidate's value."""
    if variety not in VARIETY_STEPS:
        raise ValueError("variety must be one of ab, com, g")
    offsets = tuple(offsets)
    if type(max_size) is not int or \
            any(type(off) is not int for off in offsets):
        raise ValueError("term node bound and offsets must be integers")
    if not 1 <= max_size <= 12:
        raise SizeTooLarge("term node bound must be between 1 and 12")
    letter, concat, power, _, freeze = VARIETY_STEPS[variety]
    S, gens = triple.S, triple.gens
    table = S.table
    seen = set()
    # size -> the kept (term, value, working form, normal form) with that
    # many nodes
    by_size = {}

    def candidates(size):
        """(value, working form, node class, node arguments) of each
        candidate of the given size, in search order."""
        if size == 1:
            for ch in sorted(gens.assignment):
                yield gens(ch), letter(ch), Letter, (ch,)
            return
        for off in offsets:
            for base, val, form, _ in by_size[size - 1]:
                yield S.omega_plus_k(val, off), power(form, off, True), \
                    OmegaPower, (base, off)
        for lsize in range(1, size - 1):
            rights = by_size[size - 1 - lsize]
            for left, lval, lform, _ in by_size[lsize]:
                row = table[lval]
                for right, rval, rform, _ in rights:
                    yield row[rval], concat(lform.copy(), rform), Concat, \
                        (left, right)

    for size in range(1, max_size + 1):
        bucket = []
        for val, form, node, args in candidates(size):
            nf = freeze(form)
            # one hash of the class: it is new iff adding it grows seen
            known = len(seen)
            seen.add((val, nf))
            if len(seen) > known:
                bucket.append((node(*args), val, form, nf))
        by_size[size] = bucket

    kept = [entry for bucket in by_size.values() for entry in bucket]
    best_u = {nf: term for term, val, _, nf in kept if val == triple.s}
    for term, val, _, nf in kept:
        if val == triple.t and nf in best_u:
            return best_u[nf], term
    return None


def syntactic_solution_triple(regex, letter_map, u, v, mode="equality"):
    """The triple (S, eval(u), eval(v)) over the syntactic semigroup of
    `regex`, with term letters assigned to letter classes per letter_map.

    S is the presentation's semigroup in both modes; no syntactic order is
    built, since the J+ reduction does not read one."""
    sp = syntactic_semigroup(regex)
    S = sp.semigroup
    assignment = {tl: sp.classof(ll) for tl, ll in letter_map.items()}
    g = GeneratorMap(S, assignment)
    if isinstance(u, str):
        u = parse_term(u)
    if isinstance(v, str):
        v = parse_term(v)
    return SolutionTriple(S, eval_term(S, g, u), eval_term(S, g, v), g, mode)


def integer_exponent_system(head_u, loop_u, head_v, loop_v):
    """Solve head_u * loop_u^alpha = head_v * loop_v^beta over the integers,
    matching letter multiplicities; exact two-unknown linear algebra.

    Returns {"solution": (alpha, beta) or None, "unique": bool,
    "natural": bool}."""
    hu, lu = ab_image(head_u), ab_image(loop_u)
    hv, lv = ab_image(head_v), ab_image(loop_v)
    letters = sorted(set(hu) | set(lu) | set(hv) | set(lv))
    rows = [(lu.get(ch, 0), -lv.get(ch, 0), hv.get(ch, 0) - hu.get(ch, 0))
            for ch in letters]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a1, b1, c1 = rows[i]
            a2, b2, c2 = rows[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            num_a = c1 * b2 - c2 * b1
            num_b = a1 * c2 - a2 * c1
            if num_a % det or num_b % det:
                return {"solution": None, "unique": True, "natural": False}
            alpha, beta = num_a // det, num_b // det
            if any(a * alpha + b * beta != c for a, b, c in rows):
                return {"solution": None, "unique": True, "natural": False}
            return {"solution": (alpha, beta), "unique": True,
                    "natural": alpha >= 0 and beta >= 0}
    # rank below two: not the shape this helper is for
    return {"solution": None, "unique": False, "natural": False}


COM_LANGUAGE = "(aabaab)*|(abbabb)*"
GROUPS_LANGUAGE = "aaaa*bb*aa"
CR_LANGUAGE = "aabaab(aab)+(abb)+aabaab"


def verify_com_counterexample():
    """Reproduce the commutative-interval counterexample facts."""
    report = VerificationReport(section="4")
    sp = syntactic_semigroup(COM_LANGUAGE)
    S = sp.semigroup
    report.add("syntactic semigroup order", 41, S.n)

    s, t = sp.classof("babb"), sp.classof("aaba")
    report.add("class language of s is b a b^2 ((a b^2)^2)^*", True,
               languages_equal(sp.class_language(s),
                               compile_min_dfa("babb(abbabb)*", "ab")))
    report.add("class language of t is ((a^2 b)^2)^* a^2 b a", True,
               languages_equal(sp.class_language(t),
                               compile_min_dfa("(aabaab)*aaba", "ab")))

    ab2, a2b = sp.classof("abb"), sp.classof("aab")
    report.add("[a b^2]^(w-1) = [a b^2]", True,
               S.omega_plus_k(ab2, -1) == ab2)
    report.add("[a^2 b]^(w-1) = [a^2 b]", True,
               S.omega_plus_k(a2b, -1) == a2b)

    u = parse_term("y (x y^2)^(w-1)")
    v = parse_term("(x^2 y)^(w-1) x")
    gm = GeneratorMap(S, {"x": sp.classof("a"), "y": sp.classof("b")})
    report.add("u evaluates to s", True, eval_term(S, gm, u) == s)
    report.add("v evaluates to t", True, eval_term(S, gm, v) == t)
    report.add("u = v over commutative semigroups", True, com_satisfies(u, v))

    system = integer_exponent_system(
        parse_term("y x y^2"), parse_term("(x y^2)^2"),
        parse_term("x^2 y x"), parse_term("(x^2 y)^2"))
    report.add("unique integer solution of the exponent system", [-1, -1],
               list(system["solution"]) if system["solution"] else None)
    report.add("exponent system solvable over the naturals", False,
               system["natural"])
    return report


def verify_groups_counterexample():
    """Reproduce the group-interval counterexample facts."""
    report = VerificationReport(section="5")
    sp = syntactic_semigroup(GROUPS_LANGUAGE)
    S = sp.semigroup
    report.add("syntactic semigroup order", 16, S.n)

    a = sp.classof("a")
    report.add("class of a is the singleton {a}", ["a"],
               sp.finite_class_words(a))
    report.add("[a]^4 = [a]^3", True,
               sp.classof("aaaa") == sp.classof("aaa"))
    report.add("[b]^2 = [b]", True, sp.classof("bb") == sp.classof("b"))

    s = sp.classof("aaabaa")
    report.add("class language of s is a^3 a^* b b^* a^2", True,
               languages_equal(sp.class_language(s),
                               compile_min_dfa("aaaa*bb*aa", "ab")))

    u = parse_term("x^(w-1) y^w x^2")
    gm = GeneratorMap(S, {"x": sp.classof("a"), "y": sp.classof("b")})
    report.add("u evaluates to s", True, eval_term(S, gm, u) == s)
    report.add("x evaluates to [a]", True,
               eval_term(S, gm, parse_term("x")) == a)
    report.add("u = x over groups", True,
               g_satisfies(u, parse_term("x")))

    report.add("x^3 is a suffix of x^w", "xxx",
               bounded_factors(parse_term("x^w"), 3).suffix)
    fd = bounded_factors(iterated_commutator(2), 3)
    report.add("x y x and y x y are factors of the iterated commutator", True,
               "xyx" in fd.factors and "yxy" in fd.factors)

    report.add("class of s avoids the factor y x y", False,
               has_common_word(sp.class_language(s),
                               compile_min_dfa("(a|b)*bab(a|b)*", "ab")))
    return report


def verify_cr_counterexample(bound=4):
    """Reproduce the completely-regular-interval counterexample facts."""
    report = VerificationReport(section="6")
    sp = syntactic_semigroup(CR_LANGUAGE)
    S = sp.semigroup
    report.add("syntactic semigroup order", 117, S.n)

    a2b = sp.classof("aab")
    report.add("class of a^2 b is the singleton {a^2 b}", ["aab"],
               sp.finite_class_words(a2b))
    report.add("[a^2 b]^4 = [a^2 b]^3", True,
               sp.classof("aab" * 4) == sp.classof("aab" * 3))
    report.add("[a b^2]^2 = [a b^2]", True,
               sp.classof("abbabb") == sp.classof("abb"))

    words = enumerate_accepted(sp.dfa, 30)
    report.add("every language word up to length 30 has exactly one b^2 a^2",
               True,
               bool(words) and all(count_occurrences(w, "bbaa") == 1
                                   for w in words))

    u = parse_term("(x^2 y)^(w-1) (x y^2)^w (x^2 y)^2")
    v = parse_term("x^2 y")
    gm = GeneratorMap(S, {"x": sp.classof("a"), "y": sp.classof("b")})
    s = sp.classof("aab" * 3 + "abb" + "aab" * 2)
    report.add("u evaluates to s = [(a^2 b)^3 (a b^2)(a^2 b)^2]", True,
               eval_term(S, gm, u) == s)
    report.add("v evaluates to t = [a^2 b]", True,
               eval_term(S, gm, v) == a2b)

    report.add(f"main identity holds in completely regular samples <= {bound}",
               True, cr_sample_satisfies(u, v, bound))
    absorbs = cr_sample_satisfies(parse_term("(y x) (y^2 x)^w"),
                                  parse_term("y x"), bound)
    report.add(f"q p (q^2 p)^w = q p in completely regular samples <= {bound}",
               True, absorbs)
    # a L b in a completely regular semigroup iff a b^w = a and b a^w = b
    # (Petrich & Reilly, "Completely Regular Semigroups", 1999)
    report.add("q p and q^2 p are L-equivalent in completely regular "
               f"samples <= {bound}", True,
               absorbs and cr_sample_satisfies(parse_term("(y^2 x) (y x)^w"),
                                               parse_term("y^2 x"), bound))

    tm12 = ptm_iterate(12)
    report.add("iterate 12 of the Thue-Morse morphism is cube-free", True,
               is_cube_free(tm12))
    tm5 = ptm_iterate(5)
    report.add("x y x and y x y occur in iterate 5", True,
               "xyx" in tm5 and "yxy" in tm5)
    return report
