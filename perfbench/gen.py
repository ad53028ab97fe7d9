"""Seeded inputs of the three workloads.

Each workload is a pool of operations that one round runs once.  A pool
has a fixed make-up: a fixed number of operations of each kind and, for
the seeded ones, of each size band, where the size is measured by the
benchmark's own reference code (ref.py).  The seed chooses the instances,
never how many there are, so every seed gives a round of comparable cost
and the same number of operations.

An operation is a dict.  The keys "kind" and "args" are all the worker
passes to omsemi; "ref" stays in the parent process for the checks, and
"fault" names the known fault of an operation kept although it fails.
"""

import random

import ref

SYN_PAPER = [("(aabaab)*|(abbabb)*", 41), ("aaaa*bb*aa", 16),
             ("aabaab(aab)+(abb)+aabaab", 117)]

# Size bands: (lowest, highest) size and how many instances.  The bands
# are narrow, and their counts put the median and the 90th percentile of
# the operations' times inside one band each, away from its edges, so
# that the seed moves them little.  Pools hold at least 100 operations.
# syn-render: classes of the random thin regexes
SYN_BANDS = [((3, 12), 26), ((24, 27), 44), ((44, 52), 11), ((72, 78), 12),
             ((110, 118), 2)]
# jplus-reduce: order of the transition semigroup of the random DFA; an
# instance is kept only if its syntactic order has at most that many
# strict pairs, since the order-stability check grows with their square
JPLUS_BANDS = [((4, 14), 36), ((22, 26), 30), ((40, 46), 20),
               ((64, 70), 12), ((100, 106), 3)]

VARIETIES = ["ab", "com", "g", "cr:3", "cr:4"]
PAIRS_PER_VARIETY = 6          # holding pairs; as many unrelated ones
JPLUS_PAIRS = 4
FREE_GROUP_POWERS = 7          # holding pairs; as many failing ones
TERM_SIZE = (5, 9)             # syntax-tree nodes of a random identity side
SEARCH_BOUNDS = (8, 9, 10)
SEARCH_OFFSETS = ((0,), (0, -1))

COM_LANGUAGE = "(aabaab)*|(abbabb)*"
COM_U = "y (x y^2)^(w-1)"
COM_V = "(x^2 y)^(w-1) x"

PAPER_IDENTITIES = [
    ("ab", "y (x y^2)^(w-1)", "(x^2 y)^(w-1) x"),
    ("com", "y (x y^2)^(w-1)", "(x^2 y)^(w-1) x"),
    ("g", "x^(w-1) y^w x^2", "x"),
    ("cr:4", "(x^2 y)^(w-1) (x y^2)^w (x^2 y)^2", "x^2 y"),
    ("cr:4", "(y x) (y^2 x)^w", "y x"),
]

# Kept although it fails today: the transition semigroup of this DFA has
# a two-sided identity, [bbb], that is not the action of the empty word,
# and jplus_word_solution returns u' = "" for u = (y^w)^w
JPLUS_FAULTY = ([[3, 1], [1, 3], [3, 1], [1, 2]], [0, 1, 3], "(y^w)^w",
                "y y x (y^w)^w y", "empty u' for a semigroup identity")

# enum n [--identity] with counts from OEIS A027851 and A001426
ENUM_OPS = [(3, None, 24), (3, "x y = y x", 12), (4, None, 188),
            (4, "x y = y x", 58)]


def _faulty_ops():
    """Operations kept although they fail today; inputs never depend on
    the seed, so every round fails the same ones."""
    ab_long = "x y " * 600
    com_long = "x y y " * 666 + "x y"
    return [
        {"kind": "cli", "fault": "RecursionError",
         "args": ["check", "--variety", "ab", "--lhs", ab_long,
                  "--rhs", "y x " * 600],
         "ref": {"type": "check", "variety": "ab",
                 "lhs": ref.parse_term(ab_long),
                 "rhs": ref.parse_term("y x " * 600), "verdict": True}},
        {"kind": "cli", "fault": "RecursionError",
         "args": ["check", "--variety", "com", "--lhs", com_long,
                  "--rhs", com_long[::-1]],
         "ref": {"type": "check", "variety": "com",
                 "lhs": ref.parse_term(com_long),
                 "rhs": ref.parse_term(com_long[::-1]), "verdict": True}},
        {"kind": "cli", "fault": "jplus term syntax read as letters",
         "args": ["check", "--variety", "jplus", "--leq",
                  "--lhs", "a^2", "--rhs", "aa"],
         "ref": {"type": "jplus", "verdict": True}},
        {"kind": "cli", "fault": "jplus term syntax read as letters",
         "args": ["check", "--variety", "jplus", "--leq",
                  "--lhs", "a b", "--rhs", "ab"],
         "ref": {"type": "jplus", "verdict": True}},
    ]


def _word(rng, letters, lo, hi):
    return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


# ---------------------------------------------------------------------------
# syn-render


def _thin_block(rng):
    k = rng.random()
    if k < 0.35:
        return _word(rng, "ab", 1, 3)
    if k < 0.6:
        return "(%s)*" % _word(rng, "ab", 2, 3)
    if k < 0.85:
        return "(%s)+" % _word(rng, "ab", 2, 3)
    return "(%s|%s)" % (_word(rng, "ab", 1, 3), _word(rng, "ab", 1, 3))


def thin_regex(rng):
    """Concatenations, unions, + and * of short words over {a, b}."""
    r = "".join(_thin_block(rng) for _ in range(rng.randint(2, 5)))
    if rng.random() < 0.25:
        r += "|" + "".join(_thin_block(rng) for _ in range(rng.randint(1, 3)))
    return r


def syn_op(regex, ts, expected_order=None):
    return {"kind": "cli",
            "args": ["syn", regex, "--order", "--green", "--classes"],
            "ref": {"type": "syn", "ts": ts, "order": expected_order}}


def syn_render(seed):
    rng = random.Random("syn-render:%d" % seed)
    ops = [syn_op(r, ref.TransitionSemigroup(ref.regex_min_dfa(r)), n)
           for r, n in SYN_PAPER]
    ops += [{"kind": "cli", "args": ["verify-paper", "--section", s],
             "ref": {"type": "verify"}} for s in "456"]
    want = {band: count for band, count in SYN_BANDS}
    top = max(hi for (lo, hi), _ in SYN_BANDS)
    while any(want.values()):
        r = thin_regex(rng)
        if ref.letters_of(r) != ("a", "b"):
            continue
        try:
            ts = ref.TransitionSemigroup(ref.regex_min_dfa(r), limit=top)
        except OverflowError:
            continue
        band = next((b for b, left in want.items()
                     if left and b[0] <= ts.n <= b[1]), None)
        if band is not None:
            want[band] -= 1
            ops.append(syn_op(r, ts))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# jplus-reduce


def random_term(rng, letters, depth=2):
    """A product of one to three letters, short words and omega powers with
    offsets in {-1, 0, 1}."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        k = rng.random()
        if k < 0.4 or depth == 0:
            parts.append(ref.letter(rng.choice(letters)))
        elif k < 0.55:
            parts.append(ref.word(_word(rng, letters, 2, 3)))
        else:
            parts.append(("W", random_term(rng, letters, depth - 1),
                          rng.choice((0, 0, 1, -1))))
    return ref.concat(*parts)


def sized_term(rng, letters):
    """A random term whose size lies in TERM_SIZE, so that the cost of
    evaluating it under every assignment stays in a narrow band."""
    while True:
        t = random_term(rng, letters)
        if TERM_SIZE[0] <= ref.term_size(t) <= TERM_SIZE[1]:
            return t


def superterm(rng, u):
    """u with short words interleaved into its top-level factors, so that
    u <= v holds in J+."""
    out = []
    for p in (u[1] if u[0] == "C" else (u,)):
        if rng.random() < 0.5:
            out.append(ref.word(_word(rng, "xy", 1, 3)))
        out.append(p)
    if rng.random() < 0.5:
        out.append(ref.word(_word(rng, "xy", 1, 3)))
    return ref.concat(*out)


def jplus_reduce(seed):
    rng = random.Random("jplus-reduce:%d" % seed)
    want = {band: count for band, count in JPLUS_BANDS}
    top = max(hi for (lo, hi), _ in JPLUS_BANDS)
    ops = []
    while any(want.values()):
        n = rng.randint(2, 6)
        trans = [[rng.randrange(n) for _ in "ab"] for _ in range(n)]
        accepting = sorted(q for q in range(n) if rng.random() < 0.5)
        d = ref.minimal_dfa(ref.Automaton("ab", trans, accepting))
        try:
            ts = ref.TransitionSemigroup(d, limit=top)
        except OverflowError:
            continue
        band = next((b for b, left in want.items()
                     if left and b[0] <= ts.n <= b[1]), None)
        if band is None or len(ts.syntactic_order()) > ts.n:
            continue
        if (ts.identity_element() is not None
                and ts.monoid_order() != ts.n):
            # a semigroup identity that the empty word does not act as;
            # JPLUS_FAULTY keeps one such instance on a fixed input
            continue
        want[band] -= 1
        u = random_term(rng, "xy")
        ops.append(jplus_op(trans, accepting, ref.format_term(u),
                            ref.format_term(superterm(rng, u))))
    ops.append(jplus_op(*JPLUS_FAULTY))
    rng.shuffle(ops)
    return ops


def jplus_op(trans, accepting, u, v, fault=None):
    u, v = ref.parse_term(u), ref.parse_term(v)
    ts = ref.TransitionSemigroup(
        ref.minimal_dfa(ref.Automaton("ab", trans, accepting)))
    op = {"kind": "jplus",
          "args": {"trans": trans, "accepting": accepting,
                   "u": ref.format_term(u), "v": ref.format_term(v)},
          "ref": {"type": "jplus-reduce", "ts": ts, "u": u, "v": v}}
    if fault:
        op["fault"] = fault
    return op


# ---------------------------------------------------------------------------
# identities


def _top_factors(t):
    return list(t[1]) if t[0] == "C" else [t]


def holding_rewrite(rng, variety, t):
    """A term equal to t in the variety, by one or two rewrites valid
    there: commuting factors (ab, com), inserting s s^(w-1) (ab, g),
    s -> s^(w+1) (ab, g, cr), and s^(w+k) -> s^(w+k-1) s (all)."""
    moves = ["split"]
    if variety in ("ab", "com"):
        moves.append("commute")
    if variety in ("ab", "g"):
        moves.append("cancel")
    if variety in ("ab", "g") or variety.startswith("cr"):
        moves.append("collapse")
    out = _top_factors(t)
    for _ in range(rng.randint(1, 2)):
        move = rng.choice(moves)
        if move == "commute" and len(out) > 1:
            i = rng.randrange(len(out) - 1)
            out[i], out[i + 1] = out[i + 1], out[i]
        elif move == "cancel":
            s = random_term(rng, "xyz", 1)
            out.insert(rng.randrange(len(out) + 1),
                       ref.concat(s, ("W", s, -1)))
        elif move == "collapse":
            i = rng.randrange(len(out))
            out[i] = ("W", out[i], 1)
        else:
            powers = [i for i, f in enumerate(out)
                      if f[0] == "W" and f[2] >= 0]
            if powers:
                i = rng.choice(powers)
                base, k = out[i][1], out[i][2]
                out[i:i + 1] = [("W", base, k - 1), base]
        out = _top_factors(ref.concat(*out))
    return ref.concat(*out)


def check_op(variety, lhs, rhs, verdict, pool=None):
    return {"kind": "cli",
            "args": ["check", "--variety", variety,
                     "--lhs", ref.format_term(lhs),
                     "--rhs", ref.format_term(rhs)],
            "ref": {"type": "check", "variety": variety, "lhs": lhs,
                    "rhs": rhs, "verdict": verdict, "pool": pool}}


def identities(seed):
    rng = random.Random("identities:%d" % seed)
    pool = ref.cr_pool()
    ops = []
    for variety in VARIETIES:
        for _ in range(PAIRS_PER_VARIETY):
            lhs = sized_term(rng, "xyz")
            ops.append(check_op(variety, lhs,
                                holding_rewrite(rng, variety, lhs), True,
                                pool))
            ops.append(check_op(variety, sized_term(rng, "xyz"),
                                sized_term(rng, "xyz"), None, pool))
    for _ in range(JPLUS_PAIRS):
        v = _word(rng, "abc", 6, 12)
        u = "".join(ch for ch in v if rng.random() < 0.6) or v[0]
        other = _word(rng, "abc", 3, 8)
        for lhs, rhs in ((u, v), (other, v)):
            ops.append({"kind": "cli",
                        "args": ["check", "--variety", "jplus", "--leq",
                                 "--lhs", lhs, "--rhs", rhs],
                        "ref": {"type": "jplus", "lhs": lhs, "rhs": rhs}})
    for _ in range(FREE_GROUP_POWERS):
        k = rng.randint(975, 1000)
        lhs = ref.parse_term("(x y x^(w-1))^%d" % k)
        ops.append(check_op("g", lhs, ref.parse_term("x y^%d x^(w-1)" % k),
                            True))
        ops.append(check_op("g", lhs,
                            ref.parse_term("x y^%d x^(w-1)" % (k + 1)),
                            False))
    for variety, lhs, rhs in PAPER_IDENTITIES:
        ops.append(check_op(variety, ref.parse_term(lhs), ref.parse_term(rhs),
                            True, pool))
    for n, identity, count in ENUM_OPS:
        args = ["enum", str(n)] + (["--identity", identity] if identity
                                   else [])
        ops.append({"kind": "cli", "args": args,
                    "ref": {"type": "enum", "count": count}})
    search_ts = ref.TransitionSemigroup(ref.regex_min_dfa(COM_LANGUAGE))
    for bound in SEARCH_BOUNDS:
        for offsets in SEARCH_OFFSETS:
            ops.append({"kind": "search",
                        "args": {"instance": [COM_LANGUAGE, COM_U, COM_V],
                                 "bound": bound, "offsets": list(offsets)},
                        "ref": {"type": "search", "offsets": offsets,
                                "ts": search_ts, "u": ref.parse_term(COM_U),
                                "v": ref.parse_term(COM_V)}})
    ops += _faulty_ops()
    rng.shuffle(ops)
    return ops


WORKLOADS = {"syn-render": syn_render, "jplus-reduce": jplus_reduce,
             "identities": identities}
