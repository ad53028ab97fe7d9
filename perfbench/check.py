"""Checks of the program's outputs against ref.py.

`classify(op, out)` returns "ok", "failed" (an operation kept for a known
fault, and the fault showed) or a string starting with "wrong:" that says
what is wrong.  Every check here runs outside the timed region.
"""

import itertools
import json
import random
import re

import ref

CLASS_WORD_LENGTH = 8          # every word up to this length is tried
CLASS_RANDOM_WORDS = 100       # plus this many random words of 9..24 letters


class Wrong(Exception):
    pass


def expect(cond, what, *args):
    if not cond:
        raise Wrong(what % args if args else what)


def classify(op, out):
    try:
        if shows_fault(op.get("fault"), out):
            return "failed"
        expect("error" not in out, "raised %s: %s", out.get("error"),
               out.get("message"))
        CHECKS[op["ref"]["type"]](op, out)
    except Wrong as exc:
        return "wrong: %s" % exc
    except (ValueError, LookupError, TypeError, re.error) as exc:
        # output the checks cannot read, such as JSON that does not parse
        return "wrong: unreadable output (%s: %s)" % (type(exc).__name__,
                                                      exc)
    return "ok"


def shows_fault(fault, out):
    """Did a kept operation fail in the way its known fault makes it?"""
    if fault == "RecursionError":
        return out.get("error") == "RecursionError"
    if fault and fault.startswith("empty u'"):
        return out.get("u") == ""
    if fault and "out" in out:
        return json.loads(out["out"])["verdict"] is False
    return False


# ---------------------------------------------------------------------------
# syn and verify-paper


def class_entries(lines, labels):
    """Parse the `classes` section into one matcher per class."""
    expect(len(lines) == len(labels), "%d class lines for %d classes",
           len(lines), len(labels))
    matchers = []
    for line, label in zip(lines, labels):
        head = "  [%s] = " % label
        expect(line.startswith(head), "class line %r", line[:60])
        entry = line[len(head):]
        if entry.startswith("{"):
            expect(entry.endswith("}"), "unterminated word set %r", entry)
            words = frozenset(w for w in entry[1:-1].split(", ") if w)
            matchers.append(words.__contains__)
        else:
            matchers.append(re.compile(entry).fullmatch)
    return matchers


def sample_words(ts, rng):
    alphabet = ts.dfa.alphabet
    words = ["".join(w) for n in range(1, CLASS_WORD_LENGTH + 1)
             for w in itertools.product(alphabet, repeat=n)]
    words += ts.labels
    words += ["".join(rng.choice(alphabet) for _ in range(rng.randint(9, 24)))
              for _ in range(CLASS_RANDOM_WORDS)]
    return words


def check_syn(op, out):
    ts = op["ref"]["ts"]
    expect(out["rc"] == 0, "exit code %r", out["rc"])
    text = out["out"]
    if op["ref"]["order"] is not None:
        expect(text.startswith("order %d\n" % op["ref"]["order"]),
               "expected %d classes", op["ref"]["order"])
    head = ref.render_syn_head(ts)
    lines = text.rstrip("\n").split("\n")
    for k, (got, want) in enumerate(zip(lines, head)):
        expect(got == want, "line %d is %r, expected %r", k + 1, got[:80],
               want[:80])
    matchers = class_entries(lines[len(head):], ts.labels)
    # every tried word lies in its own class's entry and in no other one
    for word in sample_words(ts, random.Random(op["args"][1])):
        own = ts.class_of(word)
        hits = [e for e, match in enumerate(matchers) if match(word)]
        expect(hits == [own], "word %r is in the entries of %s, expected "
               "only [%s]", word, [ts.labels[e] for e in hits],
               ts.labels[own])


def check_verify(op, out):
    expect(out["rc"] == 0, "exit code %r", out["rc"])
    lines = out["out"].rstrip("\n").split("\n")
    section = op["args"][-1]
    checks = lines[1:-1]
    expect(lines[0] == "section %s" % section, "header %r", lines[0])
    expect(checks and all(ln.startswith("  PASS ") for ln in checks),
           "a check did not pass")
    expect(lines[-1] == "section %s overall: PASS (%d checks)"
           % (section, len(checks)), "summary %r", lines[-1])


# ---------------------------------------------------------------------------
# jplus-reduce and the bounded search


def check_jplus_reduce(op, out):
    ts, u, v = op["ref"]["ts"], op["ref"]["u"], op["ref"]["v"]
    assign = {"x": ts.letters[0], "y": ts.letters[1]}
    to_dfa_letters = str.maketrans("xy", "ab")
    for name, term in (("u", u), ("v", v)):
        got = ts.action_of(out[name].translate(to_dfa_letters))
        expect(got == ref.evaluate(term, assign, ref.compose),
               "%s' = %r does not have the image of %s", name, out[name],
               ref.format_term(term))
    it = iter(out["v"])
    expect(all(ch in it for ch in out["u"]),
           "u' = %r is not a scattered subword of v' = %r", out["u"],
           out["v"])
    expect(len(out["u"]) < ts.monoid_order(),
           "u' has %d letters, the syntactic monoid %d elements",
           len(out["u"]), ts.monoid_order())


def check_search(op, out):
    pair = out["pair"]
    if op["ref"]["offsets"] == (0,):
        expect(pair is None, "plain omega search found %r", pair)
        return
    expect(pair is not None, "omega-1 search found nothing")
    ts = op["ref"]["ts"]
    assign = {"x": ts.letters[0], "y": ts.letters[1]}
    u, v = (ref.parse_term(t) for t in pair)
    for term, target in ((u, op["ref"]["u"]), (v, op["ref"]["v"])):
        expect(ref.evaluate(term, assign, ref.compose)
               == ref.evaluate(target, assign, ref.compose),
               "%s does not evaluate to the image of %s",
               ref.format_term(term), ref.format_term(target))
    expect(ref.com_image(u) == ref.com_image(v),
           "%s and %s have different commutative exponents", *pair)


# ---------------------------------------------------------------------------
# identities


def reference_verdict(variety, lhs, rhs, pool):
    """True, False, or None where the benchmark cannot decide."""
    if variety == "ab":
        return ref.ab_image(lhs) == ref.ab_image(rhs)
    if variety == "com":
        return ref.com_image(lhs) == ref.com_image(rhs)
    if variety == "g":
        return ref.free_group_image(lhs) == ref.free_group_image(rhs)
    bound = int(variety.split(":")[1])
    if any(not ref.identity_holds(t, lhs, rhs) for t in pool
           if len(t) <= bound):
        return False
    # the pool holds every completely regular semigroup of order <= 3
    return True if bound <= 3 else None


IN_VARIETY = {
    "ab": lambda t: ref.is_group(t) and ref.is_commutative(t),
    "com": ref.is_commutative,
    "g": ref.is_group,
}


def check_witness(variety, lhs, rhs, w):
    table = w["table"]
    expect(len(table) == w["order"], "witness order %r", w["order"])
    expect(ref.is_associative(table), "witness table is not associative")
    if variety.startswith("cr:"):
        expect(w["order"] <= int(variety[3:]) and
               ref.is_completely_regular(table),
               "witness is not completely regular of order <= %s",
               variety[3:])
    else:
        expect(IN_VARIETY[variety](table), "witness is not in %s", variety)
    letters = ref.variables(lhs) | ref.variables(rhs)
    expect(set(w["assignment"]) >= letters, "witness assigns %r",
           w["assignment"])
    a, b = ref.separates(table, w["assignment"], lhs, rhs)
    expect((a, b) == (w["lhs_value"], w["rhs_value"]),
           "witness values %r, evaluated %r",
           (w["lhs_value"], w["rhs_value"]), (a, b))
    expect(a != b, "witness does not separate")


def check_identity(op, out):
    r = op["ref"]
    result = json.loads(out["out"])
    verdict = result["verdict"]
    expect(out["rc"] == (0 if verdict else 1), "exit code %r", out["rc"])
    expect((result["lhs"], result["rhs"]) == (op["args"][4], op["args"][6]),
           "echoed terms differ")
    mine = reference_verdict(r["variety"], r["lhs"], r["rhs"],
                            r.get("pool"))
    for known in (mine, r["verdict"]):
        expect(known is None or verdict == known, "verdict %r, expected %r",
               verdict, known)
    if verdict:
        expect(result["witness"] is None, "witness for a true verdict")
    elif result["witness"] is not None:
        check_witness(r["variety"], r["lhs"], r["rhs"], result["witness"])


def check_jplus(op, out):
    result = json.loads(out["out"])
    r = op["ref"]
    if "lhs" in r:
        it = iter(r["rhs"])
        want = all(ch in it for ch in r["lhs"])
    else:
        want = r["verdict"]
    expect(result["verdict"] == want, "verdict %r, expected %r",
           result["verdict"], want)
    expect(out["rc"] == (0 if want else 1), "exit code %r", out["rc"])


def check_enum(op, out):
    expect(out["rc"] == 0, "exit code %r", out["rc"])
    expect(out["out"] == "%d\n" % op["ref"]["count"], "counted %r, OEIS %d",
           out["out"], op["ref"]["count"])


CHECKS = {
    "syn": check_syn,
    "verify": check_verify,
    "jplus-reduce": check_jplus_reduce,
    "search": check_search,
    "check": check_identity,
    "jplus": check_jplus,
    "enum": check_enum,
}
