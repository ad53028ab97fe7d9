"""Command-line front door.

Subcommands: `syn` renders a syntactic semigroup, `eval` evaluates a term
in one, `check` decides an identity over a variety, `reduce jplus` turns a
term solution into a word solution, `enum` counts semigroups up to
isomorphism, and `verify-paper` runs the built-in verification suites.
Identical invocations produce byte-identical output.  Exit codes: 0 on
success, 1 on a failed verification or false verdict, 2 on usage or parse
errors.  A closed stdout pipe exits with 1 and prints nothing more.
"""

import argparse
import json
import os
import sys

from .enumeration import enumerate_semigroups
from .errors import NotASolution, OmsemiError, SubwordObstruction
from .reducibility import (
    jplus_word_solution,
    syntactic_solution_triple,
    verify_com_counterexample,
    verify_cr_counterexample,
    verify_groups_counterexample,
)
from .semigroup import GeneratorMap, green_classes
from .syntactic import syntactic_semigroup
from .terms import eval_term, identity_failures, parse_term, term_alphabet
from .varieties import check_identity


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="omsemi",
        description="finite semigroups, syntactic presentations, and "
                    "omega-term identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("syn", help="syntactic semigroup of a regex")
    p.add_argument("regex")
    p.add_argument("--order", action="store_true",
                   help="also print the syntactic order")
    p.add_argument("--green", action="store_true",
                   help="also print Green's classes")
    p.add_argument("--classes", action="store_true",
                   help="also print each class as a word list or regex")
    p.set_defaults(run=_cmd_syn)

    p = sub.add_parser("eval", help="evaluate a term in a syntactic "
                                    "semigroup")
    p.add_argument("--regex", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--map", default=None,
                   help="term letter assignment, e.g. x=a,y=b "
                        "(default: each letter names itself)")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("check", help="decide an identity over a variety")
    p.add_argument("--variety", required=True,
                   help="ab | com | g | jplus | cr:N (N = 1..5)")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--leq", action="store_true",
                   help="decide lhs <= rhs instead (jplus only)")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("reduce", help="turn a term solution into a word "
                                      "solution")
    p.add_argument("relation", choices=["jplus"])
    p.add_argument("--regex", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("enum", help="count semigroups of a given order up "
                                    "to isomorphism")
    p.add_argument("n", type=int, help="the order, 1..6")
    p.add_argument("--identity", default=None,
                   help="count only semigroups satisfying this identity, "
                        "e.g. 'x y = y x'")
    p.set_defaults(run=_cmd_enum)

    p = sub.add_parser("verify-paper",
                       help="run the built-in verification suites")
    p.add_argument("--section", choices=["4", "5", "6", "all"],
                   default="all")
    p.add_argument("--cr-bound", type=int, choices=[4, 5], default=4,
                   dest="cr_bound",
                   help="order bound of the completely regular sample")
    p.add_argument("--json", default=None, dest="json_path", metavar="FILE",
                   help="write the JSON report to FILE ('-' for stdout)")
    p.set_defaults(run=_cmd_verify_paper)
    return parser


def _render_presentation(sp, show_order, show_green, show_classes):
    """The lines of `syn`'s output, one at a time."""
    S = sp.semigroup
    labels = sp.words
    width = max(len(x) for x in labels)

    padded = [x.rjust(width) for x in labels]
    yield "order %d" % S.n
    yield "table"
    yield " " * width + " | " + " ".join(padded)
    for label, row in zip(padded, S.table):
        yield label + " | " + " ".join(map(padded.__getitem__, row))
    if show_order:
        yield "syntactic order"
        for i, j in sorted(sp.syntactic_order()):
            if i != j:
                yield "  %s <= %s" % (labels[i], labels[j])
    if show_green:
        greens = green_classes(S)
        for name, part in (("R", greens.r), ("L", greens.l),
                           ("J", greens.j), ("H", greens.h)):
            yield "%s-classes" % name
            for cls in part:
                yield "  " + " ".join(labels[e] for e in cls)
    if show_classes:
        yield "classes"
        for e in range(S.n):
            words = sp.finite_class_words(e)
            if words is not None:
                yield "  [%s] = {%s}" % (labels[e], ", ".join(words))
            else:
                yield "  [%s] = %s" % (labels[e], sp.class_expression(e))


def _cmd_syn(args):
    sp = syntactic_semigroup(args.regex)
    # one write per line: the output is never held whole
    write = sys.stdout.write
    for line in _render_presentation(sp, args.order, args.green,
                                     args.classes):
        write(line + "\n")
    return 0


def _parse_map(text):
    mapping = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise ValueError("bad map entry %r, expected letter=word"
                             % piece)
        k, v = (part.strip() for part in piece.split("=", 1))
        if len(k) != 1 or not v:
            raise ValueError("bad map entry %r, expected letter=word"
                             % piece)
        mapping[k] = v
    return mapping


def _cmd_eval(args):
    sp = syntactic_semigroup(args.regex)
    t = parse_term(args.term)
    if args.map is not None:
        mapping = _parse_map(args.map)
    else:
        mapping = {ch: ch for ch in term_alphabet(t)}
    assignment = {tl: sp.classof(w) for tl, w in sorted(mapping.items())}
    g = GeneratorMap(sp.semigroup, assignment)
    e = eval_term(sp.semigroup, g, t)
    print("class %d [%s]" % (e, sp.words[e]))
    return 0


def _cmd_check(args):
    result = check_identity(args.variety, args.lhs, args.rhs, leq=args.leq)
    print(json.dumps(result, indent=2))
    return 0 if result["verdict"] else 1


def _cmd_reduce(args):
    u, v = parse_term(args.u), parse_term(args.v)
    letters = sorted(term_alphabet(u) | term_alphabet(v))
    triple = syntactic_solution_triple(args.regex,
                                       {ch: ch for ch in letters},
                                       u, v, mode="inequality")
    wu, wv = jplus_word_solution(triple, u, v)
    print("u' = %s" % (wu or "(empty)"))
    print("v' = %s" % (wv or "(empty)"))
    return 0


def _cmd_enum(args):
    found = enumerate_semigroups(args.n)
    if args.identity is not None:
        if "=" not in args.identity:
            raise ValueError("identity must have the form 'LHS = RHS'")
        lhs, rhs = map(parse_term, args.identity.split("=", 1))
        found = (bad for bad in identity_failures(found, lhs, rhs)
                 if bad is None)
    print(sum(1 for _ in found))
    return 0


_VERIFIERS = {
    "4": lambda args: verify_com_counterexample(),
    "5": lambda args: verify_groups_counterexample(),
    "6": lambda args: verify_cr_counterexample(bound=args.cr_bound),
}


def _cmd_verify_paper(args):
    sections = ["4", "5", "6"] if args.section == "all" else [args.section]
    reports = [_VERIFIERS[s](args) for s in sections]
    ok = all(r.passed for r in reports)
    if args.section == "all":
        payload = [r.to_json_dict() for r in reports]
    else:
        payload = reports[0].to_json_dict()
    if args.json_path == "-":
        print(json.dumps(payload, indent=2))
    else:
        text = "\n\n".join(r.render_text() for r in reports)
        if len(reports) > 1:
            text += "\noverall: %s" % ("PASS" if ok else "FAIL")
        print(text)
        if args.json_path:
            with open(args.json_path, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
    return 0 if ok else 1


_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: stdout goes to devnull, so that the flush
        # at exit does not raise again (Python's signal docs, "Note on
        # SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (NotASolution, SubwordObstruction) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OmsemiError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
