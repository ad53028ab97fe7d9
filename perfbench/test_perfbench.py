"""Tests of the benchmark's own checkers and a short end-to-end run.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each check accepts today's correct output of the program and rejects a
corrupted copy of it.
"""

import copy
import itertools
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import gen  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

RUNNER = worker.Runner()


def program_output(op):
    return RUNNER.attempt(op)[1]


def rejected(op, out):
    return check.classify(op, out).startswith("wrong")


class SynCheck(unittest.TestCase):
    regex = "(ab)+|b*a"

    def setUp(self):
        ts = ref.TransitionSemigroup(ref.regex_min_dfa(self.regex))
        self.op = gen.syn_op(self.regex, ts)
        self.out = program_output(self.op)
        self.lines = self.out["out"].split("\n")

    def corrupted(self, lines):
        return dict(self.out, out="\n".join(lines))

    def test_accepts_program_output(self):
        self.assertEqual(check.classify(self.op, self.out), "ok")

    def test_rejects_swapped_table_entry(self):
        lines = list(self.lines)
        row = lines[4].split()          # label | e1 e2 ...
        row[2], row[3] = row[3], row[2]
        self.assertNotEqual(row, lines[4].split())
        lines[4] = " ".join(row)
        self.assertTrue(rejected(self.op, self.corrupted(lines)))

    def test_rejects_wrong_order_pair(self):
        lines = list(self.lines)
        k = lines.index("syntactic order") + 1
        a, _, b = lines[k].split()
        lines[k] = "  %s <= %s" % (b, a)
        self.assertTrue(rejected(self.op, self.corrupted(lines)))

    def test_rejects_swapped_class_entries(self):
        lines = list(self.lines)
        k = lines.index("classes") + 1
        head1, entry1 = lines[k].split(" = ")
        head2, entry2 = lines[k + 1].split(" = ")
        lines[k], lines[k + 1] = head1 + " = " + entry2, head2 + " = " + entry1
        self.assertTrue(rejected(self.op, self.corrupted(lines)))

    def test_paper_language_class_count(self):
        regex, n = gen.SYN_PAPER[1]
        ts = ref.TransitionSemigroup(ref.regex_min_dfa(regex))
        op = gen.syn_op(regex, ts, n)
        self.assertEqual(check.classify(op, program_output(op)), "ok")
        op["ref"]["order"] = n + 1
        self.assertTrue(rejected(op, program_output(op)))


class VerifyCheck(unittest.TestCase):
    def test_accepts_pass_and_rejects_fail(self):
        op = {"kind": "cli", "args": ["verify-paper", "--section", "5"],
              "ref": {"type": "verify"}}
        out = program_output(op)
        self.assertEqual(check.classify(op, out), "ok")
        bad = dict(out, out=out["out"].replace("  PASS", "  FAIL", 1))
        self.assertTrue(rejected(op, bad))


class JplusReduceCheck(unittest.TestCase):
    def test_accepts_program_output_and_rejects_wrong_image(self):
        to_ab = str.maketrans("xy", "ab")
        for op in gen.jplus_reduce(3)[:8]:
            out = program_output(op)
            self.assertEqual(check.classify(op, out), "ok")
            ts = op["ref"]["ts"]
            image = ts.action_of(out["v"].translate(to_ab))
            words = ("".join(w) for n in range(1, 8)
                     for w in itertools.product("xy", repeat=n))
            other = next(w for w in words
                         if ts.action_of(w.translate(to_ab)) != image)
            self.assertIn("does not have the image",
                          check.classify(op, dict(out, v=other)))

    def test_rejects_u_that_is_not_a_subword(self):
        # on a one-state automaton every word has the same image, so only
        # the subword condition can fail
        ts = ref.TransitionSemigroup(
            ref.minimal_dfa(ref.Automaton("ab", [[0, 0]], [0])))
        u, v = ref.parse_term("x y"), ref.parse_term("x y x")
        op = {"kind": "jplus", "ref": {"type": "jplus-reduce", "ts": ts,
                                       "u": u, "v": v}}
        self.assertIn("scattered subword",
                      check.classify(op, {"u": "yx", "v": "xy"}))

    def test_rejects_u_as_long_as_the_monoid(self):
        ts = ref.TransitionSemigroup(
            ref.minimal_dfa(ref.Automaton("ab", [[0, 0]], [0])))
        u = v = ref.parse_term("x")
        op = {"kind": "jplus", "ref": {"type": "jplus-reduce", "ts": ts,
                                       "u": u, "v": v}}
        self.assertIn("letters", check.classify(op, {"u": "x", "v": "x"}))


class SearchCheck(unittest.TestCase):
    def setUp(self):
        ops = [op for op in gen.identities(1) if op["kind"] == "search"]
        RUNNER.build_search_triples(ops)
        self.plain = next(op for op in ops if op["args"]["offsets"] == [0])
        self.minus = next(op for op in ops
                          if op["args"]["offsets"] == [0, -1])

    def test_accepts_program_output(self):
        for op in (self.plain, self.minus):
            self.assertEqual(check.classify(op, program_output(op)), "ok")

    def test_rejects_pairs_that_do_not_solve(self):
        pair = program_output(self.minus)["pair"]
        self.assertTrue(rejected(self.plain, {"pair": pair}))
        self.assertTrue(rejected(self.minus, {"pair": pair[::-1]}))
        self.assertTrue(rejected(self.minus, {"pair": None}))
        # right images, different commutative exponents
        self.assertTrue(rejected(self.minus, {"pair": [
            "y (x y^2)^(w-1)", "x x y x"]}))


class IdentityCheck(unittest.TestCase):
    def op(self, variety, lhs, rhs, verdict=None):
        return gen.check_op(variety, ref.parse_term(lhs), ref.parse_term(rhs),
                            verdict, ref.cr_pool())

    def witness_out(self, op):
        out = program_output(op)
        self.assertEqual(check.classify(op, out), "ok")
        return out, json.loads(out["out"])

    def test_rejects_witness_that_does_not_separate(self):
        for variety, lhs, rhs in (("com", "x y^w", "x y^(w+1)"),
                                  ("g", "x y", "y x"),
                                  ("cr:3", "x y", "y x")):
            op = self.op(variety, lhs, rhs)
            out, result = self.witness_out(op)
            w = result["witness"]
            same = dict(w, assignment={ch: w["assignment"]["x"]
                                       for ch in w["assignment"]})
            a, b = ref.separates(w["table"], same["assignment"],
                                 ref.parse_term(lhs), ref.parse_term(rhs))
            same.update(lhs_value=a, rhs_value=b)
            for bad in (same, dict(w, rhs_value=w["lhs_value"])):
                result2 = dict(result, witness=bad)
                self.assertTrue(rejected(
                    op, dict(out, out=json.dumps(result2))), variety)

    def test_rejects_witness_outside_the_variety(self):
        op = self.op("g", "x y", "y x")
        out, result = self.witness_out(op)
        w = copy.deepcopy(result["witness"])
        w["table"][0][0], w["table"][0][1] = w["table"][0][1], w["table"][0][0]
        result["witness"] = w
        self.assertTrue(rejected(op, dict(out, out=json.dumps(result))))

    def test_rejects_wrong_verdict(self):
        op = self.op("ab", "x y x^(w-1)", "y", True)
        out = program_output(op)
        self.assertEqual(check.classify(op, out), "ok")
        result = json.loads(out["out"])
        result["verdict"] = False
        self.assertTrue(rejected(op, {"rc": 1, "out": json.dumps(result)}))

    def test_enum_counts(self):
        n, identity, count = gen.ENUM_OPS[1]
        op = {"kind": "cli", "args": ["enum", str(n), "--identity", identity],
              "ref": {"type": "enum", "count": count}}
        out = program_output(op)
        self.assertEqual(check.classify(op, out), "ok")
        self.assertTrue(rejected(op, dict(out, out="%d\n" % (count + 1))))

    def test_unreadable_output_is_wrong_not_a_crash(self):
        op = self.op("g", "x y", "y x")
        for bad in ({"rc": 2, "out": ""}, {"rc": 1, "out": "{}"}):
            self.assertTrue(rejected(op, bad))
        self.assertTrue(rejected(gen._faulty_ops()[2], {"rc": 2, "out": ""}))

    def test_kept_faults_count_as_failed(self):
        for op in gen._faulty_ops() + [gen.jplus_op(*gen.JPLUS_FAULTY)]:
            self.assertEqual(check.classify(op, program_output(op)),
                             "failed")
        mended = {"rc": 0, "out": json.dumps({"verdict": True,
                                              "witness": None})}
        self.assertEqual(check.classify(gen._faulty_ops()[2], mended), "ok")


class Generation(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in gen.WORKLOADS.values():
            self.assertEqual([op["args"] for op in make(5)],
                             [op["args"] for op in make(5)])

    def test_pool_make_up_does_not_depend_on_the_seed(self):
        for make in gen.WORKLOADS.values():
            a, b = make(1), make(2)
            self.assertEqual(len(a), len(b))
            self.assertEqual(sum("fault" in op for op in a),
                             sum("fault" in op for op in b))
            self.assertNotEqual([op["args"] for op in a],
                                [op["args"] for op in b])


class EndToEnd(unittest.TestCase):
    def test_traced_counts_repeat(self):
        counts = []
        for _ in range(2):
            res = run.measure("jplus-reduce", 4, 0, 1, ROOT, short=True)
            self.assertTrue(res["correct"])
            counts.append({k: v["value"] for k, v in res["metrics"].items()
                           if v["unit"] == "count"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["semigroup.constructed"], 0)

    def test_short_mode_with_another_seed(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--short",
             "--seed", "7"], cwd=ROOT, capture_output=True, text=True,
            timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(json.loads(proc.stdout.splitlines()[-1])["correct"])


if __name__ == "__main__":
    unittest.main()
