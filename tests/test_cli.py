"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys

import pytest


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "omsemi.cli", *argv],
                          capture_output=True, text=True)


def test_syn_renders_order_and_table():
    r = run_cli("syn", "b*ab*")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "order 3"
    assert lines[1] == "table"
    assert len(lines) == 2 + 1 + 3  # header row plus one row per element


def test_syn_optional_sections():
    r = run_cli("syn", "b*ab*", "--order", "--green", "--classes")
    assert r.returncode == 0
    out = r.stdout
    assert "syntactic order" in out
    assert "R-classes" in out
    assert "H-classes" in out
    assert "  [b] = bb*" in out


def test_syn_singleton_class_listing():
    r = run_cli("syn", "aaa+b+aa", "--classes")
    assert r.returncode == 0
    assert "  [a] = {a}" in r.stdout


def test_syn_equivalent_regexes_render_identically():
    # same language, different spellings: the minimal DFA is canonical, so
    # the full rendering must match byte for byte
    r1 = run_cli("syn", "aaa+b+aa", "--order", "--green", "--classes")
    r2 = run_cli("syn", "aaaa*bb*aa", "--order", "--green", "--classes")
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


# sha256 of the full rendering, pinned so that a change to minimisation,
# class languages or their regexes cannot move a byte unnoticed
@pytest.mark.parametrize("regex,digest", [
    ("(aabaab)*|(abbabb)*",
     "42bd4e0d19b54633a5fce559274abb74e0cdb9fcdc8bed99cd3ea2646f65258b"),
    ("aaaa*bb*aa",
     "fc7f051a413631c8fe43a1b72fb638b7740fa725999c732cf28ff3680c691fde"),
    ("aabaab(aab)+(abb)+aabaab",
     "2d242051a19460149a6ebd3ce62500ec85fa78b021eb7e639c4ec10170c219d3"),
    ("b*ab*",
     "ed566fd223c49991a133aa49353b280e991f3523f3ab2121d958853ce1ce3f2f"),
    ("(ab)*",
     "f8a37a0513b8529cf3807d0855cb0513e1c6756d1c9a610a152a099f2ea7c3cd"),
    # every class but [ba] has at most one solution t of st = e for each s
    ("(aaaaaaaaaa)*b",
     "b991c34d1ed23db3f76a7b3186985d8a80088df6fc3c4c636f38caf85d8c9bed"),
])
def test_syn_full_rendering_is_pinned(regex, digest):
    r = run_cli("syn", regex, "--order", "--green", "--classes")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def test_syn_parse_error_exits_2():
    r = run_cli("syn", "(")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_eval_reports_class():
    r = run_cli("eval", "--regex", "b*ab*", "--term", "a b a")
    assert r.returncode == 0
    assert r.stdout == "class 2 [aa]\n"


def test_eval_with_letter_map():
    r = run_cli("eval", "--regex", "(aabaab)*|(abbabb)*",
                "--term", "y (x y^2)^(w-1)", "--map", "x=a,y=b")
    assert r.returncode == 0
    assert r.stdout == "class 17 [babb]\n"


def test_eval_bad_term_exits_2():
    r = run_cli("eval", "--regex", "b*ab*", "--term", "x^(w")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


def test_eval_bad_map_exits_2():
    r = run_cli("eval", "--regex", "b*ab*", "--term", "x", "--map", "xy=a")
    assert r.returncode == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--regex", "b*ab*", "--term", "x", "--map", "x=c"],
    ["reduce", "jplus", "--regex", "b*ab*", "--u", "x", "--v", "x"],
], ids=["eval", "reduce"])
def test_letter_outside_alphabet_exits_2(argv):
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stderr.startswith("error: letter ")


WORD, REVERSED = "xy" * 1000, "yx" * 1000
NESTED = "(" * 1200 + "a" + ")" * 1200
SQUARES = "x" + "^2" * 30     # 2^30 letters once expanded


@pytest.mark.parametrize("argv, code", [
    (["check", "--variety", "ab", "--lhs", WORD, "--rhs", REVERSED], 0),
    (["check", "--variety", "com", "--lhs", WORD, "--rhs", REVERSED], 0),
    (["check", "--variety", "g", "--lhs", WORD, "--rhs", REVERSED], 1),
    (["check", "--variety", "jplus", "--lhs", WORD, "--rhs", REVERSED], 1),
    (["eval", "--regex", "b*ab*", "--term", " ".join("x" * 1200),
      "--map", "x=a"], 0),
    (["syn", "a*" * 1500, "--classes"], 0),
    (["syn", NESTED], 2),
    (["eval", "--regex", "b*ab*", "--term", NESTED], 2),
    (["check", "--variety", "g", "--lhs", SQUARES, "--rhs", "x"], 2),
    (["check", "--variety", "jplus", "--leq", "--lhs", "x",
      "--rhs", SQUARES], 2),
    (["check", "--variety", "ab", "--lhs", SQUARES,
      "--rhs", "x^%d" % 2 ** 30], 0),
    (["check", "--variety", "g", "--lhs", "x^(1000000000000000003^w)",
      "--rhs", "x"], 2),
], ids=["ab", "com", "g", "jplus", "eval-long", "syn-long", "syn-nested",
        "eval-nested", "g-squares", "jplus-squares", "ab-squares",
        "g-large-prime"])
def test_long_and_deep_inputs_exit_cleanly(argv, code):
    r = run_cli(*argv)
    assert r.returncode == code
    assert "Traceback" not in r.stderr


def test_check_true_verdict():
    r = run_cli("check", "--variety", "com", "--lhs", "x y", "--rhs", "y x")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["verdict"] is True
    assert doc["witness"] is None


def test_check_false_verdict_with_witness():
    r = run_cli("check", "--variety", "ab", "--lhs", "x y", "--rhs",
                "y x x")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["verdict"] is False
    assert doc["witness"]["lhs_value"] != doc["witness"]["rhs_value"]


def test_check_group_witness_is_pinned():
    # sha256 of the stdout, recorded before the group closures moved to
    # omsemi.graphs: the witness prints the table of S3 in the element
    # order of its permutation closure
    r = run_cli("check", "--variety", "g", "--lhs", "x y", "--rhs", "y x")
    assert r.returncode == 1
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
        "65978b558aef471d6fb48bd6ba8275536771e5923e312a64791fe0520665a3bb")


def test_check_jplus_leq():
    r = run_cli("check", "--variety", "jplus", "--lhs", "ab", "--rhs",
                "axb", "--leq")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] is True


def test_check_jplus_reads_terms():
    # both sides are terms: powers expand and spaces separate letters
    for lhs, rhs in (("a^2", "aa"), ("a b", "ab"), ("(a b)^2 c", "abcabc")):
        r = run_cli("check", "--variety", "jplus", "--leq", "--lhs", lhs,
                    "--rhs", rhs)
        assert r.returncode == 0, (lhs, rhs)
        assert json.loads(r.stdout)["verdict"] is True
    r = run_cli("check", "--variety", "jplus", "--lhs", "a^3", "--rhs", "aa")
    assert r.returncode == 1
    assert json.loads(r.stdout)["witness"] == {"obstruction_word": "aaa"}


def test_check_jplus_omega_power_exits_2():
    for lhs in ("a^w", "(a b^(w-1))^2", "a^(2^w)"):
        r = run_cli("check", "--variety", "jplus", "--leq", "--lhs", lhs,
                    "--rhs", "ab")
        assert r.returncode == 2, lhs
        assert "omega power" in r.stderr


def test_check_leq_outside_jplus_exits_2():
    r = run_cli("check", "--variety", "ab", "--lhs", "x", "--rhs", "x",
                "--leq")
    assert r.returncode == 2


def test_check_unknown_variety_exits_2():
    r = run_cli("check", "--variety", "foo", "--lhs", "x", "--rhs", "x")
    assert r.returncode == 2


def test_reduce_jplus():
    r = run_cli("reduce", "jplus", "--regex", "b*ab*", "--u", "a",
                "--v", "b a b")
    assert r.returncode == 0
    assert r.stdout == "u' = a\nv' = a\n"


def test_reduce_jplus_obstruction_exits_1():
    r = run_cli("reduce", "jplus", "--regex", "a(a|b)*", "--u", "a",
                "--v", "b")
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_enum_counts():
    assert run_cli("enum", "4").stdout == "188\n"
    assert run_cli("enum", "4", "--identity", "x y = y x").stdout == "58\n"
    assert run_cli("enum", "5").stdout == "1915\n"


def test_enum_out_of_range_exits_2():
    assert run_cli("enum", "6").returncode == 2


def test_verify_paper_text_mode():
    r = run_cli("verify-paper", "--section", "all")
    assert r.returncode == 0
    assert r.stdout.count("overall: PASS") == 4  # three sections + summary
    assert "section 4 overall: PASS (10 checks)" in r.stdout
    assert "section 5 overall: PASS (11 checks)" in r.stdout
    assert "section 6 overall: PASS (12 checks)" in r.stdout


@pytest.mark.parametrize("argv,digest", [
    # the text report, recorded before the walks of dfa, syntactic,
    # semigroup and groups_catalog moved to omsemi.graphs
    (["verify-paper"],
     "7ecf0461fb92241828ba9abd2b7344405953d3212bec14f21c30af0548a839eb"),
    # the JSON reports, recorded while section 6 still checked "q p L q^2 p"
    # on Green's L-classes rather than as two identities
    (["verify-paper", "--json", "-"],
     "25d62340e3b8191383344694bc12a5252c9dc74023388fa05cabf85a8560017b"),
    (["verify-paper", "--section", "6", "--cr-bound", "5", "--json", "-"],
     "5d56d524fda7e97322eba9341d72555e61f2727f49af00632d3658934d5c25ef"),
], ids=["text", "json", "section-6-bound-5-json"])
def test_verify_paper_text_is_pinned(argv, digest):
    r = run_cli(*argv)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def test_verify_paper_single_section_json_file(tmp_path):
    path = tmp_path / "r4.json"
    r = run_cli("verify-paper", "--section", "4", "--json", str(path))
    assert r.returncode == 0
    doc = json.loads(path.read_text())
    assert doc["section"] == "4"
    assert doc["pass"] is True
    assert doc["millis"] == 0
    assert all(c["pass"] for c in doc["checks"])


def test_verify_paper_unwritable_json_path_exits_2(tmp_path):
    path = tmp_path / "missing" / "r4.json"
    r = run_cli("verify-paper", "--section", "4", "--json", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


def test_verify_paper_json_stdout_deterministic():
    r1 = run_cli("verify-paper", "--section", "all", "--json", "-")
    r2 = run_cli("verify-paper", "--section", "all", "--json", "-")
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    docs = json.loads(r1.stdout)
    assert [d["section"] for d in docs] == ["4", "5", "6"]
    assert all(d["pass"] for d in docs)


def test_verify_paper_bad_section_exits_2():
    assert run_cli("verify-paper", "--section", "9").returncode == 2


def test_missing_subcommand_exits_2():
    assert run_cli().returncode == 2


def test_closed_stdout_pipe_exits_1_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "omsemi.cli", "check",
                            "--variety", "ab", "--lhs", "x y", "--rhs", "y x"],
                           stdout=write_end, stderr=subprocess.PIPE,
                           text=True)
    finally:
        os.close(write_end)
    assert r.returncode == 1
    assert r.stderr == ""
