"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from omsemi import cli, enumeration, groups_catalog, varieties
from omsemi.dfa import Dfa
from omsemi.semigroup import FiniteSemigroup


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
    (["syn", NESTED], 0),
    (["eval", "--regex", "b*ab*", "--term", NESTED], 0),
    # g keeps x^(2^30) as one run, so it answers, with C2 as its witness
    (["check", "--variety", "g", "--lhs", SQUARES, "--rhs", "x"], 1),
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


# sha256 of the stdout, recorded while cr:N was still decided on every
# member of the sample: true verdicts, including section 6's identities,
# and false ones whose witness tables have orders 2 to 5.  Run through
# cli.main in this process, so the order-5 sample is enumerated once.
@pytest.mark.parametrize("variety,lhs,rhs,code,digest", [
    ("cr:3", "x^2", "x", 1,
     "26987d424fa6341fc8719992ca55d88fd22d75c19aa56e69fd63d97d0a547d8d"),
    ("cr:3", "x^(w+1)", "x", 0,
     "d0bb7338649dfcdd930c5b995a6e484ec7e2073f0327ad974863ec6eee335c6e"),
    ("cr:4", "(x^2 y)^(w-1) (x y^2)^w (x^2 y)^2", "x^2 y", 0,
     "af2474bd84a0bbe4a4359d00c94a7d741259b67e0b0f76041920e9635b76eca6"),
    ("cr:4", "(y x) (y^2 x)^w", "y x", 0,
     "c1351dc2e28ae6b2d25ddebfbb6984a6dbf864a1c868d7d51a30446608681c0e"),
    ("cr:4", "x^2", "x", 1,
     "c61d835f1858088b7f056d411d9b8ead9427b6b9ebf21e187fe2ed651ac81cbc"),
    ("cr:4", "x y", "y x", 1,
     "0f3f4999df2cc90da08befcab445118279856d5e5ffeea0f5d818fa351584d6b"),
    ("cr:4", "x^(2^w)", "x^w", 1,
     "e8480f04e86f8a489fd36fdd329160074695d76ccdaff8def838715caec37917"),
    ("cr:4", "x^3", "x", 1,
     "f08f327205f307e85cc865cf1c8c0b151655ccdd81fec01e2e1401131e105868"),
    ("cr:5", "(x^2 y)^(w-1) (x y^2)^w (x^2 y)^2", "x^2 y", 0,
     "49ba0abebe2d8d20abf0352907a5b7c45be6aa699b1d45048211f424025d4010"),
    ("cr:5", "(y^2 x) (y x)^w", "y^2 x", 0,
     "6360e653263cc55da8eb6e8cfe92816c0d10484db2f845e9e07913941ad53ab1"),
    ("cr:5", "x^2", "x", 1,
     "374f10c56e953065c7448f2dd81caa608f42112a0d71dfcee6077b9bb2545399"),
    ("cr:5", "x^w y^w", "(x y)^w", 1,
     "fee3489116e4d2c5df63ab1274c473a1f0c4545081c7191bb084b76b9aa70b1d"),
    ("cr:5", "x^12", "x^w", 1,
     "01d4d0065aab480dba2ffae2e514991479b4718c6821b00b162125fa6aa9f9a0"),
    ("cr:5", "(x y z)^w", "(x z y)^w", 1,
     "ed266b6f4fa3e82b1fbd129408f75e4b03063de423f597f8c6c3f300b447c4d8"),
])
def test_check_cr_output_is_pinned(capsys, variety, lhs, rhs, code, digest):
    assert cli.main(["check", "--variety", variety, "--lhs", lhs,
                     "--rhs", rhs]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("variety", [
    "cr:\u0664", "cr: 4", "cr:+4", "cr:0_4", "cr:", "cr:x"])
def test_check_malformed_cr_bound_exits_2(capsys, variety):
    # int() would read the first four as 4
    assert cli.main(["check", "--variety", variety, "--lhs", "x",
                     "--rhs", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad bound in variety tag %r\n" % variety


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
    r = run_cli("enum", "7")
    assert r.returncode == 2
    assert r.stderr == "error: can only enumerate orders 1..6, got 7\n"


def test_enum_order_six(capsys):
    # in this process, so the order-6 stream is searched once for the
    # enumeration tests and this one
    assert cli.main(["enum", "6"]) == 0
    assert capsys.readouterr().out == "28634\n"


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
    # the syn output is about 290 KB, written line by line, so the pipe
    # breaks in the middle of the rendering
    for argv in (["check", "--variety", "ab", "--lhs", "x y", "--rhs", "y x"],
                 ["syn", "(%s)*b" % ("a" * 40), "--classes"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run([sys.executable, "-m", "omsemi.cli", *argv],
                               stdout=write_end, stderr=subprocess.PIPE,
                               text=True)
        finally:
            os.close(write_end)
        assert r.returncode == 1
        assert r.stderr == ""


def test_package_built_tables_are_not_proven_again(monkeypatch, capsys):
    # every table and automaton these commands use is built by the
    # package, so none may pass through the public constructors, which
    # check and prove a caller's input, nor through the proof they share;
    # empty caches make the commands build their pools here, and leave
    # the shared ones as they were
    def tripwire(name):
        def trip(*args, **kwargs):
            raise AssertionError("%s called" % name)
        return trip

    for cls, name in ((FiniteSemigroup, "__init__"),
                      (FiniteSemigroup, "from_right_cayley"),
                      (FiniteSemigroup, "_prove"), (Dfa, "__init__")):
        monkeypatch.setattr(cls, name,
                            tripwire("%s.%s" % (cls.__name__, name)))
    monkeypatch.setattr(enumeration, "_CACHE", {})
    monkeypatch.setattr(groups_catalog, "_CATALOG", None)
    monkeypatch.setattr(varieties, "_CR_CACHE", {})
    monkeypatch.setattr(varieties, "_CORE_CACHE", {})
    for argv, code in (
            (["verify-paper"], 0),
            (["syn", "b*ab*", "--order", "--green", "--classes"], 0),
            (["eval", "--regex", "b*ab*", "--term", "a b"], 0),
            (["reduce", "jplus", "--regex", "b*ab*", "--u", "a",
              "--v", "b a b"], 0),
            # no witness among the monogenic monoids C(i, p)^1 it builds
            (["check", "--variety", "com", "--lhs", "x^8", "--rhs", "x^428"],
             1),
            (["check", "--variety", "ab", "--lhs", "x^2", "--rhs", "x^3"], 1),
            (["check", "--variety", "g", "--lhs", "x y", "--rhs", "y x"], 1),
            (["check", "--variety", "cr:3", "--lhs", "x y", "--rhs", "y x"],
             1),
            (["enum", "4"], 0)):
        assert cli.main(argv) == code, argv
    out = capsys.readouterr().out
    assert "class 0 [a]\nu' = a\nv' = a\n" in out
    assert out.endswith("188\n")
