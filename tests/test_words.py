import random
import subprocess
import sys
import time

from omsemi.words import (
    apply_morphism,
    count_occurrences,
    factors_up_to,
    is_cube_free,
    ptm_iterate,
    scattered_subword,
)


def naive_scattered(u, v):
    # independent oracle: dynamic programming over positions
    i = 0
    for ch in v:
        if i < len(u) and u[i] == ch:
            i += 1
    return i == len(u)


def test_scattered_subword_examples():
    assert scattered_subword("", "abc")
    assert scattered_subword("ac", "abc")
    assert scattered_subword("aba", "aabba")
    assert not scattered_subword("ba", "aab")
    assert not scattered_subword("aa", "a")


def test_scattered_subword_random():
    rng = random.Random(5)
    for _ in range(500):
        u = "".join(rng.choice("ab") for _ in range(rng.randrange(0, 6)))
        v = "".join(rng.choice("ab") for _ in range(rng.randrange(0, 10)))
        assert scattered_subword(u, v) == naive_scattered(u, v)


def test_scattered_subword_is_a_preorder():
    rng = random.Random(17)
    words = ["".join(rng.choice("ab") for _ in range(rng.randrange(0, 7)))
             for _ in range(40)]
    for u in words:
        assert scattered_subword(u, u)
    for u in words:
        for v in words:
            for w in words:
                if scattered_subword(u, v) and scattered_subword(v, w):
                    assert scattered_subword(u, w)


def test_factors_up_to():
    assert factors_up_to("aba", 2) == {"a", "b", "ab", "ba"}
    assert factors_up_to("aba", 5) == {"a", "b", "ab", "ba", "aba"}
    assert factors_up_to("", 3) == set()


def test_occurrences():
    assert count_occurrences("aaaa", "aa") == 3
    assert count_occurrences("abab", "aba") == 1
    assert count_occurrences("abc", "d") == 0


def test_ptm_iterates():
    assert ptm_iterate(0) == "x"
    assert ptm_iterate(1) == "xy"
    assert ptm_iterate(2) == "xyyx"
    assert ptm_iterate(3) == "xyyxyxxy"
    for n in range(10):
        w = ptm_iterate(n)
        assert len(w) == 2 ** n
        assert apply_morphism(w, {"x": "xy", "y": "yx"}) == ptm_iterate(n + 1)


def test_ptm_prefix_coherence():
    # each iterate is a prefix of the next: the iterates converge to the
    # infinite Thue-Morse word
    for n in range(12):
        assert ptm_iterate(n + 1).startswith(ptm_iterate(n))


def _cube_at(w, i, l):
    return w[i:i + l] == w[i + l:i + 2 * l] == w[i + 2 * l:i + 3 * l]


def naive_cube_free(w):
    n = len(w)
    for i in range(n):
        for l in range(1, (n - i) // 3 + 1):
            if _cube_at(w, i, l):
                return False
    return True


def test_is_cube_free_against_naive():
    rng = random.Random(9)
    # "\x00" letters are zero bytes, which a scan past the overlap of w
    # and its shift would read as part of a cube
    for alphabet in ("ab", "abc", "a\u0161b", "\u0100\u0101a",
                     "a\U0001f600b", "a\x00", "\x00a\u0161"):
        for _ in range(300):
            w = "".join(rng.choice(alphabet)
                        for _ in range(rng.randrange(0, 25)))
            assert is_cube_free(w) == naive_cube_free(w), w
    # equal high bytes around a matching pair must not pass for a cube
    assert is_cube_free("baa\u0161")
    assert not is_cube_free("aaa")
    assert not is_cube_free("xabcabcabcz")
    assert is_cube_free("")
    assert is_cube_free("xy")
    assert is_cube_free("ab\x00\x00") and is_cube_free("\u0161\x00\x00")
    assert not is_cube_free("a\x00\x00\x00")


def test_import_leaves_numpy_out():
    code = "import sys, omsemi; print('numpy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0 and r.stdout == "False\n"


def test_thue_morse_iterates_cube_free():
    for n in range(13):
        assert is_cube_free(ptm_iterate(n))
    t = time.perf_counter()
    assert is_cube_free(ptm_iterate(12))
    assert time.perf_counter() - t < 1.0
