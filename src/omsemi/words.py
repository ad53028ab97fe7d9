"""Plain word combinatorics: factors, scattered subwords, Thue-Morse.

Words are ordinary strings over single-character letters.  "Factor" always
means a contiguous block; "scattered subword" means a not necessarily
contiguous subsequence.  The two notions are never mixed up under a shared
name here.
"""


def scattered_subword(u, v):
    """True iff u embeds in v as a subsequence (greedy two-pointer scan)."""
    it = iter(v)
    return all(ch in it for ch in u)


def factors_up_to(w, k):
    """All nonempty factors of w of length <= k."""
    out = set()
    n = len(w)
    for i in range(n):
        top = min(k, n - i)
        for l in range(1, top + 1):
            out.add(w[i:i + l])
    return out


def count_occurrences(w, f):
    """Number of (possibly overlapping) occurrences of the factor f in w."""
    if not f:
        raise ValueError("factor must be nonempty")
    count = 0
    start = 0
    while True:
        pos = w.find(f, start)
        if pos < 0:
            return count
        count += 1
        start = pos + 1


def apply_morphism(w, images):
    return "".join(images[ch] for ch in w)


THUE_MORSE = {"x": "xy", "y": "yx"}


def ptm_iterate(n):
    """The n-th iterate of the Prouhet-Thue-Morse substitution on x."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    w = "x"
    for _ in range(n):
        w = apply_morphism(w, THUE_MORSE)
    return w


def is_cube_free(w):
    """True iff no factor of w has the shape fff.

    Over k-byte letter codes (k = 1 for ASCII words, else 4), the XOR of
    w with w shifted by l letters is zero exactly at the letters where
    w[i] == w[i+l]; a cube of period l exists iff 2l consecutive letters
    match, i.e. 2l*k zero bytes start on a letter boundary within the
    (n - l)*k bytes where the two copies overlap.  w is converted to an
    integer once; each period XORs it with its own shift, and the search
    stops at the overlap's end, past which the bytes are w's own, and a
    run of "\\x00" letters there would read as a cube.
    """
    n = len(w)
    if w.isascii():
        b, k = w.encode("ascii"), 1
    else:
        b, k = w.encode("utf-32-le"), 4
    whole = int.from_bytes(b, "little")
    for l in range(1, n // 3 + 1):
        size = (n - l) * k
        x = (whole ^ (whole >> 8 * l * k)).to_bytes(n * k, "little")
        run = bytes(2 * l * k)
        pos = x.find(run, 0, size)
        while pos > 0 and pos % k:
            pos = x.find(run, pos - pos % k + k, size)
        if pos >= 0:
            return False
    return True
