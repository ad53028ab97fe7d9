"""Omega-terms: words with omega powers, and their finite semantics.

A term is built from single-character letters by concatenation, finite
powers t^m, omega powers t^(w+k) for an integer offset k, and prime-omega
powers t^(p^w).  In a finite semigroup t^(w+k) evaluates to the cycle
element s^(omega+k) of s = eval(t), and t^(p^w) to the limit of s^(p^(n!)).

Concrete syntax: juxtaposition concatenates, ``^w``, ``^(w+2)``, ``^(w-1)``,
``^(2^w)`` and ``^3`` are powers, parentheses group.  Whitespace is ignored.
"""

import math
from dataclasses import dataclass

from .errors import (
    DepthCap,
    InequalityWithoutOrder,
    NoValidExponent,
    ParseError,
    UnsupportedPrimePower,
)
from .semigroup import GeneratorMap


@dataclass(frozen=True)
class Letter:
    ch: str


@dataclass(frozen=True)
class Concat:
    left: object
    right: object


@dataclass(frozen=True)
class OmegaPower:
    """base^(omega+k); k may be negative (inverse walk around the cycle)."""
    base: object
    k: int


@dataclass(frozen=True)
class PrimeOmegaPower:
    """base^(p^omega) for a prime p."""
    base: object
    p: int


@dataclass(frozen=True)
class FinitePower:
    base: object
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("finite power must be >= 1 (terms are nonempty)")


def term_size(t):
    """Number of syntax tree nodes."""
    if isinstance(t, Letter):
        return 1
    if isinstance(t, Concat):
        return 1 + term_size(t.left) + term_size(t.right)
    return 1 + term_size(t.base)


def term_alphabet(t):
    if isinstance(t, Letter):
        return {t.ch}
    if isinstance(t, Concat):
        return term_alphabet(t.left) | term_alphabet(t.right)
    return term_alphabet(t.base)


def concat_all(parts):
    if not parts:
        raise ValueError("empty concatenation")
    t = parts[0]
    for p in parts[1:]:
        t = Concat(t, p)
    return t


def word_term(word):
    """The term spelling out a nonempty word."""
    return concat_all([Letter(ch) for ch in word])


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class _TermParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def number(self):
        ch = self.peek()
        if ch is None or not ch.isdigit():
            raise ParseError("expected a number at position %d" % self.pos)
        digits = ""
        while self.peek() is not None and self.peek().isdigit():
            digits += self.take()
        return int(digits)

    def parse(self):
        t = self.concatenation()
        if self.peek() is not None:
            raise ParseError("unexpected %r at position %d"
                             % (self.peek(), self.pos))
        return t

    def concatenation(self):
        parts = []
        while True:
            ch = self.peek()
            if ch is None or ch == ")":
                break
            parts.append(self.postfixed())
        if not parts:
            raise ParseError("empty term")
        return concat_all(parts)

    def postfixed(self):
        t = self.atom()
        while self.peek() == "^":
            self.take()
            t = self.power_of(t)
        return t

    def power_of(self, base):
        ch = self.peek()
        if ch == "w":
            self.take()
            return OmegaPower(base, 0)
        if ch is not None and ch.isdigit():
            m = self.number()
            if m < 1:
                raise ParseError("finite power must be >= 1")
            return FinitePower(base, m)
        if ch == "(":
            self.take()
            inner = self.peek()
            if inner == "w":
                self.take()
                sign = self.take()
                if sign not in ("+", "-"):
                    raise ParseError("expected + or - after w")
                k = self.number()
                if self.take() != ")":
                    raise ParseError("missing ) in exponent")
                return OmegaPower(base, k if sign == "+" else -k)
            p = self.number()
            if self.take() != "^" or self.take() != "w":
                raise ParseError("expected p^w in exponent")
            if self.take() != ")":
                raise ParseError("missing ) in exponent")
            if not _is_prime(p):
                raise ParseError("%d is not prime" % p)
            return PrimeOmegaPower(base, p)
        raise ParseError("bad exponent at position %d" % self.pos)

    def atom(self):
        ch = self.take()
        if ch == "(":
            t = self.concatenation()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return t
        if ch is None or not ch.isalpha():
            raise ParseError("expected a letter, got %r" % (ch,))
        return Letter(ch)


def parse_term(text):
    return _TermParser(text).parse()


def _needs_parens(t):
    return not isinstance(t, Letter)


def format_term(t):
    if isinstance(t, Letter):
        return t.ch
    if isinstance(t, Concat):
        return "%s %s" % (format_term(t.left), format_term(t.right))
    if isinstance(t, OmegaPower):
        if t.k == 0:
            exp = "^w"
        else:
            exp = "^(w%+d)" % t.k
    elif isinstance(t, PrimeOmegaPower):
        exp = "^(%d^w)" % t.p
    else:
        exp = "^%d" % t.m
    base = format_term(t.base)
    if _needs_parens(t.base):
        base = "(%s)" % base
    return base + exp


def eval_term(S, g, t):
    """Value of a term in S under the letter assignment g."""
    if isinstance(t, Letter):
        return g(t.ch)
    if isinstance(t, Concat):
        return S.table[eval_term(S, g, t.left)][eval_term(S, g, t.right)]
    if isinstance(t, OmegaPower):
        return S.omega_plus_k(eval_term(S, g, t.base), t.k)
    if isinstance(t, PrimeOmegaPower):
        return S.p_omega_power(eval_term(S, g, t.base), t.p)
    if isinstance(t, FinitePower):
        return S.power(eval_term(S, g, t.base), t.m)
    raise TypeError("not a term: %r" % (t,))


def find_identity_failure(S, lhs, rhs, mode="equality"):
    """An assignment violating lhs = rhs (or lhs <= rhs), or None."""
    if mode not in ("equality", "inequality"):
        raise ValueError("mode must be equality or inequality")
    if mode == "inequality" and S.order is None:
        raise InequalityWithoutOrder("semigroup carries no order")
    variables = sorted(term_alphabet(lhs) | term_alphabet(rhs))
    import itertools
    for values in itertools.product(range(S.n), repeat=len(variables)):
        g = GeneratorMap(S, dict(zip(variables, values)))
        a = eval_term(S, g, lhs)
        b = eval_term(S, g, rhs)
        ok = a == b if mode == "equality" else (a, b) in S.order
        if not ok:
            return dict(zip(variables, values))
    return None


def satisfies_identity(S, lhs, rhs, mode="equality"):
    """Does S satisfy the identity (all assignments of the variables)?"""
    return find_identity_failure(S, lhs, rhs, mode) is None


# ---------------------------------------------------------------------------
# commutative images


@dataclass(frozen=True)
class ExponentValue:
    """An exponent in N or omega+Z: Fin(n) or Inf(k) standing for omega+k."""

    infinite: bool
    value: int

    def __add__(self, other):
        if self.infinite or other.infinite:
            return Inf(self.value + other.value)
        return Fin(self.value + other.value)

    def scale(self, m):
        """Exponent of t^m given the exponent in t."""
        return Inf(self.value * m) if self.infinite else Fin(self.value * m)

    def omega_compose(self, j):
        """Exponent of t^(w+j) given the exponent in t.

        A letter absent from t stays absent; one occurring n >= 1 times
        occurs omega + n*j times; an omega+i occurrence becomes omega+i*j.
        """
        if not self.infinite and self.value == 0:
            return self
        return Inf(self.value * j)

    def __repr__(self):
        if self.infinite:
            return "w%+d" % self.value if self.value else "w"
        return str(self.value)


def Fin(n):
    return ExponentValue(False, n)


def Inf(k):
    return ExponentValue(True, k)


def com_exponents(t):
    """Letter multiplicities of t in N u (omega+Z), as a dict."""
    if isinstance(t, Letter):
        return {t.ch: Fin(1)}
    if isinstance(t, Concat):
        out = dict(com_exponents(t.left))
        for ch, e in com_exponents(t.right).items():
            out[ch] = out[ch] + e if ch in out else e
        return out
    if isinstance(t, OmegaPower):
        return {ch: e.omega_compose(t.k)
                for ch, e in com_exponents(t.base).items()}
    if isinstance(t, FinitePower):
        return {ch: e.scale(t.m) for ch, e in com_exponents(t.base).items()}
    if isinstance(t, PrimeOmegaPower):
        raise UnsupportedPrimePower(
            "commutative image of a prime-omega power is not supported")
    raise TypeError("not a term: %r" % (t,))


def ab_image(t):
    """Integer letter multiplicities (omega collapses to its offset)."""
    if isinstance(t, Letter):
        return {t.ch: 1}
    if isinstance(t, Concat):
        out = dict(ab_image(t.left))
        for ch, n in ab_image(t.right).items():
            out[ch] = out.get(ch, 0) + n
        return out
    if isinstance(t, OmegaPower):
        return {ch: n * t.k for ch, n in ab_image(t.base).items()}
    if isinstance(t, FinitePower):
        return {ch: n * t.m for ch, n in ab_image(t.base).items()}
    if isinstance(t, PrimeOmegaPower):
        raise UnsupportedPrimePower(
            "abelian image of a prime-omega power is not supported")
    raise TypeError("not a term: %r" % (t,))


# ---------------------------------------------------------------------------
# free group image


def _reduce_signed(seq):
    out = []
    for ch, s in seq:
        if out and out[-1][0] == ch and out[-1][1] == -s:
            out.pop()
        else:
            out.append((ch, s))
    return out


def _invert_signed(seq):
    return [(ch, -s) for ch, s in reversed(seq)]


def _power_signed(seq, k):
    if k == 0:
        return []
    body = seq if k > 0 else _invert_signed(seq)
    out = []
    for _ in range(abs(k)):
        out = _reduce_signed(out + body)
    return out


def free_group_normal_form(t):
    """Image of the term in the free group, as a reduced signed word.

    Omega powers land on the k-th power of the base image: the omega part
    vanishes in any group limit.  Returned as a tuple of (letter, +-1).
    """
    if isinstance(t, Letter):
        return ((t.ch, 1),)
    if isinstance(t, Concat):
        return tuple(_reduce_signed(
            list(free_group_normal_form(t.left)) +
            list(free_group_normal_form(t.right))))
    if isinstance(t, OmegaPower):
        return tuple(_power_signed(list(free_group_normal_form(t.base)), t.k))
    if isinstance(t, FinitePower):
        return tuple(_power_signed(list(free_group_normal_form(t.base)), t.m))
    if isinstance(t, PrimeOmegaPower):
        raise UnsupportedPrimePower(
            "free group image of a prime-omega power is not supported")
    raise TypeError("not a term: %r" % (t,))


def format_signed_word(nf):
    if not nf:
        return "1"
    return " ".join(ch if s > 0 else ch + "^-1" for ch, s in nf)


# ---------------------------------------------------------------------------
# unrolling


def _crt_merge(r1, m1, r2, m2):
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise NoValidExponent("incompatible residues %d mod %d, %d mod %d"
                              % (r1, m1, r2, m2))
    l = m1 // g * m2
    step = m1 // g
    inv = pow(step % (m2 // g), -1, m2 // g) if m2 // g > 1 else 0
    k = ((r2 - r1) // g * inv) % (m2 // g)
    return (r1 + m1 * k) % l, l


def unroll(t, targets, pad=0):
    """A word with the same value as t in every target.

    Each omega power t^(w+k) becomes a finite power t^N with N at least
    every index, congruent to k modulo every period, and at least pad
    (pad lets callers force long expansions; the image is unchanged).
    Prime-omega powers are resolved through their stabilised residues,
    merged across targets by the Chinese remainder theorem.
    """
    if not targets:
        raise ValueError("unroll needs at least one target")
    if isinstance(t, Letter):
        return t.ch
    if isinstance(t, Concat):
        return unroll(t.left, targets, pad) + unroll(t.right, targets, pad)
    if isinstance(t, FinitePower):
        return unroll(t.base, targets, pad) * t.m
    if isinstance(t, (OmegaPower, PrimeOmegaPower)):
        datas = [S.monogenic_data(eval_term(S, g, t.base))
                 for S, g in targets]
        if isinstance(t, OmegaPower):
            modulus = math.lcm(*[d.period for d in datas])
            residue = t.k % modulus
        else:
            residue, modulus = 0, 1
            for d in datas:
                r = _stable_residue(t.p, d.period)
                residue, modulus = _crt_merge(residue, modulus, r, d.period)
        need = max([d.index for d in datas] + [1, pad])
        n = residue
        while n < need:
            n += modulus
        return unroll(t.base, targets, pad) * n
    raise TypeError("not a term: %r" % (t,))


def _stable_residue(p, period):
    from .semigroup import stabilized_prime_power_residue
    return stabilized_prime_power_residue(p, period)


# ---------------------------------------------------------------------------
# bounded factors


@dataclass(frozen=True)
class FactorData:
    factors: frozenset
    prefix: str
    suffix: str


def expand_for_factors(t, k):
    """Replace every omega-type power by k+2 repetitions of its base.

    Factors of length <= k, the prefix and the suffix of the result agree
    with those of any longer expansion, hence with the limit.
    """
    if isinstance(t, Letter):
        return t.ch
    if isinstance(t, Concat):
        return expand_for_factors(t.left, k) + expand_for_factors(t.right, k)
    if isinstance(t, FinitePower):
        return expand_for_factors(t.base, k) * t.m
    if isinstance(t, (OmegaPower, PrimeOmegaPower)):
        return expand_for_factors(t.base, k) * (k + 2)
    raise TypeError("not a term: %r" % (t,))


def bounded_factors(t, k):
    from .words import factors_up_to
    w = expand_for_factors(t, k)
    return FactorData(factors=frozenset(factors_up_to(w, k)),
                      prefix=w[:k], suffix=w[-k:] if k else "")


# ---------------------------------------------------------------------------
# commutators


def commutator(s, t):
    """[s, t] = s^(w-1) t^(w-1) s t."""
    return concat_all([OmegaPower(s, -1), OmegaPower(t, -1), s, t])


COMMUTATOR_DEPTH_CAP = 8


def iterated_commutator(n):
    """[x, n y]: [x, 1 y] = [x, y], [x, n+1 y] = [[x, n y], y]."""
    if n < 1:
        raise ValueError("commutator depth must be >= 1")
    if n > COMMUTATOR_DEPTH_CAP:
        raise DepthCap("iterated commutator capped at depth %d"
                       % COMMUTATOR_DEPTH_CAP)
    x, y = Letter("x"), Letter("y")
    t = commutator(x, y)
    for _ in range(n - 1):
        t = commutator(t, y)
    return t
