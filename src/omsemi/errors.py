"""Exception types shared across the package, `listed`, which turns an
argument that is not a collection into one of them, and `_checked_rows`,
the one test of what a well-formed table is, for semigroups and automata
alike."""

from itertools import chain


class OmsemiError(Exception):
    pass


class NotAssociative(OmsemiError):
    """Multiplication table fails associativity."""


class MalformedTable(OmsemiError, ValueError):
    """Multiplication table, identity or generators of the wrong shape or
    out of range."""


class NotAPartialOrder(OmsemiError):
    """Order relation is not a stable partial order."""


class InequalityWithoutOrder(OmsemiError):
    """Inequality-mode check requested on a semigroup without an order."""


class SizeTooLarge(OmsemiError):
    """Requested bound exceeds what the implementation supports."""


class EmptyAlphabet(OmsemiError):
    """A regular expression with no letters and no explicit alphabet."""


class AlphabetMismatch(OmsemiError):
    """A letter outside the alphabet of the automaton or syntactic
    semigroup it is used with, or two automata over different alphabets
    compared."""


class ElementNotWordImage(OmsemiError):
    """Element index does not name a class of the syntactic semigroup."""


class UnboundLetter(OmsemiError):
    """A term letter has no image under the generator map."""


class UnsupportedPrimePower(OmsemiError):
    """Operation undefined on terms containing a prime-omega power."""


class DepthCap(OmsemiError):
    """Iteration depth beyond the supported cap."""


class Unreachable(OmsemiError):
    """Target element is not reachable from the identity."""


class NotASolution(OmsemiError):
    """Input terms do not evaluate to the required elements."""


class SubwordObstruction(OmsemiError):
    """The required scattered-subword embedding does not exist."""


class ParseError(OmsemiError):
    """Malformed regular expression or term string."""


class InternalError(OmsemiError):
    """A bound that holds on every structure the package builds is
    broken: a fault in the package, not in its input."""


def listed(items, what, error=MalformedTable):
    """list(items), or error if items is not iterable."""
    try:
        return list(items)
    except TypeError:
        raise error("%s is not a collection: %r" % (what, items)) from None


def _checked_rows(rows, width=None):
    """rows as a list of lists, once proven to be n >= 1 rows of `width`
    entries (n entries, a square table, when width is None), each an int
    in range(n).  An entry equal to an element but not an int, such as
    0.0 or False, is rejected by its type."""
    try:
        rows = [list(row) for row in rows]
    except TypeError:
        raise MalformedTable("table is not a list of rows: %r"
                             % (rows,)) from None
    n = len(rows)
    if n == 0:
        raise MalformedTable("a table has at least one row")
    if set(map(len, rows)) != {n if width is None else width}:
        raise MalformedTable("table is not square" if width is None
                             else "rows are not all %d long" % width)
    entries = list(chain.from_iterable(rows))
    if not set(range(n)).issuperset(entries) or not {int}.issuperset(
            map(type, entries)):
        raise MalformedTable("table entry out of range: %r" % (
            next(v for v in entries
                 if type(v) is not int or not 0 <= v < n),))
    return rows
