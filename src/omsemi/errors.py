"""Exception types shared across the package, and `listed`, which turns
an argument that is not a collection into one of them."""


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


def listed(items, what, error=MalformedTable):
    """list(items), or error if items is not iterable."""
    try:
        return list(items)
    except TypeError:
        raise error("%s is not a collection: %r" % (what, items)) from None
