"""Exception types shared across the library.

Everything user-facing derives from PosetMorseError so the CLI can map
input/precondition problems to a single exit code.
"""


class PosetMorseError(Exception):
    """Base class for all errors raised by this library."""


class ConsistencyError(PosetMorseError):
    """Two computations of the same quantity disagree, which no valid input
    can cause; this is a bug."""


# -- poset construction ------------------------------------------------------

class CycleDetected(PosetMorseError):
    """The input relation contains a directed cycle, so it is not an order."""


class UnknownElement(PosetMorseError):
    """A relation or query references an element that was never declared."""


class DuplicateElement(PosetMorseError):
    """The same identifier was declared more than once."""


class EmptyPoset(PosetMorseError):
    """Empty posets are rejected as top-level inputs."""


class NotGraded(PosetMorseError):
    """The operation needs a graded poset (degree = height along covers)."""


# -- simplicial complexes ----------------------------------------------------

class EmptyComplex(PosetMorseError):
    """A simplicial complex input contained no simplices."""


class MalformedLine(PosetMorseError):
    """A text input line could not be parsed."""


class NotASubcomplex(PosetMorseError):
    """Relative homology needs the second complex to sit inside the first."""


# -- chain complexes and homology --------------------------------------------

class NotAChainComplex(PosetMorseError):
    """Consecutive boundary matrices do not compose to zero."""


# -- cellular structure ------------------------------------------------------

class NotCellular(PosetMorseError):
    """Some strict down-set fails to have the homology of a sphere."""


class NotAdmissible(PosetMorseError):
    """Some punctured down-set fails to be acyclic."""


class InconsistentIncidence(PosetMorseError):
    """The assembled incidence numbers violate d*d = 0; this is a bug."""


class NonUnitIncidenceOnAdmissible(PosetMorseError):
    """An incidence number other than +-1 appeared on an admissible poset."""


# -- matchings and dynamics --------------------------------------------------

class NotACover(PosetMorseError):
    """A matching pair is not an edge of the Hasse diagram."""


class ElementMatchedTwice(PosetMorseError):
    """An element appears in more than one matching pair."""


class NotMorseMatching(PosetMorseError):
    """The operation needs an acyclic matching."""


class NotMorseSmale(PosetMorseError):
    """The operation needs recurrence made of disjoint simple orbits."""


# -- functions on posets ------------------------------------------------------

class NotMorse(PosetMorseError):
    """The function violates the at-most-one-exceptional-cover conditions."""


class NotMorseBott(PosetMorseError):
    """The function is not Morse-Bott for its matching: not constant on a
    basic set, increasing along the matched digraph between classes, or
    constant along an unmatched arc between them."""


class CriticalValueInInterval(PosetMorseError):
    """A collapse check was requested across a critical value."""


class WrongCriticalCount(PosetMorseError):
    """An attachment check needs exactly one critical value in the interval."""
