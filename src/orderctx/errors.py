"""Exception types shared across the package."""


class OrderContextError(Exception):
    """Base class for every error raised by this package."""


class CycleError(OrderContextError):
    """Cover relations close into a cycle, so no partial order exists."""


class UnknownLabelError(OrderContextError, KeyError):
    """An element label does not belong to the poset."""


class EmptySubsetError(OrderContextError):
    """A nonempty subset was required (directedness is defined on nonempty sets)."""


class SizeLimitError(OrderContextError):
    """Brute-force enumeration refused: the poset exceeds the subset-enumeration cap."""


class InvalidDimension(OrderContextError, ValueError):
    """Dimension outside the supported range."""


class IndexOutOfRange(OrderContextError, IndexError):
    """Outcome or component index outside [0, n)."""


class DimensionMismatch(OrderContextError, ValueError):
    """Two objects that must share a dimension do not."""


class ParameterOutOfRange(OrderContextError, ValueError):
    """Numeric parameter outside its documented domain."""


class CertainOutcomeError(OrderContextError):
    """Cannot condition on ruling out an outcome that has probability one."""


class InvalidPermutation(OrderContextError, ValueError):
    """Opening order is not a permutation of the box indices."""


class InvalidStateError(OrderContextError, ValueError):
    """Not a state: a non-finite entry, negative mass or wrong total."""
