"""Exception types raised by the device model and the framework layers.

Every framework error is a :class:`PimError`.  :class:`InvalidArgument` is
also a ``ValueError``, and :class:`LockMisuse` and :class:`OracleMismatch`
are also ``RuntimeError`` subclasses, so callers that catch the built-in type
keep working.
"""


class PimError(Exception):
    """Base class for all framework errors."""


class InvalidArgument(PimError, ValueError):
    """An argument, configuration field or callback result is out of range
    or of the wrong shape."""


# --- device faults (hard errors, mirroring hardware behavior) ---------------


class OutOfBankMemory(PimError):
    """A symmetric allocation did not fit in every core's DRAM bank."""


class AlignmentViolation(PimError):
    """A transfer offset or size broke the DMA alignment rule."""


class SizeLimitViolation(PimError):
    """A DMA command exceeded the per-command byte limit."""


class OutOfBounds(PimError):
    """A transfer touched bytes outside the bank or the scratchpad."""


class UnequalSliceSizes(PimError):
    """Parallel transfers require same-sized slices on every core."""


class HostBufferInvalid(PimError):
    """A host buffer is not uint8 or holds the wrong number of bytes, a
    to-host transfer has no writable array to fill in place, or a handle
    context is None or would change size while resident."""


class ScratchpadOverflow(PimError):
    """A kernel claimed more scratchpad than the usable budget."""


class TaskletCountInvalid(PimError):
    """Requested tasklet count outside 1..max_tasklets."""


class LockMisuse(PimError, RuntimeError):
    """A tasklet acquired an entry lock that is already held, or released
    one it does not hold."""


# --- registry ----------------------------------------------------------------


class UnknownArrayId(PimError):
    """No array with this id is registered."""


class DuplicateArrayId(PimError):
    """An array with this id is already registered."""


class WrongLayout(PimError):
    """The operation does not support this array's layout."""


class ArrayInUse(PimError):
    """The array is still named by a lazy zip and cannot be freed."""


# --- handles and iterators ----------------------------------------------------


class InvalidHandleKind(PimError):
    """Handle kind is not one of map / reduce / zip."""


class MissingCallback(PimError):
    """A callback required by the handle kind was not provided."""


class HandleKindMismatch(PimError):
    """A handle of the wrong kind was passed to an iterator."""


class InvalidCombiner(PimError):
    """A declared reduction combiner is malformed or does not fit the handle."""


class LengthMismatch(PimError):
    """Zip inputs must have the same element count."""


class DistributionMismatch(PimError):
    """Zip inputs must have identical per-core element distributions."""


class NoFeasiblePlan(PimError):
    """No reduction variant fits the scratchpad even with one tasklet."""


class ElementTooLarge(PimError):
    """No aligned batch of at least one element fits in a DMA command."""


# --- experiments ----------------------------------------------------------------


class OracleMismatch(PimError, RuntimeError):
    """A strict experiment run's result differs from its sequential oracle."""
