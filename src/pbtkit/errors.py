"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all pbtkit errors."""


class LayoutError(ToolkitError, ValueError):
    """Unknown label, incompatible layout, or an array above the memory
    budget (``tensor.MEMORY_BUDGET`` bytes), refused before it is built."""


class UnitarityError(ToolkitError, ValueError):
    """A matrix that must be unitary is not, beyond tolerance."""


class ProtocolError(ToolkitError, ValueError):
    """A protocol object violates one of its defining invariants."""


class ChainPreconditionError(ToolkitError, ValueError):
    """The message-chain protocol was invoked on a protocol that does not qualify."""


class SampleCountError(ToolkitError, ValueError):
    """A check was asked for fewer input samples or sampled rounds than it needs (at least 1)."""
