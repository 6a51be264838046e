"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: VerificationError -> 1, InputError -> 2,
CapabilityError -> 3; a subclass maps as its base.
"""


class HomlabError(Exception):
    """Base class for all library errors."""


class InputError(HomlabError):
    """Malformed or out-of-contract input (bad vertex, non-independent set, ...)."""


class ParameterError(InputError):
    """Parameter tuple violates a stated invariant."""


class CapabilityError(HomlabError):
    """Requested computation exceeds the implemented desk-scale caps."""


class VerificationError(HomlabError):
    """An asserted identity or verified property failed (bug signal)."""


class ConsistencyError(VerificationError):
    """Two independent computations of the same quantity disagree."""
