"""Error types shared across the package.

Invalid inputs raise plain ``ValueError`` everywhere; the classes here cover
the remaining failure modes that callers (notably the CLI) need to tell apart.
"""


class ConfigError(ValueError):
    """Malformed or contradictory run configuration."""


class NumericError(RuntimeError):
    """A numerical invariant was violated during a computation."""


class ResourceLimitError(RuntimeError):
    """The memory pre-flight finds that the run would not fit in available
    memory."""
