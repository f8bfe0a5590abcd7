"""Exception types shared across the package, one per CLI exit code.

:class:`InputError` (exit 1): an input file is malformed, not UTF-8, or
names a node the graph lacks; an :class:`OSError`, such as a missing
file, exits 1 too.  :class:`ConfigError` (exit 2): a parameter is out of
range, or a command is unknown, lacks an input it needs or is given one it
refuses.  Any other exception is an internal failure (exit 3).
"""


class CommkitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CommkitError):
    """An input file's content is malformed."""


class ConfigError(CommkitError):
    """A parameter or command is outside what the run allows."""
