"""Exception types shared across the package."""


class CommkitError(Exception):
    """Base class for all errors raised by this package."""


class GraphParseError(CommkitError):
    """Malformed edge-list input."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyGraphError(CommkitError):
    """The edge-list file contained no usable edges."""


class UnknownLabelError(CommkitError):
    """A node label could not be resolved against the graph."""

    def __init__(self, label: str):
        super().__init__(f"unknown node label: {label!r}")
        self.label = label


class CommunityFileError(CommkitError):
    """Malformed community file."""


class ConfigError(CommkitError):
    """A parameter is outside its allowed range."""
