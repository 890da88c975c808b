"""Exception types shared across the package."""


class StrongeqError(Exception):
    """Base class for all package-specific errors."""


class ParseError(StrongeqError):
    """Raised on malformed program text; carries a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TooManyAtomsError(StrongeqError):
    """Raised when an input exceeds a brute-force resource guard."""

    def __init__(self, what: str, count: int, limit: int):
        super().__init__(f"{what}: {count} atoms exceeds the limit of {limit}")
        self.count = count
        self.limit = limit


class NotCanonicalError(StrongeqError):
    """Raised when an operation requires canonical rules but got one with
    overlapping head/body sets."""
