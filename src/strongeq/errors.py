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


class WorldMaskError(TooManyAtomsError):
    """Raised before allocating a world mask, one bit per set of the
    input's atoms, that would pass the memory budget; `limit` is the
    budget's atom count."""

    def __init__(self, what: str, count: int, limit: int):
        StrongeqError.__init__(
            self,
            f"{what}: {count} atoms need a world mask of 2^{count} bits "
            f"({_mask_size(count)}), over the memory budget of 2^{limit} bits "
            f"({_mask_size(limit)})",
        )
        self.count = count
        self.limit = limit


def _mask_size(atoms: int) -> str:
    """The size of a mask of 2^atoms bits, in binary units."""
    exponent = atoms - 3  # of its bytes
    for unit in ("bytes", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"):
        if exponent < 10:
            return f"{1 << max(exponent, 0)} {unit}"
        exponent -= 10
    return f"2^{atoms - 3} bytes"


class NotCanonicalError(StrongeqError):
    """Raised when an operation requires canonical rules but got one with
    overlapping head/body sets."""
