"""Exception types shared across the package."""

import math


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
            f"({_size(1 << count)}), over the memory budget of 2^{limit} bits "
            f"({_size(1 << limit)})",
        )
        self.count = count
        self.limit = limit


class TableBudgetError(TooManyAtomsError):
    """Raised before a verify scan builds its rules and tables when they
    would pass the memory budget; `bits` is their size, or with at_least
    a bound from below, and `limit` the budget, both in bits."""

    def __init__(self, what: str, count: int, bits: int, limit: int, at_least: bool = False):
        StrongeqError.__init__(
            self,
            f"{what}: {count} atoms need row tables of {'at least' if at_least else 'about'} "
            f"{_size(bits)}, over the memory budget of 2^{limit.bit_length() - 1} bits "
            f"({_size(limit)})",
        )
        self.count = count
        self.bits = bits
        self.limit = limit


def _size(bits: int) -> str:
    """A size of so many bits in binary units, to three figures; past
    1024 EiB, as the nearest power of two of its bytes."""
    exponent = math.log2(max(bits, 1)) - 3  # of the bytes
    for unit in ("bytes", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"):
        if exponent < 10:
            return f"{2**exponent:.3g} {unit}"
        exponent -= 10
    return f"2^{math.log2(bits) - 3:.0f} bytes"


class NotCanonicalError(StrongeqError):
    """Raised when an operation requires canonical rules but got one with
    overlapping head/body sets."""
