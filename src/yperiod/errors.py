"""Exception types shared across the package, and its rule for integer
input."""


class InputError(ValueError):
    """Malformed caller input: unknown vertex, bad rank, unparseable data."""


class DivisibilityError(ArithmeticError):
    """Exact polynomial division left a remainder.

    On valid seed data the exchange recursion always divides exactly, so
    this surfacing means the caller fed corrupt data or there is a bug.
    """


class SeedInvariantError(RuntimeError):
    """A seed invariant broke after a mutation; indicates a bug upstream."""


class FoldingError(RuntimeError):
    """A group action stopped being admissible while folding."""


def is_int(x) -> bool:
    """An int and not a bool: counts and JSON integers are checked with
    this, so 2.5, True and "3" are refused, not truncated."""
    return isinstance(x, int) and not isinstance(x, bool)
