"""Exception types shared across the package, and its rules for integer
and permutation input."""


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


_EXACT_INT = frozenset({int})


def is_permutation(perm, n: int) -> bool:
    """perm lists 0..n-1 once each in ints by is_int; a perm of exact ints
    settles that without a call per entry."""
    ints = _EXACT_INT.issuperset(map(type, perm)) or all(map(is_int, perm))
    return ints and sorted(perm) == list(range(n))
