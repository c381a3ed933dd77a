"""The direct Y-system recurrence of a pair of Dynkin diagrams, on exact
positive rational slices (Fomin-Zelevinsky, hep-th/0111053).  Its
verifier, verify_direct_ysystem, is in ysystem.py with the other two."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import dynkin
from .dynkin import DynkinType
from .errors import InputError

Pair = Tuple[DynkinType, DynkinType]


def pair_vertices(ta: DynkinType, tb: DynkinType) -> Tuple[Tuple[int, int], ...]:
    return tuple((i, ip) for i in ta.vertices for ip in tb.vertices)


@dataclass(frozen=True)
class YSystemState:
    """Two consecutive exact-value slices of the recurrence."""

    pair: Pair
    prev: Tuple[Fraction, ...]  # slice t-1, indexed like pair_vertices
    curr: Tuple[Fraction, ...]  # slice t

    def __post_init__(self):
        _check_slices(self.pair, (self.prev, self.curr))


def _check_slices(pair: Pair, slices: Sequence[Tuple[Fraction, ...]]) -> None:
    n = pair[0].rank * pair[1].rank
    if any(len(values) != n for values in slices):
        raise InputError("slice length does not match the vertex count")
    # a Fraction's denominator is positive
    if any(v.numerator <= 0 for values in slices for v in values):
        raise InputError("Y-system values must be strictly positive")


def initial_state(ta: DynkinType, tb: DynkinType, prev: Sequence, curr: Sequence) -> YSystemState:
    return YSystemState((ta, tb), tuple(map(Fraction, prev)), tuple(map(Fraction, curr)))


@lru_cache(maxsize=None)
def _recurrence_table(ta: DynkinType, tb: DynkinType):
    """Per vertex of pair_vertices, in their row-major order, the (index,
    exponent) pairs of the factors 1 + Y[j,i'] and 1 + 1/Y[i,j'] of y_system_step."""
    a, ap = dynkin.incidence_matrix(ta), dynkin.incidence_matrix(tb)
    r = tb.rank
    return tuple(
        (tuple((j * r + ip, e) for j, e in enumerate(a[i]) if e),
         tuple((i * r + jp, e) for jp, e in enumerate(ap[ip]) if e))
        for i in range(ta.rank) for ip in range(r)
    )


def y_system_step(state: YSystemState) -> YSystemState:
    """Advance one time slice of the recurrence

    Y[i,i',t+1] = prod_j (1+Y[j,i',t])^{a_ij}
                  / ( prod_j' (1+1/Y[i,j',t])^{a'_i'j'} * Y[i,i',t-1] ).

    With Y = p/q in lowest terms, 1 + Y = (p+q)/q and 1 + 1/Y = (p+q)/p,
    so each value is one integer quotient, reduced once."""
    ps = [v.numerator for v in state.curr]
    qs = [v.denominator for v in state.curr]
    sums = [p + q for p, q in zip(ps, qs)]
    nxt: List[Fraction] = []
    for (plus, minus), y in zip(_recurrence_table(*state.pair), state.prev):
        num, den = y.denominator, y.numerator
        for k, e in plus:
            num *= sums[k] ** e
            den *= qs[k] ** e
        for k, e in minus:
            num *= ps[k] ** e
            den *= sums[k] ** e
        nxt.append(Fraction(num, den))
    curr = tuple(nxt)
    # built past __post_init__: the new prev, state.curr, was tested when
    # state was built, so only the new slice is
    _check_slices(state.pair, (curr,))
    out = object.__new__(YSystemState)
    out.__dict__.update(pair=state.pair, prev=state.curr, curr=curr)
    return out
