"""The tau formulation of the Y-system: the automorphisms tau_+ and
tau_- of the field of values, each inverting the vertices of one parity
and applying the product formula at the others, whose alternation is the
first-order normalized system and whose composite is phi."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from . import dynkin
from .dynkin import DynkinType
from .errors import InputError

Values = Dict[Tuple[int, int], Fraction]


def vertex_parity(ta: DynkinType, tb: DynkinType, v: Tuple[int, int]) -> int:
    """+1 when both coordinates sit in the same class of their 2-colorings."""
    sa = dynkin.bipartition(ta).sign(v[0])
    sb = dynkin.bipartition(tb).sign(v[1])
    return sa * sb


def tau_automorphism(ta: DynkinType, tb: DynkinType, eps: int, values: Values) -> Values:
    """Value map of the automorphism tau_eps: vertices whose parity equals
    eps get the product formula, the others are inverted."""
    if eps not in (1, -1):
        raise InputError("eps must be +1 or -1")
    if set(values) != {(i, ip) for i in ta.vertices for ip in tb.vertices}:
        raise InputError(f"values must give exactly one value per vertex of {ta} x {tb}")
    a = dynkin.incidence_matrix(ta)
    ap = dynkin.incidence_matrix(tb)
    out: Values = {}
    for (i, ip), y in values.items():
        if vertex_parity(ta, tb, (i, ip)) == eps:
            val = y
            for j in ta.vertices:
                e = a[i - 1][j - 1]
                if e:
                    val *= (1 + values[(j, ip)]) ** e
            for jp in tb.vertices:
                e = ap[ip - 1][jp - 1]
                if e:
                    val *= (1 + 1 / values[(i, jp)]) ** (-e)
            out[(i, ip)] = val
        else:
            out[(i, ip)] = 1 / y
    return out


def normalized_step(values: Values, t: int, ta: DynkinType, tb: DynkinType) -> Values:
    """One step of the first-order normalized system: the slice at time
    t+1 from the slice at time t."""
    eps = 1 if (t + 1) % 2 == 0 else -1
    return tau_automorphism(ta, tb, eps, values)


def phi_automorphism(ta: DynkinType, tb: DynkinType, values: Values) -> Values:
    """Value map of phi = tau_minus after tau_plus."""
    return tau_automorphism(ta, tb, -1, tau_automorphism(ta, tb, 1, values))
