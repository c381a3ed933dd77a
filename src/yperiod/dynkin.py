"""Dynkin diagram data: Cartan matrices, bipartitions, Coxeter elements.

Vertex numbering is fixed so that matrices and reports are reproducible:

* ``A_n``: the path 1 - 2 - ... - n.
* ``B_n``/``C_n``: the path 1 - ... - n with the double bond between n-1
  and n; for B_n the Cartan entry c[n-1][n] is -2 (symmetrizer
  1,...,1,2), for C_n it is c[n][n-1] (symmetrizer 2,...,2,1).  This
  orientation matches the realizations of B_n and C_n as quotients of
  A_{2n-1} and D_{n+1}.
* ``D_n``: the path 1 - ... - (n-2) with the fork n-1, n attached to n-2.
* ``E_n``: the chain 1-3-4-5-...-n with vertex 2 attached to 4 (Bourbaki).
* ``F_4``: the path 1-2-3-4 with c[2][3] = -2, symmetrizer (1,1,2,2).
* ``G_2``: the edge 1-2 with c[1][2] = -3, symmetrizer (1,3).

Coxeter numbers are computed as the multiplicative order of the bipartite
Coxeter element acting on the root lattice, never looked up.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, List, Tuple

from .errors import InputError, is_int

Matrix = Tuple[Tuple[int, ...], ...]

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_PARSE_RE = re.compile(r"^([A-Ga-g])\s*(\d+)$")


@dataclass(frozen=True, order=True)
class DynkinType:
    """A finite-type diagram, e.g. DynkinType('A', 4)."""

    family: str
    rank: int

    def __post_init__(self):
        family = str(self.family).upper()
        object.__setattr__(self, "family", family)
        if not is_int(self.rank):
            raise InputError(f"rank must be an integer, not {self.rank!r}")
        if family not in _RANK_RANGE:
            raise InputError(f"unknown family {self.family!r}")
        lo, hi = _RANK_RANGE[family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InputError(f"illegal rank {self.rank} for family {family}")

    @classmethod
    def parse(cls, text: str) -> "DynkinType":
        m = _PARSE_RE.match(text.strip())
        if not m:
            raise InputError(f"cannot parse Dynkin type {text!r}")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def simply_laced(self) -> bool:
        return self.family in ("A", "D", "E")

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(range(1, self.rank + 1))


def edges(t: DynkinType) -> Tuple[Tuple[int, int], ...]:
    """Undirected diagram edges as 1-based vertex pairs."""
    n = t.rank
    if t.family in ("A", "B", "C", "F", "G"):
        return tuple((i, i + 1) for i in range(1, n))
    if t.family == "D":
        return tuple((i, i + 1) for i in range(1, n - 2)) + ((n - 2, n - 1), (n - 2, n))
    # E: Bourbaki numbering, branch vertex 4 carries the extra node 2
    chain = [(1, 3), (3, 4), (4, 5), (5, 6)]
    if n >= 7:
        chain.append((6, 7))
    if n == 8:
        chain.append((7, 8))
    chain.append((2, 4))
    return tuple(chain)


@lru_cache(maxsize=None)
def cartan_matrix(t: DynkinType) -> Matrix:
    """The Cartan matrix in the numbering documented above."""
    n = t.rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges(t):
        c[i - 1][j - 1] = -1
        c[j - 1][i - 1] = -1
    if t.family == "B":
        c[n - 2][n - 1] = -2
    elif t.family == "C":
        c[n - 1][n - 2] = -2
    elif t.family == "F":
        c[1][2] = -2
    elif t.family == "G":
        c[0][1] = -3
    return tuple(tuple(row) for row in c)


@lru_cache(maxsize=None)
def symmetrizer(t: DynkinType) -> Tuple[int, ...]:
    """Minimal positive integer diagonal d with diag(d) . C symmetric."""
    c = cartan_matrix(t)
    n = t.rank
    d: List[Fraction] = [Fraction(0)] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and c[i][j] and d[j] == 0:
                # d_i c_ij = d_j c_ji along every edge
                d[j] = d[i] * c[i][j] / c[j][i]
                stack.append(j)
    denom = math.lcm(*(v.denominator for v in d))
    ints = [int(v * denom) for v in d]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    for i in range(n):
        for j in range(n):
            if ints[i] * c[i][j] != ints[j] * c[j][i]:
                raise InputError(f"Cartan matrix of {t} is not symmetrizable")
    return tuple(ints)


def incidence_matrix(t: DynkinType) -> Matrix:
    """A = 2J - C; symmetric exactly for the simply laced families."""
    c = cartan_matrix(t)
    n = t.rank
    return tuple(
        tuple((2 if i == j else 0) - c[i][j] for j in range(n)) for i in range(n)
    )


@dataclass(frozen=True)
class Bipartition:
    """The 2-coloring of the diagram, vertex 1 in the plus class."""

    plus: FrozenSet[int]
    minus: FrozenSet[int]

    def sign(self, v: int) -> int:
        if v in self.plus:
            return 1
        if v in self.minus:
            return -1
        raise InputError(f"unknown vertex {v}")


@lru_cache(maxsize=None)
def bipartition(t: DynkinType) -> Bipartition:
    adj: Dict[int, List[int]] = {v: [] for v in t.vertices}
    for i, j in edges(t):
        adj[i].append(j)
        adj[j].append(i)
    color = {1: 1}
    queue = [1]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in color:
                color[w] = -color[v]
                queue.append(w)
    plus = frozenset(v for v in t.vertices if color[v] == 1)
    return Bipartition(plus=plus, minus=frozenset(t.vertices) - plus)


def simple_reflection_matrix(cartan: Matrix, i: int) -> Matrix:
    """Matrix of s_i on the root lattice in the simple root basis (0-based i)."""
    n = len(cartan)
    rows = []
    for r in range(n):
        if r != i:
            rows.append(tuple(1 if s == r else 0 for s in range(n)))
        else:
            rows.append(tuple((1 if s == i else 0) - cartan[i][s] for s in range(n)))
    return tuple(rows)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _bipartite_coxeter_matrix(t: DynkinType) -> Matrix:
    """Product of all simple reflections: the minus class first, then plus."""
    c = cartan_matrix(t)
    bip = bipartition(t)
    m = _identity(t.rank)
    for v in sorted(bip.minus):
        m = _mat_mul(simple_reflection_matrix(c, v - 1), m)
    for v in sorted(bip.plus):
        m = _mat_mul(simple_reflection_matrix(c, v - 1), m)
    return m


def coxeter_element(t: DynkinType) -> Matrix:
    """The bipartite Coxeter element of the canonical 2-coloring, as a
    lattice automorphism.

    Only exposed for simply laced types; the multiply laced diagrams are
    handled through their simply laced covers elsewhere.
    """
    if not t.simply_laced:
        raise InputError(f"{t} is not simply laced")
    return _bipartite_coxeter_matrix(t)


MATRIX_ORDER_LIMIT = 512  # above every Coxeter number (at most 30)


def matrix_order(m: Matrix) -> int:
    """Multiplicative order of an integer matrix, or raise past MATRIX_ORDER_LIMIT."""
    n = len(m)
    ident = _identity(n)
    power = m
    for k in range(1, MATRIX_ORDER_LIMIT + 1):
        if power == ident:
            return k
        power = _mat_mul(power, m)
    raise InputError(f"matrix order exceeds {MATRIX_ORDER_LIMIT}")


@lru_cache(maxsize=None)
def coxeter_number(t: DynkinType) -> int:
    """Order of the bipartite Coxeter element on the root lattice."""
    return matrix_order(_bipartite_coxeter_matrix(t))


@lru_cache(maxsize=None)
def positive_roots(t: DynkinType) -> FrozenSet[Tuple[int, ...]]:
    """Closure of the simple roots under simple reflections, kept positive."""
    if not t.simply_laced:
        raise InputError(f"{t} is not simply laced")
    c = cartan_matrix(t)
    n = t.rank
    refls = [simple_reflection_matrix(c, i) for i in range(n)]

    def apply(m: Matrix, v: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(sum(m[r][s] * v[s] for s in range(n)) for r in range(n))

    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = set(roots)
    while frontier:
        new = set()
        for v in frontier:
            for m in refls:
                w = apply(m, v)
                if w not in roots:
                    roots.add(w)
                    new.add(w)
        frontier = new
    return frozenset(v for v in roots if all(x >= 0 for x in v))
