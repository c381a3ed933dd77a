"""Finite automorphism groups of quivers, admissibility of an orbit map,
and the simply laced covers of the multiply laced Dynkin diagrams.

The cover table is fixed:

* B_n from A_{2n-1} with the end-to-end flip i <-> 2n-i,
* C_n from D_{n+1} swapping the two fork vertices, for n >= 3,
* C_2 from A_3 swapping the two ends, the middle vertex the source,
* F_4 from E_6 with the diagram flip 1<->6, 3<->5,
* G_2 from D_4 rotating the three outer vertices.

Each row also gives the base vertex of every lifted vertex; the map must
be constant on the orbits and take them one-to-one onto the base vertices.

An action is admissible on a matrix when its orbit quiver (an arrow
between two orbits wherever the matrix has one between their members)
has no loop and no 2-cycle.  That reads only the matrix and the orbit of
each vertex, so is_admissible takes the two, and the fold run tests it on
the matrices it walks with its own projection as the orbit map.  Folding
a quiver by an admissible action sums exchange-matrix entries over
orbits and takes stabilizer orders as the symmetrizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

from . import dynkin
from .algebra import Polynomial
from .dynkin import DynkinType
from .errors import FoldingError, InputError, is_permutation
from .quiver import (
    Label, Matrix, Quiver, ValuedQuiver, alternating_quiver, alternating_valued_quiver
)
from .seed import Perm, compose, fixes, product_perm


@dataclass(frozen=True)
class GroupAction:
    """A finite group of automorphisms of a quiver, given by generators."""

    quiver: Quiver
    generators: Tuple[Perm, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "generators", tuple(tuple(g) for g in self.generators)
        )
        for g in self.generators:
            if not is_permutation(g, self.quiver.n):
                raise InputError(f"generator {g} is not a permutation of the vertices")
            if not fixes(g, self.quiver.b):
                raise InputError(f"generator {g} is not a quiver automorphism")

    def group(self) -> FrozenSet[Perm]:
        identity = tuple(range(self.quiver.n))
        elems, frontier = {identity}, {identity}
        while frontier:
            frontier = {compose(g, p) for p in frontier for g in self.generators} - elems
            elems |= frontier
        return frozenset(elems)

    def orbits(self) -> Tuple[Tuple[int, ...], ...]:
        """Vertex orbits as sorted index tuples, ordered by smallest member."""
        group = self.group()
        seen = set()
        out = []
        for i in range(self.quiver.n):
            if i not in seen:
                orbit = sorted({p[i] for p in group})
                seen.update(orbit)
                out.append(tuple(orbit))
        return tuple(out)


def action_from_labels(quiver: Quiver, *maps: Mapping[Label, Label]) -> GroupAction:
    """Build a GroupAction from generator maps on vertex labels; labels not
    mentioned are fixed."""
    perms = []
    for m in maps:
        perm = [0] * quiver.n
        for i, v in enumerate(quiver.vertices):
            perm[i] = quiver.index(m.get(v, v))
        perms.append(tuple(perm))
    return GroupAction(quiver, tuple(perms))


def is_admissible(b: Matrix, orbit: Sequence[Label]) -> bool:
    """Whether the orbit quiver of b has no loop and no 2-cycle, orbit[i]
    naming the orbit of vertex i: no arrow of b joins two vertices of one
    orbit, and no two arrows join two orbits in opposite directions."""
    arrows = {(orbit[i], orbit[j]) for i, row in enumerate(b) for j, x in enumerate(row) if x > 0}
    return all(a != c and (c, a) not in arrows for a, c in arrows)


def valued_orbit_quiver(action: GroupAction) -> ValuedQuiver:
    """Fold by the action: sum matrix entries over source orbits, take
    stabilizer orders as the symmetrizer.  Orbit labels are the labels of
    their smallest members."""
    q = action.quiver
    orbits = action.orbits()
    first = {i: orbit[0] for orbit in orbits for i in orbit}
    if not is_admissible(q.b, [first[i] for i in range(q.n)]):
        raise FoldingError("action is not admissible: orbit quiver has a loop or 2-cycle")
    group_order = len(action.group())
    m = len(orbits)
    b = [[0] * m for _ in range(m)]
    for a, src in enumerate(orbits):
        for c, dst in enumerate(orbits):
            if a != c:
                rep = dst[0]
                b[a][c] = sum(q.b[i][rep] for i in src)
    d = tuple(group_order // len(orbit) for orbit in orbits)
    return ValuedQuiver(tuple(q.vertices[o[0]] for o in orbits), b, d)


# ---------------------------------------------------------------------------
# the cover table

# family (or type, for C2, since D3 is no type) -> a function of the rank n
# giving the lifted type, the generators of the folding group as maps on
# lifted labels, and the base vertex of each lifted vertex
_COVERS = {
    **{f: (lambda n, f=f: ((f, n), (), {i: i for i in range(1, n + 1)})) for f in "ADE"},
    "B": lambda n: (("A", 2 * n - 1), ({i: 2 * n - i for i in range(1, 2 * n)},),
                    {i: min(i, 2 * n - i) for i in range(1, 2 * n)}),
    "C": lambda n: (("D", n + 1), ({n: n + 1, n + 1: n},), {i: min(i, n) for i in range(1, n + 2)}),
    "C2": lambda n: (("A", 3), ({1: 3, 3: 1},), {1: 2, 2: 1, 3: 2}),
    "F": lambda n: (("E", 6), ({1: 6, 6: 1, 3: 5, 5: 3},), {1: 1, 6: 1, 3: 2, 5: 2, 4: 3, 2: 4}),
    "G": lambda n: (("D", 4), ({1: 3, 3: 4, 4: 1},), {1: 1, 3: 1, 4: 1, 2: 2}),
}


@dataclass(frozen=True)
class Lift:
    """Simply laced cover of a diagram together with its folding action."""

    base: DynkinType
    lifted_type: DynkinType
    quiver: Quiver
    action: GroupAction
    to_base: Mapping[Label, int]  # lifted vertex label -> base diagram vertex

    @property
    def trivial(self) -> bool:
        return not self.action.generators

    def folded_quiver(self) -> ValuedQuiver:
        """The valued orbit quiver relabeled by base vertices, in order."""
        folded = valued_orbit_quiver(self.action)
        reps = sorted(folded.vertices, key=self.to_base.__getitem__)
        sub = folded.full_subquiver(reps)
        return ValuedQuiver(tuple(self.to_base[r] for r in reps), sub.b, sub.d)


@lru_cache(maxsize=None)
def lift_dynkin(t: DynkinType) -> Lift:
    """The simply laced cover of t with its folding action, from the cover
    table; simply laced types lift to themselves with the trivial action.
    The cover is oriented so that a lifted vertex is a source exactly when
    its base vertex is (C2's A3 has its middle vertex as the source)."""
    lifted, generators, to_base = _COVERS.get(str(t), _COVERS[t.family])(t.rank)
    lifted = DynkinType(*lifted)
    q = alternating_quiver(lifted)
    if dynkin.bipartition(t).sign(to_base[1]) < 0:
        q = q.opposite()
    action = action_from_labels(q, *generators)
    images = [{to_base[q.vertices[i]] for i in orbit} for orbit in action.orbits()]
    if sorted(tuple(image) for image in images) != [(v,) for v in t.vertices]:
        raise FoldingError(f"the cover of {t} does not map its orbits one-to-one onto its vertices")
    lift = Lift(t, lifted, q, action, MappingProxyType(to_base))  # cached, so read-only
    if lift.folded_quiver() != alternating_valued_quiver(t):
        raise FoldingError(f"cover of {t} does not fold back onto it")
    return lift


def product_action(action_a: GroupAction, action_b: GroupAction, product) -> GroupAction:
    """The product group acting coordinatewise on a product of the two
    quivers, whose vertex (i, i') has the row-major index i * n' + i'."""
    ida, idb = tuple(range(action_a.quiver.n)), tuple(range(action_b.quiver.n))
    generators = [product_perm(g, idb) for g in action_a.generators]
    generators += [product_perm(ida, h) for h in action_b.generators]
    return GroupAction(product, tuple(generators))


def project_exponents(e: Sequence[int], proj: Sequence[int], n: int) -> Tuple[int, ...]:
    """The exponent vector in n variables that substitutes y_proj[i] for
    y_i in the monomial with exponents e."""
    out = [0] * n
    for idx, x in enumerate(e):
        if x:
            out[proj[idx]] += x
    return tuple(out)


def project_polynomial(p: Polynomial, proj: Sequence[int], n: int) -> Polynomial:
    """p with y_proj[i] substituted for y_i, in n variables."""
    terms: Dict[Tuple[int, ...], int] = {}
    for e, c in p.terms.items():
        e = project_exponents(e, proj, n)
        terms[e] = terms.get(e, 0) + c
    return Polynomial._raw(n, {e: c for e, c in terms.items() if c})
