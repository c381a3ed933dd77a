"""Finite automorphism groups of quivers, orbit quivers, and the simply
laced covers of the multiply laced Dynkin diagrams.

The cover table is fixed:

* B_n from A_{2n-1} with the end-to-end flip i <-> 2n-i,
* C_n from D_{n+1} swapping the two fork vertices,
* F_4 from E_6 with the diagram flip 1<->6, 3<->5,
* G_2 from D_4 rotating the three outer vertices.

Folding a quiver by an admissible action sums exchange-matrix entries
over orbits and takes stabilizer orders as the symmetrizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

from .algebra import Polynomial
from .dynkin import DynkinType
from .errors import FoldingError, InputError
from .quiver import Label, Quiver, ValuedQuiver, alternating_quiver, alternating_valued_quiver
from .seed import Perm


@dataclass(frozen=True)
class OrbitDigraph:
    """Arrow-presence digraph on orbits; may contain loops and 2-cycles,
    so it is deliberately not an exchange matrix."""

    vertices: Tuple[Label, ...]
    arrows: FrozenSet[Tuple[Label, Label]]

    def has_loop(self) -> bool:
        return any(a == b for a, b in self.arrows)

    def has_two_cycle(self) -> bool:
        return any(a != b and (b, a) in self.arrows for a, b in self.arrows)


@dataclass(frozen=True)
class GroupAction:
    """A finite group of automorphisms of a quiver, given by generators."""

    quiver: Quiver
    generators: Tuple[Perm, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "generators", tuple(tuple(g) for g in self.generators)
        )
        n = self.quiver.n
        for g in self.generators:
            if sorted(g) != list(range(n)):
                raise InputError(f"generator {g} is not a permutation of the vertices")
            for i in range(n):
                for j in range(n):
                    if self.quiver.b[g[i]][g[j]] != self.quiver.b[i][j]:
                        raise InputError(
                            "generator is not a quiver automorphism "
                            f"(entry {i},{j} not preserved)"
                        )

    def group(self) -> FrozenSet[Perm]:
        n = self.quiver.n
        identity = tuple(range(n))
        elems = {identity}
        frontier = {identity}
        while frontier:
            new = set()
            for p in frontier:
                for g in self.generators:
                    q = tuple(g[p[i]] for i in range(n))
                    if q not in elems:
                        elems.add(q)
                        new.add(q)
            frontier = new
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


def orbit_quiver(action: GroupAction) -> OrbitDigraph:
    """Presence digraph of arrows between orbits; used for admissibility."""
    q = action.quiver
    orbits = action.orbits()
    label = {i: q.vertices[orbit[0]] for orbit in orbits for i in orbit}
    arrows = set()
    for i in range(q.n):
        for j in range(q.n):
            if q.b[i][j] > 0:
                arrows.add((label[i], label[j]))
    return OrbitDigraph(tuple(q.vertices[o[0]] for o in orbits), frozenset(arrows))


def is_admissible(action: GroupAction) -> bool:
    og = orbit_quiver(action)
    return not og.has_loop() and not og.has_two_cycle()


def valued_orbit_quiver(action: GroupAction) -> ValuedQuiver:
    """Fold by the action: sum matrix entries over source orbits, take
    stabilizer orders as the symmetrizer.  Orbit labels are the labels of
    their smallest members."""
    if not is_admissible(action):
        raise FoldingError("action is not admissible: orbit quiver has a loop or 2-cycle")
    q = action.quiver
    orbits = action.orbits()
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

@dataclass(frozen=True)
class Lift:
    """Simply laced cover of a diagram together with its folding action."""

    base: DynkinType
    lifted_type: DynkinType
    quiver: Quiver
    action: GroupAction
    orbit_to_vertex: Mapping[Tuple[int, ...], int]  # orbit (index tuple) -> base vertex

    @property
    def trivial(self) -> bool:
        return not self.action.generators

    def base_vertices(self) -> Dict[Label, int]:
        """lifted vertex label -> base diagram vertex."""
        return {
            self.quiver.vertices[i]: base_vertex
            for orbit, base_vertex in self.orbit_to_vertex.items()
            for i in orbit
        }

    def folded_quiver(self) -> ValuedQuiver:
        """The valued orbit quiver relabeled by base vertices, in order."""
        folded = valued_orbit_quiver(self.action)
        orbits = self.action.orbits()
        order = sorted(range(len(orbits)), key=lambda a: self.orbit_to_vertex[orbits[a]])
        reps = [orbits[a][0] for a in order]
        idx = [folded.index(self.quiver.vertices[r]) for r in reps]
        return ValuedQuiver(
            tuple(self.orbit_to_vertex[orbits[a]] for a in order),
            tuple(tuple(folded.b[i][j] for j in idx) for i in idx),
            tuple(folded.d[i] for i in idx),
        )


@lru_cache(maxsize=None)
def lift_dynkin(t: DynkinType) -> Lift:
    """The simply laced cover of t with its folding action; simply laced
    types lift to themselves with the trivial action."""
    if t.simply_laced:
        q = alternating_quiver(t)
        action = GroupAction(q, ())
        mapping = {(i,): v for i, v in enumerate(q.vertices)}
        return Lift(t, t, q, action, mapping)
    n = t.rank
    if t.family == "B":
        lifted = DynkinType("A", 2 * n - 1)
        q = alternating_quiver(lifted)
        action = action_from_labels(q, {i: 2 * n - i for i in q.vertices})
        mapping = {}
        for orbit in action.orbits():
            mapping[orbit] = min(q.vertices[i] for i in orbit)
    elif t.family == "C":
        lifted = DynkinType("D", n + 1)
        q = alternating_quiver(lifted)
        action = action_from_labels(q, {n: n + 1, n + 1: n})
        mapping = {orbit: min(q.vertices[i] for i in orbit) for orbit in action.orbits()}
    elif t.family == "F":
        lifted = DynkinType("E", 6)
        q = alternating_quiver(lifted)
        action = action_from_labels(q, {1: 6, 6: 1, 3: 5, 5: 3})
        by_members = {
            frozenset({1, 6}): 1,
            frozenset({3, 5}): 2,
            frozenset({4}): 3,
            frozenset({2}): 4,
        }
        mapping = {
            orbit: by_members[frozenset(q.vertices[i] for i in orbit)]
            for orbit in action.orbits()
        }
    else:  # G2
        lifted = DynkinType("D", 4)
        q = alternating_quiver(lifted)
        action = action_from_labels(q, {1: 3, 3: 4, 4: 1})
        by_members = {frozenset({1, 3, 4}): 1, frozenset({2}): 2}
        mapping = {
            orbit: by_members[frozenset(q.vertices[i] for i in orbit)]
            for orbit in action.orbits()
        }
    lift = Lift(t, lifted, q, action, mapping)
    if lift.folded_quiver() != alternating_valued_quiver(t):
        raise FoldingError(f"cover of {t} does not fold back onto it")
    return lift


def product_action(action_a: GroupAction, action_b: GroupAction, product) -> GroupAction:
    """The product group acting coordinatewise on a product quiver."""
    maps = []
    for g in action_a.generators:
        maps.append(
            {
                (u, v): (action_a.quiver.vertices[g[action_a.quiver.index(u)]], v)
                for (u, v) in product.vertices
            }
        )
    for g in action_b.generators:
        maps.append(
            {
                (u, v): (u, action_b.quiver.vertices[g[action_b.quiver.index(v)]])
                for (u, v) in product.vertices
            }
        )
    return action_from_labels(product, *maps)


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
