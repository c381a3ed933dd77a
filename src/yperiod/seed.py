"""Seeds in factored form: exchange matrix, tropical exponent vectors,
numerator polynomials with constant term one, and degree vectors.

A seed never stores expanded rational functions.  The Y-variable at a
vertex is reconstructed as the Laurent monomial of its c-vector times a
product of F-polynomial powers read off the current matrix, and the
X-variable as an F-polynomial substitution times a Laurent monomial;
equality of symbolic expressions is certified by exact evaluation at
positive rational points.

Degree vectors are mutated forward with the tropical sign of the
exponent vector at the flipped vertex (Fomin-Zelevinsky, Cluster
algebras IV; Nakanishi-Zelevinsky), so a seed is plain state: matrix,
symmetrizer, tropical, degree and polynomial data, with no history.
X-variables are read against an initial matrix the caller names.  A
JSON snapshot carries all of the state and resumes exactly like the
seed it was taken from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import neg
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Seed's entry to the exchange kernel: exchange_args builds vectors of
# nonnegative ints and (F, positive power) factors of this seed, so the type
# checks of algebra.exchange are not repeated; the test of the divisor's
# constant term is kept
from .algebra import Polynomial, _exchange as exchange
from .errors import DivisibilityError, InputError, SeedInvariantError, is_int, is_permutation
from .quiver import (
    Matrix, Quiver, ValuedQuiver, check_block, int_rows_from_json, ints_from_json, mutate_matrix
)


# A vertex permutation.  Seed.relabel(perm) gives vertex j the data of
# vertex perm[j]; GroupAction reads perm[i] as the image of i.  The two
# readings are inverse to each other, and a group is closed under
# inverses, so the elements of a group may be read either way.
Perm = Tuple[int, ...]


def _unit(n: int, i: int) -> Tuple[int, ...]:
    return (0,) * i + (1,) + (0,) * (n - i - 1)


def _sign_coherent(vec: Sequence[int]) -> bool:
    return not vec or not min(vec) < 0 < max(vec)


def _laurent(point: Sequence[Fraction], exps: Sequence[int]) -> Fraction:
    """The Laurent monomial with these exponents, at the point."""
    if len(point) != len(exps):
        raise InputError("dimension mismatch in monomial evaluation")
    val = Fraction(1)
    for x, e in zip(point, exps):
        if e:
            val *= Fraction(x) ** e
    return val


@dataclass(frozen=True)
class YExpression:
    """Factored Y-variable: y^eta * prod F_i^{b_ij}, never expanded; eta
    is the c-vector."""

    eta: Tuple[int, ...]
    factors: Tuple[Tuple[Polynomial, int], ...]

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        val = _laurent(point, self.eta)
        for poly, exp in self.factors:
            if exp:
                val *= poly.evaluate(point) ** exp
        return val


@dataclass(frozen=True)
class XExpression:
    """Factored cluster variable: F(yhat_1..yhat_n) * prod x_j^{g_j},
    with yhat_j read off the initial exchange matrix."""

    f: Polynomial
    g: Tuple[int, ...]
    b0: Matrix

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        # yhat_j is the monomial of column j of b0
        yhat = [_laurent(point, col) for col in zip(*self.b0)]
        return self.f.evaluate(yhat) * _laurent(point, self.g)


@dataclass(frozen=True)
class Seed:
    """Exchange matrix with per-vertex tropical, polynomial and degree data."""

    b: Matrix
    d: Tuple[int, ...]
    c: Tuple[Tuple[int, ...], ...]  # c[j] = exponent vector of the tropical variable at j
    g: Tuple[Tuple[int, ...], ...]  # g[j] = degree vector of the cluster variable at j
    f: Tuple[Polynomial, ...]

    @property
    def n(self) -> int:
        return len(self.b)

    # -- construction ------------------------------------------------------

    @classmethod
    def initial(cls, q) -> "Seed":
        """The initial seed of a quiver or valued quiver: identity tropical
        data, unit polynomials, standard basis degree vectors."""
        if not isinstance(q, (Quiver, ValuedQuiver)):
            raise InputError("initial seed needs a quiver or valued quiver")
        if q.has_loops_or_two_cycles():
            raise InputError("quiver has loops or 2-cycles")
        n = q.n
        # c and g share the unit rows, and every vertex the unit polynomial:
        # all are immutable
        units = tuple(_unit(n, j) for j in range(n))
        return cls(b=q.b, d=q.d, c=units, g=units, f=(Polynomial.one(n),) * n)

    # -- mutation ----------------------------------------------------------

    def mutate(self, k: int, f: Optional[Polynomial] = None) -> "Seed":
        """Mutate at vertex index k: matrix rule, tropical rule, degree
        rule and exchange relation with exact division.  f, when given, is
        the new F-polynomial at k, known without the exchange (a symmetric
        vertex's, renamed); every check runs on it all the same.  The input
        seed is untouched.  A broken invariant raises SeedInvariantError,
        whose message ends with this seed as one line of JSON and k, so
        that Seed.from_json(snapshot).mutate(k) raises it again."""
        # an exact int in range passes without a call per step; anything
        # else goes through errors.is_int
        if not (type(k) is int and 0 <= k < self.n):
            self._check_index(k)
        if f is not None and not (isinstance(f, Polynomial) and f.nvars == self.n):
            raise InputError(f"the given F {f!r} is not a polynomial in {self.n} variables")
        try:
            return self._mutate(k, f)
        except SeedInvariantError as exc:
            raise SeedInvariantError(
                f"{exc}; mutating vertex {k} of seed {json.dumps(self.to_json())}"
            ) from exc

    def _check_index(self, k) -> None:
        """Refuse a vertex index that is not an int (errors.is_int: True
        would read vertex 1) in range(n)."""
        if not (is_int(k) and 0 <= k < self.n):
            raise InputError(f"vertex index {k!r} is not an int in range({self.n})")

    def exchange_args(self, k: int) -> tuple:
        """The arguments of the exchange that gives the new F at k.

        Both polynomial products read column k: the positive c-monomial
        pairs with the positive column part, the negative with the
        negative part.  This is the pairing that reproduces the direct
        Y-dynamics, and in the skew-symmetrizable case the column
        magnitudes (not the row ones) are what the folding covers force."""
        ck, f = self.c[k], self.f
        # a unit factor changes neither the product nor, adding 0 to
        # every exponent bound and 1 to every norm product, the slots
        col = [(j, row[k]) for j, row in enumerate(self.b) if row[k] and not f[j].is_one()]
        return (
            [e if e > 0 else 0 for e in ck],
            [(f[j], x) for j, x in col if x > 0],
            [-e if e < 0 else 0 for e in ck],
            [(f[j], -x) for j, x in col if x < 0],
            f[k],
        )

    def _mutate(self, k: int, fk: Optional[Polynomial]) -> "Seed":
        # mutation at k changes only the data at k and at its neighbours,
        # the j with b[k][j] != 0 (equivalently b[j][k] != 0); the rest is
        # shared with this seed
        b, c, g = self.b, self.c, self.g
        ck = c[k]
        one_plus = [e if e < 0 else 0 for e in ck]  # exponents of 1 (+) eta_k
        one_plus_inv = [-e if e > 0 else 0 for e in ck]  # exponents of 1 (+) eta_k^{-1}

        # a neighbour j whose m is 0 keeps its tuple c_j: of a sign-coherent
        # c_k, one of the two parts is 0
        new_c, row = list(c), b[k]
        neighbours = list(compress(range(len(row)), row))
        for j in neighbours:
            bkj = row[j]
            m = one_plus_inv if bkj > 0 else one_plus
            if any(m):
                new_c[j] = tuple([e - bkj * x for e, x in zip(c[j], m)])
        new_c[k] = tuple(map(neg, ck))

        if fk is None:
            try:
                fk = exchange(*self.exchange_args(k))
            except DivisibilityError as exc:
                raise SeedInvariantError(
                    f"exchange relation failed to divide at vertex {k}: {exc}"
                ) from exc
        new_f = list(self.f)
        new_f[k] = fk

        # g'_k = -g_k + sum_i [-eps b_ik]_+ g_i, eps the sign of c_k; only
        # the neighbours i of k have b_ik != 0
        eps = -1 if min(ck) < 0 else 1
        gk = [-x for x in g[k]]
        for i in neighbours:
            w = -eps * b[i][k]
            if w > 0:
                gk = [x + w * y for x, y in zip(gk, g[i])]
        new_g = list(g)
        new_g[k] = tuple(gk)

        # built past the constructor, like Quiver._raw: every field is
        # derived from this seed's, and _check tests what the step rebuilt
        seed = object.__new__(Seed)
        seed.__dict__.update(
            b=mutate_matrix(b, k),
            d=self.d,
            c=tuple(new_c),
            g=tuple(new_g),
            f=tuple(new_f),
        )
        seed._check((k,), (k, *neighbours))
        return seed

    def mutate_block(self, ks: Sequence[int]) -> "Seed":
        """Composite mutation at pairwise non-adjacent vertices."""
        for k in ks:
            self._check_index(k)
        check_block(self.b, ks, tuple(ks))
        out = self
        for k in ks:
            out = out.mutate(k)
        return out

    # -- invariants ----------------------------------------------------------

    def _check(self, ks: Iterable[int], cs: Sequence[int]) -> None:
        """The F-polynomials at ks have constant term 1 and nonnegative
        coefficients, and the c-vectors at cs are sign-coherent.

        A step passes the vertex it mutated as ks and, as cs, that vertex
        and its neighbours: the c-vectors it rebuilt.  Every other
        c-vector is the parent seed's own tuple, tested when it was made,
        so every c-vector of every seed is still tested; Seed.from_json,
        which trusts nothing, passes every vertex as both."""
        for j in ks:
            if self.f[j].constant_term() != 1:
                raise SeedInvariantError(f"F-polynomial at {j} lost its unit constant term")
            if not self.f[j].has_nonnegative_coefficients():
                raise SeedInvariantError(f"F-polynomial at {j} has a negative coefficient")
        c = self.c
        if not all(map(_sign_coherent, map(c.__getitem__, cs))):
            j = next(j for j in cs if not _sign_coherent(c[j]))
            raise SeedInvariantError(f"tropical exponent vector at {j} is not sign-coherent")

    # -- derived data ----------------------------------------------------------

    def g_vectors(self) -> Tuple[Tuple[int, ...], ...]:
        """Degree vectors of the current cluster relative to the initial one."""
        return self.g

    def y_expression(self, j: int) -> YExpression:
        self._check_index(j)
        return YExpression(
            eta=self.c[j],
            factors=tuple(
                (self.f[i], self.b[i][j]) for i in range(self.n) if self.b[i][j]
            ),
        )

    def x_expression(self, j: int, b0: Matrix) -> XExpression:
        """The cluster variable at j, read against b0, the initial
        exchange matrix of the pattern this seed belongs to."""
        self._check_index(j)
        return XExpression(f=self.f[j], g=self.g[j], b0=b0)

    def equals(self, other: "Seed") -> bool:
        """Exact fieldwise equality of two seeds of one rank and
        symmetrizer."""
        if not isinstance(other, Seed):
            raise InputError("can only compare seeds")
        if self.n != other.n or self.d != other.d:
            raise InputError("seeds have different rank or symmetrizer")
        return self == other

    def relabel(self, perm: Sequence[int]) -> "Seed":
        """The seed whose vertex j is this seed's vertex perm[j]: matrix,
        symmetrizer, tropical, degree and polynomial data move with their
        vertex, and the vectors and polynomials keep their coordinates in
        the initial seed.  Mutation commutes with it:
        s.relabel(p).mutate(k) equals s.mutate(p[k]).relabel(p).  A perm
        that is not a permutation of the vertices raises InputError."""
        if not is_permutation(perm, self.n):
            raise InputError(f"{tuple(perm)} is not a permutation of the {self.n} vertices")
        return self._relabel(perm)

    def _relabel(self, perm: Sequence[int]) -> "Seed":
        """relabel, for a perm already known to be a permutation in ints."""
        b = self.b
        return Seed(
            b=tuple(tuple(b[i][j] for j in perm) for i in perm),
            d=tuple(self.d[j] for j in perm),
            c=tuple(self.c[j] for j in perm),
            g=tuple(self.g[j] for j in perm),
            f=tuple(self.f[j] for j in perm),
        )

    def relabelling_of(self, other: "Seed") -> Optional[Tuple[int, ...]]:
        """The permutation p with self equal to other.relabel(p), or None.
        p is read off the tropical data, c[j] = other.c[p[j]]; every
        field is then compared."""
        where = {v: i for i, v in enumerate(other.c)}
        perm = tuple(map(where.get, self.c))
        # past this test perm is a permutation in ints, which _relabel needs
        if None in perm or sorted(perm) != list(range(other.n)):
            return None
        twin = other._relabel(perm)
        return perm if twin.d == self.d and self.equals(twin) else None

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "b": [list(row) for row in self.b],
            "d": list(self.d),
            "c": [list(v) for v in self.c],
            "f": [p.text() for p in self.f],
            "g": [list(v) for v in self.g],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Seed":
        """Rebuild a seed snapshot; it mutates on exactly like the seed
        it was taken from.  A malformed snapshot, one that breaks a seed
        invariant included, raises InputError.  The initial matrix that
        older snapshots carry is ignored."""
        try:
            b = int_rows_from_json(obj["b"], "b")
            n = len(b)
            d = ints_from_json(obj.get("d", (1,) * n), "d")
            c = int_rows_from_json(obj["c"], "c")
            f = obj["f"]
            g = int_rows_from_json(obj["g"], "g")
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad seed JSON: {exc}") from exc
        if not isinstance(f, (list, tuple)) or not all(isinstance(s, str) for s in f):
            raise InputError("'f' must be an array of polynomial strings")
        f = tuple(Polynomial.parse(n, s) for s in f)
        if not (len(d) == len(c) == len(f) == len(g) == n) or any(
            len(row) != n for row in c + g
        ):
            raise InputError("seed JSON fields have inconsistent lengths")
        # positive d, zero diagonal and d_i b_ij = -d_j b_ji, or InputError
        ValuedQuiver(tuple(range(n)), b, d)
        seed = cls(b=b, d=d, c=c, g=g, f=f)
        try:
            seed._check(range(n), range(n))
        except SeedInvariantError as exc:
            raise InputError(f"bad seed JSON: {exc}") from exc
        return seed


# ---------------------------------------------------------------------------
# vertex permutations, in the convention of Seed.relabel

def is_identity(perm: Perm) -> bool:
    return perm == tuple(range(len(perm)))


def compose(p: Perm, q: Perm) -> Perm:
    """p o q: j -> p[q[j]]."""
    return tuple(p[i] for i in q)


def product_perm(alpha: Perm, beta: Perm) -> Perm:
    """alpha x beta on a product in row-major order, vertex (i, i') at
    i * n' + i': it takes (i, i') to (alpha[i], beta[i'])."""
    n = len(beta)
    return tuple(a * n + b for a in alpha for b in beta)


def power(perm: Perm, m: int) -> Perm:
    out = tuple(range(len(perm)))
    for _ in range(m):
        out = compose(out, perm)
    return out


def fixes(perm: Perm, b: Matrix, d: Sequence[int] = (), sign: int = 1) -> bool:
    """perm fixes the symmetrizer d, and the matrix b up to the sign, a row
    at a time: row perm[i] of b, read at perm, is sign times row i."""
    n = len(perm)
    if not all(d[k] == x for k, x in zip(perm, d)):
        return False
    for i, k in enumerate(perm):
        row, want = b[k], b[i][:n]
        if sign != 1:
            want = [sign * x for x in want]
        if tuple([row[p] for p in perm]) != tuple(want):
            return False
    return True


def graph_automorphisms(b: Matrix) -> List[Perm]:
    """The permutations p with |b[p[i]][p[j]]| == |b[i][j]| for all i, j:
    the automorphisms of the valued graph under b, found by extending a
    partial map one vertex at a time (for a Dynkin diagram, at most S3).
    An automorphism keeps the sorted |row| and |column| of each vertex, so
    only the vertices that share them are tried as its image."""
    n, out = len(b), []
    shape = list(zip([sorted(map(abs, row[:n])) for row in b],
                     [sorted(map(abs, col)) for col in zip(*b)]))
    images = [[x for x in range(n) if shape[x] == shape[i]] for i in range(n)]

    def extend(p: List[int]) -> None:
        i = len(p)
        if i == n:
            out.append(tuple(p))
            return
        for x in images[i]:
            if x not in p and all(
                abs(b[x][y]) == abs(b[i][j]) and abs(b[y][x]) == abs(b[j][i])
                for j, y in enumerate(p)
            ):
                extend(p + [x])

    extend([])
    return out


def orbit_renamings(
    blocks: Iterable[Sequence[int]], group: Sequence[Perm]
) -> Dict[int, Tuple[int, Perm]]:
    """For every vertex w that is not the first of its orbit under the
    group in its block (blocks and their vertices in mutation order): the
    first vertex v of that orbit and an element g of the group with
    g[v] = w.  Every element must map each block onto itself."""
    out: Dict[int, Tuple[int, Perm]] = {}
    seen = set()
    for block in blocks:
        for v in block:
            if v in seen:
                continue
            seen.add(v)
            for g in group:
                if g[v] not in seen:
                    seen.add(g[v])
                    out[g[v]] = (v, g)
    return out
