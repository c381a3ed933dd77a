"""Seeds in factored form: exchange matrix, tropical exponent vectors,
numerator polynomials with constant term one, and degree vectors.

A seed never stores expanded rational functions.  The Y-variable at a
vertex is reconstructed as the tropical monomial times a product of
F-polynomial powers read off the current matrix, and the X-variable as
an F-polynomial substitution times a Laurent monomial; equality of
symbolic expressions is certified by exact evaluation at positive
rational points.

Degree vectors are mutated forward with the tropical sign of the
exponent vector at the flipped vertex (Fomin-Zelevinsky, Cluster
algebras IV; Nakanishi-Zelevinsky), so a seed is plain state: matrix,
tropical, degree and polynomial data, plus the initial matrix that
X-variables are read against.  A JSON snapshot carries all of it and
resumes exactly like the seed it was taken from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .algebra import Polynomial, TropicalMonomial, exchange
from .errors import DivisibilityError, InputError, SeedInvariantError
from .quiver import Matrix, Quiver, ValuedQuiver, mutate_matrix, to_matrix


def _unit(n: int, i: int) -> Tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def _sign_coherent(vec: Sequence[int]) -> bool:
    return all(x >= 0 for x in vec) or all(x <= 0 for x in vec)


@dataclass(frozen=True)
class YExpression:
    """Factored Y-variable: eta * prod F_i^{b_ij}, never expanded."""

    eta: TropicalMonomial
    factors: Tuple[Tuple[Polynomial, int], ...]

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        val = self.eta.evaluate(point)
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
        n = len(self.g)
        if len(point) != n:
            raise InputError("dimension mismatch in X evaluation")
        yhat = [Fraction(1)] * n
        for j in range(n):
            for i in range(n):
                if self.b0[i][j]:
                    yhat[j] *= Fraction(point[i]) ** self.b0[i][j]
        val = self.f.evaluate(yhat)
        for j in range(n):
            if self.g[j]:
                val *= Fraction(point[j]) ** self.g[j]
        return val


@dataclass(frozen=True)
class Seed:
    """Exchange matrix with per-vertex tropical, polynomial and degree data."""

    b: Matrix
    d: Tuple[int, ...]
    c: Tuple[Tuple[int, ...], ...]  # c[j] = exponent vector of the tropical variable at j
    g: Tuple[Tuple[int, ...], ...]  # g[j] = degree vector of the cluster variable at j
    f: Tuple[Polynomial, ...]
    b0: Matrix

    @property
    def n(self) -> int:
        return len(self.b)

    @property
    def valued(self) -> bool:
        return any(x != 1 for x in self.d)

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
        d = q.d if isinstance(q, ValuedQuiver) else (1,) * n
        return cls(
            b=q.b,
            d=tuple(d),
            c=tuple(_unit(n, j) for j in range(n)),
            g=tuple(_unit(n, j) for j in range(n)),
            f=tuple(Polynomial.one(n) for _ in range(n)),
            b0=q.b,
        )

    # -- mutation ----------------------------------------------------------

    def mutate(self, k: int) -> "Seed":
        """Mutate at vertex index k: matrix rule, tropical rule, degree
        rule and exchange relation with exact division.  The input seed is
        untouched."""
        n = self.n
        if not 0 <= k < n:
            raise InputError(f"vertex index {k} out of range")
        b = self.b
        ck = self.c[k]
        one_plus = tuple(min(0, e) for e in ck)  # exponents of 1 (+) eta_k
        one_plus_inv = tuple(min(0, -e) for e in ck)  # exponents of 1 (+) eta_k^{-1}

        new_c = []
        for j in range(n):
            if j == k:
                new_c.append(tuple(-e for e in ck))
                continue
            bkj = b[k][j]
            if bkj == 0:
                new_c.append(self.c[j])
            elif bkj > 0:
                new_c.append(
                    tuple(e - bkj * m for e, m in zip(self.c[j], one_plus_inv))
                )
            else:
                new_c.append(tuple(e - bkj * m for e, m in zip(self.c[j], one_plus)))

        # Both polynomial products read column k: the positive c-monomial
        # pairs with the positive column part, the negative with the
        # negative part.  This is the pairing that reproduces the direct
        # Y-dynamics, and in the skew-symmetrizable case the column
        # magnitudes (not the row ones) are what the folding covers force.
        try:
            fk = exchange(
                [max(0, e) for e in ck],
                [(self.f[j], b[j][k]) for j in range(n) if b[j][k] > 0],
                [max(0, -e) for e in ck],
                [(self.f[j], -b[j][k]) for j in range(n) if b[j][k] < 0],
                self.f[k],
            )
        except DivisibilityError as exc:
            raise SeedInvariantError(
                f"exchange relation failed to divide at vertex {k}: {exc}\n{self._dump()}"
            ) from exc
        new_f = tuple(fk if j == k else self.f[j] for j in range(n))

        # g'_k = -g_k + sum_i [-eps b_ik]_+ g_i, eps the sign of c_k
        eps = -1 if any(e < 0 for e in ck) else 1
        gk = [-x for x in self.g[k]]
        for i in range(n):
            w = -eps * b[i][k]
            if w > 0:
                gk = [x + w * y for x, y in zip(gk, self.g[i])]
        new_g = tuple(tuple(gk) if j == k else self.g[j] for j in range(n))

        seed = Seed(
            b=mutate_matrix(b, k),
            d=self.d,
            c=tuple(new_c),
            g=new_g,
            f=new_f,
            b0=self.b0,
        )
        # only the polynomial at k changed; the tropical data is cheap to
        # re-check wholesale
        seed._check_vertex(k)
        for j in range(n):
            if not _sign_coherent(seed.c[j]):
                raise SeedInvariantError(
                    f"tropical exponent vector at {j} is not sign-coherent\n{seed._dump()}"
                )
        return seed

    def mutate_block(self, ks: Sequence[int]) -> "Seed":
        """Composite mutation at pairwise non-adjacent vertices."""
        for a in ks:
            for c in ks:
                if a != c and self.b[a][c] != 0:
                    raise InputError(f"vertices {a} and {c} are adjacent")
        out = self
        for k in ks:
            out = out.mutate(k)
        return out

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        for j in range(self.n):
            self._check_vertex(j)
            if not _sign_coherent(self.c[j]):
                raise SeedInvariantError(
                    f"tropical exponent vector at {j} is not sign-coherent\n{self._dump()}"
                )

    def _check_vertex(self, j: int) -> None:
        if self.f[j].constant_term() != 1:
            raise SeedInvariantError(
                f"F-polynomial at {j} lost its unit constant term\n{self._dump()}"
            )
        if not self.f[j].has_nonnegative_coefficients():
            raise SeedInvariantError(
                f"F-polynomial at {j} has a negative coefficient\n{self._dump()}"
            )

    def _dump(self) -> str:
        return (
            f"b={self.b}\nc={self.c}\ng={self.g}\n"
            f"f={[p.text() for p in self.f]}"
        )

    # -- derived data ----------------------------------------------------------

    def g_vectors(self) -> Tuple[Tuple[int, ...], ...]:
        """Degree vectors of the current cluster relative to the initial one."""
        return self.g

    def y_expression(self, j: int) -> YExpression:
        if not 0 <= j < self.n:
            raise InputError(f"vertex index {j} out of range")
        return YExpression(
            eta=TropicalMonomial(self.c[j]),
            factors=tuple(
                (self.f[i], self.b[i][j]) for i in range(self.n) if self.b[i][j]
            ),
        )

    def x_expression(self, j: int) -> XExpression:
        if not 0 <= j < self.n:
            raise InputError(f"vertex index {j} out of range")
        return XExpression(f=self.f[j], g=self.g[j], b0=self.b0)

    def equals(self, other: "Seed") -> bool:
        """Exact fieldwise equality of matrix, tropical, polynomial and
        degree data and of the initial matrix X-variables are read
        against."""
        if not isinstance(other, Seed):
            raise InputError("can only compare seeds")
        if self.n != other.n or self.d != other.d:
            raise InputError("seeds have different rank or symmetrizer")
        return (
            self.b == other.b
            and self.c == other.c
            and self.f == other.f
            and self.g == other.g
            and self.b0 == other.b0
        )

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "b": [list(row) for row in self.b],
            "d": list(self.d),
            "c": [list(v) for v in self.c],
            "f": [p.text() for p in self.f],
            "g": [list(v) for v in self.g],
            "b0": [list(row) for row in self.b0],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Seed":
        """Rebuild a seed snapshot; it mutates on exactly like the seed
        it was taken from."""
        try:
            b = to_matrix(obj["b"])
            n = len(b)
            d = tuple(int(x) for x in obj.get("d", (1,) * n))
            c = tuple(tuple(int(x) for x in row) for row in obj["c"])
            f = tuple(Polynomial.parse(n, s) for s in obj["f"])
            g = tuple(tuple(int(x) for x in row) for row in obj["g"])
            b0 = to_matrix(obj["b0"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad seed JSON: {exc}") from exc
        if not (len(d) == len(c) == len(f) == len(g) == len(b0) == n) or any(
            len(row) != n for row in c + g
        ):
            raise InputError("seed JSON fields have inconsistent lengths")
        seed = cls(b=b, d=d, c=c, g=g, f=f, b0=b0)
        seed.check_invariants()
        return seed


# Operation-style aliases.

def initial_seed(q) -> Seed:
    return Seed.initial(q)


def mutate_seed(s: Seed, k: int) -> Seed:
    return s.mutate(k)


def mutate_seed_block(s: Seed, ks: Sequence[int]) -> Seed:
    return s.mutate_block(ks)


def y_variable(s: Seed, j: int) -> YExpression:
    return s.y_expression(j)


def x_variable(s: Seed, j: int) -> XExpression:
    return s.x_expression(j)


def seed_equals(a: Seed, b: Seed) -> bool:
    return a.equals(b)
