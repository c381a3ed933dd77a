"""Independent oracles for the test suite.

Everything here is implemented directly from the defining recursions on
explicit rational values, separate from the package's factored seed
machinery, so that the two routes can be compared by exact evaluation.
The pattern reference runs the package's seeds without the round driver.
The exchange reference expands the numerator with the package's ring
operations and divides it by a long division of its own.  The
opposition involution is read off the package's positive roots, not
looked up.
"""

import heapq
from fractions import Fraction
from operator import add, lt, sub
from typing import List, Sequence, Tuple

from yperiod import dynkin
from yperiod.algebra import Polynomial
from yperiod.errors import DivisibilityError, InputError

# Coxeter numbers of the finite families, used only as a test oracle.
COXETER_TABLE = {
    ("A", n): n + 1 for n in range(1, 9)
}
COXETER_TABLE.update({("B", n): 2 * n for n in range(2, 9)})
COXETER_TABLE.update({("C", n): 2 * n for n in range(2, 9)})
COXETER_TABLE.update({("D", n): 2 * n - 2 for n in range(4, 9)})
COXETER_TABLE.update({("E", 6): 12, ("E", 7): 18, ("E", 8): 30})
COXETER_TABLE.update({("F", 4): 12, ("G", 2): 6})


def dynkin_types(max_rank: int) -> List[dynkin.DynkinType]:
    """Every Dynkin type of rank at most max_rank, family by family, as
    the DynkinType constructor admits them."""
    out = []
    for family in "ABCDEFG":
        for rank in range(1, max_rank + 1):
            try:
                out.append(dynkin.DynkinType(family, rank))
            except InputError:
                pass
    return out


def mutate_matrix_direct(b: List[List[int]], k: int) -> List[List[int]]:
    """Matrix mutation, written out independently of the package."""
    n = len(b)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                out[i][j] = -b[i][j]
            elif b[i][k] > 0 and b[k][j] > 0:
                out[i][j] = b[i][j] + b[i][k] * b[k][j]
            elif b[i][k] < 0 and b[k][j] < 0:
                out[i][j] = b[i][j] - b[i][k] * b[k][j]
            else:
                out[i][j] = b[i][j]
    return out


def mutate_y_values(
    b: List[List[int]], values: Sequence[Fraction], k: int
) -> Tuple[List[List[int]], List[Fraction]]:
    """Direct Y-seed mutation on explicit positive rational values:

    Y_k -> 1/Y_k, and for j != k
    Y_j -> Y_j * (1+1/Y_k)^(-b_kj) when b_kj >= 0,
    Y_j -> Y_j * (1+Y_k)^(-b_kj)  when b_kj <= 0.
    """
    n = len(values)
    yk = values[k]
    new = list(values)
    new[k] = 1 / yk
    for j in range(n):
        if j == k:
            continue
        bkj = b[k][j]
        if bkj >= 0:
            new[j] = values[j] * (1 + 1 / yk) ** (-bkj)
        else:
            new[j] = values[j] * (1 + yk) ** (-bkj)
    return mutate_matrix_direct(b, k), new


def mutate_x_values(
    b: List[List[int]], values: Sequence[Fraction], k: int
) -> Tuple[List[List[int]], List[Fraction]]:
    """Direct cluster-variable exchange on explicit values:
    X_k X_k' = prod_{i -> k} X_i + prod_{k -> j} X_j."""
    n = len(values)
    inc = Fraction(1)
    out = Fraction(1)
    for j in range(n):
        if b[j][k] > 0:
            inc *= values[j] ** b[j][k]
        if b[k][j] > 0:
            out *= values[j] ** b[k][j]
    new = list(values)
    new[k] = (inc + out) / values[k]
    return mutate_matrix_direct(b, k), new


def y_system_step_by_fractions(
    ca: Sequence[Sequence[int]],
    cb: Sequence[Sequence[int]],
    prev: Sequence[Fraction],
    curr: Sequence[Fraction],
) -> List[Fraction]:
    """One step of the direct Y-system recurrence, Fraction by Fraction:

    Y[i,i',t+1] = prod_j (1+Y[j,i',t])^{a_ij}
                  / ( prod_j' (1+1/Y[i,j',t])^{a'_i'j'} * Y[i,i',t-1] ),

    with the incidence matrices a = 2 - ca and a' = 2 - cb read off the
    Cartan matrices, and the slices listed by (i, i'), i' fastest."""
    n, m = len(ca), len(cb)
    a = [[(2 if i == j else 0) - ca[i][j] for j in range(n)] for i in range(n)]
    ap = [[(2 if i == j else 0) - cb[i][j] for j in range(m)] for i in range(m)]
    nxt = []
    for i in range(n):
        for ip in range(m):
            num = Fraction(1)
            for j in range(n):
                if a[i][j]:
                    num *= (1 + curr[j * m + ip]) ** a[i][j]
            den = Fraction(1)
            for jp in range(m):
                if ap[ip][jp]:
                    den *= (1 + 1 / curr[i * m + jp]) ** ap[ip][jp]
            nxt.append(num / (den * prev[i * m + ip]))
    return nxt


def g_vectors_by_replay(n: int, history: Sequence[Tuple[int, Sequence[int]]]):
    """Degree vectors after a mutation sequence, recovered by replaying it
    backwards from the standard basis.  history lists (k, column k of the
    exchange matrix just before mutating at k), in application order; the
    base change between adjacent initial vertices is an involution."""
    vecs = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    for k, col in reversed(history):
        plus = [max(0, x) for x in col]
        minus = [max(0, -x) for x in col]
        for v in vecs:
            t = v[k]
            if t == 0:
                continue
            weights = plus if t < 0 else minus
            for i in range(n):
                v[i] += t * weights[i]
            v[k] = -t
    return tuple(tuple(v) for v in vecs)


def tropical_duality_holds(seed) -> bool:
    """Nakanishi-Zelevinsky tropical duality D^-1 G^T D C = I, the columns
    of G and C being the g-vectors seed.g[j] and the c-vectors seed.c[j],
    and D = diag(seed.d): entry (i, j) is
    sum_k g_i[k] d_k c_j[k] / d_i, so it holds when that sum is d_i for
    i = j and 0 otherwise."""
    n, d = seed.n, seed.d
    return all(
        sum(seed.g[i][k] * d[k] * seed.c[j][k] for k in range(n)) == (d[i] if i == j else 0)
        for i in range(n) for j in range(n)
    )


def mutate_with_history(seed, k: int, history: List[Tuple[int, Tuple[int, ...]]]):
    """seed.mutate(k), recording what g_vectors_by_replay needs."""
    history.append((k, tuple(row[k] for row in seed.b)))
    return seed.mutate(k)


def pattern_by_blocks(q, blocks, rounds: int):
    """(minimal period, return after the last round, N-, N+) of the seed
    pattern of q, running every round block by block with
    Seed.mutate_block and no shortcut.  N- counts the steps whose c-vector
    at the mutated vertex is negative, N+ the others; the signs are read
    before each block, since mutating one vertex of a block leaves the
    c-vectors of the others, not adjacent to it, as they were."""
    from yperiod.seed import Seed

    seed0 = seed = Seed.initial(q)
    minimal, negative, steps = None, 0, 0
    for p in range(1, rounds + 1):
        for block in blocks:
            ks = [q.index(v) for v in block]
            negative += sum(min(seed.c[k]) < 0 for k in ks)
            steps += len(ks)
            seed = seed.mutate_block(ks)
        if minimal is None and seed.equals(seed0):
            minimal = p
    return minimal, seed.equals(seed0), negative, steps - negative


def constrained_by_definition(b, q, qp) -> bool:
    """Whether the matrix b, vertex (i, i') at row i * m' + i', has the
    constrained shape over the factor quivers (q, qp), read pair by pair
    off the definition: each horizontal or vertical pair carries its
    factor's multiplicity, each other arrow lies over an edge in each
    factor, and the arrows among the corners (i,i'), (j,i'), (i,j'),
    (j,j') of each arrow pair i -> j, i' -> j' form a commuting square
    with a return diagonal or an oriented 4-cycle, up to swapping i with j
    or i' with j'."""
    m, mp = len(q.b), len(qp.b)

    def at(u, v):
        return b[u[0] * mp + u[1]][v[0] * mp + v[1]]

    cells = [(i, ip) for i in range(m) for ip in range(mp)]
    for u in cells:
        for v in cells:
            (i, ip), (j, jp) = u, v
            if ip == jp and i != j:
                if abs(at(u, v)) != abs(q.b[min(i, j)][max(i, j)]):
                    return False
            elif i == j and ip != jp:
                if abs(at(u, v)) != abs(qp.b[min(ip, jp)][max(ip, jp)]):
                    return False
            elif u != v and at(u, v) > 0 and not (q.b[i][j] and qp.b[ip][jp]):
                return False
    shapes = ({(0, 1), (2, 3), (0, 2), (1, 3), (3, 0)}, {(0, 2), (2, 3), (3, 1), (1, 0)})
    swaps = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    legal = [{(s[a], s[c]) for a, c in shape} for shape in shapes for s in swaps]
    for i, j in [(i, j) for i in range(m) for j in range(m) if q.b[i][j] > 0]:
        for ip, jp in [(x, y) for x in range(mp) for y in range(mp) if qp.b[x][y] > 0]:
            corners = [(i, ip), (j, ip), (i, jp), (j, jp)]
            entries = {(a, c): at(u, v) for a, u in enumerate(corners)
                       for c, v in enumerate(corners)}
            arrows = {ac for ac, x in entries.items() if x > 0}
            if arrows not in legal or any(entries[ac] != 1 for ac in arrows):
                return False
    return True


def _leading_first(e: Tuple[int, ...]):
    """Heap key popping exponent tuples in graded lexicographic order from
    the top: highest total degree, then the lexicographically largest."""
    return (-sum(e), tuple(-x for x in e))


def long_division(num: Polynomial, den: Polynomial) -> Polynomial:
    """num / den by schoolbook division, leading term first in graded
    lexicographic order; DivisibilityError on a remainder."""
    rest = dict(den.items())
    lead = min(rest, key=_leading_first)
    lead_c = rest.pop(lead)
    rem = dict(num.items())
    heap = [(_leading_first(e), e) for e in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = rem.pop(e, 0)
        if not c:
            continue
        if c % lead_c or any(map(lt, e, lead)):
            raise DivisibilityError(f"{num.text()} is not divisible by {den.text()}")
        qe, qc = tuple(map(sub, e, lead)), c // lead_c
        quot[qe] = qc
        for de, dc in rest.items():
            fe = tuple(map(add, qe, de))
            if fe not in rem:
                heapq.heappush(heap, (_leading_first(fe), fe))
            rem[fe] = rem.get(fe, 0) - qc * dc
    return Polynomial(num.nvars, quot)


def expand_exchange(plus, plus_factors, minus, minus_factors, divisor) -> Polynomial:
    """The exchange relation the long way: the numerator expanded with the
    package's monomial, *, ** and +, then long_division."""
    n = divisor.nvars
    pos = Polynomial.monomial(n, plus)
    for f, a in plus_factors:
        pos = pos * f ** a
    neg = Polynomial.monomial(n, minus)
    for f, a in minus_factors:
        neg = neg * f ** a
    return long_division(pos + neg, divisor)


def exchange_args_with_units(seed, k: int):
    """The exchange arguments of the F-polynomial at k after mutating seed
    at k: the positive part of the tropical vector at k with the
    F_j^{b_jk}, b_jk > 0, the negative part with the F_j^{-b_jk},
    b_jk < 0, and the divisor F_k.  Unit F_j are kept."""
    ck, col = seed.c[k], [row[k] for row in seed.b]
    return (
        [max(0, e) for e in ck],
        [(f, b) for f, b in zip(seed.f, col) if b > 0],
        [max(0, -e) for e in ck],
        [(f, -b) for f, b in zip(seed.f, col) if b < 0],
        seed.f[k],
    )


def exchange_by_expansion(seed, k: int) -> Polynomial:
    """The F-polynomial at k after mutating seed at k, by expand_exchange."""
    return expand_exchange(*exchange_args_with_units(seed, k))


def mutate_seed_full(b, c, g, f, k: int):
    """(b, c, g, f) after mutating at k, every entry of every vector
    recomputed, whether or not k touches it:

        b by mutate_matrix_direct;
        c'_k = -c_k, and c'_j = c_j + [c_k]_+ b_kj + c_k [-b_kj]_+ otherwise
            (Nakanishi-Zelevinsky, componentwise, with no use of sign
            coherence);
        g'_k = -g_k + sum_i [-eps b_ik]_+ g_i, eps = -1 when c_k has a
            negative entry and +1 otherwise, and g'_j = g_j otherwise;
        f'_k by expand_exchange, and f'_j = f_j otherwise.

    b, c and g are rows of ints (c[j] and g[j] are the vectors at j), f a
    sequence of Polynomials; the results are tuples of tuples and a tuple."""
    n = len(b)
    ck = c[k]
    new_c = []
    for j in range(n):
        if j == k:
            new_c.append(tuple(-x for x in ck))
            continue
        bkj = b[k][j]
        new_c.append(tuple(
            c[j][i] + max(ck[i], 0) * bkj + ck[i] * max(-bkj, 0) for i in range(n)
        ))
    eps = -1 if any(x < 0 for x in ck) else 1
    new_g = []
    for j in range(n):
        if j != k:
            new_g.append(tuple(g[j]))
            continue
        vec = [-x for x in g[k]]
        for i in range(n):
            w = max(-eps * b[i][k], 0)
            for r in range(n):
                vec[r] += w * g[i][r]
        new_g.append(tuple(vec))
    fk = expand_exchange(
        [max(0, x) for x in ck],
        [(f[j], b[j][k]) for j in range(n) if b[j][k] > 0],
        [max(0, -x) for x in ck],
        [(f[j], -b[j][k]) for j in range(n) if b[j][k] < 0],
        f[k],
    )
    new_b = tuple(tuple(row) for row in mutate_matrix_direct(b, k))
    return new_b, tuple(new_c), tuple(new_g), tuple(fk if j == k else f[j] for j in range(n))


def opposition(t) -> dict:
    """sigma = -w0 of a simply laced type, as a map on its vertices 1..n.
    w0 is grown as a product of simple reflections w -> w s_i while some
    simple root is still sent to a positive root; then w sends every
    positive root to a negative one, so w is w0 and w0(alpha_i) =
    -alpha_sigma(i)."""
    n = t.rank
    positive = dynkin.positive_roots(t)
    reflections = [dynkin.simple_reflection_matrix(dynkin.cartan_matrix(t), i) for i in range(n)]
    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]

    def image(w, v):
        return tuple(sum(w[r][c] * v[c] for c in range(n)) for r in range(n))

    w = [list(row) for row in simple]
    while True:
        i = next((i for i in range(n) if image(w, simple[i]) in positive), None)
        if i is None:
            break
        w = [[sum(w[r][k] * reflections[i][k][c] for k in range(n)) for c in range(n)]
             for r in range(n)]
    return {i + 1: simple.index(tuple(-x for x in image(w, simple[i]))) + 1 for i in range(n)}
