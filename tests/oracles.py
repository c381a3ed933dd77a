"""Independent oracles for the test suite.

Everything here is implemented directly from the defining recursions on
explicit rational values, separate from the package's factored seed
machinery, so that the two routes can be compared by exact evaluation.
The pattern reference runs the package's seeds without the round driver.
"""

from fractions import Fraction
from typing import List, Sequence, Tuple

# Coxeter numbers of the finite families, used only as a test oracle.
COXETER_TABLE = {
    ("A", n): n + 1 for n in range(1, 9)
}
COXETER_TABLE.update({("B", n): 2 * n for n in range(2, 9)})
COXETER_TABLE.update({("C", n): 2 * n for n in range(2, 9)})
COXETER_TABLE.update({("D", n): 2 * n - 2 for n in range(4, 9)})
COXETER_TABLE.update({("E", 6): 12, ("E", 7): 18, ("E", 8): 30})
COXETER_TABLE.update({("F", 4): 12, ("G", 2): 6})


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


def mutate_with_history(seed, k: int, history: List[Tuple[int, Tuple[int, ...]]]):
    """seed.mutate(k), recording what g_vectors_by_replay needs."""
    history.append((k, tuple(row[k] for row in seed.b)))
    return seed.mutate(k)


def pattern_by_blocks(q, blocks, rounds: int):
    """(minimal period, return after the last round) of the seed pattern of
    q, running every round block by block with Seed.mutate_block and no
    shortcut."""
    from yperiod.seed import Seed

    seed0 = seed = Seed.initial(q)
    minimal = None
    for p in range(1, rounds + 1):
        for block in blocks:
            seed = seed.mutate_block([q.index(v) for v in block])
        if minimal is None and seed.equals(seed0):
            minimal = p
    return minimal, seed.equals(seed0)
