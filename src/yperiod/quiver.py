"""Quivers and valued quivers as exchange matrices, with mutation and
the tensor / triangle / square products.

A quiver is an ordered vertex tuple, a matrix B and a positive
symmetrizer d with diag(d) . B skew-symmetric.  A plain quiver has d all
ones (never compared, printed or serialized) and b[i][j] = #arrows i -> j
minus #arrows j -> i: loops and 2-cycles are unrepresentable, which is
lossless for everything in scope.  A valued quiver has at most one arrow
between two vertices; the arrow i -> j has valuation (b[i][j], -b[j][i]).

Products use row-major vertex order over pairs (i, i').  The square
product reverses the slices through sources of the first factor and
sinks of the second, the convention under which mutating the square
product at all (source, sink) pairs yields the triangle product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from operator import neg
from typing import FrozenSet, Hashable, Iterable, List, Sequence, Tuple

from . import dynkin
from .dynkin import DynkinType
from .errors import InputError, is_int

Matrix = Tuple[Tuple[int, ...], ...]
Label = Hashable


def to_matrix(rows: Iterable[Iterable[int]]) -> Matrix:
    """The rows as a square tuple matrix; an entry that is not an int
    (1.5, True, "1") is refused, not truncated."""
    m = tuple(map(tuple, rows))
    n = len(m)
    if not all(len(row) == n for row in m):
        raise InputError("matrix is not square")
    if not all(all(map(is_int, row)) for row in m):
        raise InputError("matrix entries must be integers")
    return m


def mutate_matrix(b: Matrix, k: int) -> Matrix:
    """Fomin-Zelevinsky matrix mutation at index k: b'[i][j] is -b[i][j]
    when i == k or j == k, and b[i][j] + sign(b[i][k]) [b[i][k] b[k][j]]_+
    otherwise.

    The correction vanishes unless b[i][k] and b[k][j] are both nonzero,
    so only row k and the rows i with b[i][k] != 0 are rebuilt, at the
    columns j with b[k][j] != 0 and at k; every other row is b's own."""
    n = len(b)
    if not 0 <= k < n:
        raise InputError(f"mutation index {k} out of range")
    row_k = b[k]
    # sign(b[i][k]) [b[i][k] b[k][j]]_+ is b[i][k] |b[k][j]| when b[k][j]
    # has the sign of b[i][k], and 0 otherwise
    outs = [(j, x) for j, x in enumerate(row_k) if x > 0 and j != k]
    ins = [(j, -x) for j, x in enumerate(row_k) if x < 0 and j != k]
    out = list(b)
    out[k] = tuple(map(neg, row_k))
    for i, row in enumerate(b):
        bik = row[k]
        if not bik or i == k:
            continue
        new = list(row)
        for j, x in outs if bik > 0 else ins:
            new[j] += bik * x
        new[k] = -bik
        out[i] = tuple(new)
    return tuple(out)


def has_loops_or_two_cycles(b: Matrix) -> bool:
    """b has a nonzero diagonal entry (a loop) or a pair of positive
    entries b[i][j], b[j][i] (a 2-cycle)."""
    for i, row in enumerate(b):
        if row[i]:
            return True
        for j, x in enumerate(row):
            if x > 0 and b[j][i] > 0:
                return True
    return False


class _QuiverBase:
    """Shared behaviour of Quiver and ValuedQuiver (vertices, matrix, symmetrizer)."""

    vertices: Tuple[Label, ...]
    b: Matrix
    d: Tuple[int, ...]

    @classmethod
    def _raw(cls, **fields):
        """An instance holding these fields as given, without validation.
        Only for quivers derived from validated ones by mutation, a full
        subquiver or a product: each keeps B skew-symmetrizable by the d it
        carries."""
        q = cls.__new__(cls)
        q.__dict__.update(fields)
        return q

    def _validate(self) -> None:
        """Both constructors' rule: distinct labels, one per row of B and
        entry of d, d positive ints, and d_i b_ij = -d_j b_ji for all i, j."""
        n, b, d = len(self.vertices), self.b, self.d
        if len(b) != n or len(d) != n:
            raise InputError("matrix or symmetrizer size does not match vertex count")
        if len(set(self.vertices)) != n:
            raise InputError("duplicate vertex labels")
        if not all(is_int(x) and x > 0 for x in d):
            raise InputError("symmetrizer entries must be positive integers")
        # row i of diag(d) . B against minus its column i
        for di, row, col in zip(d, b, zip(*b)):
            if [di * x for x in row] != [-dj * y for dj, y in zip(d, col)]:
                raise InputError("matrix is not skew-symmetrizable by d")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: Label) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise InputError(f"unknown vertex {v!r}") from None

    def arrows(self) -> List[Tuple[Label, Label, int, int]]:
        """Arrows as (source, target, v1, v2) sorted by vertex order."""
        out = []
        for i in range(self.n):
            for j in range(self.n):
                if self.b[i][j] > 0:
                    out.append((self.vertices[i], self.vertices[j], self.b[i][j], -self.b[j][i]))
        return out

    def is_source(self, v: Label) -> bool:
        i = self.index(v)
        return all(row[i] <= 0 for row in self.b)

    def is_sink(self, v: Label) -> bool:
        return max(self.b[self.index(v)]) <= 0

    def sources(self) -> Tuple[Label, ...]:
        return tuple(v for v in self.vertices if self.is_source(v))

    def sinks(self) -> Tuple[Label, ...]:
        return tuple(v for v in self.vertices if self.is_sink(v))

    def is_alternating(self) -> bool:
        return all(self.is_source(v) or self.is_sink(v) for v in self.vertices)

    def vertex_sign(self, v: Label) -> int:
        """+1 for a source, -1 for a sink; isolated vertices count as sources."""
        if self.is_source(v):
            return 1
        if self.is_sink(v):
            return -1
        raise InputError(f"vertex {v!r} is neither a source nor a sink")

    def is_acyclic(self) -> bool:
        n = self.n
        indeg = [0] * n
        for i in range(n):
            for j in range(n):
                if self.b[i][j] > 0:
                    indeg[j] += 1
        queue = [i for i in range(n) if indeg[i] == 0]
        seen = 0
        while queue:
            i = queue.pop()
            seen += 1
            for j in range(n):
                if self.b[i][j] > 0:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        queue.append(j)
        return seen == n

    def has_loops_or_two_cycles(self) -> bool:
        return has_loops_or_two_cycles(self.b)

    def full_subquiver(self, labels: Sequence[Label]):
        idx = [self.index(v) for v in labels]
        if len(set(idx)) != len(idx):
            raise InputError("duplicate vertex labels")
        return self._raw(
            vertices=tuple(labels),
            b=tuple(tuple(self.b[i][j] for j in idx) for i in idx),
            d=tuple(self.d[i] for i in idx),
        )


@dataclass(frozen=True)
class Quiver(_QuiverBase):
    """Finite quiver without loops or 2-cycles: B skew-symmetric, d all ones."""

    vertices: Tuple[Label, ...]
    b: Matrix
    d: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "b", to_matrix(self.b))
        object.__setattr__(self, "d", (1,) * len(self.vertices))
        self._validate()

    def mutate(self, v: Label) -> "Quiver":
        return Quiver._raw(
            vertices=self.vertices, b=mutate_matrix(self.b, self.index(v)), d=self.d
        )

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices, tuple(tuple(-x for x in row) for row in self.b))


@dataclass(frozen=True)
class ValuedQuiver(_QuiverBase):
    """Valued quiver: skew-symmetrizable matrix plus positive symmetrizer."""

    vertices: Tuple[Label, ...]
    b: Matrix
    d: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "b", to_matrix(self.b))
        object.__setattr__(self, "d", tuple(self.d))
        self._validate()

    def mutate(self, v: Label) -> "ValuedQuiver":
        return ValuedQuiver._raw(
            vertices=self.vertices, b=mutate_matrix(self.b, self.index(v)), d=self.d
        )


def check_block(b: Matrix, idx: Sequence[int], names: Sequence) -> None:
    """The indices idx make one mutation block of b: distinct and pairwise
    non-adjacent.  names, one per index, name the vertices in the error."""
    if len(set(idx)) != len(idx):
        raise InputError(f"vertices {names!r} repeat a vertex")
    for a, name_a in zip(idx, names):
        for c, name_c in zip(idx, names):
            if a != c and b[a][c] != 0:
                raise InputError(f"vertices {name_a!r} and {name_c!r} are adjacent")


def mutate_set(q, vs: Iterable[Label]):
    """Mutate at a set of pairwise non-adjacent vertices (order immaterial)."""
    labels = list(vs)
    check_block(q.b, [q.index(v) for v in labels], labels)
    out = q
    for v in labels:
        out = out.mutate(v)
    return out


# ---------------------------------------------------------------------------
# products


def _require_acyclic(q, name: str) -> None:
    if not q.is_acyclic():
        raise InputError(f"{name} factor contains an oriented cycle")


def _require_alternating(q, name: str) -> None:
    if not q.is_alternating():
        raise InputError(f"{name} factor is not alternating")


def _product_vertices(q, qp) -> Tuple[Tuple[Label, Label], ...]:
    return tuple((u, v) for u in q.vertices for v in qp.vertices)


def _both_plain(q, qp) -> bool:
    return isinstance(q, Quiver) and isinstance(qp, Quiver)


def _tensor_matrix(q, qp) -> List[List[int]]:
    m, mp = q.n, qp.n
    b = [[0] * (m * mp) for _ in range(m * mp)]
    # (i, i') -> (j, i') copies q's entry, (i, i') -> (i, j') qp's; the two
    # sets of positions are disjoint, so only nonzero entries are written
    for i, row in enumerate(q.b):
        for j, x in enumerate(row):
            if x and i != j:
                for ip in range(mp):
                    b[i * mp + ip][j * mp + ip] = x
    for ip, row in enumerate(qp.b):
        for jp, x in enumerate(row):
            if x and ip != jp:
                for i in range(m):
                    b[i * mp + ip][i * mp + jp] = x
    return b


def _product_d(q, qp) -> Tuple[int, ...]:
    return tuple(a * b for a in q.d for b in qp.d)


def _wrap_product(q, qp, b: List[List[int]]):
    """The product quiver, built raw (see _raw): each product below keeps
    d_i b_ij = -d_j b_ji for d the product of the factors' symmetrizers."""
    cls = Quiver if _both_plain(q, qp) else ValuedQuiver
    verts, b = _product_vertices(q, qp), tuple(map(tuple, b))
    return cls._raw(vertices=verts, b=b, d=_product_d(q, qp))


def tensor_product(q, qp):
    """Vertex set Q0 x Q0'; every row a copy of q, every column a copy of qp."""
    _require_acyclic(q, "first")
    _require_acyclic(qp, "second")
    return _wrap_product(q, qp, _tensor_matrix(q, qp))


def triangle_product(q, qp):
    """Tensor product plus a return arrow (j,j') -> (i,i') for every pair
    of arrows i -> j and i' -> j' of the factors."""
    _require_acyclic(q, "first")
    _require_acyclic(qp, "second")
    m, mp = q.n, qp.n
    b = _tensor_matrix(q, qp)

    def pos(i: int, ip: int) -> int:
        return i * mp + ip

    for i in range(m):
        for j in range(m):
            if q.b[i][j] > 0:
                for ip in range(mp):
                    for jp in range(mp):
                        if qp.b[ip][jp] > 0:
                            # valuation (v2*v2', v1*v1') of the diagonal arrow
                            b[pos(j, jp)][pos(i, ip)] += (-q.b[j][i]) * (-qp.b[jp][ip])
                            b[pos(i, ip)][pos(j, jp)] -= q.b[i][j] * qp.b[ip][jp]
    return _wrap_product(q, qp, b)


def square_product(q, qp):
    """Tensor product with the slices through sources of q and sinks of qp
    reversed; both factors must be alternating."""
    _require_acyclic(q, "first")
    _require_acyclic(qp, "second")
    _require_alternating(q, "first")
    _require_alternating(qp, "second")
    mp = qp.n
    b = _tensor_matrix(q, qp)
    for i, u in enumerate(q.vertices):
        if q.vertex_sign(u) == 1:  # vertical slice {i} x Q' through a source of q
            span = slice(i * mp, i * mp + mp)
            for row in b[span]:
                row[span] = [-x for x in row[span]]
    for ip, v in enumerate(qp.vertices):
        if qp.vertex_sign(v) == -1:  # horizontal slice Q x {i'} through a sink of qp
            for row in b[ip::mp]:
                row[ip::mp] = [-x for x in row[ip::mp]]
    return _wrap_product(q, qp, b)


# ---------------------------------------------------------------------------
# constrained product structure

def _square_templates() -> FrozenSet[Tuple[int, ...]]:
    """Arrow sets the full subquiver over an arrow pair may take, each as
    the positive parts of its 4 x 4 matrix, row by row.

    Corners are 0=(i,i'), 1=(j,i'), 2=(i,j'), 3=(j,j').  The two base
    shapes are the commuting square with a return diagonal and the
    oriented 4-cycle; row and column swaps generate the legal variants.
    """
    shape1 = {(0, 1): 1, (2, 3): 1, (0, 2): 1, (1, 3): 1, (3, 0): 1}
    shape2 = {(0, 2): 1, (2, 3): 1, (3, 1): 1, (1, 0): 1}
    row_swap = {0: 1, 1: 0, 2: 3, 3: 2}
    col_swap = {0: 2, 2: 0, 1: 3, 3: 1}
    variants = set()
    for base in (shape1, shape2):
        for swap_rows in (False, True):
            for swap_cols in (False, True):
                arrows = {}
                for (a, c), mult in base.items():
                    if swap_rows:
                        a, c = row_swap[a], row_swap[c]
                    if swap_cols:
                        a, c = col_swap[a], col_swap[c]
                    arrows[(a, c)] = mult
                variants.add(tuple(arrows.get((a, c), 0) for a in range(4) for c in range(4)))
    return frozenset(variants)


_TEMPLATES = _square_templates()


class _ProductShape:
    """The constrained shape over the factors (q, qp) as index tables into
    a product matrix in row-major order, vertex (i, i') at i * m' + i':
    the tensor-graph pairs (a, c, multiplicity), the diagonal pairs (a, c)
    that may carry no arrow a -> c, not lying over an edge in each factor,
    and the corners (i,i'), (j,i'), (i,j'), (j,j') of the square over each
    arrow pair i -> j, i' -> j' of the factors."""

    def __init__(self, bq: Matrix, bqp: Matrix):
        m, mp = len(bq), len(bqp)
        self.tensor = [
            (i * mp + ip, j * mp + ip, abs(bq[i][j]))
            for i in range(m) for j in range(i + 1, m) for ip in range(mp)
        ] + [
            (i * mp + ip, i * mp + jp, abs(bqp[ip][jp]))
            for ip in range(mp) for jp in range(ip + 1, mp) for i in range(m)
        ]
        self.forbidden = [
            (i * mp + ip, j * mp + jp)
            for i in range(m) for ip in range(mp) for j in range(m) for jp in range(mp)
            if i != j and ip != jp
            and not ((bq[i][j] or bq[j][i]) and (bqp[ip][jp] or bqp[jp][ip]))
        ]
        corners = [
            (i * mp + ip, j * mp + ip, i * mp + jp, j * mp + jp)
            for i in range(m) for j in range(m) if bq[i][j] > 0
            for ip in range(mp) for jp in range(mp) if bqp[ip][jp] > 0
        ]
        # the 16 entries of each square's matrix, in _TEMPLATES order
        self.squares = [[(a, c) for a in cs for c in cs] for cs in corners]

    def holds(self, b: Matrix) -> bool:
        """(a) the non-diagonal underlying graph of b is that of the tensor
        product, and every arrow of b off it lies over an edge in each
        factor; (b) each arrow pair spans one of the admissible squares."""
        if any(abs(b[a][c]) != mult for a, c, mult in self.tensor):
            return False
        if any(b[a][c] > 0 for a, c in self.forbidden):
            return False
        return all(
            tuple([x if (x := b[a][c]) > 0 else 0 for a, c in square]) in _TEMPLATES
            for square in self.squares
        )


@lru_cache(maxsize=64)
def _product_shape(bq: Matrix, bqp: Matrix) -> _ProductShape:
    return _ProductShape(bq, bqp)


def is_constrained(r, q, qp) -> bool:
    """Whether r is a product-shaped quiver over (q, qp): its non-diagonal
    part has the underlying graph of the tensor product and every arrow
    pair of the factors spans one of the admissible squares.  r is a
    quiver on the product vertices, or the matrix of one in their
    row-major order; the tables of the shape are built once per pair of
    factor matrices (a small cache), so a walk pays only for the check."""
    if isinstance(r, _QuiverBase):
        vertices = _product_vertices(q, qp)
        if set(r.vertices) != set(vertices):
            raise InputError("vertex set is not the product of the factor vertex sets")
        idx = list(map(r.vertices.index, vertices))
        r = tuple(tuple(r.b[i][j] for j in idx) for i in idx)
    return _product_shape(q.b, qp.b).holds(r)


def horizontal_slice(r, q, x: Label):
    """Full subquiver on the vertices (u, x), u in q, in factor order."""
    return r.full_subquiver(tuple((u, x) for u in q.vertices))


def vertical_slice(r, qp, u: Label):
    return r.full_subquiver(tuple((u, x) for x in qp.vertices))


def source_sink_vertices(r: Quiver, q: Quiver, qp: Quiver) -> FrozenSet[Label]:
    """Vertices that are sources in their horizontal slice, sinks in their
    vertical slice, and touch no diagonal arrow."""
    if not is_constrained(r, q, qp):
        raise InputError("quiver is not product-constrained")
    pos = {v: r.index(v) for v in r.vertices}
    out = set()
    for (u, x) in r.vertices:
        a = pos[(u, x)]
        ok = True
        for (w, y) in r.vertices:
            c = pos[(w, y)]
            if a == c:
                continue
            horizontal = y == x
            vertical = w == u
            if not horizontal and not vertical:
                if r.b[a][c] != 0:
                    ok = False  # diagonal arrow at this vertex
                    break
            elif horizontal and r.b[c][a] > 0:
                ok = False  # not a source in its row
                break
            elif vertical and r.b[a][c] > 0:
                ok = False  # not a sink in its column
                break
        if ok:
            out.add((u, x))
    return frozenset(out)


# ---------------------------------------------------------------------------
# alternating quivers of Dynkin diagrams

def alternating_quiver(t: DynkinType) -> Quiver:
    """Bipartite orientation of a simply laced diagram, sources in the
    plus class of the canonical 2-coloring."""
    if not t.simply_laced:
        raise InputError(f"{t} is not simply laced; use alternating_valued_quiver")
    return Quiver(t.vertices, _bipartite_matrix(t))


def alternating_valued_quiver(t: DynkinType) -> ValuedQuiver:
    """Bipartite orientation of any diagram, as a valued quiver."""
    return ValuedQuiver(t.vertices, _bipartite_matrix(t), dynkin.symmetrizer(t))


def _bipartite_matrix(t: DynkinType) -> Matrix:
    c = dynkin.cartan_matrix(t)
    bip = dynkin.bipartition(t)
    n = t.rank
    b = [[0] * n for _ in range(n)]
    for i, j in dynkin.edges(t):
        src, dst = (i, j) if bip.sign(i) == 1 else (j, i)
        b[src - 1][dst - 1] = -c[src - 1][dst - 1]
        b[dst - 1][src - 1] = c[dst - 1][src - 1]
    return tuple(tuple(row) for row in b)


# ---------------------------------------------------------------------------
# text and JSON forms

def format_label(v: Label) -> str:
    if isinstance(v, tuple):
        return "(" + ",".join(format_label(x) for x in v) + ")"
    return str(v)


def format_quiver(q) -> str:
    """Canonical text: vertex list, arrows 'i -> j (v1,v2)' sorted by
    (source, target) in vertex order, and the symmetrizer when valued."""
    lines = ["vertices: " + " ".join(format_label(v) for v in q.vertices)]
    lines.append("arrows:")
    for (u, w, v1, v2) in q.arrows():
        lines.append(f"  {format_label(u)} -> {format_label(w)} ({v1},{v2})")
    if isinstance(q, ValuedQuiver):
        lines.append("d: " + " ".join(str(x) for x in q.d))
    return "\n".join(lines)


def _freeze_label(v):
    if isinstance(v, list):
        return tuple(_freeze_label(x) for x in v)
    return v


def _thaw_label(v):
    if isinstance(v, tuple):
        return [_thaw_label(x) for x in v]
    return v


def quiver_to_json(q) -> dict:
    out = {
        "vertices": [_thaw_label(v) for v in q.vertices],
        "b": [list(row) for row in q.b],
    }
    if isinstance(q, ValuedQuiver):
        out["d"] = list(q.d)
    return out


def ints_from_json(value, name: str) -> Tuple[int, ...]:
    """A JSON array of integers; floats, booleans and strings are refused, not truncated."""
    if not isinstance(value, (list, tuple)) or not all(map(is_int, value)):
        raise InputError(f"'{name}' must be an array of integers")
    return tuple(value)


def int_rows_from_json(value, name: str) -> Matrix:
    """A JSON array of integer arrays, each checked by ints_from_json."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"'{name}' must be an array of integer arrays")
    return tuple(ints_from_json(row, name) for row in value)


def quiver_from_json(obj: dict):
    if not isinstance(obj, dict) or "vertices" not in obj or "b" not in obj:
        raise InputError("quiver JSON needs 'vertices' and 'b' fields")
    if not isinstance(obj["vertices"], (list, tuple)):
        raise InputError("'vertices' must be an array")
    vertices = tuple(_freeze_label(v) for v in obj["vertices"])
    b = int_rows_from_json(obj["b"], "b")
    try:
        if obj.get("d") is not None:
            return ValuedQuiver(vertices, b, ints_from_json(obj["d"], "d"))
        return Quiver(vertices, b)
    except TypeError as exc:
        raise InputError(f"bad quiver JSON: {exc}") from exc


def quiver_from_json_text(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    return quiver_from_json(obj)
