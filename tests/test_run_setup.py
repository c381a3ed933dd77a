"""A run's set-up against the public, validated constructors and the
definitions they implement.  The runs build their products raw (no
re-validation of a product of validated factors), read each factor's
vertex signs once for the blocks, share the unit rows of the initial seed
and leave the identity out of the symmetry filter; here each of those is
compared, on every ordered pair of types of rank <= 4, the valued ones
included, in both systems, with what the validating paths give."""

import itertools

import pytest

from yperiod.algebra import Polynomial
from yperiod.dynkin import DynkinType, coxeter_number
from yperiod.folding import GroupAction, lift_dynkin, product_action
from yperiod.quiver import (
    Quiver, ValuedQuiver, alternating_valued_quiver, mutate_matrix, triangle_product
)
from yperiod.seed import Seed, fixes, graph_automorphisms, orbit_renamings, product_perm
from yperiod.ysystem import (
    BOXTIMES_BLOCK_ORDER,
    SQUARE_BLOCK_ORDER,
    _FoldRun,
    _ProductRun,
    mu_boxtimes_blocks,
    mu_square_blocks,
)

D = DynkinType.parse
TYPES = [D(t) for t in "A1 A2 A3 A4 B2 B3 B4 C2 C3 C4 D4 F4 G2".split()]
PAIRS = list(itertools.product(TYPES, repeat=2))


def _signs(q):
    """+1 for a source (no arrow in), -1 for a sink, of an alternating quiver."""
    return [1 if all(q.b[j][i] <= 0 for j in range(q.n)) else -1 for i in range(q.n)]


def _product_by_definition(qa, qb, system):
    """The product matrix entry by entry (quiver.py): row-major vertex
    (i, i') at i * n' + i'; each row slice a copy of qa and each column
    slice one of qb, the square product reversing the slices through
    sinks of qb and through sources of qa; the triangle product adds, over
    arrows i -> j of qa and i' -> j' of qb, (i, i') -> (j, j') with
    entry -b_ij b'_i'j' and its partner b_ij b'_i'j' back."""
    sa, sb, ba, bb = _signs(qa), _signs(qb), qa.b, qb.b

    def entry(i, ip, j, jp):
        if ip == jp:
            x = ba[i][j] if i != j else 0
            return -x if system == "square" and sb[ip] == -1 else x
        if i == j:
            x = bb[ip][jp]
            return -x if system == "square" and sa[i] == 1 else x
        if system == "boxtimes" and (
            ba[i][j] > 0 and bb[ip][jp] > 0 or ba[j][i] > 0 and bb[jp][ip] > 0
        ):
            x = ba[i][j] * bb[ip][jp]
            return -x if ba[i][j] > 0 else x
        return 0

    cells = list(itertools.product(range(qa.n), range(qb.n)))
    return tuple(tuple(entry(i, ip, j, jp) for j, jp in cells) for i, ip in cells)


def _blocks_by_definition(qa, qb, system):
    order = BOXTIMES_BLOCK_ORDER if system == "boxtimes" else SQUARE_BLOCK_ORDER
    sa, sb = _signs(qa), _signs(qb)
    return tuple(
        tuple(i * qb.n + ip for i in range(qa.n) if sa[i] == s for ip in range(qb.n) if sb[ip] == t)
        for s, t in order
    )


def _merged_by_definition(b, blocks):
    """Consecutive blocks merge while their vertices are pairwise
    non-adjacent in the matrix at the merged block's start, walked by
    mutation."""
    merged, start = [], None
    for block in blocks:
        if merged and all(start[i][j] == 0 for i in merged[-1] for j in block):
            merged[-1] += block
        elif block:
            merged.append(list(block))
            start = b
        for k in block:
            b = mutate_matrix(b, k)
    return merged


def _group_by_definition(run, merged):
    """Every alpha x beta of graph automorphisms of the factors that fixes
    the product matrix and symmetrizer, carries each merged block onto
    itself and whose alpha and beta both keep or both reverse their
    factor; the identity included."""
    out = []
    for a in graph_automorphisms(run.qa.b):
        for b in graph_automorphisms(run.qb.b):
            g = product_perm(a, b)
            if (
                fixes(g, run.product.b, run.seed0.d)
                and all({g[v] for v in block} == set(block) for block in merged)
                and any(fixes(a, run.qa.b, sign=s) and fixes(b, run.qb.b, sign=s) for s in (1, -1))
            ):
                out.append(g)
    return out


def _initial_seed(q):
    n = q.n
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    d = q.d if isinstance(q, ValuedQuiver) else (1,) * n
    return Seed(b=q.b, d=tuple(d), c=tuple(units), g=tuple(units),
                f=tuple(Polynomial.one(n) for _ in range(n)))


@pytest.mark.parametrize("system", ["boxtimes", "square"])
def test_product_run_set_up_matches_the_validated_constructors(system):
    for ta, tb in PAIRS:
        run = _ProductRun(ta, tb, system)
        run.start()
        qa, qb, product = run.qa, run.qb, run.product
        # the product: labels, matrix and symmetrizer by definition, and the
        # validating constructor accepts it
        labels = tuple(itertools.product(qa.vertices, qb.vertices))
        assert product.vertices == run.labels == labels, (ta, tb)
        assert product.b == _product_by_definition(qa, qb, system), (ta, tb)
        d = tuple(x * y for x in qa.d for y in qb.d)
        assert product.d == run.seed0.d == d, (ta, tb)
        if run.simply:
            assert type(product) is Quiver and Quiver(labels, product.b) == product
        else:
            assert type(product) is ValuedQuiver and ValuedQuiver(labels, product.b, d) == product
        # the blocks, as index tuples, by definition and through the labels
        blocks = _blocks_by_definition(qa, qb, system)
        labelled = (mu_boxtimes_blocks if system == "boxtimes" else mu_square_blocks)(qa, qb)
        assert run.blocks == blocks == tuple(tuple(map(product.index, bl)) for bl in labelled)
        # the initial seed, with unshared rows, and through the JSON check
        assert run.seed0 == _initial_seed(product) == Seed.from_json(run.seed0.to_json())
        # merged blocks, the symmetry group and its orbit renamings
        merged = _merged_by_definition(product.b, run.blocks)
        assert run.merged == [frozenset(m) for m in merged], (ta, tb)
        group = _group_by_definition(run, merged)
        candidates = [
            product_perm(a, b)
            for a in graph_automorphisms(qa.b) for b in graph_automorphisms(qb.b)
        ]
        assert [g for g in candidates if run.symmetric([g], 0)] == group, (ta, tb)
        assert run.renamed == orbit_renamings(merged, group), (ta, tb)


def test_fold_run_set_up_matches_the_validated_constructors():
    # the 169 ordered pairs of test_fold_run_orbits_are_the_fibres_of_its_projection
    for ta, tb in PAIRS:
        la, lb = lift_dynkin(ta), lift_dynkin(tb)
        run = _FoldRun(la, lb, ta, tb, coxeter_number(ta) + coxeter_number(tb))
        lifted = Quiver(run.lifted.vertices, run.lifted.b)
        assert run.lifted == lifted == triangle_product(la.quiver, lb.quiver)
        assert run.lifted.b == _product_by_definition(la.quiver, lb.quiver, "boxtimes")
        # proj through the labels, members its fibres
        proj = [run.valued.index((la.to_base[u], lb.to_base[x])) for u, x in lifted.vertices]
        assert run.proj == proj, (ta, tb)
        assert run.members == {
            j: tuple(i for i, p in enumerate(proj) if p == j) for j in range(run.valued.n)
        }
        # the action, built again and validated, with the generators g x id, id x h
        ida, idb = tuple(range(la.quiver.n)), tuple(range(lb.quiver.n))
        generators = tuple(product_perm(g, idb) for g in la.action.generators) + tuple(
            product_perm(ida, h) for h in lb.action.generators
        )
        assert run.action == GroupAction(lifted, generators) == product_action(
            la.action, lb.action, lifted
        )
        # the valued pattern: product, blocks and both initial seeds
        va, vb = alternating_valued_quiver(ta), alternating_valued_quiver(tb)
        assert run.valued.b == _product_by_definition(va, vb, "boxtimes"), (ta, tb)
        assert run.blocks == _blocks_by_definition(va, vb, "boxtimes"), (ta, tb)
        assert run.vseed0 == _initial_seed(run.valued) and run.lseed0 == _initial_seed(lifted)
        assert run.valued.d == tuple(x * y for x in va.d for y in vb.d) == run.vseed0.d
        assert run.lifted.d == (1,) * lifted.n == run.lseed0.d
