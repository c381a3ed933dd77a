import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import constrained_by_definition, mutate_matrix_direct
from yperiod.dynkin import DynkinType
from yperiod.errors import InputError
from yperiod.quiver import (
    Quiver,
    ValuedQuiver,
    alternating_quiver,
    alternating_valued_quiver,
    format_quiver,
    has_loops_or_two_cycles,
    horizontal_slice,
    is_constrained,
    mutate_matrix,
    mutate_set,
    quiver_from_json,
    quiver_to_json,
    source_sink_vertices,
    square_product,
    tensor_product,
    triangle_product,
    vertical_slice,
)
from yperiod.seed import Seed


def quiver_from_arrows(vertices, arrows):
    """Build a quiver from a list of (source, target) or (source, target, mult)."""
    n = len(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    b = [[0] * n for _ in range(n)]
    for arrow in arrows:
        u, w = arrow[0], arrow[1]
        m = arrow[2] if len(arrow) > 2 else 1
        b[pos[u]][pos[w]] += m
        b[pos[w]][pos[u]] -= m
    return Quiver(tuple(vertices), b)


A2 = alternating_quiver(DynkinType("A", 2))

# the two 4-vertex quivers displayed as a mutation pair: the triangle
# product of two copies of A2, and its mutation at the source-sink corner
BOX_A2 = quiver_from_arrows(
    [(1, 1), (1, 2), (2, 1), (2, 2)],
    [((1, 1), (1, 2)), ((1, 1), (2, 1)), ((1, 2), (2, 2)), ((2, 1), (2, 2)),
     ((2, 2), (1, 1))],
)
SQ_A2 = quiver_from_arrows(
    [(1, 1), (1, 2), (2, 1), (2, 2)],
    [((1, 1), (2, 1)), ((2, 1), (2, 2)), ((1, 2), (1, 1)), ((2, 2), (1, 2))],
)

# arrow sets of the alternating orientations used in the product figures
A4_PAPER = quiver_from_arrows([1, 2, 3, 4], [(2, 1), (2, 3), (4, 3)])
D5_PAPER = quiver_from_arrows([1, 2, 3, 4, 5], [(2, 1), (2, 3), (4, 3), (5, 3)])


# -- mutation -----------------------------------------------------------------

def test_mutation_of_displayed_pair():
    # mutating the triangle product at the black vertex gives the square product
    assert BOX_A2.mutate((1, 2)) == SQ_A2
    assert SQ_A2.mutate((1, 2)) == BOX_A2


def test_mutation_is_involution_small():
    for v in BOX_A2.vertices:
        assert BOX_A2.mutate(v).mutate(v) == BOX_A2


def test_kronecker_mutation_flips_sign():
    q = Quiver((1, 2), ((0, 2), (-2, 0)))
    assert q.mutate(1).b == ((0, -2), (2, 0))


def test_mutation_unknown_vertex():
    with pytest.raises(InputError):
        A2.mutate(7)


@st.composite
def random_quivers(draw):
    n = draw(st.integers(2, 8))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = draw(st.integers(-3, 3))
            b[j][i] = -b[i][j]
    return Quiver(tuple(range(1, n + 1)), b)


@given(random_quivers(), st.data())
@settings(max_examples=150)
def test_mutation_involution_random(q, data):
    k = data.draw(st.sampled_from(q.vertices))
    assert q.mutate(k).mutate(k) == q


@st.composite
def skew_symmetrizable(draw):
    """(b, d) with diag(d) b skew-symmetric: b[i][j] = t d_j / gcd(d_i, d_j)
    and b[j][i] = -t d_i / gcd(d_i, d_j) for a drawn t."""
    n = draw(st.integers(1, 8))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t, g = draw(st.integers(-3, 3)), math.gcd(d[i], d[j])
            b[i][j], b[j][i] = t * d[j] // g, -t * d[i] // g
    return tuple(map(tuple, b)), tuple(d)


@given(skew_symmetrizable(), st.data())
@settings(max_examples=200, deadline=None)
def test_mutate_matrix_matches_the_full_rule(bd, data):
    b, d = bd
    ValuedQuiver(tuple(range(len(b))), b, d)  # the drawn matrix is valid
    k = data.draw(st.integers(0, len(b) - 1))
    out = mutate_matrix(b, k)
    assert out == tuple(map(tuple, mutate_matrix_direct(b, k)))
    # the rows away from k are b's own rows, not copies
    for i, row in enumerate(b):
        if i != k and not row[k]:
            assert out[i] is row


# -- valued mutation ----------------------------------------------------------

def _valued_square():
    """A valued 4-cycle with a (1,4)-valued diagonal, built by each test
    that uses it: a fault in the validity rule then fails those tests, not
    the collection of this file and of the files importing from it."""
    return ValuedQuiver(
        (1, 2, 3, 4),
        ((0, 2, -1, 0), (-1, 0, 1, -1), (2, -4, 0, 2), (0, 2, -1, 0)),
        (2, 4, 1, 2),
    )


def test_valued_square_mutation_matches_display():
    # valued 4-cycle with a (1,4)-valued diagonal; mutation at vertex 1
    # keeps the symmetrizer and produces the displayed valuations
    square = _valued_square()
    out = square.mutate(1)
    assert out.d == square.d
    assert sorted(out.arrows()) == sorted(
        [(2, 1, 1, 2), (1, 3, 1, 2), (3, 4, 2, 1), (4, 2, 2, 1)]
    )


def test_valued_mutation_involution():
    square = _valued_square()
    for v in square.vertices:
        assert square.mutate(v).mutate(v) == square


def test_valued_mutation_agrees_with_plain_when_trivial():
    plain = BOX_A2
    val = ValuedQuiver(plain.vertices, plain.b, (1,) * plain.n)
    for v in plain.vertices:
        assert val.mutate(v).b == plain.mutate(v).b


def test_valued_quiver_validation():
    with pytest.raises(InputError):
        ValuedQuiver((1, 2), ((0, 2), (-1, 0)), (1, 1))  # d does not symmetrize
    with pytest.raises(InputError):
        ValuedQuiver((1, 2), ((0, 2), (-1, 0)), (1, -2))


def test_quiver_refuses_matrix_entries_int_would_truncate():
    # int() read this matrix as ((0, 1), (-1, 0))
    with pytest.raises(InputError):
        Quiver((1, 2), [[0, 1.5], [-1.9, 0]])
    with pytest.raises(InputError):
        ValuedQuiver((1, 2), [[0, 1.5], [-1.9, 0]], (1, 1))


def test_valued_quiver_refuses_a_symmetrizer_int_would_truncate():
    # int() read d = [1.7, 1] as (1, 1)
    with pytest.raises(InputError):
        ValuedQuiver((1, 2), ((0, 1), (-1, 0)), [1.7, 1])


def test_valued_quiver_refuses_a_boolean_symmetrizer_entry():
    # int() read True as 1
    with pytest.raises(InputError):
        ValuedQuiver((1, 2), ((0, 1), (-1, 0)), (True, 1))


# -- quivers built without validation -------------------------------------------

def _revalidated(q):
    """q rebuilt by its validating constructor."""
    if isinstance(q, ValuedQuiver):
        return ValuedQuiver(q.vertices, q.b, q.d)
    return Quiver(q.vertices, q.b)


valued_quivers = skew_symmetrizable().map(
    lambda bd: ValuedQuiver(tuple(range(1, len(bd[0]) + 1)), *bd)
)


@given(st.one_of(random_quivers(), valued_quivers), st.data())
@settings(max_examples=150, deadline=None)
def test_derived_quivers_pass_the_validating_constructor(q, data):
    # mutate and full_subquiver build their results unvalidated: each must
    # be one the constructor accepts, field for field the same
    for v in data.draw(st.lists(st.sampled_from(q.vertices), max_size=6)):
        q = q.mutate(v)
        assert _revalidated(q) == q and _revalidated(q).d == q.d
        labels = data.draw(st.lists(st.sampled_from(q.vertices), unique=True))
        sub = q.full_subquiver(labels)
        assert _revalidated(sub) == sub and _revalidated(sub).d == sub.d


def test_full_subquiver_refuses_a_repeated_label():
    for q in (BOX_A2, _valued_square()):
        u, w = q.vertices[:2]
        with pytest.raises(InputError):
            q.full_subquiver((u, w, u))


# -- one validity rule for both classes ----------------------------------------

def _accepts(build) -> bool:
    try:
        build()
    except InputError:
        return False
    return True


@st.composite
def matrices_and_symmetrizers(draw):
    """(b, d): a skew-symmetrizable pair with perhaps one entry of b or d
    changed, or a small square matrix and symmetrizer drawn entrywise."""
    if draw(st.booleans()):
        b, d = draw(skew_symmetrizable())
        b, d, n = [list(row) for row in b], list(d), len(d)
        if draw(st.booleans()):
            b[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += 1
        if draw(st.booleans()):
            d[draw(st.integers(0, n - 1))] = draw(st.integers(-1, 3))
        return b, d
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n)), draw(
        st.lists(st.integers(-1, 2), min_size=n, max_size=n)
    )


@given(matrices_and_symmetrizers())
@settings(max_examples=300, deadline=None)
def test_valued_quiver_accepts_exactly_the_snapshots_of_its_initial_seed(bd):
    b, d = bd
    n = len(b)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    snapshot = {"b": b, "d": d, "c": units, "f": ["1"] * n, "g": units}
    by_definition = all(x > 0 for x in d) and all(
        d[i] * b[i][j] == -d[j] * b[j][i] for i in range(n) for j in range(n)
    )
    valued = _accepts(lambda: ValuedQuiver(tuple(range(n)), b, d))
    assert valued == _accepts(lambda: Seed.from_json(snapshot)) == by_definition
    if valued:
        q = ValuedQuiver(tuple(range(n)), b, d)
        assert Seed.initial(q).d == q.d == tuple(d)


square_matrices = st.one_of(
    random_quivers().map(lambda q: q.b), matrices_and_symmetrizers().map(lambda bd: bd[0])
)


@given(square_matrices, st.data())
@settings(max_examples=300, deadline=None)
def test_quiver_accepts_exactly_what_a_valued_quiver_with_unit_d_does(b, data):
    # labels that may repeat, or miss or add a row
    n = len(b)
    labels = st.lists(st.integers(0, n), min_size=n - 1, max_size=n + 1).map(tuple)
    vertices = data.draw(st.one_of(st.just(tuple(range(n))), labels))
    ones = (1,) * len(vertices)
    by_definition = len(set(vertices)) == len(vertices) == n and all(
        b[i][j] == -b[j][i] for i in range(n) for j in range(n)
    )
    plain = _accepts(lambda: Quiver(vertices, b))
    assert plain == _accepts(lambda: ValuedQuiver(vertices, b, ones)) == by_definition
    if plain:
        q = Quiver(vertices, b)
        assert Seed.initial(q).d == q.d == ones


@st.composite
def acyclic_factors(draw):
    """A quiver or valued quiver on 1..4 vertices whose arrows all run
    from a smaller index to a larger one."""
    n = draw(st.integers(1, 4))
    plain = draw(st.booleans())
    d = [1] * n if plain else draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t, g = draw(st.integers(0, 2)), math.gcd(d[i], d[j])
            b[i][j], b[j][i] = t * d[j] // g, -t * d[i] // g
    vertices = tuple(range(1, n + 1))
    return Quiver(vertices, b) if plain else ValuedQuiver(vertices, b, d)


@given(acyclic_factors(), acyclic_factors())
@settings(max_examples=150, deadline=None)
def test_products_carry_the_row_major_product_of_the_factor_symmetrizers(q, qp):
    d = tuple(x * y for x in q.d for y in qp.d)
    cls = Quiver if type(q) is type(qp) is Quiver else ValuedQuiver
    products = [tensor_product(q, qp), triangle_product(q, qp)]
    if q.is_alternating() and qp.is_alternating():
        products.append(square_product(q, qp))
    for product in products:
        assert type(product) is cls and product.d == d and Seed.initial(product).d == d
        # built raw, and valid by the one rule
        assert ValuedQuiver(product.vertices, product.b, d).b == product.b


# -- products -----------------------------------------------------------------

def test_tensor_a2_a2():
    t = tensor_product(A2, A2)
    assert sorted((u, w) for u, w, _, _ in t.arrows()) == [
        ((1, 1), (1, 2)),
        ((1, 1), (2, 1)),
        ((1, 2), (2, 2)),
        ((2, 1), (2, 2)),
    ]


def test_tensor_with_a1_is_isomorphic_to_factor():
    a1 = alternating_quiver(DynkinType("A", 1))
    t = tensor_product(a1, A4_PAPER)
    assert [w for (_, w) in t.vertices] == list(A4_PAPER.vertices)
    assert t.b == A4_PAPER.b
    assert triangle_product(a1, A4_PAPER).b == A4_PAPER.b


def test_tensor_slices_are_factor_copies():
    t = tensor_product(A4_PAPER, D5_PAPER)
    assert t.n == 20
    assert len(t.arrows()) == 3 * 5 + 4 * 4
    for x in D5_PAPER.vertices:
        assert horizontal_slice(t, A4_PAPER, x).b == A4_PAPER.b
    for u in A4_PAPER.vertices:
        assert vertical_slice(t, D5_PAPER, u).b == D5_PAPER.b


def test_triangle_a2_a2_matches_display():
    assert triangle_product(A2, A2) == BOX_A2


def test_triangle_a4_d5_diagonals():
    box = triangle_product(A4_PAPER, D5_PAPER)
    ten = tensor_product(A4_PAPER, D5_PAPER)
    assert len(box.arrows()) == len(ten.arrows()) + 3 * 4
    expected_diagonals = {
        ((j, jp), (i, ip))
        for (i, j, _, _) in A4_PAPER.arrows()
        for (ip, jp, _, _) in D5_PAPER.arrows()
    }
    diagonals = {
        (u, w)
        for u, w, _, _ in box.arrows()
        if u[0] != w[0] and u[1] != w[1]
    }
    assert diagonals == expected_diagonals


def test_square_a2_a2_matches_display():
    assert square_product(A2, A2) == SQ_A2


def test_square_a1_a1():
    a1 = alternating_quiver(DynkinType("A", 1))
    sq = square_product(a1, a1)
    assert sq.n == 1 and not sq.arrows()


def test_square_requires_alternating():
    path = quiver_from_arrows([1, 2, 3], [(1, 2), (2, 3)])  # linear orientation
    with pytest.raises(InputError):
        square_product(path, A2)


def test_products_require_acyclic():
    cycle = quiver_from_arrows([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(InputError):
        tensor_product(cycle, A2)


def test_products_of_dynkin_factors_have_no_loops_or_two_cycles():
    pairs = [("A2", "A2"), ("A3", "A2"), ("A4", "A3"), ("D4", "A2"), ("D5", "A1")]
    for sa, sb in pairs:
        qa = alternating_quiver(DynkinType.parse(sa))
        qb = alternating_quiver(DynkinType.parse(sb))
        for prod in (tensor_product, triangle_product, square_product):
            assert not prod(qa, qb).has_loops_or_two_cycles()


# -- composite mutation -------------------------------------------------------

def test_mutate_set_turns_square_into_triangle():
    m = [(1, 2)]  # source of A2 times sink of A2
    assert mutate_set(SQ_A2, m) == BOX_A2


def test_mutate_set_empty_is_identity():
    assert mutate_set(BOX_A2, []) == BOX_A2


A3_LINEAR = Quiver((1, 2, 3), ((0, 1, 0), (-1, 0, 1), (0, -1, 0)))


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: mutate_matrix(A3_LINEAR.b, 3), "out of range"),
        (lambda: A3_LINEAR.vertex_sign(2), "neither a source nor a sink"),
    ],
    ids=["mutation-index", "middle-vertex-sign"],
)
def test_quiver_refusals(make, match):
    with pytest.raises(InputError, match=match):
        make()


def test_a_two_cycle_is_found():
    # the diagonal is clear, so only the pair of positive entries tells
    assert has_loops_or_two_cycles(((0, 1), (1, 0)))
    assert not has_loops_or_two_cycles(A3_LINEAR.b)


def test_mutate_set_rejects_adjacent_vertices():
    with pytest.raises(InputError):
        mutate_set(BOX_A2, [(1, 1), (1, 2)])


def test_mutate_set_rejects_a_repeated_vertex():
    # mutating twice at (1, 1) would return the quiver unchanged
    with pytest.raises(InputError, match="repeat"):
        mutate_set(BOX_A2, [(1, 1), (1, 1)])
    a3 = alternating_quiver(DynkinType("A", 3))
    with pytest.raises(InputError, match="repeat"):
        mutate_set(a3, [1, 3, 1])


def test_mutate_set_a4_d5_and_order_independence():
    box = triangle_product(A4_PAPER, D5_PAPER)
    sq = square_product(A4_PAPER, D5_PAPER)
    m = [
        (u, x)
        for u in A4_PAPER.sources()
        for x in D5_PAPER.sinks()
    ]
    assert len(m) == 4
    results = {mutate_set(sq, perm) for perm in itertools.permutations(m)}
    assert results == {box}


# -- constrained structure ----------------------------------------------------

def test_constrained_examples():
    assert is_constrained(BOX_A2, A2, A2)
    assert is_constrained(SQ_A2, A2, A2)
    assert not is_constrained(tensor_product(A2, A2), A2, A2)
    box45 = triangle_product(A4_PAPER, D5_PAPER)
    assert is_constrained(box45, A4_PAPER, D5_PAPER)
    assert is_constrained(square_product(A4_PAPER, D5_PAPER), A4_PAPER, D5_PAPER)


def test_constrained_agrees_with_the_definition():
    # products and their one-pair changes, each breaking few of the
    # conditions, read as a product-ordered matrix and as a quiver in a
    # shuffled vertex order, against the definition
    rng, seen = random.Random(5), set()
    for q, qp in [(A2, A2), (A4_PAPER, A2), (A2, D5_PAPER), (A4_PAPER, D5_PAPER)]:
        for product in (triangle_product(q, qp), square_product(q, qp)):
            for _ in range(60):
                b = [list(row) for row in product.b]
                a, c = rng.sample(range(product.n), 2)
                b[a][c] = rng.choice((-2, -1, 0, 1, 2))
                b[c][a] = -b[a][c]
                r = Quiver(product.vertices, b)
                expected = constrained_by_definition(r.b, q, qp)
                order = rng.sample(r.vertices, r.n)
                assert is_constrained(r.b, q, qp) == expected
                assert is_constrained(r.full_subquiver(order), q, qp) == expected
                seen.add(expected)
    assert seen == {True, False}


def test_constrained_vertex_mismatch():
    with pytest.raises(InputError):
        is_constrained(BOX_A2, A2, A4_PAPER)


def test_source_sink_mutation_preserves_constraint_and_slices():
    for q, qp in [(A2, A2), (A4_PAPER, D5_PAPER)]:
        box = triangle_product(q, qp)
        for v in source_sink_vertices(box, q, qp):
            out = box.mutate(v)
            assert is_constrained(out, q, qp)
            # the touched slices mutate, all the others stay put
            for x in qp.vertices:
                expected = horizontal_slice(box, q, x)
                if x == v[1]:
                    expected = expected.mutate(v)
                assert horizontal_slice(out, q, x) == expected
            for u in q.vertices:
                expected = vertical_slice(box, qp, u)
                if u == v[0]:
                    expected = expected.mutate(v)
                assert vertical_slice(out, qp, u) == expected


def test_source_sinks_of_triangle_product():
    assert source_sink_vertices(BOX_A2, A2, A2) == {(1, 2)}
    box45 = triangle_product(A4_PAPER, D5_PAPER)
    expected = {
        (u, x) for u in A4_PAPER.sources() for x in D5_PAPER.sinks()
    }
    got = source_sink_vertices(box45, A4_PAPER, D5_PAPER)
    assert got == expected
    # never adjacent, never on a diagonal
    for a in got:
        for b in got:
            if a != b:
                assert box45.b[box45.index(a)][box45.index(b)] == 0


def test_source_sinks_require_constrained_input():
    with pytest.raises(InputError):
        source_sink_vertices(tensor_product(A2, A2), A2, A2)


# -- alternating quivers of diagrams ------------------------------------------

def test_alternating_quiver_sources_are_plus_class():
    q = alternating_quiver(DynkinType("A", 4))
    assert set(q.sources()) == {1, 3}
    assert q.is_alternating()


def test_alternating_valued_quiver_b2():
    q = alternating_valued_quiver(DynkinType("B", 2))
    assert q.b == ((0, 2), (-1, 0))
    assert q.d == (1, 2)


def test_alternating_quiver_rejects_multiply_laced():
    with pytest.raises(InputError):
        alternating_quiver(DynkinType("B", 2))


# -- serialization ------------------------------------------------------------

def test_json_round_trip_plain():
    obj = quiver_to_json(BOX_A2)
    assert quiver_from_json(obj) == BOX_A2


def test_json_round_trip_valued():
    square = _valued_square()
    q = quiver_from_json(quiver_to_json(square))
    assert isinstance(q, ValuedQuiver) and q == square


def test_json_rejects_garbage():
    with pytest.raises(InputError):
        quiver_from_json({"vertices": [1, 2]})
    with pytest.raises(InputError):
        quiver_from_json({"vertices": [1, 2], "b": [[0, 1], [1, 0]]})


def test_json_refuses_numbers_and_shapes_it_would_misread():
    # each bad entry would once have been truncated to the value it replaces
    good = {"vertices": [1, 2], "b": [[0, 1], [-1, 0]]}
    for bad in (
        {"vertices": 5, "b": []},
        {"vertices": "12"},
        {"b": 3},
        {"b": [[0, 1], 7]},
        {"b": [[0, 1.5], [-1.5, 0]]},
        {"b": [[0, True], [-1, 0]]},
        {"b": [[0, "1"], [-1, 0]]},
        {"d": [1.9, 1.2]},
        {"d": [True, 1]},
        {"d": 2},
    ):
        with pytest.raises(InputError):
            quiver_from_json({**good, **bad})
    assert quiver_from_json(good) == Quiver((1, 2), ((0, 1), (-1, 0)))
    assert quiver_from_json({**good, "d": [1, 1]}).d == (1, 1)


def test_format_quiver_sorted_arrows():
    text = format_quiver(BOX_A2)
    lines = [l.strip() for l in text.splitlines() if "->" in l]
    assert lines == sorted(lines)
    assert "(2,2) -> (1,1) (1,1)" in lines


def test_random_mutation_walk_stays_skew_symmetric():
    rng = random.Random(3)
    q = triangle_product(A4_PAPER, D5_PAPER)
    for _ in range(40):
        q = q.mutate(rng.choice(q.vertices))
    assert not q.has_loops_or_two_cycles()
