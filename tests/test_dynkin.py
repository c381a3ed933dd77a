import pytest

from oracles import COXETER_TABLE, dynkin_types
from yperiod.dynkin import (
    Bipartition,
    DynkinType,
    bipartition,
    cartan_matrix,
    coxeter_element,
    coxeter_number,
    edges,
    incidence_matrix,
    matrix_order,
    positive_roots,
    symmetrizer,
)
from yperiod.errors import InputError

ALL_SMALL = [DynkinType(f, n) for (f, n) in sorted(COXETER_TABLE)]
SIMPLY_LACED_SMALL = [t for t in ALL_SMALL if t.simply_laced]


def test_parse_and_str():
    assert DynkinType.parse("a4") == DynkinType("A", 4)
    assert str(DynkinType.parse("D5")) == "D5"
    assert DynkinType.parse("g2").family == "G"


@pytest.mark.parametrize("bad", ["Z9", "A0", "B1", "C1", "D3", "E5", "E9", "F3", "G4", "Q"])
def test_illegal_types_unconstructible(bad):
    with pytest.raises(InputError):
        DynkinType.parse(bad)


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: DynkinType("H", 3), "unknown family"),
        (lambda: bipartition(DynkinType("A", 2)).sign(3), "unknown vertex"),
        (lambda: matrix_order(((1, 1), (0, 1))), "matrix order exceeds"),
    ],
    ids=["family", "bipartition-vertex", "infinite-order"],
)
def test_dynkin_refusals(make, match):
    with pytest.raises(InputError, match=match):
        make()


@pytest.mark.parametrize("rank", [2.5, 3.0, True, "3", None])
def test_rank_must_be_an_int(rank):
    # 2.5 used to be A2, True A1 and "3" A3
    with pytest.raises(InputError, match="rank must be an integer"):
        DynkinType("A", rank)


def test_simply_laced_families():
    assert DynkinType("A", 1).simply_laced
    assert DynkinType("D", 4).simply_laced
    assert DynkinType("E", 7).simply_laced
    for s in ("B2", "C3", "F4", "G2"):
        assert not DynkinType.parse(s).simply_laced


def test_cartan_matrix_basics():
    for t in ALL_SMALL:
        c = cartan_matrix(t)
        n = t.rank
        assert all(c[i][i] == 2 for i in range(n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert c[i][j] <= 0
                    assert (c[i][j] == 0) == (c[j][i] == 0)
        d = symmetrizer(t)
        assert all(x > 0 for x in d)
        assert all(
            d[i] * c[i][j] == d[j] * c[j][i] for i in range(n) for j in range(n)
        )


def test_cartan_b2_orientation():
    assert cartan_matrix(DynkinType("B", 2)) == ((2, -2), (-1, 2))
    assert symmetrizer(DynkinType("B", 2)) == (1, 2)
    assert symmetrizer(DynkinType("C", 3)) == (2, 2, 1)
    assert symmetrizer(DynkinType("F", 4)) == (1, 1, 2, 2)
    assert symmetrizer(DynkinType("G", 2)) == (1, 3)


def test_incidence_examples():
    assert incidence_matrix(DynkinType("A", 1)) == ((0,),)
    assert incidence_matrix(DynkinType("A", 2)) == ((0, 1), (1, 0))
    assert incidence_matrix(DynkinType("B", 2)) == ((0, 2), (1, 0))


def test_incidence_symmetric_iff_simply_laced():
    for t in ALL_SMALL:
        a = incidence_matrix(t)
        symmetric = all(
            a[i][j] == a[j][i] for i in range(t.rank) for j in range(t.rank)
        )
        assert symmetric == t.simply_laced
        if t.simply_laced:
            assert all(x in (0, 1) for row in a for x in row)


def test_bipartition_examples():
    assert bipartition(DynkinType("A", 2)) == Bipartition(
        plus=frozenset({1}), minus=frozenset({2})
    )
    assert bipartition(DynkinType("A", 4)).plus == frozenset({1, 3})
    d4 = bipartition(DynkinType("D", 4))
    assert d4.minus == frozenset({2})  # the center sits alone


def test_bipartition_is_proper_two_coloring():
    for t in ALL_SMALL:
        bip = bipartition(t)
        assert bip.plus | bip.minus == set(t.vertices)
        assert not bip.plus & bip.minus
        for i, j in edges(t):
            assert bip.sign(i) == -bip.sign(j)


def test_coxeter_numbers_match_static_table():
    for t in ALL_SMALL:
        assert coxeter_number(t) == COXETER_TABLE[(t.family, t.rank)], str(t)


def test_coxeter_element_order_equals_coxeter_number():
    for t in SIMPLY_LACED_SMALL:
        c = coxeter_element(t)
        h = coxeter_number(t)
        assert matrix_order(c) == h
        # exhaustive powering: no smaller power is the identity
        n = t.rank
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        power = ident
        for k in range(1, h):
            power = tuple(
                tuple(sum(c[r][s] * power[s][t2] for s in range(n)) for t2 in range(n))
                for r in range(n)
            )
            assert power != ident, f"{t}: c^{k} is already the identity"


def test_coxeter_element_small_examples():
    a1 = coxeter_element(DynkinType("A", 1))
    assert a1 == ((-1,),)
    assert matrix_order(coxeter_element(DynkinType("A", 2))) == 3
    assert matrix_order(coxeter_element(DynkinType("E", 6))) == 12


def test_coxeter_element_rejects_multiply_laced():
    with pytest.raises(InputError):
        coxeter_element(DynkinType("B", 3))


def test_positive_roots_examples():
    assert positive_roots(DynkinType("A", 1)) == frozenset({(1,)})
    assert positive_roots(DynkinType("A", 2)) == frozenset({(1, 0), (0, 1), (1, 1)})
    assert len(positive_roots(DynkinType("D", 4))) == 12


def test_positive_root_count_is_rank_h_over_two():
    for t in SIMPLY_LACED_SMALL:
        assert len(positive_roots(t)) == t.rank * coxeter_number(t) // 2

def test_positive_roots_rejects_multiply_laced():
    with pytest.raises(InputError):
        positive_roots(DynkinType("G", 2))


@pytest.mark.parametrize("t", dynkin_types(20), ids=str)
def test_every_cartan_matrix_in_the_table_is_symmetrizable(t):
    # symmetrizer's refusal of a matrix that is not: a Cartan matrix whose
    # entries c_ij and c_ji vanish together and whose diagram is a tree
    # always is one (fix d on one vertex and spread it along the edges),
    # so the refusal cannot fire on the table
    c, n = cartan_matrix(t), t.rank
    pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if c[i][j] or c[j][i]}
    assert all(c[i][j] and c[j][i] for i, j in pairs)
    assert pairs == {(i - 1, j - 1) for i, j in edges(t)} and len(pairs) == n - 1
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if c[i][j] and j not in reached:
                reached.add(j)
                frontier.append(j)
    assert reached == set(range(n))
    d = symmetrizer(t)
    assert all(d[i] * c[i][j] == d[j] * c[j][i] for i in range(n) for j in range(n))
