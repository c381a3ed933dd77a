import pytest

from oracles import dynkin_types
from yperiod import folding
from yperiod.dynkin import DynkinType
from yperiod.errors import FoldingError, InputError
from yperiod.folding import (
    GroupAction,
    action_from_labels,
    is_admissible,
    lift_dynkin,
    product_action,
    valued_orbit_quiver,
)
from yperiod.quiver import (
    Quiver,
    alternating_quiver,
    alternating_valued_quiver,
    mutate_set,
    triangle_product,
)
from yperiod.seed import graph_automorphisms, product_perm
from test_acceptance import PATTERN_PAIRS
from test_quiver import quiver_from_arrows


# The quivers below are built by the tests that use them, not at import,
# so that a fault in quiver construction fails those tests and not the
# collection of this file.
def _hexagon_chords():
    """Zelevinsky's hexagon with a pair of chords; the antipodal flip is an
    automorphism whose orbit quiver picks up a 2-cycle."""
    return quiver_from_arrows(
        ["1", "2", "3", "1p", "2p", "3p"],
        [("3", "2"), ("2", "1p"), ("1p", "3"), ("1p", "2p"), ("1", "2"),
         ("1", "3p"), ("2p", "1"), ("3p", "2p")],
    )


def _hexagon_cycle():
    """The oriented 6-cycle: same vertices, admissible antipodal action."""
    return quiver_from_arrows(
        ["1", "2", "3", "1p", "2p", "3p"],
        [("1", "2"), ("2", "3"), ("3", "1p"), ("1p", "2p"), ("2p", "3p"), ("3p", "1")],
    )


ANTIPODAL = {"1": "1p", "1p": "1", "2": "2p", "2p": "2", "3": "3p", "3p": "3"}


def orbit_map(action):
    """The orbit map of an action: vertex index -> smallest orbit member."""
    first = {i: orbit[0] for orbit in action.orbits() for i in orbit}
    return [first[i] for i in range(action.quiver.n)]


def test_non_automorphism_generator_rejected():
    with pytest.raises(InputError):
        action_from_labels(_hexagon_cycle(), {"1": "2", "2": "1"})


def test_hexagon_with_chords_is_not_admissible():
    # no arrow within an orbit, so the 2-cycle alone decides
    chords = _hexagon_chords()
    action = action_from_labels(chords, ANTIPODAL)
    orbit = orbit_map(action)
    assert len(set(orbit)) == 3
    b = chords.b
    assert all(orbit[i] != orbit[j] for i in range(6) for j in range(6) if b[i][j] > 0)
    assert not is_admissible(b, orbit)
    with pytest.raises(FoldingError):
        valued_orbit_quiver(action)


def test_rotated_triangle_is_not_admissible():
    # the oriented 3-cycle: its rotation is an automorphism with one
    # orbit, so every arrow is a loop of the orbit quiver
    triangle = quiver_from_arrows(["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")])
    action = action_from_labels(triangle, {"1": "2", "2": "3", "3": "1"})
    assert orbit_map(action) == [0, 0, 0]
    assert not is_admissible(triangle.b, orbit_map(action))
    with pytest.raises(FoldingError):
        valued_orbit_quiver(action)


def test_hexagon_cycle_is_admissible_and_mutates_to_chords():
    cycle = _hexagon_cycle()
    action = action_from_labels(cycle, ANTIPODAL)
    assert is_admissible(cycle.b, orbit_map(action))
    # the orbit map's names are arbitrary labels
    assert is_admissible(cycle.b, ["a", "b", "c", "a", "b", "c"])
    # mutating at the whole orbit of vertex 3 produces the chord hexagon
    assert mutate_set(cycle, ["3", "3p"]) == _hexagon_chords()


def test_trivial_action_keeps_quiver():
    cycle = _hexagon_cycle()
    action = GroupAction(cycle, ())
    assert orbit_map(action) == list(range(6))
    assert is_admissible(cycle.b, orbit_map(action))
    folded = valued_orbit_quiver(action)
    assert folded.b == cycle.b
    assert folded.d == (1,) * 6


def test_a3_end_swap_folds_to_b2():
    a3 = alternating_quiver(DynkinType("A", 3))  # 1 -> 2 <- 3
    action = action_from_labels(a3, {1: 3, 3: 1})
    folded = valued_orbit_quiver(action)
    assert folded.vertices == (1, 2)
    assert folded.b == ((0, 2), (-1, 0))  # single arrow of valuation (2,1)
    assert folded.d == (1, 2)


def test_d4_rotation_folds_to_g2():
    d4 = alternating_quiver(DynkinType("D", 4))
    action = action_from_labels(d4, {1: 3, 3: 4, 4: 1})
    folded = valued_orbit_quiver(action)
    assert folded.d == (1, 3)
    assert folded.b == ((0, 3), (-1, 0))


def test_orbit_stabilizers():
    a3 = alternating_quiver(DynkinType("A", 3))
    action = action_from_labels(a3, {1: 3, 3: 1})
    assert action.orbits() == ((0, 2), (1,))
    # the symmetrizer holds the stabilizer orders
    assert valued_orbit_quiver(action).d == (1, 2)


@pytest.mark.parametrize(
    "base,lifted",
    [(f"B{n}", f"A{2 * n - 1}") for n in range(2, 9)]
    + [("C2", "A3")]
    + [(f"C{n}", f"D{n + 1}") for n in range(3, 9)]
    + [("F4", "E6"), ("G2", "D4")],
)
def test_lift_table(base, lifted):
    t = DynkinType.parse(base)
    lift = lift_dynkin(t)
    assert str(lift.lifted_type) == lifted
    assert lift.folded_quiver() == alternating_valued_quiver(t)
    # to_base is constant on every orbit and takes the orbits onto the
    # base vertices
    images = [
        {lift.to_base[lift.quiver.vertices[i]] for i in orbit} for orbit in lift.action.orbits()
    ]
    assert all(len(image) == 1 for image in images)
    assert sorted(min(image) for image in images) == list(t.vertices)


def test_every_cover_in_the_table_folds_back_onto_its_base():
    # lift_dynkin's refusal of a cover that does not fold back, on every
    # entry of _COVERS up to rank 12: each lift's valued orbit quiver is
    # its base's alternating valued quiver
    used = set()
    for t in dynkin_types(12):
        used.add(str(t) if str(t) in folding._COVERS else t.family)
        lift = lift_dynkin(t)
        assert lift.folded_quiver() == alternating_valued_quiver(t)
    assert used == set(folding._COVERS)


@pytest.mark.parametrize(
    "to_base",
    [{1: 1, 2: 2, 3: 2}, {1: 2, 2: 1, 3: 1}, {1: 1, 2: 1, 3: 1}, {1: 2, 2: 2, 3: 2}],
)
def test_cover_map_must_be_constant_and_one_to_one_on_orbits(monkeypatch, to_base):
    # B2 from A3 by the end swap, whose orbits are {1, 3} and {2}: the first
    # two maps split {1, 3}, the last two send both orbits to one vertex
    monkeypatch.setitem(
        folding._COVERS, "B", lambda n: (("A", 3), ({1: 3, 3: 1},), to_base)
    )
    with pytest.raises(FoldingError, match="one-to-one"):
        lift_dynkin.__wrapped__(DynkinType("B", 2))


def test_generator_must_be_a_permutation_in_ints():
    # (1.0, 0) raised TypeError and (True, False) read as (1, 0)
    a3 = alternating_quiver(DynkinType("A", 3))
    for g in ((2.0, 1, 0), (2, True, False), (0, 0, 1), (1, 0)):
        with pytest.raises(InputError, match="not a permutation"):
            GroupAction(a3, (g,))
    assert GroupAction(a3, ((2, 1, 0),)).group() == {(0, 1, 2), (2, 1, 0)}


def test_trivial_lift_for_simply_laced():
    lift = lift_dynkin(DynkinType.parse("A4"))
    assert lift.trivial
    assert lift.lifted_type == lift.base
    assert lift.quiver == alternating_quiver(DynkinType.parse("A4"))


def test_product_action_orbits():
    la = lift_dynkin(DynkinType.parse("B2"))
    lb = lift_dynkin(DynkinType.parse("B2"))
    prod = triangle_product(la.quiver, lb.quiver)
    action = product_action(la.action, lb.action, prod)
    assert len(action.group()) == 4
    sizes = sorted(len(o) for o in action.orbits())
    assert sizes == [1, 2, 2, 4]
    assert is_admissible(prod.b, orbit_map(action))


@pytest.mark.parametrize(
    "pair", ["B2 B2", "G2 C3", "A2 F4", "C2 A1"] + [f"{sa} {sb}" for sa, sb in PATTERN_PAIRS]
)
def test_product_action_acts_coordinatewise(pair):
    # the generators read off the row-major layout move each factor's
    # label by that factor's generator and keep the other; and product_perm,
    # which builds them, takes the index of (u, x) to that of
    # (alpha(u), beta(x)) for every pair of factor automorphisms
    la, lb = (lift_dynkin(DynkinType.parse(t)) for t in pair.split())
    qa, qb = la.quiver, lb.quiver
    prod = triangle_product(qa, qb)
    action = product_action(la.action, lb.action, prod)
    expected = [
        {(u, x): (qa.vertices[g[qa.index(u)]], x) for u, x in prod.vertices}
        for g in la.action.generators
    ] + [
        {(u, x): (u, qb.vertices[h[qb.index(x)]]) for u, x in prod.vertices}
        for h in lb.action.generators
    ]
    assert [
        {v: prod.vertices[g[i]] for i, v in enumerate(prod.vertices)}
        for g in action.generators
    ] == expected
    where = {v: i for i, v in enumerate(prod.vertices)}
    pairs = [(a, b) for a in graph_automorphisms(qa.b) for b in graph_automorphisms(qb.b)]
    for alpha, beta in pairs:
        assert product_perm(alpha, beta) == tuple(
            where[qa.vertices[alpha[qa.index(u)]], qb.vertices[beta[qb.index(x)]]]
            for u, x in prod.vertices
        ), (pair, alpha, beta)
    assert len(pairs) > 1 or pair == "A1 A1"
