import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dynkin_types,
    exchange_args_with_units,
    exchange_by_expansion,
    g_vectors_by_replay,
    mutate_seed_full,
    mutate_with_history,
    mutate_x_values,
    mutate_y_values,
)
from test_acceptance import FOLD_PAIRS, PATTERN_PAIRS
from yperiod.algebra import Polynomial, RationalPoint, exchange
from yperiod.dynkin import DynkinType
from yperiod.errors import InputError, SeedInvariantError
from yperiod.quiver import (
    alternating_quiver,
    alternating_valued_quiver,
    square_product,
    triangle_product,
)
from yperiod.seed import Seed, _sign_coherent, fixes, graph_automorphisms

A2 = alternating_quiver(DynkinType("A", 2))
A3 = alternating_quiver(DynkinType("A", 3))


def unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


# -- initial seeds ------------------------------------------------------------

@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: Seed.initial("x"), "needs a quiver"),
        (lambda: Seed.initial(A2).equals("x"), "can only compare seeds"),
        (lambda: Seed.initial(A2).y_expression(0).evaluate([1]), "dimension mismatch"),
    ],
    ids=["initial-of-a-string", "equals-a-string", "evaluate-short-point"],
)
def test_seed_refusals(make, match):
    with pytest.raises(InputError, match=match):
        make()


def test_initial_seed_a2():
    s = Seed.initial(A2)
    assert s.b == ((0, 1), (-1, 0))
    assert s.c == (unit(2, 0), unit(2, 1))
    assert all(f.is_one() for f in s.f)
    assert s.g_vectors() == (unit(2, 0), unit(2, 1))


def test_initial_c_matrix_is_identity_generally():
    q = triangle_product(A3, A2)
    s = Seed.initial(q)
    assert s.c == tuple(unit(6, j) for j in range(6))


def test_initial_valued_seed_carries_symmetrizer():
    vq = alternating_valued_quiver(DynkinType("B", 2))
    s = Seed.initial(vq)
    assert s.d == (1, 2)


# -- single mutations ---------------------------------------------------------

def test_mutate_a2_at_first_vertex():
    s = Seed.initial(A2).mutate(0)
    assert s.c == ((-1, 0), (1, 1))
    assert [f.text() for f in s.f] == ["1 + y1", "1"]


def test_first_mutation_gives_one_plus_yk():
    for q in (A2, A3, triangle_product(A2, A2)):
        for k in range(q.n):
            s = Seed.initial(q).mutate(k)
            assert s.f[k] == Polynomial.parse(q.n, f"1 + y{k + 1}")


def test_mutation_is_involution_fieldwise():
    rng = random.Random(11)
    q = triangle_product(A3, A2)
    s = Seed.initial(q)
    for _ in range(12):
        s = s.mutate(rng.randrange(q.n))
    for k in range(q.n):
        twice = s.mutate(k).mutate(k)
        assert twice.b == s.b and twice.c == s.c and twice.f == s.f
        assert twice.g_vectors() == s.g_vectors()
        assert twice.equals(s)


def test_mutation_rejects_bad_vertex():
    with pytest.raises(InputError):
        Seed.initial(A2).mutate(5)


def test_mutation_refuses_a_vertex_index_that_is_not_an_int():
    # True read as 1 mutated vertex 1; 1.0 and "1" raised TypeError
    s = Seed.initial(A3)
    for k in (True, False, 1.0, "1", None):
        with pytest.raises(InputError, match="not an int"):
            s.mutate(k)
        with pytest.raises(InputError, match="not an int"):
            s.mutate_block([k])
    # checked before the adjacency test indexes the matrix with them
    for ks in ([0, 1.5], [0, 7], [0, -1]):
        with pytest.raises(InputError, match="not an int"):
            s.mutate_block(ks)


def test_expressions_refuse_a_vertex_index_that_is_not_an_int():
    # True read as 1 gave vertex 1's expression, and 1.0 raised TypeError
    s = Seed.initial(A3)
    for j in (True, False, 1.0, "1", None, 3, -1):
        with pytest.raises(InputError, match="not an int"):
            s.y_expression(j)
        with pytest.raises(InputError, match="not an int"):
            s.x_expression(j, s.b)


def test_mutation_refuses_a_given_f_that_is_not_a_polynomial_in_n_variables():
    # f="x" raised AttributeError
    s = Seed.initial(A3)
    for f in ("x", 1, (1,), Polynomial.one(2), Polynomial.one(4)):
        with pytest.raises(InputError, match="not a polynomial in 3 variables"):
            s.mutate(0, f=f)
    assert s.mutate(0, f=s.mutate(0).f[0]).equals(s.mutate(0))


def test_divisibility_failure_is_invariant_error():
    s = Seed.initial(A2)
    broken = Seed(
        b=s.b,
        d=s.d,
        c=s.c,
        g=s.g,
        f=(Polynomial.parse(2, "1 + y2"), Polynomial.one(2)),
    )
    with pytest.raises(SeedInvariantError):
        broken.mutate(0)


# -- block mutation -----------------------------------------------------------

def test_block_singleton_equals_single():
    s = Seed.initial(A3)
    assert s.mutate_block([1]).equals(s.mutate(1))


def test_block_empty_is_identity():
    s = Seed.initial(A3)
    assert s.mutate_block([]).equals(s)


def test_block_order_independence_on_square_product():
    sq = square_product(A2, A2)
    s = Seed.initial(sq)
    block = [sq.index((1, 1)), sq.index((2, 2))]  # non-adjacent pair
    a = s.mutate_block(block)
    b = s.mutate_block(list(reversed(block)))
    assert a.b == b.b and a.c == b.c and a.f == b.f
    assert a.g_vectors() == b.g_vectors()


def test_block_rejects_adjacent():
    s = Seed.initial(A2)
    with pytest.raises(InputError):
        s.mutate_block([0, 1])


def test_block_rejects_a_repeated_vertex():
    # mutating twice at 1 would return the seed unchanged
    s = Seed.initial(A3)
    with pytest.raises(InputError, match="repeat"):
        s.mutate_block([1, 1])
    with pytest.raises(InputError, match="repeat"):
        s.mutate_block([0, 2, 0])


# -- invariants along random walks ---------------------------------------------

def test_sign_coherence_and_f_positivity_along_walks():
    rng = random.Random(5)
    q = triangle_product(A3, A2)
    for _ in range(5):
        s = Seed.initial(q)
        for _ in range(15):
            s = s.mutate(rng.randrange(q.n))
            for j in range(q.n):
                col = s.c[j]
                assert all(x >= 0 for x in col) or all(x <= 0 for x in col)
                assert s.f[j].constant_term() == 1
                assert s.f[j].has_nonnegative_coefficients()


# -- reconstruction against the direct recursions -------------------------------

def eval_seed_y(seed, point):
    return [seed.y_expression(j).evaluate(point) for j in range(seed.n)]


def test_y_variable_initial_and_after_mutation():
    s = Seed.initial(A2)
    pt = RationalPoint([Fraction(2, 3), Fraction(5, 7)])
    assert eval_seed_y(s, pt) == list(pt)
    s1 = s.mutate(0)
    direct_b, direct_vals = mutate_y_values([list(r) for r in s.b], list(pt), 0)
    got = eval_seed_y(s1, pt)
    assert got[0] == 1 / pt[0]
    assert got == direct_vals


def test_reconstruction_oracle_random_sequences():
    """Factored Y-data evaluated at random positive points must agree with
    the direct value-level mutation, for every rank <= 4 quiver tried."""
    rng = random.Random(2024)
    quivers = [
        A2,
        A3,
        alternating_quiver(DynkinType("A", 4)),
        alternating_quiver(DynkinType("D", 4)),
        triangle_product(A2, A2),
    ]
    for q in quivers:
        n = q.n
        for _ in range(4):
            path = [rng.randrange(n) for _ in range(rng.randint(1, 6))]
            seed = Seed.initial(q)
            points = [RationalPoint.random(n, rng) for _ in range(20)]
            direct = [(list(map(list, q.b)), list(pt)) for pt in points]
            for k in path:
                seed = seed.mutate(k)
                direct = [mutate_y_values(b, vals, k) for (b, vals) in direct]
            for pt, (_, vals) in zip(points, direct):
                assert eval_seed_y(seed, pt) == vals


def test_valued_reconstruction_oracle():
    # the valued recursion against the valued direct rule, side by side
    vq = alternating_valued_quiver(DynkinType("B", 2))
    rng = random.Random(77)
    for _ in range(8):
        pt = RationalPoint.random(2, rng)
        seed = Seed.initial(vq)
        b, vals = [list(r) for r in vq.b], list(pt)
        for _ in range(6):
            k = rng.randrange(2)
            seed = seed.mutate(k)
            b, vals = mutate_y_values(b, vals, k)
            assert eval_seed_y(seed, pt) == vals


def eval_seed_x(seed, b0, point):
    return [seed.x_expression(j, b0).evaluate(point) for j in range(seed.n)]


def test_x_variable_initial_and_exchange():
    s = Seed.initial(A2)
    pt = RationalPoint([Fraction(3, 2), Fraction(4, 5)])
    assert eval_seed_x(s, A2.b, pt) == list(pt)
    s1 = s.mutate(0)
    assert eval_seed_x(s1, A2.b, pt)[0] == (1 + pt[1]) / pt[0]
    # double mutation returns the cluster variables
    s2 = s1.mutate(0)
    assert eval_seed_x(s2, A2.b, pt) == list(pt)


def test_x_reconstruction_oracle_random_sequences():
    rng = random.Random(31)
    a1 = alternating_quiver(DynkinType("A", 1))
    for q in (A2, A3, triangle_product(A2, a1)):
        n = q.n
        for _ in range(5):
            pt = RationalPoint.random(n, rng)
            seed = Seed.initial(q)
            b, vals = [list(r) for r in q.b], list(pt)
            for _ in range(6):
                k = rng.randrange(n)
                seed = seed.mutate(k)
                b, vals = mutate_x_values(b, vals, k)
                assert eval_seed_x(seed, q.b, pt) == vals


# -- equality and serialization -------------------------------------------------

def test_seed_equals_basics():
    s = Seed.initial(A2)
    assert s.equals(s)
    s1 = s.mutate(0)
    assert not s1.equals(s)
    assert s1.mutate(0).equals(s)


def test_seed_equals_rank_mismatch():
    with pytest.raises(InputError):
        Seed.initial(A2).equals(Seed.initial(A3))


# -- relabelling ----------------------------------------------------------------

def test_relabel_commutes_with_mutation():
    # any permutation, symmetry of the matrix or not: vertex j of the
    # relabelled seed is vertex perm[j] of the original
    rng = random.Random(3)
    for q in (triangle_product(A3, A2), alternating_valued_quiver(DynkinType("C", 3))):
        s = Seed.initial(q)
        for k in [rng.randrange(q.n) for _ in range(6)]:
            s = s.mutate(k)
        perm = list(range(q.n))
        rng.shuffle(perm)
        for k in range(q.n):
            assert s.relabel(perm).mutate(k).equals(s.mutate(perm[k]).relabel(perm))
        assert s.relabel(perm).relabel(sorted(range(q.n), key=perm.__getitem__)) == s


def test_relabelling_is_read_off_the_tropical_data():
    s0 = Seed.initial(A3)
    flip = (2, 1, 0)  # the automorphism 1 <-> 3 of the alternating A3 quiver
    assert s0.relabelling_of(s0) == (0, 1, 2)
    assert s0.relabel(flip).relabelling_of(s0) == flip
    # a permuted c alone is not enough: every other field must follow it
    twisted = s0.relabel(flip)
    assert replace(twisted, g=s0.g).relabelling_of(s0) is None
    one_more = (Polynomial.parse(3, "1 + y1"),) + twisted.f[1:]
    assert replace(twisted, f=one_more).relabelling_of(s0) is None
    # a relabelling by a non-automorphism is still a relabelling
    assert s0.relabel((1, 0, 2)).relabelling_of(s0) == (1, 0, 2)
    assert s0.mutate(1).relabelling_of(s0) is None
    # the symmetrizer moves with its vertex
    v0 = Seed.initial(alternating_valued_quiver(DynkinType("B", 2)))
    assert v0.relabel((1, 0)).d == (2, 1)
    assert replace(v0.relabel((1, 0)), d=v0.d).relabelling_of(v0) is None


def test_relabel_refuses_a_non_permutation():
    s = Seed.initial(A3).mutate(1)
    # (0, 0, 1) would give two equal rows of b and c; (0, 1) a 2-vertex
    # seed whose F-polynomials have 3 variables; (True, 0, 2) read as
    # (1, 0, 2) and (1.0, 0, 2) raised TypeError
    for bad in ((0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3), (True, 0, 2), (1.0, 0, 2)):
        with pytest.raises(InputError, match="not a permutation"):
            s.relabel(bad)
    assert s.relabel((0, 1, 2)) == s


def test_relabelling_of_a_seed_with_repeated_c_vectors_is_none():
    # relabelling_of relabels without testing its perm again, so it must
    # itself refuse a perm that repeats a vertex: here (0, 0), under which
    # every field would compare equal
    s0 = Seed.initial(A2)
    e1, one = (1, 0), Polynomial.one(2)
    twin = Seed(b=((0, 0), (0, 0)), d=(1, 1), c=(e1, e1), g=(e1, e1), f=(one, one))
    assert twin.relabelling_of(s0) is None
    assert s0.relabelling_of(twin) is None


def test_mutate_refuses_a_divisor_without_unit_constant_term():
    # Seed's entry to the exchange skips the type checks of
    # algebra.exchange, not the constant-term test the kernel rests on: a
    # seed built past its checks with F = 2 + y1 at vertex 0 is refused,
    # as exchange refuses that divisor, before any packed pass
    s0 = Seed.initial(A2)
    bad = replace(s0, f=(Polynomial.parse(2, "2 + y1"), s0.f[1]))
    with pytest.raises(InputError, match="constant term"):
        bad.mutate(0)


def test_seed_json_round_trip():
    s = Seed.initial(A3).mutate(1).mutate(0)
    obj = s.to_json()
    back = Seed.from_json(obj)
    assert back.to_json() == obj
    assert back.b == s.b and back.c == s.c and back.f == s.f
    assert back.g_vectors() == s.g_vectors()


def test_deserialized_seed_resumes():
    s = Seed.initial(A3).mutate(1).mutate(0)
    back = Seed.from_json(s.to_json())
    pt = RationalPoint([Fraction(2), Fraction(3), Fraction(5)])
    assert eval_seed_x(back, A3.b, pt) == eval_seed_x(s, A3.b, pt)
    assert eval_seed_x(back, A3.b, pt)[:2] == [Fraction(7, 3), Fraction(11, 3)]
    # resuming the snapshot equals continuing the original
    for path in ([2, 1, 0], [0, 2, 1, 2]):
        a, b = s, back
        for k in path:
            a, b = a.mutate(k), b.mutate(k)
            assert a.equals(b)
            assert eval_seed_x(a, A3.b, pt) == eval_seed_x(b, A3.b, pt)


def test_snapshot_with_an_initial_matrix_still_loads():
    # B3's seed after mutating vertices 0 and 1, as snapshots were written
    # when a seed carried the initial matrix as "b0": the key is ignored,
    # and the loaded seed is the seed it was taken from and mutates on alike
    old = {
        "b": [[0, 1, -2], [-1, 0, 2], [1, -1, 0]], "d": [1, 1, 2],
        "c": [[0, 1, 0], [-1, -1, 0], [0, 0, 1]],
        "f": ["1 + y1", "1 + y1 + y1*y2", "1"],
        "g": [[-1, 1, 0], [-1, 0, 0], [0, 0, 1]],
        "b0": [[0, 1, 0], [-1, 0, -2], [0, 1, 0]],
    }
    s = Seed.initial(alternating_valued_quiver(DynkinType("B", 3))).mutate(0).mutate(1)
    for obj in (old, {**old, "b0": "not a matrix"}):
        back = Seed.from_json(obj)
        assert back.equals(s)
        assert back.to_json() == {k: v for k, v in old.items() if k != "b0"}
        a, b = s, back
        for k in (2, 0, 1, 2, 1):
            a, b = a.mutate(k), b.mutate(k)
            assert b.equals(a)


def test_seed_json_checks_sizes():
    obj = Seed.initial(A3).mutate(1).to_json()
    bad_fields = [
        {"b": [[0, 1], [-1, 0]]},
        {"b": [[0, 1, 0], [-1, 0], [0, 1, 0]]},
        {"g": [[1, 0, 0], [0, 1], [0, 0, 1]]},
        {"c": [[1, 0, 0], [0, -1, 0, 0], [0, 0, 1]]},
    ]
    for bad in bad_fields:
        with pytest.raises(InputError):
            Seed.from_json({**obj, **bad})
    del obj["g"]
    with pytest.raises(InputError):
        Seed.from_json(obj)


def test_seed_json_refuses_matrices_no_quiver_has():
    # a 2-cycle would mutate into a loop
    obj = Seed.initial(A2).to_json()
    two_cycle = [[0, 1], [1, 0]]
    for bad in ({"b": two_cycle}, {"d": [0, -1]}, {"d": [1, 2]}):
        with pytest.raises(InputError):
            Seed.from_json({**obj, **bad})
    assert Seed.from_json(obj).equals(Seed.initial(A2))


def test_seed_json_refuses_broken_invariants():
    # a snapshot is outside input: its broken invariants are an InputError
    obj = Seed.initial(A2).to_json()
    for bad in ({"f": ["2", "1"]}, {"f": ["1 - y1", "1"]}, {"c": [[1, -1], [0, 1]]}):
        with pytest.raises(InputError) as refused:
            Seed.from_json({**obj, **bad})
        assert isinstance(refused.value.__cause__, SeedInvariantError)


def test_seed_json_refuses_numbers_it_would_misread():
    # each bad entry would once have been truncated to the 1 it replaces
    obj = Seed.initial(A2).to_json()
    for key in ("b", "c", "g"):
        for entry in (1.5, True, "1"):
            rows = [list(row) for row in obj[key]]
            rows[0][rows[0].index(1)] = entry
            with pytest.raises(InputError):
                Seed.from_json({**obj, key: rows})
        with pytest.raises(InputError):
            Seed.from_json({**obj, key: [[0, 1], 5]})
    for bad in ({"d": [1.9, 1.2]}, {"d": [True, 1]}, {"f": [5, "1"]}, {"f": "1"}):
        with pytest.raises(InputError):
            Seed.from_json({**obj, **bad})
    assert Seed.from_json(obj).equals(Seed.initial(A2))


# -- forward degree vectors against the backward replay ---------------------------

def test_forward_g_vectors_match_replay_on_random_walks():
    # valued products included: the rule reads column k in both cases
    rng = random.Random(8)
    for pair in ("A3 A2", "D4 A1", "B3 A2", "C3 A1", "G2 A2", "F4 A1", "B2 B2"):
        ta, tb = (DynkinType.parse(x) for x in pair.split())
        if ta.simply_laced and tb.simply_laced:
            q = triangle_product(alternating_quiver(ta), alternating_quiver(tb))
        else:
            qa, qb = alternating_valued_quiver(ta), alternating_valued_quiver(tb)
            q = triangle_product(qa, qb)
        for _ in range(3):
            seed, history = Seed.initial(q), []
            for _ in range(12):
                seed = mutate_with_history(seed, rng.randrange(q.n), history)
                assert seed.g_vectors() == g_vectors_by_replay(q.n, history), pair


# -- the neighbourhood-local step against the full update --------------------------

def _product(pair, system):
    ta, tb = (DynkinType.parse(x) for x in pair)
    if ta.simply_laced and tb.simply_laced:
        qa, qb = alternating_quiver(ta), alternating_quiver(tb)
    else:
        qa, qb = alternating_valued_quiver(ta), alternating_valued_quiver(tb)
    return (triangle_product if system == "boxtimes" else square_product)(qa, qb)


STEP_PAIRS = [tuple(p) for p in PATTERN_PAIRS] + [tuple(p.split()) for p in FOLD_PAIRS]


@given(st.sampled_from(STEP_PAIRS), st.sampled_from(["boxtimes", "square"]), st.data())
@settings(max_examples=60, deadline=None)
def test_mutate_matches_the_full_update(pair, system, data):
    # every field after every step equals the reference that recomputes
    # every entry, so a neighbour left out of the c update, a stale row
    # of b or a wrong slot of f or g shows
    q = _product(pair, system)
    seed = Seed.initial(q)
    for k in data.draw(st.lists(st.integers(0, q.n - 1), min_size=1, max_size=6)):
        want = mutate_seed_full(seed.b, seed.c, seed.g, seed.f, k)
        out = seed.mutate(k)
        assert (out.b, out.c, out.g, out.f) == want, (pair, system, k)
        # what makes the step's sign-coherence check local: a c-vector
        # away from k and its neighbours is the parent's own, tested when
        # the parent was made
        for j, (new, old) in enumerate(zip(out.c, seed.c)):
            if j != k and not seed.b[k][j]:
                assert new is old, (pair, system, k, j)
        seed = out


# -- sign-coherence after a step -------------------------------------------------

def test_mutate_tests_the_c_vectors_of_the_neighbours():
    # built directly, bypassing from_json: every c-vector is sign-coherent,
    # but mutating at 0 turns its neighbour's (0, -1) into (1, -1); a check
    # of the c-vector at k alone lets it through
    s = Seed.initial(A2)
    stale = replace(s, c=((1, 0), (0, -1)))
    with pytest.raises(SeedInvariantError, match="vector at 1 is not sign-coherent"):
        stale.mutate(0)


def test_seed_json_tests_every_c_vector():
    obj = Seed.initial(A3).to_json()
    for j in range(3):
        c = [list(v) for v in obj["c"]]
        c[j] = [1, -1, 0]
        with pytest.raises(InputError, match=f"vector at {j} is not sign-coherent"):
            Seed.from_json({**obj, "c": c})


# -- unit factors in the exchange --------------------------------------------------

@given(st.sampled_from([tuple(p) for p in PATTERN_PAIRS]), st.data())
@settings(max_examples=40, deadline=None)
def test_exchange_args_leave_out_unit_factors(pair, data):
    q = _product(pair, data.draw(st.sampled_from(["boxtimes", "square"])))
    seed = Seed.initial(q)
    for k in data.draw(st.lists(st.integers(0, q.n - 1), min_size=1, max_size=6)):
        args, full = seed.exchange_args(k), exchange_args_with_units(seed, k)
        assert args[1] == [fa for fa in full[1] if not fa[0].is_one()]
        assert args[3] == [fa for fa in full[3] if not fa[0].is_one()]
        want = exchange_by_expansion(seed, k)
        assert exchange(*args) == exchange(*full) == want, (pair, k)
        seed = seed.mutate(k)


def test_sign_coherence_on_edge_cases():
    assert _sign_coherent(())
    assert _sign_coherent((0, 0)) and _sign_coherent((0, 2, 1)) and _sign_coherent((-1, 0))
    assert not _sign_coherent((1, -1)) and not _sign_coherent((0, -3, 0, 2))


def test_nonnegative_coefficients_on_edge_cases():
    assert Polynomial.zero(3).has_nonnegative_coefficients()
    assert Polynomial.zero(0).has_nonnegative_coefficients()
    assert Polynomial.one(0).has_nonnegative_coefficients()
    assert not Polynomial.parse(2, "1 - y1*y2").has_nonnegative_coefficients()
    assert not Polynomial.constant(1, -1).has_nonnegative_coefficients()


# -- automorphism test ----------------------------------------------------------------

def fixes_by_entries(perm, b, d, sign):
    """The definition of seed.fixes, entry by entry."""
    n = len(perm)
    return all(d[k] == x for k, x in zip(perm, d)) and all(
        b[perm[i]][perm[j]] == sign * b[i][j] for i in range(n) for j in range(n)
    )


@given(st.integers(0, 6), st.sampled_from([1, -1]), st.booleans(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_fixes_compares_rows_as_the_entrywise_definition(n, sign, invariant, break_d, data):
    # a random matrix is rarely fixed, so half the draws make b constant
    # (up to the sign) and d constant on the orbits of perm first; then an
    # entry of b or of d may be changed to break it
    perm = tuple(data.draw(st.permutations(range(n))))
    entries = st.integers(-3, 3)
    b = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    d = [data.draw(st.integers(1, 3)) for _ in range(n)]
    if invariant:
        for i in range(n):
            for j in range(n):
                orbit = [(i, j)]
                while (x := (perm[orbit[-1][0]], perm[orbit[-1][1]])) != (i, j):
                    orbit.append(x)
                odd = sign == -1 and len(orbit) % 2
                for step, (u, v) in enumerate(orbit):
                    b[u][v] = 0 if odd else sign ** step * b[i][j]
        for i in range(n):
            cycle = [i]
            while perm[cycle[-1]] != i:
                cycle.append(perm[cycle[-1]])
            d[i] = min(d[k] for k in cycle)
    if n and data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        b[i][j] += data.draw(st.sampled_from([-1, 1]))
    if n and break_d:
        d[data.draw(st.integers(0, n - 1))] += 1
    matrix = tuple(map(tuple, b))
    want = fixes_by_entries(perm, matrix, d, sign)
    assert fixes(perm, matrix, d, sign) == want
    assert fixes(perm, matrix, (), sign) == fixes_by_entries(perm, matrix, (), sign)


def test_fixes_on_edge_cases():
    assert fixes((), ()) and fixes((), (), (), -1)
    assert fixes((0,), ((0,),)) and fixes((0,), ((0,),), (2,), -1)
    assert fixes((0,), ((5,),)) and not fixes((0,), ((5,),), (), -1)
    # a transposition that fixes the matrix but moves a symmetrizer entry
    b = ((0, 1, 1), (-1, 0, 0), (-1, 0, 0))
    assert fixes((0, 2, 1), b) and fixes((0, 2, 1), b, (1, 2, 2))
    assert not fixes((0, 2, 1), b, (1, 2, 3))
    assert not fixes((1, 0, 2), b) and not fixes((0, 2, 1), b, (), -1)


@pytest.mark.parametrize("t", dynkin_types(7), ids=str)
def test_graph_automorphisms_are_every_permutation_that_keeps_b(t):
    # the search tries only vertices of matching |row| and |column|; the
    # brute force tries every permutation
    b = alternating_valued_quiver(t).b
    n = len(b)
    every = [p for p in itertools.permutations(range(n))
             if all(abs(b[p[i]][p[j]]) == abs(b[i][j]) for i in range(n) for j in range(n))]
    assert graph_automorphisms(b) == every
