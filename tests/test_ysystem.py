import io
import itertools
import json
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import (
    exchange_by_expansion,
    g_vectors_by_replay,
    mutate_with_history,
    opposition,
    pattern_by_blocks,
    tropical_duality_holds,
    y_system_step_by_fractions,
)
from test_acceptance import FOLD_PAIRS, PATTERN_PAIRS
from yperiod import ysystem
from yperiod.algebra import Polynomial
from yperiod.direct import YSystemState, pair_vertices
from yperiod.dynkin import (
    DynkinType,
    bipartition,
    cartan_matrix,
    coxeter_number,
    positive_roots,
)
from yperiod.errors import InputError, SeedInvariantError
from yperiod.folding import lift_dynkin
from yperiod.quiver import (
    alternating_quiver,
    alternating_valued_quiver,
    square_product,
    tensor_product,
    triangle_product,
)
from yperiod.seed import Seed, fixes, is_identity, power
from yperiod.ysystem import (
    CheckResult,
    _drive,
    _FoldRun,
    _ProductRun,
    _rotates,
    _Run,
    initial_state,
    mu_boxtimes_blocks,
    mu_boxtimes_sequence,
    mu_square_blocks,
    mu_square_sequence,
    verify_direct_ysystem,
    verify_folding,
    verify_periodicity,
    y_system_step,
)

D = DynkinType.parse


# -- the direct recurrence ------------------------------------------------------

def test_a1_a1_step_is_reciprocal():
    st = initial_state(D("A1"), D("A1"), [Fraction(2)], [Fraction(3)])
    nxt = y_system_step(st)
    assert nxt.curr == (Fraction(1, 2),)
    assert nxt.prev == (Fraction(3),)


def test_a1_a1_orbit_has_period_four():
    st = initial_state(D("A1"), D("A1"), [Fraction(2)], [Fraction(3)])
    seen = [st.curr[0]]
    for _ in range(4):
        st = y_system_step(st)
        seen.append(st.curr[0])
    assert seen == [3, Fraction(1, 2), Fraction(1, 3), 2, 3]


def test_a2_a1_step_formula():
    ta, tb = D("A2"), D("A1")
    prev = [Fraction(5), Fraction(7)]
    curr = [Fraction(2), Fraction(3)]
    nxt = y_system_step(initial_state(ta, tb, prev, curr))
    # vertex (1,1): single neighbour 2 in the first factor, nothing vertical
    assert nxt.curr[0] == (1 + curr[1]) / prev[0]
    assert nxt.curr[1] == (1 + curr[0]) / prev[1]


def test_state_requires_positive_values():
    with pytest.raises(InputError):
        initial_state(D("A1"), D("A1"), [Fraction(-1)], [Fraction(1)])


def test_state_dict_view_matches_vertices():
    # the slices are indexed like pair_vertices
    ta, tb = D("A2"), D("A1")
    st = initial_state(ta, tb, [1, 2], [3, 4])
    verts = pair_vertices(ta, tb)
    assert dict(zip(verts, st.prev)) == {(1, 1): 1, (2, 1): 2}
    assert dict(zip(verts, st.curr)) == {(1, 1): 3, (2, 1): 4}


def test_state_built_directly_tests_both_slices():
    # y_system_step tests only the slice it makes; a state built directly
    # still tests prev as well as curr
    ta, tb = D("A2"), D("A1")
    good = (Fraction(2), Fraction(3))
    for bad in ((Fraction(-1), Fraction(3)), (Fraction(2), Fraction(0))):
        for prev, curr in ((bad, good), (good, bad)):
            with pytest.raises(InputError, match="strictly positive"):
                YSystemState((ta, tb), prev, curr)
    nxt = y_system_step(YSystemState((ta, tb), good, good))
    assert nxt.prev == good
    assert nxt == YSystemState((ta, tb), nxt.prev, nxt.curr)


def test_state_requires_slices_of_the_vertex_count():
    # A2 x A1 has two vertices; three values in prev used to survive a step
    # and one value to raise IndexError there
    ta, tb = D("A2"), D("A1")
    good = (Fraction(2), Fraction(3))
    for bad in ((Fraction(5),) * 3, (Fraction(5),)):
        for prev, curr in ((bad, good), (good, bad)):
            with pytest.raises(InputError):
                YSystemState((ta, tb), prev, curr)
            with pytest.raises(InputError):
                initial_state(ta, tb, prev, curr)


def test_step_matches_the_fraction_oracle():
    # every simply laced acceptance pair, and multiply laced ones whose
    # incidence entries 2 and 3 sit in the first factor (B2, C3) and in
    # the second (G2), for 2(h+h') steps from a random start, a start with
    # large numerators and a start of equal values
    rng = random.Random(13)
    pairs = PATTERN_PAIRS + [("B2", "A2"), ("A1", "G2"), ("C3", "A1"), ("G2", "A2")]
    for sa, sb in pairs:
        ta, tb = D(sa), D(sb)
        ca, cb = cartan_matrix(ta), cartan_matrix(tb)
        n = ta.rank * tb.rank

        def draw():
            return [Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(n)]

        large = draw(), draw()
        large[1][0], large[0][-1] = Fraction(2**64 + 1, 3), Fraction(3, 2**64 + 1)
        for prev, curr in ((draw(), draw()), large, ([Fraction(7, 3)] * n,) * 2):
            state = initial_state(ta, tb, prev, curr)
            for t in range(2 * (coxeter_number(ta) + coxeter_number(tb))):
                prev, curr = curr, y_system_step_by_fractions(ca, cb, prev, curr)
                state = y_system_step(state)
                assert (state.prev, state.curr) == (tuple(prev), tuple(curr)), (sa, sb, t)
                assert all(type(v) is Fraction for v in state.curr)


# -- the direct recurrence through the square seed pattern -------------------------

def test_direct_step_is_the_square_pattern_at_half_rounds():
    # Keller's reduction (FZ for (D, A1)): W_m, the square seed's y-values
    # at a point z after half round m, gives at each vertex v either the
    # direct slice Y(m) (when eps(v) (-1)^m = -1) or 1/Y(m-1), eps(v) the
    # product of v's bipartition signs, from Y(0) = W_0 = z and
    # Y(1) = W_1.  So the direct system returns after 2(h+h') steps, twice
    # the square pattern's h+h' rounds, and its minimal period is twice
    # the pattern's.
    rng = random.Random(15)
    for sa, sb in PATTERN_PAIRS:
        ta, tb = D(sa), D(sb)
        qa, qb = alternating_quiver(ta), alternating_quiver(tb)
        sq = square_product(qa, qb)
        blocks = mu_square_blocks(qa, qb)
        verts = pair_vertices(ta, tb)
        assert sq.vertices == verts  # the slices' order is the product's
        pa, pb = bipartition(ta), bipartition(tb)
        eps = [pa.sign(i) * pb.sign(ip) for i, ip in verts]
        z = [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in verts]
        seed = Seed.initial(sq)
        ws, state = [tuple(z)], None
        for m in range(1, 2 * (coxeter_number(ta) + coxeter_number(tb)) + 1):
            for block in blocks[:2] if m % 2 else blocks[2:]:
                seed = seed.mutate_block([sq.index(v) for v in block])
            ws.append(tuple(seed.y_expression(i).evaluate(z) for i in range(len(z))))
            if state is None:
                state = initial_state(ta, tb, ws[0], ws[1])
            else:
                state = y_system_step(state)
            for v, e in enumerate(eps):
                want = state.curr[v] if e * (-1) ** m == -1 else 1 / state.prev[v]
                assert ws[m][v] == want, (sa, sb, m, verts[v])
        assert ws[-1] == ws[0] and seed.equals(Seed.initial(sq)), (sa, sb)
        direct = verify_direct_ysystem(ta, tb, trials=2, rng_seed=0)
        square = verify_periodicity(ta, tb, system="square")
        assert direct.minimal_period == 2 * square.minimal_period, (sa, sb)


# -- canonical sequences ---------------------------------------------------------

def test_sequences_cover_each_vertex_once():
    for sa, sb in [("A2", "A2"), ("A3", "A2"), ("A4", "D5")]:
        qa, qb = alternating_quiver(D(sa)), alternating_quiver(D(sb))
        for seq in (mu_boxtimes_sequence(qa, qb), mu_square_sequence(qa, qb)):
            assert sorted(seq) == sorted((u, x) for u in qa.vertices for x in qb.vertices)


def test_block_contents_follow_signs():
    qa, qb = alternating_quiver(D("A2")), alternating_quiver(D("A2"))
    blocks = mu_square_blocks(qa, qb)
    assert blocks == (((1, 2),), ((2, 1),), ((1, 1),), ((2, 2),))
    blocks = mu_boxtimes_blocks(qa, qb)
    assert blocks == (((2, 1),), ((1, 1),), ((2, 2),), ((1, 2),))


def test_a1_boxtimes_a1_sequence_is_single_vertex():
    a1 = alternating_quiver(D("A1"))
    assert mu_boxtimes_sequence(a1, a1) == ((1, 1),)


def test_round_fixes_the_product_quiver():
    for sa, sb in [("A2", "A2"), ("A3", "A2")]:
        qa, qb = alternating_quiver(D(sa)), alternating_quiver(D(sb))
        box = triangle_product(qa, qb)
        out = box
        for v in mu_boxtimes_sequence(qa, qb):
            out = out.mutate(v)
        assert out == box
        sq = square_product(qa, qb)
        out = sq
        for v in mu_square_sequence(qa, qb):
            out = out.mutate(v)
        assert out == sq


def test_sequences_reject_non_alternating():
    from test_quiver import quiver_from_arrows

    path = quiver_from_arrows([1, 2, 3], [(1, 2), (2, 3)])
    with pytest.raises(InputError):
        mu_boxtimes_sequence(path, path)


# -- seed-pattern verification -----------------------------------------------------

def test_verify_a1_a1_minimal_period_two():
    r = verify_periodicity(D("A1"), D("A1"))
    assert r.verified and r.minimal_period == 2 and r.period_bound == 4


def test_verify_a2_a1_pentagon():
    r = verify_periodicity(D("A2"), D("A1"))
    assert r.verified and r.minimal_period == 5 == r.period_bound


def test_verify_a2_a2_returns_at_six():
    r = verify_periodicity(D("A2"), D("A2"))
    assert r.verified and r.period_bound == 6
    assert r.minimal_period == 6


def test_verify_square_system_agrees_on_period_bound():
    r = verify_periodicity(D("A2"), D("A1"), system="square")
    assert r.verified and r.minimal_period == 5


def test_verify_rejects_unknown_system():
    with pytest.raises(InputError):
        verify_periodicity(D("A2"), D("A1"), system="pentagon")


def test_report_json_schema():
    r = verify_periodicity(D("A2"), D("A1"))
    obj = r.to_json()
    for key in ("pair", "rounds", "minimal_period", "divides", "checks", "counterexample"):
        assert key in obj
    assert obj["pair"] == ["A2", "A1"]
    assert all({"name", "passed"} <= set(c) for c in obj["checks"])


def test_seed_return_equivalent_to_trivial_tropical_and_polynomials():
    # rerun the pattern and check both directions by hand
    qa, qb = alternating_quiver(D("A2")), alternating_quiver(D("A1"))
    box = triangle_product(qa, qb)
    seq = [box.index(v) for v in mu_boxtimes_sequence(qa, qb)]
    s0 = Seed.initial(box)
    s = s0
    for p in range(1, 6):
        for k in seq:
            s = s.mutate(k)
        trivial = all(f.is_one() for f in s.f) and s.c == s0.c
        assert trivial == s.equals(s0)
        assert s.equals(s0) == (p == 5)


def test_block_order_independence_per_round():
    # reversing the order inside every sign block never changes a round
    qa, qb = alternating_quiver(D("A3")), alternating_quiver(D("A2"))
    box = triangle_product(qa, qb)
    blocks = mu_boxtimes_blocks(qa, qb)
    bound = coxeter_number(D("A3")) + coxeter_number(D("A2"))
    a = b = Seed.initial(box)
    for _ in range(bound):
        for block in blocks:
            for v in block:
                a = a.mutate(box.index(v))
            for v in reversed(block):
                b = b.mutate(box.index(v))
        assert a.b == b.b and a.c == b.c and a.f == b.f
        assert a.g_vectors() == b.g_vectors()
    assert a.equals(Seed.initial(box))


# -- direct-system verification ------------------------------------------------------

def test_direct_a1_a1():
    r = verify_direct_ysystem(D("A1"), D("A1"), trials=3, rng_seed=1)
    assert r.verified and r.period_bound == 8
    assert r.minimal_period == 4


def test_direct_a2_a1_period_ten():
    r = verify_direct_ysystem(D("A2"), D("A1"), trials=3, rng_seed=0)
    assert r.verified and r.minimal_period == 10


def test_direct_a3_a2_returns_after_fourteen():
    r = verify_direct_ysystem(D("A3"), D("A2"), trials=2, rng_seed=0)
    assert r.verified and r.period_bound == 14


def test_counts_must_be_ints():
    # max_rounds=2.7 used to run 2 rounds, trials=1.5 to raise TypeError
    for bad in (2.7, 2.0, True, "2"):
        with pytest.raises(InputError, match="max_rounds must be at least 1 and an integer"):
            verify_periodicity(D("A2"), D("A1"), max_rounds=bad)
        with pytest.raises(InputError, match="max_rounds must be at least 1 and an integer"):
            verify_folding(D("B2"), D("A1"), max_rounds=bad)
    for bad in (0, 1.5, 5.0, True, "5"):
        with pytest.raises(InputError, match="need at least one trial"):
            verify_direct_ysystem(D("A2"), D("A1"), trials=bad)
    # random.Random("7") is not random.Random(7), so a report recording
    # rng_seed="7" did not replay with --seed 7
    for bad in (True, 1.5, 7.0, "7", None):
        with pytest.raises(InputError, match="random seed must be an integer"):
            verify_direct_ysystem(D("A2"), D("A1"), rng_seed=bad)


def test_direct_rejects_multiply_laced():
    with pytest.raises(InputError):
        verify_direct_ysystem(D("B2"), D("A1"))


def test_direct_is_deterministic_given_seed():
    a = verify_direct_ysystem(D("A2"), D("A2"), trials=2, rng_seed=5).to_json()
    b = verify_direct_ysystem(D("A2"), D("A2"), trials=2, rng_seed=5).to_json()
    assert a == b


def _perturb_last_step_of_first_trial(m, bound):
    """Make ysystem.y_system_step double one value on its call number bound,
    the last step of trial 0, so that trial ends away from its start."""
    real, calls = ysystem.y_system_step, []

    def perturbed(state):
        calls.append(state)
        out = real(state)
        if len(calls) == bound:
            out = replace(out, curr=(2 * out.curr[0],) + out.curr[1:])
        return out

    m.setattr(ysystem, "y_system_step", perturbed)


def test_direct_steps_through_the_module_binding(monkeypatch):
    # the benchmark's layer trace and the perturbation test above wrap
    # ysystem.y_system_step; every step must go through it
    real, states = ysystem.y_system_step, []

    def counted(state):
        states.append(real(state))
        return states[-1]

    monkeypatch.setattr(ysystem, "y_system_step", counted)
    assert verify_direct_ysystem(D("A2"), D("A1"), trials=3).verified
    assert len(states) == 3 * 2 * (3 + 2)
    assert all(type(v) is Fraction for s in states for v in s.prev + s.curr)


def test_direct_failure_reports_a_replayable_start(monkeypatch):
    # A1 x A1 is back at step 4 of its 8 already; A2 x A1 only at its bound
    for ta, tb in ((D("A2"), D("A1")), (D("A1"), D("A1"))):
        bound = 2 * (coxeter_number(ta) + coxeter_number(tb))
        with monkeypatch.context() as m:
            _perturb_last_step_of_first_trial(m, bound)
            r = verify_direct_ysystem(ta, tb)
        assert not r.verified and r.minimal_period is None and not r.divides
        ce = r.counterexample
        assert set(ce) == {"trial", "check", "detail", "start_prev", "start_curr"}
        assert (ce["trial"], ce["check"]) == (0, "exact_return")
        assert ce["detail"] == f"no return within {bound} steps"
        assert [c.passed for c in r.checks] == [False]
        # the reported start is a real start: the true recurrence brings it back
        prev, curr = ([Fraction(v) for v in ce[key]] for key in ("start_prev", "start_curr"))
        start = state = initial_state(ta, tb, prev, curr)
        for _ in range(bound):
            state = y_system_step(state)
        assert (state.prev, state.curr) == (start.prev, start.curr)


# -- folding verification --------------------------------------------------------------

def test_fold_b2_a1():
    r = verify_folding(D("B2"), D("A1"))
    assert r.verified and r.period_bound == 6
    names = {c.name for c in r.checks}
    assert "lifted_action_admissible" in names
    assert "projection_matches_valued" in names


def test_fold_g2_a1_divides_eight():
    r = verify_folding(D("G2"), D("A1"))
    assert r.verified
    assert r.period_bound == 8
    assert 8 % r.minimal_period == 0


def test_fold_trivial_projection_is_identity():
    r = verify_folding(D("A2"), D("A1"))
    assert r.verified and r.minimal_period == 5


@pytest.mark.parametrize(
    "pair,period", [("C2 A1", 3), ("C2 C2", 4), ("C2 B2", 4), ("A2 C2", 7)]
)
def test_fold_through_the_c2_cover(pair, period):
    ta, tb = map(D, pair.split())
    r = verify_folding(ta, tb)
    assert r.verified and r.minimal_period == period
    assert verify_periodicity(ta, tb).minimal_period == period


def test_fold_rejects_nonpositive_rounds():
    for rounds in (0, -3):
        with pytest.raises(InputError, match="max_rounds must be at least 1"):
            verify_folding(D("B2"), D("A1"), max_rounds=rounds)
        with pytest.raises(InputError, match="max_rounds must be at least 1"):
            verify_periodicity(D("B2"), D("A1"), max_rounds=rounds)


def test_fold_past_the_bound_checks_lifted_return():
    bound = 6
    r = verify_folding(D("B2"), D("A1"), max_rounds=2 * bound)
    assert r.verified and r.rounds == 2 * bound and r.minimal_period == 3
    seen = {c.name: (c.passed, c.detail) for c in r.checks}
    assert seen["lifted_seed_return"] == (True, f"round {bound}")
    short = verify_folding(D("B2"), D("A1"), max_rounds=bound - 1)
    assert not short.verified
    assert _bound_check(short, "lifted_seed_return") == (
        False, "not back at round 3; round 6 not run"
    )


@pytest.mark.parametrize(
    "pair,rounds,lifted_back",
    [("B2 A1", 3, False), ("B2 A1", 5, False), ("B3 A1", 4, False), ("B2 B2", 4, False),
     ("F4 A1", 7, False), ("G2 A1", 4, True), ("C3 A1", 4, True)],
)
def test_fold_below_the_bound_needs_the_lifted_seed_back(pair, rounds, lifted_back):
    # the valued seed is back at the minimal period, which divides the
    # bound; the lifted seed is back there too, or only up to the flip
    # that the fold divides out, and no round at the bound is run to tell
    r = verify_folding(*map(D, pair.split()), max_rounds=rounds)
    assert r.divides and r.rounds == rounds < r.period_bound
    assert r.verified == lifted_back
    names = [c.name for c in r.checks]
    assert ("lifted_seed_return" in names) != lifted_back
    if not lifted_back:
        assert not _bound_check(r, "lifted_seed_return")[0]


def test_fold_run_orbits_are_the_fibres_of_its_projection():
    # the fold walk reads admissibility through proj, so the fibres of proj
    # (members) must be the orbits of the lifted action's group, on every
    # ordered pair of types of rank <= 4, the valued ones included
    types = [D(t) for t in "A1 A2 A3 A4 B2 B3 B4 C2 C3 C4 D4 F4 G2".split()]
    for ta, tb in itertools.product(types, repeat=2):
        bound = coxeter_number(ta) + coxeter_number(tb)
        run = _FoldRun(lift_dynkin(ta), lift_dynkin(tb), ta, tb, bound)
        assert sorted(run.members.values()) == sorted(run.action.orbits()), (ta, tb)


# -- the shared round driver --------------------------------------------------------

ROUND_LINE = re.compile(r"round \d+/\d+ done")  # how progress is split into rounds


def _repeat_note(p, period, relabelled):
    """The progress note of round p when the whole run state is back after
    round `period`, exactly or (relabelled) up to an involution."""
    if not period or p <= period:
        return ""
    m, q = divmod(p - 1, period)
    return f" (repeats round {q + 1}" + (", relabelled)" if relabelled and m % 2 else ")")


def test_progress_has_one_line_per_round():
    # the last two fields are the round after which the whole run state is
    # back at its start, and whether only up to an involution; the rounds
    # after it say which round they repeat, and whether relabelled
    cases = [
        (verify_periodicity, ("A3", "A2"), {"system": "square", "max_rounds": 3}, "round", 3,
         None, False),
        (verify_periodicity, ("G2", "A1"), {}, "round", 8, 4, False),
        (verify_periodicity, ("D4", "A1"), {"max_rounds": 11}, "round", 11, 4, False),
        (verify_periodicity, ("A3", "A1"), {"max_rounds": 14}, "round", 14, 3, True),
        (verify_folding, ("B2", "A1"), {}, "fold round", 6, 3, True),
        (verify_folding, ("G2", "A1"), {"max_rounds": 10}, "fold round", 10, 4, False),
    ]
    for verify, (sa, sb), kwargs, tag, rounds, period, relabelled in cases:
        buf = io.StringIO()
        verify(D(sa), D(sb), progress=buf, **kwargs)
        lines = buf.getvalue().splitlines()
        assert lines == [
            f"[{sa} x {sb}] {tag} {p}/{rounds} done" + _repeat_note(p, period, relabelled)
            for p in range(1, rounds + 1)
        ]
        assert all(len(ROUND_LINE.findall(line)) == 1 for line in lines)
    # back in the middle of a round: A2 x A1 (blocks (2, 1) and (1, 1) of
    # the four) after block 1 of round 3, D4 x A2 after block 2 of round 5;
    # a round's note names the round and block whose record its last block
    # reads, and no block when that is a round end
    for (sa, sb), rounds, notes in (
        (("A2", "A1"), 5, ["", "", " (repeats round 1 block 1, relabelled)",
                           " (repeats round 2 block 1, relabelled)",
                           " (repeats round 3 block 1, relabelled)"]),
        (("D4", "A2"), 11, [""] * 4 + [
            f" (repeats round {q} block 2, relabelled)" for q in range(1, 6)
        ] + [" (repeats round 1)", " (repeats round 2)"]),
    ):
        buf = io.StringIO()
        verify_periodicity(D(sa), D(sb), max_rounds=rounds, progress=buf)
        assert buf.getvalue().splitlines() == [
            f"[{sa} x {sb}] round {p}/{rounds} done{note}"
            for p, note in enumerate(notes, 1)
        ]


# -- fast-forward after an exact return of the whole run state ----------------------

def _count_mutations(monkeypatch, verify, *args, **kwargs):
    """(report, number of Seed.mutate calls) of one verification."""
    calls = []
    mutate = Seed.mutate

    def counted(seed, k, **kwargs):
        calls.append(k)
        return mutate(seed, k, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Seed, "mutate", counted)
        report = verify(*args, **kwargs)
    return report, len(calls)


def _bound_check(report, name="seed_return_at_coxeter_bound"):
    return {c.name: (c.passed, c.detail) for c in report.checks}[name]


VALUED_PATTERN_PAIRS = [
    ("G2", "A1"), ("B3", "A1"), ("C3", "A1"), ("B2", "A2"), ("A2", "G2"),
    ("B2", "B2"), ("F4", "A1"), ("C2", "A3"),
]


def test_driver_matches_round_by_round_reference():
    # the minimal period and the return at h+h', and over the h+h' rounds
    # N- = r r' h steps at a negative c-vector and N+ = r r' h' at a
    # positive one, in both systems
    for sa, sb in PATTERN_PAIRS + VALUED_PATTERN_PAIRS:
        ta, tb = D(sa), D(sb)
        if ta.simply_laced and tb.simply_laced:
            qa, qb = alternating_quiver(ta), alternating_quiver(tb)
        else:
            qa, qb = alternating_valued_quiver(ta), alternating_valued_quiver(tb)
        h, hp = coxeter_number(ta), coxeter_number(tb)
        rr = ta.rank * tb.rank
        for system, product, blocks in (
            ("boxtimes", triangle_product(qa, qb), mu_boxtimes_blocks(qa, qb)),
            ("square", square_product(qa, qb), mu_square_blocks(qa, qb)),
        ):
            minimal, returned, negative, positive = pattern_by_blocks(product, blocks, h + hp)
            assert (negative, positive) == (rr * h, rr * hp), (sa, sb, system)
            r = verify_periodicity(ta, tb, system=system)
            assert (r.minimal_period, r.verified) == (minimal, True), (sa, sb, system)
            assert _bound_check(r) == (returned, f"round {h + hp}"), (sa, sb, system)


class _CycleRun(_Run):
    """A stand-in run whose seed walks a cycle of length m, one step per round."""

    blocks = ((0,),)

    class Position(int):
        def relabelling_of(self, other):
            return () if self == other else None

    def __init__(self, m):
        self.m, self.mutations = m, 0
        self.seed0 = self.seed = self.Position(0)

    def step(self, k):
        self.mutations += 1
        self.seed = self.Position((self.seed + 1) % self.m)

    def seeds(self):
        return (("cycle_return", self.seed, self.seed0),)

    def checks(self, rounds, steps, minimal):
        return [CheckResult("steps", True, f"{steps} steps")]


def test_fast_forward_reads_repeated_rounds_from_the_record():
    # period 3 does not divide the bound 4, so the return at the bound is
    # round 1's (no return), not round 3's
    run, buf = _CycleRun(3), io.StringIO()
    r = _drive(run, (D("A1"), D("A1")), "cycle", 4, 7, buf)
    assert run.mutations == 3
    assert (r.minimal_period, r.divides, r.verified) == (3, False, False)
    assert [(c.name, c.passed, c.detail) for c in r.checks] == [
        ("steps", True, "7 steps"), ("cycle_return", False, "round 4")
    ]
    assert buf.getvalue().splitlines()[3:] == [
        f"[A1 x A1] round {p}/7 done (repeats round {(p - 1) % 3 + 1})" for p in range(4, 8)
    ]


def test_fast_forward_skips_repeated_rounds(monkeypatch):
    # D4 x A1 is back at round 4 of 8; A2 x A1 exactly only at its bound
    # 5, but relabelled after block 1 of round 3
    r, mutations = _count_mutations(monkeypatch, verify_periodicity, D("D4"), D("A1"))
    assert r.verified and r.minimal_period == 4 and mutations == 4 * 4
    r, mutations = _count_mutations(monkeypatch, verify_periodicity, D("A2"), D("A1"))
    assert r.verified and r.minimal_period == 5 and mutations == 5
    # the step and block counts still cover every round
    seen = {c.name: c.detail for c in verify_periodicity(D("D4"), D("A1")).checks}
    assert seen["no_loops_or_two_cycles"] == "32 mutation steps"
    assert seen["slice_law"] == "32 block boundaries"


def test_structural_checks_walk_one_round(monkeypatch):
    # one is_constrained call per step of one round, whatever the number of
    # rounds run; valued pairs have no constrained class to check
    calls = []
    original = ysystem.is_constrained
    monkeypatch.setattr(
        ysystem, "is_constrained", lambda *args: calls.append(args) or original(*args)
    )
    for pair, system, expected in (
        ("A3 A3", "boxtimes", 9),
        ("A3 A3", "square", 9),
        ("D4 A1", "boxtimes", 4),
        ("G2 A1", "boxtimes", 0),
    ):
        calls.clear()
        r = verify_periodicity(*map(D, pair.split()), system=system)
        assert r.verified and len(calls) == expected, (pair, system)
    r, mutations = _count_mutations(monkeypatch, verify_periodicity, D("D4"), D("A1"))
    assert r.verified and mutations == 4 * 4


def test_fold_admissibility_walks_one_round(monkeypatch):
    # one is_admissible call per valued step of one round, whatever the
    # number of rounds run
    calls = []
    original = ysystem.is_admissible
    monkeypatch.setattr(
        ysystem, "is_admissible", lambda *args: calls.append(args) or original(*args)
    )
    for pair, rounds, expected in (
        ("B2 A1", 6, 2),
        ("B2 A1", 12, 2),
        ("F4 A1", None, 4),
        ("B2 B2", None, 4),
    ):
        calls.clear()
        r = verify_folding(*map(D, pair.split()), max_rounds=rounds)
        assert r.verified and len(calls) == expected, (pair, rounds)
    # the walk stands for every round because each round must return the
    # lifted matrix: a fault at the last lifted step of round 2 is caught there
    with monkeypatch.context() as m:
        _negate_matrix_on_mutation(m, 10)
        r = verify_folding(D("B2"), D("A1"))
    assert r.counterexample == {
        "round": 2, "step": 4, "vertex": "None",
        "check": "lifted_action_admissible", "detail": "round did not fix the lifted quiver",
    }


def test_fast_forward_past_the_bound_reports_the_bound(monkeypatch):
    r, mutations = _count_mutations(
        monkeypatch, verify_periodicity, D("D4"), D("A1"), max_rounds=20
    )
    assert r.verified and r.rounds == 20 and r.minimal_period == 4
    assert _bound_check(r) == (True, "round 8")
    assert mutations == 4 * 4
    assert _bound_check(r, "intermediate_constrained") == (True, "80 steps")


class _TwoSeedRun(_CycleRun):
    """The cycle stand-in with a second tracked seed that never returns."""

    def __init__(self, m):
        super().__init__(m)
        self.count = self.Position(0)

    def step(self, k):
        super().step(k)
        self.count = self.Position(self.count + 1)

    def seeds(self):
        return super().seeds() + (("count_return", self.count, self.Position(0)),)


def test_fold_waits_for_the_lifted_seed(monkeypatch):
    # B2 x A1: after round 3 the valued seed is exactly back and the lifted
    # A3 x A1 seed is its start relabelled by the flip that the fold
    # divides out, so rounds 4..6 are rounds 1..3 relabelled and the
    # lifted seed is exactly back at round 6; a round mutates 2 valued and
    # 3 lifted vertices
    for rounds in (6, 12):
        buf = io.StringIO()
        r, mutations = _count_mutations(
            monkeypatch, verify_folding, D("B2"), D("A1"), max_rounds=rounds, progress=buf
        )
        assert r.verified and r.minimal_period == 3
        assert _bound_check(r, "lifted_seed_return") == (True, "round 6")
        assert mutations == 3 * 5
        repeats = [line for line in buf.getvalue().splitlines() if "repeats" in line]
        assert repeats == [
            f"[B2 x A1] fold round {p}/{rounds} done" + _repeat_note(p, 3, True)
            for p in range(4, rounds + 1)
        ]
    # the first seed alone coming back fast-forwards nothing
    run = _TwoSeedRun(2)
    r = _drive(run, (D("A1"), D("A1")), "cycle", 4, 9, None)
    assert run.mutations == 9 and r.minimal_period == 2
    assert [(c.name, c.passed) for c in r.checks][-2:] == [
        ("cycle_return", True), ("count_return", False)
    ]


# -- fast-forward after a return up to a symmetry of the run ----------------------

def _only_exact_returns(m):
    """Turn the relabelling detection off: only the identity at a round end
    is a symmetry, so only exact returns at a round end fast-forward."""
    m.setattr(_ProductRun, "symmetric", _Run.symmetric)
    m.setattr(_FoldRun, "symmetric", _Run.symmetric)


def _runs_to_compare():
    """(verify, ta, tb, keyword arguments) of every pattern, valued pattern
    and fold run the fast-forward must not change."""
    for sa, sb in PATTERN_PAIRS:
        for system in ("boxtimes", "square"):
            yield verify_periodicity, D(sa), D(sb), {"system": system}
    for pair in ("G2 A1", "B3 A1", "C3 A1", "B2 B2"):
        yield (verify_periodicity, *map(D, pair.split()), {})
    for pair in FOLD_PAIRS:
        yield (verify_folding, *map(D, pair.split()), {})


def _report_and_lines(verify, ta, tb, kwargs, rounds):
    buf = io.StringIO()
    report = verify(ta, tb, max_rounds=rounds, progress=buf, **kwargs)
    return report.to_json(), len(buf.getvalue().splitlines())


def test_relabelled_fast_forward_matches_exact_return_reference(monkeypatch):
    # the reference fast-forwards only after an exact return; around the
    # bound and well past it, reports and progress line counts agree
    for verify, ta, tb, kwargs in _runs_to_compare():
        bound = coxeter_number(ta) + coxeter_number(tb)
        for rounds in (bound - 1, bound, bound + 1, 2 * bound + 3):
            got = _report_and_lines(verify, ta, tb, kwargs, rounds)
            with monkeypatch.context() as m:
                _only_exact_returns(m)
                expected = _report_and_lines(verify, ta, tb, kwargs, rounds)
            assert got == expected, (verify.__name__, ta, tb, kwargs, rounds)


def test_relabelled_return_skips_half_the_rounds(monkeypatch):
    cases = [
        (verify_periodicity, "D5 A1", {}, 5 * 5),
        (verify_periodicity, "A3 A3", {}, 4 * 9),
        (verify_periodicity, "A3 A3", {"system": "square"}, 4 * 9),
        (verify_folding, "F4 A1", {}, 7 * (4 + 6)),
        (verify_folding, "B2 B2", {}, 4 * (4 + 9)),
        # back at a round end halfway up to sigma x sigma', which swaps the
        # two commuting blocks of each merged block
        (verify_periodicity, "A4 A2", {"system": "square"}, 4 * 8),
        (verify_periodicity, "A2 A2", {"system": "square"}, 3 * 4),
        # exactly back at round 4 of 8
        (verify_periodicity, "D4 A1", {}, 4 * 4),
        # odd bounds: back in the middle of a round, after half the blocks
        (verify_periodicity, "A2 A1", {}, 5 * 2 // 2),
        (verify_periodicity, "A2 A1", {"system": "square"}, 5 * 2 // 2),
        (verify_periodicity, "A4 A1", {}, 7 * 4 // 2),
        (verify_periodicity, "A4 A1", {"system": "square"}, 7 * 4 // 2),
        (verify_periodicity, "A3 A2", {}, 7 * 6 // 2),
        (verify_periodicity, "A3 A2", {"system": "square"}, 7 * 6 // 2),
        (verify_periodicity, "D4 A2", {}, 9 * 8 // 2),
        (verify_periodicity, "D4 A2", {"system": "square"}, 9 * 8 // 2),
    ]
    for verify, pair, kwargs, expected in cases:
        r, mutations = _count_mutations(monkeypatch, verify, *map(D, pair.split()), **kwargs)
        assert r.verified and mutations == expected, (pair, kwargs)


def test_relabelling_between_commuting_blocks_skips_half_the_rounds(monkeypatch):
    # A3 x A1 is back at round 3 of 6 up to the flip (1, 1) <-> (3, 1) of
    # one block.  Split into one block per vertex, the round mutates the
    # same vertices in the same order, so the seeds are the same, but the
    # flip now moves a vertex into another block.  The two blocks commute
    # in the walked round, so they merge and the flip is still accepted;
    # before start() has merged them it is refused
    blocks = ysystem.mu_boxtimes_blocks
    monkeypatch.setattr(
        ysystem, "mu_boxtimes_blocks",
        lambda qa, qb: tuple((v,) for block in blocks(qa, qb) for v in block),
    )
    run = _ProductRun(D("A3"), D("A1"), "boxtimes")
    flip = (2, 1, 0)
    assert len(run.block_sets) == 3 and not run.symmetric([flip], 0)
    run.start()
    assert run.merged == [frozenset({1}), frozenset({0, 2})] and run.symmetric([flip], 0)
    r, mutations = _count_mutations(monkeypatch, verify_periodicity, D("A3"), D("A1"))
    assert r.verified and r.minimal_period == 6 and mutations == 3 * 3


class _FrozenTwistRun(_Run):
    """A stand-in run of one step per round: from round 1 on, each tracked
    seed of `real` is its start relabelled by its permutation, and
    real.symmetric() judges the permutations."""

    blocks = ((0,),)

    def __init__(self, real, perms):
        self.real, self.perms, self.mutations = real, perms, 0
        self.starts = [s0 for _, _, s0 in real.seeds()]
        self.current = self.starts

    def step(self, k):
        self.mutations += 1
        self.current = [s0.relabel(p) for s0, p in zip(self.starts, self.perms)]

    def seeds(self):
        return tuple((None, s, s0) for s, s0 in zip(self.current, self.starts))

    def symmetric(self, perms, s):
        return self.real.symmetric(perms, s)

    def checks(self, rounds, steps, minimal):
        return []


def _one_block(run):
    """The run with all the vertices of each pattern in one block."""
    run.block_sets = [frozenset(range(run.seeds()[0][2].n))]
    if isinstance(run, _FoldRun):
        run.lifted_block_sets = [frozenset(range(run.lifted.n))]
    return run


def test_relabelling_by_a_non_symmetry_runs_every_round():
    ident = tuple(range(9))
    transpose = (0, 3, 6, 1, 4, 7, 2, 5, 8)  # (u, x) -> (x, u) on A3 x A3
    flip_first = (6, 7, 8, 3, 4, 5, 0, 1, 2)  # (u, x) -> (4 - u, x)
    b3a1 = _FoldRun(lift_dynkin(D("B3")), lift_dynkin(D("A1")), D("B3"), D("A1"), 8)
    b2b2 = _FoldRun(lift_dynkin(D("B2")), lift_dynkin(D("B2")), D("B2"), D("B2"), 8)
    a3a3 = _ProductRun(D("A3"), D("A3"), "boxtimes")
    # (run, refused permutations, a symmetry that differs only in the point tested)
    cases = [
        # lifted A5 x A1: swapping the two ends alone does not fix the matrix
        (b3a1, [(0, 1, 2), (4, 1, 2, 3, 0)], [(0, 1, 2), (4, 3, 2, 1, 0)]),
        # the transpose fixes the A3 x A3 matrix but moves blocks
        (a3a3, [transpose], [flip_first]),
        # with every vertex in one block it is still not alpha x beta
        (_one_block(_ProductRun(D("A3"), D("A3"), "boxtimes")), [transpose], [flip_first]),
        # the valued transpose of B2 x B2 with the lifted identity breaks
        # the projection; the lifted flip of the first factor keeps it
        (_one_block(b2b2), [(0, 2, 1, 3), ident], [(0, 1, 2, 3), flip_first]),
    ]
    for real, refused, accepted in cases:
        run = _FrozenTwistRun(real, refused)
        _drive(run, (D("A1"), D("A1")), "stand-in", 6, None, None)
        assert run.mutations == 6, refused
        run = _FrozenTwistRun(real, accepted)
        _drive(run, (D("A1"), D("A1")), "stand-in", 6, None, None)
        assert run.mutations == 1, accepted


class _RotatingRun(_Run):
    """A stand-in run of one step per round whose seed is its start
    relabelled by a 3-cycle after round 1, exactly back after round 3."""

    blocks = ((0,),)
    rho = (2, 1, 3, 0)

    def __init__(self):
        self.mutations = 0
        self.seed0 = self.seed = Seed.initial(alternating_quiver(D("D4")))

    def step(self, k):
        self.mutations += 1
        self.seed = self.seed.relabel(self.rho)

    def seeds(self):
        return (("rotation_return", self.seed, self.seed0),)

    def symmetric(self, perms, s):
        return True

    def checks(self, rounds, steps, minimal):
        return [CheckResult("steps", True, f"{steps} steps")]


def test_fast_forward_composes_the_symmetry_over_later_rounds():
    # round m + 1 is round 1 relabelled by rho^m: relabelled for m = 1, 2,
    # exactly round 1 again for m = 3
    run, buf = _RotatingRun(), io.StringIO()
    r = _drive(run, (D("A1"), D("A1")), "rotation", 3, 7, buf)
    assert run.mutations == 1
    assert (r.minimal_period, r.divides, r.verified) == (3, True, True)
    assert [(c.name, c.passed, c.detail) for c in r.checks] == [
        ("steps", True, "7 steps"), ("rotation_return", True, "round 3")
    ]
    assert buf.getvalue().splitlines()[1:] == [
        f"[A1 x A1] round {p}/7 done (repeats round 1{', relabelled' if p % 3 != 1 else ''})"
        for p in range(2, 8)
    ]


class _HalfRoundTwistRun(_FrozenTwistRun):
    """The frozen stand-in with two one-step blocks per round: after an odd
    number of steps each tracked seed is its start relabelled by its
    permutation, after an even number it is no relabelling of its start."""

    blocks = ((0,), (1,))

    def step(self, k):
        super().step(k)
        if self.mutations % 2 == 0:
            self.current = [s0.mutate(0) for s0 in self.starts]


def test_half_round_return_needs_a_block_rotation():
    # A2 x A1 has one vertex in each of its two blocks.  The swap carries
    # each block onto the other, so the stand-in fast-forwards after block
    # 3, the first odd block after a round end; the identity maps each
    # block onto itself and is refused half a round in
    a2a1 = _ProductRun(D("A2"), D("A1"), "boxtimes")
    for perm, mutations in (((1, 0), 3), ((0, 1), 12)):
        run = _HalfRoundTwistRun(a2a1, [perm])
        _drive(run, (D("A1"), D("A1")), "stand-in", 6, None, None)
        assert run.mutations == mutations, perm


def test_half_round_symmetry_must_be_a_product():
    # A3 x A2 square is its start relabelled by sigma x sigma' after block 2
    # of round 4.  Exchanging the images of (1, 1) and (3, 1), which share a
    # block, still carries block k + 2 onto block k, but is no alpha x beta
    run = _ProductRun(D("A3"), D("A2"), "square")
    labels = run.product.vertices
    where = {v: i for i, v in enumerate(labels)}
    perm = [where[(4 - u, 3 - x)] for u, x in labels]
    assert run.symmetric([tuple(perm)], 2)
    i, j = where[(1, 1)], where[(3, 1)]
    perm[i], perm[j] = perm[j], perm[i]
    assert not run.symmetric([tuple(perm)], 2)


def test_round_end_symmetry_must_fix_the_product_matrix():
    # A2 x A2 square: sigma x sigma', both factors reversed, carries each
    # merged block onto itself and fixes the square product.  Against the
    # tensor product on the same vertices and blocks, whose slices it
    # reverses, it still meets the block and factor conditions, so only the
    # matrix condition refuses it
    run = _ProductRun(D("A2"), D("A2"), "square")
    run.start()
    labels = run.product.vertices
    where = {v: i for i, v in enumerate(labels)}
    perm = tuple(where[(3 - u, 3 - x)] for u, x in labels)
    assert all({perm[i] for i in block} == block for block in run.merged)
    assert run.symmetric([perm], 0)
    run.product = tensor_product(run.qa, run.qb)
    assert not fixes(perm, run.product.b, run.seed0.d)
    assert run.symmetric([perm], 0) is False


def test_fold_refuses_a_half_round_return():
    # with all vertices in one block every permutation rotates the blocks:
    # the product run accepts the identity half a round in, the fold run,
    # whose projection is checked at round ends, does not
    b2a1 = _FoldRun(lift_dynkin(D("B2")), lift_dynkin(D("A1")), D("B2"), D("A1"), 6)
    cases = [
        (_one_block(_ProductRun(D("A2"), D("A1"), "boxtimes")), [(0, 1)], 3),
        (_one_block(b2a1), [(0, 1), (0, 1, 2)], 12),
    ]
    for real, perms, mutations in cases:
        run = _HalfRoundTwistRun(real, perms)
        _drive(run, (D("A1"), D("A1")), "stand-in", 6, None, None)
        assert run.mutations == mutations, perms
    assert b2a1.symmetric([(0, 1), (0, 1, 2)], 0)


def test_relabelled_returns_are_the_opposition_involution(monkeypatch):
    # every relabelled return a product run accepts, at a round end (s = 0)
    # and within a round, relabels by sigma x sigma', with sigma = -w0 of
    # each factor computed from its positive roots
    accepted, kinds = [], set()
    symmetric = _ProductRun.symmetric

    def spy(run, perms, s):
        # only relabelled returns: start() also asks about every symmetry
        ok = symmetric(run, perms, s)
        twist = run.seed.relabelling_of(run.seed0)
        if ok and perms[0] == twist and perms[0] != tuple(range(len(perms[0]))):
            accepted.append((run, perms[0], s))
        return ok

    monkeypatch.setattr(_ProductRun, "symmetric", spy)
    for sa, sb in PATTERN_PAIRS:
        sigma, sigma_b = opposition(D(sa)), opposition(D(sb))
        for system in ("boxtimes", "square"):
            accepted.clear()
            assert verify_periodicity(D(sa), D(sb), system=system).verified
            for run, perm, s in accepted:
                labels = run.product.vertices
                assert [labels[k] for k in perm] == [
                    (sigma[u], sigma_b[x]) for u, x in labels
                ], (sa, sb, system, s)
                kinds.add(s == 0)
    assert kinds == {True, False}


def _opposition_on_base(t):
    """sigma = -w0 of t, as a map on its vertices: the opposition of its
    simply laced cover, read on the orbits through to_base (a simply laced
    type is its own cover)."""
    lift = lift_dynkin(t)
    sigma = opposition(lift.lifted_type)
    images = {(lift.to_base[v], lift.to_base[sigma[v]]) for v in lift.quiver.vertices}
    assert len(images) == t.rank, t  # constant on the orbits
    return dict(images)


def test_minimal_period_follows_the_opposition_rule():
    # the minimal period is (h + h') / 2 when h + h' is even and sigma,
    # sigma' are both trivial, and h + h' otherwise
    trivial = {t: all(k == v for k, v in _opposition_on_base(D(t)).items())
               for t in ("A1 A2 A3 A4 B2 B3 C2 C3 D4 D5 D6 E7 F4 G2".split())}
    assert [t for t, ok in trivial.items() if not ok] == ["A2", "A3", "A4", "D5"]
    pairs = [tuple(p) for p in PATTERN_PAIRS]
    pairs += [("E7", "A1"), ("D6", "A2"), ("G2", "A1"), ("B3", "A1"), ("C3", "A1")]
    runs = [(p, verify_periodicity, system) for p in pairs for system in ("boxtimes", "square")]
    runs += [(tuple(p.split()), verify_folding, "fold") for p in FOLD_PAIRS + ["C2 A1"]]
    halves = set()
    for (sa, sb), verify, system in runs:
        total = coxeter_number(D(sa)) + coxeter_number(D(sb))
        half = total % 2 == 0 and trivial[sa] and trivial[sb]
        kwargs = {} if system == "fold" else {"system": system}
        r = verify(D(sa), D(sb), **kwargs)
        assert r.verified and r.minimal_period == (total // 2 if half else total), (sa, sb, system)
        halves.add(half)
    assert halves == {True, False}


def test_square_c_vectors_are_root_pairs(monkeypatch):
    # every c-vector of every computed step of a simply laced square run,
    # read as an r x r' matrix in row-major order, is +-alpha (x) beta with
    # alpha, beta positive roots of the two factors
    mutate, seen = Seed.mutate, []

    def spy(seed, k, **kwargs):
        out = mutate(seed, k, **kwargs)
        seen.append(out.c)
        return out

    monkeypatch.setattr(Seed, "mutate", spy)
    for sa, sb in PATTERN_PAIRS:
        ta, tb = D(sa), D(sb)
        roots = {tuple(a * b for a in alpha for b in beta)
                 for alpha in positive_roots(ta) for beta in positive_roots(tb)}
        roots |= {tuple(-x for x in root) for root in roots}
        seen.clear()
        r = verify_periodicity(ta, tb, system="square")
        assert seen and all(set(c) <= roots for c in seen), (sa, sb)
        assert r.verified


def _factor_c_vectors(q, t):
    """Every c-vector of q's own bipartite pattern, its sign classes
    mutated alternately for h + 2 rounds, which covers a period."""
    seed = Seed.initial(q)
    seen = set(seed.c)
    classes = [[k for k, v in enumerate(q.vertices) if q.vertex_sign(v) == s] for s in (1, -1)]
    for _ in range(coxeter_number(t) + 2):
        for ks in classes:
            seed = seed.mutate_block(ks)
            seen.update(seed.c)
    return seen


def _up_to_sign(v):
    return max(v, tuple(-x for x in v))


def _square_round_ends_as_root_pairs(sa, sb):
    """Per round end of the square run on (sa, sb), rounds 0 to h + h',
    the (alpha, beta) of each vertex, both up to sign, with
    c = +-alpha (x) beta (row-major) and alpha, beta c-vectors of the
    factors' own bipartite patterns; a c-vector of no such form fails the
    test."""
    ta, tb = D(sa), D(sb)
    qa, qb = alternating_valued_quiver(ta), alternating_valued_quiver(tb)
    pairs = {}
    for alpha in _factor_c_vectors(qa, ta):
        for beta in _factor_c_vectors(qb, tb):
            c = tuple(a * b for a in alpha for b in beta)
            pairs[c] = pairs[tuple(-x for x in c)] = (_up_to_sign(alpha), _up_to_sign(beta))
    product = square_product(qa, qb)
    seed, ends = Seed.initial(product), []
    for p in range(coxeter_number(ta) + coxeter_number(tb) + 1):
        if p:
            for block in mu_square_blocks(qa, qb):
                seed = seed.mutate_block([product.index(v) for v in block])
        missing = [c for c in seed.c if c not in pairs]
        assert not missing, (sa, sb, p, missing[0])
        ends.append([pairs[c] for c in seed.c])
    return ends


@pytest.mark.parametrize("pair", ["B2 A2", "A2 G2", "B3 A2", "G2 A3", "C3 B2", "F4 A2", "B2 B2"])
def test_square_round_end_c_vectors_are_factor_c_vector_pairs(pair):
    # valued pairs, at every round end: the root-pair form of the square
    # c-vectors, stated through the factors' own c-vectors
    sa, sb = pair.split()
    ends = _square_round_ends_as_root_pairs(sa, sb)
    assert len(ends) == coxeter_number(D(sa)) + coxeter_number(D(sb)) + 1
    assert ends[-1] == ends[0]


@pytest.mark.parametrize("pair", [
    " ".join(p) for p in PATTERN_PAIRS if "A1" not in p
] + ["B2 A2", "G2 A3", "F4 A2"])
def test_square_rounds_move_one_factor_at_each_vertex(pair):
    # between consecutive round ends every vertex's alpha or beta changes,
    # up to sign, never both and never neither; over h + h' rounds the
    # alpha moves total r r' h and the beta moves r r' h' (an A1 factor's
    # one c-vector cannot show its moves, so those pairs are left out)
    sa, sb = pair.split()
    ta, tb = D(sa), D(sb)
    ends = _square_round_ends_as_root_pairs(sa, sb)
    moves = [0, 0]
    for before, after in zip(ends, ends[1:]):
        for (a0, b0), (a1, b1) in zip(before, after):
            assert (a0 != a1) != (b0 != b1), (pair, a0, b0, a1, b1)
            moves[b0 != b1] += 1
    rr = ta.rank * tb.rank
    assert moves == [rr * coxeter_number(ta), rr * coxeter_number(tb)], pair


def test_relabelled_trivial_data_needs_a_relabelled_seed(monkeypatch):
    # A3 x A1 is its start relabelled after round 3, Seed.mutate call 9;
    # A2 x A1 within round 3, after its first block, call 5.  Restoring the
    # identity degree vectors there leaves c a permutation matrix and every
    # F equal to 1, but the seed is no relabelling of its start: the check
    # fails at that block end
    for sa, nth in (("A3", 9), ("A2", 5)):
        mutate, calls = Seed.mutate, []
        unit_g = Seed.initial(alternating_quiver(D(sa))).g

        def faulty(seed, k, **kwargs):
            calls.append(k)
            out = mutate(seed, k, **kwargs)
            return replace(out, g=unit_g) if len(calls) == nth else out

        with monkeypatch.context() as m:
            m.setattr(Seed, "mutate", faulty)
            r = verify_periodicity(D(sa), D("A1"))
        ce = r.counterexample
        assert not r.verified and (ce["round"], ce["step"], ce["check"]) == (
            3, nth, "trivial_data_iff_seed_return"
        ), sa


def test_block_swap_needs_commuting_blocks():
    # sigma x sigma' swaps (+,-) with (-,+) and (+,+) with (-,-).  On A2 x A2
    # square those pairs commute and merge in the walked round, so the
    # swap is accepted at a round end; on A2 x A2 boxtimes it carries
    # (-,+), the first block, onto (+,-), the last, and does not fix the
    # triangle product's diagonal arrows, so it is refused
    for system, mutations in (("square", 1), ("boxtimes", 6)):
        real = _ProductRun(D("A2"), D("A2"), system)
        labels = real.product.vertices
        swap = tuple(labels.index((3 - u, 3 - x)) for u, x in labels)
        real.start()
        run = _FrozenTwistRun(real, [swap])
        _drive(run, (D("A1"), D("A1")), "stand-in", 6, None, None)
        assert run.mutations == mutations, system
    assert [len(m) for m in real.merged] == [1, 2, 1]


# -- one exchange per orbit of the run's symmetry group ------------------------------

def test_renamed_f_polynomials_match_the_exchange(monkeypatch):
    # every F that a run renames from the first vertex of its orbit equals
    # the exchange at that step.  D4 x A1 and the G2 x A1 fold rename by
    # 3-cycles, where renaming by the inverse would give another vertex's F.
    # A run renames through Polynomial._rename, the body of rename
    mutate, rename, perms, renamed = Seed.mutate, Polynomial._rename, [], []

    def checked(seed, k, f=None):
        out = mutate(seed, k, f=f)
        if f is not None:
            renamed.append(k)
            assert out == mutate(seed, k), (label, len(renamed))
        return out

    def spy(poly, perm):
        perms.append(perm)
        return rename(poly, perm)

    monkeypatch.setattr(Seed, "mutate", checked)
    monkeypatch.setattr(Polynomial, "_rename", spy)
    runs = [
        (f"{sa} {sb} {system}", verify_periodicity, sa, sb, {"system": system})
        for sa, sb in PATTERN_PAIRS
        for system in ("boxtimes", "square")
    ] + [(f"{pair} fold", verify_folding, *pair.split(), {}) for pair in FOLD_PAIRS]
    by_3_cycles = set()
    for label, verify, sa, sb, kwargs in runs:
        renamed.clear()
        perms.clear()
        assert verify(D(sa), D(sb), **kwargs).verified, label
        assert len(renamed) == len(perms), label
        if any(not is_identity(g) and is_identity(power(g, 3)) for g in perms):
            by_3_cycles.add(label)
        if label in ("A3 A1 boxtimes", "A2 A2 square", "B2 A1 fold"):
            assert renamed, label
    assert {"D4 A1 boxtimes", "D4 A3 square", "G2 A1 fold"} <= by_3_cycles


def _factor_products(run):
    """Every alpha x beta of permutations of the factor vertices, as a
    permutation of the product's vertex indices, read off the labels."""
    qa, qb, labels = run.qa, run.qb, run.product.vertices
    where = {v: i for i, v in enumerate(labels)}
    for alpha in itertools.permutations(range(qa.n)):
        for beta in itertools.permutations(range(qb.n)):
            yield tuple(
                where[qa.vertices[alpha[qa.index(u)]], qb.vertices[beta[qb.index(x)]]]
                for u, x in labels
            )


def test_group_filter_refuses_a_block_preserving_non_automorphism(monkeypatch):
    # 1 <-> 3 on A4 keeps the sign classes, so it carries every block onto
    # itself, but it does not fix A4's matrix: the group must not take it.
    # The renamings stay those of the true group (sigma x sigma' on A4 x A2
    # square, none otherwise)
    real = ysystem.graph_automorphisms
    swap = (2, 1, 0, 3)
    for sb in ("A1", "A2"):
        for system in ("boxtimes", "square"):
            run = _ProductRun(D("A4"), D(sb), system)
            run.start()
            expected = run.renamed
            assert bool(expected) == ((sb, system) == ("A2", "square"))
            with monkeypatch.context() as m:
                m.setattr(
                    ysystem,
                    "graph_automorphisms",
                    lambda b: real(b) + ([swap] if len(b) == 4 else []),
                )
                run = _ProductRun(D("A4"), D(sb), system)
                run.start()
            assert run.renamed == expected, (sb, system)
            labels = run.product.vertices
            where = {v: i for i, v in enumerate(labels)}
            perm = tuple(where[swap[u - 1] + 1, x] for u, x in labels)
            assert _rotates(perm, run.merged)
            assert not fixes(perm, run.product.b, run.seed0.d)


def test_group_filter_block_condition_follows_from_the_matrix_on_dynkin_pairs():
    # on every pair of these types with at most 12 product vertices, an
    # alpha x beta is a symmetry at a round end exactly when it fixes the
    # product matrix and symmetrizer: on Dynkin factors the merged-block
    # condition of _ProductRun.symmetric refuses nothing more
    types = [D(s) for s in "A1 A2 A3 A4 A5 D4 B2 B3 C3 G2".split()]
    fixing = 0
    for ta, tb in itertools.product(types, repeat=2):
        if ta.rank * tb.rank > 12:
            continue
        for system in ("boxtimes", "square"):
            run = _ProductRun(ta, tb, system)
            run.start()
            for perm in _factor_products(run):
                fixed = fixes(perm, run.product.b, run.seed0.d)
                fixing += fixed
                assert run.symmetric([perm], 0) == fixed, (ta, tb, system, perm)
    assert fixing == 387


# -- structural failures ------------------------------------------------------------

def _answer_on_call(m, name, nth, answer):
    """Make ysystem.<name> return answer(its result) on its nth call."""
    original, calls = getattr(ysystem, name), []

    def wrapped(*args):
        calls.append(args)
        out = original(*args)
        return answer(out) if len(calls) == nth else out

    m.setattr(ysystem, name, wrapped)


def test_structural_failure_reports_where_it_happened(monkeypatch):
    # A3 x A2 boxtimes; the walk makes three mutate_matrix calls per step
    # (the product, then the step's horizontal and vertical slice), so call
    # 7 advances the product and call 8 the horizontal slice through 1 at
    # step 3, the last of block 2
    cases = [
        ("mutate_matrix", 7, lambda b: ((1,) + b[0][1:],) + b[1:], {
            "round": 1, "step": 3, "vertex": "(3, 1)",
            "check": "no_loops_or_two_cycles",
            "detail": "loop or 2-cycle appeared",
        }),
        ("is_constrained", 5, lambda out: False, {
            "round": 1, "step": 5, "vertex": "(1, 2)",
            "check": "intermediate_constrained",
            "detail": "intermediate quiver left the constrained class",
        }),
        ("mutate_matrix", 8, lambda b: tuple(tuple(-x for x in row) for row in b), {
            "round": 1, "step": 3, "vertex": "None",
            "check": "slice_law",
            "detail": "horizontal slice through 1 is not the mutated factor",
        }),
    ]
    for name, nth, answer, counterexample in cases:
        buf = io.StringIO()
        with monkeypatch.context() as m:
            _answer_on_call(m, name, nth, answer)
            r = verify_periodicity(D("A3"), D("A2"), progress=buf)
        assert not r.verified and r.rounds == 1, name
        assert r.counterexample == counterexample
        assert r.checks == [
            CheckResult(counterexample["check"], False, counterexample["detail"])
        ]
        assert buf.getvalue() == ""


def test_fold_structural_failure_reports_where_it_happened(monkeypatch):
    # F4 x A1 folds through E6 x A1 by one generator; its round mutates the
    # valued vertices (2, 1), (4, 1), (1, 1), (3, 1), so call 2 of either
    # check reads the matrix after the orbit of (4, 1) mutated
    cases = [
        ("is_admissible", lambda out: False,
         "orbit quiver gained a loop or 2-cycle after mutating (4, 1)"),
        ("fixes", lambda out: False, "group stopped acting by automorphisms"),
    ]
    for name, answer, detail in cases:
        buf = io.StringIO()
        with monkeypatch.context() as m:
            _answer_on_call(m, name, 2, answer)
            r = verify_folding(D("F4"), D("A1"), progress=buf)
        counterexample = {
            "round": 1, "step": 2, "vertex": "(4, 1)",
            "check": "lifted_action_admissible", "detail": detail,
        }
        assert not r.verified and r.rounds == 1, name
        assert r.counterexample == counterexample
        assert r.checks == [CheckResult("lifted_action_admissible", False, detail)]
        assert buf.getvalue() == ""


@pytest.mark.parametrize("case", ["c-vector", "f-polynomial", "matrix"])
def test_fold_round_end_failure_reports_where_it_happened(monkeypatch, case):
    # B2 x A1 folds through A3 x A1; a round makes 2 valued steps, and each
    # round end projects the lifted data of (1, 1), (2, 1), (3, 1) in turn,
    # so call 5 of a projection is at (2, 1) in round 2.  Seed.mutate call
    # 8 is the valued step at (1, 1) in round 2 (see
    # test_fold_matrix_fault_in_a_later_round_is_caught); negating its
    # matrix leaves the lifted pattern as it was
    check, detail = {
        "c-vector": ("projection_matches_valued", "tropical data at (2, 1) projects wrong"),
        "f-polynomial": ("projection_matches_valued", "polynomial at (2, 1) projects wrong"),
        "matrix": ("folded_matrix_matches", "entry (1,0) folds to -1, valued run has 1"),
    }[case]
    with monkeypatch.context() as m:
        if case == "c-vector":
            _answer_on_call(m, "project_exponents", 5, lambda c: tuple(-e for e in c))
        elif case == "f-polynomial":
            _answer_on_call(m, "project_polynomial", 5, lambda f: f + f)
        else:
            _negate_matrix_on_mutation(m, 8)
        r = verify_folding(D("B2"), D("A1"))
    assert not r.verified and r.rounds == 2 and r.minimal_period is None
    assert r.counterexample == {
        "round": 2, "step": 4, "vertex": "None", "check": check, "detail": detail,
    }
    assert r.checks == [CheckResult(check, False, detail)]


def test_fold_run_refuses_a_bound_its_lift_does_not_share():
    # verify_folding passes the folded pair's Coxeter number sum; B2 x A1
    # and its lift A3 x A1 both have 6, so a run given 7 fails in start(),
    # before the first round
    ta, tb = D("B2"), D("A1")
    run = _FoldRun(lift_dynkin(ta), lift_dynkin(tb), ta, tb, 7)
    r = _drive(run, (ta, tb), "fold", 7, None, None)
    detail = "lift bound 6 != folded bound 7"
    assert not r.verified and r.rounds == 0 and r.minimal_period is None
    assert r.counterexample == {
        "round": 0, "step": 0, "vertex": "None",
        "check": "coxeter_numbers_match_lift", "detail": detail,
    }
    assert r.checks == [CheckResult("coxeter_numbers_match_lift", False, detail)]


def _with_arrows(b, arrows):
    """b with one more arrow i -> j for each (i, j) in arrows."""
    out = [list(row) for row in b]
    for i, j in arrows:
        out[i][j] += 1
        out[j][i] -= 1
    return tuple(map(tuple, out))


def test_fold_walk_catches_a_fault_in_the_walked_matrix(monkeypatch):
    # the walk's first step mutates the one-vertex orbit of (2, 1); the fault
    # adds arrows to the matrix that mutation returns.  On G2 x A1 (through
    # D4 x A1) a 3-cycle on the orbit {(1, 1), (3, 1), (4, 1)} keeps the
    # rotation an automorphism but is a loop of the orbit quiver; on B2 x A1
    # (through A3 x A1) one more arrow (1, 1) -> (2, 1) keeps the orbit
    # quiver free of loops and 2-cycles but is not fixed by the end swap
    cases = [
        ("G2 A1", [(0, 2), (2, 3), (3, 0)],
         "orbit quiver gained a loop or 2-cycle after mutating (2, 1)"),
        ("B2 A1", [(0, 1)], "group stopped acting by automorphisms"),
    ]
    for pair, added, detail in cases:
        with monkeypatch.context() as m:
            _answer_on_call(m, "mutate_matrix", 1, lambda b: _with_arrows(b, added))
            r = verify_folding(*map(D, pair.split()))
        assert r.counterexample == {
            "round": 1, "step": 1, "vertex": "(2, 1)",
            "check": "lifted_action_admissible", "detail": detail,
        }, pair


def _negate_matrix_on_mutation(m, nth):
    """Make Seed.mutate negate the matrix it returns on its nth call."""
    mutate, calls = Seed.mutate, []

    def faulty(seed, k, **kwargs):
        calls.append(k)
        out = mutate(seed, k, **kwargs)
        if len(calls) == nth:
            out = replace(out, b=tuple(tuple(-x for x in row) for row in out.b))
        return out

    m.setattr(Seed, "mutate", faulty)


def test_matrix_fault_in_a_later_round_is_caught(monkeypatch):
    # the fault hits the last step of round 2, after the first round has
    # passed every check
    for pair, nth in ((("A2", "A1"), 4), (("A3", "A3"), 18)):
        with monkeypatch.context() as m:
            _negate_matrix_on_mutation(m, nth)
            r = verify_periodicity(*map(D, pair))
        assert not r.verified and r.counterexample["round"] == 2, pair
        assert r.counterexample["check"] in {"slice_law", "quiver_returns_each_round"}


def test_fold_matrix_fault_in_a_later_round_is_caught(monkeypatch):
    # a B2 x A1 fold round makes 5 Seed.mutate calls: valued (2, 1), its
    # lifted orbit of one, valued (1, 1), its lifted orbit of two; call 10
    # is the last lifted step of round 2
    with monkeypatch.context() as m:
        _negate_matrix_on_mutation(m, 10)
        r = verify_folding(D("B2"), D("A1"))
    assert not r.verified and r.counterexample["round"] == 2
    assert r.counterexample["check"] in {"folded_matrix_matches", "lifted_action_admissible"}


def test_broken_seed_invariant_is_a_failing_report(monkeypatch):
    # B2 x A1 fold: call 7 negates the lifted matrix after the orbit of
    # (2, 1) mutated in round 2, so the exchange at the orbit of (1, 1)
    # no longer divides
    with monkeypatch.context() as m:
        _negate_matrix_on_mutation(m, 7)
        r = verify_folding(D("B2"), D("A1"))
    assert not r.verified and r.rounds == 2 and r.minimal_period is None
    ce = r.counterexample
    assert (ce["round"], ce["step"], ce["vertex"], ce["check"]) == (2, 4, "(1, 1)", "seed_invariant")
    assert ce["detail"].startswith("exchange relation failed to divide at vertex 0")
    assert r.checks == [CheckResult("seed_invariant", False, ce["detail"])]
    # the detail ends with the seed the mutation started from and the vertex,
    # and replaying them raises the same error
    found = re.fullmatch(r".*; mutating vertex (\d+) of seed (\{.*\})", ce["detail"])
    assert "\n" not in ce["detail"] and found[1] == "0"
    assert sorted(json.loads(found[2])) == ["b", "c", "d", "f", "g"]
    snapshot = Seed.from_json(json.loads(found[2]))
    assert snapshot.d == (1, 1, 1)
    with pytest.raises(SeedInvariantError) as replayed:
        snapshot.mutate(int(found[1]))
    assert str(replayed.value) == ce["detail"]


def test_broken_seed_invariant_names_the_product_vertex(monkeypatch):
    # A3 x A2 boxtimes mutates (2, 1), (1, 1), (3, 1), (2, 2), (1, 2), (3, 2)
    # per round, square (1, 2), (3, 2), (2, 1), (1, 1), (3, 1), (2, 2).  Call
    # 9 (resp. 8) negates the matrix in round 2, so the exchange at the next
    # step no longer divides; the report names its vertex by label and the
    # detail by its row-major index
    labels = triangle_product(alternating_quiver(D("A3")), alternating_quiver(D("A2"))).vertices
    for system, nth, vertex in (("boxtimes", 9, (2, 2)), ("square", 8, (2, 1))):
        with monkeypatch.context() as m:
            _negate_matrix_on_mutation(m, nth)
            r = verify_periodicity(D("A3"), D("A2"), system=system)
        ce = r.counterexample
        assert (ce["round"], ce["step"], ce["vertex"], ce["check"]) == (
            2, nth + 1, repr(vertex), "seed_invariant"
        ), system
        k = labels.index(vertex)
        assert k != 0, system
        assert ce["detail"].startswith(f"exchange relation failed to divide at vertex {k}:")


def _walk_against_replay(q, sequence, rounds):
    """Run rounds of a mutation sequence, comparing the forward degree
    vectors with the backward replay, and checking tropical duality
    between them and the c-vectors, after every step."""
    seed, history = Seed.initial(q), []
    for k in [q.index(v) for v in sequence] * rounds:
        seed = mutate_with_history(seed, k, history)
        assert seed.g_vectors() == g_vectors_by_replay(q.n, history)
        assert tropical_duality_holds(seed)
    return seed


def _acceptance_runs():
    """(label, quiver, mutation sequence of one round, bound) for every
    PATTERN_PAIRS entry, boxtimes and square, and for the valued and the
    lifted pattern of every FOLD_PAIRS entry."""
    for sa, sb in PATTERN_PAIRS:
        ta, tb = D(sa), D(sb)
        qa, qb = alternating_quiver(ta), alternating_quiver(tb)
        bound = coxeter_number(ta) + coxeter_number(tb)
        yield f"{sa}x{sb}", triangle_product(qa, qb), mu_boxtimes_sequence(qa, qb), bound
        yield f"{sa}x{sb} square", square_product(qa, qb), mu_square_sequence(qa, qb), bound
    for pair in FOLD_PAIRS:
        ta, tb = (D(x) for x in pair.split())
        bound = coxeter_number(ta) + coxeter_number(tb)
        valued = (alternating_valued_quiver(ta), alternating_valued_quiver(tb))
        lifted = (lift_dynkin(ta).quiver, lift_dynkin(tb).quiver)
        for name, (qa, qb) in (("valued", valued), ("lifted", lifted)):
            q = triangle_product(qa, qb)
            yield f"{pair} {name}", q, mu_boxtimes_sequence(qa, qb), bound


def test_forward_g_vectors_match_replay_on_acceptance_runs():
    for label, q, sequence, bound in _acceptance_runs():
        seed = _walk_against_replay(q, sequence, bound)
        assert seed.equals(Seed.initial(q)), label


def test_exchange_matches_expansion_on_acceptance_runs():
    for label, q, sequence, bound in _acceptance_runs():
        seed = Seed.initial(q)
        for step, k in enumerate([q.index(v) for v in sequence] * bound):
            expected = exchange_by_expansion(seed, k)
            seed = seed.mutate(k)
            assert seed.f[k] == expected, (label, step)
