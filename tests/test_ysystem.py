import io
import random
import re
from fractions import Fraction

import pytest

from oracles import (
    exchange_by_expansion,
    g_vectors_by_replay,
    mutate_with_history,
    pattern_by_blocks,
)
from test_acceptance import FOLD_PAIRS, PATTERN_PAIRS
from yperiod.dynkin import DynkinType, coxeter_number
from yperiod.errors import InputError
from yperiod.folding import lift_dynkin
from yperiod.quiver import (
    alternating_quiver,
    alternating_valued_quiver,
    square_product,
    triangle_product,
)
from yperiod.seed import Seed, seed_equals, y_variable
from yperiod.ysystem import (
    CheckResult,
    _drive,
    _ProductRun,
    _Run,
    initial_state,
    mu_boxtimes_blocks,
    mu_boxtimes_sequence,
    mu_square_blocks,
    mu_square_sequence,
    normalized_step,
    pair_vertices,
    phi_automorphism,
    tau_automorphism,
    verify_direct_ysystem,
    verify_folding,
    verify_periodicity,
    vertex_parity,
    y_system_step,
)

D = DynkinType.parse


def random_values(ta, tb, rng):
    return {
        v: Fraction(rng.randint(1, 100), rng.randint(1, 100))
        for v in pair_vertices(ta, tb)
    }


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
    ta, tb = D("A2"), D("A1")
    st = initial_state(ta, tb, [1, 2], [3, 4])
    prev, curr = st.as_dicts()
    assert prev == {(1, 1): 1, (2, 1): 2}
    assert curr == {(1, 1): 3, (2, 1): 4}


# -- normalized system and automorphisms ----------------------------------------

def test_tau_inverts_opposite_parity():
    ta, tb = D("A2"), D("A1")
    rng = random.Random(0)
    vals = random_values(ta, tb, rng)
    plus = tau_automorphism(ta, tb, 1, vals)
    for v in vals:
        if vertex_parity(ta, tb, v) == -1:
            assert plus[v] == 1 / vals[v]


def test_tau_twice_on_a1_a1_vertex():
    ta = tb = D("A1")
    vals = {(1, 1): Fraction(5, 3)}
    # parity of (1,1) is +1; tau_minus only inverts, so applying it twice
    # is the identity on this coordinate
    once = tau_automorphism(ta, tb, -1, vals)
    twice = tau_automorphism(ta, tb, -1, once)
    assert twice == vals


def test_phi_iteration_has_order_dividing_h_sum():
    for sa, sb in [("A1", "A1"), ("A2", "A1"), ("A2", "A2")]:
        ta, tb = D(sa), D(sb)
        bound = coxeter_number(ta) + coxeter_number(tb)
        rng = random.Random(42)
        vals = random_values(ta, tb, rng)
        out = vals
        for _ in range(bound):
            out = phi_automorphism(ta, tb, out)
        assert out == vals


def test_normalized_a1_a1_period_four():
    ta = tb = D("A1")
    vals = {(1, 1): Fraction(7, 2)}
    seq = [vals]
    for t in range(4):
        seq.append(normalized_step(seq[-1], t, ta, tb))
    assert seq[4] == seq[0]
    assert seq[1] == {(1, 1): Fraction(2, 7)}  # parity makes step 0 an inversion


def test_normalized_matches_direct_on_even_subsystem():
    ta, tb = D("A2"), D("A1")
    rng = random.Random(9)
    z0 = random_values(ta, tb, rng)
    verts = pair_vertices(ta, tb)
    # align the second-order system with the normalization convention
    prev = [1 / z0[v] for v in verts]
    curr = [z0[v] for v in verts]
    state = initial_state(ta, tb, prev, curr)
    zt = dict(z0)
    for t in range(20):
        zt = normalized_step(zt, t, ta, tb)
        state = y_system_step(state)
        for i, v in enumerate(verts):
            if vertex_parity(ta, tb, v) == (-1) ** (t + 1):
                assert state.curr[i] == zt[v]


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
        assert trivial == seed_equals(s, s0)
        assert seed_equals(s, s0) == (p == 5)


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
    assert seed_equals(a, Seed.initial(box))


def test_phi_agrees_with_square_pattern_reconstruction():
    # evaluating the factored Y-data of the square pattern reproduces the
    # normalized iteration of the same starting values, half round by
    # half round (two sign blocks = one normalized step)
    ta, tb = D("A2"), D("A2")
    qa, qb = alternating_quiver(ta), alternating_quiver(tb)
    sq = square_product(qa, qb)
    blocks = mu_square_blocks(qa, qb)
    verts = list(sq.vertices)
    rng = random.Random(15)
    point = [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in verts]
    vals = {v: point[i] for i, v in enumerate(verts)}
    seed = Seed.initial(sq)
    bound = coxeter_number(ta) + coxeter_number(tb)
    # The h-th half round realizes the h-th normalized step in the time
    # convention whose first step applies the plus automorphism (our square
    # product reverses slices through sources and sinks in the mirrored
    # roles, which flips the time parity of the normalized system).
    for h in range(1, 2 * bound + 1):
        half = blocks[:2] if h % 2 == 1 else blocks[2:]
        for block in half:
            for v in block:
                seed = seed.mutate(sq.index(v))
        vals = normalized_step(vals, h, ta, tb)
        got = {
            v: y_variable(seed, sq.index(v)).evaluate(point) for v in verts
        }
        assert got == vals, f"half round {h}"
    # two half rounds compose to phi, so the full run certifies its order
    assert seed_equals(seed, Seed.initial(sq))


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


def test_direct_rejects_multiply_laced():
    with pytest.raises(InputError):
        verify_direct_ysystem(D("B2"), D("A1"))


def test_direct_is_deterministic_given_seed():
    a = verify_direct_ysystem(D("A2"), D("A2"), trials=2, rng_seed=5).to_json()
    b = verify_direct_ysystem(D("A2"), D("A2"), trials=2, rng_seed=5).to_json()
    assert a == b


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
    r = verify_folding(D("A2"), D("A1"), allow_trivial=True)
    assert r.verified and r.minimal_period == 5


def test_fold_requires_something_to_fold():
    with pytest.raises(InputError):
        verify_folding(D("A2"), D("A1"))


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
    assert "lifted_seed_return" not in {c.name for c in short.checks}


# -- the shared round driver --------------------------------------------------------

ROUND_LINE = re.compile(r"round \d+/\d+ done")  # how progress is split into rounds


def test_progress_has_one_line_per_round():
    # the last field is the round after which the whole run state is back
    # at its start; the rounds after it say which round they repeat
    cases = [
        (verify_periodicity, ("A2", "A1"), {}, "round", 5, None),
        (verify_periodicity, ("A3", "A2"), {"system": "square", "max_rounds": 3}, "round", 3, None),
        (verify_periodicity, ("G2", "A1"), {}, "round", 8, 4),
        (verify_periodicity, ("D4", "A1"), {"max_rounds": 11}, "round", 11, 4),
        (verify_folding, ("B2", "A1"), {}, "fold round", 6, None),
        (verify_folding, ("G2", "A1"), {"max_rounds": 10}, "fold round", 10, 4),
    ]
    for verify, (sa, sb), kwargs, tag, rounds, period in cases:
        buf = io.StringIO()
        verify(D(sa), D(sb), progress=buf, **kwargs)
        lines = buf.getvalue().splitlines()
        assert lines == [
            f"[{sa} x {sb}] {tag} {p}/{rounds} done"
            + (f" (repeats round {(p - 1) % period + 1})" if period and p > period else "")
            for p in range(1, rounds + 1)
        ]
        assert all(len(ROUND_LINE.findall(line)) == 1 for line in lines)


# -- fast-forward after an exact return of the whole run state ----------------------

def _count_mutations(monkeypatch, verify, *args, **kwargs):
    """(report, number of Seed.mutate calls) of one verification."""
    calls = []
    mutate = Seed.mutate

    def counted(seed, k):
        calls.append(k)
        return mutate(seed, k)

    with monkeypatch.context() as m:
        m.setattr(Seed, "mutate", counted)
        report = verify(*args, **kwargs)
    return report, len(calls)


def _bound_check(report, name="seed_return_at_coxeter_bound"):
    return {c.name: (c.passed, c.detail) for c in report.checks}[name]


def test_driver_matches_round_by_round_reference():
    for sa, sb in PATTERN_PAIRS:
        ta, tb = D(sa), D(sb)
        qa, qb = alternating_quiver(ta), alternating_quiver(tb)
        bound = coxeter_number(ta) + coxeter_number(tb)
        for system, product, blocks in (
            ("boxtimes", triangle_product(qa, qb), mu_boxtimes_blocks(qa, qb)),
            ("square", square_product(qa, qb), mu_square_blocks(qa, qb)),
        ):
            minimal, returned = pattern_by_blocks(product, blocks, bound)
            r = verify_periodicity(ta, tb, system=system)
            assert (r.minimal_period, r.verified) == (minimal, True), (sa, sb, system)
            assert _bound_check(r) == (returned, f"round {bound}"), (sa, sb, system)


class _CycleRun(_Run):
    """A stand-in run whose seed walks a cycle of length m, one step per round."""

    blocks = (("v",),)

    class Position(int):
        def equals(self, other):
            return self == other

    def __init__(self, m):
        self.m, self.mutations = m, 0
        self.seed0 = self.seed = self.Position(0)

    def step(self, v):
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
    # D4 x A1 is back at round 4 of 8; A2 x A1 only at its bound 5
    r, mutations = _count_mutations(monkeypatch, verify_periodicity, D("D4"), D("A1"))
    assert r.verified and r.minimal_period == 4 and mutations == 4 * 4
    r, mutations = _count_mutations(monkeypatch, verify_periodicity, D("A2"), D("A1"))
    assert r.verified and r.minimal_period == 5 and mutations == 5 * 2
    # the step and block counts still cover every round
    seen = {c.name: c.detail for c in verify_periodicity(D("D4"), D("A1")).checks}
    assert seen["no_loops_or_two_cycles"] == "32 mutation steps"
    assert seen["slice_law"] == "32 block boundaries"


def test_fast_forward_needs_the_run_state_back(monkeypatch):
    monkeypatch.setattr(_ProductRun, "own_state_returned", lambda self: False)
    r, mutations = _count_mutations(monkeypatch, verify_periodicity, D("D4"), D("A1"))
    assert r.verified and r.minimal_period == 4 and mutations == 8 * 4


def test_fast_forward_past_the_bound_reports_the_bound(monkeypatch):
    r, mutations = _count_mutations(
        monkeypatch, verify_periodicity, D("D4"), D("A1"), max_rounds=20
    )
    assert r.verified and r.rounds == 20 and r.minimal_period == 4
    assert _bound_check(r) == (True, "round 8")
    assert mutations == 4 * 4
    assert _bound_check(r, "intermediate_constrained") == (True, "80 steps")


def test_fold_waits_for_the_lifted_seed(monkeypatch):
    # B2 x A1: the valued seed is back at round 3, the lifted A3 x A1 seed
    # only at round 6, so nothing repeats before round 7; a round mutates
    # 2 valued and 3 lifted vertices
    for rounds in (6, 12):
        buf = io.StringIO()
        r, mutations = _count_mutations(
            monkeypatch, verify_folding, D("B2"), D("A1"), max_rounds=rounds, progress=buf
        )
        assert r.verified and r.minimal_period == 3
        assert _bound_check(r, "lifted_seed_return") == (True, "round 6")
        assert mutations == 6 * 5
        repeats = [line for line in buf.getvalue().splitlines() if "repeats" in line]
        assert repeats == [
            f"[B2 x A1] fold round {p}/{rounds} done (repeats round {p - 6})"
            for p in range(7, rounds + 1)
        ]


def _walk_against_replay(q, sequence, rounds):
    """Run rounds of a mutation sequence, comparing the forward degree
    vectors with the backward replay after every step."""
    seed, history = Seed.initial(q), []
    for k in [q.index(v) for v in sequence] * rounds:
        seed = mutate_with_history(seed, k, history)
        assert seed.g_vectors() == g_vectors_by_replay(q.n, history)
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
        assert seed_equals(seed, Seed.initial(q)), label


def test_exchange_matches_expansion_on_acceptance_runs():
    for label, q, sequence, bound in _acceptance_runs():
        seed = Seed.initial(q)
        for step, k in enumerate([q.index(v) for v in sequence] * bound):
            expected = exchange_by_expansion(seed, k)
            seed = seed.mutate(k)
            assert seed.f[k] == expected, (label, step)
