"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria complete.  Everything asserted here is exact; there are no
tolerances anywhere.
"""

import itertools
import random
from fractions import Fraction

import pytest

from oracles import COXETER_TABLE, mutate_y_values
from yperiod.algebra import Polynomial, RationalPoint
from yperiod.dynkin import (
    DynkinType,
    coxeter_element,
    coxeter_number,
    matrix_order,
    positive_roots,
)
from yperiod.quiver import (
    Quiver,
    alternating_quiver,
    mutate_set,
    square_product,
    triangle_product,
)
from yperiod.seed import Seed
from yperiod.ysystem import (
    mu_boxtimes_blocks,
    verify_direct_ysystem,
    verify_folding,
    verify_periodicity,
)

D = DynkinType.parse

PATTERN_PAIRS = [
    ("A1", "A1"), ("A2", "A1"), ("A3", "A1"), ("A4", "A1"), ("D4", "A1"),
    ("D5", "A1"), ("A2", "A2"), ("A3", "A2"), ("A4", "A2"), ("A2", "A4"),
    ("D4", "A2"), ("A3", "A3"), ("A4", "A3"), ("D4", "A3"),
]

FOLD_PAIRS = ["B2 A1", "B3 A1", "C3 A1", "F4 A1", "G2 A1", "B2 B2"]


def finish(num, desc, failures):
    verdict = "PASS" if not failures else f"FAIL ({'; '.join(failures)})"
    print(f"[criterion {num}] {desc}: {verdict}")
    assert not failures


@pytest.fixture(scope="module")
def pattern_reports():
    return {
        (sa, sb): verify_periodicity(D(sa), D(sb), system="boxtimes")
        for sa, sb in PATTERN_PAIRS
    }


def test_criterion_1_seed_periodicity(pattern_reports):
    failures = []
    for (sa, sb), rep in pattern_reports.items():
        if not rep.verified:
            failures.append(f"{sa} x {sb} not verified")
        ret = [c for c in rep.checks if c.name == "seed_return_at_coxeter_bound"]
        if not ret or not ret[0].passed:
            failures.append(f"{sa} x {sb} missing exact return at h+h'")
    finish(1, "exact seed return at h+h' for all bounded simply laced pairs", failures)


def test_criterion_2_minimal_periods(pattern_reports):
    failures = []
    expected = {("A1", "A1"): 2, ("A2", "A1"): 5}
    for pair, minimal in expected.items():
        if pattern_reports[pair].minimal_period != minimal:
            failures.append(
                f"{pair}: minimal {pattern_reports[pair].minimal_period} != {minimal}"
            )
    for pair, rep in pattern_reports.items():
        if rep.minimal_period is None or rep.period_bound % rep.minimal_period:
            failures.append(f"{pair}: minimal period does not divide the bound")
    finish(2, "recorded minimal periods (2 and 5 for the smallest pairs)", failures)


def test_criterion_3_direct_system():
    failures = []
    for sa, sb in PATTERN_PAIRS:
        ta, tb = D(sa), D(sb)
        if ta.rank * tb.rank > 9:
            continue
        rep = verify_direct_ysystem(ta, tb, trials=5, rng_seed=0)
        if not rep.verified:
            failures.append(f"{sa} x {sb}: no exact return after 2(h+h')")
    finish(3, "direct recurrence returns exactly after 2(h+h') from 5 random starts", failures)


def test_criterion_4_structural_invariants(pattern_reports):
    failures = []
    needed = ("intermediate_constrained", "no_loops_or_two_cycles",
              "slice_law", "quiver_returns_each_round")
    for pair, rep in pattern_reports.items():
        seen = {c.name: c.passed for c in rep.checks}
        for name in needed:
            if not seen.get(name, False):
                failures.append(f"{pair}: check {name} did not pass")
    finish(4, "every intermediate quiver constrained, clean, with intact slices", failures)


def test_criterion_5_sign_coherence(pattern_reports):
    failures = []
    for pair, rep in pattern_reports.items():
        seen = {c.name: c.passed for c in rep.checks}
        if not seen.get("sign_coherent_c_vectors", False):
            failures.append(f"{pair}: sign coherence not certified")
    # independent random walks, asserted vertex by vertex
    rng = random.Random(99)
    q = triangle_product(alternating_quiver(D("A3")), alternating_quiver(D("A2")))
    s = Seed.initial(q)
    for _ in range(60):
        s = s.mutate(rng.randrange(q.n))
        for col in s.c:
            if not (all(x >= 0 for x in col) or all(x <= 0 for x in col)):
                failures.append("random walk broke sign coherence")
    finish(5, "all tropical exponent vectors sign-coherent at every step", failures)


def test_criterion_6_coxeter_oracle():
    failures = []
    for (fam, rank), h in sorted(COXETER_TABLE.items()):
        t = DynkinType(fam, rank)
        if coxeter_number(t) != h:
            failures.append(f"{t}: computed {coxeter_number(t)} != table {h}")
    for t in [DynkinType(f, n) for (f, n) in sorted(COXETER_TABLE) if DynkinType(f, n).simply_laced]:
        c = coxeter_element(t)
        h = COXETER_TABLE[(t.family, t.rank)]
        if matrix_order(c) != h:
            failures.append(f"{t}: Coxeter element order is not h")
        if len(positive_roots(t)) != t.rank * h // 2:
            failures.append(f"{t}: wrong positive root count")
    if coxeter_number(D("D4")) != 6 or coxeter_number(D("E6")) != 12:
        failures.append("D4/E6 Coxeter numbers wrong")
    finish(6, "computed Coxeter data matches the static oracle for rank <= 8", failures)


def test_criterion_7_folding():
    failures = []
    expected_bounds = {"B2 A1": 6, "B3 A1": 8, "C3 A1": 8, "F4 A1": 14,
                       "G2 A1": 8, "B2 B2": 8}
    for pair in FOLD_PAIRS:
        sa, sb = pair.split()
        rep = verify_folding(D(sa), D(sb))
        if not rep.verified:
            failures.append(f"{pair}: {rep.counterexample}")
            continue
        if rep.period_bound != expected_bounds[pair]:
            failures.append(f"{pair}: bound {rep.period_bound} != {expected_bounds[pair]}")
        seen = {c.name: c.passed for c in rep.checks}
        for name in ("lifted_action_admissible", "projection_matches_valued",
                     "valued_seed_return"):
            if not seen.get(name, False):
                failures.append(f"{pair}: check {name} did not pass")
    finish(7, "lifted patterns stay admissible and project onto the valued runs", failures)


def test_criterion_8_property_suites(pattern_reports):
    failures = []

    # mutation involution on 200 random quivers with up to 8 vertices
    rng = random.Random(2718)
    for _ in range(200):
        n = rng.randint(2, 8)
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                b[i][j] = rng.randint(-3, 3)
                b[j][i] = -b[i][j]
        q = Quiver(tuple(range(1, n + 1)), b)
        k = rng.randint(1, n)
        if q.mutate(k).mutate(k) != q:
            failures.append(f"involution failed on a random quiver, n={n}")
            break

    # block-order independence for every in-scope product, round by round
    for sa, sb in PATTERN_PAIRS:
        qa, qb = alternating_quiver(D(sa)), alternating_quiver(D(sb))
        box = triangle_product(qa, qb)
        blocks = mu_boxtimes_blocks(qa, qb)
        bound = coxeter_number(D(sa)) + coxeter_number(D(sb))
        fwd = rev = Seed.initial(box)
        for _ in range(bound):
            for block in blocks:
                for v in block:
                    fwd = fwd.mutate(box.index(v))
                for v in reversed(block):
                    rev = rev.mutate(box.index(v))
            if not (fwd.b == rev.b and fwd.c == rev.c and fwd.f == rev.f
                    and fwd.g_vectors() == rev.g_vectors()):
                failures.append(f"{sa} x {sb}: block order changed a round")
                break

    # polynomial ring axioms, exact division round trips, evaluation maps
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            if sum(e) <= 3:
                terms[e] = rng.randint(-9, 9)
        return Polynomial(3, terms)

    for _ in range(300):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        if (p * q) * r != p * (q * r) or p * (q + r) != p * q + p * r:
            failures.append("ring axiom failed")
            break
        if not q.is_zero() and (p * q).exact_div(q) != p:
            failures.append("division round trip failed")
            break
        pt = [Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(3)]
        if (p * q).evaluate(pt) != p.evaluate(pt) * q.evaluate(pt):
            failures.append("evaluation is not multiplicative")
            break

    # the composite mutation identity relating the two products; sources
    # and sinks by the sign classification (a bare vertex counts as source)
    for sa, sb in PATTERN_PAIRS:
        qa, qb = alternating_quiver(D(sa)), alternating_quiver(D(sb))
        m = [
            (u, x)
            for u in qa.vertices
            if qa.vertex_sign(u) == 1
            for x in qb.vertices
            if qb.vertex_sign(x) == -1
        ]
        if mutate_set(square_product(qa, qb), m) != triangle_product(qa, qb):
            failures.append(f"{sa} x {sb}: square does not mutate to triangle")
    finish(8, "involution, block order, ring axioms, product identity", failures)


def test_criterion_9_reconstruction_oracle():
    failures = []
    rng = random.Random(424242)
    quivers = [
        alternating_quiver(D("A2")),
        alternating_quiver(D("A3")),
        alternating_quiver(D("A4")),
        alternating_quiver(D("D4")),
        triangle_product(alternating_quiver(D("A2")), alternating_quiver(D("A2"))),
    ]
    for q in quivers:
        n = q.n
        for _ in range(3):
            length = rng.randint(1, 6)
            path = [rng.randrange(n) for _ in range(length)]
            points = [RationalPoint.random(n, rng) for _ in range(20)]
            seed = Seed.initial(q)
            direct = [([list(r) for r in q.b], list(pt)) for pt in points]
            for k in path:
                seed = seed.mutate(k)
                direct = [mutate_y_values(b, vals, k) for b, vals in direct]
            for pt, (_, vals) in zip(points, direct):
                got = [seed.y_expression(j).evaluate(pt) for j in range(n)]
                if got != vals:
                    failures.append(f"rank {n}: factored and direct values differ")
                    break
    finish(9, "factored Y-data matches the direct recursion at 20 random points", failures)
