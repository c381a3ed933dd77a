"""The canonical mutation sequences of the product quivers of a pair of
Dynkin diagrams, and machine verification of Zamolodchikov periodicity:
by the seed pattern, by folding, and by the direct recurrence (direct.py).

Composition convention, used everywhere: in a product of mutations the
rightmost factor acts first.  The bipartite round for the triangle
product applies the sign blocks in the order (-,+), (+,+), (-,-), (+,-);
the round for the square product applies (+,-), (-,+), (+,+), (-,-).
Within a block the vertices commute and are taken in row-major order.
"""

from __future__ import annotations

import math
import random
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from . import dynkin
from .algebra import RationalPoint
from .direct import Pair, initial_state, y_system_step
from .dynkin import DynkinType
from .errors import InputError, SeedInvariantError, is_int
from .folding import (
    Lift,
    is_admissible,
    lift_dynkin,
    product_action,
    project_exponents,
    project_polynomial,
)
from .quiver import (
    alternating_quiver,
    alternating_valued_quiver,
    has_loops_or_two_cycles,
    horizontal_slice,
    is_constrained,
    mutate_matrix,
    square_product,
    triangle_product,
    vertical_slice,
)
from .report import CheckResult, PeriodicityReport
from .seed import (
    Perm, Seed, compose, fixes, graph_automorphisms, is_identity, orbit_renamings, power,
    product_perm,
)

BOXTIMES_BLOCK_ORDER = ((-1, 1), (1, 1), (-1, -1), (1, -1))
SQUARE_BLOCK_ORDER = ((1, -1), (-1, 1), (1, 1), (-1, -1))


# ---------------------------------------------------------------------------
# canonical mutation sequences

def _sign_blocks(qa, qb, order) -> Tuple[Tuple[Tuple, ...], ...]:
    if not qa.is_alternating() or not qb.is_alternating():
        raise InputError("both factors must be alternating")
    # each factor's vertices with their signs, read once
    sa, sb = ([(v, q.vertex_sign(v)) for v in q.vertices] for q in (qa, qb))
    return tuple(
        tuple((u, x) for u, su in sa if su == s for x, sx in sb if sx == t) for s, t in order
    )


def alternating_pair(ta: DynkinType, tb: DynkinType):
    """The pair's alternating quivers: plain if both are simply laced, else valued."""
    if ta.simply_laced and tb.simply_laced:
        return alternating_quiver(ta), alternating_quiver(tb)
    return alternating_valued_quiver(ta), alternating_valued_quiver(tb)


def mu_boxtimes_blocks(qa, qb):
    return _sign_blocks(qa, qb, BOXTIMES_BLOCK_ORDER)


def mu_square_blocks(qa, qb):
    return _sign_blocks(qa, qb, SQUARE_BLOCK_ORDER)


def mu_boxtimes_sequence(qa, qb) -> Tuple[Tuple, ...]:
    """One triangle-product round, flattened, in application order."""
    return tuple(v for block in mu_boxtimes_blocks(qa, qb) for v in block)


def mu_square_sequence(qa, qb) -> Tuple[Tuple, ...]:
    """One square-product round, flattened, in application order."""
    return tuple(v for block in mu_square_blocks(qa, qb) for v in block)


# ---------------------------------------------------------------------------
# the round driver shared by the seed-pattern and folding verifiers

def _progress(stream, msg: str) -> None:
    if stream is not None:
        print(msg, file=stream, flush=True)


class _Failure(Exception):
    """A check did not pass, at run.labels[vertex] unless vertex is None.
    at = (round, step) places a failure found outside the driver's own
    steps; by default it is where the driver is."""

    def __init__(self, check: str, detail: str, vertex=None, at=None):
        super().__init__(detail)
        self.check, self.detail, self.vertex, self.at = check, detail, vertex, at


class _Run:
    """A verifier's part of a round-driven run.  Subclasses set blocks, the
    mutation blocks of one round as tuples of vertex indices (row-major on
    a product), and labels, the vertex names a counterexample reports, and
    define step(k), seeds() and checks(rounds, steps, minimal); the step,
    block and round checks raise _Failure.  seeds() lists (name of the
    return-at-bound check or None, current seed, initial seed); the first
    one decides the minimal period.  Empty blocks (an A1 factor has one
    sign class) are skipped; below, block k is the k-th non-empty block of
    the run, counted across rounds, and a round has L of them.

    The tracked seeds are the whole state of a run: mutation and every
    check are deterministic functions of them.  Suppose that after block
    t, at least one round in, every tracked seed is its start relabelled
    by a permutation pi (Seed.relabel), and that symmetric(perms, s), with
    s = t mod L, has verified that each pi is a symmetry of the run: it
    carries block k + s onto block k for every k and meets the run's own
    conditions.  Mutation commutes with relabelling,
    s.relabel(pi).mutate(k) == s.mutate(pi[k]).relabel(pi), and block
    t + k mutates the vertices that pi carries onto those of block k, so
    block t + k is block k relabelled by pi, with its steps taken in the
    order pi gives them.  The mutations within a block commute, so block
    t + k ends at pi applied to the state block k reached, and each of its
    steps makes, at pi of its vertex, the exchange that block k made
    there.  No check sees pi: per-vertex checks move with their vertex,
    the block-end checks compare the seed with its start up to a
    relabelling, the matrix at a round end is the start's (the first
    round returned it, and the matrix after a block depends only on the
    matrix before it), and the run's own conditions keep its other checks
    (slices, projection) unchanged.  So the blocks after t are not
    computed: a seed that is its start relabelled by tau after block i is
    its start relabelled by tau o pi^m after block m t + i.  A return at a
    round end is the case s = 0, and an exact return the case that every
    pi is the identity.

    Blocks merge: consecutive blocks of a round whose vertices are pairwise
    non-adjacent in the walked round (below) commute, so they make one
    merged block, whose end state does not depend on the order of its
    blocks.  At a round end a run may accept a pi that carries each merged
    block onto itself, swapping blocks within it (sigma x sigma' on square
    products of A_even pairs).  The rounds after t are then the computed
    ones relabelled by pi, with the blocks of a merged block in another
    order: they pass through the same states at merged-block ends, and
    each step makes the same exchange at its vertex, so the checks of its
    F and its c-vector agree.  The states between the blocks of a merged
    block are not relabellings of computed ones; the checks made there
    (sign-coherence of every c-vector, the block-end check) are made in
    the computed order only, and the driver reads only round ends past t.

    Symmetry across vertices: start() may set renamed (orbit_renamings)
    from a group G of pi that symmetric([pi], 0) accepts, each of which
    fixes the matrix, the symmetrizer and every merged block.  The initial
    seed is g-invariant for g in G: relabelling its vertices by g and
    renaming each initial variable y_i to y_g(i) gives it back.  Mutation
    at g(v) of a g-invariant seed is g applied to mutation at v, and the
    mutations of a merged block commute, so every merged-block end is
    g-invariant.  The exchange at a vertex reads no other vertex of its
    merged block, so within the block it is the one the block's start
    gives: the F at g(v) is the F at v renamed by g.  Only the first vertex
    of each orbit in its merged block runs the exchange; Seed.mutate still
    makes every other update and per-vertex check at every vertex.

    A check that reads only the exchange matrix is made once, in start(),
    on one round walked from the starting matrix by mutate_matrix, and
    end_round checks that every round ends at the walk's start.  The walk
    then covers every round: Seed.mutate changes the matrix only by
    mutate_matrix(b, k), so each round passes through exactly the walked
    matrices."""

    tag = "round"  # progress line: "[X x Y] <tag> p/r done"
    return_check = "seed_return"  # counterexample check when nothing returns
    blocks: Tuple[Tuple[int, ...], ...]
    labels: Tuple
    renamed: Dict[int, Tuple[int, Perm]] = {}

    def start(self) -> None:
        """Checks made once, before the first round."""

    def end_round(self) -> None:
        """Checks at a round boundary, made before those of its last block."""

    def end_block(self, twist: Optional[Perm]) -> None:
        """Checks at the end of a non-empty block; twist is the permutation
        that relabels the first tracked seed's start into it, or None."""

    def symmetric(self, perms: Sequence[Perm], s: int) -> bool:
        """Whether relabelling each tracked seed's start by its permutation,
        s blocks into a round, is a symmetry of the run (see above).  Here:
        only the identity, at a round end."""
        return s == 0 and all(map(is_identity, perms))


def _rotates(perm: Perm, blocks, s: int = 0) -> bool:
    """perm maps block k + s onto block k (sets of vertex indices, the
    non-empty blocks of a round, counted cyclically)."""
    n = len(blocks)
    return all({perm[i] for i in blocks[(k + s) % n]} == blocks[k] for k in range(n))


def _mutate(seed: Seed, k: int, renamed) -> Seed:
    """seed.mutate(k), given the F that renamed[k] names (see _Run); g, a
    product of permutations the run built from ints, is not tested again."""
    if k not in renamed:
        return seed.mutate(k)
    v, g = renamed[k]
    return seed.mutate(k, f=seed.f[v]._rename(g))


def _step_blocks(run: _Run, rounds: int, done):
    """Run the non-empty blocks of rounds 1..rounds, calling done(p) as round
    p ends, up to the first block `period` whose relabellings run.symmetric
    accepts (see _Run).  Returns the records, per block run the permutation
    relabelling each tracked seed's start into it or None, and period or None."""
    blocks = [block for block in run.blocks if block]
    records: List[List[Optional[Perm]]] = []
    p = steps = 0
    try:
        run.start()
        for p in range(1, rounds + 1):
            for j, block in enumerate(blocks, 1):
                for k in block:
                    steps += 1
                    try:
                        run.step(k)
                    except SeedInvariantError as exc:
                        raise _Failure("seed_invariant", str(exc), k) from exc
                if j == len(blocks):
                    run.end_round()
                twists = [s.relabelling_of(s0) for _, s, s0 in run.seeds()]
                run.end_block(twists[0])
                records.append(twists)
                if j == len(blocks):
                    done(p)
                # from the first round end on, so that end_round has run
                if len(records) >= len(blocks) and None not in twists:
                    if run.symmetric(twists, j % len(blocks)):
                        return records, len(records)
    except _Failure as exc:
        exc.at = exc.at or (p, steps)
        raise
    return records, None


def _round_ends(records, period: Optional[int], positions: Sequence[int], rounds: int):
    """Each round end 1..rounds, computed or fast-forwarded: the relabelling
    of each tracked seed's start into it or None, and a note, empty for a
    computed round, naming the round (and block, by its position) it repeats
    and whether relabelled.  Block m * period + i is block i relabelled by
    the m-th powers of the relabellings after block period."""
    per_round = len(positions)
    for end in range(per_round, rounds * per_round + 1, per_round):
        if period is None or end <= period:
            yield records[end - 1], ""
            continue
        # the round ends at block m * period + i + 1
        m, i = divmod(end - 1, period)
        powers = [power(pi, m) for pi in records[period - 1]]
        twists = [None if t is None else compose(t, pm) for t, pm in zip(records[i], powers)]
        r, j = divmod(i, per_round)
        within = "" if j == per_round - 1 else f" block {positions[j]}"
        relabelled = "" if all(map(is_identity, powers)) else ", relabelled"
        yield twists, f" (repeats round {r + 1}{within}{relabelled})"


def _drive(
    run: _Run,
    pair: Pair,
    system: str,
    bound: int,
    max_rounds: Optional[int],
    progress,
) -> PeriodicityReport:
    """Run rounds 1..max_rounds (default the bound) and assemble the report:
    the minimal period of the first tracked seed, the return of every
    tracked seed at the bound, or the first failed check.  A run that stops
    below the bound is verified only if every tracked seed is exactly back
    at that minimal period; a seed that is not fails its named check.
    Rounds that _step_blocks did not compute print their progress here."""
    rounds = bound if max_rounds is None else max_rounds
    if not is_int(rounds) or rounds < 1:
        raise InputError(f"max_rounds must be at least 1 and an integer, not {rounds!r}")

    def done(p: int, note: str = "") -> None:
        _progress(progress, f"[{pair[0]} x {pair[1]}] {run.tag} {p}/{rounds} done{note}")

    try:
        records, period = _step_blocks(run, rounds, done)
    except _Failure as exc:
        (p, steps), minimal, divides, verified = exc.at, None, False, False
        rounds, checks = p, [CheckResult(exc.check, False, exc.detail)]
        vertex = None if exc.vertex is None else run.labels[exc.vertex]
        counterexample = {
            "round": p,
            "step": steps,
            "vertex": repr(vertex),
            "check": exc.check,
            "detail": exc.detail,
        }
    else:
        positions = [j for j, block in enumerate(run.blocks, 1) if block]
        back = []  # per round end, whether each tracked seed is exactly back
        for p, (twists, note) in enumerate(_round_ends(records, period, positions, rounds), 1):
            back.append([t is not None and is_identity(t) for t in twists])
            if note:
                done(p, note)
        minimal, at_minimal = next(((p, ok) for p, ok in enumerate(back, 1) if ok[0]), (None, []))
        divides = minimal is not None and bound % minimal == 0
        # below the bound only a seed that is not back is named
        if rounds >= bound:
            returned, detail = back[bound - 1], f"round {bound}"
        else:
            returned, detail = at_minimal, f"not back at round {minimal}; round {bound} not run"
        verified = divides and all(returned)
        checks = run.checks(rounds, rounds * sum(map(len, run.blocks)), minimal) + [
            CheckResult(name, ok, detail)
            for (name, _, _), ok in zip(run.seeds(), returned)
            if name is not None and (rounds >= bound or not ok)
        ]
        counterexample = None if minimal is not None else {
            "round": rounds,
            "check": run.return_check,
            "detail": f"no return within {rounds} rounds",
        }
    return PeriodicityReport(
        pair=(str(pair[0]), str(pair[1])),
        system=system,
        period_bound=bound,
        rounds=rounds,
        minimal_period=minimal,
        divides=divides,
        verified=verified,
        checks=checks,
        counterexample=counterexample,
    )


# ---------------------------------------------------------------------------
# seed-pattern verification

class _ProductRun(_Run):
    """The restricted pattern of a triangle or square product."""

    def __init__(self, ta: DynkinType, tb: DynkinType, system: str):
        self.simply = ta.simply_laced and tb.simply_laced
        self.qa, self.qb = qa, qb = alternating_pair(ta, tb)
        if system == "boxtimes":
            self.product, blocks = triangle_product(qa, qb), mu_boxtimes_blocks(qa, qb)
        else:
            self.product, blocks = square_product(qa, qb), mu_square_blocks(qa, qb)
        self.labels = self.product.vertices
        self.blocks = tuple(tuple(map(self.product.index, block)) for block in blocks)
        self.seed0 = self.seed = Seed.initial(self.product)
        self.block_sets = [frozenset(block) for block in self.blocks if block]
        self.merged: Optional[List[frozenset]] = None

    def start(self) -> None:
        """The structural checks, made once on a round walked on the product
        matrix (see _Run for why that covers every round): no loop or
        2-cycle after any step; for simply laced pairs, every intermediate
        matrix constrained and every slice, at each block end, its factor
        mutated at that slice's vertices of the block.  Then the merged
        blocks and the orbits of the symmetries alpha x beta (see _Run),
        alpha and beta taken from the factors' graph automorphisms."""
        qa, qb, simply, n = self.qa, self.qb, self.simply, self.qb.n
        current, steps, merged = self.product.b, 0, []

        def failure(check, detail, k=None):
            return _Failure(check, detail, k, (1, steps))

        if simply:
            # each slice's matrix, advanced by its factor's mutation rule at
            # the slice's vertex of each step, and a getter of its product
            # indices: a slice of the row-major order, read off b by cut(b)
            # and its rows by map(cut, ...)
            rows = [horizontal_slice(self.product, qa, x).b for x in qb.vertices]
            cols = [vertical_slice(self.product, qb, u).b for u in qa.vertices]
            slices = [(rows, j, itemgetter(slice(j, None, n)), "horizontal", x)
                      for j, x in enumerate(qb.vertices)]
            slices += [(cols, i, itemgetter(slice(i * n, i * n + n)), "vertical", u)
                       for i, u in enumerate(qa.vertices)]
        for block in self.blocks:
            if merged and all(merged[-1][1][i][j] == 0 for i in merged[-1][0] for j in block):
                merged[-1][0].extend(block)
            elif block:
                merged.append((list(block), current))
            for k in block:
                steps += 1
                current = mutate_matrix(current, k)
                if has_loops_or_two_cycles(current):
                    raise failure("no_loops_or_two_cycles", "loop or 2-cycle appeared", k)
                if not simply:
                    continue
                if not is_constrained(current, qa, qb):
                    detail = "intermediate quiver left the constrained class"
                    raise failure("intermediate_constrained", detail, k)
                i, j = divmod(k, n)
                rows[j] = mutate_matrix(rows[j], i)
                cols[i] = mutate_matrix(cols[i], j)
            for held, w, cut, kind, label in slices if simply else ():
                if tuple(map(cut, cut(current))) != held[w]:
                    detail = f"{kind} slice through {label} is not the mutated factor"
                    raise failure("slice_law", detail)
        self.merged = [frozenset(ks) for ks, _ in merged]
        perms = (
            product_perm(a, b)
            for a in graph_automorphisms(qa.b)
            for b in graph_automorphisms(qb.b)
        )
        # the identity passes and renames nothing, so it is not tried
        group = [g for g in perms if not is_identity(g) and self.symmetric([g], 0)]
        self.renamed = orbit_renamings([ks for ks, _ in merged], group)

    def step(self, k) -> None:
        self.seed = _mutate(self.seed, k, self.renamed)

    def end_round(self) -> None:
        if self.seed.b != self.product.b:
            raise _Failure("quiver_returns_each_round", "round did not fix the quiver")

    def end_block(self, twist: Optional[Perm]) -> None:
        # in relabelled form: c is a permutation matrix P_tau and every F is
        # 1 exactly when the seed is its start relabelled by tau; this
        # implies the plain form at every round end read from this block
        seed = self.seed
        trivial = all(f.is_one() for f in seed.f) and sorted(seed.c) == sorted(self.seed0.c)
        if trivial != (twist is not None):
            raise _Failure(
                "trivial_data_iff_seed_return",
                "permuted identity tropical data and unit polynomials must come "
                "back together with a relabelled seed",
            )

    def symmetric(self, perms, s) -> bool:
        """perm carries block k + s onto block k and is alpha x beta for
        permutations alpha, beta of the factor vertices, so that it maps
        slices onto slices; at a round end (s = 0) it need only carry each
        merged block onto itself (see _Run), it fixes the product matrix
        and its symmetrizer, and alpha, beta are automorphisms of the
        factor quivers or both reverse them.  On Dynkin factors, at s = 0,
        the alpha x beta that pass are exactly those fixing the matrix and
        symmetrizer (a test tries every one); the block condition guards
        factors that are not Dynkin diagrams."""
        (perm,) = perms
        if not _rotates(perm, self.merged if s == 0 and self.merged else self.block_sets, s):
            return False
        if s == 0 and not fixes(perm, self.product.b, self.seed0.d):
            return False
        n = self.qb.n
        # alpha x beta takes (i, 0) to (alpha[i], beta[0]), (0, i') to (alpha[0], beta[i'])
        alpha = [k // n for k in perm[::n]]
        beta = [k % n for k in perm[:n]]
        return perm == product_perm(alpha, beta) and (
            s != 0
            or any(
                all(fixes(g, q.b, sign=sign) for q, g in ((self.qa, alpha), (self.qb, beta)))
                for sign in (1, -1)
            )
        )

    def seeds(self):
        return (("seed_return_at_coxeter_bound", self.seed, self.seed0),)

    def checks(self, rounds, steps, minimal):
        checks = [
            CheckResult("quiver_returns_each_round", True, f"{rounds} rounds"),
            CheckResult("no_loops_or_two_cycles", True, f"{steps} mutation steps"),
            CheckResult("sign_coherent_c_vectors", True, f"{steps} mutation steps"),
            CheckResult("trivial_data_iff_seed_return", True, "checked at every round boundary"),
        ]
        if self.simply:
            checks.insert(1, CheckResult("intermediate_constrained", True, f"{steps} steps"))
            checks.append(
                CheckResult("slice_law", True, f"{len(self.blocks) * rounds} block boundaries")
            )
        return checks


def verify_periodicity(
    ta: DynkinType,
    tb: DynkinType,
    system: str = "boxtimes",
    max_rounds: Optional[int] = None,
    progress=None,
) -> PeriodicityReport:
    """Run the restricted pattern of the product of alternating quivers
    round by round and certify exact seed return.

    For simply laced pairs every intermediate quiver is checked to be
    product-constrained with intact slices; multiply laced pairs run the
    valued pattern with the structural checks that make sense there.
    """
    if system not in ("boxtimes", "square"):
        raise InputError(f"unknown seed system {system!r}")
    bound = dynkin.coxeter_number(ta) + dynkin.coxeter_number(tb)
    run = _ProductRun(ta, tb, system)
    return _drive(run, (ta, tb), system, bound, max_rounds, progress)


# ---------------------------------------------------------------------------
# direct-system verification

def verify_direct_ysystem(
    ta: DynkinType,
    tb: DynkinType,
    trials: int = 5,
    rng_seed: int = 0,
    progress=None,
) -> PeriodicityReport:
    """Iterate the recurrence from random positive rational slices and
    certify exact return after twice the Coxeter number sum."""
    if not (ta.simply_laced and tb.simply_laced):
        raise InputError("direct verification runs on simply laced pairs; fold first")
    if not is_int(trials) or trials < 1:
        raise InputError(f"need at least one trial, as an integer, not {trials!r}")
    if not is_int(rng_seed):
        raise InputError(f"the random seed must be an integer, not {rng_seed!r}")
    bound = 2 * (dynkin.coxeter_number(ta) + dynkin.coxeter_number(tb))
    rng = random.Random(rng_seed)
    n = ta.rank * tb.rank
    minimal_lcm = 1
    counterexample = None
    for trial in range(trials):
        prev = RationalPoint.random(n, rng)
        curr = RationalPoint.random(n, rng)
        state = initial_state(ta, tb, prev, curr)
        start = (state.prev, state.curr)
        minimal = None
        for m in range(1, bound + 1):
            state = y_system_step(state)
            if (state.prev, state.curr) == start and minimal is None:
                minimal = m
        if minimal is None or (state.prev, state.curr) != start:
            counterexample = {
                "trial": trial,
                "check": "exact_return",
                "detail": f"no return within {bound} steps",
                "start_prev": [str(v) for v in start[0]],
                "start_curr": [str(v) for v in start[1]],
            }
            break
        minimal_lcm = math.lcm(minimal_lcm, minimal)
        _progress(progress, f"[{ta} x {tb}] direct trial {trial + 1}/{trials} ok")
    ok = counterexample is None
    return PeriodicityReport(
        pair=(str(ta), str(tb)),
        system="direct",
        period_bound=bound,
        rounds=bound,
        minimal_period=minimal_lcm if ok else None,
        divides=ok and bound % minimal_lcm == 0,
        verified=ok,
        checks=[
            CheckResult(
                "exact_return_after_double_bound",
                ok,
                f"{trials} random positive rational starts",
            )
        ],
        counterexample=counterexample,
        rng_seed=rng_seed,
        trials=trials,
    )


# ---------------------------------------------------------------------------
# folding verification

class _FoldRun(_Run):
    """The lifted simply laced pattern and the valued pattern side by side,
    one orbit of lifted vertices per valued vertex."""

    tag = "fold round"
    return_check = "valued_seed_return"

    def __init__(self, la: Lift, lb: Lift, ta: DynkinType, tb: DynkinType, bound: int):
        self.bound = bound
        self.lifted_bound = (
            dynkin.coxeter_number(la.lifted_type) + dynkin.coxeter_number(lb.lifted_type)
        )
        self.lifted = triangle_product(la.quiver, lb.quiver)
        self.action = product_action(la.action, lb.action, self.lifted)
        va, vb = alternating_valued_quiver(ta), alternating_valued_quiver(tb)
        self.valued = triangle_product(va, vb)
        self.labels = self.valued.vertices
        self.blocks = tuple(tuple(map(self.valued.index, vs)) for vs in mu_boxtimes_blocks(va, vb))

        # lifted product index -> valued product index
        self.proj = [
            self.valued.index((la.to_base[u], lb.to_base[x])) for (u, x) in self.lifted.vertices
        ]
        self.members = {
            j: tuple(i for i in range(self.lifted.n) if self.proj[i] == j)
            for j in range(self.valued.n)
        }
        self.vseed0 = self.vseed = Seed.initial(self.valued)
        self.lseed0 = self.lseed = Seed.initial(self.lifted)
        self.block_sets = [frozenset(block) for block in self.blocks if block]
        self.lifted_block_sets = [
            frozenset(i for j in block for i in self.members[j]) for block in self.block_sets
        ]

    def start(self) -> None:
        """The lift's Coxeter numbers, then admissibility on a round walked on
        the lifted product matrix (see _Run): after each orbit mutation every
        generator of the action fixes the matrix and the orbit quiver, its
        orbits the fibres of proj, has no loop or 2-cycle.  Then the orbits
        of the lifted action's group (see _Run)."""
        if self.lifted_bound != self.bound:
            raise _Failure(
                "coxeter_numbers_match_lift",
                f"lift bound {self.lifted_bound} != folded bound {self.bound}",
            )
        current, steps = self.lifted.b, 0
        for block in self.blocks:
            for j in block:
                steps += 1
                for i in self.members[j]:
                    current = mutate_matrix(current, i)
                if not all(fixes(g, current) for g in self.action.generators):
                    detail = "group stopped acting by automorphisms"
                elif is_admissible(current, self.proj):
                    continue
                else:
                    label = self.labels[j]
                    detail = f"orbit quiver gained a loop or 2-cycle after mutating {label!r}"
                raise _Failure("lifted_action_admissible", detail, j, (1, steps))
        fixed = tuple(range(self.valued.n))
        group = [g for g in self.action.group() if self.symmetric((fixed, g), 0)]
        # each orbit lies in one block and is mutated in members order
        self.renamed = orbit_renamings(self.members.values(), group)

    def step(self, j) -> None:
        self.vseed = self.vseed.mutate(j)
        for i in self.members[j]:
            self.lseed = _mutate(self.lseed, i, self.renamed)

    def end_round(self) -> None:
        lseed, vseed, proj = self.lseed, self.vseed, self.proj
        if lseed.b != self.lifted.b:
            raise _Failure("lifted_action_admissible", "round did not fix the lifted quiver")
        nl, nv = self.lifted.n, self.valued.n
        # identification of the two patterns, vertex by vertex
        for i in range(nl):
            j = proj[i]
            if project_exponents(lseed.c[i], proj, nv) != vseed.c[j]:
                raise _Failure(
                    "projection_matches_valued",
                    f"tropical data at {self.lifted.vertices[i]!r} projects wrong",
                )
            if project_polynomial(lseed.f[i], proj, nv) != vseed.f[j]:
                raise _Failure(
                    "projection_matches_valued",
                    f"polynomial at {self.lifted.vertices[i]!r} projects wrong",
                )
        # folding the lifted matrix must reproduce the valued matrix
        for j in range(nv):
            rep = self.members[j][0]
            for jj in range(nv):
                total = sum(lseed.b[i][rep] for i in self.members[jj])
                if total != vseed.b[jj][j]:
                    raise _Failure(
                        "folded_matrix_matches",
                        f"entry ({jj},{j}) folds to {total}, valued run has {vseed.b[jj][j]}",
                    )

    def symmetric(self, perms, s) -> bool:
        """Only at a round end (s = 0), where the projection is checked.
        Each permutation fixes its pattern's initial matrix, symmetrizer
        and blocks; the lifted one commutes with every generator of the
        action and both commute with the projection, pi_v o proj =
        proj o pi_l, so that they keep the identification of the patterns."""
        pv, pl = perms
        nl = self.lifted.n
        return (
            s == 0
            and fixes(pv, self.valued.b, self.vseed0.d)
            and _rotates(pv, self.block_sets)
            and fixes(pl, self.lifted.b, self.lseed0.d)
            and _rotates(pl, self.lifted_block_sets)
            and all(compose(pl, g) == compose(g, pl) for g in self.action.generators)
            and all(pv[self.proj[i]] == self.proj[pl[i]] for i in range(nl))
        )

    def seeds(self):
        return (
            (None, self.vseed, self.vseed0),
            ("lifted_seed_return", self.lseed, self.lseed0),
        )

    def checks(self, rounds, steps, minimal):
        return [
            CheckResult("coxeter_numbers_match_lift", True, f"h sum {self.bound}"),
            CheckResult("lifted_action_admissible", True, f"{steps} orbit mutations"),
            CheckResult("projection_matches_valued", True, f"{rounds} rounds"),
            CheckResult("folded_matrix_matches", True, f"{rounds} rounds"),
            CheckResult("valued_seed_return", minimal is not None, f"minimal period {minimal}"),
        ]


def verify_folding(
    ta: DynkinType,
    tb: DynkinType,
    max_rounds: Optional[int] = None,
    progress=None,
) -> PeriodicityReport:
    """Run the lifted simply laced pattern and the valued pattern side by
    side: the action must stay admissible on a round walked on the lifted
    product matrix, every round must return the lifted matrix, variable
    identification must match the two patterns at every round, and the
    valued seed must return within the Coxeter number sum.  A simply laced
    pair is its own cover, folded by the trivial group."""
    la, lb = lift_dynkin(ta), lift_dynkin(tb)
    bound = dynkin.coxeter_number(ta) + dynkin.coxeter_number(tb)
    run = _FoldRun(la, lb, ta, tb, bound)
    return _drive(run, (ta, tb), "fold", bound, max_rounds, progress)
