"""Named mutants of the package source, and a runner that shows which of
them the tests kill.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

A mutant is one exact text replacement in one file under src/, plus the
ids of the tests that must fail once it is applied.  For each mutant the
runner copies src/, tests/ and pyproject.toml into a temporary
directory, applies the replacement there, runs the mutant's tests with
pytest and prints one line of a kill table: the mutant, how many of its
tests failed, and KILLED when every one did.  A mutant can make a test
run without end or grow without bound, so each pytest run has BUDGET_S
seconds and MEMORY_CAP_BYTES of address space (RLIMIT_AS, set in the
child before pytest starts).  A run that takes longer is stopped and
reported as TIMED OUT; one that hits the cap fails to allocate and is
reported as OUT OF MEMORY; neither counts as killed, whatever its tests
did.  The working tree is never changed.  Exits 1 when a mutant survives
(some test of it passed, or its run timed out or ran out of memory), 2 on
an unknown name or a replacement that does not match exactly once.

tests/test_mutants.py checks, in the suite, that every replacement still
matches exactly once and that every named test exists; running the
mutants is left to this script.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent
# seconds one mutant's pytest run may take; the named tests of every
# mutant below fail within a few seconds
BUDGET_S = 120
# bytes of address space one mutant's pytest run may map; the suite's
# largest runs stay far below it
MEMORY_CAP_BYTES = 2 << 30


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root, under src/
    old: str  # matched exactly once
    new: str
    killed_by: Tuple[str, ...]  # pytest ids, tests/<file>.py::<test>


MUTANTS = (
    Mutant(
        "fold-walk-without-generator-test",
        "src/yperiod/ysystem.py",
        "if not all(fixes(g, current) for g in self.action.generators):",
        "if False:",
        (
            "tests/test_ysystem.py::test_fold_walk_catches_a_fault_in_the_walked_matrix",
            "tests/test_ysystem.py::test_fold_structural_failure_reports_where_it_happened",
        ),
    ),
    Mutant(
        "admissible-without-two-cycles",
        "src/yperiod/folding.py",
        "return all(a != c and (c, a) not in arrows for a, c in arrows)",
        "return all(a != c for a, c in arrows)",
        ("tests/test_folding.py::test_hexagon_with_chords_is_not_admissible",),
    ),
    Mutant(
        "fold-walk-identity-orbit-map",
        "src/yperiod/ysystem.py",
        "elif is_admissible(current, self.proj):",
        "elif is_admissible(current, range(self.lifted.n)):",
        ("tests/test_ysystem.py::test_fold_walk_catches_a_fault_in_the_walked_matrix",),
    ),
    Mutant(
        "c-vector-rule-without-positive-part",
        "src/yperiod/seed.py",
        "one_plus_inv = [-e if e > 0 else 0 for e in ck]",
        "one_plus_inv = [-e for e in ck]",
        (
            "tests/test_ysystem.py::test_square_c_vectors_are_root_pairs",
            "tests/test_ysystem.py::test_square_round_end_c_vectors_are_factor_c_vector_pairs"
            "[B2 A2]",
        ),
    ),
    Mutant(
        "direct-step-minus-side-on-denominators",
        "src/yperiod/direct.py",
        "num *= ps[k] ** e",
        "num *= qs[k] ** e",
        (
            "tests/test_ysystem.py::test_direct_step_is_the_square_pattern_at_half_rounds",
            "tests/test_ysystem.py::test_step_matches_the_fraction_oracle",
        ),
    ),
    Mutant(
        "g-vector-without-first-neighbour",
        "src/yperiod/seed.py",
        "for i in neighbours:",
        "for i in neighbours[1:]:",
        (
            "tests/test_seed.py::test_forward_g_vectors_match_replay_on_random_walks",
            "tests/test_ysystem.py::test_forward_g_vectors_match_replay_on_acceptance_runs",
        ),
    ),
    Mutant(
        "exchange-negative-part-sign",
        "src/yperiod/seed.py",
        "[-e if e < 0 else 0 for e in ck],",
        "[e if e < 0 else 0 for e in ck],",
        (
            "tests/test_seed.py::test_reconstruction_oracle_random_sequences",
            "tests/test_ysystem.py::test_exchange_matches_expansion_on_acceptance_runs",
        ),
    ),
    Mutant(
        "exchange-power-zero-factor-kept",
        "src/yperiod/algebra.py",
        "chain += [_stripped(pack(f.terms.items()))] * a",
        "chain += [_stripped(pack(f.terms.items()))] * max(a, 1)",
        ("tests/test_algebra.py::test_exchange_matches_expansion_on_zero_and_negative_groups"
         "[factor-group-packs-to-zero]",),
    ),
    Mutant(
        "exchange-last-product-without-monomial-shift",
        "src/yperiod/algebra.py",
        "(xa * xb << zb + shift)",
        "(xa * xb << zb)",
        (
            "tests/test_algebra.py::test_exchange_matches_expansion_across_packed_groups",
            "tests/test_algebra.py::test_a_narrow_pass_never_returns_a_wrong_quotient",
        ),
    ),
    Mutant(
        "dense-walk-without-remainder-check",
        "src/yperiod/algebra.py",
        "    if any(dense):\n        raise",
        "    if False:\n        raise",
        ("tests/test_algebra.py::test_a_remainder_beyond_the_top_key_raises[dense]",),
    ),
    Mutant(
        "dense-walk-stops-short-of-top",
        "src/yperiod/algebra.py",
        "for g in range(top + 1):",
        "for g in range(top):",
        (
            "tests/test_algebra.py::test_a_narrow_pass_never_returns_a_wrong_quotient",
            "tests/test_algebra.py::"
            "test_exchange_divides_on_a_dense_row_exactly_when_the_box_is_full_enough",
        ),
    ),
    Mutant(
        "grouped-exchange-without-slot-past-volume-mark",
        "src/yperiod/algebra.py",
        "# s is now the group's top slot\n        if outside or s >= volume:",
        "# s is now the group's top slot\n        if outside:",
        (
            "tests/test_algebra.py::"
            "test_a_grouped_pass_refuses_a_quotient_slot_past_its_volume[dense]",
            "tests/test_algebra.py::"
            "test_a_grouped_pass_refuses_a_quotient_slot_past_its_volume[heap]",
        ),
    ),
    Mutant(
        "lift-without-orbit-check",
        "src/yperiod/folding.py",
        "if sorted(tuple(image) for image in images) != [(v,) for v in t.vertices]:",
        "if False:",
        tuple(f"tests/test_folding.py::test_cover_map_must_be_constant_and_one_to_one_on_orbits"
              f"[to_base{i}]" for i in range(4)),
    ),
    Mutant(
        "permutation-without-int-test",
        "src/yperiod/errors.py",
        "return ints and sorted(perm) == list(range(n))",
        "return sorted(perm) == list(range(n))",
        (
            "tests/test_algebra.py::test_rename_needs_a_permutation",
            "tests/test_folding.py::test_generator_must_be_a_permutation_in_ints",
            "tests/test_seed.py::test_relabel_refuses_a_non_permutation",
        ),
    ),
    Mutant(
        "exchange-without-inner-mark",
        "src/yperiod/algebra.py",
        "                    outside = True",
        "                    pass",
        (
            "tests/test_algebra.py::"
            "test_exchange_quotient_slot_carrying_into_the_next_variable_raises",
            "tests/test_algebra.py::"
            "test_exchange_quotient_leaving_the_box_in_a_later_group_raises[inner]",
        ),
    ),
    Mutant(
        "one-int-exchange-without-remainder-check",
        "src/yperiod/algebra.py",
        'raise DivisibilityError("remainder in the packed numerator")',
        "pass",
        ("tests/test_algebra.py::test_exchange_refuses_a_nonzero_packed_remainder",),
    ),
    Mutant(
        "one-int-exchange-without-slot-past-volume-mark",
        "src/yperiod/algebra.py",
        "# s is now the top slot\n    if outside or s >= volume:",
        "# s is now the top slot\n    if outside:",
        ("tests/test_algebra.py::test_a_one_int_pass_refuses_a_quotient_slot_past_its_volume",),
    ),
    Mutant(
        "one-int-exchange-mark-before-restart-check",
        "src/yperiod/algebra.py",
        "    if qmax * divisor.norms()[0] >= (1 << width - 1) - sup:\n"
        "        return None\n"
        "    # s is now the top slot\n"
        "    if outside or s >= volume:\n"
        '        raise DivisibilityError("quotient term outside the box")\n',
        "    if outside or s >= volume:\n"
        '        raise DivisibilityError("quotient term outside the box")\n'
        "    if qmax * divisor.norms()[0] >= (1 << width - 1) - sup:\n"
        "        return None\n",
        ("tests/test_algebra.py::test_a_narrow_pass_checks_its_width_before_a_mark",),
    ),
    Mutant(
        "symmetry-beta-from-the-row",
        "src/yperiod/ysystem.py",
        "beta = [k % n for k in perm[:n]]",
        "beta = [k // n for k in perm[:n]]",
        ("tests/test_ysystem.py::"
         "test_group_filter_block_condition_follows_from_the_matrix_on_dynkin_pairs",),
    ),
    Mutant(
        "counterexample-names-the-first-label",
        "src/yperiod/ysystem.py",
        "else run.labels[exc.vertex]",
        "else run.labels[0]",
        (
            "tests/test_ysystem.py::test_broken_seed_invariant_names_the_product_vertex",
            "tests/test_ysystem.py::test_structural_failure_reports_where_it_happened",
        ),
    ),
    Mutant(
        "product-perm-factors-swapped",
        "src/yperiod/seed.py",
        "return tuple(a * n + b for a in alpha for b in beta)",
        "return tuple(b * n + a for a in alpha for b in beta)",
        (
            "tests/test_folding.py::test_product_action_acts_coordinatewise[B2 B2]",
            "tests/test_folding.py::test_product_action_acts_coordinatewise[A3 A2]",
            "tests/test_ysystem.py::"
            "test_group_filter_block_condition_follows_from_the_matrix_on_dynkin_pairs",
        ),
    ),
    Mutant(
        "relabelling-of-a-non-permutation",
        "src/yperiod/seed.py",
        "if None in perm or sorted(perm) != list(range(other.n)):",
        "if None in perm:",
        ("tests/test_seed.py::test_relabelling_of_a_seed_with_repeated_c_vectors_is_none",),
    ),
    Mutant(
        "set-up-drops-a-block-vertex",
        "src/yperiod/ysystem.py",
        "for x, sx in sb if sx == t)",
        "for x, sx in sb[1:] if sx == t)",
        (
            "tests/test_run_setup.py::"
            "test_product_run_set_up_matches_the_validated_constructors[boxtimes]",
            "tests/test_run_setup.py::"
            "test_product_run_set_up_matches_the_validated_constructors[square]",
            "tests/test_run_setup.py::test_fold_run_set_up_matches_the_validated_constructors",
        ),
    ),
    Mutant(
        "exchange-entry-without-constant-term-test",
        "src/yperiod/algebra.py",
        "if divisor.terms.get((0,) * n) not in (1, -1):",
        "if False:",
        (
            "tests/test_seed.py::test_mutate_refuses_a_divisor_without_unit_constant_term",
            "tests/test_algebra.py::test_exchange_checks_its_arguments",
        ),
    ),
    Mutant(
        "snapshot-without-matrix-check",
        "src/yperiod/seed.py",
        "ValuedQuiver(tuple(range(n)), b, d)",
        "None",
        (
            "tests/test_seed.py::test_seed_json_checks_sizes",
            "tests/test_seed.py::test_seed_json_refuses_matrices_no_quiver_has",
            "tests/test_quiver.py::"
            "test_valued_quiver_accepts_exactly_the_snapshots_of_its_initial_seed",
        ),
    ),
    Mutant(
        "fold-round-end-without-f-projection-check",
        "src/yperiod/ysystem.py",
        "if project_polynomial(lseed.f[i], proj, nv) != vseed.f[j]:",
        "if False:",
        ("tests/test_ysystem.py::"
         "test_fold_round_end_failure_reports_where_it_happened[f-polynomial]",),
    ),
    Mutant(
        "quiver-rule-one-sided-symmetrizer",
        "src/yperiod/quiver.py",
        "[-dj * y for dj, y in zip(d, col)]",
        "[-di * y for dj, y in zip(d, col)]",
        (
            "tests/test_seed.py::test_initial_valued_seed_carries_symmetrizer",
            "tests/test_run_setup.py::"
            "test_product_run_set_up_matches_the_validated_constructors[square]",
            "tests/test_run_setup.py::test_fold_run_set_up_matches_the_validated_constructors",
            "tests/test_quiver.py::test_mutate_matrix_matches_the_full_rule",
            "tests/test_quiver.py::test_valued_square_mutation_matches_display",
            "tests/test_quiver.py::test_valued_mutation_involution",
            "tests/test_quiver.py::test_derived_quivers_pass_the_validating_constructor",
            "tests/test_quiver.py::test_full_subquiver_refuses_a_repeated_label",
            "tests/test_quiver.py::"
            "test_valued_quiver_accepts_exactly_the_snapshots_of_its_initial_seed",
            "tests/test_quiver.py::"
            "test_products_carry_the_row_major_product_of_the_factor_symmetrizers",
            "tests/test_quiver.py::test_alternating_valued_quiver_b2",
            "tests/test_quiver.py::test_json_round_trip_valued",
            "tests/test_folding.py::test_a3_end_swap_folds_to_b2",
            "tests/test_folding.py::test_d4_rotation_folds_to_g2",
            "tests/test_folding.py::test_orbit_stabilizers",
            "tests/test_folding.py::test_lift_table[B2-A3]",
            "tests/test_folding.py::test_every_cover_in_the_table_folds_back_onto_its_base",
            "tests/test_folding.py::test_product_action_orbits",
            "tests/test_folding.py::test_product_action_acts_coordinatewise[B2 B2]",
        ),
    ),
    Mutant(
        "below-bound-verdict-reads-the-first-seed-only",
        "src/yperiod/ysystem.py",
        "returned, detail = at_minimal, ",
        "returned, detail = at_minimal[:1], ",
        (
            "tests/test_ysystem.py::test_fold_past_the_bound_checks_lifted_return",
            "tests/test_ysystem.py::"
            "test_fold_below_the_bound_needs_the_lifted_seed_back[B2 A1-3-False]",
            "tests/test_ysystem.py::"
            "test_fold_below_the_bound_needs_the_lifted_seed_back[F4 A1-7-False]",
        ),
    ),
    Mutant(
        "fast-forward-one-power-too-many",
        "src/yperiod/ysystem.py",
        "powers = [power(pi, m) for pi in records[period - 1]]",
        "powers = [power(pi, m + 1) for pi in records[period - 1]]",
        (
            "tests/test_ysystem.py::test_round_ends_fast_forward_a_symmetry_of_order_three",
            "tests/test_ysystem.py::"
            "test_round_ends_past_a_period_found_mid_round_name_the_block",
            "tests/test_ysystem.py::test_round_ends_of_a_return_below_the_bound",
            "tests/test_ysystem.py::test_fast_forward_composes_the_symmetry_over_later_rounds",
            "tests/test_ysystem.py::test_fold_waits_for_the_lifted_seed",
        ),
    ),
    Mutant(
        "fold-guard-counts-the-valued-product",
        "src/yperiod/cli.py",
        "lift_dynkin(t).lifted_type.rank if fold else t.rank",
        "t.rank",
        ("tests/test_cli.py::test_verify_fold_big_guard_counts_the_lifted_product",),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Make the mutant's replacement in the tree at root."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the text to replace does not occur exactly once")
    path.write_text(text.replace(mutant.old, mutant.new))


def _cap_memory() -> None:
    """Run in the child before pytest starts: cap its address space."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def failed_tests(mutant: Mutant) -> Union[List[str], str]:
    """The mutant's tests that fail with it applied, in a temporary copy,
    or why the run gave no verdict: it took longer than BUDGET_S, or ran
    out of memory under MEMORY_CAP_BYTES."""
    with tempfile.TemporaryDirectory(prefix="yperiod-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                 *mutant.killed_by],
                cwd=copy, env=env, capture_output=True, text=True, timeout=BUDGET_S,
                preexec_fn=_cap_memory,
            )
        except subprocess.TimeoutExpired:
            return f"TIMED OUT after {BUDGET_S} s"
    out = run.stdout
    # a failed allocation fails whatever test made it, so it is no kill
    if "MemoryError" in out + run.stderr:
        return f"OUT OF MEMORY over {MEMORY_CAP_BYTES >> 20} MB"
    # "FAILED <id> - <message>"; a parametrized id may hold spaces
    failed = set(re.findall(r"^FAILED (.+?)(?: - .*)?$", out, re.MULTILINE))
    return [t for t in mutant.killed_by if t in failed]


def main(argv: List[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant {', '.join(unknown)}; known: {', '.join(by_name)}",
              file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] if argv else list(MUTANTS)
    width = max(len(m.name) for m in chosen)
    survived = 0
    print(f"{'mutant':<{width}}  failed  verdict")
    for mutant in chosen:
        try:
            failed = failed_tests(mutant)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if isinstance(failed, str):
            survived += 1
            count, verdict = f"-/{len(mutant.killed_by)}", failed
        else:
            killed = len(failed) == len(mutant.killed_by)
            survived += not killed
            count = f"{len(failed)}/{len(mutant.killed_by)}"
            verdict = "KILLED" if killed else "SURVIVED, passed: " + " ".join(
                t for t in mutant.killed_by if t not in failed
            )
        print(f"{mutant.name:<{width}}  {count:>6}  {verdict}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
