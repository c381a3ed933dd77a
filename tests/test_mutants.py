"""The mutant list stays applicable: each replacement matches its file
exactly once and each test it names exists.  Running the mutants is
tests/mutants.py's job; here only its time budget and memory cap are
checked, on stand-ins for the pytest run."""

import ast
import subprocess
import sys

import mutants
from mutants import BUDGET_S, MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


def test_each_replacement_matches_once_under_src():
    for m in MUTANTS:
        assert m.path.startswith("src/") and m.old != m.new, m.name
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name


def test_each_named_test_exists():
    for m in MUTANTS:
        assert m.killed_by, m.name
        for test_id in m.killed_by:
            path, _, name = test_id.partition("::")
            tree = ast.parse((ROOT / path).read_text())
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            function, bracket, _ = name.partition("[")  # a parametrized case
            assert function.startswith("test_") and function in defined, test_id
            assert not bracket or name.endswith("]"), test_id


def test_a_run_over_the_budget_is_not_a_kill(monkeypatch, capsys):
    # the stand-in raises as subprocess.run does when the budget runs out
    def over_budget(args, **kwargs):
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(mutants.subprocess, "run", over_budget)
    mutant = MUTANTS[0]
    assert mutants.main([mutant.name]) == 1
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row == [mutant.name, f"-/{len(mutant.killed_by)}",
                   "TIMED", "OUT", "after", str(BUDGET_S), "s"]


def test_a_run_over_the_memory_cap_is_not_a_kill(monkeypatch, capsys):
    # a real child under a 64 MB cap that allocates 128 MB in place of the
    # pytest run: it fails with MemoryError, which the runner reports as
    # out of memory, not as the kill a failing test would be
    run = subprocess.run

    def allocating(args, **kwargs):
        return run([sys.executable, "-c", "bytearray(128 << 20)"], **kwargs)

    monkeypatch.setattr(mutants, "MEMORY_CAP_BYTES", 64 << 20)
    monkeypatch.setattr(mutants.subprocess, "run", allocating)
    mutant = MUTANTS[0]
    assert mutants.main([mutant.name]) == 1
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row == [mutant.name, f"-/{len(mutant.killed_by)}",
                   "OUT", "OF", "MEMORY", "over", "64", "MB"]
