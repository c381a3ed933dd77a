"""Tests of the benchmark itself: verdict checking, the layer wrappers and
the self-time arithmetic.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from yperiod import cli  # noqa: E402
from yperiod.algebra import Polynomial  # noqa: E402
from yperiod.dynkin import DynkinType  # noqa: E402
from yperiod.folding import GroupAction  # noqa: E402
from yperiod.quiver import Quiver, ValuedQuiver, alternating_quiver  # noqa: E402
from yperiod.seed import Seed  # noqa: E402
from yperiod.ysystem import verify_periodicity  # noqa: E402

A2XA1 = workloads.Certificate(("A2", "A1"), "boxtimes", 5)


def _cli_output(cert):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(cert.argv())
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# expected verdicts

def test_expected_verdict_passes():
    code, stdout = _cli_output(A2XA1)
    assert workloads.check_verdict(A2XA1, code, stdout) is None


def test_tampered_minimal_period_is_a_failure():
    code, stdout = _cli_output(A2XA1)
    report = json.loads(stdout)
    report["minimal_period"] = 1
    problem = workloads.check_verdict(A2XA1, code, json.dumps(report))
    assert problem is not None and "minimal_period" in problem


@pytest.mark.parametrize("key,value", [("verified", False), ("period_bound", 6),
                                       ("divides", False)])
def test_tampered_fields_are_failures(key, value):
    code, stdout = _cli_output(A2XA1)
    report = json.loads(stdout)
    report[key] = value
    assert workloads.check_verdict(A2XA1, code, json.dumps(report)) is not None


def test_nonzero_exit_is_a_failure():
    code, stdout = _cli_output(A2XA1)
    assert workloads.check_verdict(A2XA1, 1, stdout) is not None


class _TamperingCli:
    """Stands in for yperiod.cli: prints a wrong minimal period, or raises."""

    def __init__(self, raise_error=False):
        self.raise_error = raise_error

    def main(self, argv):
        if self.raise_error:
            raise RuntimeError("engine crashed")
        code = cli.main(argv)
        report = json.loads(sys.stdout.getvalue())
        report["minimal_period"] += 1
        sys.stdout.seek(0)
        sys.stdout.truncate()
        print(json.dumps(report))
        return code


@pytest.mark.parametrize("raise_error", [False, True])
def test_run_cycle_counts_tampered_and_crashed_verdicts(raise_error):
    cycle = run.run_cycle(_TamperingCli(raise_error), [A2XA1, A2XA1])
    assert len(cycle.verdicts) == 2
    assert all(v.problem is not None for v in cycle.verdicts)
    good = run.run_cycle(cli, [A2XA1])
    assert [v.problem for v in good.verdicts] == [None]


def test_period_bounds_come_from_the_table():
    assert workloads.period_bound(("E7", "A1"), "boxtimes") == 20
    assert workloads.period_bound(("D6", "A2"), "boxtimes") == 13
    assert workloads.period_bound(("E8", "E6"), "direct") == 84
    assert workloads.period_bound(("F4", "A1"), "fold") == 14
    assert workloads.period_bound(("B2", "B2"), "fold") == 8
    assert workloads.period_bound(("G2", "C3"), "square") == 12


def test_cycles_are_reproducible_and_small_batch_is_large_enough():
    import random

    for w in workloads.WORKLOADS.values():
        a = w.cycle(random.Random(7))
        assert a == w.cycle(random.Random(7))
    assert len(workloads.WORKLOADS["small-batch"].cycle(random.Random(0))) >= 200


# ---------------------------------------------------------------------------
# wrappers

def test_wrappers_preserve_isinstance_and_results_and_uninstall():
    originals = {(o, a): spans._resolve(o).__dict__[a] for o, a, _, _ in spans.SITES}
    qa = alternating_quiver(DynkinType("A", 2))
    expected = verify_periodicity(DynkinType("A", 2), DynkinType("A", 1))
    p = Polynomial.parse(2, "1 + y1 + y2")
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        q = Quiver(qa.vertices, qa.b)
        assert type(q) is Quiver and isinstance(q, Quiver)
        assert isinstance(ValuedQuiver((1,), ((0,),), (1,)), ValuedQuiver)
        assert isinstance(GroupAction(q, ()), GroupAction)
        assert isinstance(Seed.initial(q), Seed)
        assert DynkinType.parse("E7") == DynkinType("E", 7)
        assert p * p == Polynomial.parse(2, "1 + 2 y1 + 2 y2 + y1^2 + 2 y1 y2 + y2^2")
        assert (p * p).exact_div(p) == p
        assert sorted(p.items()) == [((0, 0), 1), ((0, 1), 1), ((1, 0), 1)]
        traced = verify_periodicity(DynkinType("A", 2), DynkinType("A", 1))
        assert traced == expected
        code, stdout = _cli_output(A2XA1)
        assert workloads.check_verdict(A2XA1, code, stdout) is None
    finally:
        spans.uninstall(patches)
    assert {(o, a): spans._resolve(o).__dict__[a] for o, a, _, _ in spans.SITES} == originals
    for name in ("cli", "ysystem.verify", "seed.mutate", "algebra.mul", "algebra.div",
                 "quiver.construct", "quiver.is_constrained", "quiver.slices",
                 "quiver.mutate_matrix", "folding.group_action", "dynkin"):
        assert tracer.calls[name] > 0, name
    assert tracer.sums["algebra.mul.term_products"] > 0
    assert tracer.maxima["algebra.f_terms_max"] >= 1


# ---------------------------------------------------------------------------
# self-time arithmetic

class _Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_times_on_a_synthetic_nest():
    clock = _Clock()
    tr = spans.Tracer(clock)

    def leaf():
        clock.now += 5
        return "leaf"

    def mid():
        clock.now += 2
        assert tr.call("leaf", leaf, (), {}) == "leaf"
        clock.now += 3
        assert tr.call("leaf", leaf, (), {}) == "leaf"
        return "mid"

    def count(tracer, result, args):
        clock.now += 7  # bookkeeping, charged to no layer

    def failing():
        clock.now += 11
        raise ValueError("inside a span")

    tr.start()
    clock.now += 1
    assert tr.call("mid", mid, (), {}, count) == "mid"
    with pytest.raises(ValueError):
        tr.call("fail", failing, (), {})
    clock.now += 4
    tr.stop()

    assert dict(tr.self_ns) == {"leaf": 10, "mid": 5, "fail": 11}
    assert dict(tr.calls) == {"leaf": 2, "mid": 1, "fail": 1}
    assert tr.bookkeeping_ns == 7
    assert tr.root_self_ns == 5
    assert tr.wall_ns == 1 + 15 + 7 + 11 + 4
    assert tr.root_self_ns + sum(tr.self_ns.values()) + tr.bookkeeping_ns == tr.wall_ns
    assert dict(tr.layer_self_ns()) == {"leaf": 10, "mid": 5, "fail": 11}


def test_recursive_spans_of_one_name_do_not_double_count():
    clock = _Clock()
    tr = spans.Tracer(clock)

    def rec(depth):
        clock.now += 1
        if depth:
            tr.call("algebra.mul", rec, (depth - 1,), {})
        clock.now += 1

    tr.start()
    tr.call("algebra.mul", rec, (3,), {})
    tr.stop()
    assert tr.self_ns["algebra.mul"] == 8 == tr.wall_ns
    assert tr.calls["algebra.mul"] == 4
    assert tr.layer_self_ns() == {"algebra": 8}


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert run.percentile(values, 95) == 190
    assert run.percentile(values, 50) == 100
    assert run.percentile([3.0], 95) == 3.0


def test_each_verdict_gets_the_calibrations_around_its_block(monkeypatch):
    import time

    cals = iter([1.0, 3.0, 5.0, 7.0, 9.0, 11.0])

    def calibrate():
        time.sleep(0.05)
        return next(cals)

    cycle = run.run_cycle(cli, [A2XA1] * 3, calibrate=calibrate)
    assert [v.cal for v in cycle.verdicts] == [2.0, 2.0, 2.0]  # one block
    monkeypatch.setattr(run, "CAL_EVERY_S", 0.0)  # a block per verdict
    cycle = run.run_cycle(cli, [A2XA1] * 3, calibrate=calibrate)
    assert [v.cal for v in cycle.verdicts] == [6.0, 8.0, 10.0]
    assert [v.problem for v in cycle.verdicts] == [None] * 3
    # the wall leaves the three calibrations between verdicts out
    assert cycle.wall - sum(v.seconds for v in cycle.verdicts) < 0.05
    assert run.run_cycle(cli, [A2XA1]).verdicts[0].cal is None


# ---------------------------------------------------------------------------
# BENCHMARK.json names exactly what the benchmark prints

def test_benchmark_json_matches_the_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(run.CALIBRATION) == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    tr = spans.Tracer()
    tr.start()
    tr.stop()
    emitted = run.layer_metrics(tr, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(emitted)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert units == {k: v["unit"] for k, v in emitted.items()}


def test_traced_cycle_adds_up_to_its_wall():
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        cycle = run.run_cycle(cli, [A2XA1, A2XA1], tracer)
    finally:
        spans.uninstall(patches)
    total = (tracer.root_self_ns + sum(tracer.self_ns.values()) + tracer.bookkeeping_ns) / 1e9
    assert [v.problem for v in cycle.verdicts] == [None, None]
    assert tracer.calls["cli"] == 2
    assert 0 <= cycle.wall - total <= run.WALL_TOLERANCE_S + run.WALL_TOLERANCE_FRAC * cycle.wall
