"""Replay every exchange of one benchmark pass against the expanding oracle.

    PYTHONPATH=src python tests/replay_exchanges.py

Runs the certificates of the deep-exchange and small-batch workloads of
``bench/workloads.py`` once each, in list order, through ``yperiod
verify``, and records every ``exchange`` call that ``Seed.mutate`` makes,
and every F that it is given instead (renamed from the first vertex of
its orbit), together with the exchange arguments that F stands for.
Direct certificates make none and are skipped.  Each recorded call is
then replayed through ``algebra.exchange`` and compared with
``expand_exchange`` from ``oracles.py``, and each renamed F is compared
with ``expand_exchange`` on its arguments.  Every ``Seed.mutate`` step is
recorded too, with the seed it started from, and its result is compared
field by field with ``mutate_seed_full`` from ``oracles.py``, the update
that recomputes every entry.  Prints four lines per workload: its call,
renamed, mismatch and restart counts (a restart is a packed pass whose
slots proved too narrow) with the kernel's own seconds over the recorded
calls, made through ``seed.exchange``, the entry ``Seed.mutate`` calls
(the median of 3 replays, oracle excluded), in total and split by
the size of the quotient (at most 3 terms, 4 to 30, more than 30); then
its calls and kernel seconds per route, one-int (the whole exponent box
in one packed int) or grouped (packed groups under outer keys), the
route of a call's last packed pass; then its step count and step mismatches with the step's bookkeeping seconds:
every recorded step replayed through ``Seed.mutate`` with its new F
given, so that no exchange runs (the median of 3 replays); then its run
set-up seconds: the construction and ``start()`` of the run of each of
its certificates, once each (the median of 3).  The seconds compare a
change before and after on the benchmark's exact calls, steps and runs;
they are wall-clock, so compare runs made on the same host one after the
other.  Exits 1 on any mismatch.

Too slow for the test suite: it takes about 40 s, most of it in the
expanding oracle on the deep-exchange calls.
"""

import contextlib
import io
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from oracles import expand_exchange, mutate_seed_full  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from yperiod import algebra, cli, dynkin, seed, ysystem  # noqa: E402
from yperiod.errors import DivisibilityError  # noqa: E402
from yperiod.folding import lift_dynkin  # noqa: E402

WORKLOAD_NAMES = ("deep-exchange", "small-batch")


def record(certificates):
    """(the argument tuples of every exchange, (arguments, F) of every
    renamed F, (seed, k, result) of every mutation step) made by verifying
    the certificates once each; raises if a verdict is not the verified
    one."""
    calls, renamed, steps = [], [], []
    kernel, mutate = seed.exchange, seed.Seed.mutate

    def recorder(*args):
        calls.append(args)
        return kernel(*args)

    def mutate_recorder(s, k, f=None):
        if f is not None:
            renamed.append((s.exchange_args(k), f))
        out = mutate(s, k, f=f)
        steps.append((s, k, out))
        return out

    seed.exchange, seed.Seed.mutate = recorder, mutate_recorder
    try:
        for cert in certificates:
            if cert.system == "direct":
                continue
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(cert.argv())
            if code != 0:
                raise RuntimeError(f"{cert.label} exited with status {code}")
    finally:
        seed.exchange, seed.Seed.mutate = kernel, mutate
    return calls, renamed, steps


def _outcome(route, args):
    try:
        return route(*args)
    except DivisibilityError:
        return DivisibilityError


def replay(calls):
    """(mismatches, restarts, quotient term counts, routes) of the kernel
    against the oracle on calls; a call's route is that of its last
    packed pass."""
    passes, sizes, routes = [], [], []
    packed, one_int = algebra._packed_exchange, algebra._one_int_exchange
    route = []

    def counting(*args):
        route.append("grouped")
        out = packed(*args)
        passes.append(out is None)
        return out

    def one_int_counting(*args):
        route[-1] = "one-int"
        return one_int(*args)

    algebra._packed_exchange, algebra._one_int_exchange = counting, one_int_counting
    try:
        mismatches = 0
        for args in calls:
            got = _outcome(algebra.exchange, args)
            mismatches += got != _outcome(expand_exchange, args)
            sizes.append(0 if got is DivisibilityError else len(got.terms))
            routes.append(route[-1])
    finally:
        algebra._packed_exchange, algebra._one_int_exchange = packed, one_int
    return mismatches, sum(passes), sizes, routes


# quotient term counts the kernel seconds are split by: (label, low, high)
SIZE_BUCKETS = (("<=3", 0, 3), ("4-30", 4, 30), (">30", 31, math.inf))


def _median_seconds(run, replays: int = 3) -> float:
    times = []
    for _ in range(replays):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


ROUTES = ("one-int", "grouped")


def kernel_seconds(calls, sizes, routes):
    """The median over 3 replays of the seconds seed.exchange takes over
    the calls, in total, per quotient size bucket and per route, with the
    call count of each route."""

    def run(chosen):
        for args in chosen:
            _outcome(seed.exchange, args)

    buckets = []
    for label, low, high in SIZE_BUCKETS:
        chosen = [a for a, n in zip(calls, sizes) if low <= n <= high]
        buckets.append((label, _median_seconds(lambda: run(chosen))))
    by_route = []
    for name in ROUTES:
        chosen = [a for a, r in zip(calls, routes) if r == name]
        by_route.append((name, len(chosen), _median_seconds(lambda: run(chosen))))
    return _median_seconds(lambda: run(calls)), buckets, by_route


def step_seconds(steps) -> float:
    """The median over 3 replays of the seconds Seed.mutate takes over the
    recorded steps with each step's new F given: the step's bookkeeping
    (matrix, c-, g-vector and F updates and the checks), no exchange."""

    def run():
        for s, k, out in steps:
            s.mutate(k, f=out.f[k])

    return _median_seconds(run)


def step_mismatches(steps) -> int:
    """The recorded steps whose result differs from the full update."""
    return sum(
        (out.b, out.c, out.g, out.f) != mutate_seed_full(s.b, s.c, s.g, s.f, k)
        for s, k, out in steps
    )


def setup_seconds(certificates) -> float:
    """The median over 3 passes of the seconds that constructing and
    starting the run of each certificate takes, as the verifiers do."""

    def run():
        for cert in certificates:
            ta, tb = map(dynkin.DynkinType.parse, cert.pair)
            if cert.system == "fold":
                bound = dynkin.coxeter_number(ta) + dynkin.coxeter_number(tb)
                ysystem._FoldRun(lift_dynkin(ta), lift_dynkin(tb), ta, tb, bound).start()
            elif cert.system != "direct":
                ysystem._ProductRun(ta, tb, cert.system).start()

    return _median_seconds(run)


def main() -> int:
    failed = False
    for name in WORKLOAD_NAMES:
        calls, renamed, steps = record(WORKLOADS[name].certificates)
        mismatches, restarts, sizes, routes = replay(calls)
        mismatches += sum(_outcome(expand_exchange, args) != f for args, f in renamed)
        total, buckets, by_route = kernel_seconds(calls, sizes, routes)
        split = ", ".join(f"{label} terms {t:.4f} s" for label, t in buckets)
        print(
            f"{name}: {len(calls)} calls, {len(renamed)} renamed, "
            f"{mismatches} mismatches, {restarts} restarts, "
            f"kernel {total:.3f} s ({split})"
        )
        split = ", ".join(f"{route} {count} calls {t:.4f} s" for route, count, t in by_route)
        print(f"{name}: kernel by route: {split}")
        wrong = step_mismatches(steps)
        print(
            f"{name}: {len(steps)} steps, {wrong} step mismatches against the full update, "
            f"bookkeeping {step_seconds(steps):.4f} s"
        )
        runs = sum(cert.system != "direct" for cert in WORKLOADS[name].certificates)
        print(f"{name}: {runs} runs, set-up {setup_seconds(WORKLOADS[name].certificates):.4f} s")
        failed |= mismatches > 0 or wrong > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
