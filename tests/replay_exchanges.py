"""Replay every exchange of one benchmark pass against the expanding oracle.

    PYTHONPATH=src python tests/replay_exchanges.py

Runs the certificates of the deep-exchange and small-batch workloads of
``bench/workloads.py`` once each, in list order, through ``yperiod
verify``, and records every ``exchange`` call that ``Seed.mutate`` makes.
Direct certificates make none and are skipped.  Each recorded call is then
replayed through ``algebra.exchange`` and compared with
``expand_exchange`` from ``oracles.py``.  Prints one line per workload
with its call, mismatch and restart counts (a restart is a packed pass
whose slots proved too narrow), and exits 1 on any mismatch.

Too slow for the test suite: it takes about 20 s, most of it in the
expanding oracle on the deep-exchange calls.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from oracles import expand_exchange  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from yperiod import algebra, cli, seed  # noqa: E402
from yperiod.errors import DivisibilityError  # noqa: E402

WORKLOAD_NAMES = ("deep-exchange", "small-batch")


def record(certificates):
    """The argument tuples of every exchange made by verifying the
    certificates once each; raises if a verdict is not the verified one."""
    calls = []
    kernel = seed.exchange

    def recorder(*args):
        calls.append(args)
        return kernel(*args)

    seed.exchange = recorder
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
        seed.exchange = kernel
    return calls


def _outcome(route, args):
    try:
        return route(*args)
    except DivisibilityError:
        return DivisibilityError


def replay(calls):
    """(mismatches, restarts) of the kernel against the oracle on calls."""
    passes = []
    packed = algebra._packed_exchange

    def counting(*args):
        out = packed(*args)
        passes.append(out is None)
        return out

    algebra._packed_exchange = counting
    try:
        mismatches = sum(
            _outcome(algebra.exchange, args) != _outcome(expand_exchange, args)
            for args in calls
        )
    finally:
        algebra._packed_exchange = packed
    return mismatches, sum(passes)


def main() -> int:
    failed = False
    for name in WORKLOAD_NAMES:
        calls = record(WORKLOADS[name].certificates)
        mismatches, restarts = replay(calls)
        print(f"{name}: {len(calls)} calls, {mismatches} mismatches, {restarts} restarts")
        failed |= mismatches > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
