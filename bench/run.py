"""The yperiod benchmark: certificates run the way users run them.

Each verdict is one in-process ``yperiod.cli.main(["verify", ...,
"--output", "json", "--big"])`` call with stdout and stderr captured, in
a closed loop with one client: the next call starts when the previous
verdict has returned.  Every verdict is checked against the expected
verdict table in ``workloads.py``.

    python3 bench/run.py --workload small-batch --seed 1 --seconds 55 --trace 0

``--trace 0`` runs whole cycles of the workload for about ``--seconds``
seconds and reports the end-to-end metrics; verdict times are given in
units of the workload's calibration kernel timed next to them, so that
swings in the host's speed cancel.  ``--trace 1`` runs one cycle
untraced and the same cycle twice with the layer wrappers of
``spans.py`` installed, checks that tracing changed no verdict and no
count, and reports the per-layer metrics.  ``--workload all`` runs each workload in
a fresh interpreter, one after the other, so that no workload inherits
another's peak memory or warm caches.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only when
every verdict (and, traced, every fidelity check) is correct.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import spans
from workloads import WORKLOADS, check_verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# at least this many fresh interpreters are timed for setup_s
SETUP_RUNS = 15
_SETUP_CODE = """
import random, sys
sys.path[:0] = sys.argv[1:3]
import yperiod.cli, workloads
workloads.WORKLOADS[sys.argv[3]].cycle(random.Random(int(sys.argv[4])))
"""

_ROUND_LINE = re.compile(r"round \d+/\d+ done")


class _Stderr(io.StringIO):
    """Captured stderr that reports each round-boundary progress line."""

    def __init__(self, on_round: Optional[Callable[[str], None]]):
        super().__init__()
        self.on_round = on_round

    def write(self, s: str) -> int:
        if self.on_round is not None and _ROUND_LINE.search(s):
            self.on_round(s.strip())
        return super().write(s)


# Calibration kernels: fixed work of the kind a workload does, in the
# benchmark's own code.  A kernel's time, taken next to the verdicts,
# measures how fast the host runs that kind of work at that moment.
_CAL_A = {(i * 131) % 4093: (i * 7919 + 12345) ** 4 for i in range(600)}
_CAL_B = {(i * 61) % 4093: (i * 104729 + 7) ** 4 for i in range(150)}
_N = 8
# the alternating A8 exchange matrix
_B0 = tuple(tuple((-1) ** i if abs(i - j) == 1 else 0 for j in range(_N))
            for i in range(_N))
# calibrate after at most this many seconds of verdicts
CAL_EVERY_S = 0.1


def exchange_kernel() -> float:
    """Seconds for a sparse product of two polynomials held as {packed
    exponent: big integer coefficient} dicts, like the exact exchange."""
    t0 = time.perf_counter()
    out: Dict[int, int] = {}
    for ka, ca in _CAL_A.items():
        for kb, cb in _CAL_B.items():
            k = (ka + kb) & 4095
            out[k] = out.get(k, 0) + ca * cb
    return time.perf_counter() - t0


def structure_kernel() -> float:
    """Seconds for mutations of a small exchange matrix and its rational
    Y-values, then a JSON report: small tuples, ints and Fractions, like a
    small certificate."""
    t0 = time.perf_counter()
    for r in range(6):
        b = _B0
        y = [Fraction(i + 2, i + 1) for i in range(_N)]
        for step in range(4 * _N):
            k = (3 * step + r) % _N
            yk = y[k]
            y = [1 / yk if j == k else y[j] * yk ** max(b[k][j], 0) * (1 + yk) ** -b[k][j]
                 for j in range(_N)]
            b = tuple(tuple(-b[i][j] if k in (i, j) else
                            b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
                            for j in range(_N)) for i in range(_N))
        json.dumps({"b": b, "y": [str(v) for v in y]})
    return time.perf_counter() - t0


CALIBRATION = {"deep-exchange": exchange_kernel, "small-batch": structure_kernel}


@dataclass
class Verdict:
    label: str
    seconds: float
    # exit status and hash of stdout, to compare traced with untraced runs
    # in this process; the text is not kept, so memory does not grow with
    # the run
    output: Tuple[Optional[int], int]
    problem: Optional[str] = None  # None when the verdict is the expected one
    # mean time of the calibrations just before and just after the block
    # of verdicts that holds this one; None when not calibrated
    cal: Optional[float] = None


@dataclass
class Cycle:
    wall: float  # first call to last verdict, calibrations left out
    verdicts: List[Verdict]


def run_cycle(cli, certs, tracer=None, calibrate=None) -> Cycle:
    """Call the CLI once per certificate, back to back; verdicts are
    checked after the cycle so that checking stays out of its wall time.
    A tracer, if given, is started and stopped around the same calls.
    With ``calibrate``, it is run before the first verdict and after
    every CAL_EVERY_S seconds of verdicts and after the last one."""
    raw = []
    cals: List[float] = []  # cals[b] and cals[b + 1] flank block b
    block, block_s = [], 0.0  # block of each verdict, seconds in this block
    on_round = tracer.close_round if tracer is not None else None
    if calibrate is not None:
        cals.append(calibrate())
    start = time.perf_counter()
    if tracer is not None:
        tracer.start()
    for i, cert in enumerate(certs):
        out, err = io.StringIO(), _Stderr(on_round)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code, problem = cli.main(cert.argv()), None
            except Exception:
                code, problem = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
        raw.append((cert, dt, code, out.getvalue(), problem))
        block.append(len(cals) - 1)
        block_s += dt
        if calibrate is not None and (block_s >= CAL_EVERY_S or i == len(certs) - 1):
            cals.append(calibrate())
            block_s = 0.0
    if tracer is not None:
        tracer.stop()
    cycle = Cycle(time.perf_counter() - start - sum(cals[1:]), [])
    for (cert, dt, code, stdout, problem), b in zip(raw, block):
        if problem is None:
            problem = check_verdict(cert, code, stdout)
        cal = (cals[b] + cals[b + 1]) / 2 if cals else None
        cycle.verdicts.append(Verdict(cert.label, dt, (code, hash(stdout)), problem, cal))
    return cycle


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n q / 100)
    return ordered[int(rank) - 1]


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from a fresh interpreter to yperiod.cli imported and the
    workload's inputs generated."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)],
        check=True, timeout=60, cwd=ROOT, capture_output=True,
    )
    return time.perf_counter() - t0


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip() or "unknown"
    except OSError:  # no git
        return "unknown"


def environment(workload: str, seed: int, trace: int) -> Dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


END_TO_END = ("setup_s", "wall_cal", "verdict_p50_cal", "peak_rss_mb")
# a p95 is reported only with at least ten verdicts beyond it
P95_MIN_VERDICTS = 200
# how far the tracer's total may stray from the traced cycle's wall
WALL_TOLERANCE_S = 0.001
WALL_TOLERANCE_FRAC = 0.001


def _metric(value, unit: str) -> Dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end-to-end run

def run_untraced(cli, workload, seed: int, seconds: float):
    rng = random.Random(seed)
    cycles: List[Cycle] = []
    setup: List[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cycles.append(run_cycle(cli, workload.cycle(rng), calibrate=CALIBRATION[workload.name]))
        # set-up samples are spread over the run, so that they see the
        # same machine as the cycles do
        setup.append(measure_setup(workload.name, seed))
        # start another cycle only if one more fits in the window
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(measure_setup(workload.name, seed))
    verdicts = [v for c in cycles for v in c.verdicts]
    times = [v.seconds for v in verdicts]
    # A shared host's speed can swing twofold in phases that last minutes,
    # so verdict and cycle times are reported in units of the workload's
    # calibration kernel timed next to them ("cal"), which the phases
    # scale alike.  Set-up reports its fastest sample.
    metrics = {
        "setup_s": _metric(min(setup), "s"),
        "wall_cal": _metric(statistics.median(
            sum(v.seconds / v.cal for v in c.verdicts) for c in cycles), "cal"),
        "verdict_p50_cal": _metric(statistics.median(v.seconds / v.cal for v in verdicts), "cal"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n = len(verdicts)
    print(f"closed loop, 1 client: {len(cycles)} cycles of {n // len(cycles)} verdicts")
    notes = {
        "setup_s": f"fastest of {len(setup)} fresh interpreters",
        "wall_cal": f"median of {len(cycles)} cycles, first call to last verdict",
        "verdict_p50_cal": f"median of {n} verdicts",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, m in metrics.items():
        print(f"{name:<16} {m['value']:>12.6f} {m['unit']:<4} {notes[name]}")
    # the same in seconds, as the host ran them (not bounded)
    print(f"{'cal_s':<16} {statistics.median(v.cal for v in verdicts):>12.6f} s    "
          f"median calibration kernel time")
    print(f"{'wall_s':<16} {statistics.median(c.wall for c in cycles):>12.6f} s    "
          f"median of {len(cycles)} cycles (not bounded)")
    print(f"{'verdict_p50_s':<16} {statistics.median(times):>12.6f} s    "
          f"median of {n} verdicts (not bounded)")
    if n >= P95_MIN_VERDICTS:
        print(f"{'verdict_p95_s':<16} {percentile(times, 95):>12.6f} s    "
              f"nearest rank over {n} verdicts (not bounded)")
    return metrics, verdicts, []


# ---------------------------------------------------------------------------
# traced run

def run_traced(cli, workload, seed: int):
    certs = workload.cycle(random.Random(seed))
    untraced = run_cycle(cli, certs)
    tracers, traced = [], []
    for _ in range(2):
        tracer = spans.Tracer()
        patches = spans.install(tracer)
        try:
            traced.append(run_cycle(cli, certs, tracer))
        finally:
            spans.uninstall(patches)
        tracers.append(tracer)
    tr = tracers[0]

    fidelity = []
    for cycle in traced:
        for a, b in zip(untraced.verdicts, cycle.verdicts):
            if a.output != b.output:
                fidelity.append(f"traced verdict differs for {a.label}")
    for t, cycle in zip(tracers, traced):
        if min(t.self_ns.values()) < 0 or t.root_self_ns < 0:
            fidelity.append("negative self time")
        # the tracer's own total against the cycle's wall, which run_cycle
        # takes with a clock the tracer does not control
        total = (t.root_self_ns + sum(t.self_ns.values()) + t.bookkeeping_ns) / 1e9
        if abs(total - cycle.wall) > WALL_TOLERANCE_S + WALL_TOLERANCE_FRAC * cycle.wall:
            fidelity.append(f"self times add up to {total:.6f} s, "
                            f"the traced cycle took {cycle.wall:.6f} s")
    if tracers[0].counts() != tracers[1].counts():
        fidelity.append("counts differ between two traced runs")

    metrics = layer_metrics(tr, untraced.wall)
    layers = tr.layer_self_ns()
    total = sum(layers.values()) or 1
    print(f"traced one cycle of {len(certs)} verdicts, twice; "
          f"untraced wall {untraced.wall:.4f} s, traced {tr.wall_ns / 1e9:.4f} s")
    for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"layer {layer:<8} {ns / 1e9:>10.4f} s  {100 * ns / total:5.1f}% of layer self time")
    for name, ns in sorted(tr.self_ns.items(), key=lambda kv: -kv[1])[:8]:
        print(f"span {name:<22} {ns / 1e9:>10.4f} s  {100 * ns / total:5.1f}%  "
              f"{tr.calls[name]} calls")
    if workload.f_growth:
        # each certificate once; a repeated one grows the same way
        seen = set()
        for r in tr.rounds:
            if r["label"] in seen:
                continue
            seen.add(r["label"])
            print(f"f-growth {r['label']}: f_terms {r.get('f_terms', 0)}, "
                  f"f_degree {r.get('f_degree', 0)}, f_coeff_bits {r.get('f_coeff_bits', 0)}, "
                  f"div_num_terms {r.get('div_num_terms', 0)}, "
                  f"div_quot_terms {r.get('div_quot_terms', 0)}")
    for problem in fidelity:
        print(f"fidelity: {problem}")
    return metrics, untraced.verdicts + [v for c in traced for v in c.verdicts], fidelity


SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in spans.SITES))
# layers made of several spans also get totals
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES if "." in name))


def layer_metrics(tr, untraced_wall: float) -> Dict:
    m: Dict[str, Dict] = {}
    layer_ns = tr.layer_self_ns()
    layer_calls: Dict[str, int] = {}
    for name, calls in tr.calls.items():
        layer = name.split(".")[0]
        layer_calls[layer] = layer_calls.get(layer, 0) + calls
    for layer in LAYERS:
        m[f"{layer}.calls"] = _metric(layer_calls.get(layer, 0), "count")
        m[f"{layer}.self_s"] = _metric(layer_ns.get(layer, 0) / 1e9, "s")
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = _metric(tr.calls.get(name, 0), "count")
        m[f"{name}.self_s"] = _metric(tr.self_ns.get(name, 0) / 1e9, "s")
    sums, maxima = tr.sums, tr.maxima
    num_terms = sums.get("algebra.div.numerator_terms", 0)
    m["algebra.mul.term_products"] = _metric(sums.get("algebra.mul.term_products", 0), "count")
    m["algebra.div.term_updates"] = _metric(sums.get("algebra.div.term_updates", 0), "count")
    m["algebra.div.num_terms_max"] = _metric(maxima.get("algebra.div.num_terms_max", 0), "count")
    m["algebra.div.useful_ratio"] = _metric(
        sums.get("algebra.div.quotient_terms", 0) / num_terms if num_terms else 0.0, "ratio")
    m["algebra.f_terms_max"] = _metric(maxima.get("algebra.f_terms_max", 0), "count")
    m["algebra.f_coeff_bits_max"] = _metric(maxima.get("algebra.f_coeff_bits_max", 0), "bits")
    m["ysystem.value_bits_max"] = _metric(maxima.get("ysystem.value_bits_max", 0), "bits")
    m["bench.self_s"] = _metric(tr.root_self_ns / 1e9, "s")
    m["trace.bookkeeping_s"] = _metric(tr.bookkeeping_ns / 1e9, "s")
    m["trace.wall_s"] = _metric(tr.wall_ns / 1e9, "s")
    m["trace.overhead_frac"] = _metric((tr.wall_ns / 1e9 - untraced_wall) / untraced_wall, "ratio")
    return m


# ---------------------------------------------------------------------------

def run_workload(cli, workload, args) -> Dict:
    """Run one workload; returns its result line."""
    print("env: " + json.dumps(environment(workload.name, args.seed, args.trace)))
    if args.trace:
        metrics, verdicts, fidelity = run_traced(cli, workload, args.seed)
    else:
        metrics, verdicts, fidelity = run_untraced(cli, workload, args.seed, args.seconds)
    wrong = [v for v in verdicts if v.problem is not None]
    n = len(verdicts)
    print(f"{'failed_frac':<16} {len(wrong) / n:>12.6f}      {len(wrong)} of {n} verdicts")
    for v in wrong[:5]:
        print(f"wrong verdict for {v.label}: {v.problem}")
    return {"correct": not wrong and not fidelity, "attempted": n, "failed": len(wrong),
            "metrics": metrics}


def run_all(args) -> Dict:
    """Every workload in a fresh interpreter of its own; their result
    lines are merged, with metric names prefixed by the workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except ValueError:
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        if proc.returncode != 0:
            results[name]["correct"] = False
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "yperiod" / "__init__.py").is_file():
        print(f"error: no yperiod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import yperiod
    import yperiod.cli as cli

    if Path(yperiod.__file__).resolve().parent != SRC / "yperiod":
        print(f"error: imported yperiod from {yperiod.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(cli, WORKLOADS[args.workload], args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
