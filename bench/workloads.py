"""Workloads of the yperiod benchmark and the expected-verdict table.

A workload is a fixed list of certificates (pair, system).  One *cycle*
of a workload is that list, repeated and shuffled by the workload seed;
the benchmark runs whole cycles, one ``yperiod verify`` call at a time.

The expected verdicts are independent of the package: period bounds come
from the hard-coded Coxeter table below (never from
``yperiod.dynkin.coxeter_number``), and minimal periods are pinned from
the verdicts of the engine as first imported.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple


def coxeter_number(name: str) -> int:
    """h(X_n) from the classification table, e.g. coxeter_number("E7") == 18."""
    exceptional = {"E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}
    if name in exceptional:
        return exceptional[name]
    family, n = name[0], int(name[1:])
    return {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2}[family]


def period_bound(pair: Tuple[str, str], system: str) -> int:
    h = coxeter_number(pair[0]) + coxeter_number(pair[1])
    return 2 * h if system == "direct" else h


DIRECT_TRIALS = 5


@dataclass(frozen=True)
class Certificate:
    pair: Tuple[str, str]
    system: str
    minimal_period: int  # pinned expected verdict
    rng_seed: Optional[int] = None  # only for the direct system

    def argv(self) -> List[str]:
        out = ["verify", "--pair", *self.pair, "--system", self.system,
               "--output", "json", "--big"]
        if self.system == "direct":
            out += ["--trials", str(DIRECT_TRIALS), "--seed", str(self.rng_seed)]
        return out

    @property
    def label(self) -> str:
        return f"{self.pair[0]}x{self.pair[1]} {self.system}"


def _certs(system: str, pinned: str) -> List[Certificate]:
    """Certificates from 'A2xA1:5 A3xA1:6 ...' (pair: pinned minimal period)."""
    out = []
    for item in pinned.split():
        pair, minimal = item.split(":")
        out.append(Certificate(tuple(pair.split("x")), system, int(minimal)))
    return out


SMALL_BATCH = (
    _certs("boxtimes", "A1xA1:2 A2xA1:5 A3xA1:6 A4xA1:7 D4xA1:4 D5xA1:10 "
                       "A2xA2:6 A3xA2:7 A2xA3:7 A3xA3:8")
    + _certs("square", "A2xA2:6 A3xA2:7 A3xA3:8 A4xA2:8")
    + _certs("boxtimes", "G2xA1:4 B3xA1:4 C3xA1:4")  # valued pattern
    + _certs("fold", "B2xA1:3 B3xA1:4 C3xA1:4 F4xA1:7 G2xA1:4 B2xB2:4")
    # keeps the direct recurrence (y_system_step) measured
    + _certs("direct", "A2xA2:12 A3xA2:14")
)
# E7xA1 appears twice per cycle, so the median verdict falls inside its
# mode rather than between two modes.
DEEP_EXCHANGE = _certs("boxtimes", "E7xA1:10 E7xA1:10 D6xA2:13")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    certificates: Tuple[Certificate, ...]
    copies: int = 1
    # print per-round F-growth in the traced run
    f_growth: bool = False

    def cycle(self, rng: random.Random) -> List[Certificate]:
        """One cycle: the certificate list repeated and shuffled; direct
        certificates each draw their own randomness seed."""
        out = []
        for _ in range(self.copies):
            for cert in self.certificates:
                if cert.system == "direct":
                    cert = replace(cert, rng_seed=rng.randrange(1 << 31))
                out.append(cert)
        rng.shuffle(out)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deep-exchange",
            "few vertices but F-polynomials of thousands of terms, so the exact "
            "exchange in algebra dominates",
            tuple(DEEP_EXCHANGE),
            f_growth=True,
        ),
        Workload(
            "small-batch",
            "many small certificates, so structural checks, seeds, folding and "
            "CLI overhead dominate",
            tuple(SMALL_BATCH),
            copies=8,  # 200 verdicts per cycle
        ),
    )
}


def check_verdict(cert: Certificate, exit_code: int, stdout: str) -> Optional[str]:
    """None when the CLI output is the expected verdict, else the reason."""
    if exit_code != 0:
        return f"exit status {exit_code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    bound = period_bound(cert.pair, cert.system)
    expected = {
        "pair": list(cert.pair),
        "system": cert.system,
        "period_bound": bound,
        "rounds": bound,
        "minimal_period": cert.minimal_period,
        "divides": True,
        "verified": True,
        "counterexample": None,
    }
    if cert.system == "direct":
        expected.update(rng_seed=cert.rng_seed, trials=DIRECT_TRIALS)
    for key, want in expected.items():
        got = report.get(key, "<missing>")
        if got != want:
            return f"{key} is {got!r}, expected {want!r}"
    failed = [c.get("name") for c in report.get("checks", []) if not c.get("passed")]
    if failed or not report.get("checks"):
        return f"checks not all passed: {failed}"
    return None
