"""Outside-in layer tracing for the yperiod benchmark.

``install(tracer)`` replaces the public entry points of each module at
the binding its caller uses (a module attribute or a class attribute)
with a wrapper that records a span around the original.  Nothing inside
the package changes; classes stay classes, so ``isinstance`` keeps
working, and ``uninstall`` puts every original back.

A span's self time is its duration minus the time its child spans
cover.  Counters that look at operands or results (term counts,
coefficient sizes) run after the span has closed; their cost is kept as
``bookkeeping`` so that it lands in no layer.  Per traced wall,

    wall = root self time + sum of layer self times + bookkeeping

holds exactly, in integer nanoseconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Self time, call counts and counters per span name."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.sums: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, int] = defaultdict(int)
        self.bookkeeping_ns = 0
        self.wall_ns = 0
        self.root_self_ns = 0
        # per-round F growth: closed rounds, and the one in progress
        self.rounds: List[Dict[str, int]] = []
        self.round: Dict[str, int] = defaultdict(int)
        # child time accumulated by each open span; index 0 is the root
        self._child: List[int] = [0]
        self._start = 0

    def start(self) -> None:
        self._child = [0]
        self._start = self.clock()

    def stop(self) -> None:
        self.wall_ns = self.clock() - self._start
        if len(self._child) != 1:
            raise RuntimeError("stop() with open spans")
        self.root_self_ns = self.wall_ns - self._child[0]

    def call(self, name: str, fn, args, kwargs, after=None):
        """Run fn inside a span called name; after(tracer, result, args)
        then updates counters outside the span."""
        child = self._child
        child.append(0)
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self.self_ns[name] += (t1 - t0) - child.pop()
            self.calls[name] += 1
            child[-1] += t1 - t0
        if after is not None:
            after(self, result, args)
            t2 = self.clock()
            self.bookkeeping_ns += t2 - t1
            child[-1] += t2 - t1
        return result

    def bump_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def close_round(self, label: str) -> None:
        """Called at each round boundary the CLI reports on stderr."""
        self.rounds.append({"label": label, **self.round})
        self.round = defaultdict(int)

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time summed per layer (the span name up to the first dot)."""
        out: Dict[str, int] = defaultdict(int)
        for name, ns in self.self_ns.items():
            out[name.split(".")[0]] += ns
        return out

    def counts(self) -> Dict[str, int]:
        """Everything deterministic the tracer computed, for comparing runs."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.sums)
        out.update(self.maxima)
        return out


# ---------------------------------------------------------------------------
# counters run after a span closes

def _coeff_bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.terms.values()), default=0)


def _after_mul(tr: Tracer, result, args) -> None:
    a, b = args
    # Polynomial.__mul__ re-enters itself with the operands swapped when
    # the left one is larger; only the call that runs the loop counts.
    if len(a.terms) <= len(b.terms):
        tr.sums["algebra.mul.term_products"] += len(a.terms) * len(b.terms)


def _after_div(tr: Tracer, result, args) -> None:
    num, den = args
    nq, nn = len(result.terms), len(num.terms)
    tr.sums["algebra.div.term_updates"] += nq * (len(den.terms) - 1)
    tr.sums["algebra.div.quotient_terms"] += nq
    tr.sums["algebra.div.numerator_terms"] += nn
    tr.bump_max("algebra.div.num_terms_max", nn)
    if nn > tr.round["div_num_terms"]:
        tr.round["div_num_terms"] = nn
        tr.round["div_quot_terms"] = nq


def _after_seed_mutate(tr: Tracer, result, args) -> None:
    f = result.f[args[1]]
    terms, bits, degree = len(f.terms), _coeff_bits(f), f.total_degree()
    tr.bump_max("algebra.f_terms_max", terms)
    tr.bump_max("algebra.f_coeff_bits_max", bits)
    r = tr.round
    r["f_terms"] = max(r["f_terms"], terms)
    r["f_degree"] = max(r["f_degree"], degree)
    r["f_coeff_bits"] = max(r["f_coeff_bits"], bits)


def _after_y_step(tr: Tracer, result, args) -> None:
    bits = max(max(v.numerator.bit_length(), v.denominator.bit_length())
               for v in result.curr)
    tr.bump_max("ysystem.value_bits_max", bits)


def _materialize(fn):
    """A generator method whose work is done inside the span."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))
    return run


# ---------------------------------------------------------------------------
# where the wrappers go: (owner, attribute, span name, counter)

_DYNKIN_FUNCTIONS = (
    "edges", "cartan_matrix", "symmetrizer", "incidence_matrix", "bipartition",
    "simple_reflection_matrix", "coxeter_element", "matrix_order",
    "coxeter_number", "positive_roots",
)
_POLY = "yperiod.algebra:Polynomial"

SITES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("yperiod.cli", "main", "cli", None),
    ("yperiod.cli", "verify_periodicity", "ysystem.verify", None),
    ("yperiod.cli", "verify_direct_ysystem", "ysystem.verify", None),
    ("yperiod.cli", "verify_folding", "ysystem.verify", None),
    ("yperiod.ysystem", "y_system_step", "ysystem.y_system_step", _after_y_step),
    ("yperiod.ysystem", "is_constrained", "quiver.is_constrained", None),
    ("yperiod.ysystem", "horizontal_slice", "quiver.slices", None),
    ("yperiod.ysystem", "vertical_slice", "quiver.slices", None),
    ("yperiod.quiver:Quiver", "mutate", "quiver.slices", None),
    ("yperiod.quiver:ValuedQuiver", "mutate", "quiver.slices", None),
    ("yperiod.quiver:Quiver", "__init__", "quiver.construct", None),
    ("yperiod.quiver:ValuedQuiver", "__init__", "quiver.construct", None),
    ("yperiod.quiver:_QuiverBase", "has_loops_or_two_cycles", "quiver.construct", None),
    ("yperiod.ysystem", "alternating_quiver", "quiver.products", None),
    ("yperiod.ysystem", "alternating_valued_quiver", "quiver.products", None),
    ("yperiod.ysystem", "triangle_product", "quiver.products", None),
    ("yperiod.ysystem", "square_product", "quiver.products", None),
    ("yperiod.seed", "mutate_matrix", "quiver.mutate_matrix", None),
    ("yperiod.folding:GroupAction", "__init__", "folding.group_action", None),
    ("yperiod.ysystem", "is_admissible", "folding.is_admissible", None),
    ("yperiod.ysystem", "lift_dynkin", "folding.lift", None),
    ("yperiod.ysystem", "product_action", "folding.lift", None),
    ("yperiod.seed:Seed", "initial", "seed.initial", None),
    ("yperiod.seed:Seed", "mutate", "seed.mutate", _after_seed_mutate),
    ("yperiod.seed:Seed", "g_vectors", "seed.g_vectors", None),
    ("yperiod.seed:Seed", "equals", "seed.equals", None),
    (_POLY, "__mul__", "algebra.mul", _after_mul),
    (_POLY, "exact_div", "algebra.div", _after_div),
    (_POLY, "__add__", "algebra.add", None),
    (_POLY, "__pow__", "algebra.other", None),
    (_POLY, "__init__", "algebra.other", None),
    (_POLY, "__eq__", "algebra.other", None),
    (_POLY, "items", "algebra.other", None),
    (_POLY, "is_one", "algebra.other", None),
    (_POLY, "constant_term", "algebra.other", None),
    (_POLY, "has_nonnegative_coefficients", "algebra.other", None),
    ("yperiod.dynkin:DynkinType", "parse", "dynkin", None),
) + tuple(("yperiod.dynkin", fn, "dynkin", None) for fn in _DYNKIN_FUNCTIONS)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(tracer: Tracer, name: str, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, after)
    return wrapper


Patch = Tuple[object, str, object]


def install(tracer: Tracer) -> List[Patch]:
    """Wrap every site; returns what uninstall() needs to restore them."""
    patches: List[Patch] = []
    for owner_name, attr, name, after in SITES:
        owner = _resolve(owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, name, raw.__func__, after))
        elif inspect.isgeneratorfunction(raw):
            wrapped = _wrap(tracer, name, _materialize(raw), after)
        else:
            wrapped = _wrap(tracer, name, raw, after)
        setattr(owner, attr, wrapped)
        patches.append((owner, attr, raw))
    return patches


def uninstall(patches: List[Patch]) -> None:
    for owner, attr, raw in reversed(patches):
        setattr(owner, attr, raw)
