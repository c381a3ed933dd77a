"""The benchmark's layer spans (bench/spans.py) see the work of every
verifier.  A span wraps one binding (a module or class attribute); a
verifier that reaches the same function through another binding leaves
its span at zero calls without any error, so the layer drops out of the
benchmark's trace.  This runs one certificate of each verifier under the
tracer and checks that every span those verifiers feed counted calls.
bench/spans.py is loaded from its file, not edited."""

import importlib.util
from pathlib import Path

from yperiod import ysystem
from yperiod.dynkin import DynkinType

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

FED_SPANS = (
    "quiver.products", "quiver.slices", "quiver.is_constrained", "quiver.construct",
    "quiver.mutate_matrix", "folding.lift", "folding.is_admissible",
    "folding.group_action", "seed.initial", "seed.mutate", "seed.equals",
    "ysystem.y_system_step", "dynkin",
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("yperiod_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_verifier_feeds_its_layer_spans():
    spans = _load_spans()
    D = DynkinType.parse
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        tracer.start()
        reports = [
            ysystem.verify_periodicity(D("A3"), D("A2")),
            ysystem.verify_periodicity(D("A2"), D("A2"), system="square"),
            ysystem.verify_folding(D("B2"), D("A1")),
            ysystem.verify_direct_ysystem(D("A2"), D("A1"), trials=1),
        ]
        tracer.stop()
    finally:
        spans.uninstall(patches)
    assert all(r.verified for r in reports)
    calls = {name: tracer.calls.get(name, 0) for name in FED_SPANS}
    assert {name: n for name, n in calls.items() if n == 0} == {}
