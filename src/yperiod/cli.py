"""Command-line front end: parse pairs, run verifications, emit traces.

Exit status: 0 when the requested verification succeeds, 1 when it
produces a counterexample, 2 on malformed input.  Progress goes to
stderr; stdout carries only the text or JSON report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from . import __version__
from .dynkin import DynkinType
from .errors import FoldingError, InputError
from .folding import lift_dynkin
from .quiver import (
    alternating_quiver,
    alternating_valued_quiver,
    format_label,
    format_quiver,
    quiver_from_json_text,
    quiver_to_json,
    square_product,
    tensor_product,
    triangle_product,
)
from .seed import Seed
from .ysystem import verify_direct_ysystem, verify_folding, verify_periodicity

EXIT_VERIFIED = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT_ERROR = 2

# desk-scale guard: product size above this needs --big
BIG_THRESHOLD = 16


def _default_output() -> str:
    env = os.environ.get("YPERIOD_OUTPUT", "text")
    return env if env in ("text", "json") else "text"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yperiod",
        description="exact verifier for Zamolodchikov periodicity of Y-systems "
        "attached to pairs of Dynkin diagrams",
    )
    parser.add_argument("--version", action="version", version=f"yperiod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp):
        # no default here: main() reads YPERIOD_OUTPUT on every call, so
        # that one parser serves the whole process
        sp.add_argument(
            "--output",
            choices=("text", "json"),
            help="report format (default from YPERIOD_OUTPUT, else text)",
        )

    sp = sub.add_parser("verify", help="verify periodicity for a pair of diagrams")
    sp.add_argument("--pair", nargs=2, metavar=("DELTA", "DELTA'"), required=True)
    sp.add_argument(
        "--system",
        choices=("boxtimes", "square", "direct", "fold"),
        default="boxtimes",
        help="seed pattern of the triangle or square product, the direct "
        "recurrence, or the folding cross-check",
    )
    sp.add_argument("--rounds", type=int, default=None, help="override the round bound")
    sp.add_argument("--trials", type=int, default=5, help="random starts (direct system)")
    sp.add_argument("--seed", type=int, default=0, help="randomness seed")
    sp.add_argument("--trace", action="store_true", help="dump per-round data to stderr")
    sp.add_argument(
        "--big",
        action="store_true",
        help=f"allow product sizes above {BIG_THRESHOLD} vertices",
    )
    add_output(sp)

    sp = sub.add_parser(
        "mutate", help="mutate a quiver (JSON on stdin) along a vertex sequence"
    )
    sp.add_argument("vertices", nargs="*", help="vertex labels, e.g. 1 2 or (1,2)")
    sp.add_argument(
        "--seed-data",
        action="store_true",
        help="track and print the full seed after each mutation",
    )
    add_output(sp)

    sp = sub.add_parser("fold", help="fold a multiply laced pair through its cover")
    sp.add_argument("--pair", nargs=2, metavar=("DELTA", "DELTA'"), required=True)
    sp.add_argument("--rounds", type=int, default=None)
    sp.add_argument("--force", action="store_true", help="run even if nothing folds")
    add_output(sp)

    sp = sub.add_parser("products", help="print the tensor, triangle and square products")
    sp.add_argument("--pair", nargs=2, metavar=("DELTA", "DELTA'"), required=True)
    add_output(sp)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _parse_pair(pair: List[str]):
    return DynkinType.parse(pair[0]), DynkinType.parse(pair[1])


def _envelope(args: argparse.Namespace, payload: dict) -> dict:
    flags = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("command",) and v is not None
    }
    return {"tool": "yperiod", "version": __version__, "command": args.command,
            "flags": flags, **payload}


def _flag_text(args: argparse.Namespace) -> str:
    parts = []
    for k, v in sorted(vars(args).items()):
        if k == "command" or v is None:
            continue
        if isinstance(v, (list, tuple)):
            v = " ".join(str(x) for x in v)
        parts.append(f"--{k.replace('_', '-')} {v}")
    return " ".join(parts)


def _emit_report(args, report) -> int:
    if args.output == "json":
        print(json.dumps(_envelope(args, report.to_json()), indent=2))
    else:
        print(f"yperiod {__version__} {args.command} {_flag_text(args)}")
        print(report.text())
    return EXIT_VERIFIED if report.verified else EXIT_COUNTEREXAMPLE


def cmd_verify(args: argparse.Namespace) -> int:
    ta, tb = _parse_pair(args.pair)
    if ta.rank * tb.rank > BIG_THRESHOLD and not args.big:
        raise InputError(
            f"product has {ta.rank * tb.rank} vertices; pass --big to run anyway"
        )
    progress = sys.stderr
    if args.system == "direct":
        report = verify_direct_ysystem(
            ta, tb, trials=args.trials, rng_seed=args.seed, progress=progress
        )
    elif args.system == "fold":
        report = verify_folding(
            ta, tb, max_rounds=args.rounds, allow_trivial=True, progress=progress
        )
    else:
        report = verify_periodicity(
            ta, tb, system=args.system, max_rounds=args.rounds, progress=progress
        )
    if args.trace:
        for check in report.checks:
            print(f"trace: {check.name}: {check.passed} {check.detail}", file=sys.stderr)
    return _emit_report(args, report)


def _match_vertex(q, token: str):
    by_text = {format_label(v): v for v in q.vertices}
    if token in by_text:
        return by_text[token]
    try:
        num = int(token)
    except ValueError:
        num = None
    if num is not None and num in q.vertices:
        return num
    raise InputError(f"vertex {token!r} is not in the quiver")


def cmd_mutate(args: argparse.Namespace) -> int:
    text = sys.stdin.read()
    q = quiver_from_json_text(text)
    track_seed = args.seed_data
    seed = Seed.initial(q) if track_seed else None
    trace = [(None, q, seed)]
    for token in args.vertices:
        v = _match_vertex(q, token)
        idx = q.index(v)
        q = q.mutate(v)
        if track_seed:
            seed = seed.mutate(idx)
        trace.append((format_label(v), q, seed))
    if args.output == "json":
        entries = []
        for label, qq, ss in trace:
            entry = {"after": label, "quiver": quiver_to_json(qq)}
            if track_seed:
                entry["seed"] = ss.to_json()
            entries.append(entry)
        print(json.dumps(_envelope(args, {"trace": entries}), indent=2))
    else:
        for label, qq, ss in trace:
            header = "input quiver" if label is None else f"after mutating at {label}"
            print(f"# {header}")
            print(format_quiver(qq))
            if track_seed:
                print("seed: " + json.dumps(ss.to_json()))
            print()
    return EXIT_VERIFIED


def cmd_fold(args: argparse.Namespace) -> int:
    ta, tb = _parse_pair(args.pair)
    if ta.simply_laced and tb.simply_laced and not args.force:
        raise InputError(
            f"({ta}, {tb}) is already simply laced; pass --force to fold trivially"
        )
    lifts = {}
    for t in (ta, tb):
        lift = lift_dynkin(t)
        orbits = [
            [format_label(lift.quiver.vertices[i]) for i in orbit]
            for orbit in lift.action.orbits()
        ]
        lifts[str(t)] = {
            "lifted_type": str(lift.lifted_type),
            "lifted_quiver": quiver_to_json(lift.quiver),
            "orbits": orbits,
            "d": list(lift.folded_quiver().d) if not lift.trivial else [1] * t.rank,
        }
    report = verify_folding(
        ta, tb, max_rounds=args.rounds, allow_trivial=args.force, progress=sys.stderr
    )
    if args.output == "json":
        payload = report.to_json()
        payload["lifts"] = lifts
        print(json.dumps(_envelope(args, payload), indent=2))
    else:
        print(f"yperiod {__version__} fold --pair {ta} {tb}")
        for name, info in lifts.items():
            print(f"{name}: lifts to {info['lifted_type']}")
            print(
                "  orbits: "
                + "  ".join("{" + ",".join(o) + "}" for o in info["orbits"])
            )
            print("  d: " + " ".join(str(x) for x in info["d"]))
        print(report.text())
    return EXIT_VERIFIED if report.verified else EXIT_COUNTEREXAMPLE


def cmd_products(args: argparse.Namespace) -> int:
    ta, tb = _parse_pair(args.pair)
    if ta.simply_laced and tb.simply_laced:
        qa, qb = alternating_quiver(ta), alternating_quiver(tb)
    else:
        qa, qb = alternating_valued_quiver(ta), alternating_valued_quiver(tb)
    prods = {
        "tensor": tensor_product(qa, qb),
        "triangle": triangle_product(qa, qb),
        "square": square_product(qa, qb),
    }
    if args.output == "json":
        payload = {name: quiver_to_json(q) for name, q in prods.items()}
        print(json.dumps(_envelope(args, payload), indent=2))
    else:
        for name, q in prods.items():
            print(f"# {name} product {ta} x {tb}")
            print(format_quiver(q))
            print()
    return EXIT_VERIFIED


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.output is None:
        args.output = _default_output()
    handlers = {
        "verify": cmd_verify,
        "mutate": cmd_mutate,
        "fold": cmd_fold,
        "products": cmd_products,
    }
    try:
        return handlers[args.command](args)
    except (InputError, FoldingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
