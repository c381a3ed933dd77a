"""Command-line front end: parse pairs, run verifications, print reports.

Exit status: 0 when the requested verification succeeds, 1 when it
produces a counterexample, 2 on malformed input.  Progress goes to
stderr; stdout carries only the text or JSON report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from . import __version__
from .dynkin import DynkinType
from .errors import FoldingError, InputError
from .folding import lift_dynkin
from .quiver import (
    format_label,
    format_quiver,
    quiver_from_json_text,
    quiver_to_json,
    square_product,
    tensor_product,
    triangle_product,
)
from .seed import Seed
from .ysystem import alternating_pair, verify_direct_ysystem, verify_folding, verify_periodicity

EXIT_VERIFIED = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT_ERROR = 2

# desk-scale guard: product size above this needs --big
BIG_THRESHOLD = 16


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yperiod",
        description="exact verifier for Zamolodchikov periodicity of Y-systems "
        "attached to pairs of Dynkin diagrams",
    )
    parser.add_argument("--version", action="version", version=f"yperiod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--output", choices=("text", "json"), default="text",
                        help="report format")

    sp = sub.add_parser("verify", help="verify periodicity for a pair of diagrams")
    sp.add_argument("--pair", nargs=2, metavar=("DELTA", "DELTA'"), required=True)
    sp.add_argument(
        "--system",
        choices=("boxtimes", "square", "direct", "fold"),
        default="boxtimes",
        help="seed pattern of the triangle or square product, the direct "
        "recurrence, or the folding cross-check",
    )
    sp.add_argument(
        "--rounds", type=int, default=None, help="override the round bound (not direct)"
    )
    sp.add_argument("--trials", type=int, default=5, help="random starts (direct system)")
    sp.add_argument("--seed", type=int, default=0, help="randomness seed")
    sp.add_argument(
        "--big",
        action="store_true",
        help=f"allow products above {BIG_THRESHOLD} vertices (a fold run counts "
        "its lifted product)",
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

    sp = sub.add_parser(
        "products",
        help="print the tensor, triangle and square products and each factor's cover",
    )
    sp.add_argument("--pair", nargs=2, metavar=("DELTA", "DELTA'"), required=True)
    add_output(sp)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _parse_pair(pair: List[str]):
    return DynkinType.parse(pair[0]), DynkinType.parse(pair[1])


def _flags(args: argparse.Namespace) -> dict:
    """The flags an invocation echoes: every option that has a value, by name."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None}


def _envelope(args: argparse.Namespace, payload: dict) -> dict:
    return {"tool": "yperiod", "version": __version__, "command": args.command,
            "flags": _flags(args), **payload}


def _flag_text(args: argparse.Namespace) -> str:
    """The flags as options that parse back to args: a set switch bare, an
    unset one left out."""
    parts = []
    for k, v in _flags(args).items():
        if v is not False:
            values = [] if v is True else v if isinstance(v, list) else [v]
            parts += [f"--{k.replace('_', '-')}", *map(str, values)]
    return " ".join(parts)


def _emit_report(args, report) -> int:
    """Print a verdict and return its exit status."""
    if args.output == "json":
        print(json.dumps(_envelope(args, report.to_json()), indent=2))
    else:
        print(f"yperiod {__version__} {args.command} {_flag_text(args)}")
        print(report.text())
    return EXIT_VERIFIED if report.verified else EXIT_COUNTEREXAMPLE


def cmd_verify(args: argparse.Namespace) -> int:
    ta, tb = _parse_pair(args.pair)
    if not args.big:
        # the product the run mutates: a fold run mutates the lifted one
        fold = args.system == "fold"
        ra, rb = (lift_dynkin(t).lifted_type.rank if fold else t.rank for t in (ta, tb))
        if ra * rb > BIG_THRESHOLD:
            raise InputError(f"{'lifted ' * fold}product has {ra * rb} vertices; "
                             "pass --big to run anyway")
    progress = sys.stderr
    if args.system == "direct":
        if args.rounds is not None:
            raise InputError(
                "--rounds does not apply to the direct system, which always "
                "runs twice the Coxeter number sum"
            )
        report = verify_direct_ysystem(
            ta, tb, trials=args.trials, rng_seed=args.seed, progress=progress
        )
    elif args.system == "fold":
        report = verify_folding(ta, tb, max_rounds=args.rounds, progress=progress)
    else:
        report = verify_periodicity(
            ta, tb, system=args.system, max_rounds=args.rounds, progress=progress
        )
    return _emit_report(args, report)


def _match_vertex(q, token: str):
    by_text = {format_label(v): v for v in q.vertices}
    if token in by_text:
        return by_text[token]
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


def _cover(t: DynkinType) -> dict:
    """t's simply laced cover: the lifted type and quiver, the orbits in
    base vertex order, as d is, and d."""
    lift = lift_dynkin(t)
    return {
        "lifted_type": str(lift.lifted_type),
        "lifted_quiver": quiver_to_json(lift.quiver),
        "orbits": [[format_label(u) for u in lift.quiver.vertices if lift.to_base[u] == v]
                   for v in t.vertices],
        "d": list(lift.folded_quiver().d),
    }


def cmd_products(args: argparse.Namespace) -> int:
    ta, tb = _parse_pair(args.pair)
    qa, qb = alternating_pair(ta, tb)
    prods = {
        "tensor": tensor_product(qa, qb),
        "triangle": triangle_product(qa, qb),
        "square": square_product(qa, qb),
    }
    lifts = {str(t): _cover(t) for t in (ta, tb)}
    if args.output == "json":
        payload = {name: quiver_to_json(q) for name, q in prods.items()}
        print(json.dumps(_envelope(args, {**payload, "lifts": lifts}), indent=2))
    else:
        for name, q in prods.items():
            print(f"# {name} product {ta} x {tb}")
            print(format_quiver(q))
            print()
        for name, info in lifts.items():
            orbits = "  ".join("{" + ",".join(o) + "}" for o in info["orbits"])
            print(f"{name}: lifts to {info['lifted_type']}\n  orbits: {orbits}")
            print("  d: " + " ".join(map(str, info["d"])))
    return EXIT_VERIFIED


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "mutate": cmd_mutate,
        "products": cmd_products,
    }
    try:
        return handlers[args.command](args)
    except (InputError, FoldingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
