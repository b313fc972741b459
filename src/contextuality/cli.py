"""Command-line front end.

Exit codes encode process health, not verdicts: 0 for a completed analysis
(whatever the verdict), 1 for usage errors or a stdout closed by its reader,
2 for invalid input or blown enumeration limits.  Reports go to stdout as
JSON with stable key order; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, catalog
from .analysis import (
    DEFAULT_LIMIT,
    RealizationLimitExceeded,
    SignalingSystemError,
    classify,
    enumerate_ns_realizations,
)
from .peres import ks_search, orthogonal_triads, peres_rays
from .serialize import SystemFileError, format_rational, loads_system
from .systems import (
    LARGE_COUNT,
    Realization,
    SupportSpec,
    SystemSpec,
    check_nonsignaling,
    context_key,
    count_assignments,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _load(args) -> SystemSpec | SupportSpec:
    if args.builtin is not None:
        try:
            return catalog.get(args.builtin).system
        except catalog.UnknownSystemError as exc:
            raise InputError(str(exc)) from exc
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.path}: not UTF-8 text: {exc}") from exc
    try:
        return loads_system(text)
    except SystemFileError as exc:
        raise InputError(f"{args.path}: {exc}") from exc


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, ensure_ascii=False)
    sys.stdout.write("\n")


def _witness_doc(w) -> dict:
    return {
        "side": w.side,
        "setting": w.setting,
        "context1": list(w.context1),
        "context2": list(w.context2),
        "marginal1": {o: format_rational(p) for o, p in sorted(w.marginal1.items())},
        "marginal2": {o: format_rational(p) for o, p in sorted(w.marginal2.items())},
    }


def _values_doc(r: Realization) -> list[dict]:
    return [
        {"x": ctx.x, "y": ctx.y, "a": a, "b": b}
        for ctx, (a, b) in r.values.items()
    ]


def _decomposition_doc(d: analysis.Decomposition) -> list[dict]:
    return [
        {"weight": format_rational(w), "values": _values_doc(r)}
        for r, w in d.components
    ]


def _bell_witness_doc(w: analysis.BellWitness) -> dict:
    terms = [
        {"x": ctx.x, "y": ctx.y, "a": a, "b": b, "coefficient": format_rational(c)}
        for (ctx, a, b), c in sorted(
            w.coefficients.items(), key=lambda kv: (context_key(kv[0][0]), kv[0][1:])
        )
    ]
    return {"terms": terms, "bound": format_rational(w.bound)}


def cmd_analyze(args) -> int:
    system = _load(args)
    report: dict = {"system": system.name}
    try:
        verdict = classify(system, limit=args.limit)
    except SignalingSystemError as exc:
        report["nonsignaling"] = _witness_doc(exc.witness)
        report["verdict"] = "signaling"
        _emit(report)
        return EXIT_OK
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report["nonsignaling"] = True
    report["verdict"] = verdict.kind
    if verdict.decomposition is not None:
        report["decomposition"] = _decomposition_doc(verdict.decomposition)
    if verdict.witness is not None:
        report["witness"] = _bell_witness_doc(verdict.witness)
    report["stats"] = {"ns_realizations": verdict.realization_count}
    _emit(report)
    return EXIT_OK


def cmd_nonsignaling(args) -> int:
    system = _load(args)
    if isinstance(system, SupportSpec):
        raise InputError("nonsignaling needs probabilistic input")
    witness = check_nonsignaling(system)
    report = {
        "system": system.name,
        "nonsignaling": True if witness is None else _witness_doc(witness),
    }
    _emit(report)
    return EXIT_OK


def cmd_realizations(args) -> int:
    system = _load(args)
    report: dict = {"system": system.name, "mode": args.mode}
    if args.mode == "all":
        count = count_assignments(system)
        report["count"] = str(count)
        report["value"] = str(count.value) if count.value < LARGE_COUNT else None
    else:
        realizations = enumerate_ns_realizations(system, args.limit)
        report["count"] = str(len(realizations))
        if not args.count_only:
            report["realizations"] = [_values_doc(r) for r in realizations]
    _emit(report)
    return EXIT_OK


def cmd_peres(args) -> int:
    rays = peres_rays()
    if args.emit == "rays":
        for i, ray in enumerate(rays, start=1):
            pairs = " ".join(f"{c.a}{c.b:+}√2" for c in ray.coords)
            print(f"{i}: {pairs}")
        return EXIT_OK
    triads = orthogonal_triads(rays)
    if args.emit == "triads":
        index = {ray: i + 1 for i, ray in enumerate(rays)}
        # pair-completion rays fall outside the 33; number them 34 onwards
        extras = sorted(
            {r for t in triads for r in t.rays if r not in index},
            key=lambda r: r.key(),
        )
        for j, ray in enumerate(extras, start=len(rays) + 1):
            index[ray] = j
        for i, t in enumerate(triads, start=1):
            members = " ".join(str(index[r]) for r in t.rays)
            print(f"{i}: rays {members}")
        return EXIT_OK
    result = ks_search(rays, triads, rule=args.rule)
    print("FEASIBLE" if result.feasible else "INFEASIBLE")
    print(f"nodes: {result.nodes}")
    return EXIT_OK


def cmd_chsh(args) -> int:
    system = _load(args)
    if isinstance(system, SupportSpec):
        raise InputError("chsh needs probabilistic input")
    try:
        value = analysis.chsh(system)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    print(format_rational(value))
    return EXIT_OK


def cmd_catalog(args) -> int:
    for id in catalog.catalog_ids():
        print(f"{id}: {catalog.provenance(id)}")
    return EXIT_OK


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", help="system file (JSON)")
    p.add_argument("--builtin", help="built-in system id (see 'catalog')")


def _add_limit_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_LIMIT,
        help="cap on enumerated non-signaling realizations",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextuality",
        description="Exact contextuality analysis of bipartite compound systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decide contextuality, with certificate")
    _add_input_args(p)
    _add_limit_arg(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("nonsignaling", help="check marginal context-independence")
    _add_input_args(p)
    p.set_defaults(func=cmd_nonsignaling)

    p = sub.add_parser("realizations", help="list or count realizations")
    _add_input_args(p)
    _add_limit_arg(p)
    p.add_argument("--mode", choices=["ns", "all"], default="ns")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_realizations)

    p = sub.add_parser("peres", help="Peres rays, triads, and the KS search")
    p.add_argument("--emit", choices=["rays", "triads", "search"], required=True)
    p.add_argument(
        "--rule",
        choices=["exactly-one-zero", "exactly-one-one"],
        default="exactly-one-zero",
    )
    p.set_defaults(func=cmd_peres)

    p = sub.add_parser("chsh", help="CHSH value of a 2x2 binary system")
    _add_input_args(p)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("catalog", help="list built-in system ids")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if hasattr(args, "builtin") and (args.builtin is None) == (args.path is None):
        print("error: provide a file path or --builtin id, not both", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "limit", 0) < 0:
        print("error: --limit must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "mode", None) == "all" and not args.count_only:
        print("error: --mode all needs --count-only", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (InputError, RealizationLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader left (say, `| head -1`).  Point stdout at devnull so the
        # interpreter's flush at exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
