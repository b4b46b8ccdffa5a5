"""Command-line front end.

    dupcat <analyze|verify|enumerate|emit-dot|export> --quiver FILE
           [--cap N] [--out FILE] [--tilting-index K]

All numeric output is exact (integers or rational strings).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from pathlib import Path

from .catalog_io import catalog_to_dict, dup_catalog_to_dict, dumps
from .cluster import fundamental_domain
from .dot import ar_quiver_dot
from .dup import dim_vectors, knit_ind_dup
from .errors import CapExceededError, DupcatError, NotDynkinError, QuiverSyntaxError
from .hereditary import knit_ind_A
from .leftpart import left_part_catalog
from .modcat import DEFAULT_CAP
from .quiver import classify_dynkin, parse_quiver
from .session import session
from .tilting import enumerate_L_tilting, expected_count, verify_bijection
from .verify import run_all_checks


def _load(args: argparse.Namespace):
    try:
        text = Path(args.quiver_path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise QuiverSyntaxError(f"{args.quiver_path} is not UTF-8 text: {exc}") from None
    return parse_quiver(text)


def _write_or_print(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_analyze(args: argparse.Namespace) -> int:
    _write_or_print(args, "\n".join(_analysis(args)) + "\n")
    return 0


def _analysis(args: argparse.Namespace) -> list:
    """The lines of the analyze report, ending early at a cap or a
    non-Dynkin quiver."""
    q = _load(args)
    dynkin = classify_dynkin(q)
    out = [f"quiver: {args.quiver_path}"]
    out.append(f"vertices: {len(q.vertices)}, arrows: {len(q.arrows)}")
    out.append(f"dynkin type: {dynkin if dynkin else 'not Dynkin'}")
    report = session(q).report
    out.append(report.as_text().rstrip())
    try:
        cat_a = knit_ind_A(q, args.cap)
        out.append(f"|ind A| = {len(cat_a.entries)}")
    except CapExceededError:
        out.append(f"|ind A| > {args.cap}: representation-infinite")
        return out
    if dynkin is None:
        return out
    try:
        dup_cat = knit_ind_dup(q, args.cap)
    except CapExceededError:
        out.append(f"|ind dup| > {args.cap}: representation-infinite")
        return out
    lp = left_part_catalog(q)
    n = len(q.vertices)
    out.append(
        f"left part: {len(lp.members)} members, "
        f"{len(lp.non_proj_inj)} non-projective-injective "
        f"(= {len(cat_a.entries)} + {n})"
    )
    out.append(f"ext-injectives: {len(lp.sigma)}")
    out.append(
        f"|ind dup| = {len(dup_cat.entries)} "
        f"({sum(dup_cat.proj_injective)} projective-injective)"
    )
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    q = _load(args)
    checks = run_all_checks(q, args.cap)
    failed = [c for c in checks if not c.passed]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}")
        if args.verbose or not c.passed:
            for w in c.witnesses:
                print(f"    {w}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    if args.out:
        Path(args.out).write_text(
            json.dumps([c.as_dict() for c in checks], indent=2), encoding="utf-8"
        )
    return 1 if failed else 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    q = _load(args)
    dynkin = classify_dynkin(q)
    if dynkin is None:
        raise NotDynkinError("tilting enumeration requires Dynkin type")
    # the cap bounds both knits before the bijection runs, as in verify
    cat_a = knit_ind_A(q, args.cap)
    dup_cat = knit_ind_dup(q, args.cap)
    bij = verify_bijection(q)
    free_parts, cluster_sets = bij.free_parts, bij.cluster_sets
    lp = left_part_catalog(q)
    lines = [
        f"|ind A| = {len(cat_a.entries)}",
        f"left part (non-projective-injective) = {len(lp.non_proj_inj)}",
        f"tilting modules with left-part free summands = {len(free_parts)}",
        f"cluster-tilting collections = {len(cluster_sets)}",
        f"degree-product count = {expected_count(dynkin)}",
        f"bijection: {'verified' if bij.matched else 'FAILED'}",
    ]
    print("\n".join(lines))
    if args.out:
        names = fundamental_domain(q).names
        vectors = [dim_vectors(e) for e in dup_cat.entries]
        payload = {
            "counts": {
                "tilting": len(free_parts),
                "cluster": len(cluster_sets),
                "expected": expected_count(dynkin),
            },
            "bijection": bij.as_dict(),
            "tilting_modules": [
                {"free": [{"x": list(x), "y": list(y)} for x, y in map(vectors.__getitem__, free)]}
                for free in free_parts
            ],
            "cluster_tilting": [
                sorted(names[k] for k in s) for s in cluster_sets
            ],
        }
        Path(args.out).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return 0 if bij.matched else 1


def cmd_emit_dot(args: argparse.Namespace) -> int:
    q = _load(args)
    dup_cat = knit_ind_dup(q, args.cap)
    free_parts = enumerate_L_tilting(q)
    free = ()
    if free_parts:
        if not 0 <= args.tilting_index < len(free_parts):
            print(
                f"tilting index {args.tilting_index} out of range (0..{len(free_parts) - 1})",
                file=sys.stderr,
            )
            return 2
        free = free_parts[args.tilting_index]
    _write_or_print(args, ar_quiver_dot(dup_cat, free))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    q = _load(args)
    cat_a = knit_ind_A(q, args.cap)
    dup_cat = knit_ind_dup(q, args.cap)
    payload = {
        "ind_A": catalog_to_dict(cat_a),
        "ind_dup": dup_catalog_to_dict(dup_cat),
    }
    _write_or_print(args, dumps(payload) + "\n")
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "enumerate": cmd_enumerate,
    "emit-dot": cmd_emit_dot,
    "export": cmd_export,
}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dupcat",
        description="Duplicated path algebras: left part, Ext-injectives, "
        "and the tilting correspondence with the cluster category.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument(
        "--quiver", dest="quiver_path", metavar="QUIVER", required=True, help="quiver file"
    )
    parser.add_argument("--cap", type=positive_int, default=DEFAULT_CAP, help="knitting cap (at least 1)")
    parser.add_argument("--out", default=None, help="output file")
    parser.add_argument("--tilting-index", type=int, default=0)
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    # Freeze the heap at exit, before the interpreter's last collections:
    # they then scan nothing, and the catalogs held in reference cycles are
    # left to the OS.  Nothing is frozen while main's caller runs, and
    # unregistering first keeps one handler however often main is called.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, DupcatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
