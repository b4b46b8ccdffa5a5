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
from typing import Optional

from .catalog_io import catalog_to_dict, dup_catalog_to_dict, dumps
from .cluster import fundamental_domain
from .dot import ar_quiver_dot
from .dup import dim_vectors, knit_ind_dup
from .errors import CapExceededError, DupcatError, NotDynkinError, QuiverSyntaxError
from .hereditary import knit_ind_A
from .leftpart import left_part_catalog
from .quiver import classify_dynkin, parse_quiver
from .session import session
from .tilting import enumerate_L_tilting, expected_count, verify_bijection
from .verify import run_all_checks


class RunConfig:
    def __init__(
        self, quiver_path: str, command: str, cap: int = 10000, out: Optional[str] = None,
        tilting_index: int = 0, verbose: bool = False
    ):
        if cap < 1:
            raise ValueError("cap must be at least 1")
        if command not in {"analyze", "verify", "enumerate", "emit-dot", "export"}:
            raise ValueError(f"unknown command {command!r}")
        self.quiver_path = quiver_path
        self.command = command
        self.cap = cap
        self.out = out
        self.tilting_index = tilting_index
        self.verbose = verbose


def _load(cfg: RunConfig):
    try:
        text = Path(cfg.quiver_path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise QuiverSyntaxError(f"{cfg.quiver_path} is not UTF-8 text: {exc}") from None
    return parse_quiver(text)


def _write_or_print(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_analyze(cfg: RunConfig) -> int:
    _write_or_print(cfg, "\n".join(_analysis(cfg)) + "\n")
    return 0


def _analysis(cfg: RunConfig) -> list:
    """The lines of the analyze report, ending early at a cap or a
    non-Dynkin quiver."""
    q = _load(cfg)
    dynkin = classify_dynkin(q)
    out = [f"quiver: {cfg.quiver_path}"]
    out.append(f"vertices: {len(q.vertices)}, arrows: {len(q.arrows)}")
    out.append(f"dynkin type: {dynkin if dynkin else 'not Dynkin'}")
    report = session(q).report
    out.append(report.as_text().rstrip())
    try:
        cat_a = knit_ind_A(q, cfg.cap)
        out.append(f"|ind A| = {len(cat_a.entries)}")
    except CapExceededError:
        out.append(f"|ind A| > {cfg.cap}: representation-infinite")
        return out
    if dynkin is None:
        return out
    try:
        dup_cat = knit_ind_dup(q, cfg.cap)
    except CapExceededError:
        out.append(f"|ind dup| > {cfg.cap}: representation-infinite")
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


def cmd_verify(cfg: RunConfig) -> int:
    q = _load(cfg)
    checks = run_all_checks(q, cfg.cap)
    failed = [c for c in checks if not c.passed]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}")
        if cfg.verbose or not c.passed:
            for w in c.witnesses:
                print(f"    {w}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    if cfg.out:
        Path(cfg.out).write_text(
            json.dumps([c.as_dict() for c in checks], indent=2), encoding="utf-8"
        )
    return 1 if failed else 0


def cmd_enumerate(cfg: RunConfig) -> int:
    q = _load(cfg)
    dynkin = classify_dynkin(q)
    if dynkin is None:
        raise NotDynkinError("tilting enumeration requires Dynkin type")
    # the cap bounds both knits before the bijection runs, as in verify
    cat_a = knit_ind_A(q, cfg.cap)
    knit_ind_dup(q, cfg.cap)
    bij = verify_bijection(q)
    records, cluster_sets = bij.records, bij.cluster_sets
    lp = left_part_catalog(q)
    lines = [
        f"|ind A| = {len(cat_a.entries)}",
        f"left part (non-projective-injective) = {len(lp.non_proj_inj)}",
        f"tilting modules with left-part free summands = {len(records)}",
        f"cluster-tilting collections = {len(cluster_sets)}",
        f"degree-product count = {expected_count(dynkin)}",
        f"bijection: {'verified' if bij.matched else 'FAILED'}",
    ]
    print("\n".join(lines))
    if cfg.out:
        names = fundamental_domain(q).names
        payload = {
            "counts": {
                "tilting": len(records),
                "cluster": len(cluster_sets),
                "expected": expected_count(dynkin),
            },
            "bijection": bij.as_dict(),
            "tilting_modules": [
                {
                    "free": [
                        {"x": list(x), "y": list(y)} for x, y in map(dim_vectors, rec.free)
                    ],
                }
                for rec in records
            ],
            "cluster_tilting": [
                sorted(names[k] for k in s) for s in cluster_sets
            ],
        }
        Path(cfg.out).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return 0 if bij.matched else 1


def cmd_emit_dot(cfg: RunConfig) -> int:
    q = _load(cfg)
    dup_cat = knit_ind_dup(q, cfg.cap)
    records = enumerate_L_tilting(q)
    record = None
    if records:
        if not 0 <= cfg.tilting_index < len(records):
            print(
                f"tilting index {cfg.tilting_index} out of range (0..{len(records) - 1})",
                file=sys.stderr,
            )
            return 2
        record = records[cfg.tilting_index]
    _write_or_print(cfg, ar_quiver_dot(dup_cat, record))
    return 0


def cmd_export(cfg: RunConfig) -> int:
    q = _load(cfg)
    cat_a = knit_ind_A(q, cfg.cap)
    dup_cat = knit_ind_dup(q, cfg.cap)
    payload = {
        "ind_A": catalog_to_dict(cat_a),
        "ind_dup": dup_catalog_to_dict(dup_cat),
    }
    _write_or_print(cfg, dumps(payload) + "\n")
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
    parser.add_argument("--quiver", required=True, help="quiver file")
    parser.add_argument("--cap", type=positive_int, default=10000, help="knitting cap (at least 1)")
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
    cfg = RunConfig(
        quiver_path=args.quiver,
        command=args.command,
        cap=args.cap,
        out=args.out,
        tilting_index=args.tilting_index,
        verbose=args.verbose,
    )
    try:
        return _COMMANDS[cfg.command](cfg)
    except (OSError, DupcatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
