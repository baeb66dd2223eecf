"""Command-line frontend.

Subcommands: enumerate, gram, reduce, det, stirling, semisimple, verify.
Output is deterministic for fixed inputs (stable orderings, stable key
order); big integers are serialized as decimal strings. Exit codes: 0
success, 1 parameter/validation error, 2 verification diff, 3 resource
guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .determinant import det_blocks, det_isotypic
from .families import FAMILIES
from .golden import published_gram_report, published_reduced_report
from .gram import (
    ALGEBRAS,
    DEFAULT_GUARD,
    ResourceGuardError,
    WindowError,
    build_gram,
    enumerate_diagrams,
)
from .reduction import reduce_gram, reduced_decomposition
from .semisimplicity import verdict
from .stirling import gen_stirling_z2
from .verify import run_all_checks

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIFF = 2
EXIT_GUARD = 3


def _reject_unread(args, names, variant: str) -> None:
    """A parameter error naming each of `names` that was given (not None)."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise WindowError(f"{variant} does not read {', '.join(given)}")


def _profile_args(args) -> tuple[int, int]:
    plain = FAMILIES[args.algebra].plain
    _reject_unread(args, ("s1", "s2") if plain else ("s",), f"the {args.algebra} algebra")
    if plain:
        if args.s is None:
            raise WindowError("partition algebra requires --s")
        return args.s, 0
    if args.s1 is None or args.s2 is None:
        raise WindowError(f"{args.algebra} algebra requires --s1 and --s2")
    return args.s1, args.s2


def _emit(args, payload: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _key_json(key) -> dict:
    return {
        "i": key.i,
        "alpha": [list(part) for part in key.alpha],
        "r1": key.r1,
        "r2": key.r2,
    }


def cmd_enumerate(args) -> int:
    s1, s2 = _profile_args(args)
    basis = enumerate_diagrams(args.algebra, args.k, s1, s2, args.guard)
    # enumerate_diagrams numbers each contiguous (alpha, r1, r2) cell from 1
    cells: list[dict] = []
    for key, _ in basis:
        if key.i == 1:
            cells.append({"alpha": [list(p) for p in key.alpha], "r1": key.r1, "r2": key.r2, "size": 0})
        cells[-1]["size"] += 1
    if args.format == "pretty":
        lines = [f"{args.algebra} k={args.k} profile ({s1}, {s2}): {len(basis)} diagrams"]
        for key, diagram in basis:
            lines.append(f"  {key.i:>3} alpha={key.alpha} r=({key.r1},{key.r2})  {diagram}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = {
            "algebra": args.algebra,
            "k": args.k,
            "s1": s1,
            "s2": s2,
            "count": len(basis),
            "cells": cells,
            "diagrams": [
                {**_key_json(key), "blocks": str(diagram)} for key, diagram in basis
            ],
        }
        _emit(args, json.dumps(payload, indent=1) + "\n")
    return EXIT_OK


def cmd_gram(args) -> int:
    s1, s2 = _profile_args(args)
    gram = build_gram(args.algebra, args.k, s1, s2, args.guard)
    if args.format == "csv":
        lines = [",".join(str(p) for p in row) for row in gram.entries]
        _emit(args, "\n".join(lines) + "\n")
    elif args.format == "pretty":
        width = max((len(str(p)) for row in gram.entries for p in row), default=1)
        lines = [" ".join(str(p).rjust(width) for p in row) for row in gram.entries]
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = {
            "algebra": gram.algebra,
            "k": gram.k,
            "s1": gram.s1,
            "s2": gram.s2,
            "keys": [
                {**_key_json(key), "diagram": str(diagram)}
                for key, diagram in zip(gram.keys, gram.diagrams)
            ],
            "entries": [[str(p) for p in row] for row in gram.entries],
        }
        _emit(args, json.dumps(payload, indent=1) + "\n")
    return EXIT_OK


def cmd_reduce(args) -> int:
    import hashlib  # imported by its one user, so other commands start without it

    s1, s2 = _profile_args(args)
    gram = build_gram(args.algebra, args.k, s1, s2, args.guard)
    decomposition = reduce_gram(gram)
    # the checksum hashes T as dense rows, the form it has always pinned
    n = gram.dimension()
    rows = [[0] * n for _ in range(n)]
    for v, col in enumerate(decomposition.transform):
        for u, c in col:
            rows[u][v] = c
    checksum = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    payload = {
        "algebra": gram.algebra,
        "k": gram.k,
        "s1": gram.s1,
        "s2": gram.s2,
        "method": "mobius",
        "transform_checksum": checksum,
        "offblock_violations": [list(v) for v in decomposition.offblock_violations],
        "blocks": [
            {
                "label": list(label),
                "keys": [_key_json(gram.keys[m]) for m in members],
                "entries": [[str(p) for p in row] for row in decomposition.block(label)],
            }
            for label, members in decomposition.cells
        ],
        "predicted": [
            {
                "label": list(label),
                "entries": [
                    [str(p) for p in row] for row in decomposition.predicted[label]
                ],
            }
            for label, _ in decomposition.cells
        ],
        "diffs": [
            {
                "informative": d.informative,
                "description": d.describe(),
            }
            for d in decomposition.diffs
        ],
    }
    _emit(args, json.dumps(payload, indent=1) + "\n")
    return EXIT_DIFF if decomposition.hard_diffs() else EXIT_OK


def cmd_det(args) -> int:
    s1, s2 = _profile_args(args)
    gram = build_gram(args.algebra, args.k, s1, s2, args.guard)
    direct = det_isotypic(gram.entries, gram.k, gram.fibre_pair)
    decomposition = reduce_gram(gram)
    blocks = det_blocks(decomposition)
    payload = {
        "algebra": gram.algebra,
        "k": gram.k,
        "s1": gram.s1,
        "s2": gram.s2,
        "determinant": str(direct),
        "coefficients": direct.to_json(),
        "factored": [
            {"factor": str(poly), "multiplicity": mult} for poly, mult in blocks.factored
        ],
        "consistent": direct == blocks.poly,
    }
    _emit(args, json.dumps(payload, indent=1) + "\n")
    return EXIT_OK if payload["consistent"] else EXIT_DIFF


TABLE_LABELS = [(1, 2), (2, 0), (0, 3), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0)]

# the largest --r1, --r2, --r, --s1, --s2 and --s that `stirling` takes. Its
# slowest count under this bound, at r1 = r2 = 100, took 0.72 s in process on
# 2 vCPUs, and r1 = r2 = 120 took 1.5 s. A large s is a large base of powers:
# at s1 = s2 = 10**4299 - 1, r1 = r2 = 20 took 11 s. --p needs no bound, as
# a p past the count window gives 0 at once.
STIRLING_MAX = 100


def cmd_stirling(args) -> int:
    for name in ("s", "r", "p", "s1", "s2", "r1", "r2", "p1", "p2"):
        value = getattr(args, name)
        if value is not None and value < 0:
            raise WindowError(f"--{name} must be nonnegative, got {value}")
    for name in ("s", "r", "s1", "s2", "r1", "r2"):
        value = getattr(args, name)
        if value is not None and value > STIRLING_MAX:
            raise WindowError(f"--{name} must be at most {STIRLING_MAX}, got {value}")
    if args.format != "json" and not args.table:
        raise WindowError(f"--format {args.format} applies only to --table")
    if FAMILIES[args.algebra].plain:
        _reject_unread(args, ("s1", "s2", "r1", "r2", "p1", "p2", "table"), "the partition variant")
        if None in (args.s, args.r, args.p):
            raise WindowError("partition variant requires --s, --r, --p")
        # a plain count is the doubled count at the flip-fixed slice
        value = gen_stirling_z2(0, args.s, 0, args.r, 0, args.p)
        _emit(args, json.dumps({"s": args.s, "r": args.r, "p": args.p, "value": str(value)}) + "\n")
        return EXIT_OK
    _reject_unread(args, ("s", "r", "p"), "the doubled variant")
    if args.s1 is None or args.s2 is None:
        raise WindowError("doubled variant requires --s1 and --s2")
    if args.table:
        _reject_unread(args, ("r1", "r2", "p1", "p2"), "--table")
        header = ["(r1,r2) \\ (p1,p2)"] + [f"2.{p1}+{p2}" for p1, p2 in TABLE_LABELS]
        rows = [header]
        for r1, r2 in TABLE_LABELS:
            row = [f"2.{r1}+{r2}"]
            for p1, p2 in TABLE_LABELS:
                row.append(str(gen_stirling_z2(args.s1, args.s2, r1, r2, p1, p2)))
            rows.append(row)
        if args.format == "json":
            _emit(args, json.dumps({"s1": args.s1, "s2": args.s2, "table": rows}, indent=1) + "\n")
        else:
            widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
            lines = ["  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rows]
            _emit(args, "\n".join(lines) + "\n")
        return EXIT_OK
    if None in (args.r1, args.r2, args.p1, args.p2):
        raise WindowError("need --r1 --r2 --p1 --p2 (or --table)")
    value = gen_stirling_z2(args.s1, args.s2, args.r1, args.r2, args.p1, args.p2)
    _emit(
        args,
        json.dumps(
            {
                "s1": args.s1,
                "s2": args.s2,
                "r1": args.r1,
                "r2": args.r2,
                "p1": args.p1,
                "p2": args.p2,
                "value": str(value),
            }
        )
        + "\n",
    )
    return EXIT_OK


def _parse_q(text):
    """None for the symbolic verdict (no --q, or x), else the exact rational."""
    if text in (None, "x"):
        return None
    if re.fullmatch(r"[-+]?[0-9]+(/[0-9]+)?", text):  # Fraction would build 10**N for 1eN
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # b == 0, or past int's digit limit
            pass
    raise WindowError(f"--q takes x, an integer, or a/b with b != 0, not {text!r}")


def cmd_semisimple(args) -> int:
    q = _parse_q(args.q)
    result = verdict(args.algebra, args.k, q, args.guard)
    _emit(args, json.dumps(result.to_json(), indent=1) + "\n")
    return EXIT_OK


# the profile of the published 34x34 Gram matrix and its reduction
PUBLISHED_PROFILE = ("signed", 3, 1, 0)


def _published_lines(decomposition) -> tuple[list[str], bool]:
    """The two published-table check lines, with their details, and
    whether both pass."""
    report = published_gram_report(decomposition.gram)
    status = "PASS" if report.ok else "FAIL"
    lines = [
        f"{status}  published-34x34          "
        f"   hard mismatches: {len(report.hard_mismatches)}, documented slips: {len(report.slips)}"
    ]
    for line in report.describe():
        lines.append(f"        {line}")
    reduced_ok = published_reduced_report(decomposition, report)["ok"]
    status = "PASS" if reduced_ok else "FAIL"
    lines.append(f"{status}  published-reduced-blocks    scalar blocks and tail block")
    return lines, report.ok and reduced_ok


def cmd_verify(args) -> int:
    published = []

    def visit(profile, decomposition):
        if profile == PUBLISHED_PROFILE:
            published.append(_published_lines(decomposition))

    checks = run_all_checks(args.k, args.guard, visit)
    if not published:
        # `--k 1` and `--k 2` never visit signed k=3 (1, 0), so this builds it
        # itself; at `--k 3` the checks handed it over before dropping it
        published.append(_published_lines(reduced_decomposition(*PUBLISHED_PROFILE, args.guard)))
    failures = 0
    # indented, like the detail lines, so a reader of the check lines skips it
    sizes = ", ".join(f"{name} k<={args.k + family.plain}" for name, family in FAMILIES.items())
    lines = [f"  scale: {sizes}; guard {args.guard}"]
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        lines.append(f"{status}  {check.name:<24} {check.seconds:7.2f}s  {check.details}")
        failures += 0 if check.ok else 1
    published_lines, published_ok = published[0]
    lines += published_lines
    failures += 0 if published_ok else 1
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_DIFF if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagram-gram",
        description="Exact Gram matrices, reductions, and semisimplicity verdicts "
        "for three families of diagram algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=(), profile=True, guard=True):
        """--output, plus a profile, --guard, and --format when the
        subcommand renders more than JSON."""
        if profile:
            p.add_argument("--algebra", choices=ALGEBRAS, required=True)
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--s", type=int, default=None, help="through count (partition)")
            p.add_argument("--s1", type=int, default=None)
            p.add_argument("--s2", type=int, default=None)
        if formats:
            p.add_argument("--format", choices=("json", *formats), default="json")
        p.add_argument("--output", default=None)
        if guard:
            p.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                           help="maximum matrix dimension (default %(default)s)")

    p = sub.add_parser("enumerate", help="ordered diagram basis for a profile")
    common(p, formats=("pretty",))
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("gram", help="Gram matrix for a profile")
    common(p, formats=("csv", "pretty"))
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("reduce", help="block-diagonal reduction and closed-form diff")
    common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("det", help="Gram determinant, direct and from blocks")
    common(p)
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("stirling", help="generalized coarser-diagram counts")
    p.add_argument("--algebra", choices=ALGEBRAS, default="z2")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--s1", type=int, default=None)
    p.add_argument("--s2", type=int, default=None)
    p.add_argument("--r1", type=int, default=None)
    p.add_argument("--r2", type=int, default=None)
    p.add_argument("--p1", type=int, default=None)
    p.add_argument("--p2", type=int, default=None)
    p.add_argument("--table", action="store_true", default=None, help="print the full 8x8 grid")
    common(p, formats=("pretty",), profile=False, guard=False)
    p.set_defaults(fn=cmd_stirling)

    p = sub.add_parser("semisimple", help="semisimplicity verdict at exact rational q")
    p.add_argument("--algebra", choices=ALGEBRAS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", default=None,
                   help='x, an integer, or a/b with b != 0; omit for symbolic')
    common(p, profile=False)
    p.set_defaults(fn=cmd_semisimple)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--k", type=int, default=3)
    common(p, profile=False)
    p.set_defaults(fn=cmd_verify)

    return parser


def _join_negative_q(argv: list[str]) -> list[str]:
    """argv with "--q VALUE" written as "--q=VALUE" where VALUE is "-"
    followed by a digit: argparse takes only integers and decimals for
    negative numbers, and would read "-1/3" as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--q" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--q={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_join_negative_q(argv))
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is kept for a verification diff
        return EXIT_VALIDATION if exc.code == 2 else exc.code
    try:
        return args.fn(args)
    except WindowError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
