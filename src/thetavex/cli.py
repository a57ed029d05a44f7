"""Command-line front end.

Six subcommands: classify, diagram, construct, recover, verify, and
enumerate.  Exit codes follow a pipeline-friendly contract: 0 for
success (and for "yes, theta-vexillary"), 1 for a negative verdict or
verification mismatches, 2 for unusable input.  When the reader of
stdout goes away early (a pipe into `head`), the command stops quietly
with 141, the status of a writer killed by SIGPIPE; on Ctrl-C it stops
with 130, also without a traceback.  All output is plain ASCII and
deterministic, including across worker counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, List, Optional

from . import theta
from .classify import (
    build_report,
    classify_by_triple,
    enumerate_theta_vexillary,
    verify_equivalence,
)
from .diagram import render_extended
from .sigperm import format_window, parse_window


def _emit(args, payload: dict, lines: Iterable[str]) -> None:
    """The one output path of the reporting commands: under --json the
    object {"schema": "1", **payload}, else the text lines, which are
    then the only ones read."""
    if args.json:
        print(json.dumps({"schema": "1", **payload}, indent=2))
    else:
        for line in lines:
            print(line)


def _classify_lines(report) -> Iterable[str]:
    yield f"window: {' '.join(str(v) for v in report.window)}"
    yield f"theta-vexillary: {'yes' if report.theta_vexillary else 'no'}"
    if report.triple is not None:
        yield f"triple: {theta.format_triple(report.triple)}"
    if report.corner_records:
        yield "corners:"
        for c in report.corner_records:
            yield f"  ({c.k}, {c.p}, {c.q}) {c.kind.value}"
    if report.pattern_witness is not None:
        pat, idx = report.pattern_witness
        yield (
            "pattern witness: "
            f"{format_window(pat)} at positions {' '.join(str(i) for i in idx)}"
        )
    if report.corner_witness is not None:
        c = report.corner_witness
        yield f"stray corner: ({c.k}, {c.p}, {c.q})"


def cmd_classify(args) -> int:
    w = parse_window(args.window)
    report = build_report(w)
    _emit(args, report.to_json(), _classify_lines(report))
    return 0 if report.theta_vexillary else 1


def cmd_diagram(args) -> int:
    w = parse_window(args.window)
    print(render_extended(w, show_crosses=args.show_crosses))
    return 0


#: Peak bytes per window entry of `construct --json` (294 at n = 4e6, CPython 3.11).
_ENTRY_BYTES = 300


def cmd_construct(args) -> int:
    # `construct` checks the eight conditions, once per call
    t = theta._parse_rows(args.triple, args.rank)
    try:  # past physical memory, a valid triple is refused before any allocation
        if t.n > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // _ENTRY_BYTES:
            theta.min_feasible_rank(t)  # words a failing condition as `construct` does
            raise MemoryError
        w = theta.construct(t)
    except MemoryError:
        raise ValueError(f"rank {t.n} is too large to build a window") from None
    inverse = w.inverse()
    _emit(
        args,
        {
            "triple": theta.triple_to_json(t),
            "window": list(w.window),
            "inverse": list(inverse.window),
        },
        (format_window(w), format_window(inverse)),
    )
    return 0


def cmd_recover(args) -> int:
    w = parse_window(args.window)
    ok, t = classify_by_triple(w)
    if not ok:
        _emit(args, {"triple": None}, ("NOT THETA-VEXILLARY",))
        return 1
    _emit(args, {"triple": theta.triple_to_json(t)}, (theta.format_triple(t).rstrip(),))
    return 0


def cmd_verify(args) -> int:
    summary = verify_equivalence(args.rank, args.jobs, allow_large=args.allow_large)
    _emit(
        args,
        {
            "n": summary.n,
            "total": summary.total,
            "theta_vexillary": summary.theta_vexillary,
            "mismatches": [list(win) for win in summary.mismatches],
        },
        (summary.describe(),
         *(f"mismatch: {' '.join(str(v) for v in win)}" for win in summary.mismatches)),
    )
    return 1 if summary.mismatches else 0


def cmd_enumerate(args) -> int:
    for w in enumerate_theta_vexillary(args.rank, allow_large=args.allow_large):
        print(format_window(w))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetavex",
        description="Classify, construct, and explore theta-vexillary signed permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full classification report for one window")
    p.add_argument("window", help='window such as "-2 3 1"')
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("diagram", help="ASCII extended diagram with annotated corners")
    p.add_argument("window")
    p.add_argument(
        "--show-crosses", action="store_true", help="mark crossed-out boxes with x"
    )
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("construct", help="build the permutation and its inverse from a triple")
    p.add_argument("triple", help='triple such as "1 2; 4 3; 4 -1"')
    p.add_argument(
        "-n", "--rank", type=int, default=None, help="ambient rank (default: smallest that fits)"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("recover", help="recover the unique triple of a window")
    p.add_argument("window")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("verify", help="cross-check all three classifiers over W_n")
    p.add_argument("rank", type=int)
    p.add_argument(
        "--jobs", type=_positive_int, default=1, help="parallel worker processes"
    )
    p.add_argument("--allow-large", action="store_true", help="lift the rank guard")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="stream all theta-vexillary windows of W_n")
    p.add_argument("rank", type=int)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot
        # raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:  # bad input, a refused triple, the rank guard
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # Ctrl-C: the status of a shell's interrupted job
        return 130


if __name__ == "__main__":
    sys.exit(main())
