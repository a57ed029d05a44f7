"""Three equivalent characterizations and their cross-verification.

A signed permutation is theta-vexillary exactly when any (hence all) of
the following hold: some triple constructs it; every corner lies on the
NE path or is an unessential corner that the rank relation forces (see
`diagram.corners`); it avoids the thirteen signed patterns below.
`build_report` runs the three routes on one window.
`verify_equivalence` checks their agreement exhaustively over a whole
group, optionally across processes, and `enumerate_theta_vexillary`
lists the members; both read the pattern verdicts that
`sigperm.walk_windows` decides once per prefix along its walk.
"""

from __future__ import annotations

import os
from typing import Iterator, List, NamedTuple, Optional, Tuple

from . import theta
from .diagram import CornerRecord, CornerSet, corners
from .sigperm import (
    PatternTable,
    SignedPermutation,
    check_rank_guard,
    find_pattern,
    walk_windows,
)

#: The thirteen signed patterns whose simultaneous avoidance characterizes
#: the theta-vexillary class, compiled once for `find_pattern`.  Do not
#: edit: the table is pinned by hash.
PATTERNS: PatternTable = PatternTable(
    SignedPermutation(win)
    for win in (
        (-1, 3, 2),
        (-2, 3, 1),
        (-3, 2, 1),
        (-3, 2, -1),
        (2, 1, 4, 3),
        (2, -3, 4, -1),
        (-2, -3, 4, -1),
        (3, -4, 1, -2),
        (3, -4, -1, -2),
        (-3, -4, 1, -2),
        (-3, -4, -1, -2),
        (-4, 1, -2, 3),
        (-4, -1, -2, 3),
    )
)


def classify_by_patterns(
    w: SignedPermutation,
) -> Tuple[bool, Optional[Tuple[SignedPermutation, Tuple[int, ...]]]]:
    """True iff w avoids every pattern; otherwise the first hit found."""
    hit = find_pattern(w, PATTERNS)
    return hit is None, hit


def classify_by_corners(
    w: SignedPermutation, cs: Optional[CornerSet] = None
) -> Tuple[bool, Optional[CornerRecord]]:
    """True iff every corner lies on the NE path or is a forced
    unessential corner; else the stray.  Reads no triple."""
    if cs is None:
        cs = corners(w)
    return cs.stray is None, cs.stray


def classify_by_triple(
    w: SignedPermutation, cs: Optional[CornerSet] = None
) -> Tuple[bool, Optional[theta.ThetaTriple]]:
    """Recover a candidate triple and rebuild w from it; `construct`
    validates the candidate on the way."""
    candidate = theta.recover(w, cs)
    if candidate is None:
        return False, None
    try:
        rebuilt = theta.construct(candidate)
    except (theta.InfeasibleRankError, theta.InvalidTripleError):
        return False, None
    if rebuilt != w:
        return False, None
    return True, candidate


# ---------------------------------------------------------------------------
# combined report


class ClassificationReport(NamedTuple):
    """Combined verdict of the three routes for a single permutation.

    `theta_vexillary` is the construction route's verdict.  The
    per-route verdicts are kept in `verdicts` (patterns, corners,
    triple, in the order they are computed) so that a divergence between
    the routes would stay visible instead of being masked by the summary
    bit.  A named tuple, so a report compares equal to the plain tuple
    of its fields.
    """

    window: Tuple[int, ...]
    n: int
    theta_vexillary: bool
    triple: Optional[theta.ThetaTriple]
    corner_records: Tuple[CornerRecord, ...]
    pattern_witness: Optional[Tuple[SignedPermutation, Tuple[int, ...]]]
    corner_witness: Optional[CornerRecord]
    verdicts: Tuple[bool, bool, bool]

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "window": list(self.window),
            "n": self.n,
            "theta_vexillary": self.theta_vexillary,
            "triple": (
                theta.triple_to_json(self.triple)
                if self.triple is not None
                else None
            ),
            "corners": [
                {"k": c.k, "p": c.p, "q": c.q, "class": c.kind.value}
                for c in self.corner_records
            ],
            "pattern_witness": (
                {
                    "pattern": list(self.pattern_witness[0].window),
                    "indices": list(self.pattern_witness[1]),
                }
                if self.pattern_witness
                else None
            ),
        }


def build_report(w: SignedPermutation) -> ClassificationReport:
    """Run all three classifiers and assemble the combined report with
    the corner taxonomy as `corners` labels it.

    Disagreement between the routes is recorded, not raised: the
    overall verdict is the construction route's, and `verify_equivalence`
    is the place where divergences are collected as failures.
    """
    cs = corners(w)
    by_pat, pat_witness = classify_by_patterns(w)
    by_cor, cor_witness = classify_by_corners(w, cs)
    by_tri, triple = classify_by_triple(w, cs)
    return ClassificationReport(
        window=w.window,
        n=w.n,
        theta_vexillary=by_tri,
        triple=triple,
        corner_records=cs.corners,
        pattern_witness=pat_witness,
        corner_witness=cor_witness,
        verdicts=(by_pat, by_cor, by_tri),
    )


# ---------------------------------------------------------------------------
# exhaustive verification


class VerifySummary(NamedTuple):
    """The outcome of `verify_equivalence` over W_n.  A named tuple, so a
    summary compares equal to the plain tuple of its fields."""

    n: int
    total: int
    theta_vexillary: int
    mismatches: Tuple[Tuple[int, ...], ...]

    def describe(self) -> str:
        return (
            f"{self.total} total, {self.theta_vexillary} theta-vexillary, "
            f"{len(self.mismatches)} mismatches"
        )


def _verify_chunk(task: Tuple[int, int]) -> Tuple[int, int, List[Tuple[int, ...]]]:
    """The windows walked, the members and the mismatching windows among
    the windows of W_n that begin with the letter v, where task = (n, v).
    The pattern verdict is the one `walk_windows` decides along the walk;
    the corner set is computed once per window, for both other routes."""
    n, v = task
    total = count = 0
    mismatches: List[Tuple[int, ...]] = []
    for win, contains in walk_windows(n, (v,), PATTERNS):
        total += 1
        w = SignedPermutation._of(win)
        cs = corners(w)
        by_cor = classify_by_corners(w, cs)[0]
        by_tri = classify_by_triple(w, cs)[0]
        if by_cor == by_tri == (not contains):
            count += by_tri
        else:
            mismatches.append(win)
    return total, count, mismatches


def verify_equivalence(
    n: int, jobs: int = 1, *, allow_large: bool = False
) -> VerifySummary:
    """Cross-check the three routes on every element of W_n: the pattern
    verdict of `walk_windows`, then the corner and triple routes on one
    corner set per window (see `_verify_chunk`).

    Each first letter v = -n..-1, 1..n is one task: the windows that
    begin with v.  The tasks run on a pool of `jobs` processes, capped
    at the CPU count and at the 2n tasks (so at most 12 workers at
    n = 6 and 16 at n = 8), or in this process when that cap is 1.
    Results merge in task order, which is window order, so the summary
    does not depend on the worker count.  `jobs` must be a positive int.
    """
    check_rank_guard(n, allow_large)
    # type(jobs), not isinstance: a bool is an int but no worker count
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    tasks = [(n, v) for v in range(-n, n + 1) if v != 0]
    workers = max(1, min(jobs, os.cpu_count() or 1, len(tasks)))
    if workers == 1:
        parts = list(map(_verify_chunk, tasks))
    else:
        # imported only for a pool, since it pulls in multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_verify_chunk, tasks))
    total = sum(part[0] for part in parts)
    count = sum(part[1] for part in parts)
    mismatches = tuple(win for *_, part_bad in parts for win in part_bad)
    return VerifySummary(n, total, count, mismatches)


def enumerate_theta_vexillary(
    n: int, *, allow_large: bool = False
) -> Iterator[SignedPermutation]:
    """All theta-vexillary elements of W_n in window order, decided by
    pattern avoidance along the walk of `walk_windows`, which skips every
    subtree under a prefix that contains a pattern."""
    check_rank_guard(n, allow_large)
    for win, _ in walk_windows(n, (), PATTERNS, avoiders_only=True):
        yield SignedPermutation._of(win)
