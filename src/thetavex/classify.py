"""Three equivalent characterizations and their cross-verification.

A signed permutation is theta-vexillary exactly when any (hence all) of
the following hold: some triple constructs it; every corner lies on the
NE path or is an unessential corner that the rank relation forces (see
`diagram.corners`); it avoids the thirteen signed patterns below.
`build_report` runs the three routes on one window.
`verify_equivalence` checks their agreement over a whole group, one
task per last letter, in one recursion over the suffixes (`_sweep`)
that decides each pattern verdict, folds each corner column and runs
each path row's checks (`theta._rows_pass`) and placement step once
per suffix, and counts the windows below a suffix settled on all three
routes without walking them.
`enumerate_theta_vexillary` lists the members along the pruned walk of
`sigperm.iter_windows`.
"""

from __future__ import annotations

import os
import signal
from math import factorial
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

from . import theta
from .diagram import CornerRecord, _column, _fold, _label_by_rank, _records, corners
from .sigperm import (PatternTable, SignedPermutation, _anchored, _sign_index,
                      check_rank_guard, find_pattern, iter_windows)

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

#: The same patterns read right to left: a pattern occurs in a window
#: exactly when its mirror image occurs in the window's, so walking the
#: mirrored windows over this table gives each window's verdict.
MIRRORED: PatternTable = PatternTable(
    SignedPermutation._of(p.window[::-1]) for p in PATTERNS
)


def classify_by_patterns(
    w: SignedPermutation,
) -> Tuple[bool, Optional[Tuple[SignedPermutation, Tuple[int, ...]]]]:
    """True iff w avoids every pattern; otherwise the first hit found."""
    hit = find_pattern(w, PATTERNS)
    return hit is None, hit


def classify_by_corners(w: SignedPermutation) -> Tuple[bool, Optional[CornerRecord]]:
    """True iff every corner lies on the NE path or is a forced
    unessential corner; else the stray of `corners`.  Reads no triple."""
    stray = corners(w).stray
    return stray is None, stray


def classify_by_triple(w: SignedPermutation) -> Tuple[bool, Optional[theta.ThetaTriple]]:
    """Recover the candidate triple (`theta.recover`) and rebuild w from
    it (`_rebuilds`)."""
    return _rebuilds(w.window, theta.recover(w))


def _rebuilds(
    window: Tuple[int, ...], candidate: Optional[theta.ThetaTriple]
) -> Tuple[bool, Optional[theta.ThetaTriple]]:
    """(True, candidate) when the candidate triple constructs the window
    (`construct` validates it on the way), else (False, None): the triple
    route's verdict, for `classify_by_triple` and `build_report`."""
    if candidate is None:
        return False, None
    try:
        rebuilt = theta.construct(candidate)
    except (theta.InfeasibleRankError, theta.InvalidTripleError):
        return False, None
    if rebuilt.window != window:
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
    """Run the three routes and assemble the combined report with the
    corner taxonomy as `corners` labels it.

    The corner and triple routes share one column fold (`diagram._fold`):
    the records of `corners`, the stray, and the rows of the candidate
    triple of `theta.recover`, which `_rebuilds` checks.  Disagreement
    between the routes is recorded, not raised: the overall verdict is
    the construction route's, and `verify_equivalence` collects
    divergences as failures.
    """
    by_pat, pat_witness = classify_by_patterns(w)
    K, P, Q, off, stray, optional = _fold(w.window)
    candidate = None if stray is not None else theta._path_triple(K, P, Q, optional, w.n)
    by_tri, triple = _rebuilds(w.window, candidate)
    return ClassificationReport(
        window=w.window,
        n=w.n,
        theta_vexillary=by_tri,
        triple=triple,
        corner_records=_records(K, P, Q, off, optional),
        pattern_witness=pat_witness,
        corner_witness=stray,
        verdicts=(by_pat, stray is None, by_tri),
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


def _sweep(n: int, v: int, visit: Callable) -> None:
    """Call visit(letters, contains, stray, member) on each walked window
    of W_n that ends with v, with its pattern verdict, the stray of
    `corners` and the triple route's verdict, which is that of
    `_rebuilds` on the triple of `theta.recover` (README, "Recovery",
    lemma 4); and on each settled suffix, of fewer than n letters: every
    window that ends with it contains a pattern, has that stray and no
    triple, and is not walked.

    Column p's corners depend only on w(p-1) and the values from p on
    (`diagram.corners`), so one recursion grows the suffixes of v, the
    mirrored windows over `MIRRORED`.  A node that adds w(p-1) takes its
    parent's pattern verdict or the anchored test (`sigperm._anchored`),
    folds column p (`diagram._column`) while the fold has no stray, and
    cuts the rows back on return.  Containment is inherited and a stray
    of the fold is final (the first OTHER record in p desc order), so a
    node with both is settled.  A leaf folds column 1 and, without a
    stray, labels by rank.

    The triple route rides the same recursion: the fold appends the
    path rows in entry order, row i's checks (`theta._rows_pass`) read
    rows 1..i alone, and its placement step (`theta._placement_run`)
    fills positions from p_i on.  So the node that appends rows runs
    them once for all windows below it, with a and R carried down,
    compares the placed values with the suffix and takes them back on
    return; a failure sets the carried cut to 0.  The rows are corners,
    so their step ranks are at most n and they pass A3 and B3, which
    the same call checks at that node (README, "Recovery", lemmas 1-3).
    A B2 row that ties passes, as the OPTIONAL rows of a path without a
    stray do, and a tied row's steps place what the triple's next step
    places (lemma 4).  So a leaf without a stray is a member when no
    check failed and the fill step places its free positions' letters.
    """
    anchored = MIRRORED.anchored
    size = [0] * n + [0, n + 1]
    K, P, Q, off = [], [], [], []  # the fold's path rows and its other records
    R: dict = {}  # R(i) of the negative path rows
    window, used = [0] * (n + 1), [False] * (n + 1)  # what the rows' steps placed

    rows_pass, place = theta._rows_pass, theta._placement_run  # per task, not per row

    def steps(cut, lo, suffix, leaf):
        # (cut, filled): the checks of new path rows lo + 1..s, B2 ties
        # passing (`_rows_pass`), then their placement steps and at a leaf
        # the fill step s + 1 (True counts 1), compared with the suffix;
        # cut is a, or 0 once a check fails.  No step rank is compared with
        # n: a corner's is at most n (README, "Recovery", lemma 1)
        s = len(Q)
        if s > lo:
            cut = rows_pass(K, P, Q, cut, R, lo, ties=True)
            if not cut:
                return 0, ()
        filled = place(K, P, Q, lo, s + leaf, window, used)
        p = n + 1 - len(suffix)  # suffix[0] is w(p)
        for z in filled:
            if window[z] != suffix[z - p]:
                return 0, filled
        return cut, filled

    def unplace(filled):
        for z in filled:
            used[abs(window[z])] = False
            window[z] = 0

    def grow(suffix, free, contains, tail, stray, cut):
        here = suffix[0]  # the fold holds the columns right of it; free: the |w| left
        depth, s, t = len(suffix), len(Q), len(off)  # s, t: where to cut the rows back to
        if not free:
            member = False
            if stray is None:
                tail, stray = _column(n, 1, here, 0, tail, None, K, P, Q, off)
            if stray is None:
                stray = _label_by_rank(K, P, Q, off)[0]
                if stray is None and cut:
                    cut, filled = steps(cut, s, suffix, True)
                    member = cut > 0
                    unplace(filled)
            return visit(suffix, contains, stray, member)
        by_sign = None if contains else _sign_index(suffix[::-1], depth, n + 1)
        for i, x in enumerate(free):
            for u in (-x, x):
                hit = contains or _anchored(anchored, u, x, depth, by_sign, size)
                after, found = (tail, stray) if stray else _column(
                    n, n + 1 - depth, here, u, tail, None, K, P, Q, off)
                below, filled = cut, ()
                if cut and not found and len(Q) > s:
                    below, filled = steps(cut, s, suffix, False)
                if hit and found and depth + 1 < n:
                    visit((u, *suffix), True, found, False)
                else:
                    grow((u, *suffix), free[:i] + free[i + 1:], hit, after, found, below)
                if filled:
                    unplace(filled)
                del K[s:], P[s:], Q[s:], off[t:]  # also past a leaf's column 1

    free = tuple(x for x in range(1, n + 1) if x != abs(v))
    grow((v,), free, _anchored(anchored, v, abs(v), 0, _sign_index((), 0, n + 1), size),
         0, None, 1)
    del grow  # grow refers to itself: free the lists it holds now, not at a later gc


def _verify_chunk(task: Tuple[int, int]) -> Tuple[int, int, List[Tuple[int, ...]]]:
    """(windows, members, mismatching windows in `_sweep` order) of the
    windows of W_n that end with v, task = (n, v)."""
    n = task[0]
    agree = [0, 0]  # non-members, members
    mismatches: List[Tuple[int, ...]] = []

    def visit(win, contains, stray, member):
        if len(win) < n:  # a settled suffix of n - m letters: 2^m m! agreeing non-members
            agree[0] += 2 ** (n - len(win)) * factorial(n - len(win))
        elif (stray is None) == member == (not contains):
            agree[member] += 1
        else:
            mismatches.append(win)

    _sweep(*task, visit)
    return sum(agree) + len(mismatches), agree[1], mismatches


def verify_equivalence(
    n: int, jobs: int = 1, *, allow_large: bool = False
) -> VerifySummary:
    """Cross-check the three routes on every element of W_n: the pattern
    verdict, the stray corner and the triple route of `_sweep`.

    Each last letter v = -n..-1, 1..n is one task: the windows that end
    with v.  The tasks run on a pool of `jobs` processes, capped at the
    CPU count and at the 2n tasks (so at most 12 workers at n = 6 and 16
    at n = 8), or in this process when that cap is 1.  The workers
    ignore SIGINT, and the pool is terminated on the way out, so an
    interrupt reaches this process alone and leaves no worker running.
    The mismatches are sorted, which is window order, so the summary
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
        from multiprocessing import Pool
        # leaving the block terminates the workers, also on an interrupt
        with Pool(workers, signal.signal, (signal.SIGINT, signal.SIG_IGN)) as pool:
            parts = pool.map(_verify_chunk, tasks, 1)
    total = sum(part[0] for part in parts)
    count = sum(part[1] for part in parts)
    mismatches = tuple(sorted(win for *_, part_bad in parts for win in part_bad))
    return VerifySummary(n, total, count, mismatches)


def enumerate_theta_vexillary(
    n: int, *, allow_large: bool = False
) -> Iterator[SignedPermutation]:
    """All theta-vexillary elements of W_n in window order, decided by
    pattern avoidance along the walk of `iter_windows`, which skips every
    subtree under a prefix that contains a pattern."""
    check_rank_guard(n, allow_large)
    for win in iter_windows(n, (), PATTERNS):
        yield SignedPermutation._of(win)
