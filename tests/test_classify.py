import hashlib
import json
import random
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings

from conftest import (
    is_occurrence,
    naive_first_pattern,
    oracle_is_theta_vexillary,
    records_of,
    signed_permutations,
    triple_of_records,
)
from thetavex import diagram, theta
from thetavex.classify import (
    PATTERNS,
    build_report,
    classify_by_corners,
    classify_by_patterns,
    classify_by_triple,
    enumerate_theta_vexillary,
    verify_equivalence,
)
from thetavex.diagram import CornerClass, corners
from thetavex.sigperm import (
    RankTooLargeError,
    SignedPermutation,
    find_pattern,
    iter_windows,
)

BIG = SignedPermutation([10, 1, 5, 3, -2, -4, 6, -9, -8, -7])

PATTERN_TABLE_SHA256 = (
    "9c8b32cf885fd70085e49e" "e3135dd682c67425613e4c2b98458077757d983dbc"
)

THETA_VEXILLARY_COUNTS = {1: 2, 2: 8, 3: 44, 4: 286, 5: 2061}

# sha256 of repr([(window, (pattern window, witness) or None), ...]) of
# classify_by_patterns over W_6 in window order, taken from the
# one-search-per-pattern matcher that the shared matcher replaced
W6_WITNESS_SHA256 = (
    "62ed766a154fb4687ed7045305532a22" "7683cf59461dc8c965a6811f339ebc41"
)

README_TRIPLE = ((3, 4, 5, 6, 9), (8, 6, 5, 4, 2), (7, 4, 2, -3, -6))

# rank-6 windows that the literal corner criterion ("every corner is on
# the NE path or unessential") accepts although no triple constructs them
# (each contains 2 1 4 3); the exact route rejects them because their
# unessential corner (2, 3, -1) is not forced by the rank relation
CORNER_ROUTE_OVERCLAIMS = [
    (3, 5, 1, 6, -2, 4),
    (3, 5, 1, 6, 4, -2),
    (3, 6, 1, 5, -2, 4),
    (3, 6, 1, 5, 4, -2),
]


# ---------------------------------------------------------------------------
# the pattern table


def test_pattern_table_contents():
    assert [p.window for p in PATTERNS] == [
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
    ]


def test_pattern_table_digest_pinned():
    text = "; ".join(" ".join(map(str, p.window)) for p in PATTERNS)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == PATTERN_TABLE_SHA256


# ---------------------------------------------------------------------------
# single-window classification


def test_identity_and_longest_element_classify_true():
    for w in (SignedPermutation.identity(5), SignedPermutation([-1, -2, -3, -4])):
        assert classify_by_patterns(w) == (True, None)
        assert classify_by_corners(w) == (True, None)
        ok, t = classify_by_triple(w)
        assert ok and theta.construct(t) == w


def test_big_window_classifies_true_everywhere():
    assert classify_by_patterns(BIG)[0]
    assert classify_by_corners(BIG)[0]
    ok, t = classify_by_triple(BIG)
    assert ok
    assert t.k == (3, 4, 5, 6, 9)


def test_pattern_route_reports_witness():
    w = SignedPermutation([2, 1, 4, 3])
    ok, hit = classify_by_patterns(w)
    assert not ok
    pattern, indices = hit
    assert pattern.window == (2, 1, 4, 3)
    assert indices == (1, 2, 3, 4)


def test_report_with_pattern_witness_pickles_and_copies():
    import copy
    import pickle

    report = build_report(SignedPermutation([-1, 3, 2]))
    assert report.pattern_witness is not None
    assert pickle.loads(pickle.dumps(report)) == report
    assert copy.deepcopy(report) == report


def test_report_with_corner_witness_pickles_and_copies():
    import copy
    import pickle

    report = build_report(SignedPermutation([-2, 3, 1]))
    assert report.corner_witness is not None
    for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert twin == report
        assert type(twin.corner_witness) is type(report.corner_witness)


def test_corner_route_reports_stray_corner():
    ok, stray = classify_by_corners(SignedPermutation([-2, 3, 1]))
    assert not ok
    assert (stray.p, stray.q) == (1, 2)
    assert stray.kind is CornerClass.OTHER


def test_triple_route_rejects_pattern_container():
    assert classify_by_triple(SignedPermutation([-1, 3, 2])) == (False, None)
    assert classify_by_triple(SignedPermutation([-2, 3, 1])) == (False, None)


def test_triple_route_refuses_a_forged_corner_set():
    """A candidate triple that is not the window's own, as a forged corner
    set would give, is refused by `_rebuilds` at each of its checks: a
    triple building another window, one failing a condition (A3), and one
    that does not fit the rank."""
    from thetavex import classify

    identity = (1, 2, 3)
    other = theta.recover(SignedPermutation([2, 1, 3]))
    assert theta.construct(other).window != identity
    assert classify._rebuilds(identity, other) == (False, None)
    for window, candidate, error, message in (
        ((-1, 2), theta.ThetaTriple((1,), (1,), (-1,), 2),
         theta.InvalidTripleError, "A3 fails"),
        ((1, 2), theta.ThetaTriple((2,), (2,), (1,), 2),
         theta.InfeasibleRankError, "minimum feasible rank is 3"),
    ):
        with pytest.raises(error, match=message):
            theta.construct(candidate)
        assert classify._rebuilds(window, candidate) == (False, None)


def test_pattern_route_matches_naive_reference():
    for n in range(1, 6):
        for w in map(SignedPermutation, iter_windows(n)):
            assert classify_by_patterns(w)[1] == naive_first_pattern(w, PATTERNS)
    rng = random.Random(2001)
    pool = list(theta.generate_triples(4))
    for n in range(7, 31):
        values = rng.sample(range(1, n + 1), n)
        windows = [[v if rng.random() < 0.5 else -v for v in values]]
        if n <= 14:  # members make the reference scan every subsequence
            t = rng.choice(pool)
            windows.append(theta.construct(theta.ThetaTriple(t.k, t.p, t.q, n)).window)
        for win in windows:
            w = SignedPermutation(win)
            assert classify_by_patterns(w)[1] == naive_first_pattern(w, PATTERNS)


def test_rank_six_witnesses_are_pinned():
    rows = []
    for win in iter_windows(6):
        hit = classify_by_patterns(SignedPermutation(win))[1]
        rows.append((win, None if hit is None else (hit[0].window, hit[1])))
    assert sum(hit is not None for _, hit in rows) == 46080 - 15964
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == W6_WITNESS_SHA256


@pytest.mark.parametrize("n", [100, 200, 400])
def test_pattern_route_at_large_rank(n):
    rng = random.Random(n)
    members = [
        SignedPermutation([-i for i in range(1, n + 1)]),
        SignedPermutation.identity(n),
        theta.construct(theta.ThetaTriple(*README_TRIPLE, n)),
    ]
    for t in rng.sample(list(theta.generate_triples(4)), 3):
        members.append(theta.construct(theta.ThetaTriple(t.k, t.p, t.q, n)))
    others = []
    for _ in range(3):
        values = rng.sample(range(1, n + 1), n)
        others.append(SignedPermutation(v if rng.random() < 0.5 else -v for v in values))
    for w in members + others:
        ok, hit = classify_by_patterns(w)
        assert ok is (w in members)
        assert ok is classify_by_triple(w)[0]
        assert ok or is_occurrence(w, *hit)


@given(signed_permutations(max_n=5))
@settings(max_examples=150)
def test_routes_agree_through_rank_five(w):
    by_pat = classify_by_patterns(w)[0]
    by_cor = classify_by_corners(w)[0]
    by_tri = classify_by_triple(w)[0]
    assert by_pat == by_cor == by_tri


@given(signed_permutations(max_n=6))
@settings(max_examples=150)
def test_pattern_and_triple_routes_agree(w):
    assert classify_by_patterns(w)[0] == classify_by_triple(w)[0]


# ---------------------------------------------------------------------------
# the literal corner criterion's overclaims


def test_corner_route_overclaims_are_pinned():
    for win in CORNER_ROUTE_OVERCLAIMS:
        w = SignedPermutation(win)
        cs = corners(w)
        # the literal criterion holds: nothing off the path but unessential
        assert records_of(cs, "other") == ()
        ok, stray = classify_by_corners(w)
        assert ok is False
        assert (stray.k, stray.p, stray.q) == (2, 3, -1)
        assert stray.kind is CornerClass.UNESSENTIAL
        ok, witness = classify_by_patterns(w)
        assert not ok and witness[0].window == (2, 1, 4, 3)
        assert classify_by_triple(w) == (False, None)


def test_overclaimed_windows_report_without_crashing():
    report = build_report(SignedPermutation([3, 5, 1, 6, -2, 4]))
    assert report.theta_vexillary is False
    assert report.verdicts == (False, False, False)
    assert len(set(report.verdicts)) == 1
    assert report.triple is None
    assert report.pattern_witness[1] == (1, 3, 4, 6)
    assert report.corner_witness[:3] == (2, 3, -1)


def test_report_agrees_with_the_public_routes():
    """`build_report` folds once for its corner and triple routes; each
    of its fields equals what the public route gives, on every window of
    W_1..W_5, on the W_6 members with OPTIONAL path corners and on the
    four windows of the erratum."""
    optional = [w for w in map(theta.construct, theta.generate_triples(6))
                if records_of(corners(w), "optional")]
    assert len(optional) == 1024
    windows = [SignedPermutation._of(win) for n in range(1, 6) for win in iter_windows(n)]
    windows += optional + list(map(SignedPermutation, CORNER_ROUTE_OVERCLAIMS))
    for w in windows:
        report = build_report(w)
        assert report.corner_records == corners(w).corners
        assert (report.verdicts[0], report.pattern_witness) == classify_by_patterns(w)
        assert (report.verdicts[1], report.corner_witness) == classify_by_corners(w)
        assert (report.verdicts[2], report.triple) == classify_by_triple(w)


# ---------------------------------------------------------------------------
# brute-force oracle


def test_oracle_matches_triple_route_exhaustively():
    for w in map(SignedPermutation, iter_windows(4)):
        assert oracle_is_theta_vexillary(w) == classify_by_triple(w)[0]


def test_all_positive_q_triples_classify_true():
    """Triples whose q stays positive form a subfamily; every window they
    construct must classify as theta-vexillary."""
    for t in theta.generate_triples(4):
        if all(v > 0 for v in t.q):
            w = theta.construct(t)
            assert classify_by_patterns(w)[0]
            assert classify_by_triple(w)[0]


# ---------------------------------------------------------------------------
# exhaustive verification


def test_verify_equivalence_counts_small_ranks():
    for n in (1, 2, 3, 4):
        summary = verify_equivalence(n)
        # the total is counted by the walk, |W_n| = 2^n n!
        assert summary.total == len(list(iter_windows(n))) == 2 ** n * factorial(n)
        assert summary.theta_vexillary == THETA_VEXILLARY_COUNTS[n]
        assert summary.mismatches == ()


def test_verify_summary_describe():
    assert (
        verify_equivalence(3).describe()
        == "48 total, 44 theta-vexillary, 0 mismatches"
    )


def test_verify_is_deterministic_across_jobs():
    assert verify_equivalence(4, jobs=3) == verify_equivalence(4, jobs=1)


def test_verify_caps_pool_size(monkeypatch):
    """--jobs asks for at most one process per CPU and per chunk; an
    in-process stand-in for the pool records what was asked for."""
    import multiprocessing

    from thetavex import classify

    asked = []

    class RecordingPool:
        def __init__(self, processes, *options):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return list(map(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 4)
    assert verify_equivalence(4, jobs=10**6) == verify_equivalence(4, jobs=1)
    # W_1 has two windows, so two chunks
    assert verify_equivalence(1, jobs=10**6) == verify_equivalence(1, jobs=1)
    assert asked == [4, 2]
    # an unknown CPU count counts as one: no pool at all
    monkeypatch.setattr(classify.os, "cpu_count", lambda: None)
    assert verify_equivalence(4, jobs=10**6) == verify_equivalence(4, jobs=1)
    assert asked == [4, 2]


def _worker_sigint(task):
    # a chunk that reports, as its one mismatch, whether its worker
    # ignores SIGINT
    import signal

    return 0, 0, [(signal.getsignal(signal.SIGINT) is signal.SIG_IGN,)]


def test_pool_workers_ignore_sigint(monkeypatch):
    """Ctrl-C signals the whole process group: the pool's workers ignore
    it, and only this process, which stops the pool, sees it."""
    import signal

    from thetavex import classify

    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(classify, "_verify_chunk", _worker_sigint)
    assert verify_equivalence(2, jobs=2).mismatches == ((True,),) * 4
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_corner_columns_computed_once_per_suffix(monkeypatch):
    """The sweep folds one corner column per (suffix, left letter) node
    of the mirrored walk, not one corner set per window, and none once
    the fold has a stray.  A fold at every node would take 48 + 192 +
    384 steps at mirrored depths 2..4 of W_4 plus column 1 per window,
    1,008; 32 of them come after the stray, so 976 are left.  Over W_5
    the same count is 10,160, and 8,836 are left.  A node with a stray
    whose suffix contains a pattern settles its subtree: none at W_4,
    320 windows at W_5, which run no triple route.  The triple route
    runs each path row's entry checks (`theta._entry_checks`, called by
    `theta._rows_pass`) and placement step once, at the node that
    appends the row, and each leaf's fill step once, over the whole NE
    path: a B2 row that ties passes, so the 3 members of W_4 and the 67
    of W_5 with OPTIONAL path corners take the same route as the rest
    (README, "Recovery", lemma 4), and the sweep calls no `_rebuilds`
    and so no `construct`.  It compares no step rank with n (lemma 1),
    so it calls no `theta._step_rank` either.  The sweep calls neither
    `corners`, the whole-window fold (`diagram._fold`) nor the pattern
    search; a report folds once for its corner and triple routes, calls
    no `corners`, and rebuilds its triple with one `construct`, whose
    five rows add five entry checks and five step ranks."""
    from thetavex import classify

    calls = {"classify": 0, "theta": 0, "fold": 0, "column": 0, "rebuilds": 0, "entry": 0,
             "place": 0, "step": 0, "find_pattern": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(classify, "corners", counting("classify", diagram.corners))
    monkeypatch.setattr(theta, "corners", counting("theta", diagram.corners))
    monkeypatch.setattr(classify, "_fold", counting("fold", diagram._fold))
    monkeypatch.setattr(classify, "_column", counting("column", diagram._column))
    monkeypatch.setattr(classify, "_rebuilds", counting("rebuilds", classify._rebuilds))
    monkeypatch.setattr(theta, "_entry_checks", counting("entry", theta._entry_checks))
    monkeypatch.setattr(theta, "_placement_run", counting("place", theta._placement_run))
    monkeypatch.setattr(theta, "_step_rank", counting("step", theta._step_rank))
    monkeypatch.setattr(classify, "find_pattern",
                        counting("find_pattern", classify.find_pattern))
    for n, columns, entry, place in ((4, 976, 468, 566), (5, 8836, 3728, 4281)):
        calls.update(column=0, entry=0, place=0)
        assert verify_equivalence(n).total == 2 ** n * factorial(n)
        assert calls == {"classify": 0, "theta": 0, "fold": 0, "column": columns,
                         "rebuilds": 0, "entry": entry, "place": place, "step": 0,
                         "find_pattern": 0}
    build_report(BIG)
    assert calls == {"classify": 0, "theta": 0, "fold": 1, "column": 8836, "rebuilds": 1,
                     "entry": 3728 + 5, "place": 4282, "step": 5, "find_pattern": 1}


def _windows_ending_with(n, suffix):
    # every window of W_n that ends with the suffix, each once
    left = [x for x in range(1, n + 1) if x not in map(abs, suffix)]
    for values in permutations(left):
        for signs in product((-1, 1), repeat=len(left)):
            yield (*(s * x for s, x in zip(signs, values)), *suffix)


def test_sweep_matches_corners_and_recover():
    """The sweep walks or settles every window of W_1..W_6 once.  A
    walked window gets the stray of `corners`, the verdict of
    `_rebuilds` on the triple of `recover`, and through W_5 the pattern
    verdict of `find_pattern`; every window that ends with a settled
    suffix contains a pattern, has the suffix's stray and no triple."""
    from thetavex import classify

    for n in range(1, 7):
        seen = []
        for v in (*range(-n, 0), *range(1, n + 1)):
            results = []
            classify._sweep(n, v, lambda *result: results.append(result))
            walked = [r for r in results if len(r[0]) == n]
            settled = [r for r in results if len(r[0]) < n]
            for win, contains, stray, member in walked:
                assert win[-1] == v
                seen.append(win)
                w = SignedPermutation._of(win)
                cs = corners(w)
                assert stray == cs.stray  # a record compares its kind too
                triple = theta.recover(w)
                assert triple == triple_of_records(cs, n)
                assert member is classify._rebuilds(win, triple)[0]
                if n <= 5:
                    assert contains == (find_pattern(w, PATTERNS) is not None)
            for suffix, contains, stray, member in settled:
                assert suffix[-1] == v and contains and stray is not None and member is False
                for win in _windows_ending_with(n, suffix):
                    seen.append(win)
                    w = SignedPermutation._of(win)
                    assert find_pattern(w, PATTERNS) is not None
                    assert corners(w).stray == stray
                    assert theta.recover(w) is None
        assert sorted(seen) == list(iter_windows(n))


def test_verify_matches_a_loop_over_the_three_routes():
    """`verify_equivalence` equals a plain loop that runs the three
    public classifiers on each window of W_1..W_6, sharing no code with
    the sweep."""
    for n in range(1, 7):
        total = members = 0
        mismatches = []
        for win in iter_windows(n):
            w = SignedPermutation._of(win)
            total += 1
            verdicts = {classify_by_patterns(w)[0], classify_by_corners(w)[0],
                        classify_by_triple(w)[0]}
            if len(verdicts) > 1:
                mismatches.append(win)
            else:
                members += verdicts.pop()
        assert verify_equivalence(n) == (n, total, members, tuple(mismatches))


def _path_rows(window):
    # the rows (k, p, q) of the whole NE path of a window, OPTIONAL
    # corners included
    return tuple(map(tuple, diagram._fold(window)[:3]))


def _misplacing(monkeypatch, targets, fill):
    # a placement run that negates the last value it places when its rows
    # are a target's whole NE path and it runs the fill step (fill) or
    # stops before it (not fill); the sweep's comparison with the letters
    # must then reject the target
    paths = {_path_rows(target) for target in targets}
    place = theta._placement_run

    def misplacing(k, p, q, lo, hi, window, used):
        filled = place(k, p, q, lo, hi, window, used)
        if (hi > len(k)) == fill and (tuple(k), tuple(p), tuple(q)) in paths:
            window[filled[-1]] = -window[filled[-1]]
        return filled

    monkeypatch.setattr(theta, "_placement_run", misplacing)


@pytest.mark.parametrize("target, members", [((2, -1, 3), 43), ((-1, 3, 2), 44)],
                         ids=["member", "non-member"])
def test_forced_route_disagreement_is_a_mismatch(monkeypatch, target, members):
    """A verdict forced on one window of W_3 disagrees with the other two
    routes there: that window, and only it, is a mismatch, and the member
    count leaves it out.  The member's triple route fails the row check
    (`theta._rows_pass`) of its one path row, 1; 2; 1, which the sweep
    runs at the node of column 2.  The non-member has a stray, as all of
    W_3's do, so its triple verdict is the stray's and no check of the
    triple runs; its pattern test misses instead, with the window itself,
    the pattern -1 3 2, left out of the table the sweep reads."""
    from thetavex import classify
    from thetavex.sigperm import PatternTable

    if target == (2, -1, 3):  # the member
        rows = _path_rows(target)
        rows_pass = theta._rows_pass

        def rejecting(k, p, q, a, R, lo, *, ties=False):
            if (tuple(k), tuple(p), tuple(q)) == rows:
                return 0
            return rows_pass(k, p, q, a, R, lo, ties=ties)

        monkeypatch.setattr(theta, "_rows_pass", rejecting)
    else:
        monkeypatch.setattr(classify, "MIRRORED", PatternTable(
            p for p in classify.MIRRORED if p.window != target[::-1]))
    assert verify_equivalence(3) == (3, 48, members, (target,))


def test_forced_misplacement_is_a_mismatch(monkeypatch):
    """A placement step of the member 2 -1 3's one path row, which the
    sweep runs at the node of column 2 and compares there with the
    letters from position 2 on, places a wrong value: that window, and
    only it, is a mismatch."""
    _misplacing(monkeypatch, [(2, -1, 3)], fill=False)
    assert verify_equivalence(3) == (3, 48, 43, ((2, -1, 3),))


def test_forced_misplacement_of_an_optional_member_is_a_mismatch(monkeypatch):
    """The member 4 -2 1 3 of W_4 has the NE path 1 2 3; 2 2 2; 2 -1 -3,
    whose row 2 ties B2 and is OPTIONAL, so its triple is 1 3; 2 2; 2 -3.
    The sweep checks and places the whole path and compares the fill
    step with the letters at the leaf: when that fill step places a wrong
    value, the window, and only it, is a mismatch.  So a member with
    OPTIONAL corners takes the one triple route of the sweep, not a
    separate rebuild of its triple."""
    target = (4, -2, 1, 3)
    assert _path_rows(target) == ((1, 2, 3), (2, 2, 2), (2, -1, -3))
    assert theta.recover(SignedPermutation(target)) == ((1, 3), (2, 2), (2, -3), 4)
    _misplacing(monkeypatch, [target], fill=True)
    assert verify_equivalence(4) == (4, 384, 285, (target,))


@pytest.mark.parametrize("jobs", [1, 2])
def test_mismatches_are_reported_in_window_order(monkeypatch, jobs):
    """Mismatches from the chunks of the last letters 3 and -3 of W_3
    reach the merge in the reverse of window order and come out sorted,
    whatever the worker count (the pool's workers are forked with the
    placement run that misplaces the two members' fill steps, which each
    leaf compares with its free positions' letters)."""
    targets = ((1, 2, 3), (2, 1, -3))
    _misplacing(monkeypatch, targets, fill=True)
    assert verify_equivalence(3, jobs=jobs) == (3, 48, 42, targets)


def test_walk_verdicts_match_find_pattern():
    """The pruned walk (a prefix's verdict is its parent's, or the
    anchored test of its last letter) keeps exactly the windows of
    W_1..W_6 that the full search finds avoiding, in window order."""
    for n in range(1, 7):
        assert list(iter_windows(n, (), PATTERNS)) == [
            win for win in iter_windows(n)
            if find_pattern(SignedPermutation._of(win), PATTERNS) is None]
    # a prefix is decided on the way too: -1 3 2 is itself a pattern
    assert list(iter_windows(5, (-1, 4, 2), PATTERNS)) == []


def test_pruned_runs_glue_to_the_pruned_stream():
    """The 2n pruned runs of the one-letter prefixes follow each other,
    in prefix order, as the pruned stream of W_n; an avoiding two-letter
    prefix gives exactly the avoiders that begin with it."""
    for n in range(1, 7):
        full = list(iter_windows(n, (), PATTERNS))
        glued = [win for v in range(-n, n + 1) if v
                 for win in iter_windows(n, (v,), PATTERNS)]
        assert glued == full
    # full is now the pruned stream of W_6
    two = list(iter_windows(6, (2, -1), PATTERNS))
    assert two and two == [win for win in full if win[:2] == (2, -1)]


def test_pattern_table_compiled_once(monkeypatch):
    """The table's letter steps are compiled when it is built, twice
    per pattern (its one-path tree for `find_pattern` and its rotated
    steps in the walk's anchored trees), not once per window; a plain
    sequence is compiled on entry."""
    from thetavex import classify, sigperm

    calls = []
    compile_steps = sigperm._letter_steps

    def counting(pat):
        calls.append(pat)
        return compile_steps(pat)

    monkeypatch.setattr(sigperm, "_letter_steps", counting)
    monkeypatch.setattr(classify, "PATTERNS", sigperm.PatternTable(PATTERNS))
    assert classify.PATTERNS == PATTERNS
    assert len(calls) == 2 * len(PATTERNS) == 26
    assert verify_equivalence(4).theta_vexillary == THETA_VEXILLARY_COUNTS[4]
    assert sum(1 for _ in enumerate_theta_vexillary(4)) == THETA_VEXILLARY_COUNTS[4]
    assert build_report(BIG).theta_vexillary
    assert len(calls) == 26
    assert sigperm.find_pattern(BIG, list(PATTERNS)) is None
    assert len(calls) == 52


@pytest.mark.parametrize("jobs", [0, -5, True, 2.0, "2", None])
def test_verify_rejects_bad_jobs(jobs):
    with pytest.raises(ValueError, match="jobs must be a positive integer"):
        verify_equivalence(2, jobs)


def test_reports_and_summaries_are_named_tuples():
    report = build_report(BIG)
    assert report == tuple(report) and len(set(report.verdicts)) == 1
    assert verify_equivalence(2) == (2, 8, 8, ())


def test_verify_respects_rank_guard():
    with pytest.raises(RankTooLargeError, match="allow-large"):
        verify_equivalence(9)


@pytest.mark.parametrize("call", [
    lambda: verify_equivalence(True),
    lambda: verify_equivalence(3.0),
    lambda: next(enumerate_theta_vexillary(2.0)),
    lambda: next(theta.generate_triples(3.0)),
], ids=["verify-bool", "verify-float", "enumerate-float", "generate-float"])
def test_rank_must_be_an_int(call):
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        call()


# ---------------------------------------------------------------------------
# enumeration and reporting


def test_enumerate_matches_verify_count():
    windows = [w.window for w in enumerate_theta_vexillary(3)]
    assert len(windows) == THETA_VEXILLARY_COUNTS[3]
    assert windows == sorted(windows)
    assert (1, 2, 3) in windows and (-2, 3, 1) not in windows


def test_report_json_golden():
    obj = build_report(BIG).to_json()
    assert obj == {
        "schema": "1",
        "window": [10, 1, 5, 3, -2, -4, 6, -9, -8, -7],
        "n": 10,
        "theta_vexillary": True,
        "triple": {
            "k": [3, 4, 5, 6, 9],
            "p": [8, 6, 5, 4, 2],
            "q": [7, 4, 2, -3, -6],
            "n": 10,
        },
        "corners": [
            {"k": 3, "p": 8, "q": 7, "class": "ne_path"},
            {"k": 4, "p": 6, "q": 4, "class": "ne_path"},
            {"k": 5, "p": 5, "q": 2, "class": "ne_path"},
            {"k": 6, "p": 4, "q": -3, "class": "ne_path"},
            {"k": 6, "p": 2, "q": -1, "class": "unessential"},
            {"k": 7, "p": 2, "q": -3, "class": "optional"},
            {"k": 9, "p": 2, "q": -6, "class": "ne_path"},
        ],
        "pattern_witness": None,
    }
    json.dumps(obj)  # must be serializable as-is


def test_report_json_for_non_member():
    obj = build_report(SignedPermutation([2, 1, 4, 3])).to_json()
    assert obj["theta_vexillary"] is False
    assert obj["triple"] is None
    assert obj["pattern_witness"] == {
        "pattern": [2, 1, 4, 3],
        "indices": [1, 2, 3, 4],
    }


@given(signed_permutations(max_n=4))
@settings(max_examples=60)
def test_report_verdict_consistency(w):
    report = build_report(w)
    assert report.theta_vexillary == report.verdicts[2]
    assert (report.triple is not None) == report.theta_vexillary
    if report.theta_vexillary:
        assert theta.construct(report.triple) == w
        assert report.pattern_witness is None
