"""Shared strategies, brute-force oracles, and the acceptance summary."""

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

import hypothesis.strategies as st

from thetavex import diagram, theta
from thetavex.sigperm import SignedPermutation, find_pattern, iter_windows

_ACCEPTANCE_OUTCOMES = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _ACCEPTANCE_OUTCOMES[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    """One line per acceptance criterion, after the regular test output."""
    if not _ACCEPTANCE_OUTCOMES:
        return
    word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_OUTCOMES):
        name = nodeid.split("::")[-1]
        body = name.removeprefix("test_criterion_")
        num, _, rest = body.partition("_")
        outcome = _ACCEPTANCE_OUTCOMES[nodeid]
        terminalreporter.write_line(
            f"criterion {num} ({rest.replace('_', ' ')}): "
            f"{word.get(outcome, outcome.upper())}"
        )


@st.composite
def signed_permutations(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    values = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.tuples(*([st.sampled_from((1, -1))] * n)))
    return SignedPermutation([s * v for s, v in zip(signs, values)])


def naive_find_pattern(w, pattern):
    """All-subsequences scan; returns the first (lex-least) witness or None.

    Kept deliberately independent of the library's DFS matcher so the two
    can cross-check each other.
    """
    n, m = w.n, pattern.n
    pat = pattern.window
    for combo in itertools.combinations(range(1, n + 1), m):
        vals = [w(i) for i in combo]
        if any((v > 0) != (pv > 0) for v, pv in zip(vals, pat)):
            continue
        ok = True
        for x in range(m):
            for y in range(x + 1, m):
                if (abs(vals[x]) < abs(vals[y])) != (abs(pat[x]) < abs(pat[y])):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return combo
    return None


def naive_first_pattern(w, patterns):
    """(pattern, witness) for the first pattern, in sequence order, that
    `naive_find_pattern` finds in w, or None: the reference for the
    library's one-call-per-window matcher."""
    for pat in patterns:
        witness = naive_find_pattern(w, pat)
        if witness is not None:
            return pat, witness
    return None


def contains_pattern(w, pattern):
    """True iff some subsequence of the window realizes the pattern: the
    one-pattern question put to the library's matcher."""
    return find_pattern(w, (pattern,)) is not None


def rank(w, p, q):
    """Number of i in [p, n] with w(i) <= -q.

    Counts the dots weakly southwest of the corner position (p, q); by
    antisymmetry it also equals #{i <= -p | w(i) >= q}.
    """
    n = w.n
    if not 1 <= p <= n:
        raise ValueError(f"p must be in [1, {n}], got {p}")
    if not -n <= q <= n:
        raise ValueError(f"q must be in [{-n}, {n}], got {q}")
    return sum(1 for i in range(p, n + 1) if w(i) <= -q)


@dataclass(frozen=True)
class TripleDerived:
    """Cut index a, the map R on [a, s], and the map L on [a, s].

    L[i] is None exactly when R[i] = a - 1, i.e. when the candidate
    range for L is empty.
    """

    a: int
    R: Dict[int, int]
    L: Dict[int, Optional[int]]


def derive(t):
    """Compute a, R, and L, the first two by `diagram._cut_and_r`.
    Requires A1 and A2 (nonzero q entries and no pair q_i = -q_j, without
    which R is not well defined); when either fails, raises
    InvalidTripleError worded as `validate` words it."""
    a, R = diagram._cut_and_r(t.q)
    if 0 in t.q or None in R.values():
        raise theta.InvalidTripleError(theta.validate(t).failure_message())
    return TripleDerived(a, R, {i: theta._l_index(t.k, t.q, a, r) for i, r in R.items()})


@dataclass(frozen=True)
class ExtendedDiagram:
    """Dots, crossed boxes, and surviving boxes on the (2n+1) x n grid.

    `boxes` is everything not weakly south or east of a dot; removing the
    crossed boxes leaves `diagram_boxes`, whose cardinality equals the
    length of the permutation.
    """

    n: int
    dots: FrozenSet[Tuple[int, int]]
    crosses: FrozenSet[Tuple[int, int]]
    boxes: FrozenSet[Tuple[int, int]]

    @property
    def diagram_boxes(self):
        return self.boxes - self.crosses


def build_extended_diagram(w):
    """The extended diagram of w as sets of (row, col) cells, built cell
    by cell from the definition: the reference that the diagram facts
    and `render_extended`'s per-cell rule are checked against."""
    n = w.n
    dots = frozenset((w(i), i) for i in range(-n, 0))
    crosses = set()
    for j in range(1, n + 1):
        # the dot in column -j sits at row -w(j); its crosses fill row w(j)
        for b in range(-j, 0):
            crosses.add((w(j), b))
    winv = w.inverse()
    boxes = set()
    for r in range(-n, n + 1):
        for c in range(-n, 0):
            if w(c) > r and winv(r) > c:
                boxes.add((r, c))
    return ExtendedDiagram(n, dots, frozenset(crosses), frozenset(boxes))


def reflected(c):
    """The triple of corner c reflected through the center of the full
    form's diagram: (k + p + q - 1, 1 - p, 1 - q)."""
    return (c.k + c.p + c.q - 1, 1 - c.p, 1 - c.q)


def records_of(cs, *kinds):
    """The records of corner set cs whose kind is one of `kinds`
    (CornerClass members or values), in order: ("ne_path", "optional")
    gives the geometric NE path."""
    kinds = set(map(diagram.CornerClass, kinds))
    return tuple(c for c in cs.corners if c.kind in kinds)


def triple_of_records(cs, n):
    """The triple of the NE_PATH records of corner set cs at rank n, or
    None when cs has a stray: the triple that the displayed records
    show, read independently of the fold's rows that `recover` reads."""
    if cs.stray is not None:
        return None
    kept = records_of(cs, "ne_path")
    k, p, q, _ = zip(*kept) if kept else ((),) * 4
    return theta.ThetaTriple(k, p, q, n)


def full_corners(w):
    """Brute-force SE corners (k, p, q) of the full form's diagram on
    [-n, n], p <= 0 included: every box (a, b) where w drops across
    column b and its inverse v drops across row a, i.e.
    w(b) > a >= w(b+1) and v(a) > b >= v(a+1), at position
    (p, q) = (-b, a + 1) with k counted as #{i >= p | w(i) <= -q}.
    Kept independent of the library's descent-driven `corners`.
    Sorted p desc, q desc."""
    n = w.n
    v = w.inverse()
    found = []
    for a in range(-n - 1, n + 1):
        for b in range(-n - 1, n + 1):
            if w(b) > a >= w(b + 1) and v(a) > b >= v(a + 1):
                p, q = -b, a + 1
                k = sum(1 for i in range(p, n + 1) if w(i) <= -q)
                found.append(diagram.CornerRecord(k, p, q))
    found.sort(key=lambda t: (-t.p, -t.q))
    return tuple(found)


def mirrored_construction(t):
    """The paper's dual construction: the inverse of the permutation of
    t, built directly by the placement steps of the swapped triple
    (k, q, p) over the full form on [-n, n], with 0 at 0 and each entry
    v at z mirrored to -v at -z.  Step i places the k_i - k_{i-1}
    largest unplaced values at or below -p_i (all negative), increasing,
    into the first free positions from q_i on; a last fill puts the
    unplaced positive values, increasing, into the free positive
    positions.  None when a step runs short.  Kept independent of the
    library's placement run, which builds only the forward window."""
    n = t.n
    full = {0: 0}
    prev_k = 0
    for k_i, q_i, p_i in zip(t.k, t.q, t.p):
        count = k_i - prev_k
        values = [v for v in range(-p_i, -n - 1, -1) if v not in full.values()]
        positions = [z for z in range(q_i, n + 1) if z not in full]
        if len(values) < count or len(positions) < count:
            return None
        for v, z in zip(sorted(values[:count]), positions):
            full[z] = v
            full[-z] = -v
        prev_k = k_i
    rest = zip([v for v in range(1, n + 1) if v not in full.values()],
               [z for z in range(1, n + 1) if z not in full])
    for v, z in rest:
        full[z] = v
        full[-z] = -v
    return SignedPermutation([full[z] for z in range(1, n + 1)])


def reference_place(count, bound, start, n, mask):
    """One placement step by simulation, without side effects.  `mask`
    has bit |v| set for each absolute value already placed and bit n + z
    for each position already filled.  The values are the `count`
    largest v <= bound of the sign of `bound`, v >= -n, with bit |v|
    clear, in increasing order; the positions are the first `count`
    positions z in [start, n] with bit n + z clear.  Returns (values,
    positions), or None when either runs short."""
    values = []
    floor = -n if bound < 0 else 1
    v = bound
    while len(values) < count:
        if v < floor:
            return None
        if not mask >> abs(v) & 1:
            values.append(v)
        v -= 1
    values.reverse()
    positions = []
    taken = mask >> n
    z = start
    while len(positions) < count:
        if z > n:
            return None
        if not taken >> z & 1:
            positions.append(z)
        z += 1
    return values, positions


def reference_placement_run(k, p, q, n):
    """(window, steps) of the placement steps of (k, p, q) at rank n,
    simulated step by step with `reference_place`, stopping before the
    first step that runs short: s + 1 steps mean the window is full, and
    fewer name the step that ran short.  The reference for the library's
    `_placement_run`, which places only what the closed-form rank check
    has found buildable and keeps no steps: the tests read each step's
    placements from here."""
    window = [0] * (n + 1)
    mask = 0
    steps = []
    prev_k = 0
    for k_i, p_i, q_i in zip(k, p, q):
        placed = reference_place(k_i - prev_k, -q_i, p_i, n, mask)
        if placed is None:
            return window, steps
        for v, z in zip(*placed):
            window[z] = v
            mask |= 1 << abs(v) | 1 << n + z
        steps.append(placed)
        prev_k = k_i
    values = [v for v in range(1, n + 1) if not mask >> v & 1]
    positions = [z for z in range(1, n + 1) if not mask >> n + z & 1]
    for v, z in zip(values, positions):
        window[z] = v
    steps.append((values, positions))
    return window, steps


def reference_min_rank(t):
    """The least rank at which every step of `reference_placement_run`
    places, found by trying each rank from the one that fits the entries
    up to that plus k_s; None when none does.  The construction is
    stable under rank growth, so the first rank that places is the
    least.  The reference for the library's closed form `_min_rank`."""
    low = theta._fitting_rank(t.k, t.p, t.q)
    for n in range(low, low + (t.k[-1] if t.k else 0) + 1):
        if len(reference_placement_run(t.k, t.p, t.q, n)[1]) > t.s:
            return n
    return None


def placed_coherence_failure(q, a, R, step_values, i):
    """The coherence check at an index i >= a read off the placed
    values: the steps R(i)+1 .. a-1 must place values strictly above
    q_i.  `step_values[j - 1]` holds the values of step j in increasing
    order.  Returns the first step j that places a value at or below
    q_i, or None.  The reference for the library's exact C2, which reads
    k and q alone."""
    return next((j for j in range(R[i] + 1, a) if step_values[j - 1][0] <= q[i - 1]), None)


def compare_coherence_checks(n):
    """(checks, failures, disagreements) of the C2 row of
    `theta._entry_checks` against `placed_coherence_failure`, over every
    index i >= a of every (k, q) with entries bounded by n for which A1
    and A2 hold, with steps 1..a-1 placed at rank 2n by
    `reference_placement_run`, where none runs short (C2 does not read
    p).  A disagreement is a (k, q, i) where the
    two differ in verdict, or where the row fails with another bound
    than b(L(i)) when b(L(i)) > -q_i, else b(j) for the first step j
    that places at or below q_i, where b(j) = q_j + k_j - k_{R(i)}.
    The first failing step is the one to check: once a step has placed
    at or below q_i, a later j may fail the inequality and yet place
    above q_i, as L(i) = 3 does for k = 1 3 4 5, q = 3 3 1 -4."""
    q_values = [v for v in range(n, -n - 1, -1) if v != 0]
    checks = failures = 0
    disagreements = []
    for s in range(1, n + 1):
        for k in itertools.combinations(range(1, n + 1), s):
            for q in itertools.combinations_with_replacement(q_values, s):
                if any(-v in q for v in q if v > 0):
                    continue  # A2
                a, R = theta._cut_and_r(q)
                steps = reference_placement_run(k[:a - 1], (1,) * (a - 1), q[:a - 1], 2 * n)[1]
                values = [v for v, _ in steps]
                for i in range(a, s + 1):
                    placed = placed_coherence_failure(q, a, R, values, i)
                    row = next(row for row in theta._entry_checks(k, (1,) * s, q, a, R, i)
                               if row[0] == "C2")
                    checks += 1
                    failures += not row[1]
                    if row[1] or placed is None:
                        agree = row[1] and placed is None
                    else:
                        k_r = theta._k_at(k, R[i])
                        j = theta._l_index(k, q, a, R[i])
                        if q[j - 1] + k[j - 1] - k_r <= -q[i - 1]:
                            j = placed
                        agree = row[3] == (-q[i - 1], q[j - 1] + k[j - 1] - k_r)
                    if not agree:
                        disagreements.append((k, q, i))
    return checks, failures, disagreements


def _path_folds(n):
    """Each window of W_n with its column fold (`diagram._column`), p = n
    down to 1: yields (window, p, K, P, Q, off, stray, s) after the step
    of column p, where the path rows K, P, Q held s rows before it.  The
    lists are the fold's own, valid until the next step."""
    for win in iter_windows(n):
        ext = (0, *win)
        K, P, Q, off = [], [], [], []
        tail, stray = 0, None
        for column in range(n, 0, -1):
            s = len(Q)
            tail, stray = diagram._column(n, column, ext[column], ext[column - 1],
                                          tail, stray, K, P, Q, off)
            yield win, column, K, P, Q, off, stray, s


@functools.lru_cache(maxsize=None)
def path_lemma_checks(n):
    """The checks of README "Recovery" lemmas 1-5 on the windows of W_n,
    fed from one pass of `_path_folds`: ((prefixes, violations), (tied
    rows, windows with one, violations), (corners, corners with several
    row mates, disagreements)), as `_prefix_violations`,
    `_tie_violation` and `_forced_disagreements` count them.  Cached per
    rank, as the three tests of the lemmas read one pass."""
    prefixes, ties, forced = [0, []], [0, 0, []], [0, 0, []]
    for win, column, K, P, Q, off, stray, s in _path_folds(n):
        prefixes[0] += len(Q) - s
        prefixes[1] += _prefix_violations(win, n, K, P, Q, s)
        if column > 1 or stray is not None:
            continue
        found, several, disagreements = _forced_disagreements(win, K, P, Q, off)
        forced[0] += found
        forced[1] += several
        forced[2] += disagreements
        stray, optional = diagram._label_by_rank(K, P, Q, off)
        if stray is None:
            tied, violations = _tie_violation(win, n, K, P, Q, optional)
            ties[0] += tied
            ties[1] += bool(tied)
            ties[2] += violations
    return tuple(prefixes), tuple(ties), tuple(forced)


def _prefix_violations(win, n, K, P, Q, s):
    """The (window, i) among the NE path prefixes rows 1..i, i > s, in
    the order the column fold (`diagram._column`) appends them, whose
    last row has a step rank above n or whose A3 or B3 row fails, with a
    and R from `diagram._cut_and_r`.  README "Recovery" proves there are
    none (lemmas 1-3)."""
    violations = []
    for i in range(s + 1, len(Q) + 1):
        k, p, q = K[:i], P[:i], Q[:i]
        a, R = diagram._cut_and_r(q)
        if theta._step_rank(k[-1], p[-1], q[-1]) > n or not all(
                row[1] for row in theta._closing_checks(k, p, q, a, R)):
            violations.append((win, i))
    return violations


def _tie_violation(win, n, K, P, Q, optional):
    """(tied rows, violations) on the whole NE path of a window without a
    stray, whose OPTIONAL indices `diagram._label_by_rank` gives as
    `optional`.  A tied row is a B2 row of `theta._entry_checks` that fails
    with equality.  The one violation would be (window, failed, tied,
    optional), where the path fails any other check (A1, A2, a row of
    `_entry_checks`, A3 or B3), where the tied indices are not the
    OPTIONAL ones, or where the placement
    steps of the whole path (`theta._placement_run`) do not build the
    window.  README "Recovery" proves there is none (lemma 4)."""
    a, R = diagram._cut_and_r(Q)
    if 0 in Q or None in R.values():
        return 0, [(win, ["A1 or A2"], [], optional)]
    failed, tied = [], []
    for i in range(1, len(Q) + 1):
        for row in theta._entry_checks(K, P, Q, a, R, i):
            if row[1]:
                continue
            if row[0] == "B2" and row[3][0] == row[3][1]:
                tied.append(row[2][0] - 1)  # B2 at i - 1, a 0-based path index
            else:
                failed.append((row[0], i))
    failed += [row[0] for row in theta._closing_checks(K, P, Q, a, R) if not row[1]]
    window = [0] * (n + 1)
    theta._placement_run(K, P, Q, 0, len(Q) + 1, window, [False] * (n + 1))
    if failed or tied != list(optional) or tuple(window[1:]) != win:
        return len(tied), [(win, failed, tied, optional)]
    return len(tied), []


def _forced_disagreements(win, K, P, Q, off):
    """(corners, corners with several row mates, disagreements) over the
    unessential corners of a window with no OTHER corner.  Each corner
    u = (k, p, q) is tested in the paper's form: forced when some path
    row i >= a with p_i = p and q_i < q and some row mate j < a, with
    q_j = 1 - q, have q - q_i = k_i - k + k_j - k_{R(i)}, with a and R(i)
    counted here.  A disagreement is a (window, u) where that verdict is
    not the library's, read as `diagram._label_by_rank` on u alone (u is
    its stray exactly when it is not forced).  README "Recovery" proves
    there are none (lemma 5)."""
    several = 0
    disagreements = []
    a = 1 + sum(1 for v in Q if v > 0)
    for u in off:
        k, p, q = u.k, u.p, u.q
        mates = [j for j in range(1, a) if Q[j - 1] == 1 - q]
        forced = False
        for i in range(a, len(Q) + 1):
            r = sum(1 for v in Q if v > -Q[i - 1])  # R(i)
            k_r = K[r - 1] if r else 0
            forced |= P[i - 1] == p and Q[i - 1] < q and any(
                q - Q[i - 1] == K[i - 1] - k + K[j - 1] - k_r for j in mates)
        if forced != (diagram._label_by_rank(K, P, Q, [u])[0] is None):
            disagreements.append((win, u))
        several += len(mates) > 1
    return len(off), several, disagreements


def reference_inverse(w):
    """The inverse v of w by its definition, v(w(i)) = i on the full
    form, built through the checked constructor."""
    preimage = {w(i): i for i in range(-w.n, w.n + 1)}
    return SignedPermutation([preimage[j] for j in range(1, w.n + 1)])


@functools.lru_cache(maxsize=None)
def constructible_windows(n):
    """Windows of every generated triple of rank n, cached per rank so
    that exhaustive cross-checks pay the generation cost once."""
    return frozenset(theta.construct(t).window for t in theta.generate_triples(n))


def reference_triple_route(w):
    """(True, triple) when the triple of `theta.recover` constructs w,
    else (False, None), a refusal of `theta.construct` counting as no:
    the triple route's verdict by the whole construction, kept apart
    from the NE path check that the library's triple routes share."""
    t = theta.recover(w)
    try:
        if t is not None and theta.construct(t).window == w.window:
            return True, t
    except (theta.InfeasibleRankError, theta.InvalidTripleError):
        pass
    return False, None


def oracle_is_theta_vexillary(w):
    """Brute-force oracle: some generated triple of rank n constructs w.
    Independent of `recover`."""
    return w.window in constructible_windows(w.n)


def is_occurrence(w, pattern, positions):
    """True iff the 1-based positions pick out an occurrence of the
    pattern in w: strictly increasing, in range, with the pattern's signs
    and the pairwise order of its absolute values."""
    pat = pattern.window
    if len(positions) != len(pat) or list(positions) != sorted(set(positions)):
        return False
    if positions and not 1 <= positions[0] <= positions[-1] <= w.n:
        return False
    vals = [w(i) for i in positions]
    return all((v > 0) == (pv > 0) for v, pv in zip(vals, pat)) and all(
        (abs(vals[x]) < abs(vals[y])) == (abs(pat[x]) < abs(pat[y]))
        for x in range(len(pat))
        for y in range(x + 1, len(pat))
    )


def descents(w):
    """Positions d in [0, n-1] with w(d) > w(d+1) in the full form; d = 0
    is a descent exactly when w(1) < 0."""
    return frozenset(d for d in range(w.n) if w(d) > w(d + 1))


def length_by_descent_stripping(w):
    """Independent length oracle: apply simple reflections at descents
    until the identity is reached; the number of steps is the length."""
    win = list(w.window)
    steps = 0
    while True:
        if win[0] < 0:
            win[0] = -win[0]
            steps += 1
            continue
        for d in range(len(win) - 1):
            if win[d] > win[d + 1]:
                win[d], win[d + 1] = win[d + 1], win[d]
                steps += 1
                break
        else:
            return steps


def reference_optional_corners(w, t, cs=None):
    """Corners of w that the triple skips: same column as a later triple
    corner, one row below the reflection of an earlier one.

    A corner position (p, q) not in the triple is optional when there
    are indices a <= i <= s and 1 <= j < a with p = p_i and
    q_{i-1} >= q = -q_j + 1 > q_i.  Each one must also satisfy the rank
    relation q - q_i = k_i - k + k_j - k_{R(i)}; this is checked, not
    used as a filter, and a corner that breaks it raises ValueError.
    Kept as an independent reference for the OPTIONAL labels that
    `diagram.corners` assigns where the B2 slack of a path row above the
    next one, the difference of their `diagram._level`s, is 0.
    """
    if cs is None:
        cs = diagram.corners(w)
    if t.s == 0:
        return ()
    der = derive(t)
    a = der.a
    in_triple = set(zip(t.p, t.q))
    found = []
    for rec in cs.corners:
        if (rec.p, rec.q) in in_triple:
            continue
        for i in range(a, t.s + 1):
            if rec.p != t.p[i - 1]:
                continue
            q_prev = t.q[i - 2] if i >= 2 else None
            if q_prev is not None and not (q_prev >= rec.q):
                continue
            if not rec.q > t.q[i - 1]:
                continue
            hit_js = [j for j in range(1, a) if rec.q == -t.q[j - 1] + 1]
            if not hit_js:
                continue
            k_r = 0 if der.R[i] == 0 else t.k[der.R[i] - 1]
            if not any(
                rec.q - t.q[i - 1] == t.k[i - 1] - rec.k + t.k[j - 1] - k_r
                for j in hit_js
            ):
                raise ValueError(
                    f"optional corner ({rec.k}, {rec.p}, {rec.q}) violates "
                    f"the rank relation"
                )
            found.append(rec)
            break
    return tuple(found)


def assert_structural_facts(t):
    """Every structural fact the library promises for one valid triple,
    checked against its constructed permutation at the triple's own rank.

    Used both by the spot checks in test_theta.py and by the exhaustive
    sweep in test_acceptance.py, so a regression shows up in both.
    """
    w = theta.construct(t)
    steps = reference_placement_run(t.k, t.p, t.q, t.n)[1]
    winv = w.inverse()
    s = t.s
    a = derive(t).a
    full = {(c.p, c.q) for c in full_corners(w)}
    d = build_extended_diagram(w)

    # box count realizes the length
    assert len(d.diagram_boxes) == w.length()

    # descent set of w is read off p, with -q wedged into each drop
    assert descents(w) == frozenset(p - 1 for p in t.p)
    for i in range(1, s + 1):
        pi, qi = t.p[i - 1], t.q[i - 1]
        assert w(pi - 1) > -qi >= w(pi)

    # descent set of the inverse is read off q, split at the sign cut
    assert descents(winv) == frozenset(
        (t.q[i - 1] - 1 if i < a else -t.q[i - 1]) for i in range(1, s + 1)
    )
    for i in range(1, s + 1):
        pi, qi = t.p[i - 1], t.q[i - 1]
        if i < a:
            assert winv(qi - 1) > -pi >= winv(qi)
        else:
            assert winv(-qi) > pi - 1 >= winv(-qi + 1)

    # the triple's boxes, and their reflections, are SE corners of the
    # full form
    for i in range(1, s + 1):
        pi, qi = t.p[i - 1], t.q[i - 1]
        assert (pi, qi) in full
        assert (-pi + 1, -qi + 1) in full

    # k_i is both the rank at (p_i, q_i) and the region's dot count
    for ki, pi, qi in zip(t.k, t.p, t.q):
        assert rank(w, pi, qi) == ki
        assert sum(1 for r, c in d.dots if r >= qi and c <= -pi) == ki

    # step i places inside its own region and outside the previous one;
    # the finishing step stays outside the last region
    for i in range(1, s + 1):
        pi, qi = t.p[i - 1], t.q[i - 1]
        for v, z in zip(*steps[i - 1]):
            assert v <= -qi and z >= pi
            if i >= 2:
                assert not (v <= -t.q[i - 2] and z >= t.p[i - 2])
    if s:
        for v, z in zip(*steps[s]):
            assert not (v <= -t.q[-1] and z >= t.p[-1])

    # the triple's positions sit on the NE path with matching rank values
    cs = diagram.corners(w)
    ne = {(c.p, c.q): c.k for c in records_of(cs, "ne_path", "optional")}
    for ki, pi, qi in zip(t.k, t.p, t.q):
        assert ne.get((pi, qi)) == ki

    # exclusion: under each strict drop of p, the staircase region holds
    # only triple positions -- and exactly one when q also drops strictly
    positions = {(c.p, c.q) for c in cs.corners}
    tau = set(zip(t.p, t.q))
    for i in range(1, s):
        if t.p[i - 1] <= t.p[i]:
            continue
        region = {
            (p, q) for (p, q) in positions if p > t.p[i] and q <= t.q[i - 1]
        }
        assert region <= tau
        if i == 1 or t.q[i - 2] > t.q[i - 1]:
            assert region == {(t.p[i - 1], t.q[i - 1])}
    if s:
        assert {(p, q) for (p, q) in positions if q <= t.q[-1]} <= tau

    # corner decomposition: triple, optional, unessential -- disjoint,
    # exhaustive, with the first two making up the NE path
    opts = {(c.p, c.q) for c in reference_optional_corners(w, t, cs)}
    une = {(c.p, c.q) for c in records_of(cs, "unessential")}
    assert records_of(cs, "other") == ()
    assert tau | opts == set(ne)
    assert not (tau & opts) and not (tau & une) and not (opts & une)
    assert tau | opts | une == positions
