"""Triples (k, p, q) and everything built from them.

A triple consists of three s-tuples: k strictly increasing, p weakly
decreasing and positive, q weakly decreasing.  The tuple shapes are
enforced on construction; the eight semantic conditions (A1-A3, B1-B3,
C1-C2) are checked by `validate`, which reports every verdict rather
than raising, and by `_rows_pass`, which stops at the first failure.

From a valid triple the construction algorithm produces a signed
permutation in s+1 placement steps over the window positions 1..n;
`construct_inverse` inverts the permutation it builds.  `recover` walks
the other direction, from a permutation back to its unique triple, via
the corner taxonomy.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .diagram import _cut_and_r, _fold, _k_at, _level, _r_index
from .diagram import corners  # noqa: F401  (traced by name by bench/run.py)
from .sigperm import SignedPermutation, _parse_ints, check_rank_guard


class InvalidTripleError(ValueError):
    """A triple failed one of the eight conditions where validity is required."""


class InfeasibleRankError(ValueError):
    """The ambient rank is too small for the construction to finish."""

    def __init__(self, message: str, minimum: Optional[int] = None):
        super().__init__(message)
        self.minimum = minimum


class _Triple(NamedTuple):
    k: Tuple[int, ...]
    p: Tuple[int, ...]
    q: Tuple[int, ...]
    n: int


class ThetaTriple(_Triple):
    """Three s-tuples plus the ambient rank n.

    Only the shape constraints live here; use `validate` for the eight
    conditions.  A named tuple, so a triple compares equal to the plain
    tuple (k, p, q, n), hashes as it and unpacks as one.
    """

    __slots__ = ()

    def __new__(cls, k: Sequence[int], p: Sequence[int], q: Sequence[int],
                n: int) -> "ThetaTriple":
        k, p, q = tuple(k), tuple(p), tuple(q)
        if set(map(type, (*k, *p, *q, n))) != {int}:
            raise ValueError(f"k, p, q, n must be integers: {k}, {p}, {q}, {n!r}")
        if not (len(k) == len(p) == len(q)):
            raise ValueError("k, p, q must have equal lengths")
        if n < 1:
            raise ValueError(f"ambient rank must be positive, got {n}")
        # each row against its shift, the entries being ints by now:
        # 0 < k_1 < ... < k_s and p_1 >= ... >= p_s >= 1
        if not all(map(int.__lt__, (0, *k), k)):
            raise ValueError(f"k must be strictly increasing and positive: {k}")
        if not all(map(int.__ge__, p, (*p[1:], 1))):
            raise ValueError(f"p must be weakly decreasing and positive: {p}")
        if not all(map(int.__ge__, q, q[1:])):
            raise ValueError(f"q must be weakly decreasing: {q}")
        bound = _fitting_rank(k, p, q)
        if bound > n:
            raise ValueError(
                f"entries up to {bound} do not fit ambient rank {n}"
            )
        return tuple.__new__(cls, (k, p, q, n))

    # the named-tuple builder, which `_replace` runs too, with the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def _of(cls, k: Tuple[int, ...], p: Tuple[int, ...], q: Tuple[int, ...],
            n: int) -> "ThetaTriple":
        """The triple of these tuples, unchecked: for triples whose shape
        holds by construction: the ones `generate_triples` emits and the
        ones `recover` reads off the corners."""
        return tuple.__new__(cls, (k, p, q, n))

    @property
    def s(self) -> int:
        return len(self.k)

    def with_rank(self, n: int) -> "ThetaTriple":
        return ThetaTriple(self.k, self.p, self.q, n)

    def __str__(self) -> str:
        return format_triple(self)


def _fitting_rank(k: Sequence[int], p: Sequence[int], q: Sequence[int]) -> int:
    """The smallest ambient rank that fits the entries: the least rank a
    triple may have, the default rank of a parsed triple and the lower
    bound of `min_feasible_rank`."""
    return max((1, *map(abs, (*k, *p, *q))))


def _l_index(k: Sequence[int], q: Sequence[int], a: int, r: int) -> Optional[int]:
    """L(i) from r = R(i): the largest j in (r, a) with
    k_j - k_{r+1} >= q_{r+1} - q_j, or None when the range is empty
    (r = a - 1).  j = r + 1 always qualifies, so the scan ends there."""
    for j in range(a - 1, r, -1):
        if k[j - 1] - k[r] >= q[r] - q[j - 1]:
            return j
    return None


# ---------------------------------------------------------------------------
# the eight conditions


class Verdict(NamedTuple):
    condition: str
    ok: bool
    index: Optional[Tuple[int, ...]] = None
    detail: str = ""

    def describe(self) -> str:
        state = "holds" if self.ok else "fails"
        where = ""
        if self.index:
            names = ("i", "j")
            where = " at " + ", ".join(
                f"{names[x]}={v}" for x, v in enumerate(self.index)
            )
        tail = f": {self.detail}" if self.detail and not self.ok else ""
        return f"{self.condition} {state}{where}{tail}"


class ConditionReport(NamedTuple):
    verdicts: Tuple[Verdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def first_failure(self) -> Optional[Verdict]:
        return next((v for v in self.verdicts if not v.ok), None)

    def failure_message(self) -> str:
        bad = self.first_failure
        return bad.describe() if bad else "all conditions hold"


def _condition_rows(t: ThetaTriple) -> list:
    """The verdict rows (condition, ok, index, detail) of A1-A3, B1-B3 and
    C1-C2, in check order.

    B2, B3, C1, and C2 need R (hence A1 and A2); when those prerequisites
    fail the dependent rows are left out.
    """
    k, p, q, s = t.k, t.p, t.q, t.s

    a1_bad = [i for i in range(1, s + 1) if q[i - 1] == 0]
    # A2 names the least pair (i, j), i != j, with q_i = -q_j; equal
    # entries are adjacent, so a first zero pairs only with the next one
    first = {v: j for j, v in reversed(list(enumerate(q, 1)))}
    a2_bad = None
    for i, u in enumerate(q, 1):
        j = first.get(-u)
        if j == i:
            j = i + 1 if i < s and q[i] == 0 else None
        if j is not None:
            a2_bad = (i, j)
            break
    rows = [
        ("A1", not a1_bad, (a1_bad[0],) if a1_bad else None,
         "q entry is zero" if a1_bad else ""),
        ("A2", a2_bad is None, a2_bad,
         f"q_{a2_bad[0]} = -q_{a2_bad[1]}" if a2_bad else ""),
    ]

    a, R = _cut_and_r(q)
    if a1_bad or a2_bad:
        R = None
    else:
        for i in range(1, s + 1):
            rows += _entry_checks(k, p, q, a, R, i)
    rows += _closing_checks(k, p, q, a, R)
    return rows


def validate(t: ThetaTriple) -> ConditionReport:
    """Check A1-A3, B1-B3, C1-C2 and report every verdict, grouped by
    condition in that order (see `_condition_rows`)."""
    rows = _condition_rows(t)
    rows.sort(key=lambda row: row[0])  # stable: indices stay ascending
    # from a list: tuple() over a generator allocates a larger tuple and
    # shrinks it, and the shrunk ones pile up in the tuple free lists
    return ConditionReport(tuple([_verdict(*row) for row in rows]))


def _require_valid(t: ThetaTriple) -> None:
    """Raises InvalidTripleError naming the first failing condition
    unless all eight hold.  The check is `_rows_pass` on every row, which
    stops at the first failing row; only a failure builds the report of
    `_condition_rows`, to word it."""
    if not _rows_pass(t.k, t.p, t.q, 1, {}, 0):
        raise InvalidTripleError(validate(t).failure_message())


def _row(condition: str, index, lhs: int, rhs: int):
    """A verdict row (condition, ok, index, detail) for an inequality:
    strict for the B-conditions, allowing equality for the C-conditions.
    A failing row's detail is the pair (lhs, rhs), which `validate`
    formats; the generator and the construction only read `ok`."""
    ok = lhs > rhs if condition[0] == "B" else lhs >= rhs
    return (condition, ok, index, "" if ok else (lhs, rhs))


def _verdict(condition: str, ok: bool, index, detail) -> Verdict:
    if not isinstance(detail, str):
        op = ">" if condition[0] == "B" else ">="
        detail = f"{detail[0]} is not {op} {detail[1]}"
    return Verdict(condition, ok, index, detail)


def _entry_checks(k: Sequence[int], p: Sequence[int], q: Sequence[int],
                  a: int, R, i: int) -> Iterator[tuple]:
    """The conditions that entry i completes, as verdict rows: B1 at i-1
    below the sign cut a, B2 at i-1 above it (the pair straddling the cut
    is unconstrained), and C1 and C2 at i from the cut on.  B2 asks the
    slack of rows i-1 above i, the difference of their `_level`s, to be
    positive; its row compares (p_{i-1} - p_i) + (q_{i-1} - q_i) with
    that less the slack.  Each depends on entries 1..i only, so
    `_rows_pass` checks a prefix as it grows, stopping at the first
    failing row, and `_condition_rows` checks every i of a finished
    triple.  R must map every index from a up to i.

    C2 is checked in its exact form, q_j + k_j - k_{R(i)} <= -q_i for
    every j in (R(i), a); the paper states it at j = L(i) only.  Step
    j < a places, as negatives, the k_j - k_{j-1} least unused absolute
    values from q_j on, and the steps up to R(i) use only absolute values
    above -q_i; while the steps before j stay below -q_i they use
    k_{j-1} - k_{R(i)} of the -q_i - q_j values in [q_j, -q_i), so step
    j stays below too exactly when the inequality holds.  A step that
    does not places a value at or below q_i, and the permutation cannot
    realize the triple's corners.  A failing row takes its bound from
    L(i) when the inequality fails there, else from the first failing j,
    so it words a failure of the paper's C2 as the paper's C2 does
    (README, "Erratum")."""
    if 2 <= i < a or i > a:
        lhs = (p[i - 2] - p[i - 1]) + (q[i - 2] - q[i - 1])
        if i < a:
            yield _row("B1", (i - 1,), lhs, k[i - 1] - k[i - 2])
        else:
            slack = (_level(k[i - 2], p[i - 2], q[i - 2], k, R[i - 1])
                     - _level(k[i - 1], p[i - 1], q[i - 1], k, R[i]))
            yield _row("B2", (i - 1,), lhs, lhs - slack)
    if i >= a:
        r = R[i]
        k_r = _k_at(k, r)
        yield _row("C1", (i,), -q[i - 1], k[i - 1] - k_r)
        for j in range(r + 1, a):
            if q[j - 1] + k[j - 1] - k_r > -q[i - 1]:
                li = _l_index(k, q, a, r)
                if q[li - 1] + k[li - 1] - k_r > -q[i - 1]:
                    j = li
                yield _row("C2", (i,), -q[i - 1], q[j - 1] + k[j - 1] - k_r)
                break
        else:  # L(i) exists exactly when the range is not empty
            yield ("C2", True, (i,), "" if r < a - 1 else "vacuous, L absent")


def _closing_checks(k: Sequence[int], p: Sequence[int], q: Sequence[int],
                    a: int, R) -> List[tuple]:
    """A3 and B3, the conditions on the last entry of a finished triple,
    as verdict rows.  B3 needs R and is left out when R is None."""
    s = len(k)
    a3_ok = s == 0 or q[s - 1] > 0 or p[s - 1] > 1
    rows = [("A3", a3_ok, None if a3_ok else (s,),
             "" if a3_ok else f"q_s = {q[s - 1]} < 0 needs p_s > 1")]
    if R is not None and a <= s:
        rows.append(_row("B3", None, p[s - 1] + q[s - 1] + k[s - 1],
                         _k_at(k, R[s]) + 1))
    return rows


def _rows_pass(k: Sequence[int], p: Sequence[int], q: Sequence[int], a: int,
               R: Dict[int, Optional[int]], lo: int, *, ties: bool = False) -> int:
    """The cut index of rows 1..s of a weakly decreasing q when they pass
    the eight conditions, else 0, given the cut index a and the map R
    that rows 1..lo left (a = 1 and R empty for lo = 0).  Checks rows
    lo + 1..s: q_i is not 0 (A1), R(i) exists for a negative q_i (A2),
    stored in R, and the conditions of `_entry_checks` hold; then A3 and
    B3 of rows 1..s (`_closing_checks`).  Every check reads the rows
    alone, never a placed value, and the first failing row stops it.
    `_require_valid` checks a whole triple from lo = 0, and the generator
    and the `verify` sweep the rows that a search step appends; the sweep
    sets `ties`, so a B2 tie passes (README, "Recovery", lemma 4): a
    failing B2 row whose two sides are equal, that is whose slack is 0."""
    for i in range(lo + 1, len(q) + 1):
        if q[i - 1] > 0:
            a = i + 1
        elif not q[i - 1]:
            return 0
        else:
            r = R[i] = _r_index(q, a, -q[i - 1])
            if r is None:
                return 0
        for row in _entry_checks(k, p, q, a, R, i):
            if not row[1] and not (ties and row[0] == "B2" and row[3][0] == row[3][1]):
                return 0
    for row in _closing_checks(k, p, q, a, R):
        if not row[1]:
            return 0
    return a


# ---------------------------------------------------------------------------
# construction


def _step_rank(k_i: int, p_i: int, q_i: int) -> int:
    """The step rank of entry i: once the steps before it have placed,
    step i places exactly at the ranks from this one on, for a triple
    that passes the conditions.  Its positions, and for q_i > 0 its
    absolute values, park (README, "Feasibility")."""
    return max(p_i, q_i) + k_i - 1


def _placement_run(k: Sequence[int], p: Sequence[int], q: Sequence[int],
                   lo: int, hi: int, window: List[int], used: List[bool]) -> List[int]:
    """Runs placement steps lo + 1..hi of the rows (k, p, q) on `window`
    (the value at each position 1..n, 0 while free) and `used` (marking
    the absolute values placed), which hold what steps 1..lo placed, and
    returns the positions filled.  Step i <= s places the k_i - k_{i-1}
    largest unused values at or below -q_i, increasing, into the first
    free positions from p_i on; step s + 1 fills the unused positive
    values, increasing, into the free positions.  Rows that pass their
    entry checks with step ranks at most n place in range."""
    filled: List[int] = []
    s = len(k)
    prev_k = k[lo - 1] if lo else 0
    for i in range(lo, hi if hi <= s else s):
        values: List[int] = []
        v = -q[i]
        for _ in range(k[i] - prev_k):
            while used[abs(v)]:
                v -= 1
            used[abs(v)] = True
            values.append(v)
            v -= 1
        z = p[i]
        while values:  # the least value first, into the first free position
            while window[z]:
                z += 1
            window[z] = values.pop()
            filled.append(z)
        prev_k = k[i]
    if hi > s:
        z = 0
        for v in range(1, len(used)):
            if not used[v]:
                z = window.index(0, z + 1)
                window[z] = v
                filled.append(z)
    return filled


def construct(t: ThetaTriple) -> SignedPermutation:
    """The permutation that the placement steps (`_placement_run`) of t
    build at its rank; for another rank, build `t.with_rank(n)`.  Raises
    InvalidTripleError when a condition fails (`_require_valid`), and
    InfeasibleRankError when the rank is below `_min_rank`: the first
    step whose step rank exceeds it is the first step that would run
    short."""
    k, p, q = t.k, t.p, t.q
    _require_valid(t)
    for i, (k_i, p_i, q_i) in enumerate(zip(k, p, q), 1):
        if _step_rank(k_i, p_i, q_i) > t.n:
            minimum = _min_rank(t)
            raise InfeasibleRankError(
                f"step {i} needs {k_i - _k_at(k, i - 1)} unused values "
                f"at or below {-q_i} and as many free positions at or "
                f"after {p_i}; rank {t.n} is too small (minimum feasible "
                f"rank is {minimum})",
                minimum=minimum,
            )
    window = [0] * (t.n + 1)
    _placement_run(k, p, q, 0, len(k) + 1, window, [False] * (t.n + 1))
    return SignedPermutation._of(tuple(window[1:]))


def min_feasible_rank(t: ThetaTriple) -> int:
    """Smallest ambient rank at which the construction succeeds; raises
    InvalidTripleError naming the first failing condition when there is
    none, as `construct` refuses such a triple at every rank."""
    _require_valid(t)
    return _min_rank(t)


def _min_rank(t: ThetaTriple) -> int:
    """The smallest rank at which every placement step of t places, for
    a t that passes the conditions: the rank that fits its entries or
    its largest step rank (`_step_rank`), whichever is larger."""
    return max((_fitting_rank(t.k, t.p, t.q), *map(_step_rank, t.k, t.p, t.q)))


def construct_inverse(t: ThetaTriple) -> SignedPermutation:
    """The inverse of `construct(t)`, refusing exactly what `construct`
    refuses.

    The paper also builds the inverse directly, by the same steps on the
    swapped triple (k, q, p) over the positions [-n, n]; that dual
    construction is checked against this one by the test suite.
    """
    return construct(t).inverse()


# ---------------------------------------------------------------------------
# recovery


def recover(w: SignedPermutation) -> Optional[ThetaTriple]:
    """The unique triple constructing w, or None when there is none.

    The triple is read off the corners of w: w has one exactly when they
    have no stray, and its entries are then the NE path minus the
    OPTIONAL corners (see `diagram.corners`).  The path comes from the
    column fold as rows (`diagram._fold`), and no record is built.  The
    NE path is always in the shape `ThetaTriple` checks (README,
    "Recovery"), and so is any part of it, so the triple is built
    unchecked (`_path_triple`).
    """
    K, P, Q, _, stray, optional = _fold(w.window)
    return None if stray is not None else _path_triple(K, P, Q, optional, w.n)


def _path_triple(K: Sequence[int], P: Sequence[int], Q: Sequence[int],
                 optional: Sequence[int], n: int) -> ThetaTriple:
    """The triple of the NE path rows K, P, Q of a rank-n window without
    a stray, less the OPTIONAL indices: what `recover` returns, built
    from the rows of the column fold, and the candidate that
    `classify.build_report` rebuilds."""
    if optional:
        keep = [i for i in range(len(Q)) if i not in optional]
        K, P, Q = ([row[i] for i in keep] for row in (K, P, Q))
    return ThetaTriple._of(tuple(K), tuple(P), tuple(Q), n)


# ---------------------------------------------------------------------------
# generation


def _q_candidates(n: int, k: Sequence[int], p: Sequence[int], q: Sequence[int],
                  a: int, negatives: List[int]) -> List[int]:
    """The nonzero q_i in [-n, q_{i-1}] (q_0 = n), decreasing, that the
    bounds below leave; k and p hold entries 1..i, q entries 1..i-1, a is the
    prefix's cut index and `negatives` lists, ascending, the v in [-n, -1]
    with -v no positive q_j (A2).  Each value left out fails a condition
    of entry i or has a step rank above n: a positive q_i needs
    q_i <= n + 1 - k_i (`_step_rank`).  For i >= 2, B1 and B2 need
    q_i < q_{i-1} + (p_{i-1} - p_i) - (k_i - k_{i-1}): B2 too, as
    R(i) <= R(i-1) when q_i <= q_{i-1}; the first negative entry (i = a)
    has no B check.  A negative q_i needs q_i <= k_{R(i)} - k_i <=
    k_{a-1} - k_i (C1), as R(i) < a."""
    top = n + 1 - k[-1]
    if q:
        top = min(top, q[-1], q[-1] + (p[-2] - p[-1]) - (k[-1] - k[-2]) - 1)
    neg_top = _k_at(k, a - 1) - k[-1]
    if a < len(k):
        neg_top = min(neg_top, top)
    return [*range(top, 0, -1),
            *reversed(negatives[:bisect_right(negatives, neg_top)])]


def generate_triples(n: int, *, allow_large: bool = False) -> Iterator[ThetaTriple]:
    """All valid triples constructible at ambient rank n, in a fixed
    depth-first order.

    Searches entries (k_i, p_i, q_i) bounded by n: k increasing, then p
    decreasing, then q decreasing over the values of `_q_candidates`,
    which skips the values that A2, B1, B2 or C1 rule out.  The p bound
    is the step-rank cap (`_step_rank`) alone, p_i <= n + 1 - k_i, and
    the q bounds keep a positive q_i at or below n + 1 - k_i too, so no
    step rank exceeds n.  The search carries the cut index a and R of
    every negative entry down.  A prefix whose new entry passes
    `_rows_pass` (the checks it completes, then A3 and B3) is a triple:
    it is emitted, then extended.

    A prefix that fails is cut with its whole subtree, and this loses
    nothing.  A condition that entry i completes reads only entries
    1..i and stays a condition of every extension (a positive q_i keeps
    i below the final cut), and so does the step rank of entry i.  A3
    and B3 fail again on every extension that passes its entry checks:
    a positive last entry passes A3 and has no B3; if q_i < 0 and
    p_i = 1, every later entry has p = 1 and q < 0; if p_i + q_i + k_i
    <= k_{R(i)} + 1, B2 at i gives p_{i+1} + q_{i+1} + k_{i+1} <
    p_i + q_i + k_i - k_{R(i)} + k_{R(i+1)} <= k_{R(i+1)} + 1, and so on
    to the last entry.  A triple that passes the conditions is buildable
    at rank n exactly when no step rank exceeds n (`_min_rank`).  So
    emitted triples pass `validate` and fit at rank n; with C2 in its
    exact form, the tied tuples that pass the paper's eight conditions
    but cannot realize their own corners fail C2 and are never emitted,
    so emitted triples correspond one-to-one with the permutations they
    construct.

    Prefixes that reach the same search state share one search below it.
    The state of a prefix is its key: (1) for each positive entry j < a,
    the pair (k_j, q_j); (2) the last entry (k, p, q), and its R when
    q < 0.  Everything below the prefix reads only the key.  R(i) (A2)
    and C2 read the positive entries' k_j and q_j (1), and so does the
    A2 exclusion of `_q_candidates`; the cut a is their count plus one.
    B1 and B2 read the last entry and its R (2) and k_{R(i)}, a positive
    entry's k (1); C1 and the C1 cap read k_{R(i)} and k_{a-1} (1).  The
    B1/B2 cap of `_q_candidates` and the p and k bounds read the last
    entry (2), whose sign tells whether a negative entry has appeared.
    The step rank reads the new entry alone; A3 and B3 read the new
    entry and k_{R(s)}.  The search runs every check below a state once
    and records its extensions, each a triple, in search order as
    (k, p, q, child); a state with nothing below it records ().  The
    triples are then emitted by replaying the root's record: each
    extension is appended to the prefix and the whole prefix built as a
    `ThetaTriple`, so the output and its order are those of the unshared
    search.  The emitted triples share their rows, one tuple per
    distinct k, p or q row.  The records and the rows live for one call
    and are cleared when the generator finishes or is closed.

    The triples are built with `ThetaTriple._of`, skipping the
    shape checks, which the loop bounds already guarantee: k_i runs up
    from k_{i-1} + 1, p_i down from at most p_{i-1} to 1, q_i down from
    at most q_{i-1} over nonzero values (a first negative q_i lies below
    every positive one), and every entry lies in [-n, n].
    """
    check_rank_guard(n, allow_large)

    yield ThetaTriple((), (), (), n)

    ks: List[int] = []
    ps: List[int] = []
    qs: List[int] = []
    R: Dict[int, Optional[int]] = {}  # R(i) of the negative entries
    # state key -> the state's extensions in search order, each as four
    # consecutive fields k, p, q, child record (one flat tuple holds them
    # in half the memory of a tuple per extension); () marks a state with
    # nothing below it
    memo: Dict[int, tuple] = {}
    # one tuple per distinct row emitted, shared by every triple that has it
    rows: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    base = 2 * n + 1  # every key digit lies in [0, 2n]

    def triple() -> ThetaTriple:
        # the prefix as a triple, each row the shared tuple of its value
        k, p, q = tuple(ks), tuple(ps), tuple(qs)
        return ThetaTriple._of(rows.setdefault(k, k), rows.setdefault(p, p),
                               rows.setdefault(q, q), n)

    def replay(record: tuple) -> Iterator[ThetaTriple]:
        fields = iter(record)
        for k_new, p_new, q_new, child in zip(*[fields] * 4):
            ks.append(k_new)
            ps.append(p_new)
            qs.append(q_new)
            yield triple()
            if child:
                yield from replay(child)
            ks.pop()
            ps.pop()
            qs.pop()

    def extend(a: int, pos: int) -> tuple:
        # the record of the prefix's state: a is the prefix's cut index
        # (len + 1 while every q is positive) and pos packs the positive
        # entries' (k_j, q_j)
        record = []
        i = len(ks) + 1
        k_prev = ks[-1] if ks else 0
        p_hi = ps[-1] if ps else n
        negatives = [v for v in range(-n, 0) if -v not in qs]
        for k_new in range(k_prev + 1, n + 1):
            ks.append(k_new)
            # the step rank caps p_i at n + 1 - k_i, which is at least 1
            for p_new in range(min(p_hi, n + 1 - k_new), 0, -1):
                ps.append(p_new)
                for q_new in _q_candidates(n, ks, ps, qs, a, negatives):
                    qs.append(q_new)
                    a_new = _rows_pass(ks, ps, qs, a, R, i - 1)
                    if a_new:
                        if q_new > 0:
                            child_pos = (pos * base + k_new) * base + q_new
                            r = 0
                        else:
                            child_pos, r = pos, R[i]
                        key = (((child_pos * base + k_new) * base + p_new)
                               * base + q_new + n) * base + r
                        child = memo.get(key)
                        if child is None:
                            child = memo[key] = extend(a_new, child_pos)
                        record += k_new, p_new, q_new, child
                    qs.pop()
                ps.pop()
            ks.pop()
        return tuple(record)

    try:
        record = extend(1, 0)
        memo.clear()  # the records nest their children
        yield from replay(record)
    finally:
        # extend and replay refer to themselves, so the closures and the
        # memo and rows they hold would otherwise live on until the cycle
        # collector runs
        memo.clear()
        rows.clear()


# ---------------------------------------------------------------------------
# notation


def parse_triple(text: str, n: Optional[int] = None) -> ThetaTriple:
    """Parse "k1 k2 ...; p1 p2 ...; q1 q2 ..." into a triple.

    The ambient rank defaults to the smallest value that fits the
    entries.  Raises with the first violated shape or condition named.
    """
    t = _parse_rows(text, n)
    _require_valid(t)
    return t


def _parse_rows(text: str, n: Optional[int]) -> ThetaTriple:
    """`parse_triple` with only the shape checked: for a caller that
    hands the triple to `construct`, which checks the eight conditions
    first and words a refusal the same way."""
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(
            f"triple text needs three ';'-separated lists, got {len(parts)}"
        )
    return _at_rank(*(_parse_ints(part, "triple") for part in parts), n)


def _at_rank(k: Sequence[int], p: Sequence[int], q: Sequence[int],
             n: Optional[int]) -> ThetaTriple:
    """The triple of rows k, p, q at rank n, by default the smallest
    rank that fits them, with its shape checked."""
    return ThetaTriple(k, p, q, _fitting_rank(k, p, q) if n is None else n)


def format_triple(t: ThetaTriple) -> str:
    return "; ".join(
        " ".join(str(v) for v in row) for row in (t.k, t.p, t.q)
    )


def triple_to_json(t: ThetaTriple) -> dict:
    return {"k": list(t.k), "p": list(t.p), "q": list(t.q), "n": t.n}


def triple_from_json(obj: dict) -> ThetaTriple:
    """The triple of a `triple_to_json` object; "n" may be absent."""
    if not isinstance(obj, dict):
        raise ValueError(f"a triple must be a JSON object, got {obj!r}")
    try:
        k, p, q = obj["k"], obj["p"], obj["q"]
    except KeyError as missing:
        raise ValueError(f"triple object lacks key {missing}") from None
    for key, row in (("k", k), ("p", p), ("q", q)):
        if type(row) is not list or any(type(v) is not int for v in row):
            raise ValueError(
                f"triple key {key!r} must be a list of integers, got {row!r}")
    n = obj.get("n")
    if n is not None and type(n) is not int:
        raise ValueError(f"triple key 'n' must be an integer, got {n!r}")
    t = _at_rank(k, p, q, n)
    _require_valid(t)
    return t
