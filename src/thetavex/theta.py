"""Triples (k, p, q) and everything built from them.

A triple consists of three s-tuples: k strictly increasing, p weakly
decreasing and positive, q weakly decreasing.  The tuple shapes are
enforced on construction; the eight semantic conditions (A1-A3, B1-B3,
C1-C2) are checked by `validate`, which reports every verdict rather
than raising.

From a valid triple the construction algorithm produces a signed
permutation in s+1 placement steps; the mirrored variant runs the same
algorithm on the swapped triple (k, q, p) over positions [-n, n] and
yields the inverse permutation.  `recover` walks the other direction,
from a permutation back to its unique triple, via the corner taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .diagram import CornerClass, CornerRecord, CornerSet, corners, rank
from .sigperm import SignedPermutation, check_rank_guard


class InvalidTripleError(ValueError):
    """A triple failed one of the eight conditions where validity is required."""


class InfeasibleRankError(ValueError):
    """The ambient rank is too small for the construction to finish."""

    def __init__(self, message: str, minimum: Optional[int] = None):
        super().__init__(message)
        self.minimum = minimum


@dataclass(frozen=True)
class ThetaTriple:
    """Three s-tuples plus the ambient rank n.

    Only the shape constraints live here; use `validate` for the eight
    conditions and `derive` for the cut index a, R(.), and L(.).
    """

    k: Tuple[int, ...]
    p: Tuple[int, ...]
    q: Tuple[int, ...]
    n: int

    def __post_init__(self):
        k, p, q = tuple(self.k), tuple(self.p), tuple(self.q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if not (len(k) == len(p) == len(q)):
            raise ValueError("k, p, q must have equal lengths")
        if self.n < 1:
            raise ValueError(f"ambient rank must be positive, got {self.n}")
        if any(v < 1 for v in k) or any(k[i] >= k[i + 1] for i in range(len(k) - 1)):
            raise ValueError(f"k must be strictly increasing and positive: {k}")
        if any(v < 1 for v in p) or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
            raise ValueError(f"p must be weakly decreasing and positive: {p}")
        if any(q[i] < q[i + 1] for i in range(len(q) - 1)):
            raise ValueError(f"q must be weakly decreasing: {q}")
        bound = max((*map(abs, (*k, *p, *q)), 1))
        if bound > self.n:
            raise ValueError(
                f"entries up to {bound} do not fit ambient rank {self.n}"
            )

    @property
    def s(self) -> int:
        return len(self.k)

    def entries(self) -> Tuple[Tuple[int, int, int], ...]:
        return tuple(zip(self.k, self.p, self.q))

    def with_rank(self, n: int) -> "ThetaTriple":
        return ThetaTriple(self.k, self.p, self.q, n)

    def __str__(self) -> str:
        return format_triple(self)


@dataclass(frozen=True)
class TripleDerived:
    """Cut index a, the map R on [a, s], and the map L on [a, s].

    L[i] is None exactly when R[i] = a - 1, i.e. when the candidate
    range for L is empty.
    """

    a: int
    R: Dict[int, int]
    L: Dict[int, Optional[int]]


def derive(t: ThetaTriple) -> TripleDerived:
    """Compute a, R, and L.  Requires nonzero q entries and no pair
    q_i = -q_j (otherwise R is not well defined); both failures raise."""
    q, k, s = t.q, t.k, t.s
    if any(v == 0 for v in q):
        raise InvalidTripleError("A1 fails: q contains a zero entry")
    a = sum(1 for v in q if v > 0) + 1

    def q_at(j: int) -> float:
        # 1-based with the q_0 = +infinity convention
        return float("inf") if j == 0 else q[j - 1]

    R: Dict[int, int] = {}
    L: Dict[int, Optional[int]] = {}
    for i in range(a, s + 1):
        target = -q[i - 1]
        r = None
        for cand in range(a):
            if q_at(cand) > target > q_at(cand + 1):
                r = cand
                break
        if r is None:
            raise InvalidTripleError(
                f"A2 fails: -q_{i} = {target} collides with a positive q entry"
            )
        R[i] = r
        if r == a - 1:
            L[i] = None
        else:
            candidates = [
                j
                for j in range(r + 1, a)
                if k[j - 1] - k[r] >= q[r] - q[j - 1]
            ]
            # j = R(i)+1 always qualifies, so the set cannot be empty
            assert candidates
            L[i] = max(candidates)
    return TripleDerived(a, R, L)


# ---------------------------------------------------------------------------
# the eight conditions


@dataclass(frozen=True)
class Verdict:
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


@dataclass(frozen=True)
class ConditionReport:
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


def validate(t: ThetaTriple) -> ConditionReport:
    """Check A1-A3, B1-B3, C1-C2 and report every verdict.

    B2, B3, C1, and C2 need R (hence A1 and A2); when those prerequisites
    fail the dependent conditions are left out of the report, which is
    already invalid anyway.
    """
    k, p, q, s = t.k, t.p, t.q, t.s
    verdicts: List[Verdict] = []

    a1_bad = [i for i in range(1, s + 1) if q[i - 1] == 0]
    verdicts.append(
        Verdict("A1", not a1_bad, (a1_bad[0],) if a1_bad else None,
                "q entry is zero" if a1_bad else "")
    )

    a2_bad = None
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            if i != j and q[i - 1] == -q[j - 1]:
                a2_bad = (i, j)
                break
        if a2_bad:
            break
    verdicts.append(
        Verdict("A2", a2_bad is None, a2_bad,
                f"q_{a2_bad[0]} = -q_{a2_bad[1]}" if a2_bad else "")
    )

    a3_ok = s == 0 or q[s - 1] > 0 or p[s - 1] > 1
    verdicts.append(
        Verdict("A3", a3_ok, None if a3_ok else (s,),
                "" if a3_ok else f"q_s = {q[s-1]} < 0 needs p_s > 1")
    )

    if a1_bad or a2_bad:
        return ConditionReport(tuple(verdicts))

    der = derive(t)
    a, R = der.a, der.R

    for i in range(1, a - 1):
        lhs = (p[i - 1] - p[i]) + (q[i - 1] - q[i])
        rhs = k[i] - k[i - 1]
        verdicts.append(
            Verdict("B1", lhs > rhs, (i,),
                    "" if lhs > rhs else f"{lhs} is not > {rhs}")
        )

    def k_at(j: int) -> int:
        return 0 if j == 0 else k[j - 1]

    for i in range(a, s):
        lhs = (p[i - 1] - p[i]) + (q[i - 1] - q[i])
        rhs = (k[i] - k[i - 1]) + (k_at(R[i]) - k_at(R[i + 1]))
        verdicts.append(
            Verdict("B2", lhs > rhs, (i,),
                    "" if lhs > rhs else f"{lhs} is not > {rhs}")
        )

    if a <= s:
        lhs = p[s - 1] + q[s - 1] + k[s - 1]
        rhs = k_at(R[s]) + 1
        verdicts.append(
            Verdict("B3", lhs > rhs, None,
                    "" if lhs > rhs else f"{lhs} is not > {rhs}")
        )

    for i in range(a, s + 1):
        lhs = -q[i - 1]
        rhs = k[i - 1] - k_at(R[i])
        verdicts.append(
            Verdict("C1", lhs >= rhs, (i,),
                    "" if lhs >= rhs else f"{lhs} is not >= {rhs}")
        )

    for i in range(a, s + 1):
        li = der.L[i]
        if li is None:
            verdicts.append(Verdict("C2", True, (i,), "vacuous, L absent"))
            continue
        lhs = -q[i - 1]
        rhs = q[li - 1] + k[li - 1] - k_at(R[i])
        verdicts.append(
            Verdict("C2", lhs >= rhs, (i,),
                    "" if lhs >= rhs else f"{lhs} is not >= {rhs}")
        )

    return ConditionReport(tuple(verdicts))


# ---------------------------------------------------------------------------
# construction


@dataclass(frozen=True)
class StepPlacement:
    """One construction step: (entry, position) pairs, positions ascending."""

    step: int
    placements: Tuple[Tuple[int, int], ...]


def _pick_entries(count: int, bound: int, used: set, floor: int) -> Optional[List[int]]:
    """The `count` largest values v with v <= bound, v >= floor, and |v|
    unused, in increasing order; None when the pool is too small."""
    picked = []
    v = bound
    while v >= floor and len(picked) < count:
        if v != 0 and abs(v) not in used:
            picked.append(v)
        v -= 1
    if len(picked) < count:
        return None
    picked.reverse()
    return picked


def construct_with_trace(
    t: ThetaTriple, n: Optional[int] = None
) -> Tuple[SignedPermutation, Tuple[StepPlacement, ...]]:
    """Run the s+1 placement steps, returning the permutation and the
    per-step placements.

    Step (i) places the k_i - k_{i-1} largest unused values of the same
    sign as -q_i that are <= -q_i, in increasing order, into the free
    positions scanning right from p_i.  Step (s+1) fills what is left
    with the unused positive values in increasing order.
    """
    if n is None:
        n = t.n
    report = validate(t)
    if not report.ok:
        raise InvalidTripleError(report.failure_message())
    der = derive(t)

    window: List[Optional[int]] = [None] * (n + 1)  # 1-based
    used: set = set()
    trace: List[StepPlacement] = []
    prev_k = 0
    for i in range(1, t.s + 1):
        count = t.k[i - 1] - prev_k
        bound = -t.q[i - 1]
        floor = -n if bound < 0 else 1
        entries = _pick_entries(count, bound, used, floor)
        if entries is None:
            raise InfeasibleRankError(
                f"step {i} needs {count} unused values at or below {bound}; "
                f"rank {n} is too small (minimum feasible rank is "
                f"{min_feasible_rank(t)})",
                minimum=min_feasible_rank(t),
            )
        free = [z for z in range(t.p[i - 1], n + 1) if window[z] is None]
        if len(free) < count:
            raise InfeasibleRankError(
                f"step {i} needs {count} free positions at or after {t.p[i-1]}; "
                f"rank {n} is too small (minimum feasible rank is "
                f"{min_feasible_rank(t)})",
                minimum=min_feasible_rank(t),
            )
        placed = tuple(zip(entries, free[:count]))
        for v, z in placed:
            window[z] = v
            used.add(abs(v))
        trace.append(StepPlacement(i, placed))
        prev_k = t.k[i - 1]

    rest_positions = [z for z in range(1, n + 1) if window[z] is None]
    rest_values = sorted(v for v in range(1, n + 1) if v not in used)
    assert len(rest_positions) == len(rest_values)
    placed = tuple(zip(rest_values, rest_positions))
    for v, z in placed:
        window[z] = v
    trace.append(StepPlacement(t.s + 1, placed))

    by_step = {sp.step: [v for v, _ in sp.placements] for sp in trace}
    failure = _coherence_failure(t, der, by_step)
    if failure:
        raise InvalidTripleError(failure)

    return SignedPermutation(window[1:]), tuple(trace)


def _coherence_failure(t: ThetaTriple, der: TripleDerived,
                       step_values: Dict[int, List[int]]) -> Optional[str]:
    """Check the placed values against the executable forms of C1 and C2:
    steps at or after the sign cut must place positives only, and the
    steps between R(i)+1 and a-1 must stay strictly above q_i.  The
    eight written conditions do not quite imply this on their own — some
    tied tuples pass them yet place entries out of range, and the placed
    positions then fail to reproduce the tuple's corners.  Such tuples
    are rejected rather than silently constructing a permutation that
    does not belong to them.  Returns a description of the first
    violation, or None.
    """
    a = der.a
    for i in range(a, t.s + 1):
        if not all(v > 0 for v in step_values[i]):
            return (
                f"degenerate triple: step {i} placed a negative entry "
                f"although every step from {a} on must place positives"
            )
        for j in range(der.R[i] + 1, a):
            bad = [v for v in step_values[j] if v <= t.q[i - 1]]
            if bad:
                return (
                    f"degenerate triple: step {j} placed {bad[0]}, at or "
                    f"below q_{i} = {t.q[i - 1]}, so the construction "
                    f"cannot realize the triple's corners"
                )
    return None


def construct(t: ThetaTriple, n: Optional[int] = None) -> SignedPermutation:
    return construct_with_trace(t, n)[0]


def min_feasible_rank(t: ThetaTriple) -> int:
    """Smallest ambient rank at which the construction succeeds.

    Found by simulation between the obvious lower bound and a cap that
    always suffices (the lower bound plus the total number of placed
    entries); the construction is stable under rank growth, so the first
    success is the minimum.
    """
    lb = max((1, *t.p, *t.k, *map(abs, t.q)))
    cap = lb + (t.k[-1] if t.k else 0)
    for n in range(lb, cap + 1):
        if _feasible_at(t, n):
            return n
    raise AssertionError(f"no feasible rank below {cap + 1} for {t}")


def _feasible_at(t: ThetaTriple, n: int) -> bool:
    window_free = [True] * (n + 1)
    used: set = set()
    prev_k = 0
    for i in range(1, t.s + 1):
        count = t.k[i - 1] - prev_k
        bound = -t.q[i - 1]
        floor = -n if bound < 0 else 1
        entries = _pick_entries(count, bound, used, floor)
        if entries is None:
            return False
        free = [z for z in range(t.p[i - 1], n + 1) if window_free[z]]
        if len(free) < count:
            return False
        for v, z in zip(entries, free[:count]):
            window_free[z] = False
            used.add(abs(v))
        prev_k = t.k[i - 1]
    return True


def construct_inverse(t: ThetaTriple, n: Optional[int] = None) -> SignedPermutation:
    """Build the inverse directly, without inverting.

    Runs the construction on the swapped triple (k, q, p) over the full
    position range [-n, n]: a zero is pre-placed at position 0, step (i)
    scans right from position q_i placing entries that end with -p_i,
    and every placement is mirrored through 0.  The window restriction
    of the result is the inverse of `construct(t)`.
    """
    if n is None:
        n = t.n
    report = validate(t)
    if not report.ok:
        raise InvalidTripleError(report.failure_message())

    # Reject degenerate triples exactly as `construct` does.  Which
    # values the forward steps take does not depend on positions, so a
    # value-only replay suffices to run the shared coherence check.
    sim: Dict[int, List[int]] = {}
    sim_used: set = set()
    sim_prev = 0
    for i in range(1, t.s + 1):
        bound = -t.q[i - 1]
        entries = _pick_entries(t.k[i - 1] - sim_prev, bound, sim_used,
                                -n if bound < 0 else 1)
        if entries is None:
            sim = {}  # infeasible here; the mirrored loop raises below
            break
        sim[i] = entries
        sim_used.update(abs(v) for v in entries)
        sim_prev = t.k[i - 1]
    if sim:
        failure = _coherence_failure(t, derive(t), sim)
        if failure:
            raise InvalidTripleError(failure)

    values: Dict[int, int] = {0: 0}
    used: set = set()
    prev_k = 0
    for i in range(1, t.s + 1):
        count = t.k[i - 1] - prev_k
        bound = -t.p[i - 1]  # always negative
        entries = _pick_entries(count, bound, used, -n)
        if entries is None:
            raise InfeasibleRankError(
                f"mirrored step {i} ran out of values at rank {n}", minimum=None
            )
        start = t.q[i - 1]
        free = [z for z in range(start, n + 1) if z != 0 and z not in values]
        if len(free) < count:
            raise InfeasibleRankError(
                f"mirrored step {i} ran out of positions at rank {n}", minimum=None
            )
        for v, z in zip(entries, free[:count]):
            values[z] = v
            values[-z] = -v
            used.add(abs(v))
        prev_k = t.k[i - 1]

    rest_positions = [z for z in range(1, n + 1) if z not in values]
    rest_values = sorted(v for v in range(1, n + 1) if v not in used)
    assert len(rest_positions) == len(rest_values)
    for v, z in zip(rest_values, rest_positions):
        values[z] = v
        values[-z] = -v
    return SignedPermutation([values[z] for z in range(1, n + 1)])


# ---------------------------------------------------------------------------
# optional corners


def optional_corners(
    w: SignedPermutation, t: ThetaTriple, cs: Optional[CornerSet] = None
) -> Tuple[CornerRecord, ...]:
    """Corners of w that the triple skips: same column as a later triple
    corner, one row below the reflection of an earlier one.

    A corner position (p, q) not in the triple is optional when there
    are indices a <= i <= s and 1 <= j < a with p = p_i and
    q_{i-1} >= q = -q_j + 1 > q_i.  Each one must also satisfy the rank
    relation q - q_i = k_i - k + k_j - k_{R(i)}; this is checked, not
    used as a filter, and a corner that breaks it raises ValueError.
    """
    if cs is None:
        cs = corners(w)
    if t.s == 0:
        return ()
    der = derive(t)
    a = der.a
    in_triple = set(zip(t.p, t.q))
    found = []
    for rec in cs:
        if rec.position in in_triple:
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


# ---------------------------------------------------------------------------
# recovery


def recover(
    w: SignedPermutation, cs: Optional[CornerSet] = None
) -> Optional[ThetaTriple]:
    """The unique triple constructing w, or None when there is none.

    The corner set must split into NE path plus unessential corners;
    otherwise w cannot come from a triple.  The candidate is the sorted
    NE path with its rank values, minus every index where the step-count
    identity holds with equality (those corners are the optional ones).
    The equality test runs with boundary sentinels (k_0, p_0, q_0) =
    (0, n, n) and (k_{s+1}, p_{s+1}, q_{s+1}) = (n, 1, -n), with R of
    the upper sentinel fixed at 0, which makes the last test coincide
    with the B3 boundary.  Pass `cs` when the corner set of w is already
    known.
    """
    n = w.n
    if cs is None:
        cs = corners(w)
    if cs.other:
        return None
    path = cs.ne_path
    s = len(path)
    if s == 0:
        return ThetaTriple((), (), (), n)
    ks = [c.k for c in path]
    ps = [c.p for c in path]
    qs = [c.q for c in path]

    a = sum(1 for v in qs if v > 0) + 1

    def q_at(j: int) -> float:
        if j == 0:
            return float("inf")
        if j == s + 1:
            return -n
        return qs[j - 1]

    def k_at(j: int) -> int:
        if j == 0:
            return 0
        if j == s + 1:
            return n
        return ks[j - 1]

    def p_at(j: int) -> int:
        if j == s + 1:
            return 1
        return ps[j - 1]

    def R_of(i: int) -> Optional[int]:
        if i == s + 1:
            return 0
        target = -qs[i - 1]
        for cand in range(a):
            if q_at(cand) > target > q_at(cand + 1):
                return cand
        return None  # collision; cannot happen for a recoverable w

    removable = set()
    for i in range(a, s + 1):
        r_i, r_next = R_of(i), R_of(i + 1)
        if r_i is None or r_next is None:
            return None
        lhs = (p_at(i) - p_at(i + 1)) + (q_at(i) - q_at(i + 1))
        rhs = (k_at(i + 1) - k_at(i)) + (k_at(r_i) - k_at(r_next))
        if lhs == rhs:
            removable.add(i)

    keep = [i for i in range(1, s + 1) if i not in removable]
    try:
        return ThetaTriple(
            tuple(ks[i - 1] for i in keep),
            tuple(ps[i - 1] for i in keep),
            tuple(qs[i - 1] for i in keep),
            n,
        )
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# generation


def generate_triples(n: int, s_max: Optional[int] = None,
                     *, allow_large: bool = False) -> Iterator[ThetaTriple]:
    """All valid triples constructible at ambient rank n, in a fixed
    depth-first order.

    Searches entries (k_i, p_i, q_i) bounded by n with incremental
    pruning: the monotone shapes, A2, and every condition whose index
    range is already determined are checked as soon as possible; A3 and
    B3 only gate the emission of a finished prefix, not its extension.
    Each emitted triple passes `validate`, fits at rank n, and builds
    coherently (see `construct_with_trace`); the degenerate tied tuples
    that pass the written conditions but cannot realize their own
    corners are filtered out, so emitted triples correspond one-to-one
    with the permutations they construct.
    """
    check_rank_guard(n, allow_large)
    if s_max is None:
        s_max = 2 * n  # generous; shape bounds cut the depth well before

    empty = ThetaTriple((), (), (), n)
    yield empty

    ks: List[int] = []
    ps: List[int] = []
    qs: List[int] = []

    def q_values():
        # candidate q values in decreasing order, skipping zero
        return [v for v in range(n, -n - 1, -1) if v != 0]

    def a_of() -> int:
        return sum(1 for v in qs if v > 0) + 1

    def k_at(j: int) -> int:
        return 0 if j == 0 else ks[j - 1]

    def R_of(i: int) -> Optional[int]:
        # R for index i within the current prefix; valid once q_i < 0
        a = a_of()
        target = -qs[i - 1]
        for cand in range(a):
            hi = float("inf") if cand == 0 else qs[cand - 1]
            lo = qs[cand] if cand < a - 1 else -float("inf")
            if hi > target > lo:
                return cand
        return None

    def prefix_ok(i: int) -> bool:
        """Check every condition that is decidable once entry i exists."""
        a = a_of()
        if qs[i - 1] < 0:
            # A2 against earlier entries
            if any(qs[i - 1] == -qs[j] for j in range(i - 1)):
                return False
            r = R_of(i)
            if r is None:
                return False
            # C1 at i
            if not -qs[i - 1] >= ks[i - 1] - k_at(r):
                return False
            # C2 at i
            if r < a - 1:
                cands = [
                    j for j in range(r + 1, a)
                    if ks[j - 1] - ks[r] >= qs[r] - qs[j - 1]
                ]
                li = max(cands)
                if not -qs[i - 1] >= qs[li - 1] + ks[li - 1] - k_at(r):
                    return False
        if i >= 2:
            prev = i - 1
            lhs = (ps[prev - 1] - ps[i - 1]) + (qs[prev - 1] - qs[i - 1])
            if prev < a - 1:  # B1 at prev
                if not lhs > ks[i - 1] - ks[prev - 1]:
                    return False
            elif prev >= a:  # B2 at prev
                r_prev, r_i = R_of(prev), R_of(i)
                if r_prev is None or r_i is None:
                    return False
                if not lhs > (ks[i - 1] - ks[prev - 1]) + (k_at(r_prev) - k_at(r_i)):
                    return False
            # the boundary prev == a-1 is deliberately unconstrained
        return True

    def emit_ok() -> bool:
        """A3 and B3 for the current prefix taken as a complete triple."""
        s = len(ks)
        a = a_of()
        if qs[s - 1] < 0 and ps[s - 1] == 1:
            return False
        if a <= s:
            r = R_of(s)
            if r is None or not ps[s - 1] + qs[s - 1] + ks[s - 1] > k_at(r) + 1:
                return False
        return True

    def extend() -> Iterator[ThetaTriple]:
        i = len(ks) + 1
        if i > s_max:
            return
        k_lo = (ks[-1] + 1) if ks else 1
        p_hi = ps[-1] if ps else n
        q_hi = qs[-1] if qs else n
        for k_new in range(k_lo, n + 1):
            for p_new in range(p_hi, 0, -1):
                for q_new in q_values():
                    if q_new > q_hi:
                        continue
                    ks.append(k_new)
                    ps.append(p_new)
                    qs.append(q_new)
                    if prefix_ok(i):
                        if emit_ok():
                            t = ThetaTriple(tuple(ks), tuple(ps), tuple(qs), n)
                            if _feasible_at(t, n):
                                try:
                                    construct(t, n)
                                except InvalidTripleError:
                                    pass  # degenerate tied tuple
                                else:
                                    yield t
                        yield from extend()
                    ks.pop()
                    ps.pop()
                    qs.pop()

    yield from extend()


# ---------------------------------------------------------------------------
# notation


def parse_triple(text: str, n: Optional[int] = None) -> ThetaTriple:
    """Parse "k1 k2 ...; p1 p2 ...; q1 q2 ..." into a triple.

    The ambient rank defaults to the smallest value that fits the
    entries.  Raises with the first violated shape or condition named.
    """
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(
            f"triple text needs three ';'-separated lists, got {len(parts)}"
        )
    rows = []
    for part in parts:
        row = []
        for tok in part.replace(",", " ").split():
            try:
                row.append(int(tok))
            except ValueError:
                raise ValueError(f"bad triple token {tok!r}: not an integer") from None
        rows.append(tuple(row))
    k, p, q = rows
    if n is None:
        n = max((1, *map(abs, (*k, *p, *q))))
    t = ThetaTriple(k, p, q, n)
    report = validate(t)
    if not report.ok:
        raise InvalidTripleError(report.failure_message())
    return t


def format_triple(t: ThetaTriple) -> str:
    return "; ".join(
        " ".join(str(v) for v in row) for row in (t.k, t.p, t.q)
    )


def triple_to_json(t: ThetaTriple) -> dict:
    return {"k": list(t.k), "p": list(t.p), "q": list(t.q), "n": t.n}


def triple_from_json(obj: dict) -> ThetaTriple:
    try:
        k, p, q = obj["k"], obj["p"], obj["q"]
    except KeyError as missing:
        raise ValueError(f"triple object lacks key {missing}") from None
    n = obj.get("n")
    if n is None:
        n = max((1, *map(abs, (*k, *p, *q))))
    t = ThetaTriple(tuple(k), tuple(p), tuple(q), n)
    report = validate(t)
    if not report.ok:
        raise InvalidTripleError(report.failure_message())
    return t
