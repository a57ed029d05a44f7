"""Extended diagrams, SE corners, and the corner taxonomy.

Coordinates are matrix style throughout: rows run top to bottom over
[-n, n], columns left to right.  The extended diagram of a signed
permutation lives on columns [-n, -1].

A corner position (p, q), with p in [1, n], names the box (q - 1, -p).
Corner records carry the rank value k and a taxonomy class.  `corners`
assigns every class in one fold of a column step (`_column`) and one
rank-labelling step (`_label_by_rank`): it also decides which
unessential corners the rank relation forces and which NE-path corners
a triple skips (OPTIONAL), so every route reads the same labels.  The
sweep of `classify.verify_equivalence` runs the same two steps in its
recursion over suffixes, one column per suffix and none past a stray.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .sigperm import SignedPermutation


class CornerClass(Enum):
    NE_PATH = "ne_path"
    UNESSENTIAL = "unessential"
    OPTIONAL = "optional"
    OTHER = "other"


_NE_PATH, _UNESSENTIAL, _OPTIONAL, _OTHER = (
    CornerClass.NE_PATH, CornerClass.UNESSENTIAL, CornerClass.OPTIONAL, CornerClass.OTHER
)


class CornerRecord(NamedTuple):
    """An SE corner (k, p, q): box (q-1, -p) with rank value k.

    A named tuple, so a record compares equal to the plain tuple
    (k, p, q, kind) and unpacks as one.
    """

    k: int
    p: int
    q: int
    kind: CornerClass = CornerClass.OTHER

    @property
    def box(self) -> Tuple[int, int]:  # (row, col)
        return (self.q - 1, -self.p)

    def __repr__(self) -> str:
        return f"CornerRecord({self.k}, {self.p}, {self.q}, {self.kind.value})"


#: _new(CornerRecord, (k, p, q, kind)) builds a record, skipping the
#: named tuple's own constructor
_new = tuple.__new__
#: the sort key of a record's position (p, q)
_POSITION = itemgetter(1, 2)


class CornerSet(NamedTuple):
    """All corners of a signed permutation, sorted p desc then q desc,
    and the first corner that rules w out of the class (see `corners`),
    or None when w is theta-vexillary.  A named tuple: it unpacks as
    (corners, stray), so iterate `corners` for the records."""

    corners: Tuple[CornerRecord, ...]
    stray: Optional[CornerRecord] = None


def _r_index(q: Sequence[int], a: int, m: int) -> Optional[int]:
    """R of an entry or corner with q = -m < 0, for rows q whose cut index
    is a: the r in [0, a) with q_r > m > q_{r+1}, taking q_0 = +infinity.
    Every q_j with j < a is positive and so is m, so r counts the
    positive entries above m.  None when one of them equals m, which is
    A2 failing."""
    r = 0
    while r < a - 1 and q[r] > m:
        r += 1
    if r < a - 1 and q[r] == m:
        return None
    return r


def _cut_and_r(q: Sequence[int]) -> Tuple[int, Dict[int, Optional[int]]]:
    """The cut index a = 1 + #{i : q_i > 0} of a weakly decreasing q, and
    R on [a, s] by `_r_index` (None where A2 fails)."""
    a = sum(1 for v in q if v > 0) + 1
    return a, {i: _r_index(q, a, -q[i - 1]) for i in range(a, len(q) + 1)}


def _k_at(k: Sequence[int], j: int) -> int:
    """k_j of the rows k, with k_0 = 0."""
    return k[j - 1] if j else 0


def _level(k: int, p: int, q: int, K: Sequence[int], r: int) -> int:
    """p + q + k - k_r for an entry or corner (k, p, q) with R = r, k_r
    read off the rows K.  The B2 slack of rows u above v,

        (p_u - p_v) + (q_u - q_v) - (k_v - k_u) - (k_{R(u)} - k_{R(v)}),

    is the level of u less the level of v, so slacks telescope.  B2 asks
    consecutive rows with q < 0 a positive slack (`theta._entry_checks`);
    `_label_by_rank` marks a row OPTIONAL when its slack against the next
    row is 0, and forces an unessential corner when its slack against a
    column mate is 0 (README, "Recovery", lemmas 4 and 5)."""
    return p + q + k - _k_at(K, r)


def corners(w: SignedPermutation) -> CornerSet:
    """The corner set of a signed permutation, classified and sorted.

    A position (p, q) with p in [1, n] is a corner when the box
    (q-1, -p) is an SE corner of the embedded diagram.  In terms of the
    full form (with w(0) = 0) and its inverse v, that box needs
    w(p-1) > w(p), so p-1 is a descent, and q in [1 - w(p-1), -w(p)],
    and then v(q-1) > -p >= v(q).  Read on the tail, the set of values
    at positions >= p, that test says -q is in the tail and 1 - q is
    not.  So column p's corners depend only on w(p-1) and the values
    from p on, and the set is a fold of one column step (`_column`)
    from p = n down to 1 (`_fold`), followed by `_label_by_rank`.

    No position with p = 1 and q < 0 needs excluding: for p = 1 the
    value range ends below w(0) = 0, so the exclusion of those positions
    is vacuous.  Nor is q = 0 ever a corner: the value 0 is never in
    the tail.

    The NE path is the set of positions minimal in the order
    (p, q) < (p', q') iff p > p' and q < q'.  With p descending, that
    is q at most the least q at a strictly larger p, so the fold labels
    each corner as it finds it.  A corner off the path is unessential
    when q < 0 and the path has a mate in its column below it and a
    mate in row -q + 1 (a path position smaller than it always exists,
    since it is not minimal); any other corner is OTHER.  The row mate
    has q > 0 and so a larger p, and the column mates come last in
    their column.  The first OTHER corner is the stray.  Only without
    one, and only when the path has a corner with q < 0, does
    `_label_by_rank` read the rank relation, to find an unforced
    unessential stray or mark the OPTIONAL corners: with no such corner
    there is no unessential corner and no path index i >= a.  The fold
    keeps the path as three rows and builds records only off it;
    `_records` builds the path records once their kinds are known.
    """
    K, P, Q, off, stray, optional = _fold(w.window)
    return CornerSet(_records(K, P, Q, off, optional), stray)


def _records(K: Sequence[int], P: Sequence[int], Q: Sequence[int], off: Sequence[CornerRecord],
             optional: Sequence[int]) -> Tuple[CornerRecord, ...]:
    """The records of a `_fold` result: the path rows as NE_PATH records,
    OPTIONAL at the `optional` indices, merged with `off` into p desc,
    q desc order."""
    path = list(map(_new, repeat(CornerRecord), zip(K, P, Q, repeat(_NE_PATH))))
    for i in optional:
        path[i] = _new(CornerRecord, (K[i], P[i], Q[i], _OPTIONAL))
    if off:
        path += off
        path.sort(key=_POSITION, reverse=True)  # p desc, then q desc
    return tuple(path)


def _fold(win: Sequence[int]):
    """The fold of `_column` over the columns of a window, p = n down to
    1, and `_label_by_rank` on its result: (K, P, Q, off, stray,
    optional), the NE path as rows, the records off it, the stray record
    or None, and the indices of the OPTIONAL path corners."""
    n = len(win)
    ext = (0, *win)  # ext[p] = w(p), with w(0) = 0
    K: List[int] = []
    P: List[int] = []
    Q: List[int] = []
    off: List[CornerRecord] = []
    tail, stray = 0, None
    for p in range(n, 0, -1):
        tail, stray = _column(n, p, ext[p], ext[p - 1], tail, stray, K, P, Q, off)
    optional: Sequence[int] = ()
    if stray is None:
        stray, optional = _label_by_rank(K, P, Q, off)
    return K, P, Q, off, stray, optional


def _column(n: int, p: int, here: int, left: int, tail: int,
            stray: Optional[CornerRecord], K: List[int], P: List[int], Q: List[int],
            off: List[CornerRecord]) -> Tuple[int, Optional[CornerRecord]]:
    """One column step of the fold: column p of a window of rank n, with
    here = w(p), left = w(p-1), `tail` the bitmask of the values at
    positions > p (bit n + v for the value v), the rows K, P, Q of the
    NE path corners and `off` the records of the other corners at
    larger p.  Appends the column's corners to them and returns the
    tail with w(p) and the stray: the first OTHER record so far, or None.

    A descent column's corners are the bits v in [w(p), w(p-1)) of
    `tail & ~(tail >> 1)`, each with q = -v and k the number of tail
    values up to v: a few operations on that int per descent and per
    corner, never a scan of all boxes.  They come lowest v first, which
    is q descending.  A corner is on the path when q is at most the
    least path q at a larger p, the last of Q (n + 1 before any), so
    the column's corners off the path come before its path corners.
    Its row mate, a path corner with q = 1 - q, is looked up in Q.
    """
    tail |= 1 << n + here
    if left < here:
        return tail, stray
    ends = tail & ~(tail >> 1) & (1 << n + left) - (1 << n + here)
    bound = Q[-1] if Q else n + 1
    start, path = len(off), len(Q)
    while ends:
        low = ends & -ends
        ends ^= low
        k = (tail & (low << 1) - 1).bit_count()
        q = n + 1 - low.bit_length()  # low is bit n + v, and q = -v
        if q <= bound:
            K.append(k)
            P.append(p)
            Q.append(q)
        else:
            off.append(_new(CornerRecord, (k, p, q, _OTHER)))
    column_mate = len(Q) > path
    for x in range(start, len(off)):
        c = off[x]
        if column_mate and c[2] < 0 and 1 - c[2] in Q:
            off[x] = _new(CornerRecord, (c[0], p, c[2], _UNESSENTIAL))
        elif stray is None:
            stray = c
    return tail, stray


def _label_by_rank(K: List[int], P: List[int], Q: List[int],
                   off: List[CornerRecord]) -> Tuple[Optional[CornerRecord], Sequence[int]]:
    """(stray, optional) for the fold of a window with no OTHER corner:
    the first unessential record of `off` that the rank relation does not
    force, or None, and then the indices of the path rows K, P, Q whose
    corners are OPTIONAL.  Both tests read the B2 slack, as a difference
    of `_level`s.  The NE path is (k_i, p_i, q_i), i = 1..s, with
    a = 1 + #{i : q_i > 0} and R on [a, s]: a corner (p, q) needs the
    value -q at a position >= p, so no two corners have opposite q.

    The stray is the first unessential u = (k, p, q) that is not forced:
    forced means that the slack of u above some path row i with p_i = p
    and q_i < q, a column mate, is 0, with R(u) by `_r_index` on -q.
    R(u) is the last row mate, the last j < a with q_j = 1 - q.  The
    paper asks q - q_i = k_i - k + k_j - k_{R(i)} of some row mate j,
    and on a window with no OTHER corner only j = R(u) can meet it
    (README, "Recovery", lemma 5).  With no stray, each path corner i in
    [a, s) whose slack above row i + 1 is 0 is OPTIONAL: B2 at i holds
    with equality.  The last corner is never OPTIONAL: its slack above
    the bottom row (n, 1, -n), of level 1 with R = 0, is positive by B3,
    which every path passes (lemma 3).  Without a path corner with q < 0
    there is no unessential corner and no i >= a, so nothing is read.
    """
    if not Q or Q[-1] > 0:
        return None, ()
    a, R = _cut_and_r(Q)
    b = a - 1  # rows i >= a sit at b..s-1 from 0, their levels at 0..s-a
    levels = [_level(K[x], P[x], Q[x], K, R[x + 1]) for x in range(b, len(Q))]

    for c in off:
        k, p, q = c[0], c[1], c[2]
        level = _level(k, p, q, K, _r_index(Q, a, -q))
        if level not in [v for p_i, q_i, v in zip(P[b:], Q[b:], levels) if p_i == p and q_i < q]:
            return c, ()

    return None, [b + x for x in range(len(levels) - 1) if levels[x] == levels[x + 1]]


# ---------------------------------------------------------------------------
# ASCII rendering

def _corner_token(k: int, kind: CornerClass) -> str:
    letter = {
        CornerClass.NE_PATH: "N",
        CornerClass.UNESSENTIAL: "U",
        CornerClass.OPTIONAL: "O",
        CornerClass.OTHER: "?",
    }[kind]
    return f"{k}{letter}"


def render_extended(w: SignedPermutation, *, show_crosses: bool = False) -> str:
    """ASCII picture of the extended diagram.

    "o" dots, "#" surviving diagram boxes, "." removed or crossed boxes
    ("x" for crossed ones when show_crosses is on).  SE-corner boxes are
    overlaid with their rank value and the class letter that `corners`
    labels them with (N/U/O, ? for OTHER); no route is run.  Row and
    column indices sit in the margins.
    """
    n = w.n
    v = w.inverse()
    overlay = {t.box: _corner_token(t.k, t.kind) for t in corners(w).corners}
    crossed = "x" if show_crosses else "."

    def cell(r, c):
        # the dot of column c sits in row w(c); a box has its column's
        # dot below it and its row's dot, in column v(r), right of it;
        # the dot (-r, -v(r)) crosses row r from column -v(r) on, which
        # lies right of the grid unless v(r) > 0
        if (r, c) in overlay:
            return overlay[(r, c)]
        if w(c) == r:
            return "o"
        if w(c) > r and v(r) > c:
            return crossed if c >= -v(r) else "#"
        return "."

    cols = range(-n, 0)
    lines = ["    " + "".join(f"{c:>3}" for c in cols)]
    for r in range(-n, n + 1):
        lines.append(f"{r:>4}" + "".join(f"{cell(r, c):>3}" for c in cols))
    return "\n".join(lines)
