"""Extended diagrams, SE corners, and the corner taxonomy.

Coordinates are matrix style throughout: rows run top to bottom over
[-n, n], columns left to right.  The extended diagram of a signed
permutation lives on columns [-n, -1].

A corner position (p, q), with p in [1, n], names the box (q - 1, -p).
Corner records carry the rank value k and a taxonomy class.  `corners`
assigns every class in one pass: it also decides which unessential
corners the rank relation forces and which NE-path corners a triple
skips (OPTIONAL), so every route reads the same labels.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

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


class CornerSet(NamedTuple):
    """All corners of a signed permutation, sorted p desc then q desc,
    and the first corner that rules w out of the class (see `corners`),
    or None when w is theta-vexillary.  A named tuple: it unpacks as
    (corners, stray), so iterate `corners` for the records."""

    corners: Tuple[CornerRecord, ...]
    stray: Optional[CornerRecord] = None


def _r_index(q: Sequence[int], a: int, i: int) -> Optional[int]:
    """R(i) for an index i >= a: the r in [0, a) with q_r > -q_i > q_{r+1},
    taking q_0 = +infinity.  Every q_j with j < a is positive and -q_i is
    positive, so r counts the positive entries above -q_i.  None when one
    of them equals -q_i, which is A2 failing."""
    target = -q[i - 1]
    r = 0
    while r < a - 1 and q[r] > target:
        r += 1
    if r < a - 1 and q[r] == target:
        return None
    return r


def _cut_and_r(q: Sequence[int]) -> Tuple[int, Dict[int, Optional[int]]]:
    """The cut index a = 1 + #{i : q_i > 0} of a weakly decreasing q, and
    R on [a, s] by `_r_index` (None where A2 fails)."""
    a = sum(1 for v in q if v > 0) + 1
    return a, {i: _r_index(q, a, i) for i in range(a, len(q) + 1)}


def corners(w: SignedPermutation) -> CornerSet:
    """The corner set of a signed permutation, classified and sorted.

    A position (p, q) with p in [1, n] is a corner when the box
    (q-1, -p) is an SE corner of the embedded diagram.  In terms of the
    full form (with w(0) = 0) and its inverse v, that box needs
    w(p-1) > w(p), so p-1 is a descent, and q in [1 - w(p-1), -w(p)],
    and then v(q-1) > -p >= v(q).  Read on the tail, the set of values
    at positions >= p, that test says -q is in the tail and 1 - q is
    not.  The pass keeps the tail as one int bitmask, bit n + v for the
    value v, while p steps down from n; a descent column's corners are
    then the bits v in [w(p), w(p-1)) of `tail & ~(tail >> 1)`, each
    with q = -v and k the number of tail values up to v.  The work is
    a few operations on that int per descent and per corner, never a
    scan of all boxes.

    So no position with p = 1 and q < 0 needs excluding: for p = 1 the
    value range ends below w(0) = 0, and the exclusion of those
    positions is vacuous.  Nor is q = 0 ever a corner: bit n, the
    value 0, is never set.

    The NE path is the set of positions minimal in the order
    (p, q) < (p', q') iff p > p' and q < q'.  With p descending, that
    is q at most the least q at a strictly larger p, so the pass labels
    each corner as it finds it.  A corner off the path is unessential
    when q < 0 and the path has a mate in its column below it and a
    mate in row -q + 1 (a path position smaller than it always exists,
    since it is not minimal); any other corner is OTHER.  The row mate
    has q > 0 and so a larger p, and the column mates come last in
    their column.  The first OTHER corner is the stray.  Only without
    one, and only when the path has a corner with q < 0, does
    `_label_by_rank` read the rank relation, to find an unforced
    unessential stray or mark the OPTIONAL corners: with no such corner
    there is no unessential corner and no path index i >= a.  Each
    record is built once, when its kind is known; the rare relabels,
    UNESSENTIAL at the end of a column and OPTIONAL in `_label_by_rank`,
    replace the record at its index.  Records come out sorted p desc,
    q desc.
    """
    win = w.window
    n = len(win)
    new = tuple.__new__  # new(CornerRecord, (k, p, q, kind)) builds a record
    found = []  # the records, in p desc, q desc order
    path_qs = set()  # the q of every path corner found so far
    bound = n + 1  # the least q of a corner at a larger p
    stray = None
    tail = 0  # bit n + v set for each value v at a position >= p
    for p in range(n, 0, -1):
        here = win[p - 1]
        tail |= 1 << n + here
        left = win[p - 2] if p > 1 else 0
        if left < here:
            continue
        # the values v in [here, left) with v in the tail and v + 1 not,
        # lowest first, which is q = -v descending
        ends = tail & ~(tail >> 1) & (1 << n + left) - (1 << n + here)
        start, off = len(found), 0
        while ends:
            low = ends & -ends
            ends ^= low
            k = (tail & (low << 1) - 1).bit_count()
            q = n + 1 - low.bit_length()  # low is bit n + v, and q = -v
            if q <= bound:
                found.append(new(CornerRecord, (k, p, q, _NE_PATH)))
                path_qs.add(q)
            else:
                found.append(new(CornerRecord, (k, p, q, _OTHER)))
                off += 1
        # the column's path corners come after its `off` corners off the path
        column_mate = len(found) > start + off
        for x in range(start, start + off):
            c = found[x]
            if column_mate and c[2] < 0 and 1 - c[2] in path_qs:
                found[x] = c._replace(kind=_UNESSENTIAL)
            elif stray is None:
                stray = x
        if column_mate:
            bound = found[-1][2]
    if stray is None and bound < 0:  # the path has a corner with q < 0
        stray = _label_by_rank(found, n)
    records = tuple(found)
    return CornerSet(records, None if stray is None else records[stray])


def _label_by_rank(found: list, n: int) -> Optional[int]:
    """The index in `found` of the stray corner of a corner set with no
    OTHER corner, or None.

    The stray is the first unessential (k, p, q) that is not forced:
    forced means some i >= a with p_i = p and q_i < q, and some j < a
    with q_j = 1 - q, have q - q_i = k_i - k + k_j - k_{R(i)}.
    With no stray, each path corner i >= a where (p_i - p_{i+1}) +
    (q_i - q_{i+1}) = (k_{i+1} - k_i) + (k_{R(i)} - k_{R(i+1)}) is
    relabelled OPTIONAL in `found`.  The NE path is (k_i, p_i, q_i),
    i = 1..s, between the sentinels (0, n, n) and (n, 1, -n), with
    a = 1 + #{i : q_i > 0} and R(s+1) = 0, which makes the last identity
    the B3 boundary.  R is defined on [a, s]: a corner (p, q) needs the
    value -q at a position >= p, so no two corners have opposite q.
    """
    path = [x for x, c in enumerate(found) if c[3] is _NE_PATH]
    s = len(path)
    K = [0, *(found[x][0] for x in path), n]
    P = [n, *(found[x][1] for x in path), 1]
    Q = [n, *(found[x][2] for x in path), -n]
    a, R = _cut_and_r(Q[1:s + 1])
    R[s + 1] = 0

    for x, (k, p, q, kind) in enumerate(found):
        if kind is _UNESSENTIAL and not any(
            P[i] == p and Q[i] < q
            and any(Q[j] == 1 - q and q - Q[i] == K[i] - k + K[j] - K[R[i]]
                    for j in range(1, a))
            for i in range(a, s + 1)
        ):
            return x

    for i in range(a, s + 1):
        lhs = (P[i] - P[i + 1]) + (Q[i] - Q[i + 1])
        rhs = (K[i + 1] - K[i]) + (K[R[i]] - K[R[i + 1]])
        if lhs == rhs:
            x = path[i - 1]
            found[x] = found[x]._replace(kind=_OPTIONAL)
    return None


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
