"""Signed permutations (the hyperoctahedral group W_n).

An element w of W_n is a bijection of the integers that satisfies
w(-i) = -w(i), fixes everything outside [-n, n], and is stored here by
its window w(1), ..., w(n).  Negative positions, the fixed point at 0,
and fixed points beyond n are all derived on demand from the window.

The natural order on window entries is the usual integer order with 0
removed: -n < ... < -1 < 1 < ... < n.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

#: Exhaustive scans refuse ranks above this unless explicitly overridden.
RANK_GUARD = 8


class RankTooLargeError(ValueError):
    """An exhaustive scan was requested for a rank above the guard."""


def check_rank_guard(n: int, allow_large: bool = False) -> None:
    # type(n), not isinstance: a bool is an int but no rank
    if type(n) is not int or n < 1:
        raise ValueError(f"rank must be a positive integer, got {n!r}")
    if n > RANK_GUARD and not allow_large:
        raise RankTooLargeError(
            f"rank {n} exceeds the guard for exhaustive work (max {RANK_GUARD}); "
            "pass allow_large/--allow-large to override"
        )


class _Window(NamedTuple):
    window: Tuple[int, ...]


class SignedPermutation(_Window):
    """An element of W_n in one-line window notation.

    The window holds w(1), ..., w(n); each absolute value in {1, ..., n}
    appears exactly once.  A named tuple of the one field `window`: an
    immutable value, equal to (window,) but not to its window, and of
    len 1, so read the rank as w.n.
    """

    __slots__ = ()

    def __new__(cls, window: Iterable[int]) -> "SignedPermutation":
        win = tuple(window)
        n = len(win)
        if not n:
            raise ValueError("empty window: the rank must be at least 1")
        seen = set()
        for v in win:
            if type(v) is not int:
                raise ValueError(f"window entry {v!r} is not an integer")
            if v == 0:
                raise ValueError("window entries must be nonzero")
            if not 1 <= abs(v) <= n:
                raise ValueError(
                    f"window entry {v} out of range for rank {n} "
                    f"(absolute values must cover 1..{n})"
                )
            if abs(v) in seen:
                raise ValueError(f"absolute value {abs(v)} repeated in window")
            seen.add(abs(v))
        return tuple.__new__(cls, (win,))

    # the named-tuple builder, which `_replace` runs too, with the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def _of(cls, window: Tuple[int, ...]) -> "SignedPermutation":
        """The element with this window, unchecked: for windows that are
        permutations by construction, such as an inverse or an enumerated
        window.  Everything else goes through the checking constructor."""
        return tuple.__new__(cls, (window,))

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        """Evaluate w(i) for any integer i under the full-form convention."""
        n = len(self.window)
        if i == 0:
            return 0
        if i > 0:
            return self.window[i - 1] if i <= n else i
        # w(-i) = -w(i)
        return -self.window[-i - 1] if -i <= n else i

    def inverse(self) -> "SignedPermutation":
        """The group inverse, i.e. v with v(w(i)) = i."""
        inv = [0] * self.n
        for i, v in enumerate(self.window, start=1):
            if v > 0:
                inv[v - 1] = i
            else:
                inv[-v - 1] = -i
        return SignedPermutation._of(tuple(inv))

    def length(self) -> int:
        """Coxeter length: inversions of the window plus antisymmetric pairs.

        length = #{i < j | w(i) > w(j)} + #{i <= j | w(-i) > w(j)}.
        The second count uses w(-i) > w(j) <=> w(i) + w(j) < 0.
        """
        win = self.window
        n = len(win)
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if win[i] > win[j]
        )
        neg = sum(
            1 for i in range(n) for j in range(i, n) if win[i] + win[j] < 0
        )
        return inv + neg

    def __repr__(self) -> str:
        return f"SignedPermutation({list(self.window)})"

    def __str__(self) -> str:
        return format_window(self)


# ---------------------------------------------------------------------------
# pattern containment


def _letter_steps(pat: Tuple[int, ...]) -> Tuple[Tuple[int, int, int, int], ...]:
    """(sign, lower, upper, rest) per letter j of a pattern window: the
    sign as 0/1, the earlier letters whose |pat| is the nearest below and
    above |pat[j]|, or -2 and -1 (the slots of the bounds) if none, and
    the number of letters after j."""
    steps = []
    for j, v in enumerate(pat):
        ranked = [-2, *sorted(range(j + 1), key=lambda k: abs(pat[k])), -1]
        r = ranked.index(j)
        steps.append((int(v > 0), ranked[r - 1], ranked[r + 1], len(pat) - j - 1))
    return tuple(steps)


class PatternTable(tuple):
    """A tuple of patterns compiled once, when the table is built, into
    `_tree` prefix trees for `_occurs`.  `paths` holds the branches of
    one tree per pattern, in table order, for `find_pattern`: the
    pattern's one path of `_letter_steps`, below a placeholder first
    step, so that every letter is scanned.  `anchored[s]`, for
    `_anchored` on a new letter of sign s (0 negative, 1 positive), is
    the tree of the patterns whose last letter has sign s, each
    pattern's steps rotated so that its last letter comes first."""

    def __new__(cls, patterns: Iterable[SignedPermutation]) -> "PatternTable":
        table = super().__new__(cls, patterns)
        table.paths = tuple(_tree([(None, *_letter_steps(p.window))])[1] for p in table)
        rotated = ([], [])
        for p in table:
            win = p.window
            rotated[win[-1] > 0].append(_letter_steps(win[-1:] + win[:-1]))
        table.anchored = tuple(map(_tree, rotated))
        return table


def _tree(paths: list) -> tuple:
    """The prefix tree of letter-step paths that share their first step,
    as (end, branches): whether a path ends at that step, and per
    distinct next step (sign, lower, upper) one branch
    (sign, lower, upper, rest, end, branches), whose `rest` is the least
    among the paths through it."""
    below: dict = {}
    for steps in paths:
        if len(steps) > 1:
            below.setdefault(steps[1][:3], []).append(steps[1:])
    return any(len(steps) == 1 for steps in paths), tuple(
        (*step, min(steps[0][3] for steps in group), *_tree(group))
        for step, group in below.items()
    )


def _sign_index(win: Sequence[int], n: int, bound: int):
    """What `_occurs` reads of the first n letters of a window whose |w|
    all lie below `bound`, per sign (negative, then positive): key[i] is
    |w(i + 1)| if w(i + 1) has that sign, else 0, which fails every
    a < x < b; top[i] and low[i] are the max and min |w| of that sign
    from i on, and 0 and `bound` at n."""
    pos_key, neg_key = [0] * n, [0] * n
    pos_top, neg_top = [0] * (n + 1), [0] * (n + 1)
    pos_low, neg_low = [bound] * (n + 1), [bound] * (n + 1)
    pos_hi = neg_hi = 0
    pos_lo = neg_lo = bound
    for i in range(n - 1, -1, -1):
        x = win[i]
        if x > 0:
            pos_key[i] = x
            if x > pos_hi:
                pos_hi = x
            if x < pos_lo:
                pos_lo = x
        else:
            x = neg_key[i] = -x
            if x > neg_hi:
                neg_hi = x
            if x < neg_lo:
                neg_lo = x
        pos_top[i], neg_top[i], pos_low[i], neg_low[i] = pos_hi, neg_hi, pos_lo, neg_lo
    return (neg_key, neg_top, neg_low), (pos_key, pos_top, pos_low)


def _occurs(branches, j: int, start: int, n: int, by_sign, size: list) -> bool:
    """Whether the letters from j on of a pattern in the `_tree` branches
    occur at indices >= start of the n letters indexed by `by_sign`
    (`_sign_index`), each fitting the letters before it.  `size[j]`
    holds |w| of letter j once it is placed, then the bounds at -2 and
    -1: 0 and the `bound` of `_sign_index`.  On a hit, `size` keeps the
    |w| of every letter of the path found.

    A depth-first search over index prefixes in increasing order, so on
    a one-path tree the hit is the lexicographically least.  The placed
    letters are order-isomorphic to the pattern's prefix, so a candidate
    for letter j fits them all iff its |w| lies strictly between those
    of the two earlier letters nearest below and above |pat[j]|: two
    comparisons, not j.  A scan is skipped in O(1) when the per-sign
    suffix maximum and minimum of |w| leave no entry of the right sign
    in that interval, and a step that several patterns share is scanned
    once for all of them."""
    for s, lower, upper, rest, end, below in branches:
        key, top, low = by_sign[s]
        a, b = size[lower], size[upper]
        if top[start] > a and low[start] < b:
            for i in range(start, n - rest):
                x = key[i]
                if a < x < b:
                    size[j] = x
                    if end or _occurs(below, j + 1, i + 1, n, by_sign, size):
                        return True
    return False


def _anchored(anchored, v: int, x: int, depth: int, by_sign, size: list) -> bool:
    """Whether a pattern of the `PatternTable.anchored` trees ends at a new
    letter v, |v| = x, after the `depth` letters of `by_sign`."""
    size[0] = x
    end, branches = anchored[v > 0]
    return end or _occurs(branches, 1, 0, depth, by_sign, size)


def find_pattern(
    w: SignedPermutation, patterns: Sequence[SignedPermutation]
) -> Optional[Tuple[SignedPermutation, Tuple[int, ...]]]:
    """The first of the patterns, in order, that occurs in w, with its
    lexicographically least witness (increasing 1-based indices whose
    entries have the pattern's signs and the relative order of its
    |values|); None if w avoids them all.

    One `_occurs` per pattern, in table order, over its one-path tree
    in `PatternTable.paths`; the arrays it reads are built once per
    window and shared by all patterns.  |Values| are distinct, so the
    witness is read back from the |w| that a hit leaves in `size`.  A
    `PatternTable` comes compiled; any other sequence is compiled on
    entry.
    """
    if not isinstance(patterns, PatternTable):
        patterns = PatternTable(patterns)
    win = w.window
    n = len(win)
    by_sign = _sign_index(win, n, n + 1)
    size = [0] * n + [0, n + 1]
    for pattern, branches in zip(patterns, patterns.paths):
        if _occurs(branches, 0, 0, n, by_sign, size):
            return pattern, tuple(
                [win.index(x if v > 0 else -x) + 1 for x, v in zip(size, pattern.window)]
            )
    return None


# ---------------------------------------------------------------------------
# enumeration of W_n


def iter_windows(
    n: int, prefix: Sequence[int] = (), patterns: Optional[PatternTable] = None
) -> Iterator[Tuple[int, ...]]:
    """The windows of W_n that begin with `prefix` and avoid every pattern
    of the table, in lexicographic order (entries ordered
    -n < ... < -1 < 1 < ... < n); without a table, every window that
    begins with `prefix`.  The empty prefix, the default, gives all of
    W_n, and the 2n one-letter prefixes split the stream into runs that
    follow each other in prefix order.

    One depth-first walk extends the prefix by each free value in turn.
    Containment is inherited by extension, and a prefix of length m
    contains a pattern iff its first m - 1 letters do or an occurrence
    ends at letter m.  So the walk extends only avoiding prefixes: a
    value whose anchored test (`_anchored`) hits on the parent's
    `_sign_index`, built once for all its children, is skipped with its
    whole subtree.  The walk reports no witness, so the
    order of the patterns in the tree does not matter.  A prefix that no
    window of W_n begins with raises ValueError here, before the walk.
    """
    prefix = tuple(prefix)
    seen = set()
    for v in prefix:
        if type(v) is not int or not 1 <= abs(v) <= n or abs(v) in seen:
            raise ValueError(f"no window of W_{n} begins with {prefix}")
        seen.add(abs(v))
    anchored = patterns.anchored if patterns else None
    values = [v for v in range(-n, n + 1) if v != 0]
    window: list = []
    used: set = set()
    size = [0] * n + [0, n + 1]

    def walk(depth: int) -> Iterator[Tuple[int, ...]]:
        if depth == n > 0:  # a window; W_0 has none, as ranks start at 1
            yield tuple(window)
            return
        if anchored is not None:
            by_sign = _sign_index(window, depth, n + 1)
        for v in prefix[depth:depth + 1] or values:
            x = v if v > 0 else -v
            if x in used or anchored is not None and _anchored(
                    anchored, v, x, depth, by_sign, size):
                continue
            window.append(v)
            used.add(x)
            yield from walk(depth + 1)
            used.remove(x)
            window.pop()

    return walk(0)


# ---------------------------------------------------------------------------
# text notation

def _parse_ints(text: str, what: str) -> Tuple[int, ...]:
    """The whitespace/comma separated integers of text; a token that is
    none is refused as a bad `what` token."""
    values = []
    for tok in text.replace(",", " ").split():
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"bad {what} token {tok!r}: not an integer") from None
    return tuple(values)


def parse_window(text: str) -> SignedPermutation:
    """Parse whitespace/comma separated signed integers into an element.

    Bars are written as ASCII minus signs, e.g. "-2 3 1" for the window
    whose first entry is negative.
    """
    values = _parse_ints(text, "window")
    if not values:
        raise ValueError("empty window")
    try:
        return SignedPermutation(values)
    except ValueError as exc:
        raise ValueError(f"bad window {text!r}: {exc}") from None


def format_window(w: SignedPermutation) -> str:
    return " ".join(str(v) for v in w.window)
