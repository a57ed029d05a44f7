"""Signed permutations (the hyperoctahedral group W_n).

An element w of W_n is a bijection of the integers that satisfies
w(-i) = -w(i), fixes everything outside [-n, n], and is stored here by
its window w(1), ..., w(n).  Negative positions, the fixed point at 0,
and fixed points beyond n are all derived on demand from the window.

The natural order on window entries is the usual integer order with 0
removed: -n < ... < -1 < 1 < ... < n.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Optional, Sequence, Tuple

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


class SignedPermutation:
    """An element of W_n in one-line window notation.

    The window holds w(1), ..., w(n); each absolute value in {1, ..., n}
    appears exactly once.  Instances are immutable values: hashable,
    comparable by window, safe to share between workers.
    """

    __slots__ = ("window",)

    window: Tuple[int, ...]

    def __init__(self, window: Iterable[int]):
        win = tuple(window)
        n = len(win)
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
        object.__setattr__(self, "window", win)

    @classmethod
    def _of(cls, window: Tuple[int, ...]) -> "SignedPermutation":
        """The element with this window, unchecked: for windows that are
        permutations by construction, such as an inverse or an enumerated
        window.  Everything else goes through the checking constructor."""
        w = object.__new__(cls)
        object.__setattr__(w, "window", window)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("SignedPermutation is immutable")

    def __reduce__(self):
        # the default reduction restores the slot by assignment, which
        # __setattr__ refuses; pickle and copy rebuild from the window
        return SignedPermutation, (self.window,)

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

    def descents(self) -> frozenset:
        """Positions d in [0, n-1] with w(d) > w(d+1) in the full form.

        d = 0 is a descent exactly when w(1) < 0.
        """
        return frozenset(d for d in range(self.n) if self(d) > self(d + 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedPermutation) and self.window == other.window

    def __hash__(self) -> int:
        return hash(self.window)

    def __repr__(self) -> str:
        return f"SignedPermutation({list(self.window)})"

    def __str__(self) -> str:
        return format_window(self)


#: Signed patterns are just signed permutations of the pattern's rank;
#: containment is tested against the window of a larger element.
SignedPattern = SignedPermutation


# ---------------------------------------------------------------------------
# pattern containment


@lru_cache(maxsize=256)
def _letter_steps(pat: Tuple[int, ...]) -> Tuple[Tuple[int, int, int], ...]:
    """(sign, lower, upper) per letter j of a pattern window: the sign as
    0/1 and the earlier letters whose |pat| is the nearest below and
    above |pat[j]|, or -2 and -1 (the slots of the bounds) if none."""
    steps = []
    for j, v in enumerate(pat):
        ranked = [-2, *sorted(range(j + 1), key=lambda k: abs(pat[k])), -1]
        r = ranked.index(j)
        steps.append((int(v > 0), ranked[r - 1], ranked[r + 1]))
    return tuple(steps)


def find_pattern(
    w: SignedPermutation, patterns: Sequence[SignedPermutation]
) -> Optional[Tuple[SignedPermutation, Tuple[int, ...]]]:
    """The first of the patterns, in order, that occurs in w, with its
    lexicographically least witness (increasing 1-based indices whose
    entries have the pattern's signs and the relative order of its
    |values|); None if w avoids them all.

    Each pattern is a depth-first search over index prefixes in
    increasing order, so the table order and the least witnesses are
    those of one search per pattern.  The chosen letters are
    order-isomorphic to the pattern's prefix, so a candidate for letter
    j fits them all iff its |w| lies strictly between those of the two
    earlier letters nearest below and above |pat[j]|: two comparisons,
    not j.  A scan is skipped in O(1) when the per-sign suffix maximum
    and minimum of |w| leave no entry of the right sign in that
    interval.  The arrays are built once per window and shared by all
    patterns; each pattern's steps are memoised.
    """
    win = w.window
    n = len(win)
    # keys[s][i] is |w(i + 1)| if its sign is s (1 = positive), else 0, which
    # fails every a < x < b; top/low[s][i]: max/min |w| of sign s from i on
    keys = ([0] * n, [0] * n)
    top = ([0] * (n + 1), [0] * (n + 1))
    low = ([n + 1] * (n + 1), [n + 1] * (n + 1))
    hi, lo = [0, 0], [n + 1, n + 1]
    for i in range(n - 1, -1, -1):
        s = int(win[i] > 0)
        x = keys[s][i] = abs(win[i])
        if x > hi[s]:
            hi[s] = x
        if x < lo[s]:
            lo[s] = x
        top[0][i], top[1][i], low[0][i], low[1][i] = hi[0], hi[1], lo[0], lo[1]
    chosen = [0] * n
    size = [0] * n + [0, n + 1]  # |w| of the chosen letters, then the bounds
    for pattern in patterns:
        steps = _letter_steps(pattern.window)
        m = len(steps)
        j = start = 0
        while 0 <= j < m <= n:
            s, lower, upper = steps[j]
            a, b, key = size[lower], size[upper], keys[s]
            fits = top[s][start] > a and low[s][start] < b
            for i in range(start, n - m + j + 1 if fits else 0):
                if a < key[i] < b:
                    chosen[j], size[j] = i, key[i]
                    j, start = j + 1, i + 1
                    break
            else:  # backtrack: the previous letter tries its next index
                j -= 1
                start = chosen[j] + 1
        if j == m <= n:
            return pattern, tuple(i + 1 for i in chosen[:m])
    return None


def contains_pattern(w: SignedPermutation, pattern: SignedPermutation) -> bool:
    """True iff some subsequence of the window realizes the pattern."""
    return find_pattern(w, (pattern,)) is not None


# ---------------------------------------------------------------------------
# enumeration of W_n


def group_order(n: int) -> int:
    return (2 ** n) * factorial(n)


def iter_windows(n: int, prefix: Sequence[int] = ()) -> Iterator[Tuple[int, ...]]:
    """Windows of W_n that begin with `prefix`, in lexicographic order
    (entries ordered -n < ... < -1 < 1 < ... < n); the empty prefix, the
    default, gives all of W_n.

    One depth-first walk extends the prefix by each free value in turn.
    The 2n one-letter prefixes split the stream into runs that follow
    each other in prefix order, which is how `verify_equivalence` hands
    W_n to its workers.
    """
    window = list(prefix)
    used = {abs(v) for v in window}
    values = [v for v in range(-n, n + 1) if v != 0]

    def walk(depth: int) -> Iterator[Tuple[int, ...]]:
        if depth == n:
            yield tuple(window)
            return
        for v in values:
            if abs(v) in used:
                continue
            window.append(v)
            used.add(abs(v))
            yield from walk(depth + 1)
            window.pop()
            used.remove(abs(v))

    return walk(len(window))


def enumerate_group(n: int, *, allow_large: bool = False) -> Iterator[SignedPermutation]:
    """All 2^n * n! elements of W_n, each exactly once, in lexicographic
    order on windows (entries ordered -n < ... < -1 < 1 < ... < n).
    """
    check_rank_guard(n, allow_large)
    for win in iter_windows(n):
        yield SignedPermutation._of(win)


# ---------------------------------------------------------------------------
# text notation

def parse_window(text: str) -> SignedPermutation:
    """Parse whitespace/comma separated signed integers into an element.

    Bars are written as ASCII minus signs, e.g. "-2 3 1" for the window
    whose first entry is negative.
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty window")
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"bad window token {tok!r}: not an integer") from None
    try:
        return SignedPermutation(values)
    except ValueError as exc:
        raise ValueError(f"bad window {text!r}: {exc}") from None


def format_window(w: SignedPermutation) -> str:
    return " ".join(str(v) for v in w.window)
