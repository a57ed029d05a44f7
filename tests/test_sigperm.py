from math import factorial

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import (
    contains_pattern,
    descents,
    length_by_descent_stripping,
    naive_find_pattern,
    naive_first_pattern,
    reference_inverse,
    signed_permutations,
)
from thetavex.classify import enumerate_theta_vexillary
from thetavex.sigperm import (
    PatternTable,
    RankTooLargeError,
    SignedPermutation,
    find_pattern,
    format_window,
    iter_windows,
    parse_window,
)

BIG = SignedPermutation([10, 1, 5, 3, -2, -4, 6, -9, -8, -7])
BIG_INV = SignedPermutation([2, -5, 4, -6, 3, 7, -10, -9, -8, 1])


def group_order(n):
    """|W_n| = 2^n n!."""
    return 2 ** n * factorial(n)


def negative_one_line(n):
    """The longest element: window -1, -2, ..., -n."""
    return SignedPermutation([-i for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# evaluation / full form


def test_evaluate_full_form():
    w = SignedPermutation([-2, 1, -3])
    # full form of the window is 3 -1 2 0 -2 1 -3 on positions -3..3
    assert [w(i) for i in range(-3, 4)] == [3, -1, 2, 0, -2, 1, -3]
    assert w(-1) == 2
    assert w(0) == 0
    assert w(4) == 4
    assert w(-5) == -5


@given(signed_permutations())
def test_evaluate_antisymmetry(w):
    for i in range(-w.n - 2, w.n + 3):
        assert w(-i) == -w(i)


def test_windows_pickle_and_copy():
    import copy
    import pickle

    for w in (BIG, SignedPermutation([-1])):
        for twin in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w), copy.copy(w)):
            assert type(twin) is SignedPermutation and twin == w
            assert hash(twin) == hash(w)
        # a named tuple of the one field `window`
        assert w == (w.window,) and w != w.window
    # `_replace` and `_make` check the window as the constructor does
    with pytest.raises(ValueError, match="repeated"):
        BIG._replace(window=(1, 1))
    with pytest.raises(ValueError, match="nonzero"):
        SignedPermutation._make([(0,)])
    with pytest.raises(AttributeError):
        BIG.window = (1,)


# ---------------------------------------------------------------------------
# length


def test_length_examples():
    assert SignedPermutation.identity(4).length() == 0
    for n in range(1, 6):
        assert negative_one_line(n).length() == n * n
    # direct count over both inversion sets (note: deviates from a stale
    # published example; re-derived twice, see the descent-stripping oracle)
    assert SignedPermutation([-2, 1, -3]).length() == 7


def test_length_matches_oracle_exhaustive():
    for n in (1, 2, 3, 4):
        for w in map(SignedPermutation, iter_windows(n)):
            assert w.length() == length_by_descent_stripping(w)


@given(signed_permutations(max_n=7))
def test_length_matches_oracle_random(w):
    assert w.length() == length_by_descent_stripping(w)


def test_length_of_inverse_exhaustive():
    for n in (1, 2, 3, 4, 5):
        assert all(w.length() == w.inverse().length()
                   for w in map(SignedPermutation, iter_windows(n)))


# ---------------------------------------------------------------------------
# inverse


def test_inverse_examples():
    assert SignedPermutation.identity(3).inverse() == SignedPermutation.identity(3)
    assert BIG.inverse() == BIG_INV
    assert BIG_INV.inverse() == BIG


def test_unchecked_elements_match_checked_ones_exhaustively():
    """inverse builds its elements unchecked: on all of W_5 each inverse
    passes the checked constructor and equals the reference inverse."""
    for w in map(SignedPermutation, iter_windows(5)):
        v = w.inverse()
        assert SignedPermutation(v.window) == v == reference_inverse(w)
        assert type(v.window) is tuple


@given(signed_permutations())
def test_inverse_is_involution(w):
    winv = w.inverse()
    assert winv.inverse() == w
    # the full forms are inverse at every position, 0 and the fixed
    # points beyond the window included
    for i in range(-w.n - 1, w.n + 2):
        assert winv(w(i)) == i
        assert w(winv(i)) == i


def test_embed_odd():
    # the full form on [-n, n] that the odd embedding used to materialise
    w = SignedPermutation([-2, 3, 1])
    assert [w(i) for i in range(-3, 4)] == [-1, -3, 2, 0, -2, 3, 1]
    assert w(-3) == -1
    assert w(4) == 4  # fixed point beyond the window
    assert w.inverse()(-5) == -5

    ident = SignedPermutation.identity(2)
    assert [ident(i) for i in range(-2, 3)] == [-2, -1, 0, 1, 2]


# ---------------------------------------------------------------------------
# descents


def test_descents_examples():
    assert descents(SignedPermutation.identity(5)) == frozenset()
    assert descents(BIG) == {1, 3, 4, 5, 7}
    for n in (1, 2, 3, 4):
        assert descents(negative_one_line(n)) == set(range(n))


@given(signed_permutations())
def test_descent_at_zero_iff_first_negative(w):
    assert (0 in descents(w)) == (w.window[0] < 0)


# ---------------------------------------------------------------------------
# pattern containment


def witness(w, pat):
    """The least witness of one pattern through the sequence form."""
    hit = find_pattern(w, (pat,))
    return None if hit is None else hit[1]


def test_pattern_trivial_witnesses():
    w = SignedPermutation([-1, 3, 2])
    pat = SignedPermutation([-1, 3, 2])
    assert find_pattern(w, (pat,)) == (pat, (1, 2, 3))
    w2 = SignedPermutation([2, 1, 4, 3])
    pat2 = SignedPermutation([2, 1, 4, 3])
    assert find_pattern(w2, (pat2,)) == (pat2, (1, 2, 3, 4))
    assert contains_pattern(w2, pat2)


def test_pattern_needs_matching_signs():
    w = SignedPermutation([1, 2, 3])
    assert find_pattern(w, (SignedPermutation([-1, 2, 3]),)) is None
    assert find_pattern(negative_one_line(3), (SignedPermutation([1, 2]),)) is None


def test_pattern_matcher_agrees_with_naive_exhaustive():
    patterns = [SignedPermutation(p) for p in
                ([-1, 3, 2], [-2, 3, 1], [2, 1, 4, 3], [3, -4, 1, -2], [1, 2], [-2, -1])]
    for n in (2, 3, 4):
        for w in map(SignedPermutation, iter_windows(n)):
            for pat in patterns:
                assert witness(w, pat) == naive_find_pattern(w, pat)
            assert find_pattern(w, patterns) == naive_first_pattern(w, patterns)


@settings(max_examples=300)
@given(signed_permutations(max_n=7), signed_permutations(min_n=1, max_n=5))
def test_pattern_matcher_agrees_with_naive_random(w, pat):
    assert witness(w, pat) == naive_find_pattern(w, pat)


def test_pattern_sequence_edge_cases():
    w = SignedPermutation([2, -3, 1])
    longer = SignedPermutation([2, 1, 4, 3])
    one, two = SignedPermutation([-1]), SignedPermutation([1, 2])
    assert find_pattern(w, ()) is None
    # a pattern longer than the window is skipped, not an error
    assert find_pattern(w, (longer,)) is None
    assert find_pattern(w, (longer, one)) == (one, (2,))
    assert find_pattern(w, (two,)) is None
    assert find_pattern(w, (SignedPermutation([2, 1]),)) == (
        SignedPermutation([2, 1]), (1, 3))
    # the first pattern of the sequence wins, not the earliest witness
    assert find_pattern(w, (SignedPermutation([1]), one)) == (
        SignedPermutation([1]), (1,))
    assert find_pattern(w, (one, SignedPermutation([1]))) == (one, (2,))
    # every 1- and 2-letter pattern against W_1..W_3
    short = [SignedPermutation(win) for n in (1, 2) for win in iter_windows(n)]
    for n in (1, 2, 3):
        for v in map(SignedPermutation, iter_windows(n)):
            for p in short:
                assert witness(v, p) == naive_find_pattern(v, p)


@given(signed_permutations(max_n=5), signed_permutations(min_n=2, max_n=3))
def test_pattern_monotone_under_window_extension(w, pat):
    extended = SignedPermutation(list(w.window) + [w.n + 1])
    if contains_pattern(w, pat):
        assert contains_pattern(extended, pat)


@st.composite
def extended(draw, rotated):
    """A rotated pattern (its last letter first) with one letter appended:
    a drawn |value| and sign, the earlier |values| at or above it moved up
    by one.  The old letters keep their relative order, so their letter
    steps are a prefix of the new pattern's."""
    rank = draw(st.integers(1, len(rotated) + 1))
    sign = draw(st.sampled_from((1, -1)))
    bumped = (v + (1 if v > 0 else -1) if abs(v) >= rank else v for v in rotated)
    return (*bumped, sign * rank)


@st.composite
def tree_tables(draw):
    """A `PatternTable` of 1- to 4-letter patterns, in a drawn order, whose
    anchored trees have the two node kinds the thirteen patterns do not
    exercise: a pattern whose rotated steps extend another's, which makes
    a node both an end and a parent, and a 3- and a 4-letter pattern
    through one node, whose least `rest` is the shorter one's.  Up to two
    more random patterns ride along."""
    base = draw(signed_permutations(max_n=3)).window
    stem = draw(signed_permutations(min_n=2, max_n=2)).window
    longer = draw(extended(draw(extended(stem))))
    rotated = [base, draw(extended(base)), draw(extended(stem)), longer]
    rotated += [p.window for p in draw(st.lists(signed_permutations(max_n=4), max_size=2))]
    patterns = [SignedPermutation(r[1:] + r[:1]) for r in rotated]
    return PatternTable(draw(st.permutations(patterns)))


@settings(max_examples=25, deadline=None)
@given(tree_tables())
def test_walk_tree_agrees_with_find_pattern(table):
    """On W_1..W_5, the walk's one search over the prefix tree keeps
    exactly the windows on which `find_pattern` finds no pattern, in
    window order."""
    for n in range(1, 6):
        assert list(iter_windows(n, (), table)) == [
            win for win in iter_windows(n)
            if find_pattern(SignedPermutation._of(win), table) is None]


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_small():
    assert list(iter_windows(1)) == [(-1,), (1,)]
    windows = list(iter_windows(3))
    assert len(windows) == len(set(windows)) == 48


def test_enumerate_is_lexicographic_and_complete():
    windows = list(iter_windows(4))
    assert windows == sorted(windows)
    assert len(set(windows)) == group_order(4) == 384


def test_enumerate_count_n5():
    assert sum(1 for _ in iter_windows(5)) == 3840


def test_enumerate_chunks_glue_to_full_stream():
    # the pool's chunks are the first letters -n..-1, 1..n, merged in order
    for n in range(1, 7):
        full = list(iter_windows(n))
        glued = [win for v in range(-n, n + 1) if v
                 for win in iter_windows(n, (v,))]
        assert glued == full
        assert full == sorted(full)
        assert len(set(full)) == len(full) == group_order(n)


def test_pool_chunks_equal_slices_of_full_stream():
    # each first-letter chunk is the contiguous run of the full stream
    # with that first letter, of size 2^(n-1) * (n-1)! = |W_n| / 2n
    for n in range(1, 6):
        full = list(iter_windows(n))
        size = group_order(n) // (2 * n)
        letters = [v for v in range(-n, n + 1) if v]
        for k, v in enumerate(letters):
            assert list(iter_windows(n, (v,))) == full[k * size:(k + 1) * size]
        # a longer prefix is a contiguous slice too
        if n >= 2:
            two = [win for win in full if win[:2] == (n, -1)]
            assert len(two) == group_order(n) // (2 * n * (2 * n - 2))
            assert list(iter_windows(n, (n, -1))) == two


@pytest.mark.parametrize(
    "prefix", [(1, 1), (1, -1), (5,), (0,), (-3,), (True,), (1.0,), (1, 2, 1)]
)
def test_iter_windows_rejects_bad_prefix(prefix):
    # raised by the call itself, before any window is drawn
    with pytest.raises(ValueError, match="no window of W_2 begins with"):
        iter_windows(2, prefix)


def test_iter_windows_takes_a_whole_window_as_prefix():
    assert list(iter_windows(2, (2, -1))) == [(2, -1)]
    assert list(iter_windows(2, [-1])) == [(-1, -2), (-1, 2)]


@pytest.mark.parametrize("window", [[True], [1.0, -2.0]])
def test_window_rejects_non_integer_entries(window):
    with pytest.raises(ValueError, match="not an integer"):
        SignedPermutation(window)


def test_window_rejects_empty_window():
    # rank 0 has no triple, so the empty window would pass the pattern
    # and corner routes and fail the triple route
    with pytest.raises(ValueError, match="empty window"):
        SignedPermutation(())
    with pytest.raises(ValueError, match="empty window"):
        SignedPermutation.identity(0)


def test_rank_guard():
    with pytest.raises(RankTooLargeError):
        next(enumerate_theta_vexillary(9))
    # override lets the stream start
    first = next(enumerate_theta_vexillary(9, allow_large=True))
    assert first.window[0] == -9
    with pytest.raises(ValueError):
        next(enumerate_theta_vexillary(0))


# ---------------------------------------------------------------------------
# notation


def test_parse_and_format_round_trip():
    text = "10 1 5 3 -2 -4 6 -9 -8 -7"
    assert parse_window(text) == BIG
    assert format_window(BIG) == text
    assert parse_window("-2, 3, 1").window == (-2, 3, 1)


def test_parse_rejects_bad_windows():
    with pytest.raises(ValueError, match="nonzero"):
        parse_window("1 0 2")
    with pytest.raises(ValueError, match="repeated"):
        parse_window("1 -1")
    with pytest.raises(ValueError, match="out of range"):
        parse_window("1 4 2")
    with pytest.raises(ValueError, match="not an integer"):
        parse_window("1 x 2")
    with pytest.raises(ValueError, match="empty"):
        parse_window("   ")


def test_identity_validation():
    with pytest.raises(ValueError):
        SignedPermutation([1, 1])
    with pytest.raises(ValueError):
        SignedPermutation([2, 3])
