import copy
import hashlib
import itertools
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import (
    build_extended_diagram,
    full_corners,
    rank,
    records_of,
    reflected,
    signed_permutations,
)
from thetavex.diagram import CornerClass, CornerRecord, CornerSet, corners, render_extended
from thetavex.sigperm import SignedPermutation, iter_windows

GOLDEN = Path(__file__).parent / "golden"

BIG = SignedPermutation([10, 1, 5, 3, -2, -4, 6, -9, -8, -7])
FIG1 = SignedPermutation([-2, 3, 1])

# sha256 of repr([(window, ((k, p, q, kind.value), ...), stray or None), ...])
# of `corners` over W_6 in window order, the stray given the same way;
# taken from the corner pass that labelled the corners after the scan
W6_CORNER_LABELS_SHA256 = (
    "ed39980c0d41ec76d3c356550106e515" "2b04789106317717476b41293699b916"
)


def naive_rank(w, p, q):
    return sum(1 for i in range(p, w.n + 1) if w(i) <= -q)


def naive_minimal_positions(positions):
    """Minimal corners under (p,q) < (p',q') iff p > p' and q < q'."""
    return {
        (p, q)
        for (p, q) in positions
        if not any(p2 > p and q2 < q for (p2, q2) in positions)
    }


def reference_corners(w):
    """Brute-force corner set: the p >= 1 slice of the full form's
    corners, classified by the written taxonomy.  Sorted p desc, q desc.
    The taxonomy has no optional class: compare with `corner_tuples`,
    which folds OPTIONAL into NE_PATH."""
    found = [(c.k, c.p, c.q) for c in full_corners(w) if c.p >= 1]
    ne = naive_minimal_positions({(p, q) for _, p, q in found})
    out = []
    for k, p, q in found:
        if (p, q) in ne:
            kind = CornerClass.NE_PATH
        elif (
            q < 0
            and any(p1 == p and q1 < q for (p1, q1) in ne)
            and any(q2 == -q + 1 and p2 > 0 for (p2, q2) in ne)
            and any(p3 > p and q3 < q for (p3, q3) in ne)
        ):
            kind = CornerClass.UNESSENTIAL
        else:
            kind = CornerClass.OTHER
        out.append((k, p, q, kind))
    return out


def corner_tuples(w):
    """The corners of w with OPTIONAL folded into NE_PATH."""
    return [
        (c.k, c.p, c.q,
         CornerClass.NE_PATH if c.kind is CornerClass.OPTIONAL else c.kind)
        for c in corners(w).corners
    ]


# ---------------------------------------------------------------------------
# rank function


def test_rank_golden_values():
    # the six NE-path rank values plus the unessential corner of BIG
    assert rank(BIG, 8, 7) == 3
    assert rank(BIG, 6, 4) == 4
    assert rank(BIG, 5, 2) == 5
    assert rank(BIG, 4, -3) == 6
    assert rank(BIG, 2, -3) == 7
    assert rank(BIG, 2, -6) == 9
    assert rank(BIG, 2, -1) == 6


def test_rank_bounds_checked():
    with pytest.raises(ValueError):
        rank(FIG1, 0, 1)
    with pytest.raises(ValueError):
        rank(FIG1, 1, 4)


@given(signed_permutations(max_n=5))
def test_rank_matches_naive_count(w):
    for p in range(1, w.n + 1):
        for q in range(-w.n, w.n + 1):
            assert rank(w, p, q) == naive_rank(w, p, q)


@given(signed_permutations(max_n=5))
def test_rank_antisymmetric_count(w):
    # #{i >= p | w(i) <= -q} also counts #{i <= -p | w(i) >= q}
    for p in range(1, w.n + 1):
        for q in range(-w.n, w.n + 1):
            mirror = sum(1 for i in range(-w.n, -p + 1) if w(i) >= q)
            assert rank(w, p, q) == mirror


# ---------------------------------------------------------------------------
# extended diagram


def test_diagram_box_count_equals_length_exhaustive():
    for n in (1, 2, 3, 4):
        for w in map(SignedPermutation, iter_windows(n)):
            d = build_extended_diagram(w)
            assert len(d.diagram_boxes) == w.length()


def test_crossed_boxes_are_the_membership_rejects_exhaustive():
    """Inside the surviving region, the crossed boxes are exactly those
    the three-condition membership test rejects."""
    for n in (1, 2, 3, 4):
        for w in map(SignedPermutation, iter_windows(n)):
            d = build_extended_diagram(w)
            winv = w.inverse()
            assert d.diagram_boxes == {
                (r, c) for (r, c) in d.boxes if winv(-r) > c
            }


@given(signed_permutations(max_n=6))
def test_diagram_box_count_equals_length_random(w):
    assert len(build_extended_diagram(w).diagram_boxes) == w.length()


def test_diagram_dots_one_per_column():
    d = build_extended_diagram(BIG)
    cols = sorted(c for (_, c) in d.dots)
    assert cols == list(range(-10, 0))
    assert (-10, -1) in d.dots  # w(-1) = -10


def test_identity_has_no_boxes():
    d = build_extended_diagram(SignedPermutation.identity(4))
    assert d.diagram_boxes == frozenset()
    assert len(d.dots) == 4


# ---------------------------------------------------------------------------
# SE corners and the taxonomy


def test_big_corner_taxonomy():
    """The worked 10-by-10 example: six NE-path corners, one unessential,
    nothing stray."""
    cs = corners(BIG)
    assert [(c.k, c.p, c.q) for c in records_of(cs, "ne_path", "optional")] == [
        (3, 8, 7),
        (4, 6, 4),
        (5, 5, 2),
        (6, 4, -3),
        (7, 2, -3),
        (9, 2, -6),
    ]
    assert [(c.k, c.p, c.q) for c in records_of(cs, "unessential")] == [(6, 2, -1)]
    assert records_of(cs, "other") == ()
    assert len(cs.corners) == 7


def test_corner_records_are_sorted():
    cs = corners(BIG)
    keys = [(-c.p, -c.q) for c in cs.corners]
    assert keys == sorted(keys)


def test_corner_box_identification():
    rec = CornerRecord(9, 2, -6)
    assert (rec.p, rec.q) == (2, -6)
    assert rec.box == (-7, -2)
    assert rec.kind is CornerClass.OTHER
    assert CornerRecord(9, 2, -6, CornerClass.NE_PATH).kind is CornerClass.NE_PATH


def test_corner_records_are_named_tuples():
    rec = CornerRecord(9, 2, -6, CornerClass.NE_PATH)
    assert rec == (9, 2, -6, CornerClass.NE_PATH)
    assert rec != CornerRecord(9, 2, -6)
    assert repr(rec) == "CornerRecord(9, 2, -6, ne_path)"
    assert all(type(c) is CornerRecord for c in corners(BIG).corners)


def test_corner_sets_pickle_and_copy():
    for w in (BIG, FIG1, SignedPermutation([3, 5, 1, 6, -2, 4])):
        cs = corners(w)
        # a named tuple: it unpacks as (corners, stray)
        assert corners(w) == (cs.corners, cs.stray)
        for twin in (pickle.loads(pickle.dumps(cs)), copy.deepcopy(cs)):
            assert type(twin) is CornerSet and twin == cs
            assert twin.stray == cs.stray
            assert all(type(c) is CornerRecord for c in twin.corners)


def test_identity_corner_set_empty():
    assert len(corners(SignedPermutation.identity(5)).corners) == 0


def test_fig1_full_corner_set():
    fc = full_corners(FIG1)
    assert {(c.k, c.p, c.q) for c in fc} == {(1, 3, -1), (1, 1, 2), (3, 0, -1), (2, -2, 2)}


def test_fig1_signed_corners():
    cs = corners(FIG1)
    assert [(c.k, c.p, c.q) for c in cs.corners] == [(1, 3, -1), (1, 1, 2)]
    # (1,2) is dominated by (3,-1) and, with q >= 0, cannot be unessential
    assert [c.kind for c in cs.corners] == [CornerClass.NE_PATH, CornerClass.OTHER]


def test_reflect_involution_and_symmetry():
    fc = full_corners(FIG1)
    triples = {(c.k, c.p, c.q) for c in fc}
    for c in fc:
        assert reflected(CornerRecord(*reflected(c))) == (c.k, c.p, c.q)
        assert reflected(c) in triples


def test_full_corner_sets_reflection_closed_exhaustive():
    """Reflection through the center permutes the full-form corner set."""
    for n in (1, 2, 3):
        for w in map(SignedPermutation, iter_windows(n)):
            fc = full_corners(w)
            triples = {(c.k, c.p, c.q) for c in fc}
            assert {reflected(c) for c in fc} == triples


def test_full_corners_are_signed_corners_and_reflections():
    """The full form's corners are the signed corners together with
    their reflections: a corner with p <= 0 is the mirror of a signed
    one.  W_6 holds as well, but takes about 6 s."""
    for n in range(1, 6):
        for w in map(SignedPermutation, iter_windows(n)):
            cs = corners(w).corners
            expected = {(c.k, c.p, c.q) for c in cs} | {reflected(c) for c in cs}
            assert {(c.k, c.p, c.q) for c in full_corners(w)} == expected


def test_se_corner_against_definition():
    """The double-descent test finds exactly the SE-most boxes of the
    full form's diagram D = {(a, b) | w(b) > a, w^-1(a) > b}: the boxes
    of D whose east and south neighbours lie outside D."""
    for w in (BIG, *map(SignedPermutation, iter_windows(3))):
        n, winv = w.n, w.inverse()

        def in_diagram(a, b):
            return w(b) > a and winv(a) > b

        expected = {
            (-b, a + 1)
            for a in range(-n - 1, n + 1)
            for b in range(-n - 1, n + 1)
            if in_diagram(a, b)
            and not in_diagram(a, b + 1)
            and not in_diagram(a + 1, b)
        }
        assert {(c.p, c.q) for c in full_corners(w)} == expected


def test_ne_path_is_minimal_set_exhaustive():
    for n in (2, 3, 4):
        for w in map(SignedPermutation, iter_windows(n)):
            cs = corners(w)
            positions = {(c.p, c.q) for c in cs.corners}
            path = records_of(cs, "ne_path", "optional")
            assert {(c.p, c.q) for c in path} == naive_minimal_positions(positions)
            # the sorted NE path is monotone in p and q at once
            assert all(a.p >= b.p and a.q >= b.q for a, b in zip(path, path[1:]))


def test_ne_path_has_no_opposite_q_pair_exhaustive():
    """No two NE path corners have q_j = -q_i, so R(i) exists for every
    path corner with q_i < 0 and `_label_by_rank` needs no guard: a
    corner with q = m > 0 needs the value -m at a position from its p on,
    one with q = -m the value m, and |m| occurs once in the window."""
    for n in range(1, 7):
        for w in map(SignedPermutation, iter_windows(n)):
            qs = {c.q for c in records_of(corners(w), "ne_path", "optional")}
            assert not any(-q in qs for q in qs), w


def test_corners_match_brute_force_exhaustive():
    for n in (1, 2, 3, 4, 5):
        for w in map(SignedPermutation, iter_windows(n)):
            assert corner_tuples(w) == reference_corners(w), w


def test_corners_match_brute_force_large_rank():
    rng = random.Random(20180723)
    for n in (20, 20, 35, 50, 50, 100, 200):
        values = rng.sample(range(1, n + 1), n)
        w = SignedPermutation([v * rng.choice((1, -1)) for v in values])
        assert corner_tuples(w) == reference_corners(w), w
    for n in (20, 50, 100, 200):
        longest = SignedPermutation([-i for i in range(1, n + 1)])
        expected = reference_corners(longest)
        assert corner_tuples(longest) == expected
        assert len(expected) == n


def test_rank_six_corner_labels_are_pinned():
    def plain(c):
        return (c.k, c.p, c.q, c.kind.value)

    rows = []
    for win in iter_windows(6):
        cs = corners(SignedPermutation(win))
        stray = None if cs.stray is None else plain(cs.stray)
        rows.append((win, tuple(plain(c) for c in cs.corners), stray))
    assert sum(stray is None for _, _, stray in rows) == 15964
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == W6_CORNER_LABELS_SHA256


def test_no_corner_in_column_one_above_row_zero():
    """The box (q-1, -1) needs w(-1) > q-1 >= w(0) = 0, so column -1 has
    no corner with q <= 0; a rule excluding p = 1, q < 0 never fires."""
    for n in (1, 2, 3, 4, 5):
        for w in map(SignedPermutation, iter_windows(n)):
            assert not any(c.p == 1 and c.q <= 0 for c in full_corners(w))


@given(signed_permutations(max_n=6))
def test_taxonomy_classes_partition(w):
    cs = corners(w)
    path = records_of(cs, "ne_path", "optional")
    unessential, other = records_of(cs, "unessential"), records_of(cs, "other")
    assert len(path) + len(unessential) + len(other) == len(cs.corners)
    # optional corners are labelled only when nothing is stray
    if cs.stray is not None:
        assert all(c.kind is not CornerClass.OPTIONAL for c in cs.corners)
        assert cs.stray in other + unessential
    # a stray OTHER corner is the first one
    if other:
        assert cs.stray == other[0]


@given(signed_permutations(max_n=6))
def test_unessential_needs_negative_q_and_dominator(w):
    cs = corners(w)
    ne = {(c.p, c.q) for c in records_of(cs, "ne_path", "optional")}
    for c in records_of(cs, "unessential"):
        assert c.q < 0
        assert any(p1 == c.p and q1 < c.q for (p1, q1) in ne)
        assert any(q2 == -c.q + 1 and p2 > 0 for (p2, q2) in ne)
        assert any(p3 > c.p and q3 < c.q for (p3, q3) in ne)


def test_corner_rank_equals_region_dot_count():
    for n in (2, 3, 4):
        for w in map(SignedPermutation, iter_windows(n)):
            d = build_extended_diagram(w)
            for c in corners(w).corners:
                dots = sum(1 for r, b in d.dots if r >= c.q and b <= -c.p)
                assert c.k == rank(w, c.p, c.q) == dots


# ---------------------------------------------------------------------------
# regions


def test_region_dot_count_realizes_rank():
    d = build_extended_diagram(BIG)
    for p in range(1, 11):
        for q in range(-10, 11):
            dots = sum(1 for r, c in d.dots if r >= q and c <= -p)
            assert dots == rank(BIG, p, q)


# ---------------------------------------------------------------------------
# rendering


def test_render_golden_small():
    expected = (GOLDEN / "diagram_neg2_3_1.txt").read_text()
    assert render_extended(FIG1) + "\n" == expected


def test_render_golden_big():
    # the optional corner is labelled by `corners` itself
    expected = (GOLDEN / "diagram_big.txt").read_text()
    assert render_extended(BIG) + "\n" == expected


def test_render_crosses_toggle():
    plain = render_extended(FIG1)
    crossed = render_extended(FIG1, show_crosses=True)
    assert "x" not in plain
    assert "x" in crossed
    assert plain.replace(".", "") != crossed.replace(".", "")


def rendered_cells(w, **options):
    """{(row, col): token} of `render_extended(w, **options)`."""
    lines = render_extended(w, **options).splitlines()[1:]
    return {
        (r, c): token
        for r, line in zip(range(-w.n, w.n + 1), lines)
        for c, token in zip(range(-w.n, 0), line.split()[1:])
    }


def test_render_cells_match_the_reference_diagram():
    """Each cell `render_extended` draws from w and its inverse is the
    cell of the reference diagram, on all of W_1..W_4, and the "#" cells
    with the corner overlays off the crossed boxes number the length of
    w.  A corner can sit on a crossed box (the one corner of -2 1 does),
    so those overlays are left out of the count."""
    for n in (1, 2, 3, 4):
        for w in map(SignedPermutation, iter_windows(n)):
            d = build_extended_diagram(w)
            overlays = {c.box for c in corners(w).corners}
            cells = rendered_cells(w, show_crosses=True)
            for cell, token in cells.items():
                if cell in overlays:
                    assert cell in d.boxes
                elif cell in d.dots:
                    assert token == "o"
                elif cell in d.boxes:
                    assert token == ("x" if cell in d.crosses else "#")
                else:
                    assert token == "."
            count = sum(token == "#" or cell in overlays - d.crosses
                        for cell, token in cells.items())
            assert count == w.length()


@given(signed_permutations(max_n=4))
@settings(max_examples=30)
def test_render_is_deterministic(w):
    assert render_extended(w) == render_extended(w)
