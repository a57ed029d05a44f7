"""End-to-end acceptance: one test per advertised guarantee.

The terminal summary prints one PASS/FAIL/SKIP line per criterion (see
conftest.pytest_terminal_summary).  Criterion 5b runs the three-way
equivalence over all of W_6; a failure lists every window on which the
routes disagree.
"""

import hashlib

from conftest import (
    assert_structural_facts,
    full_corners,
    mirrored_construction,
    records_of,
    reference_optional_corners,
    reference_placement_run,
    reflected,
)
from thetavex import theta
from thetavex.classify import enumerate_theta_vexillary, verify_equivalence
from thetavex.diagram import CornerClass, corners
from thetavex.sigperm import SignedPermutation
from thetavex.theta import ThetaTriple

BIG_T = ThetaTriple((3, 4, 5, 6, 9), (8, 6, 5, 4, 2), (7, 4, 2, -3, -6), 10)
BIG = SignedPermutation([10, 1, 5, 3, -2, -4, 6, -9, -8, -7])

THETA_VEXILLARY_COUNTS = {1: 2, 2: 8, 3: 44, 4: 286, 5: 2061, 6: 15964}


def test_criterion_1_golden_construction():
    assert theta.construct(BIG_T) == BIG
    # the steps as (value, position) pairs
    steps = reference_placement_run(BIG_T.k, BIG_T.p, BIG_T.q, BIG_T.n)[1]
    assert [tuple(zip(*placed)) for placed in steps] == [
        ((-9, 8), (-8, 9), (-7, 10)),
        ((-4, 6),),
        ((-2, 5),),
        ((3, 4),),
        ((1, 2), (5, 3), (6, 7)),
        ((10, 1),),
    ]


def test_criterion_2_golden_dual():
    dual = theta.construct_inverse(BIG_T)
    assert dual.window == (2, -5, 4, -6, 3, 7, -10, -9, -8, 1)
    assert dual == theta.construct(BIG_T).inverse()
    # the paper's dual construction, run on (k, q, p) over [-n, n]
    assert mirrored_construction(BIG_T) == dual


def test_criterion_3_golden_corner_taxonomy():
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
    assert cs.stray is None
    assert [(c.k, c.p, c.q) for c in cs.corners if c.kind is CornerClass.OPTIONAL] == [(7, 2, -3)]
    assert [(c.k, c.p, c.q) for c in reference_optional_corners(BIG, BIG_T, cs)] == [
        (7, 2, -3)
    ]


def test_criterion_4_reflection_fidelity():
    fc = full_corners(SignedPermutation([-2, 3, 1]))
    assert {(c.k, c.p, c.q) for c in fc} == {(1, 3, -1), (1, 1, 2), (3, 0, -1), (2, -2, 2)}
    image = {(c.k, c.p, c.q): reflected(c) for c in fc}
    assert image[(1, 3, -1)] == (2, -2, 2) and image[(2, -2, 2)] == (1, 3, -1)
    assert image[(1, 1, 2)] == (3, 0, -1) and image[(3, 0, -1)] == (1, 1, 2)


def test_criterion_5_exhaustive_equivalence_through_rank_five():
    for n in range(1, 6):
        summary = verify_equivalence(n, jobs=2 if n >= 4 else 1)
        assert summary.mismatches == (), summary.describe()
        assert summary.theta_vexillary == THETA_VEXILLARY_COUNTS[n]


def test_criterion_5b_exhaustive_equivalence_rank_six():
    summary = verify_equivalence(6, jobs=4, allow_large=True)
    assert summary.mismatches == (), (
        "three-way agreement fails at rank 6 on: "
        + "; ".join(" ".join(map(str, win)) for win in summary.mismatches)
    )


def test_criterion_6_round_trip_uniqueness():
    for n in range(1, 7):
        seen = set()
        triples = list(theta.generate_triples(n))
        for t in triples:
            w = theta.construct(t)
            back = theta.recover(w)
            assert back == t
            assert theta.construct(back) == w
            assert w.window not in seen
            seen.add(w.window)
        assert len(seen) == THETA_VEXILLARY_COUNTS[n]
    # the rank-6 generation order, pinned (ranks 1-5 in test_theta.py)
    text = repr([(t.k, t.p, t.q) for t in triples])
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "441aa1bf17c394dfe3ec156cbcd3bf740691d381bcf158d3608b8cf8cea9b316"
    )


def test_criterion_7_structural_property_suite():
    for n in range(1, 6):
        for t in theta.generate_triples(n):
            assert_structural_facts(t)


def test_criterion_8_pinned_counts_from_pattern_oracle():
    for n in (3, 4, 5):
        count = sum(1 for _ in enumerate_theta_vexillary(n))
        assert count == THETA_VEXILLARY_COUNTS[n]
