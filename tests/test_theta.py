import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest

from conftest import (
    assert_structural_facts,
    compare_coherence_checks,
    derive,
    forced_corner_disagreements,
    mirrored_construction,
    path_prefix_violations,
    path_tie_violations,
    placed_coherence_failure,
    reference_min_rank,
    reference_optional_corners,
    reference_placement_run,
    triple_of_records,
)
from thetavex import theta
from thetavex.diagram import CornerClass, _cut_and_r, corners
from thetavex.sigperm import SignedPermutation, iter_windows
from thetavex.theta import (
    InfeasibleRankError,
    InvalidTripleError,
    ThetaTriple,
    construct,
    construct_inverse,
    format_triple,
    generate_triples,
    min_feasible_rank,
    parse_triple,
    recover,
    triple_from_json,
    triple_to_json,
    validate,
)

BIG_T = ThetaTriple((3, 4, 5, 6, 9), (8, 6, 5, 4, 2), (7, 4, 2, -3, -6), 10)
BIG = SignedPermutation([10, 1, 5, 3, -2, -4, 6, -9, -8, -7])

# rank-6 non-members whose corners all lie on the NE path or are
# unessential; the literal corner criterion accepts them
CORNER_ROUTE_REJECTS = [
    (3, 5, 1, 6, -2, 4),
    (3, 5, 1, 6, 4, -2),
    (3, 6, 1, 5, -2, 4),
    (3, 6, 1, 5, 4, -2),
]

# tuples that satisfy the paper's eight conditions yet cannot realize
# their own corners; C2 in its exact form refuses them
DEGENERATE = [
    ThetaTriple((1, 2, 3, 4), p, (3, 3, 1, -4), 5)
    for p in [(5, 3, 3, 2), (5, 3, 2, 2), (5, 2, 2, 2), (4, 2, 2, 2)]
]

# degenerate tuples of rank 6 whose first failing step places two
# values
DEGENERATE_WIDE_STEP = [
    ThetaTriple((1, 3, 4, 5), (6, 4, 3, 2), (4, 3, 1, -5), 6),
    ThetaTriple((1, 3, 4, 5), (5, 2, 2, 2), (3, 3, 1, -5), 6),
]

# repeated p or q values are not degenerate by themselves
TIED_OK = [
    (ThetaTriple((1, 2), (4, 2), (-2, -2), 4), (3, 1, 4, 2)),
    (ThetaTriple((1, 2), (3, 3), (2, -1), 4), (3, 4, -2, 1)),
    (ThetaTriple((1, 2, 3), (5, 5, 3), (2, -4, -4), 6), (1, 5, 3, 6, -2, 4)),
]

GENERATED_COUNTS = {1: 2, 2: 8, 3: 44, 4: 286, 5: 2061, 6: 15964}

# sha256 of repr([(t.k, t.p, t.q) for t in generate_triples(n)]): the
# generation order is part of the contract, not only the set
GENERATED_DIGESTS = {
    1: "c55d68b1c30626daadb0c4898ff2adcd874e0f7ac261c69a18c9347a03c633e0",
    2: "696166ac8abf7d36df4c16f17ea1dce3b6abb91adf35ecce91388b0fc37d03de",
    3: "223442bbd512767a41dc3d466904cb101b8c32743364888abd1493bbbbb935bb",
    4: "7caa877e7bcae5b8781c46ea98658e6bad1a434370640696a1e874116300cee7",
    5: "fdd98806c742f3cb88bf823143627e54a2b484a8c1b2efa0bb0a3b1333a792c3",
    6: "441aa1bf17c394dfe3ec156cbcd3bf740691d381bcf158d3608b8cf8cea9b316",
}


# sha256 of repr([construction_outcome(t.with_rank(m)) for t in
# shape_valid_triples(3) for m in 3..6]): refusals are pinned as well as
# the built permutations
CONSTRUCTION_OUTCOMES_SHA256 = (
    "61c2b3aab5cd9b87b87f83c0a149eab3" "70aaf1fd4dd1bce7a3eb979b40e0e52e"
)

# sha256 of the verdicts listed in test_validate_reports_are_pinned, taken
# before the conditions were split into a row builder and a reporter
VALIDATE_REPORTS_SHA256 = (
    "96eff188b1bd2d0058c149e14ac7a3be" "aaa74b0f0e99b13d8c4aed3a3d6daba2"
)

# the A1 and A2 report paths: zero q entries and opposite pairs
A1_A2_TRIPLES = [
    ThetaTriple((1,), (1,), (0,), 2),
    ThetaTriple((1, 2), (2, 1), (1, 0), 3),
    ThetaTriple((1, 2), (2, 2), (0, -1), 3),
    ThetaTriple((1, 2), (2, 1), (2, -2), 2),
    ThetaTriple((1, 2, 3), (3, 3, 1), (3, -1, -3), 3),
    ThetaTriple((1, 2, 3), (3, 2, 1), (2, 0, -2), 3),
    ThetaTriple((2, 4, 5), (5, 3, 1), (4, 1, -1), 5),
]


def generation_digest(triples):
    text = repr([(t.k, t.p, t.q) for t in triples])
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def shape_valid_triples(n):
    """Every ThetaTriple with entries bounded by n: k strictly increasing,
    p and q weakly decreasing, q nonzero (hence s <= n)."""
    q_values = [v for v in range(n, -n - 1, -1) if v != 0]
    for s in range(n + 1):
        for k in itertools.combinations(range(1, n + 1), s):
            for p in itertools.combinations_with_replacement(range(n, 0, -1), s):
                for q in itertools.combinations_with_replacement(q_values, s):
                    yield ThetaTriple(k, p, q, n)


# ---------------------------------------------------------------------------
# shape checks


def test_shape_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="equal lengths"):
        ThetaTriple((1, 2), (2,), (1,), 3)


def test_shape_rejects_bad_monotonicity():
    with pytest.raises(ValueError, match="k must be strictly increasing"):
        ThetaTriple((2, 2), (3, 1), (2, 1), 3)
    with pytest.raises(ValueError, match="p must be weakly decreasing"):
        ThetaTriple((1, 2), (1, 3), (2, 1), 3)
    with pytest.raises(ValueError, match="q must be weakly decreasing"):
        ThetaTriple((1, 2), (3, 1), (1, 2), 3)


@pytest.mark.parametrize("k, p, q, n", [
    ((1.5,), (1,), (1,), 2),
    ((True,), (1,), (1,), 2),
    ((1,), (1,), (1.0,), 2),
    ((1,), (1,), (1,), 2.0),
    ((1,), (1,), (1,), True),
])
def test_shape_rejects_non_integer_entries_and_rank(k, p, q, n):
    with pytest.raises(ValueError, match="must be integers"):
        ThetaTriple(k, p, q, n)


def test_shape_rejects_small_rank():
    with pytest.raises(ValueError, match="ambient rank"):
        ThetaTriple((1,), (2,), (-3,), 2)
    with pytest.raises(ValueError, match="ambient rank"):
        ThetaTriple((), (), (), 0)


def test_triples_pickle_and_copy():
    import copy
    import pickle

    for t in (BIG_T, ThetaTriple((), (), (), 3)):
        for twin in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)):
            assert twin == t and hash(twin) == hash(t) and type(twin) is ThetaTriple
    with pytest.raises(AttributeError):
        BIG_T.n = 11


def test_triples_and_verdicts_are_named_tuples():
    """A triple equals its plain tuple (k, p, q, n), hashes as it, so
    sets and dicts of triples are unchanged, and unpacks as one; a
    verdict and a report equal the plain tuples of their fields."""
    for t in (BIG_T, ThetaTriple((), (), (), 3)):
        plain = (t.k, t.p, t.q, t.n)
        assert t == plain and hash(t) == hash(plain)
        k, p, q, n = t
        assert (k, p, q, n) == plain
    report = validate(ThetaTriple((1, 2), (2, 1), (2, -2), 2))
    v = report.first_failure
    assert v == ("A2", False, (1, 2), "q_1 = -q_2")
    assert report == (report.verdicts,)


def test_make_and_replace_check_the_shape():
    """The named-tuple builders `_make` and `_replace` run the shape
    checks of the constructor."""
    t = ThetaTriple((1,), (1,), (1,), 1)
    with pytest.raises(ValueError, match="ambient rank must be positive"):
        t._replace(n=0)
    with pytest.raises(ValueError, match="equal lengths"):
        ThetaTriple._make([(2, 1), (1,), (1,), 1])
    with pytest.raises(ValueError, match="k must be strictly increasing"):
        ThetaTriple._make([(2, 1), (2, 1), (2, 1), 2])
    wider = t._replace(n=3)
    assert type(wider) is ThetaTriple and wider == ((1,), (1,), (1,), 3)
    assert type(ThetaTriple._make(t)) is ThetaTriple


def test_entries_and_rank_change():
    assert BIG_T.s == 5
    assert tuple(zip(BIG_T.k, BIG_T.p, BIG_T.q))[0] == (3, 8, 7)
    assert BIG_T.with_rank(12).n == 12
    assert BIG_T.with_rank(10) == BIG_T


# ---------------------------------------------------------------------------
# validation and derived data


def test_validate_big_triple_all_conditions():
    report = validate(BIG_T)
    assert report.ok
    assert report.first_failure is None
    assert report.failure_message() == "all conditions hold"
    named = {v.condition for v in report.verdicts}
    assert named == {"A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2"}


def test_derive_big_triple():
    der = derive(BIG_T)
    assert der.a == 4
    assert der.R == {4: 2, 5: 1}
    assert der.L == {4: 3, 5: 2}


@pytest.mark.parametrize("t, condition", [
    (ThetaTriple((1,), (1,), (0,), 2), "A1"),
    (ThetaTriple((1, 2), (2, 1), (2, -2), 2), "A2"),
], ids=["A1", "A2"])
def test_derive_refuses_as_validate_words_it(t, condition):
    message = validate(t).failure_message()
    assert message.startswith(f"{condition} fails at i=1")
    with pytest.raises(InvalidTripleError) as refused:
        derive(t)
    assert str(refused.value) == message


@pytest.mark.parametrize("refuse, accept", [
    (lambda: construct(ThetaTriple((1, 2), (2, 1), (2, -2), 2)), lambda: construct(BIG_T)),
    (lambda: parse_triple("1 3; 2 2; 2 1"), lambda: parse_triple(format_triple(BIG_T))),
    (lambda: triple_from_json({"k": [2], "p": [2], "q": [-1], "n": 3}),
     lambda: triple_from_json(triple_to_json(BIG_T))),
    (lambda: min_feasible_rank(ThetaTriple((2,), (4,), (-1,), 4)),
     lambda: min_feasible_rank(BIG_T)),
    (lambda: derive(ThetaTriple((1,), (1,), (0,), 2)), lambda: derive(BIG_T)),
], ids=["construct", "parse_triple", "triple_from_json", "min_feasible_rank", "derive"])
def test_refusal_checks_the_conditions_once(monkeypatch, refuse, accept):
    """A refused triple is worded from the rows of one pass over the
    conditions; a valid one passes the guard without building rows."""
    calls = []
    rows_of = theta._condition_rows

    def counting(t):
        calls.append(t)
        return rows_of(t)

    monkeypatch.setattr(theta, "_condition_rows", counting)
    with pytest.raises(InvalidTripleError):
        refuse()
    assert len(calls) == 1
    accept()
    assert len(calls) == 1


def test_validate_names_opposite_pair():
    report = validate(ThetaTriple((1, 2), (2, 1), (2, -2), 2))
    assert not report.ok
    assert report.first_failure.condition == "A2"
    assert "A2 fails at i=1, j=2" in report.failure_message()


def test_validate_names_the_least_opposite_pair():
    """A2 names the least pair (i, j), i != j, with q_i = -q_j, as a scan
    over all pairs finds it, on every weakly decreasing q with entries
    in [-3, 3], zeros included, and up to five entries; a second zero
    pairs with the first."""
    pairs = set()
    for s in range(1, 6):
        for q in itertools.combinations_with_replacement(range(3, -4, -1), s):
            k = tuple(range(1, s + 1))
            row = next(v for v in validate(ThetaTriple(k, (1,) * s, q, 5)).verdicts
                       if v.condition == "A2")
            least = next(((i, j) for i, u in enumerate(q, 1)
                          for j, v in enumerate(q, 1) if u == -v and i != j), None)
            assert (row.ok, row.index) == (least is None, least), q
            if least:
                pairs.add(q[least[0] - 1] == 0)
    assert pairs == {False, True}


def test_validate_names_last_negative_guard():
    report = validate(ThetaTriple((1,), (1,), (-1,), 2))
    assert report.first_failure.condition == "A3"


def test_validate_names_growth_conditions():
    report = validate(ThetaTriple((1, 3), (2, 2), (2, 1), 3))
    assert report.first_failure.condition == "B1"
    assert report.first_failure.index == (1,)
    report = validate(ThetaTriple((2,), (2,), (-1,), 3))
    assert report.first_failure.condition == "C1"


def test_validate_zero_q_entry():
    report = validate(ThetaTriple((1,), (1,), (0,), 2))
    assert report.first_failure.condition == "A1"


def test_validate_reports_are_pinned():
    """Every verdict of every shape-valid triple with entries bounded by
    3, at ranks 3-6, and of the A1/A2 cases: condition, outcome, index
    and message are the same as before the row builder was split out."""
    triples = [t.with_rank(m) for t in shape_valid_triples(3) for m in range(3, 7)]
    reports = [
        [(v.condition, v.ok, v.index, v.describe()) for v in validate(t).verdicts]
        for t in triples + A1_A2_TRIPLES
    ]
    assert len(reports) == 3979
    assert [validate(t).failure_message() for t in A1_A2_TRIPLES] == [
        "A1 fails at i=1: q entry is zero",
        "A1 fails at i=2: q entry is zero",
        "A1 fails at i=1: q entry is zero",
        "A2 fails at i=1, j=2: q_1 = -q_2",
        "A2 fails at i=1, j=3: q_1 = -q_3",
        "A1 fails at i=2: q entry is zero",
        "A2 fails at i=2, j=3: q_2 = -q_3",
    ]
    digest = hashlib.sha256(repr(reports).encode("ascii")).hexdigest()
    assert digest == VALIDATE_REPORTS_SHA256


def test_construct_refuses_what_validate_refuses():
    for t in A1_A2_TRIPLES:
        message = validate(t).failure_message()
        for build in (construct, construct_inverse):
            with pytest.raises(InvalidTripleError) as refused:
                build(t)
            assert str(refused.value) == message


# ---------------------------------------------------------------------------
# construction


def test_construct_big_window():
    assert construct(BIG_T) == BIG


def test_construct_big_trace():
    """The full placement history of the worked example, step by step,
    as (value, position) pairs of `reference_placement_run`, and the
    window that `construct` builds from it."""
    window, steps = reference_placement_run(BIG_T.k, BIG_T.p, BIG_T.q, BIG_T.n)
    assert [tuple(zip(*placed)) for placed in steps] == [
        ((-9, 8), (-8, 9), (-7, 10)),
        ((-4, 6),),
        ((-2, 5),),
        ((3, 4),),
        ((1, 2), (5, 3), (6, 7)),
        ((10, 1),),
    ]
    assert construct(BIG_T).window == tuple(window[1:])


def test_construct_empty_triple_gives_identity():
    for n in (1, 3, 6):
        assert construct(ThetaTriple((), (), (), n)) == SignedPermutation.identity(n)


def test_construct_staircase_gives_longest_element():
    for n in (1, 2, 3, 4):
        stairs = tuple(range(1, n + 1))
        t = ThetaTriple(stairs, stairs[::-1], stairs[::-1], n)
        w = construct(t)
        assert w.window == tuple(-i for i in range(1, n + 1))
        assert w.length() == n * n


def test_construct_rejects_invalid_triple():
    t = ThetaTriple((1, 2), (2, 1), (2, -2), 2)
    with pytest.raises(InvalidTripleError, match="A2"):
        construct(t)


def test_construct_below_minimum_rank():
    with pytest.raises(InfeasibleRankError, match="minimum feasible rank is 10"):
        construct(BIG_T.with_rank(9))
    try:
        construct(BIG_T.with_rank(9))
    except InfeasibleRankError as e:
        assert e.minimum == 10


def test_min_feasible_rank():
    assert min_feasible_rank(BIG_T) == 10
    assert min_feasible_rank(ThetaTriple((), (), (), 5)) == 1
    assert min_feasible_rank(ThetaTriple((1,), (1,), (1,), 1)) == 1


def test_min_feasible_rank_refuses_unbuildable_triple():
    # step 1 needs two positive values at or below 1 at every rank, which
    # C1 rules out
    t = ThetaTriple((2,), (4,), (-1,), 4)
    with pytest.raises(InvalidTripleError, match=r"^C1 fails at i=1: 1 is not >= 2$"):
        min_feasible_rank(t)


def test_min_feasible_rank_matches_the_rank_loop():
    """The closed form of the least rank, the largest of the fitting
    rank and the step ranks max(p_i, q_i) + k_i - 1, equals the least
    rank at which a step-by-step simulation places every step, tried
    rank by rank (`reference_min_rank`), on every generated triple of
    ranks 1-6."""
    checked = 0
    for n in range(1, 7):
        for t in generate_triples(n):
            assert min_feasible_rank(t) == reference_min_rank(t), format_triple(t)
            checked += 1
    assert checked == sum(GENERATED_COUNTS.values())


def test_rank_refusal_matches_the_placement_reference():
    """On every triple with entries bounded by 4 that passes `validate`,
    at each rank from the one that fits its entries to twice that:
    `construct` builds exactly when the simulated steps
    (`reference_placement_run`) all place, with the same window, and
    otherwise refuses naming the step that ran short first, with the
    least rank of the rank loop as its `minimum`."""
    built = refused = 0
    for t in shape_valid_triples(4):
        if not validate(t).ok:
            continue
        minimum = reference_min_rank(t)
        assert min_feasible_rank(t) == minimum, format_triple(t)
        low = theta._fitting_rank(t.k, t.p, t.q)
        for m in range(low, 2 * low + 1):
            window, steps = reference_placement_run(t.k, t.p, t.q, m)
            if len(steps) > t.s:
                assert construct(t.with_rank(m)).window == tuple(window[1:])
                built += 1
                continue
            with pytest.raises(InfeasibleRankError) as short:
                construct(t.with_rank(m))
            assert str(short.value).startswith(f"step {len(steps) + 1} needs ")
            assert short.value.minimum == minimum
            refused += 1
    assert built and refused


@pytest.mark.parametrize("text, message", [
    ("1 2; 3 3; 2 1", "B1 fails at i=1: 1 is not > 1"),
    ("1 2 3 4; 5 3 3 2; 3 3 1 -4", "C2 fails at i=4: 4 is not >= 5"),
], ids=["B1", "degenerate"])
def test_min_feasible_rank_refuses_what_no_rank_builds(text, message):
    """A triple that `construct` refuses at every rank has no minimum
    feasible rank: the refusal names its first failing condition."""
    t = theta._parse_rows(text, None)
    for n in range(t.n, 2 * t.n + 1):
        with pytest.raises(InvalidTripleError, match=message):
            construct(t.with_rank(n))
    with pytest.raises(InvalidTripleError) as refused:
        min_feasible_rank(t)
    assert str(refused.value) == message


def construction_outcome(t):
    """(forward, inverse) for one triple: the window of `construct` with
    its steps as `reference_placement_run` places them, the window of
    `construct_inverse`, or for a refusal its error type, message and
    `minimum`."""
    def attempt(build):
        try:
            return build()
        except ValueError as exc:
            return (type(exc).__name__, str(exc), getattr(exc, "minimum", None))

    def forward():
        window = construct(t).window
        steps = reference_placement_run(t.k, t.p, t.q, t.n)[1]
        return window, [(i, tuple(zip(*placed))) for i, placed in enumerate(steps, 1)]

    return attempt(forward), attempt(lambda: construct_inverse(t).window)


def test_construction_outcomes_are_pinned():
    """Every shape-valid triple with entries bounded by 3, at ranks 3-6:
    the built windows, traces and inverses, and every refusal with its
    message, are the same as before the construction shared one
    placement run (sha256 taken from that version)."""
    outcomes = [
        construction_outcome(t.with_rank(m))
        for t in shape_valid_triples(3)
        for m in range(3, 7)
    ]
    assert len(outcomes) == 3972
    digest = hashlib.sha256(repr(outcomes).encode("ascii")).hexdigest()
    assert digest == CONSTRUCTION_OUTCOMES_SHA256


def test_construct_stable_under_rank_growth():
    w10 = construct(BIG_T).window
    w12 = construct(BIG_T.with_rank(12)).window
    assert w12[:10] == w10
    assert w12[10:] == (11, 12)


# ---------------------------------------------------------------------------
# direct inverse construction


def test_construct_inverse_big():
    assert construct_inverse(BIG_T).window == (2, -5, 4, -6, 3, 7, -10, -9, -8, 1)
    assert construct_inverse(BIG_T) == BIG.inverse()


def test_construct_inverse_exhaustive_small():
    """The dual construction (the steps of (k, q, p) over [-n, n]) builds
    the inverse of `construct(t)` for every generated triple of ranks
    1-6, the triples of the benchmark's round trip among them."""
    for n in range(1, 7):
        for t in generate_triples(n):
            assert mirrored_construction(t) == construct(t).inverse()


def test_construct_inverse_under_rank_growth():
    rng = random.Random(20260823)
    pool = [t for n in (3, 4) for t in generate_triples(n)]
    for t in rng.sample(pool, 60):
        lifted = t.with_rank(rng.randint(t.n, 8))
        assert mirrored_construction(lifted) == construct(lifted).inverse()


def test_dual_construction_finishes_wherever_construct_succeeds():
    """Over the cases of the pinned outcome digest, the dual construction
    never runs short where `construct` builds, and builds its inverse."""
    cases = [t.with_rank(m) for t in shape_valid_triples(3) for m in range(3, 7)]
    assert len(cases) == 3972
    built = 0
    for t in cases:
        try:
            w = construct(t)
        except ValueError:
            continue
        assert mirrored_construction(t) == w.inverse()
        built += 1
    assert built == 382


def test_construct_inverse_checks_conditions():
    with pytest.raises(InvalidTripleError, match="A3"):
        construct_inverse(ThetaTriple((1,), (1,), (-1,), 2))


# ---------------------------------------------------------------------------
# degenerate tuples vs. harmless ties


def test_degenerate_tuples_pass_written_conditions():
    """The degenerate tuples pass C2 as the paper writes it, at j = L(i)
    alone, and fail it in its exact form, at another j in (R(i), a)."""
    for t in [*DEGENERATE, *DEGENERATE_WIDE_STEP]:
        der = derive(t)
        i = t.s  # the one negative entry
        L, k_r = der.L[i], theta._k_at(t.k, der.R[i])
        assert -t.q[i - 1] >= t.q[L - 1] + t.k[L - 1] - k_r
        report = validate(t)
        assert [v.condition for v in report.verdicts if not v.ok] == ["C2"]
        assert report.first_failure.index == (i,)


def test_degenerate_tuples_refused_by_construction():
    for t in DEGENERATE:
        message = validate(t).failure_message()
        assert message.startswith("C2 fails")
        for build in (construct, construct_inverse):
            with pytest.raises(InvalidTripleError, match="C2 fails") as refused:
                build(t)
            assert str(refused.value) == message


def test_degenerate_tuples_not_generated():
    assert not set(DEGENERATE) & set(generate_triples(5))


def test_lean_construction_check_agrees_with_the_wording_path():
    """`construct` checks its rows with one `_rows_pass` call, building
    no report of `_condition_rows`, before it places.  It builds exactly
    when `validate(t).ok` holds and every simulated step places
    (`reference_placement_run`); otherwise it refuses as the full report
    or the short step (with the `minimum` of the rank loop) words it.
    What it builds has no step placing at or below a later q_i, read
    off the placed values by `placed_coherence_failure`."""
    built = refused = 0
    for t in [*shape_valid_triples(4), *DEGENERATE, *DEGENERATE_WIDE_STEP, *A1_A2_TRIPLES]:
        report = validate(t)
        window, steps = reference_placement_run(t.k, t.p, t.q, t.n)
        if not report.ok:
            expected = (InvalidTripleError, report.failure_message())
        elif len(steps) <= t.s:
            expected = (InfeasibleRankError, reference_min_rank(t))
        else:
            a, R = theta._cut_and_r(t.q)
            values = [v for v, _ in steps]
            assert not any(placed_coherence_failure(t.q, a, R, values, i)
                           for i in range(a, t.s + 1)), format_triple(t)
            expected = (None, tuple(window[1:]))
        try:
            got = (None, construct(t).window)
            built += 1
        except InfeasibleRankError as exc:
            got = (InfeasibleRankError, exc.minimum)
            refused += 1
        except InvalidTripleError as exc:
            got = (InvalidTripleError, str(exc))
            refused += 1
        assert got == expected, format_triple(t)
    assert built and refused


def test_rows_pass_splits_at_any_row():
    """`_rows_pass` checks rows lo + 1..s from the cut index and R that
    rows 1..lo left, as the generator and the `verify` sweep call it on
    the rows a search step appends.  For every lo whose rows 1..lo pass,
    checking them and then rows lo + 1..s with the carried (a, R) gives
    the cut of one call from lo = 0, and that call passes exactly when
    `validate` does, with the cut index of the whole q: 1,089 triples
    pass, and 56,550 splits are checked."""
    splits = passed = 0
    for t in [*shape_valid_triples(4), *DEGENERATE, *DEGENERATE_WIDE_STEP, *A1_A2_TRIPLES]:
        k, p, q = t.k, t.p, t.q
        whole = theta._rows_pass(k, p, q, 1, {}, 0)
        assert bool(whole) == validate(t).ok, format_triple(t)
        assert whole in (0, _cut_and_r(q)[0]), format_triple(t)
        passed += bool(whole)
        for lo in range(t.s + 1):
            R = {}
            a = theta._rows_pass(k[:lo], p[:lo], q[:lo], 1, R, 0)
            if a:
                assert theta._rows_pass(k, p, q, a, R, lo) == whole, (format_triple(t), lo)
                splits += 1
    assert (passed, splits) == (1089, 56550)


def test_written_coherence_condition_agrees_with_the_placed_steps():
    """C2 in its exact form reads k and q alone: entry i >= a fails when
    q_j + k_j - k_{R(i)} > -q_i for some j in (R(i), a).  Over every
    (k, q) with entries bounded by 6 for which A1 and A2 hold, the C2
    row fails exactly where the placed values have a step placing at or
    below q_i, and the bound it reports is that of such a step
    (`compare_coherence_checks`)."""
    assert compare_coherence_checks(6) == (88704, 9884, [])


def test_validate_holds_exactly_when_construct_builds():
    """`validate(t).ok` means buildable: a triple passes exactly when
    `construct` builds it at a rank large enough for every step, twice
    the rank that fits its entries."""
    built = set()
    for t in [*shape_valid_triples(4), *DEGENERATE, *DEGENERATE_WIDE_STEP, *A1_A2_TRIPLES]:
        wide = t.with_rank(2 * theta._fitting_rank(t.k, t.p, t.q))
        try:
            construct(wide)
        except InvalidTripleError:
            builds = False
        else:
            builds = True
            built.add(tuple(zip(t.k, t.p, t.q)))
        assert validate(t).ok == builds, format_triple(t)
    assert {tuple(zip(t.k, t.p, t.q)) for t in generate_triples(4)} <= built


def test_tied_triples_construct_and_round_trip():
    for t, window in TIED_OK:
        w = construct(t)
        assert w.window == window
        assert recover(w) == t


# ---------------------------------------------------------------------------
# optional corners


def test_optional_corners_big():
    opts = reference_optional_corners(BIG, BIG_T)
    assert [(c.k, c.p, c.q) for c in opts] == [(7, 2, -3)]


def test_optional_corners_rank_relation_is_checked():
    # the optional corner of BIG with a wrong rank value must be refused
    from thetavex.diagram import CornerRecord, CornerSet

    forged = CornerSet(
        tuple(
            CornerRecord(8, c.p, c.q, c.kind) if (c.p, c.q) == (2, -3) else c
            for c in corners(BIG).corners
        )
    )
    with pytest.raises(ValueError, match=r"\(8, 2, -3\) violates the rank"):
        reference_optional_corners(BIG, BIG_T, forged)


def test_optional_corners_empty_triple():
    w = SignedPermutation.identity(3)
    assert reference_optional_corners(w, ThetaTriple((), (), (), 3)) == ()


def test_optional_labels_match_reference_exhaustively():
    """The OPTIONAL labels that `corners` assigns by the step-count
    identity are the corners that the rank-relation reference finds."""
    for n in range(1, 7):
        for t in generate_triples(n):
            w = construct(t)
            cs = corners(w)
            labelled = [(c.p, c.q) for c in cs.corners if c.kind is CornerClass.OPTIONAL]
            expected = [(c.p, c.q) for c in reference_optional_corners(w, t, cs)]
            assert labelled == expected, t


# ---------------------------------------------------------------------------
# recovery


def test_recover_big():
    t = recover(BIG)
    assert t == BIG_T
    assert format_triple(t) == "3 4 5 6 9; 8 6 5 4 2; 7 4 2 -3 -6"


def test_recover_identity_is_empty_triple():
    t = recover(SignedPermutation.identity(4))
    assert t == ThetaTriple((), (), (), 4)


def test_recover_refuses_stray_corner():
    # (1, 2) is neither on the NE path of [-1, 3, 2] nor unessential
    assert recover(SignedPermutation([-1, 3, 2])) is None


def test_recover_refuses_unforced_unessential_corner():
    # each holds 2 1 4 3, and its unessential corner (2, 3, -1) is not
    # forced by the rank relation; the NE path alone would construct
    # another window
    for win in CORNER_ROUTE_REJECTS:
        w = SignedPermutation(win)
        assert corners(w).stray[:3] == (2, 3, -1)
        assert recover(w) is None


def test_recover_finds_a_triple_exactly_for_members():
    from thetavex.classify import classify_by_patterns

    for n in range(1, 6):
        for w in map(SignedPermutation, iter_windows(n)):
            assert (recover(w) is None) is not classify_by_patterns(w)[0], w


def test_recover_inverts_construct_exhaustively():
    for n in (1, 2, 3, 4):
        for t in generate_triples(n):
            back = recover(construct(t))
            assert back == t and type(back) is ThetaTriple


def test_recover_builds_triples_in_shape():
    """`recover` builds its triple unchecked, as the NE path of a corner
    set is always in shape (README, "Recovery").  On every window of
    W_1..W_6 the whole path, optional corners included, passes the shape
    checks, stray or not, and the triple that `recover` reads off the
    fold's rows equals the checked triple of the NE_PATH records of
    `corners`."""
    on_path = (CornerClass.NE_PATH, CornerClass.OPTIONAL)
    for n in range(1, 7):
        for w in map(SignedPermutation._of, iter_windows(n)):
            cs = corners(w)
            path = [c[:3] for c in cs.corners if c.kind in on_path]
            ThetaTriple(*(zip(*path) if path else ((),) * 3), n)
            t = recover(w)
            assert t == triple_of_records(cs, n), w
            assert t is None or type(t) is ThetaTriple, w


# ---------------------------------------------------------------------------
# generation


def test_generated_counts_are_pinned():
    for n, expected in GENERATED_COUNTS.items():
        triples = list(generate_triples(n))
        assert len(triples) == expected
        assert generation_digest(triples) == GENERATED_DIGESTS[n]


def test_generation_shares_states_within_one_call():
    """Two searches drained in lockstep, and a search closed early, leave
    no shared state behind: each call holds its own record of states."""
    pairs = list(zip(generate_triples(5), generate_triples(5)))
    assert generation_digest([x for x, _ in pairs]) == GENERATED_DIGESTS[5]
    assert generation_digest([y for _, y in pairs]) == GENERATED_DIGESTS[5]
    search = generate_triples(6)
    assert len(list(itertools.islice(search, 100))) == 100
    search.close()
    assert generation_digest(generate_triples(5)) == GENERATED_DIGESTS[5]


def test_generation_frees_its_states_without_the_cycle_collector():
    # the search closure refers to itself, so only the explicit clear
    # returns the record of states while the cycle collector is off
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        # each triple is dropped as it arrives: a kept list would leave
        # ~0.55 MB of its tuples in the interpreter's free lists
        assert sum(1 for _ in generate_triples(6)) == 15964
        assert tracemalloc.get_traced_memory()[0] - start < 500_000
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()


def test_generation_visits_each_state_once(monkeypatch):
    """The search below a state runs once, and only below a triple: at
    rank 5 the generator asks for 1,642 q ranges and 4,946 entry checks,
    one `_entry_checks` call per new entry through `_rows_pass`.  It
    asked 2,067 and 5,396 when it also searched below the prefixes that
    fail A3 or B3, and 9,916 and 14,060 when every prefix was searched
    on its own."""
    calls = {"_q_candidates": 0, "_entry_checks": 0}

    def counting(name):
        inner = getattr(theta, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(theta, name, counting(name))
    assert generation_digest(generate_triples(5)) == GENERATED_DIGESTS[5]
    assert calls == {"_q_candidates": 1642, "_entry_checks": 4946}


def test_closing_checks_hold_on_every_proper_prefix():
    """A3 and B3 are inherited by extension: every nonempty proper prefix
    of a triple that passes the eight conditions passes A3 and B3 itself.
    So the generator cuts a prefix failing either with its subtree and
    loses nothing.  Checked on the triples, not the generator: 1,089
    valid triples with entries <= 4 and their 1,564 prefixes."""
    triples = prefixes = 0
    for t in shape_valid_triples(4):
        if not validate(t).ok:
            continue
        triples += 1
        for j in range(1, t.s):
            k, p, q = t.k[:j], t.p[:j], t.q[:j]
            a, R = _cut_and_r(q)
            rows = theta._closing_checks(k, p, q, a, R)
            assert all(row[1] for row in rows), (format_triple(t), j)
            prefixes += 1
    assert (triples, prefixes) == (1089, 1564)


def test_corner_rows_fit_the_rank_and_pass_a3_and_b3():
    """Every prefix of the NE path of a window, rows 1..i in the order
    the column fold appends them, has a last row of step rank at most n
    and passes A3 and B3 (README, "Recovery", lemmas 1-3).  So the
    `verify` sweep compares no step rank with n, and its closing checks
    never cut.  Checked on the corners, not on a verdict: 150,615
    prefixes of the windows of W_1..W_6, 139,886 of them at W_6."""
    counts = []
    for n in range(1, 7):
        prefixes, violations = path_prefix_violations(n)
        assert violations == [], violations[:3]
        counts.append(prefixes)
    assert counts == [1, 8, 74, 794, 9852, 139886]
    assert sum(counts) == 150615


def test_path_ties_are_the_optional_rows():
    """On the whole NE path of a window without a stray, the only check
    that fails is B2 with equality; the tied rows are the OPTIONAL ones
    of `diagram._label_by_rank`; and the placement steps of the whole
    path, tied rows included, build the window (README, "Recovery",
    lemma 4).  So the `verify` sweep, which lets a B2 tie pass, needs no
    second route for a member with OPTIONAL corners.  Checked on every
    stray-free window of W_1..W_6: 1,108 tied rows on 1,094 of them."""
    counts = []
    for n in range(1, 7):
        ties, members, violations = path_tie_violations(n)
        assert violations == [], violations[:3]
        counts.append((ties, members))
    assert counts == [(0, 0), (0, 0), (0, 0), (3, 3), (67, 67), (1038, 1024)]


def test_forced_corners_read_the_last_row_mate():
    """An unessential corner is forced in the paper's form, by some row
    mate, exactly when `diagram._label_by_rank` forces it by its slack
    against a column mate, which reads the last row mate R(u) alone
    (README, "Recovery", lemma 5).  Checked on every unessential corner
    of the windows of W_1..W_6 with no OTHER corner, the reference
    counting its own a and R(i) (`forced_corner_disagreements`).  Both
    W_6 corners with two row mates are forced by the last one only, so
    a library reading the first row mate fails here."""
    counts = []
    for n in range(1, 7):
        found, several, disagreements = forced_corner_disagreements(n)
        assert disagreements == [], disagreements[:3]
        counts.append((found, several))
    assert counts == [(0, 0), (0, 0), (0, 0), (0, 0), (4, 0), (125, 2)]


def test_generation_matches_brute_force_reference():
    """The generator equals a filter over all shape-valid triples that
    shares none of its search: keep what `validate` and `construct`
    accept at rank n."""
    for n in (1, 2, 3, 4):
        reference = set()
        for t in shape_valid_triples(n):
            if not validate(t).ok:
                continue
            try:
                construct(t)
            except (InvalidTripleError, InfeasibleRankError):
                continue
            reference.add(t)
        assert len(reference) == GENERATED_COUNTS[n]
        assert set(generate_triples(n)) == reference


def _fails_at_entry(v, i):
    """Whether verdict v is an A2, B1, B2 or C1 failure that entry i
    completes (B1 and B2 are indexed by the pair's first entry)."""
    if v.ok:
        return False
    if v.condition == "A2":
        return i in v.index
    if v.condition in ("B1", "B2"):
        return v.index == (i - 1,)
    return v.condition == "C1" and v.index == (i,)


def test_q_candidates_skip_only_failing_values():
    """`_q_candidates` is sound: on every shape-valid triple of rank <= 4
    whose first s-1 entries pass all conditions but A3 and B3, a last q
    that it leaves out fails A2, B1, B2 or C1 at the last entry, or
    gives the last entry a step rank above n."""
    skipped = set()
    for n in (1, 2, 3, 4):
        for t in shape_valid_triples(n):
            if t.s == 0:
                continue
            k, p, q, s = t.k, t.p, t.q, t.s
            rows = theta._condition_rows(ThetaTriple(k[:-1], p[:-1], q[:-1], n))
            if not all(ok for cond, ok, *_ in rows if cond not in ("A3", "B3")):
                continue
            a = sum(1 for v in q[:-1] if v > 0) + 1
            negatives = [v for v in range(-n, 0) if -v not in q[:-1]]
            if q[-1] in theta._q_candidates(n, k, p, q[:-1], a, negatives):
                continue
            failed = [v.condition for v in validate(t).verdicts
                      if _fails_at_entry(v, s)]
            if theta._step_rank(k[-1], p[-1], q[-1]) > n:
                failed.append("step rank")
            assert failed, format_triple(t)
            skipped.add(failed[0])
    # every kind of skip occurs, so the check is not vacuous
    assert skipped == {"A2", "B1", "B2", "C1", "step rank"}


def test_generated_triples_equal_their_checked_rebuild():
    """The generator builds its triples without the shape checks, which
    its bounds make redundant: each is a ThetaTriple equal to the checked
    triple of its fields, and the fields are tuples."""
    for n in range(1, 7):
        for t in generate_triples(n):
            assert type(t) is ThetaTriple
            assert type(t.k) is type(t.p) is type(t.q) is tuple
            assert t == ThetaTriple(t.k, t.p, t.q, t.n)


def test_generated_triples_share_equal_rows():
    """Within one call the generator keeps one tuple per distinct row:
    equal rows of the emitted triples are the same object."""
    for n in (4, 6):
        rows = {}
        for t in generate_triples(n):
            for row in (t.k, t.p, t.q):
                assert rows.setdefault(row, row) is row


def test_constructed_windows_pass_the_checked_constructor():
    """construct and construct_inverse build their windows unchecked;
    the checked constructor accepts each one and gives an equal element."""
    for n in range(1, 6):
        for t in generate_triples(n):
            for w in (construct(t), construct_inverse(t)):
                assert type(w.window) is tuple
                assert SignedPermutation(w.window) == w


def test_generated_triples_validate_and_fit():
    for n in (1, 2, 3):
        for t in generate_triples(n):
            assert t.n == n
            assert validate(t).ok
            assert min_feasible_rank(t) <= n


def test_generated_windows_are_distinct():
    for n in (1, 2, 3, 4):
        windows = [construct(t).window for t in generate_triples(n)]
        assert len(windows) == len(set(windows))


def test_generation_respects_rank_guard():
    from thetavex.sigperm import RankTooLargeError

    with pytest.raises(RankTooLargeError):
        next(generate_triples(9))


# ---------------------------------------------------------------------------
# structural facts (spot check; the n <= 5 sweep lives in the acceptance
# suite)


def test_structural_facts_small_ranks():
    for n in (1, 2, 3, 4):
        for t in generate_triples(n):
            assert_structural_facts(t)


def test_structural_facts_worked_example():
    assert_structural_facts(BIG_T)


def test_optional_corner_kind_label():
    from thetavex.classify import build_report

    report = build_report(BIG)
    kinds = {(c.p, c.q): c.kind for c in report.corner_records}
    assert kinds[(2, -3)] is CornerClass.OPTIONAL
    assert kinds[(2, -1)] is CornerClass.UNESSENTIAL


# ---------------------------------------------------------------------------
# notation


def test_format_parse_round_trip():
    text = format_triple(BIG_T)
    assert text == "3 4 5 6 9; 8 6 5 4 2; 7 4 2 -3 -6"
    assert parse_triple(text, n=10) == BIG_T
    assert str(BIG_T) == text


def test_parse_defaults_rank_to_fit():
    t = parse_triple("1; 2; -1")
    assert t.n == 2
    assert parse_triple("; ;", n=3) == ThetaTriple((), (), (), 3)


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError, match="';'-separated"):
        parse_triple("1 2 3")
    with pytest.raises(ValueError, match="not an integer"):
        parse_triple("1; x; 2")
    with pytest.raises(InvalidTripleError, match="A2"):
        parse_triple("1 2; 2 1; 2 -2")


def test_json_round_trip():
    obj = triple_to_json(BIG_T)
    assert obj == {
        "k": [3, 4, 5, 6, 9],
        "p": [8, 6, 5, 4, 2],
        "q": [7, 4, 2, -3, -6],
        "n": 10,
    }
    assert triple_from_json(obj) == BIG_T
    with pytest.raises(ValueError, match="lacks key"):
        triple_from_json({"k": [1], "p": [1]})


@pytest.mark.parametrize("obj, key", [
    ({"k": [1.5], "p": [1], "q": [1]}, "k"),
    ({"k": [True], "p": [1], "q": [1]}, "k"),
    ({"k": 5, "p": [1], "q": [1]}, "k"),
    ({"k": [1], "p": [2], "q": ["a"]}, "q"),
    ({"k": [1], "p": [2], "q": [-1], "n": "3"}, "n"),
    ([1, 2], None),
    ("abc", None),
    (None, None),
    (5, None),
])
def test_json_rejects_non_integer_entries(obj, key):
    # ValueError naming the key (or, for a non-object, saying so), never
    # a TypeError or a float triple
    match = f"triple key '{key}' must be" if key else "must be a JSON object"
    with pytest.raises(ValueError, match=match):
        triple_from_json(obj)


def test_json_rank_zero_is_rejected():
    # an explicit rank of 0 is not "absent": it fails as non-positive
    with pytest.raises(ValueError, match="ambient rank must be positive"):
        triple_from_json({"k": [1], "p": [2], "q": [-1], "n": 0})
    assert triple_from_json({"k": [1], "p": [2], "q": [-1]}).n == 2
