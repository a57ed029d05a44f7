"""The benchmark's workloads: seeded inputs, one timed pass, and the
correctness gate that decides which items failed.

Every workload calls `thetavex` the way a user does, through the public
functions of its modules and `cli.main(argv)`, and always through the
module attribute, so a traced run sees every call.  References the gates
compare against come from the README and the paper (the member counts of
W_1..W_6, the four documented corner-route overclaims, the thirteen
patterns), not from the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Tuple

from thetavex import cli, theta

#: Theta-vexillary elements of W_n for n = 1..6 (README).
MEMBERS = {1: 2, 2: 8, 3: 44, 4: 286, 5: 2061, 6: 15964}

#: Windows on which the literal corner route overclaims (README, "Known
#: divergence").  A mismatch outside this set is a failure; these four
#: are counted as overclaims so the gate keeps working once they are fixed.
DOCUMENTED_OVERCLAIMS = {
    6: frozenset({
        (3, 5, 1, 6, -2, 4), (3, 5, 1, 6, 4, -2),
        (3, 6, 1, 5, -2, 4), (3, 6, 1, 5, 4, -2),
    }),
}

#: The thirteen signed patterns of the paper's avoidance criterion.
PATTERNS = frozenset({
    (-1, 3, 2), (-2, 3, 1), (-3, 2, 1), (-3, 2, -1),
    (2, 1, 4, 3), (2, -3, 4, -1), (-2, -3, 4, -1),
    (3, -4, 1, -2), (3, -4, -1, -2), (-3, -4, 1, -2), (-3, -4, -1, -2),
    (-4, 1, -2, 3), (-4, -1, -2, 3),
})

#: The triple of the README's worked example; it fits ranks 10 and up.
README_TRIPLE = ((3, 4, 5, 6, 9), (8, 6, 5, 4, 2), (7, 4, 2, -3, -6))

#: Query members are built from the generated triples of this rank.
MEMBER_POOL_RANK = 4


@dataclass
class PassResult:
    """One timed pass: items attempted and failed, and per-request times.

    `latencies_s` holds one entry per request a caller waits on, in the
    same order on every pass: the whole verify call on the sweep, each
    triple's round trip, each CLI request.
    """

    wall_s: float
    items: int
    failed: int
    latencies_s: List[float]
    overclaims: int = 0
    failures: List[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(what)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def fmt_window(win) -> str:
    return " ".join(str(v) for v in win)


def fmt_triple(k, p, q) -> str:
    return "; ".join(fmt_window(row) for row in (k, p, q))


def inverse_window(win) -> Tuple[int, ...]:
    inv = [0] * len(win)
    for i, v in enumerate(win, 1):
        inv[abs(v) - 1] = i if v > 0 else -i
    return tuple(inv)


def occurs_at(win, pat, positions) -> bool:
    """True iff the 1-based positions carry an occurrence of pat in win."""
    if len(positions) != len(pat) or list(positions) != sorted(set(positions)):
        return False
    if not all(1 <= i <= len(win) for i in positions):
        return False
    vals = [win[i - 1] for i in positions]
    if any((v > 0) != (c > 0) for v, c in zip(vals, pat)):
        return False
    return sorted(range(len(pat)), key=lambda j: abs(vals[j])) == sorted(
        range(len(pat)), key=lambda j: abs(pat[j])
    )


def probe_occurrence(win, rng, probes: int) -> bool:
    """Whether one of `probes` random position sets carries a pattern.

    Random windows hold many occurrences, so a few dozen probes find one;
    a window where none is found is redrawn, never assumed a non-member.
    """
    n = len(win)
    for _ in range(probes):
        m = rng.choice((3, 4)) if n >= 4 else 3
        positions = tuple(sorted(rng.sample(range(1, n + 1), m)))
        if any(occurs_at(win, p, positions) for p in PATTERNS if len(p) == m):
            return True
    return False


def call_cli(argv):
    """`cli.main(argv)` with stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """`thetavex verify <rank> --jobs <jobs> --json` through `cli.main`:
    every window of W_rank through all three routes.  The input is all of
    W_rank, so it does not depend on the seed; the latency sample is the
    whole command."""

    request = "one verify command"

    def __init__(self, rank: int = 6, jobs: int = 1, members: Optional[int] = None):
        self.rank = rank
        self.jobs = jobs
        self.members = MEMBERS[rank] if members is None else members
        self.total = 2 ** rank * math.factorial(rank)

    def with_jobs(self, jobs: int) -> "Sweep":
        return Sweep(self.rank, jobs, self.members)

    def _argv(self, rank: int) -> List[str]:
        return ["verify", str(rank), "--jobs", str(self.jobs), "--json"]

    def setup(self, seed: int) -> dict:
        windows = [
            tuple(s * v for s, v in zip(signs, perm))
            for perm in itertools.permutations(range(1, self.rank + 1))
            for signs in itertools.product((-1, 1), repeat=self.rank)
        ]
        return {"count": len(windows), "digest": digest(sorted(windows))}

    def warm_up(self, inputs: dict) -> None:
        call_cli(self._argv(min(self.rank, 4)))

    def run_pass(self, inputs: dict) -> PassResult:
        start = perf_counter()
        rc, out = call_cli(self._argv(self.rank))
        wall = perf_counter() - start
        res = PassResult(wall, self.total, 0, [wall])
        try:
            summary = json.loads(out)
            total, members = summary["total"], summary["theta_vexillary"]
            mismatches = [tuple(w) for w in summary["mismatches"]]
        except (ValueError, KeyError, TypeError):
            res.fail(f"exit {rc}, unreadable summary {out[:80]!r}", self.total)
            return res
        if rc != (1 if mismatches else 0):
            res.fail(f"exit {rc} with {len(mismatches)} mismatches")
        documented = DOCUMENTED_OVERCLAIMS.get(self.rank, frozenset())
        unexpected = [w for w in mismatches if w not in documented]
        res.overclaims = len(mismatches) - len(unexpected)
        wrong = max(len(unexpected), abs(members - self.members))
        if wrong:
            res.fail(
                f"{members} members (expected {self.members}), "
                f"unexpected mismatches {unexpected[:3]}",
                wrong,
            )
        if total != self.total:
            res.fail(f"total {total}, expected {self.total}", abs(total - self.total))
        res.failed = min(res.failed, res.items)
        return res


# ---------------------------------------------------------------------------
# roundtrip


class RoundTrip:
    """Drain `generate_triples(rank)`, then run `construct`,
    `construct_inverse` and `recover` on every triple in a seeded order.
    The latency sample is one triple's round trip."""

    request = "one triple's construct + construct_inverse + recover"

    def __init__(self, rank: int = 6, members: Optional[int] = None):
        self.rank = rank
        self.members = MEMBERS[rank] if members is None else members

    def setup(self, seed: int) -> dict:
        order = list(range(self.members))
        random.Random(seed).shuffle(order)
        return {"count": len(order), "digest": digest([self.rank, order]),
                "order": order}

    def warm_up(self, inputs: dict) -> None:
        for t in itertools.islice(theta.generate_triples(min(self.rank, 4)), 50):
            theta.recover(theta.construct(t))
            theta.construct_inverse(t)

    def run_pass(self, inputs: dict) -> PassResult:
        start = perf_counter()
        triples = list(theta.generate_triples(self.rank))
        gen_s = perf_counter() - start
        order = inputs["order"]
        if len(order) != len(triples):
            order = range(len(triples))
        res = PassResult(0.0, max(len(triples), self.members), 0, [])
        built = []
        for idx in order:
            t = triples[idx]
            t0 = perf_counter()
            try:
                w = theta.construct(t)
                dual = theta.construct_inverse(t)
                back = theta.recover(w)
            except ValueError as exc:
                res.latencies_s.append(perf_counter() - t0)
                res.fail(f"{t}: {exc}")
                continue
            res.latencies_s.append(perf_counter() - t0)
            built.append(w.window)
            if back != t:
                res.fail(f"recover(construct({t})) = {back}")
            elif dual.window != inverse_window(w.window):
                res.fail(f"construct_inverse({t}) is not the inverse")
        res.wall_s = perf_counter() - start
        if len(triples) != self.members:
            res.fail(f"{len(triples)} triples, expected {self.members}",
                     abs(len(triples) - self.members))
        repeated = len(built) - len(set(built))
        if repeated:
            res.fail(f"{repeated} triples build an already built window", repeated)
        res.failed = min(res.failed, res.items)
        res.extra = {
            "generate_s": gen_s,
            "roundtrip_s": res.wall_s - gen_s,
            "triples_digest": digest([fmt_triple(t.k, t.p, t.q) for t in triples]),
        }
        return res


# ---------------------------------------------------------------------------
# query


@dataclass(frozen=True)
class Request:
    """One CLI request and what the way its input was built implies."""

    kind: str  # classify, classify-json, recover, construct, diagram
    source: str  # longest, member, nonmember
    argv: Tuple[str, ...]
    window: Tuple[int, ...]
    triple: Optional[Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]]

    @property
    def member(self) -> bool:
        return self.triple is not None


#: Request kinds per rank stratum.  Every stratum holds each slot once, so
#: the mix, and with it the latency percentiles, differ little between seeds.
SLOTS = (
    ("classify", "longest"), ("classify", "member"), ("classify", "nonmember"),
    ("classify-json", "member"), ("classify-json", "nonmember"),
    ("recover", "longest"), ("recover", "member"), ("recover", "nonmember"),
    ("construct", "member"), ("diagram", None),
)


class Query:
    """A closed loop: one client sends each request through `cli.main` and
    waits for it before sending the next.  Ranks are log-uniform in
    [8, high] (diagrams in [8, diagram_high]), stratified so that each of
    `strata` equal slices of log-rank holds every slot once."""

    request = "one cli.main call"
    low = 8

    def __init__(self, strata: int = 20, high: int = 200, diagram_high: int = 30):
        self.strata = strata
        self.high, self.diagram_high = high, diagram_high

    def _rank(self, rng, stratum: int, high: int) -> int:
        u = (stratum + rng.random()) / self.strata
        return round(math.exp(math.log(self.low) + u * math.log(high / self.low)))

    def _member(self, rng, pool, n):
        k, p, q = rng.choice(pool)
        t = theta.ThetaTriple(k, p, q, n)
        return theta.construct(t).window, (k, p, q)

    def _nonmember(self, rng, n):
        while True:
            win = rng.sample(range(1, n + 1), n)
            win = tuple(v if rng.random() < 0.5 else -v for v in win)
            if probe_occurrence(win, rng, probes=2000):
                return win

    def build(self, seed: int) -> List[Request]:
        rng = random.Random(seed)
        pool = [(t.k, t.p, t.q) for t in theta.generate_triples(MEMBER_POOL_RANK)]
        requests = []
        for stratum in range(self.strata):
            for kind, source in SLOTS:
                high = self.diagram_high if kind == "diagram" else self.high
                n = self._rank(rng, stratum, high)
                if source is None:
                    source = ("longest", "member", "nonmember")[stratum % 3]
                triple = None
                if source == "longest":
                    win = tuple(-i for i in range(1, n + 1))
                    triple = (tuple(range(1, n + 1)), tuple(range(n, 0, -1)),
                              tuple(range(n, 0, -1)))
                elif source == "member":
                    top = stratum == self.strata - 1 and kind == "classify"
                    if top and n >= 10:
                        win, triple = self._member(rng, [README_TRIPLE], n)
                    else:
                        win, triple = self._member(rng, pool, n)
                else:
                    win = self._nonmember(rng, n)
                if kind == "construct":
                    argv = ("construct", fmt_triple(*triple), "-n", str(n))
                else:
                    argv = (kind.split("-")[0], fmt_window(win))
                    if kind == "classify-json":
                        argv += ("--json",)
                requests.append(Request(kind, source, argv, win, triple))
        rng.shuffle(requests)
        return requests

    def setup(self, seed: int) -> dict:
        requests = self.build(seed)
        return {"count": len(requests),
                "digest": digest([r.argv for r in requests]),
                "requests": requests}

    def warm_up(self, inputs: dict) -> None:
        for req in sorted(inputs["requests"], key=lambda r: len(r.window))[:10]:
            call_cli(req.argv)


    def run_pass(self, inputs: dict) -> PassResult:
        requests = inputs["requests"]
        res = PassResult(0.0, len(requests), 0, [])
        start = perf_counter()
        for req in requests:
            t0 = perf_counter()
            try:
                rc, out = call_cli(req.argv)
            except Exception as exc:  # a crash is a failed request, not a stop
                res.latencies_s.append(perf_counter() - t0)
                res.fail(f"{' '.join(req.argv)[:80]}: raised {exc!r}")
                continue
            res.latencies_s.append(perf_counter() - t0)
            problem = check_response(req, rc, out)
            if problem:
                res.fail(f"{req.kind} {req.source} n={len(req.window)}: {problem}")
        res.wall_s = perf_counter() - start
        slowest = sorted(zip(res.latencies_s, requests), key=lambda x: -x[0])[:5]
        res.extra = {"slowest": [f"{r.kind} {r.source} n={len(r.window)}: {t * 1000:.1f} ms"
                                 for t, r in slowest]}
        return res


def check_response(req: Request, rc: int, out: str) -> Optional[str]:
    """What is wrong with the response, or None when it is right."""
    lines = out.splitlines()
    if req.kind == "diagram":
        return f"exit {rc}" if rc != 0 else check_diagram(req.window, lines)
    want_rc = 0 if req.member or req.kind == "construct" else 1
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    if req.kind == "construct":
        win = req.window
        if lines != [fmt_window(win), fmt_window(inverse_window(win))]:
            return f"printed {lines[:2]}"
        return None
    if req.kind == "recover":
        want = fmt_triple(*req.triple).rstrip() if req.member else "NOT THETA-VEXILLARY"
        return None if lines == [want] else f"printed {lines[:2]}"
    if req.kind == "classify-json":
        report = json.loads(out)
        if report.get("window") != list(req.window):
            return "wrong window"
        if report.get("theta_vexillary") is not req.member:
            return "wrong verdict"
        if req.member:
            k, p, q = req.triple
            want = {"k": list(k), "p": list(p), "q": list(q), "n": len(req.window)}
            return None if report.get("triple") == want else "wrong triple"
        witness = report.get("pattern_witness") or {}
        return check_witness(req.window, witness.get("pattern"), witness.get("indices"))
    # classify, text
    if f"window: {fmt_window(req.window)}" not in lines:
        return "wrong window line"
    if f"theta-vexillary: {'yes' if req.member else 'no'}" not in lines:
        return "wrong verdict"
    if req.member:
        want = f"triple: {fmt_triple(*req.triple)}"
        return None if want in lines else "wrong triple"
    for line in lines:
        if line.startswith("pattern witness: "):
            pat, _, pos = line[len("pattern witness: "):].partition(" at positions ")
            return check_witness(
                req.window, [int(v) for v in pat.split()], [int(v) for v in pos.split()]
            )
    return "no pattern witness"


def check_witness(win, pattern, positions) -> Optional[str]:
    if pattern is None or tuple(pattern) not in PATTERNS:
        return f"witness pattern {pattern} is not one of the thirteen"
    if not occurs_at(win, tuple(pattern), tuple(positions or ())):
        return f"pattern {pattern} does not occur at {positions}"
    return None


def check_diagram(win, lines) -> Optional[str]:
    """The grid has rows -n..n and columns -n..-1, each 3 characters wide
    after a 4-character row label, and exactly one dot per column c, in
    row w(c) = -w(-c)."""
    n = len(win)
    width = 4 + 3 * n
    if len(lines) != 2 * n + 2 or any(len(line) != width for line in lines):
        return "grid has the wrong shape"
    cells = lambda line: [line[4 + 3 * j: 7 + 3 * j].strip() for j in range(n)]
    if cells(lines[0]) != [str(c) for c in range(-n, 0)]:
        return "wrong column labels"
    dots = set()
    for r, line in zip(range(-n, n + 1), lines[1:]):
        if line[:4].strip() != str(r):
            return f"wrong label on row {r}"
        dots.update((r, c) for c, cell in zip(range(-n, 0), cells(line)) if cell == "o")
    if dots != {(-win[-c - 1], c) for c in range(-n, 0)}:
        return "dots are not where the window puts them"
    return None


#: Every workload `run.py` knows.  `query` is not declared in
#: BENCHMARK.json: its run-to-run spread was above the bound (see README).
WORKLOADS = {
    "sweep": lambda: Sweep(6, jobs=1),
    "roundtrip": lambda: RoundTrip(6),
    "query": lambda: Query(),
}
