"""Fast self-test of the benchmark at tiny sizes (W_3, rank-3 triples, ten
queries).  Run from the repository root:

    python3 -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Query, RoundTrip, Sweep  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "sweep": lambda: Sweep(3),
    "roundtrip": lambda: RoundTrip(3),
    "query": lambda: Query(strata=1, high=12, diagram_high=9),
}


def test_every_declared_workload_exists():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS) == set(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted_and_nothing_fails(name, trace):
    full, result = run.measure(name, TINY[name](), seed=7, seconds=0, trace=trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    assert full["failures"] == []
    assert full["failed_ratio"] == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_same_seed_gives_the_same_query_inputs():
    a, b, c = (Query(strata=2, high=40).setup(seed)["digest"] for seed in (3, 3, 4))
    assert a == b != c


def _gate(wl, inputs):
    res = wl.run_pass(inputs)
    return res.failed, res.failures


def test_wrong_member_count_trips_the_sweep_gate():
    wl = Sweep(3, members=45)
    failed, failures = _gate(wl, wl.setup(0))
    assert failed == 1 and "expected 45" in failures[0]


def test_wrong_triple_count_trips_the_roundtrip_gate():
    wl = RoundTrip(3, members=43)
    failed, failures = _gate(wl, wl.setup(0))
    assert failed >= 1 and "expected 43" in failures[-1]


def test_wrong_expectation_trips_the_query_gate():
    wl = Query(strata=1, high=12, diagram_high=9)
    inputs = wl.setup(0)
    # claim that every member request is about a non-member
    inputs["requests"] = [
        dataclasses.replace(r, triple=None) if r.kind != "construct" else r
        for r in inputs["requests"]
    ]
    failed, failures = _gate(wl, inputs)
    members = sum(1 for r in wl.setup(0)["requests"]
                  if r.member and r.kind not in ("construct", "diagram"))
    assert failed == members > 0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
