"""thetavex benchmark.

    python3 bench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the package is imported from its
`src/` directory.  Workloads are `sweep`, `sweep-par`, `roundtrip` and
`query` (see bench/README.md), or `all` to run each in its own process.

With `--trace 0` the timed passes run untraced and the end-to-end metrics
are reported; with `--trace 1` one untraced and one traced pass run and the
per-layer metrics are reported.  stdout ends with two JSON lines: the full
report (run header, input digest, failures, every figure), then the result
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up (import, inputs, warm-up) is timed in this many rounds.  Each
#: round sets up once before the first timed pass and once after every
#: pass, so its mean covers the whole run the way the passes do and does not
#: hang on the host's speed in the first second; setup_s is the median over
#: the rounds of a round's mean.
SETUP_ROUNDS = 3
#: Workers of the pool pass behind classify.pool.efficiency.
POOL_JOBS = 2
#: Drains of W_6 behind sigperm.iter_windows.s; the median is reported.
ITER_REPEATS = 3
TAIL = 95


def percentile(values, pct):
    """Linear interpolation between closest ranks; exact for one value."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def fresh_import():
    """Import thetavex with none of its modules loaded, then put back the
    modules loaded before, so the workloads and the tracer keep seeing one
    and the same set of module objects."""
    loaded = {m: mod for m, mod in sys.modules.items() if m.split(".")[0] == "thetavex"}
    for mod in loaded:
        del sys.modules[mod]
    importlib.import_module("thetavex")
    for mod in [m for m in sys.modules if m.split(".")[0] == "thetavex"]:
        del sys.modules[mod]
    sys.modules.update(loaded)


def set_up(wl, seed, setups):
    """One set-up: a fresh import, the seeded inputs and a warm-up.  Its
    time goes into `setups`; returns the inputs."""
    t0 = perf_counter()
    fresh_import()
    inputs = wl.setup(seed)
    wl.warm_up(inputs)
    setups.append(perf_counter() - t0)
    return inputs


def set_ups(wl, seed, rounds):
    """One set-up for each round at this point of the run."""
    for times in rounds:
        inputs = set_up(wl, seed, times)
    return inputs


def run_header():
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            sha = ref
    from workloads import digest

    sources = sorted((SRC / "thetavex").glob("*.py"))
    return {
        "git_sha": sha,
        "src_digest": digest([[p.name, p.read_text()] for p in sources]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def trace_targets():
    """(module, attribute, span name, options) for every traced call site:
    each attribute is the one its callers look up at call time."""
    from thetavex import classify, cli, theta

    found = {"hit": lambda r: r is not None}
    return [
        (classify, "find_pattern", "sigperm.find_pattern", found),
        (classify, "corners", "diagram.corners", {}),
        (theta, "corners", "diagram.corners", {}),
        (cli, "render_extended", "diagram.render_extended", {}),
        (theta, "recover", "theta.recover", {}),
        (theta, "validate", "theta.validate", {}),
        (theta, "construct", "theta.construct", {}),
        (theta, "construct_inverse", "theta.construct_inverse", {}),
        (theta, "generate_triples", "theta.generate_triples", {"generator": True}),
        (classify, "classify_by_patterns", "classify.classify_by_patterns", {}),
        (classify, "classify_by_corners", "classify.classify_by_corners", {}),
        (classify, "classify_by_triple", "classify.classify_by_triple", {}),
        (cli, "classify_by_triple", "classify.classify_by_triple", {}),
        (cli, "verify_equivalence", "classify.verify_equivalence", {}),
        (classify, "build_report", "classify.build_report", {}),
        (cli, "build_report", "classify.build_report", {}),
        (cli, "main", "cli.main", {}),
    ]


def layer_metrics(tracer, items):
    """Per-layer figures of one traced pass over `items` items."""
    per_item = lambda n: n / items if items else 0.0
    ratio = lambda a, b: a / b if b else 0.0
    st = tracer.stats
    fp = st("sigperm.find_pattern")
    in_gen = ("theta.generate_triples", "theta.construct")
    m = {
        "sigperm.find_pattern.calls_per_item": (per_item(fp.calls), "calls/item"),
        "sigperm.find_pattern.self_s": (fp.self_s, "s"),
        "sigperm.find_pattern.hit_ratio": (ratio(fp.hits, fp.calls), "ratio"),
        "diagram.corners.calls_per_item": (per_item(st("diagram.corners").calls), "calls/item"),
        "diagram.corners.self_s": (st("diagram.corners").self_s, "s"),
        "diagram.render_extended.self_s": (st("diagram.render_extended").self_s, "s"),
        "theta.recover.self_s": (st("theta.recover").self_s, "s"),
        "theta.validate.calls_per_item": (per_item(st("theta.validate").calls), "calls/item"),
        "theta.validate.self_s": (st("theta.validate").self_s, "s"),
        "theta.construct.self_s": (st("theta.construct").self_s, "s"),
        "theta.construct_inverse.self_s": (st("theta.construct_inverse").self_s, "s"),
        "theta.generate_triples.self_s": (st("theta.generate_triples").self_s, "s"),
        "theta.generate_triples.emitted": (st("theta.generate_triples").hits, "count"),
        "theta.construct.reject_ratio": (
            ratio(tracer.edge_errors[in_gen], tracer.edges[in_gen]), "ratio"),
    }
    for route in ("patterns", "corners", "triple"):
        name = f"classify.classify_by_{route}"
        m[f"{name}.s"] = (st(name).total_s, "s")
    for name in ("classify.verify_equivalence", "classify.build_report", "cli.main"):
        m[f"{name}.self_s"] = (st(name).self_s, "s")
    return m


def timed_passes(wl, seed, inputs, seconds, rounds):
    """Whole passes until `seconds` have elapsed, the last may run past;
    the set-ups after each pass count towards the elapsed time."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(wl.run_pass(inputs))
        set_ups(wl, seed, rounds)
    return passes


def traced_passes(wl, inputs):
    """An untraced pass, then a traced one; returns the passes, the layer
    figures and every span's totals."""
    from spans import Tracer
    from thetavex import sigperm

    base = wl.run_pass(inputs)
    tracer = Tracer()
    for module, attr, name, opts in trace_targets():
        tracer.patch(module, attr, name, **opts)
    try:
        traced = wl.run_pass(inputs)
    finally:
        tracer.unpatch()
    layers = layer_metrics(tracer, traced.items)
    layers["trace.overhead_ratio"] = (traced.wall_s / base.wall_s, "ratio")
    passes = [base, traced]
    efficiency = 0.0
    if hasattr(wl, "with_jobs"):
        # the same sweep on a pool, against the untraced sequential pass
        pool = wl.with_jobs(POOL_JOBS).run_pass(inputs)
        passes.append(pool)
        efficiency = (pool.items / pool.wall_s) / (POOL_JOBS * base.items / base.wall_s)
    layers["classify.pool.efficiency"] = (efficiency, "ratio")
    drains = []
    for _ in range(ITER_REPEATS):
        t0 = perf_counter()
        for _ in sigperm.iter_windows(6):
            pass
        drains.append(perf_counter() - t0)
    layers["sigperm.iter_windows.s"] = (statistics.median(drains), "s")
    spans = {name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s,
                    "errors": st.errors, "hits": st.hits}
             for name, st in sorted(tracer.layers.items())}
    return passes, layers, spans


def measure(name, wl, seed, seconds, trace):
    """Set up, run, gate; returns (full report, result line).

    Every pass sends the same requests in the same order.  A request's
    latency is the mean of its times over the passes, and throughput is the
    items of all passes over their time, so both average the host's speed
    over the run: the host drifts between a fast and a slow speed for
    seconds to minutes, and a median over three or four passes would jump
    to whichever speed held in most of them.  Set-up is timed before the
    first pass and after every pass (see SETUP_ROUNDS).
    """
    rounds = [[] for _ in range(SETUP_ROUNDS)]
    inputs = set_ups(wl, seed, rounds)

    spans = {}
    if trace:
        passes, metrics, spans = traced_passes(wl, inputs)
    else:
        passes = timed_passes(wl, seed, inputs, seconds, rounds)
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    latencies = [statistics.fmean(xs) for xs in zip(*(p.latencies_s for p in passes))]
    tail = percentile(latencies, TAIL)
    if not trace:
        metrics = {
            "throughput_per_s": (
                sum(p.items for p in passes) / sum(p.wall_s for p in passes), "1/s"),
            "latency_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
            f"latency_p{TAIL}_ms": (tail * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(statistics.fmean(r) for r in rounds), "s"),
        }
    overclaims = max(p.overclaims for p in passes)
    full = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "header": {
            **run_header(),
            "items_per_pass": passes[0].items,
            "passes": len(passes),
            "request": wl.request,
            "requests_per_pass": len(latencies),
            "tail": {
                "percentile": TAIL,
                "samples_beyond": sum(1 for x in latencies if x > tail),
            },
        },
        "inputs": {"count": inputs["count"], "digest": inputs["digest"]},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "classify.corner_route.overclaims": overclaims,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_rounds_s": rounds,
        "passes": [{"wall_s": p.wall_s, "items": p.items, "failed": p.failed, **p.extra}
                   for p in passes],
        "failures": [f for p in passes for f in p.failures][:10],
        "spans": spans,
    }
    if trace:
        full["metrics"]["classify.corner_route.overclaims"] = {
            "value": overclaims, "unit": "count"}
    result = {key: full[key] for key in ("correct", "attempted", "failed", "metrics")}
    return full, result


def run_all(args):
    """Each workload in a fresh process, so set-up and peak RSS stay its own."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print(lines[-2])
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thetavex" / "__init__.py").is_file():
        print(f"error: no thetavex sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import thetavex
    import workloads
    if Path(thetavex.__file__).resolve().parent != SRC / "thetavex":
        print(f"error: imported thetavex from {thetavex.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    wl = workloads.WORKLOADS[args.workload]()
    full, result = measure(args.workload, wl, args.seed, args.seconds, args.trace)
    print(json.dumps(full))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
