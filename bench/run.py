#!/usr/bin/env python3
"""Benchmark command for tritrade.

One run:
    python3 bench/run.py --workload count-n5 --seed 1 --seconds 30 --trace 0

sets the workload up SETUP_REPEATS times (each time importing the package
afresh from ``src/``), then runs seeded batches of operations one after
another in this single process until ``--seconds`` have passed, checking
every result against ``oracles`` with the clock stopped.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run alternates traced and
untraced batches; spans go to ``bench/results/trace-<workload>-<seed>.jsonl``.
Every time is scaled to a reference host speed by the probe in
``hostspeed``, timed between operations.

Steadiness:
    python3 bench/run.py --workload count-n5 --seed 1 --seconds 30 --steadiness 10

runs the workload in ten fresh processes (seeds 1..10) and prints each
end-to-end metric's median, quartiles and spread against its bound in
``BENCHMARK.json``; the summary also goes to
``bench/results/steadiness-<workload>.json``.

Exit codes: 0 ok, 1 a correctness check failed (or, with --steadiness, a
spread exceeded its bound), 2 the package source is missing or the
arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from hostspeed import REFERENCE_MS, WINDOW, HostSpeed
from spans import NullTracer, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
MODULES = ("cube", "funcspace", "trade", "monomial", "symmetry",
           "construct", "testsets", "enumeration")

SETUP_REPEATS = 5
MIN_BATCHES = 4      # a traced run needs traced and untraced batches
MIN_OPS = 100        # untraced samples, so ten lie beyond the 90th percentile
RUN_TIMEOUT_S = 180

END_TO_END = (
    ("setup_s", "s"), ("solve_s", "s"), ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"),
)
SETUP_PHASES = ("import_s", "function_list_s", "cube_tables_s",
                "rank_table_s", "inputs_s")
# package calls the workloads route through the tracer; construct calls
# report busy time only
TRACED_CALLS = (
    "enumeration.count_functions", "enumeration.enumerate_functions",
    "enumeration.classify_all",
    "symmetry.canonical_form", "symmetry.orbit_values", "symmetry.aut_order",
    "symmetry.equivalent", "symmetry.count_isometries_onto",
    "funcspace.u_from_bool", "funcspace.bool_from_unitrade",
    "trade.is_unitrade", "trade.bipartition",
    "monomial.rank", "monomial.cardinality_formula",
    "monomial.trade_from_monomials", "monomial.triple_is_bitrade",
    "testsets.extract_testset",
)
CONSTRUCT_CALLS = ("construct.maximal_bitrade", "construct.rank2_family",
                   "construct.bitrade14", "construct.product",
                   "construct.k_extension")
WORK_COUNTS = ("enumeration.functions_streamed", "enumeration.solutions_counted",
               "symmetry.orbit_elements", "monomial.formula_terms",
               "construct.cells_built")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED_CALLS:
        units[name + ".busy_s"] = "s"
        units[name + ".calls"] = "count"
    for name in CONSTRUCT_CALLS:
        units[name + ".busy_s"] = "s"
    for name in WORK_COUNTS:
        units[name] = "count"
    units["enumeration.count_functions.solutions_per_busy_s"] = "1/s"
    for phase in SETUP_PHASES:
        units["setup." + phase] = "s"
    units["bench.op.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def load_package() -> SimpleNamespace:
    """Import tritrade afresh, dropping any earlier import and its caches."""
    for name in [m for m in sys.modules if m == "tritrade" or m.startswith("tritrade.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module("tritrade." + name) for name in MODULES
    })


def set_up(workload_cls, seed: int, speed: HostSpeed):
    """SETUP_REPEATS full set-ups; the last one is kept.

    Each repetition re-imports the package (so every lazy table and memo
    starts empty), builds the tables, and draws the first batch.  The
    workload's own index over those tables (``prepare``) is not counted.
    Each repetition is scaled by the probes taken just before and after it.
    """
    totals, phases = [], {p: [] for p in SETUP_PHASES}
    for _ in range(SETUP_REPEATS):
        wl = batch = None  # let the previous set-up's tables be freed
        gc.collect()
        speed.probe(WINDOW)
        t0 = perf_counter()
        tt = load_package()
        t1 = perf_counter()
        wl = workload_cls(tt)
        parts = wl.setup()
        t_index = perf_counter()
        wl.prepare()
        rng = random.Random(seed)
        t2 = perf_counter()
        batch = wl.make_batch(rng)
        t3 = perf_counter()
        speed.probe(WINDOW)
        scale = speed.scale_over(2 * WINDOW)
        totals.append(scale * (t3 - t0 - (t2 - t_index)))
        parts["import_s"] = t1 - t0
        parts["inputs_s"] = parts.get("inputs_s", 0.0) + t3 - t2
        for p in SETUP_PHASES:
            phases[p].append(scale * parts.get(p, 0.0))
    return wl, batch, rng, statistics.median(totals), {
        p: statistics.median(v) for p, v in phases.items()
    }


def measure(wl, batch, rng, seconds: float, tracer, speed: HostSpeed):
    """Batches until `seconds` have passed; with a tracer, odd batches are
    traced and even ones are not.  Each operation's time is scaled by the
    host-speed probes taken before it."""
    null = NullTracer()
    latencies: list[float] = []
    batch_s = {False: [], True: []}
    attempted = failed = 0
    errors: list[str] = []
    start = perf_counter()
    b = 0
    while True:
        traced = tracer is not None and b % 2 == 1
        tr = tracer if traced else null
        spent = 0.0
        for op in batch:
            attempted += 1
            speed.maybe_probe()
            tr.op(op.kind, speed.scale)
            t0 = perf_counter()
            try:
                result = op.run(tr)
            except Exception:  # a failed operation is counted, not fatal
                tr.end_op()
                failed += 1
                if failed <= 3:
                    traceback.print_exc(file=sys.stderr)
                continue
            t1 = perf_counter()
            tr.end_op()
            scaled = speed.scale * (t1 - t0)
            spent += scaled
            if not traced:
                latencies.append(scaled)
            try:
                err = op.check(result)
            except Exception as exc:  # a malformed result fails its check
                err = f"check raised {exc!r}"
            if err is not None:
                errors.append(f"batch {b} {op.kind}: {err}")
        batch_s[traced].append(spent)
        b += 1
        if (perf_counter() - start >= seconds and b >= MIN_BATCHES
                and len(latencies) >= MIN_OPS):
            break
        batch = wl.make_batch(rng)
    return SimpleNamespace(latencies=latencies, batch_s=batch_s,
                           attempted=attempted, failed=failed, errors=errors,
                           ops_per_batch=len(batch))


def end_to_end_metrics(setup_s: float, m) -> dict[str, float]:
    solve = statistics.median(m.batch_s[False])
    lat = sorted(m.latencies)
    return {
        "setup_s": setup_s,
        "solve_s": solve,
        "ops_per_s": m.ops_per_batch / solve,
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(phases: dict[str, float], m, tracer) -> dict[str, float]:
    """Per traced batch: busy time and calls of each package call, work
    counts, set-up phases, the benchmark's own time inside operations, and
    the tracing overhead on solve_s."""
    nb = len(m.batch_s[True])
    layers = tracer.layer_times()
    out: dict[str, float] = {}
    for name in TRACED_CALLS:
        busy, _, calls = layers.get(name, (0.0, 0.0, 0))
        out[name + ".busy_s"] = busy / nb
        out[name + ".calls"] = calls / nb
    for name in CONSTRUCT_CALLS:
        out[name + ".busy_s"] = layers.get(name, (0.0, 0.0, 0))[0] / nb
    for name in WORK_COUNTS:
        out[name] = tracer.counts.get(name, 0) / nb
    busy = layers.get("enumeration.count_functions", (0.0, 0.0, 0))[0]
    solved = tracer.counts.get("enumeration.solutions_counted", 0)
    out["enumeration.count_functions.solutions_per_busy_s"] = solved / busy if busy else 0.0
    for phase in SETUP_PHASES:
        out["setup." + phase] = phases[phase]
    out["bench.op.self_s"] = sum(
        self_s for name, (_, self_s, _) in layers.items() if name.startswith("op.")
    ) / nb
    out["trace.overhead_s"] = (statistics.median(m.batch_s[True])
                               - statistics.median(m.batch_s[False]))
    return out


def run_once(args) -> int:
    if not (ROOT / "src" / "tritrade" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    speed = HostSpeed()
    wl, batch, rng, setup_s, phases = set_up(WORKLOADS[args.workload], args.seed, speed)
    errors = [f"setup: {e}" for e in wl.check_setup()]
    tracer = Tracer() if args.trace else None
    m = measure(wl, batch, rng, args.seconds, tracer, speed)
    errors += m.errors
    for e in errors[:10]:
        print("CHECK FAILED", e, file=sys.stderr)
    if tracer is None:
        values = end_to_end_metrics(setup_s, m)
        units = dict(END_TO_END)
    else:
        values = per_layer_metrics(phases, m, tracer)
        units = per_layer_units()
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"trace-{args.workload}-{args.seed}.jsonl")
    for name, value in values.items():
        print(f"{args.workload:14s} {name:52s} {value:14.6g} {units[name]}")
    print(f"{args.workload:14s} batches {len(m.batch_s[False]) + len(m.batch_s[True])}"
          f" of {m.ops_per_batch} operations; attempted {m.attempted}, failed {m.failed}")
    print(f"{args.workload:14s} host-speed probe median {speed.median_ms():.4f} ms over"
          f" {len(speed.samples)} probes; times above are scaled to {REFERENCE_MS} ms")
    print(json.dumps({
        "correct": not errors,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0 if not errors else 1


def steadiness(args) -> int:
    """Run the workload in fresh processes, one per seed, and report each
    end-to-end metric's median, quartiles and spread against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.seed, args.seed + args.steadiness):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = {"workload": args.workload, "seconds": args.seconds,
               "seeds": [args.seed, args.seed + args.steadiness - 1],
               "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
               "metrics": {}}
    ok = len(summary["failed_share"]) == 1 and all(r["correct"] for r in runs)
    for name, _ in END_TO_END:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "UNSTEADY")
        if name != "setup_s" and spread > bound:
            ok = False
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": bound,
                                    "verdict": verdict, "values": vals}
        print(f"{args.workload:14s} {name:16s} median {med:12.6g}  q1 {q1:12.6g}"
              f"  q3 {q3:12.6g}  spread {spread:7.4f}  bound {bound:5.3f}  {verdict}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"steadiness-{args.workload}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({k: summary[k] for k in ("workload", "failed_share")}
                     | {"steady": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0,
                    help="run this many seeds in fresh processes and report spreads")
    args = ap.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
