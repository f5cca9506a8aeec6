"""Benchmark of the semitotal package: two workloads, end to end and
layer by layer.

    python3 perfbench/run.py --workload {suites,requests} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree; the package is imported from `src/`.
With `--trace 0` the run sets up at least three times, replays the
workload's fixed operation list in whole passes for about S seconds and
reports the end-to-end metrics, in seconds scaled by the machine's speed
(see speed.py).  With `--trace 1` it runs one untraced pass, then sets up
and runs one pass again with every layer wrapped by the tracer, and
reports the per-layer metrics.  Every operation's output is checked after
the timed phase.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  A fuller record, with provenance, goes to
`perfbench/out/`.  See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import Speed
from workloads import SUITE_ORDERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
# set-up runs at least this many times, and until this many seconds
SETUP_REPEATS, SETUP_SECONDS = 3, 3.0

# ROADMAP baseline items too long to repeat in every run of a check.
EXCLUDED = {
    "connected_graphs(8)": "order-8 enumeration takes about 100 s per run",
    "appB at n = 9": "needs the order-8 enumeration first",
    "ac07": "the 153-vertex identity search runs into its 600 s deadline",
}

# Traced functions, by module and name: (span name, which is the group the
# span counts toward; predicate on the result whose share is reported as a
# ratio).
TRACED = {
    ("smallgraphs", "connected_graphs"): ("smallgraphs.connected_graphs", None),
    ("smallgraphs", "canonical_form"): ("smallgraphs.canonical_form", None),
    ("graphs", "contains_induced"): ("graphs.contains_induced", lambda r: r is not None),
    ("graphs", "contains_subgraph"): ("graphs.contains_subgraph", None),
    ("graphs", "contract_edges"): ("graphs.contract_edges", None),
    ("graphs", "from_graph6"): ("graphs.graph6", None),
    ("graphs", "to_graph6"): ("graphs.graph6", None),
    ("domination", "solve"): ("domination.solve", None),
    ("domination", "exists_within"): ("domination.exists_within", lambda r: r is True),
    ("domination", "solve_by_enumeration"): ("domination.solve_by_enumeration", None),
    ("domination", "enumerate_min_sets"): ("domination.enumerate_min_sets", None),
    ("blocker", "ct_exact"): ("blocker.ct_exact", None),
    ("blocker", "characterize_ct"): ("blocker.characterize_ct", None),
    ("blocker", "exists_plus1_sds_with_config"): ("blocker.exists_plus1_sds_with_config", None),
    ("blocker", "classify_ct_domination"): ("blocker.classifiers", None),
    ("blocker", "classify_ct_total"): ("blocker.classifiers", None),
    ("hclasses", "ec1_gt2_p5free"): ("hclasses.deciders", None),
    ("hclasses", "ec1_gt2_p3kp2free"): ("hclasses.deciders", None),
    ("hclasses", "poly_dispatch"): ("hclasses.deciders", None),
    ("hclasses", "find_A"): ("hclasses.find_A", None),
    ("reductions", "reduce_tree"): ("reductions.build", None),
    ("reductions", "reduce_chordal"): ("reductions.build", None),
    ("reductions", "reduce_clawfree"): ("reductions.build", None),
    ("reductions", "reduce_2p3free"): ("reductions.build", None),
    ("reductions", "validate_reduction"): ("reductions.validate_reduction", None),
    ("cli", "main"): ("cli.main", None),
}
SUITE_NAMES = tuple(suite for suite, _ in SUITE_ORDERS)

# Statistics reported for each group; `s` counts nested spans of the
# group once, `self_s` excludes time spent in traced children.
LAYER_STATS = {
    "smallgraphs.connected_graphs": ("self_s",),
    "smallgraphs.canonical_form": ("s", "calls"),
    "graphs.contains_induced": ("self_s", "calls", "hit_ratio"),
    "graphs.contains_subgraph": ("s", "calls"),
    "graphs.contract_edges": ("s", "calls"),
    "graphs.graph6": ("s", "calls"),
    "domination.solve": ("self_s", "calls"),
    "domination.exists_within": ("self_s", "calls", "true_ratio"),
    "domination.solve_by_enumeration": ("s", "calls"),
    "domination.enumerate_min_sets": ("s", "calls"),
    "blocker.ct_exact": ("self_s", "calls"),
    "blocker.characterize_ct": ("self_s", "calls"),
    "blocker.exists_plus1_sds_with_config": ("self_s", "calls"),
    "blocker.classifiers": ("self_s", "calls"),
    "hclasses.deciders": ("self_s", "calls"),
    "hclasses.find_A": ("self_s", "calls"),
    "reductions.build": ("s", "calls"),
    "reductions.validate_reduction": ("self_s", "calls"),
    **{f"verify.{suite}": ("s",) for suite in SUITE_NAMES},
    "cli.main": ("self_s", "calls"),
}
UNITS = {"s": "s", "self_s": "s", "calls": "count",
         "hit_ratio": "ratio", "true_ratio": "ratio"}
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{group}.{stat}": UNITS[stat]
        for group, stats in LAYER_STATS.items()
        for stat in stats
    }
    units["trace.overhead_s"] = "s"
    return units


class Raised:
    """Outcome of an operation that raised instead of returning."""

    def __init__(self, text: str):
        self.text = text


def run_pass(ops, speed=None) -> tuple[float, list[float], list]:
    """Run every op once, in order: seconds spent in ops, op seconds,
    outcomes.  With `speed`, the machine is probed between ops."""
    clock = time.perf_counter
    times, outcomes = [], []
    for op in ops:
        t = clock()
        try:
            outcome = op.run()
        except Exception:  # a failed operation is counted, not fatal
            outcome = Raised(traceback.format_exc(limit=3))
        times.append(clock() - t)
        outcomes.append(outcome)
        if speed is not None:
            speed.catch_up()
    return sum(times), times, outcomes


def check_outcomes(ops, outcomes) -> list[str]:
    """Failure descriptions for the outcomes of one or more passes."""
    failures = []
    for i, outcome in enumerate(outcomes):
        op = ops[i % len(ops)]
        if isinstance(outcome, Raised):
            why = "raised " + outcome.text.strip().splitlines()[-1]
        else:
            why = op.check(outcome)
        if why:
            failures.append(f"{op.label}: {why}")
    return failures


def _git_commit() -> str:
    """HEAD of the source tree, read without running git; a tree that is
    not a git checkout gives "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "excluded": EXCLUDED,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fresh_import():
    """Import the package anew, dropping any copy imported before, so that
    every set-up pays for the import and starts with empty caches."""
    for name in [n for n in sys.modules if n == "semitotal" or n.startswith("semitotal.")]:
        del sys.modules[name]
    pkg = importlib.import_module("semitotal")
    importlib.import_module("semitotal.cli")
    return pkg


def measure(setup, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of untraced runs, and the details behind them.
    Each set-up's and each pass's times are scaled by the machine's speed
    probed alongside them; see speed.py."""
    speed = Speed()
    speed.catch_up()
    clock = time.perf_counter
    setups, raw_setups = [], []
    while len(setups) < SETUP_REPEATS or sum(raw_setups) < SETUP_SECONDS:
        gc.collect()
        mark = len(speed.took)
        t = clock()
        ops = setup(fresh_import(), random.Random(seed))
        raw_setups.append(clock() - t)
        speed.catch_up()
        setups.append(raw_setups[-1] * speed.factor(mark))
    gc.collect()
    passes, raw_passes, op_times, outcomes = [], [], [], []
    begin = clock()
    while True:
        mark = len(speed.took)
        wall, times, outs = run_pass(ops, speed)
        factor = speed.factor(mark)
        raw_passes.append(wall)
        passes.append(wall * factor)
        op_times += [t * factor for t in times]
        outcomes += outs
        if clock() - begin + statistics.median(raw_passes) > seconds:
            break
    failures = check_outcomes(ops, outcomes)
    # each op's median over the passes, so that a slow moment of the
    # machine moves one sample of an op rather than a percentile
    latencies = [statistics.median(op_times[i::len(ops)]) for i in range(len(ops))]
    p50, p90 = statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(passes),
        "ops_per_s": len(op_times) / sum(passes),
        "op_p50_ms": 1000 * p50,
        "op_p90_ms": 1000 * p90,
        "peak_rss_mb": _peak_rss_mb(),
    }
    details = {
        "kernel_mean_ms": 1000 * statistics.fmean(speed.took),
        "kernel_runs": len(speed.took),
        "raw_setup_s": raw_setups,
        "raw_pass_s": raw_passes,
        "setup_runs_s": setups,
        "pass_s": passes,
        "ops_per_pass": len(ops),
        "latency_samples": len(latencies),
        "samples_above_p50": sum(t > p50 for t in latencies),
        "samples_above_p90": sum(t > p90 for t in latencies),
        "attempted": len(outcomes),
        "failed": len(failures),
        "failed_frac": len(failures) / len(outcomes),
        "failures": failures[:20],
    }
    return metrics, details


def trace(setup, seed: int, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics of one traced set-up and pass, and the details."""
    from tracer import Tracer, layer_times, write_spans

    ops = setup(fresh_import(), random.Random(seed))
    plain_wall, _, plain_outcomes = run_pass(ops)
    failures = check_outcomes(ops, plain_outcomes)

    pkg = fresh_import()
    targets = {
        (getattr(pkg, module), attr): spec
        for (module, attr), spec in TRACED.items()
    }
    tables = [(pkg.verify.SUITES, s, f"verify.{s}") for s in SUITE_NAMES]
    tracer = Tracer()
    tracer.install(targets, tables=tables)
    try:
        ops = setup(pkg, random.Random(seed))
        traced_wall, _, traced_outcomes = run_pass(ops)
    finally:
        tracer.uninstall()
    failures += check_outcomes(ops, traced_outcomes)

    layers = layer_times(tracer.spans)
    metrics = {}
    for name in per_layer_units():
        group, _, stat = name.rpartition(".")
        calls = layers.calls.get(group, 0)
        if stat == "calls":
            value = calls
        elif stat in ("hit_ratio", "true_ratio"):
            value = tracer.positives.get(group, 0) / calls if calls else 0.0
        elif stat == "self_s":
            value = layers.self_s.get(group, 0.0)
        elif stat == "s":
            value = layers.s.get(group, 0.0)
        else:  # trace.overhead_s
            value = traced_wall - plain_wall
        metrics[name] = value
    write_spans(tracer.spans, spans_path)
    attempted = len(plain_outcomes) + len(traced_outcomes)
    details = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "semitotal" / "__init__.py").is_file():
        print(f"no semitotal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setup = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, details = trace(setup, args.seed, OUT / f"{stem}.spans.tsv.gz")
        units = per_layer_units()
    else:
        metrics, details = measure(setup, args.seed, args.seconds)
        units = END_TO_END_UNITS

    record = {
        "provenance": provenance(args),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": details,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(record["provenance"]))
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6f} {units[name]}")
    print(f"{'failed_frac':48s} {details['failed_frac']:14.6f} ratio"
          f"  ({details['failed']} of {details['attempted']} operations)")
    if not args.trace:
        print(f"latency samples {details['latency_samples']}, above p50 "
              f"{details['samples_above_p50']}, above p90 {details['samples_above_p90']}")
    for failure in details["failures"]:
        print("FAILED " + failure)
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
