"""Self-tests of the benchmark: span arithmetic, the speed probe, the
tracer's wrappers, and a small run of each workload through its
correctness checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import semitotal  # noqa: E402
from semitotal import ScaleLimit, blocker, cli, domination, verify  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Spans, Tracer, layer_times  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    spans = Spans()
    root = spans.add("main", 0.0, 10.0, -1)
    a = spans.add("a", 1.0, 4.0, root)
    spans.add("b", 2.0, 3.5, a)
    rec = spans.add("a", 5.0, 9.0, root)
    inner = spans.add("a", 6.0, 8.0, rec)
    spans.add("b", 6.5, 7.0, inner)
    times = layer_times(spans)
    assert times.calls == {"main": 1, "a": 3, "b": 2}
    assert times.self_s["main"] == pytest.approx(10 - 3 - 4)
    assert times.self_s["a"] == pytest.approx((3 - 1.5) + (4 - 2) + (2 - 0.5))
    assert times.self_s["b"] == pytest.approx(1.5 + 0.5)
    # the recursive "a" is covered by its outer call and counted once
    assert times.s["a"] == pytest.approx(3 + 4)
    assert times.s["b"] == pytest.approx(2)
    assert sum(times.self_s.values()) == pytest.approx(times.s["main"])


def test_speed_probes_in_proportion_and_scales_by_the_mean():
    probes = speed.Speed()
    probes.catch_up()
    probes.catch_up()
    assert len(probes.took) == 1
    time.sleep(4 * speed.EVERY_S)
    probes.catch_up()
    assert 4 <= len(probes.took) <= 7
    probes.took = [0.001, 0.003, 0.002]
    assert probes.factor(1) == pytest.approx(speed.REF_S / 0.0025)
    # no probe since the mark: the last one stands in
    assert probes.factor(3) == pytest.approx(speed.REF_S / 0.002)


def test_wrappers_keep_results_and_exceptions():
    g = semitotal.random_connected(9, 0.4, 3)
    kind = semitotal.DominationKind.SEMITOTAL
    expected = semitotal.solve(g, kind)
    original = domination.solve
    tracer = Tracer()
    tracer.install({
        (domination, "solve"): ("domination.solve", None),
        (domination, "exists_within"): ("domination.exists_within", lambda r: r is True),
    })
    try:
        # every namespace that bound the function now holds the wrapper
        assert domination.solve is not original
        assert blocker.solve is domination.solve is cli.solve is semitotal.solve
        assert semitotal.solve(g, kind) == expected
        assert semitotal.exists_within(g, kind, expected.value)
        assert not semitotal.exists_within(g, kind, expected.value - 1)
        with pytest.raises(ScaleLimit):
            semitotal.solve(semitotal.random_connected(30, 0.2, 1), kind, budget=5)
    finally:
        tracer.uninstall()
    assert domination.solve is original and blocker.solve is original
    names = [tracer.spans.names[i] for i in tracer.spans.name]
    assert names.count("domination.solve") == 2
    assert tracer.positives == {"domination.exists_within": 1}
    # the span of the call that raised is closed
    assert all(e >= s for s, e in zip(tracer.spans.start, tracer.spans.end))


def test_suite_table_is_wrapped_and_restored():
    original = dict(verify.SUITES)
    tracer = Tracer()
    tracer.install({}, tables=[(verify.SUITES, "separation", "verify.separation")])
    try:
        checks = semitotal.run_suite("separation", max_n=4)
    finally:
        tracer.uninstall()
    assert verify.SUITES == original
    assert [c.status for c in checks] == ["pass"]
    assert tracer.spans.names == ["verify.separation"]


def _smoke(name, keep):
    ops = workloads.WORKLOADS[name](semitotal, random.Random(7))
    ops = [op for op in ops if keep(op.label)]
    assert ops
    _, _, outcomes = run.run_pass(ops)
    assert run.check_outcomes(ops, outcomes) == []


def test_smoke_suites():
    _smoke("suites", lambda label: label in ("verify-separation-n6", "verify-thm32-n7"))


def test_smoke_hosts():
    _smoke("suites", lambda label: label.startswith(("tree", "clawfree", "2p3free-v5-c3")))


def test_smoke_requests():
    _smoke("requests", lambda label: "-g0-" in label)


def test_checks_catch_wrong_outputs():
    ops = workloads.WORKLOADS["requests"](semitotal, random.Random(7))[:4]
    _, _, outcomes = run.run_pass(ops)
    code, text = outcomes[0]
    report = json.loads(text)
    report["results"]["witness"] = report["results"]["witness"][1:]
    bad = [(code, json.dumps(report) + "\n"), (1, text), (0, text + text)]
    assert len(run.check_outcomes(ops[:1] * 3, bad)) == 3
    assert run.check_outcomes([ops[0]], [run.Raised("Traceback\nValueError: x\n")])


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.SUITE_NAMES) == set(verify.SUITES)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "requests", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
