"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Most tests run a few calls of each workload in process; one runs the
benchmark command end to end, which takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import spans
import worker

import rbsep

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("exact_kernel", "maxsep_sweep", "poly_scale")


def small_batch(workload: str, tmp_path: Path):
    """The workload's set-up at seed 1, cut to two instances per call kind."""
    inputs = tmp_path / "inputs"
    inputs.mkdir(parents=True)
    graphs, calls = worker.build(workload, 1, inputs)
    chosen: dict[str, list[str]] = {}
    for call_id, kind in calls:
        names = chosen.setdefault(kind, [])
        name = call_id.split("/")[0]
        if name not in names and len(names) < 2:
            names.append(name)
    keep = {name for names in chosen.values() for name in names}
    calls = [c for c in calls if c[0].split("/")[0] in keep]
    return graphs, calls, inputs


def run_small(workload, tmp_path, tracer=None):
    graphs, calls, inputs = small_batch(workload, tmp_path)
    if tracer is not None:
        tracer.install()
    try:
        wall, rows, _paced = worker.run_batch(calls, graphs, inputs, tmp_path / "out", tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    checker = check.Checker(workload, 1, worker.describe(graphs))
    return wall, rows, dict(calls), checker


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_batch_passes_checker(workload, tmp_path):
    _wall, rows, kinds, checker = run_small(workload, tmp_path)
    assert rows
    for call_id, ms, out in rows:
        assert ms > 0
        assert checker.check(call_id, kinds[call_id], out) is None, call_id


def test_paced_times_follow_the_pace(tmp_path):
    graphs, calls, inputs = small_batch("maxsep_sweep", tmp_path)
    wall, rows, paced_ms = worker.run_batch(calls, graphs, inputs, tmp_path / "out", None)
    assert len(paced_ms) == len(rows) and all(ms > 0 for ms in paced_ms)
    assert wall == pytest.approx(sum(ms for _id, ms, _out in rows) / 1000.0)
    # A CPU that runs the pace work twice as slowly halves the paced time.
    ref = worker.PACE_REF_S
    assert worker.paced(2.0, ref, ref) == pytest.approx(2.0)
    assert worker.paced(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert worker.paced(2.0, ref, 3 * ref) == pytest.approx(1.0)


def test_checker_flags_corrupted_answers(tmp_path):
    _wall, rows, kinds, checker = run_small("exact_kernel", tmp_path)
    for call_id, _ms, out in rows:
        # A witness one vertex short that claims to be optimal is invalid.
        bad = dict(out, witness=out["witness"][1:], optimum=out["optimum"] - 1)
        problem = checker.check(call_id, kinds[call_id], bad)
        assert problem is not None and "invalid witness" in problem, (call_id, problem)
        bigger = dict(out, optimum=out["optimum"] + 1)
        assert checker.check(call_id, kinds[call_id], bigger) is not None

    _wall, rows, kinds, checker = run_small("poly_scale", tmp_path / "poly")
    for call_id, _ms, out in rows:
        if kinds[call_id] == "trees":
            for key in ("rb", "all_pairs"):
                bad = dict(out, **{key: out[key][: len(out[key]) // 2]})
                assert checker.check(call_id, "trees", bad) is not None

    _wall, rows, kinds, checker = run_small("maxsep_sweep", tmp_path / "sweep")
    for call_id, _ms, out in rows:
        if kinds[call_id] == "maxsep":
            assert checker.check(call_id, "maxsep", dict(out, value=out["value"] + 10)) is not None
        else:
            bad_csv = out["csv"].replace("spider:k=2,11,maxsep,6,6,1", "spider:k=2,11,maxsep,6,5,0")
            assert bad_csv != out["csv"]
            assert checker.check(call_id, kinds[call_id], dict(out, csv=bad_csv)) is not None
    assert checker.check("families", "families", {"error": "RuntimeError: boom"}) is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_traced_wall(workload, tmp_path):
    tracer = spans.Tracer()
    wall, rows, kinds, _checker = run_small(workload, tmp_path, tracer)
    assert rbsep.exact.greedy_hitting_set is rbsep.hitting.greedy_hitting_set
    assert not hasattr(rbsep.cli.main, "__wrapped__")
    assert tracer.missing == []
    metrics = spans.layer_metrics(tracer.spans, [wall], 0.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: unit for k, (_v, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    assert all(metrics[f"{layer}.self_s"][0] >= 0 for layer in spans.LAYERS)
    assert layer_sum <= wall
    assert wall - layer_sum < 0.01 * wall + 0.005
    # Spans of one call share its id.
    roots = [s for s in tracer.spans if s[0] == spans.ROOT]
    assert [s[4] for s in roots] == [call_id for call_id, _ms, _out in rows]
    for span in tracer.spans:
        if span[3] >= 0:
            assert span[4] == tracer.spans[span[3]][4]


def test_traced_nodes_equal_reported_nodes(tmp_path):
    tracer = spans.Tracer()
    wall, rows, _kinds, _checker = run_small("exact_kernel", tmp_path, tracer)
    metrics = spans.layer_metrics(tracer.spans, [wall], 0.0)
    assert metrics["hitting.nodes"][0] == sum(out["nodes"] for _id, _ms, out in rows)
    assert metrics["hitting.search_calls"][0] == len(rows)


def test_missing_function_leaves_metric_out(tmp_path, monkeypatch):
    monkeypatch.delattr(rbsep.hitting, "greedy_hitting_set")
    tracer = spans.Tracer()
    wall, rows, kinds, checker = run_small("maxsep_sweep", tmp_path, tracer)
    assert tracer.missing == ["rbsep.hitting.greedy_hitting_set"]
    metrics = spans.layer_metrics(tracer.spans, [wall], 0.0, tracer.missing)
    assert "hitting.greedy_s" not in metrics
    assert "exact.colorings_to_greedy_frac" not in metrics
    assert metrics["exact.colorings"][0] > 0
    assert all(checker.check(cid, kinds[cid], out) is None for cid, _ms, out in rows)


def test_benchmark_command_prints_contract_line():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poly_scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_kernel", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
