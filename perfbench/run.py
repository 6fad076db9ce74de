"""Benchmark for rbsep: one workload per run, answers checked, metrics printed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact_kernel --seed 0 --seconds 30 --trace 0

Workloads: ``exact_kernel``, ``maxsep_sweep``, ``poly_scale`` (see README.md).
The run starts fresh single-threaded processes (``worker.py``) with the
checkout's ``src`` on ``PYTHONPATH``: a few that only set up, for the
median ``setup_s``, then one that sets up and measures. It checks every
answer with ``check.py``, prints a table, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics.

It exits 2 without a result when the checkout has no ``src/rbsep``, and 1
when a worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import Checker, report_solution
from spans import layer_metrics

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact_kernel", "maxsep_sweep", "poly_scale")
SETUP_RUNS = 5  # set-ups per run, one of them in the measuring worker
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10  # instances above the tail percentile


def spawn(root: Path, run_dir: Path, args, deadline: float, setup_only: bool) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--dir", str(run_dir),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        argv, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((run_dir / "result.json").read_text())


def solution_size(kind: str, out: dict) -> int:
    """Vertices in the answer a call returned (0 for checks and tables)."""
    if kind in ("rb", "sep", "gamma"):
        return out["optimum"]
    if kind == "maxsep":
        return out["value"]
    if kind == "trees":
        return len(out["rb"]) + len(out["all_pairs"])
    if kind in ("cli-solve", "cli-maxsep"):
        return len(report_solution(out["report"]))
    return 0


def end_to_end(result: dict, setups: list[float], failed: set[tuple[int, str]]) -> tuple[dict, str]:
    untraced = [b for b in result["batches"] if not b["traced"]]
    per_call: dict[str, list[float]] = {}
    for batch in untraced:
        for (call_id, _ms, _out), ms in zip(batch["calls"], batch["paced_ms"]):
            per_call.setdefault(call_id, []).append(ms)
    times = sorted(statistics.median(v) for v in per_call.values())
    tail_at = len(times) - TAIL_BEYOND - 1
    kinds = dict(result["calls"])
    # Sizes of the first batch's answers; a failed call adds none.
    sizes = sum(
        solution_size(kinds[cid], out) for cid, _ms, out in untraced[0]["calls"] if (0, cid) not in failed
    )
    metrics = {
        "wall_s": (statistics.median(b["paced_wall_s"] for b in untraced), "s"),
        "instance_ms_p50": (statistics.median(times), "ms"),
        "instance_ms_tail": (times[tail_at], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "approx_size_sum": (float(sizes), "vertices"),
    }
    raw_wall = statistics.median(b["wall_s"] for b in untraced)
    note = (
        f"instance_ms_tail is p{100.0 * (tail_at + 1) / len(times):.1f} of {len(times)} calls "
        f"({TAIL_BEYOND} beyond it); {len(untraced)} untraced batches; times are paced, "
        f"unpaced wall_s {raw_wall:.6g} s"
    )
    return metrics, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "rbsep" / "__init__.py").is_file():
        print(f"error: no rbsep sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    work = root / ".perfbench-work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        for i in range(SETUP_RUNS - 1):
            setups.append(spawn(root, work / f"setup{i}", args, deadline, True)["setup_s"])
            shutil.rmtree(work / f"setup{i}")
        result = spawn(root, work / "run", args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    checker = Checker(args.workload, args.seed, result["instances"])
    kinds = dict(result["calls"])
    attempted = 0
    failed: set[tuple[int, str]] = set()
    for index, batch in enumerate(result["batches"]):
        for call_id, _ms, out in batch["calls"]:
            attempted += 1
            problem = checker.check(call_id, kinds[call_id], out)
            if problem is not None:
                failed.add((index, call_id))
                print(f"FAILED {call_id}: {problem}")

    if args.trace:
        with open(work / "run" / "trace.jsonl") as fh:
            spans = [json.loads(line) for line in fh]
        traced = [b for b in result["batches"] if b["traced"]]
        untraced = [b for b in result["batches"] if not b["traced"]]
        overhead = sum(b["paced_wall_s"] for b in traced) / sum(b["paced_wall_s"] for b in untraced) - 1.0
        metrics = layer_metrics(spans, [b["wall_s"] for b in traced], overhead, result["missing"])
        note = f"{len(traced)} traced batches; missing functions: {result['missing'] or 'none'}"
    else:
        metrics, note = end_to_end(result, setups, failed)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {note}")
    print(f"  {'failed_frac':<32} {len(failed) / attempted:>14.6g}  ({len(failed)} of {attempted} calls)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g}  {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
