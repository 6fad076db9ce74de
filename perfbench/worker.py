"""One measured process of the benchmark: set-up, then timed batches.

run.py starts this file in a fresh interpreter for every use, with the
checkout's ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR \
        [--seconds S] [--trace 0|1] [--setup-only]

Set-up imports rbsep, generates the workload's instances from the seed and,
where calls go through the CLI, writes them as input files under
``DIR/inputs``. The worker then runs the
workload's fixed batch of calls, one call at a time, until the next batch
would end after ``--seconds``; at least one batch always runs. With
``--trace 1`` every untraced batch is followed by a traced one. Results go
to ``DIR/result.json`` and spans to ``DIR/trace.jsonl``; run.py checks and
summarises them.

Calls go through rbsep's public API only, looked up at call time so the
tracer's wrappers apply.

Before and after every call the worker times ``pace``, a fixed piece of
pure-Python work of its own that does not run rbsep. The speed of a shared
virtual CPU drifts by ±25% within a minute and jumps within a second, and
it moves the program's times and the pace alike. Each call's time is also
reported *paced*: multiplied by ``PACE_REF_S`` over the mean of the pace
taken just before and just after the call, which is the time the call
would take on a CPU that runs the pace work in ``PACE_REF_S``. Set-up time
is paced the same way, with samples before the import and after set-up.
Pace samples are not part of any call's time.
"""

import time

# Pace: integer arithmetic in a loop, and AND/popcount over 300-bit masks as
# the hitting-set kernel does. It takes 1-2 ms on a shared 2-vCPU x86-64
# VM; PACE_REF_S is the nominal time that paced times are scaled to.
PACE_LOOPS = 15_000
PACE_MASKS = [(0x9E3779B97F4A7C15 * (i + 1)) ** 5 % (1 << 300) for i in range(64)]
PACE_REF_S = 0.0015


def pace() -> float:
    """Run the pace work once; returns the seconds it took."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PACE_LOOPS):
        x += i & 7
    for m in PACE_MASKS:
        for k in PACE_MASKS[:48]:
            x += (m & ~k).bit_count()
    return time.perf_counter() - t0


_PACE0 = pace()
_T0 = time.perf_counter()  # set-up time counts from before the library import

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import rbsep  # noqa: E402
import rbsep.cli  # noqa: E402
import rbsep.io  # noqa: E402
import spans  # noqa: E402

EDGE_P = 0.3


# Workload recipes. One batch takes 5-9 s on a shared 2-vCPU VM, so a
# 30-second run repeats it three or four times and each call's median time
# drops the odd slow reading. Each workload's calls fall into groups of
# similar cost, and the median and the tail land inside one group, so they
# barely move from one seed to the next.
EXACT = (("rb", 28, 300), ("sep", 22, 100), ("gamma", 44, 100))  # (solver, n, calls)
SWEEP = ((12, 18),)  # (n, count) of trees and of random graphs for maxsep_exact
POLY_GRAPHS = (128, 160, 192)  # CLI greedy routes on random graphs
POLY_TREES = ((1000, 24),)  # (n, count): tree constructions


def _coloring(rng, n):
    return rbsep.Coloring(n, rng.getrandbits(n))


def build(workload: str, seed: int, inputs: Path):
    """Generate the workload's instances and list the batch's calls in order.

    Returns ``{id: (graph, coloring or None)}`` and ``[(call_id, kind)]``;
    the part of ``call_id`` before ``/`` names its instance. When a call
    goes through the CLI, every instance is also written to ``inputs`` as
    ``<id>.graph.txt`` and ``<id>.coloring.txt``.
    """
    rng = random.Random(f"{workload}/{seed}")
    graphs: dict[str, tuple] = {}
    calls: list[tuple[str, str]] = []
    if workload == "exact_kernel":
        for kind, n, count in EXACT:
            for i in range(count):
                g = rbsep.gen_random_twin_free(n, EDGE_P, rng.getrandbits(30))
                graphs[f"{kind}{n}-{i:03d}"] = (g, _coloring(rng, n) if kind == "rb" else None)
                calls.append((f"{kind}{n}-{i:03d}", kind))
    elif workload == "maxsep_sweep":
        for n, count in SWEEP:
            for i in range(count):
                graphs[f"tree{n}-{i:02d}"] = (rbsep.gen_random_tree(n, rng.getrandbits(30)), None)
                graphs[f"gnp{n}-{i:02d}"] = (rbsep.gen_random_twin_free(n, EDGE_P, rng.getrandbits(30)), None)
                calls += [(f"tree{n}-{i:02d}", "maxsep"), (f"gnp{n}-{i:02d}", "maxsep")]
        calls.append(("families", "families"))
    elif workload == "poly_scale":
        for n in POLY_GRAPHS:
            graphs[f"gnp{n}"] = (rbsep.gen_random_twin_free(n, EDGE_P, rng.getrandbits(30)), _coloring(rng, n))
            calls += [
                (f"gnp{n}/solve", "cli-solve"),
                (f"gnp{n}/verify-solve", "cli-verify"),
                (f"gnp{n}/maxsep", "cli-maxsep"),
                (f"gnp{n}/verify-maxsep", "cli-verify"),
                (f"gnp{n}/verify-set", "cli-verify-set"),
            ]
        for n, count in POLY_TREES:
            for i in range(count):
                graphs[f"tree{n}-{i:02d}"] = (rbsep.gen_random_tree(n, rng.getrandbits(30)), _coloring(rng, n))
                calls.append((f"tree{n}-{i:02d}", "trees"))
    else:
        raise ValueError(f"unknown workload {workload!r}")

    # Instances run in a seeded random order, their own calls together and
    # in order. Every kind of call is then spread over the whole batch, and
    # the median and tail feel the same drifts in CPU speed as the total.
    by_instance: dict[str, list[tuple[str, str]]] = {}
    for call in calls:
        by_instance.setdefault(call[0].split("/")[0], []).append(call)
    order = list(by_instance)
    rng.shuffle(order)
    calls = [call for name in order for call in by_instance[name]]

    if any(kind.startswith("cli-") for _, kind in calls):
        for inst_id, (g, c) in graphs.items():
            rbsep.io.write_graph(inputs / f"{inst_id}.graph.txt", g)
            rbsep.io.write_coloring(inputs / f"{inst_id}.coloring.txt", c)
    return graphs, calls


def describe(graphs) -> dict:
    """Instances as plain data for the answer checker: edges and colours."""
    out = {}
    for inst_id, (g, c) in graphs.items():
        edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]
        red = None if c is None else "".join("R" if c.red_mask >> v & 1 else "B" for v in range(g.n))
        out[inst_id] = {"n": g.n, "edges": edges, "red": red}
    return out


class Call:
    """Everything one call needs: its instance in memory and on disk."""

    def __init__(self, call_id, graphs, inputs: Path, out: Path):
        self.id = call_id
        self.name = call_id.split("/")[0]
        self.g, self.c = graphs.get(self.name, (None, None))
        self.graph = str(inputs / f"{self.name}.graph.txt")
        self.coloring = str(inputs / f"{self.name}.coloring.txt")
        self.out = out

    def report(self, what: str) -> str:
        return str(self.out / f"{self.name}.{what}.json")


def _solved(r):
    return {"optimum": r.optimum, "witness": list(r.witness), "nodes": r.nodes_explored}


def _maxsep(call: Call) -> dict:
    r = rbsep.maxsep_exact(call.g)
    return {"value": r.value, "coloring": r.worst_coloring.to_string()}


def _families(call: Call) -> dict:
    code = rbsep.cli.main(["experiment", "--suite", "families", "--out", call.report("families")])
    return {"exit": code, "csv": Path(call.report("families")).read_text()}


def _cli_solve(call: Call) -> dict:
    argv = ["solve", "--graph", call.graph, "--coloring", call.coloring, "--method", "greedy"]
    return {"exit": rbsep.cli.main(argv + ["--out", call.report("solve")]), "report": call.report("solve")}


def _cli_maxsep(call: Call) -> dict:
    argv = ["maxsep", "--graph", call.graph, "--mode", "approx", "--out", call.report("maxsep")]
    return {"exit": rbsep.cli.main(argv), "report": call.report("maxsep")}


def _cli_verify(call: Call) -> dict:
    """``verify --report`` on the report named after ``verify-`` in the call id."""
    return {"exit": rbsep.cli.main(["verify", "--report", call.report(call.id.split("/verify-")[1])])}


def _cli_verify_set(call: Call) -> dict:
    """Save the greedy set with ``io`` and check it with ``verify --set``."""
    solution = json.loads(Path(call.report("solve")).read_text())["results"]["greedy"]["solution"]
    path = str(call.out / f"{call.name}.set.txt")
    rbsep.io.write_vertex_set(path, solution)
    argv = ["verify", "--graph", call.graph, "--coloring", call.coloring, "--set", path, "--kind", "rb"]
    return {"exit": rbsep.cli.main(argv)}


def _trees(call: Call) -> dict:
    return {
        "rb": list(rbsep.tree_rb_construct(call.g, call.c)),
        "all_pairs": list(rbsep.tree_all_pairs_construct(call.g)),
    }


RUNNERS = {
    "rb": lambda call: _solved(rbsep.sep_rb_exact(call.g, call.c)),
    "sep": lambda call: _solved(rbsep.sep_exact(call.g)),
    "gamma": lambda call: _solved(rbsep.gamma_exact(call.g)),
    "maxsep": _maxsep,
    "families": _families,
    "cli-solve": _cli_solve,
    "cli-maxsep": _cli_maxsep,
    "cli-verify": _cli_verify,
    "cli-verify-set": _cli_verify_set,
    "trees": _trees,
}


def paced(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to the reference pace, from the paces around it."""
    return seconds * PACE_REF_S / ((before + after) / 2.0)


def run_batch(calls, graphs, inputs: Path, out: Path, tracer) -> tuple[float, list, list]:
    """Run every call once, in order, with a pace sample between calls.

    Returns the batch's wall time without the pace samples, the per-call
    rows ``[call_id, ms, output]`` and each call's paced time in ms.
    """
    out.mkdir(parents=True)
    prepared = [(Call(cid, graphs, inputs, out), RUNNERS[kind]) for cid, kind in calls]
    rows = []
    clock = time.perf_counter
    paces = [pace()]
    for call, runner in prepared:
        t0 = clock()
        try:
            output = tracer.root(call.id, lambda: runner(call)) if tracer else runner(call)
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, the batch goes on
            output = {"error": f"{type(exc).__name__}: {exc}"}
        rows.append([call.id, (clock() - t0) * 1000.0, output])
        paces.append(pace())
    paced_ms = [paced(row[1], paces[i], paces[i + 1]) for i, row in enumerate(rows)]
    return sum(row[1] for row in rows) / 1000.0, rows, paced_ms


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path.cwd().resolve() / "src"
    if src not in Path(rbsep.__file__).resolve().parents:
        raise RuntimeError(f"rbsep imported from {rbsep.__file__}, not from {src}")
    run_dir = Path(args.dir).resolve()
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    graphs, calls = build(args.workload, args.seed, inputs)
    setup_s = paced(time.perf_counter() - _T0, _PACE0, pace())
    result = {"setup_s": setup_s, "calls": calls, "batches": []}
    if not args.setup_only:
        tracer = spans.Tracer() if args.trace else None
        modes = (False, True) if args.trace else (False,)
        start = time.perf_counter()
        rounds = 0
        while True:
            for traced in modes:
                if traced:
                    tracer.install()
                try:
                    out = run_dir / "out" / f"b{len(result['batches'])}"
                    wall, rows, paced_ms = run_batch(calls, graphs, inputs, out, tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                result["batches"].append({
                    "traced": traced,
                    "wall_s": wall,
                    "paced_wall_s": sum(paced_ms) / 1000.0,
                    "calls": rows,
                    "paced_ms": paced_ms,
                })
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > args.seconds:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["instances"] = describe(graphs)  # after the peak is read: not the library's memory
        if tracer is not None:
            result["missing"] = tracer.missing
            with open(run_dir / "trace.jsonl", "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
