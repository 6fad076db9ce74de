"""Command-line interface.

Subcommands: solve, maxsep, bounds, generate, reduce, verify, experiment.
Exit codes: 0 success; 1 infeasible/unseparable/invalid (a mathematical
answer, not a failure); 2 malformed input or violated precondition;
3 cap exceeded, or a search too deep for Python's recursion limit
(SearchTooDeep).
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time
from functools import cache
from pathlib import Path

from . import approx, bounds, exact, generators, io, reports
from .errors import (
    CapExceeded,
    FormatError,
    Infeasible,
    RBSepError,
    SearchTooDeep,
    Unseparable,
)
from .graphs import Coloring, violation

EXIT_OK = 0
EXIT_ANSWER_NO = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def _write_report(args, start: float, results: dict, inputs=("graph",)) -> None:
    """With ``--out``, write the run report: one record under the key naming its claim."""
    if args.out:
        paths = {name: getattr(args, name) for name in inputs}
        reports.write_run_report(args.out, ["rbsep", *args._argv], paths, results, start)


def cmd_solve(args) -> int:
    start = time.perf_counter()
    g = io.read_graph(args.graph)
    c = io.read_coloring(args.coloring, g.n)

    method = args.method
    if method == "auto":
        method = "exact" if g.n <= args.sep_cap else "greedy"
        _emit(f"method {method} (auto)")
    if args.budget is not None and method != "exact":
        raise ValueError(f"--budget needs --method exact; method {method} takes no budget")

    if method in ("exact", "xp"):
        if method == "exact":
            res = exact.sep_rb_exact(g, c, budget=args.budget)
        else:
            res = approx.xp_exact_small_class(g, c)
        _emit(f"optimum {res.optimum}")
        _emit("witness " + " ".join(map(str, res.witness)))
    else:
        fn = {
            "greedy": approx.sep_rb_greedy,
            "triangle-free": approx.triangle_free_construct,
            "bounded-degree": approx.bounded_degree_construct,
        }[method]
        res = fn(g, c)
        _emit(f"solution-size {len(res.solution)}")
        _emit("solution " + " ".join(map(str, res.solution)))
        _emit(f"guarantee {res.guarantee}")
    # Every solver above certified its set before returning it.
    _emit("verified true")
    _write_report(args, start, {method: reports.record(res)}, inputs=("graph", "coloring"))
    return EXIT_OK


def cmd_maxsep(args) -> int:
    start = time.perf_counter()
    g = io.read_graph(args.graph)
    if args.mode == "exact":
        res = exact.maxsep_exact(g, n_cap=args.cap)
        _emit(f"value {res.value}")
        _emit(f"worst-coloring {res.worst_coloring.to_string()}")
        extra = {}
    else:
        res = approx.sep_all_pairs_greedy(g)
        extra = {"lower_bound": bounds.maxsep_lower_bound(g.n)}
        _emit(f"upper {len(res.solution)}")
        _emit(f"lower {extra['lower_bound']}")
        _emit(f"guarantee {res.guarantee}")
    _write_report(args, start, {f"maxsep-{args.mode}": {**reports.record(res), **extra}})
    return EXIT_OK


def cmd_bounds(args) -> int:
    start = time.perf_counter()
    g = io.read_graph(args.graph)
    res = bounds.check_bounds(g, sep_cap=args.sep_cap, maxsep_cap=args.cap)
    for c in res.checks:
        status = "skipped" if c.holds is None else ("holds" if c.holds else "FAILS")
        lhs = "-" if c.lhs is None else c.lhs
        rhs = "-" if c.rhs is None else c.rhs
        _emit(f"check {c.name} lhs={lhs} rhs={rhs} {status}")
    for key in ("sep", "maxsep", "gamma"):
        _emit(f"{key} {getattr(res, key)}")
    _write_report(args, start, {"bounds": reports.record(res)})
    return EXIT_OK if res.all_hold else EXIT_ANSWER_NO


def cmd_generate(args) -> int:
    spec = generators.GeneratorSpec.parse(args.spec)
    g, c = generators.build_from_spec(spec)
    graph_path = Path(args.out_prefix + ".graph.txt")
    io.write_graph(graph_path, g)
    _emit(f"graph {graph_path}")
    if c is not None:
        coloring_path = Path(args.out_prefix + ".coloring.txt")
        io.write_coloring(coloring_path, c)
        _emit(f"coloring {coloring_path}")
    prov = Path(args.out_prefix + ".provenance.txt")
    prov.write_text(spec.render() + "\n")
    _emit(f"provenance {prov}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    g = io.read_graph(args.graph)
    c = io.read_coloring(args.coloring, g.n)
    system = approx.reduce_rb_to_set_cover(g, c)
    text = approx.set_system_to_text(system)
    if args.out:
        Path(args.out).write_text(text)
        _emit(f"set-system {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.report:
        data = reports.load_run_report(args.report)
        outcomes = reports.reverify_run_report(data)
        ok = all(o for _, o in outcomes)
        for name, good in outcomes:
            _emit(f"recheck {name} {'ok' if good else 'FAIL'}")
        return EXIT_OK if ok else EXIT_ANSWER_NO
    if not (args.graph and args.set):
        raise ValueError("verify needs --report, or --graph and --set")
    g = io.read_graph(args.graph)
    s = io.read_vertex_set(args.set)
    kind = args.kind
    if kind == "auto":
        kind = "rb" if args.coloring else "all-pairs"
    if kind == "rb" and not args.coloring:
        raise ValueError("verify --kind rb needs --coloring")
    c = io.read_coloring(args.coloring, g.n) if kind == "rb" else None
    found = violation(g, kind, s, c)
    if found is None:
        _emit("valid")
        return EXIT_OK
    _emit(f"invalid {found}")
    return EXIT_ANSWER_NO


# Family instances, as ``rbsep generate`` specs, with each quantity's closed form.
_FAMILIES = (
    ("half-complement:k=1", {"maxsep": 1, "sep_rb_adversarial": 1}),
    ("half-complement:k=2", {"maxsep": 3, "sep_rb_adversarial": 3}),
    ("half-complement:k=3", {"maxsep": 5, "sep_rb_adversarial": 5}),
    ("power-set:k=1", {"maxsep": 1, "sep_rb_adversarial": 1}),
    ("power-set:k=2", {"maxsep": 2, "sep_rb_adversarial": 2}),
    ("power-set:k=3", {"maxsep": 3, "sep_rb_adversarial": 3}),
    ("spider:k=1", {"sep_rb_adversarial": 3, "maxsep": 3}),
    ("spider:k=2", {"sep_rb_adversarial": 6, "maxsep": 6}),
    ("multipartite:parts=5+5", {"sep": 8, "maxsep": 4, "sep_rb_adversarial": 4}),
    ("multipartite:parts=5+5+5", {"sep": 12, "sep_rb_adversarial": 6}),
)

_QUANTITIES = {
    "maxsep": lambda g, c: exact.maxsep_exact(g).value,
    "sep_rb_adversarial": lambda g, c: exact.sep_rb_exact(g, c).optimum,
    "sep": lambda g, c: exact.sep_exact_allow_twins(g).optimum,
}


def _experiment_families(writer):
    writer.writerow(["spec", "n", "quantity", "expected", "computed", "match"])
    for spec, closed_forms in _FAMILIES:
        g, c = generators.build_from_spec(generators.GeneratorSpec.parse(spec))
        for quantity, expected in closed_forms.items():
            computed = _QUANTITIES[quantity](g, c)
            writer.writerow([spec, g.n, quantity, expected, computed, int(expected == computed)])


def _experiment_ratio(writer, seed: int, sizes: list[int]) -> None:
    writer.writerow(
        [
            "spec", "n", "m", "max_degree", "gamma", "sep", "maxsep",
            "floor_log2_n", "lb_ok", "ratio_log_ok", "ratio_degree_ok",
            "coloring", "sep_rb", "greedy_size", "greedy_ratio_ok",
        ]
    )
    checks = (
        "floor_log2_le_maxsep",
        "sep_le_ceil_log2_n_times_maxsep",
        "sep_le_ceil_log2_deg1_times_maxsep_plus_gamma",
    )
    rng = random.Random(seed)
    for n in sizes:
        for _rep in range(3):
            spec = f"random:n={n},p=0.4,seed={rng.randrange(1 << 30)}"
            g, _ = generators.build_from_spec(generators.GeneratorSpec.parse(spec))
            res = bounds.check_bounds(g)
            holds = {b.name: "" if b.holds is None else int(b.holds) for b in res.checks}
            c = Coloring(n, rng.randrange(1 << n))
            srb = exact.sep_rb_exact(g, c).optimum
            greedy = approx.sep_rb_greedy(g, c)
            size = len(greedy.solution)
            gr_ok = int(size <= greedy.guarantee * srb) if srb else int(size == 0)
            writer.writerow(
                [
                    spec, n, g.m, res.max_degree, res.gamma, res.sep, res.maxsep,
                    bounds.floor_log2(n), *(holds[name] for name in checks),
                    c.to_string(), srb, size, gr_ok,
                ]
            )


def _fuzz_row(writer, spec: str, kind: str, n: int, check: str, fn, *args) -> None:
    # ``fn`` certifies its answer, so a return is a pass. Failures, a failed
    # certificate included, become row data and the run continues.
    try:
        fn(*args)
        result = "pass"
    except Exception as exc:  # noqa: BLE001 - failures become row data
        result = f"error:{type(exc).__name__}"
    writer.writerow([spec, kind, n, check, result])


def _experiment_fuzz(writer, seed: int, sizes: list[int]) -> None:
    from .trees import tree_all_pairs_construct, tree_rb_construct

    writer.writerow(["spec", "kind", "n", "check", "result"])
    rng = random.Random(seed)
    for n in sizes:
        for _rep in range(3):
            sub = rng.randrange(1 << 30)
            spec = f"tree:n={max(n, 5)},seed={sub}"
            tree, _ = generators.build_from_spec(generators.GeneratorSpec.parse(spec))
            _fuzz_row(
                writer, spec, "tree", tree.n, "all_pairs_construct", tree_all_pairs_construct, tree
            )
            c = Coloring(tree.n, rng.randrange(1 << tree.n))
            _fuzz_row(writer, spec, "tree", tree.n, "rb_construct", tree_rb_construct, tree, c)
            gspec = f"random:n={max(n, 4)},p=0.4,seed={sub + 1}"
            g, _ = generators.build_from_spec(generators.GeneratorSpec.parse(gspec))
            c2 = Coloring(g.n, rng.randrange(1 << g.n))
            _fuzz_row(writer, gspec, "graph", g.n, "greedy_rb", approx.sep_rb_greedy, g, c2)


def cmd_experiment(args) -> int:
    sizes = [int(x) for x in args.sizes.split(",")] if args.sizes else [5, 6, 7, 8]
    for n in sizes:
        if not 1 <= n <= io.MAX_GRAPH_ORDER:
            raise ValueError(f"--sizes: graph order {n} is outside 1..{io.MAX_GRAPH_ORDER}")
        # The ratio and fuzz suites draw G(n, 0.4) over every vertex pair.
        if generators.pair_count(n) > generators.MAX_SPEC_EDGES:
            raise ValueError(
                f"--sizes: graph order {n} has more than {generators.MAX_SPEC_EDGES} vertex pairs"
            )
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if args.suite == "families":
            _experiment_families(writer)
        elif args.suite == "ratio":
            _experiment_ratio(writer, args.seed, sizes)
        else:
            _experiment_fuzz(writer, args.seed, sizes)
    _emit(f"csv {out}")
    return EXIT_OK


def _at_least_zero(name: str, what: str):
    # The argparse type of a ``name`` option, ``what`` and so at least 0.
    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"a {name} is {what} >= 0, not {value}")
        return value

    parse.__name__ = name  # argparse's "invalid cap value: 'x'" reads it
    return parse


cap = _at_least_zero("cap", "a graph order")  # --cap and --sep-cap: vertex counts
budget = _at_least_zero("budget", "a set size")  # --budget


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every command, built on first use."""
    parser = argparse.ArgumentParser(
        prog="rbsep", description="Red-blue separation solvers and experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimum red-blue separating set")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument(
        "--method",
        default="auto",
        choices=["exact", "greedy", "triangle-free", "bounded-degree", "xp", "auto"],
    )
    p.add_argument("--budget", type=budget, default=None)
    p.add_argument("--sep-cap", type=cap, default=bounds.SEP_DEFAULT_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("maxsep", help="worst-coloring separation cost")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", default="exact", choices=["exact", "approx"])
    p.add_argument("--cap", type=cap, default=exact.MAXSEP_DEFAULT_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_maxsep)

    p = sub.add_parser("bounds", help="evaluate parameter inequalities")
    p.add_argument("--graph", required=True)
    p.add_argument("--cap", type=cap, default=exact.MAXSEP_DEFAULT_CAP)
    p.add_argument("--sep-cap", type=cap, default=bounds.SEP_DEFAULT_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("generate", help="write a family instance to files")
    p.add_argument("--spec", required=True, help="e.g. half-complement:k=2")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("reduce", help="write the set-cover reduction")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="check a set or re-check a report")
    p.add_argument("--graph")
    p.add_argument("--coloring")
    p.add_argument("--set")
    p.add_argument("--kind", default="auto", choices=["auto", "rb", "all-pairs", "dominating"])
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run a CSV experiment suite")
    p.add_argument("--suite", required=True, choices=["ratio", "families", "fuzz"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default=None, help="comma-separated graph orders")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except (Unseparable, Infeasible) as exc:
        _emit(f"answer no: {exc}")
        return EXIT_ANSWER_NO
    except CapExceeded as exc:
        _emit(f"cap exceeded: {exc}")
        return EXIT_CAP
    except SearchTooDeep as exc:
        _emit(f"search too deep to finish: {exc}")
        return EXIT_CAP
    except (FormatError, RBSepError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
