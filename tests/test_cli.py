import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from rbsep.cli import main
from rbsep.generators import MAX_SPEC_EDGES, GeneratorSpec, build_from_spec, gen_random_twin_free
from rbsep.graphs import Coloring
from rbsep.io import MAX_GRAPH_ORDER, read_coloring, read_graph, write_coloring, write_graph
from rbsep.reports import FORMAT, file_digest

from conftest import path_graph


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rbsep", *args], capture_output=True, text=True
    )


def test_generate_and_solve_round_trip(tmp_path):
    prefix = str(tmp_path / "inst")
    res = run_cli("generate", "--spec", "spider:k=1", "--out-prefix", prefix)
    assert res.returncode == 0
    g = read_graph(prefix + ".graph.txt")
    c = read_coloring(prefix + ".coloring.txt")
    assert g.n == 6 and c.to_string() == "RBRBRB"
    assert (tmp_path / "inst.provenance.txt").read_text() == "spider:k=1\n"

    report = str(tmp_path / "report.json")
    res = run_cli(
        "solve", "--graph", prefix + ".graph.txt", "--coloring", prefix + ".coloring.txt",
        "--method", "exact", "--out", report,
    )
    assert res.returncode == 0
    assert "optimum 3" in res.stdout
    data = json.loads(open(report).read())
    assert data["results"]["exact"]["optimum"] == 3

    res = run_cli("verify", "--report", report)
    assert res.returncode == 0


def test_solve_monochromatic_and_budget(tmp_path):
    gpath, cpath = str(tmp_path / "g.txt"), str(tmp_path / "c.txt")
    write_graph(gpath, path_graph(6))
    write_coloring(cpath, Coloring(6, 0))
    res = run_cli("solve", "--graph", gpath, "--coloring", cpath, "--method", "exact")
    assert res.returncode == 0 and "optimum 0" in res.stdout

    write_coloring(cpath, Coloring.from_string("RBRBRB"))
    res = run_cli(
        "solve", "--graph", gpath, "--coloring", cpath, "--method", "exact",
        "--budget", "1",
    )
    assert res.returncode == 1  # infeasible within budget is exit 1


@pytest.mark.parametrize("extra", [["--method", "xp"], ["--method", "greedy"], ["--sep-cap", "2"]])
def test_budget_outside_exact_exits_input(tmp_path, extra):
    # On P6 colored RBBRBB the optimum is 2: a budget of 1 answers no under
    # exact, so any method that ignored it would print a solution instead.
    gpath, cpath = str(tmp_path / "g.txt"), str(tmp_path / "c.txt")
    write_graph(gpath, path_graph(6))
    write_coloring(cpath, Coloring.from_string("RBBRBB"))
    res = run_cli("solve", "--graph", gpath, "--coloring", cpath, "--budget", "1", *extra)
    assert res.returncode == 2
    assert "--budget" in res.stderr and "--method exact" in res.stderr
    assert "solution" not in res.stdout and "optimum" not in res.stdout


def test_search_too_deep_exits_cap_without_traceback(tmp_path):
    # gamma of an edgeless graph is its order: the greedy's set, proven
    # optimal at the root by the packing bound, so no search goes deep.
    gpath = tmp_path / "edgeless.txt"
    gpath.write_text("1100 0\n")
    res = run_cli("bounds", "--graph", str(gpath))
    assert res.returncode == 0
    assert "gamma 1100" in res.stdout
    # 60 disjoint 5-cycles: gamma is 120, the root packing 60, and the search
    # below 120 goes deeper than a lowered recursion limit.
    edges = [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(60) for i in range(5)]
    gpath = tmp_path / "cycles.txt"
    gpath.write_text("300 300\n" + "".join(f"{min(e)} {max(e)}\n" for e in edges))
    code = "import sys; sys.setrecursionlimit(100); from rbsep.cli import main; sys.exit(main())"
    argv = [sys.executable, "-c", code, "bounds", "--graph", str(gpath)]
    res = subprocess.run(argv, capture_output=True, text=True)
    assert res.returncode == 3
    assert "too deep" in res.stdout and "between 60 and 120" in res.stdout
    assert "Traceback" not in res.stderr


def test_solve_unseparable_exit_code(tmp_path):
    gpath, cpath = str(tmp_path / "g.txt"), str(tmp_path / "c.txt")
    (tmp_path / "g.txt").write_text("2 1\n0 1\n")
    (tmp_path / "c.txt").write_text("RB\n")
    res = run_cli("solve", "--graph", gpath, "--coloring", cpath, "--method", "exact")
    assert res.returncode == 1


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 9\n0 1\n")
    res = run_cli("maxsep", "--graph", str(bad))
    assert res.returncode == 2
    assert "line" in res.stderr


@pytest.mark.parametrize(
    "edges, error",
    [("0 5", "out of range"), ("-1 2", "out of range"), ("0 1", "duplicate edge (0,1)")],
    ids=["0 5", "-1 2", "0 1"],
)
def test_edge_endpoint_out_of_range_exits_input_with_its_line(tmp_path, edges, error):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"3 2\n0 1\n{edges}\n")
    res = run_cli("maxsep", "--graph", str(bad))
    assert res.returncode == 2
    assert "line 3" in res.stderr and error in res.stderr
    assert "Traceback" not in res.stderr


def test_cap_exit_code(tmp_path):
    gpath = str(tmp_path / "g.txt")
    write_graph(gpath, path_graph(16))
    res = run_cli("maxsep", "--graph", gpath, "--cap", "14")
    assert res.returncode == 3


@pytest.mark.parametrize("argv", [
    ["maxsep", "--cap", "-1"],
    ["bounds", "--cap", "-1"],
    ["bounds", "--sep-cap", "-5"],
    ["solve", "--coloring", "c.txt", "--sep-cap", "-1"],
    ["solve", "--coloring", "c.txt", "--budget", "-1"],
])
def test_negative_cap_exits_input_without_traceback(tmp_path, argv):
    # A negative cap once read as "cap exceeded" (exit 3) on maxsep, and on
    # bounds skipped the checks that need sep or maxsep with exit 0. A
    # negative budget once answered "no solution within budget -1" (exit 1).
    write_graph(tmp_path / "g.txt", path_graph(3))
    write_coloring(tmp_path / "c.txt", Coloring.from_string("RBR"))
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    res = run_cli(*argv, "--graph", str(tmp_path / "g.txt"))
    assert res.returncode == 2
    what = "a budget is a set size" if argv[-2] == "--budget" else "a cap is a graph order"
    assert f"argument {argv[-2]}: {what} >= 0, not {argv[-1]}" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


def test_maxsep_modes(tmp_path):
    gpath = str(tmp_path / "g.txt")
    write_graph(gpath, path_graph(6))
    res = run_cli("maxsep", "--graph", gpath, "--mode", "exact")
    assert res.returncode == 0 and "value 3" in res.stdout
    res = run_cli("maxsep", "--graph", gpath, "--mode", "approx")
    assert res.returncode == 0
    lines = dict(ln.split(" ", 1) for ln in res.stdout.strip().splitlines())
    assert int(lines["upper"]) >= int(lines["lower"])
    # n = 8 is in LOG_LB_EXCLUDED, where floor(log2 n) = 3 is not a proven
    # lower bound; one vertex is, since some coloring has a red-blue pair.
    write_graph(gpath, gen_random_twin_free(8, 0.4, 3))
    report = str(tmp_path / "r.json")
    res = run_cli("maxsep", "--graph", gpath, "--mode", "approx", "--out", report)
    assert res.returncode == 0 and "lower 1\n" in res.stdout
    assert json.loads(open(report).read())["results"]["maxsep-approx"]["lower_bound"] == 1


def test_bounds_command(tmp_path):
    gpath = str(tmp_path / "g.txt")
    write_graph(gpath, path_graph(6))
    res = run_cli("bounds", "--graph", gpath)
    assert res.returncode == 0
    assert "FAILS" not in res.stdout


def test_verify_command_kinds(tmp_path):
    gpath = str(tmp_path / "g.txt")
    spath = str(tmp_path / "s.txt")
    write_graph(gpath, path_graph(3))
    (tmp_path / "s.txt").write_text("1\n")
    res = run_cli("verify", "--graph", gpath, "--set", spath, "--kind", "dominating")
    assert res.returncode == 0 and "valid" in res.stdout
    (tmp_path / "s.txt").write_text("\n")
    res = run_cli("verify", "--graph", gpath, "--set", spath, "--kind", "all-pairs")
    assert res.returncode == 1 and "invalid" in res.stdout


def test_verify_negative_index_exits_input(tmp_path, capsys):
    # The set reader rejects the index before any verifier sees it.
    gpath, spath = str(tmp_path / "g.txt"), str(tmp_path / "s.txt")
    write_graph(gpath, path_graph(3))
    (tmp_path / "s.txt").write_text("-1 2\n")
    assert main(["verify", "--graph", gpath, "--set", spath, "--kind", "all-pairs"]) == 2
    assert capsys.readouterr().err == "error: line 1: negative vertex index -1\n"


@pytest.mark.parametrize("name, text, line", [
    ("s.txt", "1\n2\n", 2), ("s.txt", "-3 -1 0\n", 1), ("c.txt", "RBB\nBBB\n", 2),
])
def test_verify_malformed_set_or_coloring_exits_input(tmp_path, name, text, line):
    # A second line in either file and a negative index are format errors
    # that name their line, in place of a set or coloring read in part.
    gpath, spath, cpath = (str(tmp_path / f) for f in ("g.txt", "s.txt", "c.txt"))
    write_graph(gpath, path_graph(3))
    (tmp_path / "s.txt").write_text("1\n")
    (tmp_path / "c.txt").write_text("RBB\n")
    (tmp_path / name).write_text(text)
    res = run_cli("verify", "--graph", gpath, "--set", spath, "--coloring", cpath, "--kind", "rb")
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: line {line}: ")
    assert "Traceback" not in res.stderr and res.stdout == ""


# Byte-for-byte outputs of the experiment suites and of ``rbsep reduce``,
# kept in tests/data/golden. A change that moves any of them on purpose
# regenerates the file and says why.
GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_EXPERIMENTS = [
    ("families.csv", ["--suite", "families"]),
    ("ratio-seed0-5-6-7.csv", ["--suite", "ratio", "--seed", "0", "--sizes", "5,6,7"]),
    ("fuzz-seed0-5-8.csv", ["--suite", "fuzz", "--seed", "0", "--sizes", "5,8"]),
]
GOLDEN_REDUCE = [
    ("reduce-0.txt", "spider:k=2", "RBRBRBBRBRB"),
    ("reduce-1.txt", "half-complement:k=3", "BRBRBR"),
    ("reduce-2.txt", "power-set:k=2", "RRBB"),
    ("reduce-3.txt", "random:n=7,p=0.4,seed=1", "RRBBRRB"),
    ("reduce-4.txt", "random:n=9,p=0.4,seed=2", "RBRBBRRRR"),
    ("reduce-5.txt", "tree:n=10,seed=3", "BBRBRRRRBB"),
]


def test_outputs_match_goldens(tmp_path, capsys):
    for name, argv in GOLDEN_EXPERIMENTS:
        out = tmp_path / name
        assert main(["experiment", *argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    for name, spec, coloring in GOLDEN_REDUCE:
        g, _ = build_from_spec(GeneratorSpec.parse(spec))
        write_graph(gpath, g)
        write_coloring(cpath, Coloring.from_string(coloring))
        out = tmp_path / name
        assert main(["reduce", "--graph", str(gpath), "--coloring", str(cpath), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name


def test_reduce_round_trip(tmp_path):
    gpath, cpath = str(tmp_path / "g.txt"), str(tmp_path / "c.txt")
    out = str(tmp_path / "sys.txt")
    write_graph(gpath, path_graph(3))
    write_coloring(cpath, Coloring.from_string("RBB"))
    res = run_cli("reduce", "--graph", gpath, "--coloring", cpath, "--out", out)
    assert res.returncode == 0
    text = open(out).read()
    assert text.splitlines()[0] == "2 3"
    # The file is the in-memory system's text, and greedy on that system
    # equals the red-blue greedy.
    from rbsep.approx import (
        greedy_set_cover,
        reduce_rb_to_set_cover,
        sep_rb_greedy,
        set_system_to_text,
    )

    system = reduce_rb_to_set_cover(path_graph(3), Coloring.from_string("RBB"))
    assert text == set_system_to_text(system)
    in_process = sep_rb_greedy(path_graph(3), Coloring.from_string("RBB"))
    assert greedy_set_cover(system).solution == in_process.solution


def test_auto_method_dispatch(tmp_path):
    gpath, cpath = str(tmp_path / "g.txt"), str(tmp_path / "c.txt")
    write_graph(gpath, path_graph(5))
    write_coloring(cpath, Coloring.from_string("RBBBB"))
    res = run_cli("solve", "--graph", gpath, "--coloring", cpath)
    assert res.returncode == 0
    assert "method exact (auto)" in res.stdout


def test_method_precondition_failure_names_flag(tmp_path):
    gpath, cpath = str(tmp_path / "g.txt"), str(tmp_path / "c.txt")
    (tmp_path / "g.txt").write_text("3 3\n0 1\n0 2\n1 2\n")  # triangle
    write_coloring(cpath, Coloring.from_string("RBB"))
    res = run_cli(
        "solve", "--graph", gpath, "--coloring", cpath, "--method", "triangle-free"
    )
    assert res.returncode == 2
    assert "triangle_free" in res.stderr


def test_verify_without_inputs_exits_input(capsys):
    assert main(["verify"]) == 2
    err = capsys.readouterr().err
    assert "--report" in err and "--graph" in err and "--set" in err


def test_verify_rb_without_coloring_exits_input(tmp_path, capsys):
    gpath, spath = str(tmp_path / "g.txt"), str(tmp_path / "s.txt")
    write_graph(gpath, path_graph(3))
    (tmp_path / "s.txt").write_text("1\n")
    assert main(["verify", "--graph", gpath, "--set", spath, "--kind", "rb"]) == 2
    assert "--coloring" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, field",
    [
        ([1], "'format'"),
        ({"format": FORMAT, "inputs": {"graph": {}}}, "'path'"),
        ({"format": FORMAT, "inputs": {"graph": {"path": "g.txt"}}}, "'sha256'"),
        ({"format": FORMAT, "inputs": []}, "'inputs'"),
        ({"format": FORMAT, "results": []}, "'results'"),
        ({"format": FORMAT, "results": {"bounds": {"checks": [1]}}}, "'checks'"),
    ],
)
def test_verify_malformed_report_exits_input(tmp_path, capsys, data, field):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--report", str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "record, field",
    [
        ({"witness": ["a"]}, "'witness'"),
        ({"solution": "0 1"}, "'solution'"),
        ({"value": 2, "worst_coloring": 5}, "'worst_coloring'"),
        ({"witness": [0], "optimum": "1"}, "'optimum'"),
        ({"value": 2.0, "worst_coloring": "BRBR"}, "'value'"),
        ({"value": 2, "worst_coloring": "BRBR", "per_coloring_count": 8.0}, "'per_coloring_count'"),
        ({"n": 4, "sep": "3", "maxsep": 2, "gamma": 2, "max_degree": 2}, "'sep'"),
        ({"n": 4, "sep": 3, "maxsep": 2, "gamma": None, "max_degree": 2}, "'gamma'"),
        # A result record that is not an object.
        ([1, 2, 3], "must be an object"),
        ([1, 2], "must be an object"),
        # A guarantee is a number, not a string or a bool.
        ({"solution": [0], "guarantee": "2.0"}, "'guarantee'"),
        ({"solution": [0], "guarantee": True}, "'guarantee'"),
    ],
)
def test_verify_report_with_malformed_result_exits_input(tmp_path, capsys, record, field):
    gpath = tmp_path / "g.txt"
    write_graph(gpath, path_graph(4))
    solve_out = tmp_path / "solved.json"
    assert main(["maxsep", "--graph", str(gpath), "--out", str(solve_out)]) == 0
    data = json.loads(solve_out.read_text())
    data["results"] = {"x": record}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--report", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'x'" in err and field in err


def test_verify_report_fails_a_witness_without_a_graph(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(
        json.dumps({"format": FORMAT, "inputs": {}, "results": {"exact": {"witness": []}}})
    )
    assert main(["verify", "--report", str(path)]) == 1
    assert "recheck witness:exact FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, key, edit",
    [
        (["solve", "--method", "exact"], "exact", {"optimum": 1}),
        (["solve", "--method", "greedy"], "greedy", {"optimum_lower_bound": 4}),
        (["maxsep", "--mode", "approx"], "maxsep-approx", {"optimum_lower_bound": 4}),
        (["maxsep", "--mode", "approx"], "maxsep-approx", {"lower_bound": 5}),
        # Above maxsep_lower_bound(4) = 2, though not above the solution's size.
        (["maxsep", "--mode", "approx"], "maxsep-approx", {"lower_bound": 3}),
    ],
)
def test_verify_report_rechecks_claimed_sizes(tmp_path, capsys, command, key, edit):
    # P4 colored RBRB: the optimum is 3, the witness (0, 1, 2).
    gpath, cpath, out = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "r.json"
    write_graph(gpath, path_graph(4))
    write_coloring(cpath, Coloring.from_string("RBRB"))
    inputs = ["--graph", str(gpath)] + (["--coloring", str(cpath)] if command[0] == "solve" else [])
    assert main([*command, *inputs, "--out", str(out)]) == 0
    assert main(["verify", "--report", str(out)]) == 0
    data = json.loads(out.read_text())
    data["results"][key].update(edit)
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    assert f"recheck witness:{key} FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("worst", ["XYZXYZ", "BRBRB"])
def test_verify_report_fails_a_malformed_worst_coloring(tmp_path, capsys, worst):
    # spider:k=1 has 6 vertices; the claim needs an R/B string of that order.
    gpath, out = tmp_path / "g.txt", tmp_path / "r.json"
    write_graph(gpath, build_from_spec(GeneratorSpec.parse("spider:k=1"))[0])
    assert main(["maxsep", "--mode", "exact", "--graph", str(gpath), "--out", str(out)]) == 0
    assert main(["verify", "--report", str(out)]) == 0
    data = json.loads(out.read_text())
    data["results"]["maxsep-exact"].update(worst_coloring=worst, value=99)
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    assert "recheck coloring-length:maxsep-exact FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("value", [None, 99, 2])
def test_verify_report_rechecks_the_maxsep_value(tmp_path, capsys, value):
    # spider:k=1's worst coloring BRBRBR costs 3, its value; the kernel's
    # optimum on the claimed worst coloring must be the claimed value.
    gpath, out = tmp_path / "g.txt", tmp_path / "r.json"
    write_graph(gpath, build_from_spec(GeneratorSpec.parse("spider:k=1"))[0])
    assert main(["maxsep", "--mode", "exact", "--graph", str(gpath), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    record = data["results"]["maxsep-exact"]
    assert (record["value"], record["worst_coloring"]) == (3, "BRBRBR")
    if value is not None:
        record["value"] = value
        out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == (0 if value is None else 1)
    status = "ok" if value is None else "FAIL"
    assert f"recheck value:maxsep-exact {status}" in capsys.readouterr().out


def test_verify_report_fails_a_value_whose_recheck_raises(tmp_path, capsys):
    # The two vertices of P2 are twins, so the coloring BR is unseparable:
    # the kernel raises, and the claim fails without a traceback.
    gpath, path = tmp_path / "g.txt", tmp_path / "r.json"
    write_graph(gpath, path_graph(2))
    inputs = {"graph": {"path": str(gpath), "sha256": file_digest(gpath)}}
    results = {"maxsep-exact": {"value": 1, "worst_coloring": "BR"}}
    path.write_text(json.dumps({"format": FORMAT, "inputs": inputs, "results": results}))
    assert main(["verify", "--report", str(path)]) == 1
    printed = capsys.readouterr().out
    assert "recheck coloring-length:maxsep-exact ok" in printed
    assert "recheck value:maxsep-exact FAIL" in printed


@pytest.mark.parametrize("vertex", [99, -1])
def test_verify_report_fails_an_out_of_range_witness(tmp_path, capsys, vertex):
    # A vertex outside the graph fails its claim; the other claims still print.
    gpath, cpath, out = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "r.json"
    write_graph(gpath, path_graph(4))
    write_coloring(cpath, Coloring.from_string("RBRB"))
    inputs = ["--graph", str(gpath), "--coloring", str(cpath)]
    assert main(["solve", "--method", "exact", *inputs, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    data["results"]["xp"] = {**data["results"]["exact"], "witness": [vertex]}
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "recheck witness:xp FAIL" in printed and "recheck witness:exact ok" in printed


def test_generate_rejects_oversized_order(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    assert main(["generate", "--spec", "tree:n=10001", "--out-prefix", prefix]) == 2
    assert "graph order above" in capsys.readouterr().err
    assert not (tmp_path / "inst.graph.txt").exists()


@pytest.mark.parametrize("spec, message", [
    ("random:n=6,prob=0.9,seed=1", "generator family 'random' has no parameter 'prob'"),
    ("spider:k=2,k=3", "parameter 'k' repeated in spec 'spider:k=2,k=3'"),
    ("multipartite:parts=5+5,strict=yes", "multipartite parameter 'strict' must be 0 or 1, not 'yes'"),
], ids=["unknown", "repeated", "strict"])
def test_generate_rejects_a_parameter_its_family_does_not_read(tmp_path, capsys, spec, message):
    # Each spec once built a graph that ignored the parameter it names.
    prefix = str(tmp_path / "inst")
    assert main(["generate", "--spec", spec, "--out-prefix", prefix]) == 2
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "inst.graph.txt").exists()


def test_experiment_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        res = run_cli(
            "experiment", "--suite", "fuzz", "--seed", "5", "--sizes", "5,7", "--out", out
        )
        assert res.returncode == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_experiment_families_reproduces_closed_forms(tmp_path):
    out = str(tmp_path / "fam.csv")
    res = run_cli("experiment", "--suite", "families", "--out", out)
    assert res.returncode == 0
    rows = open(out).read().strip().splitlines()
    header, body = rows[0].split(","), rows[1:]
    match_col = header.index("match")
    assert body and all(row.split(",")[match_col] == "1" for row in body)
    # Each row's spec, as ``rbsep generate`` builds it, has the row's order.
    for row in body:
        spec, n = row.split(",")[:2]
        assert build_from_spec(GeneratorSpec.parse(spec))[0].n == int(n), spec


@pytest.mark.parametrize("suite", ["ratio", "fuzz"])
def test_experiment_specs_rebuild_their_rows(tmp_path, suite):
    # Each row's spec, as ``rbsep generate`` builds it, has the row's order,
    # and a ratio row's edge count too.
    out = tmp_path / f"{suite}.csv"
    assert main(["experiment", "--suite", suite, "--sizes", "5,8", "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        g, _ = build_from_spec(GeneratorSpec.parse(row["spec"]))
        assert (g.n, g.m) == (int(row["n"]), int(row.get("m", g.m))), row["spec"]


RATIO_SEED_1 = """\
spec,n,m,max_degree,gamma,sep,maxsep,floor_log2_n,lb_ok,ratio_log_ok,ratio_degree_ok,coloring,sep_rb,greedy_size,greedy_ratio_ok
"random:n=1,p=0.4,seed=288545018",1,0,0,1,0,0,0,1,1,1,B,0,0,1
"random:n=1,p=0.4,seed=547756574",1,0,0,1,0,0,0,1,1,1,B,0,0,1
"random:n=1,p=0.4,seed=1063938749",1,0,0,1,0,0,0,1,1,1,R,0,0,1
"random:n=5,p=0.4,seed=1014138928",5,4,3,2,3,3,2,1,1,1,BBBRR,3,3,1
"random:n=5,p=0.4,seed=450874518",5,6,4,1,3,3,2,1,1,1,BRRBB,1,1,1
"random:n=5,p=0.4,seed=1047664193",5,5,3,2,3,3,2,1,1,1,RBBBB,2,2,1
"random:n=6,p=0.4,seed=837108038",6,9,4,2,3,3,2,1,1,1,RRRBRR,2,2,1
"random:n=6,p=0.4,seed=4522707",6,4,3,3,3,3,2,1,1,1,RBBRRR,3,3,1
"random:n=6,p=0.4,seed=571940513",6,5,3,3,3,3,2,1,1,1,RBRRRB,3,3,1
"""


def test_experiment_ratio_is_pinned(tmp_path):
    out = tmp_path / "ratio.csv"
    argv = ["experiment", "--suite", "ratio", "--seed", "1", "--sizes", "1,5,6", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text() == RATIO_SEED_1


def test_experiment_ratio_columns_hold(tmp_path):
    out = str(tmp_path / "ratio.csv")
    res = run_cli("experiment", "--suite", "ratio", "--seed", "3", "--sizes", "5,6", "--out", out)
    assert res.returncode == 0
    with open(out, newline="") as fh:
        records = list(csv.DictReader(fh))
    for record in records:
        for flag in ("lb_ok", "ratio_log_ok", "ratio_degree_ok", "greedy_ratio_ok"):
            assert record[flag] in ("", "1")


def test_memory_error_exits_input(monkeypatch, capsys):
    def exhausted(path):
        raise MemoryError("graph too large")

    monkeypatch.setattr("rbsep.io.read_graph", exhausted)
    assert main(["maxsep", "--graph", "x"]) == 2
    assert "error: graph too large" in capsys.readouterr().err


def test_oversized_graph_order_exits_input(tmp_path, capsys):
    gpath = tmp_path / "huge.txt"
    gpath.write_text(f"{MAX_GRAPH_ORDER + 1} 0\n")
    assert main(["maxsep", "--graph", str(gpath)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("size", [0, MAX_GRAPH_ORDER + 1])
def test_experiment_size_outside_graph_orders_exits_input(tmp_path, capsys, size):
    out = tmp_path / "ratio.csv"
    argv = ["experiment", "--suite", "ratio", "--sizes", f"5,{size}", "--out", str(out)]
    assert main(argv) == 2
    assert f"graph order {size} is outside 1..{MAX_GRAPH_ORDER}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("size", [1415, 3000])
def test_experiment_size_over_edge_bound_exits_input(tmp_path, capsys, monkeypatch, size):
    # G(1415, 0.4) draws from 1415 * 1414 / 2 > MAX_SPEC_EDGES vertex pairs.
    def started(*args):
        raise AssertionError("a suite started")

    monkeypatch.setattr("rbsep.cli._experiment_fuzz", started)
    out = tmp_path / "fuzz.csv"
    argv = ["experiment", "--suite", "fuzz", "--sizes", f"5,{size}", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"graph order {size} has more than {MAX_SPEC_EDGES} vertex pairs" in err
    assert not out.exists()
