"""Whole run-report records, pinned field by field, and their recheck.

The pins run ``rbsep.cli.main`` with ``--out`` on one fixed 7-vertex tree
and compare the JSON it writes, with the timings and the command echo
removed, against the record pinned for it. The recheck cases edit such a
report, or one made from spider:k=2, and run ``verify --report`` on it. Two
more check what importing the package loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbsep
from rbsep.cli import main
from rbsep.errors import Infeasible, SearchTooDeep
from rbsep.exact import sep_rb_exact
from rbsep.generators import GeneratorSpec, build_from_spec
from rbsep.io import write_coloring, write_graph
from rbsep.reports import FORMAT

GRAPH = "7 6\n0 1\n1 2\n2 3\n1 4\n4 5\n5 6\n"
COLORING = "RBBRBRB\n"
GRAPH_SHA = "b8cf9af94c47f1ee3d3b74903667d8005b462b7761ed87db4cbc1e5e1b571ba8"
COLORING_SHA = "11675ca66d2e9c4f243a81bf47c5e3b14702800fb4330ad6f8410b1e50b003e9"

# 2 nodes: the greedy's set {1, 2, 4} is the incumbent, and the one search
# below it, at limit 2, refutes size 2 in one node and one child tried. The
# deepening searches at sizes 0, 1 and 2 and then 3 read 7.
EXACT = {
    "method": "branch-and-bound", "nodes_explored": 2, "optimum": 3, "witness": [1, 2, 4],
}


def _approx(solution, guarantee, lower):
    return {"guarantee": guarantee, "optimum_lower_bound": lower, "solution": solution}


SOLVE = {
    "exact": EXACT,
    "xp": EXACT,
    "greedy": _approx([1, 2, 4], 3.8918202981106265, 2),
    "triangle-free": _approx([0, 1, 2, 3, 4, 5, 6], 9.0, 1),
    "bounded-degree": _approx([0, 1, 2, 3, 4, 6], 9.0, 1),
}

MAXSEP = {
    "exact": {
        "maxsep-exact": {"per_coloring_count": 64, "value": 3, "worst_coloring": "BRBRBRB"}
    },
    "approx": {
        "maxsep-approx": {
            "guarantee": 14.67546089433188, "lower_bound": 2, "optimum_lower_bound": 2,
            "solution": [1, 2, 4],
        }
    },
}

CHECK_NAMES = (
    "floor_log2_le_maxsep", "maxsep_le_sep", "sep_le_n_minus_1",
    "sep_le_ceil_log2_n_times_maxsep", "sep_le_ceil_log2_deg1_times_maxsep_plus_gamma",
    "tree_maxsep_le_half_n_plus_s", "tree_sep_le_n_minus_s", "tree_maxsep_le_two_thirds_n",
)

BOUNDS = {
    (): (
        [(2, 3), (3, 3), (3, 6), (3, 9), (3, 9), (3, 5.0), (3, 4), (3, 4.666666666666667)],
        {"gamma": 3, "max_degree": 3, "maxsep": 3, "n": 7, "sep": 3, "support_count": 3},
    ),
    ("--cap", "3", "--sep-cap", "2"): (
        None,
        {"gamma": 3, "max_degree": 3, "maxsep": None, "n": 7, "sep": None, "support_count": 3},
    ),
}


@pytest.fixture
def inputs(tmp_path):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    gpath.write_text(GRAPH)
    cpath.write_text(COLORING)
    return {
        "graph": {"path": str(gpath), "sha256": GRAPH_SHA},
        "coloring": {"path": str(cpath), "sha256": COLORING_SHA},
    }


def _run(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data.pop("command") == ["rbsep", *argv, "--out", str(out)]
    assert isinstance(data.pop("elapsed_ms"), float)
    for record in data["results"].values():
        record.pop("elapsed_ms", None)
    return data


def _same(got, want):
    # json.dumps tells 3 from 3.0, which == does not.
    assert got == want
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("method", list(SOLVE))
def test_solve_report_record(tmp_path, inputs, method):
    argv = ["solve", "--graph", inputs["graph"]["path"],
            "--coloring", inputs["coloring"]["path"], "--method", method]
    _same(_run(tmp_path, argv), {
        "format": FORMAT,
        "inputs": inputs,
        "results": {method: SOLVE[method]},
    })


@pytest.mark.parametrize("mode", list(MAXSEP))
def test_maxsep_report_record(tmp_path, inputs, mode):
    argv = ["maxsep", "--graph", inputs["graph"]["path"], "--mode", mode]
    _same(_run(tmp_path, argv), {
        "format": FORMAT,
        "inputs": {"graph": inputs["graph"]},
        "results": MAXSEP[mode],
    })


@pytest.mark.parametrize("extra", list(BOUNDS))
def test_bounds_report_record(tmp_path, inputs, extra):
    sides, parameters = BOUNDS[extra]
    if sides is None:
        notes = ["skipped: value not computed"] * 3 + ["skipped: maxsep over cap"] * 2
        notes += ["skipped: value not computed"] * 3
        checks = [
            {"name": name, "lhs": None, "rhs": None, "holds": None, "note": note}
            for name, note in zip(CHECK_NAMES, notes)
        ]
    else:
        checks = [
            {"name": name, "lhs": lhs, "rhs": rhs, "holds": True, "note": ""}
            for name, (lhs, rhs) in zip(CHECK_NAMES, sides)
        ]
    argv = ["bounds", "--graph", inputs["graph"]["path"], *extra]
    _same(_run(tmp_path, argv), {
        "format": FORMAT,
        "inputs": {"graph": inputs["graph"]},
        "results": {"bounds": {**parameters, "checks": checks}},
    })


@pytest.mark.parametrize("method, key", [("exact", "witness"), ("greedy", "solution")])
def test_verify_report_rejects_a_repeated_vertex(tmp_path, inputs, capsys, method, key):
    # [1, 2, 4, 4] has the claimed optimum's 3 distinct vertices, but a
    # witness lists each vertex once: the report is malformed, exit 2.
    out = tmp_path / "report.json"
    argv = ["solve", "--graph", inputs["graph"]["path"], "--coloring", inputs["coloring"]["path"],
            "--method", method, "--out", str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    data["results"][method][key].append(4)
    out.write_text(json.dumps(data))
    assert main(["verify", "--report", str(out)]) == 2
    assert f"{key!r} repeats a vertex" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [0, 1])
def test_verify_report_rechecks_the_coloring_count(tmp_path, inputs, capsys, extra):
    # The exact sweep counts the 2^(n-1) = 64 colorings of the 7-vertex tree.
    out = tmp_path / "report.json"
    argv = ["maxsep", "--graph", inputs["graph"]["path"], "--mode", "exact", "--out", str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    data["results"]["maxsep-exact"]["per_coloring_count"] += extra
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == extra
    status = "FAIL" if extra else "ok"
    assert f"recheck count:maxsep-exact {status}\n" in capsys.readouterr().out


def test_verify_report_rechecks_every_bound(tmp_path, inputs, capsys):
    # An untouched bounds report rechecks line by line. Moving any claimed
    # number by one, flipping a check's ``holds``, or dropping or repeating a
    # check each make the recheck fail.
    out = tmp_path / "report.json"
    assert main(["bounds", "--graph", inputs["graph"]["path"], "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 0
    claims = ["digest:graph", "parameters", *(f"bound:{name}" for name in CHECK_NAMES)]
    assert capsys.readouterr().out == "".join(f"recheck {claim} ok\n" for claim in claims)
    data = json.loads(out.read_text())
    bounds = data["results"]["bounds"]
    checks = bounds["checks"]
    edits = [(c, key, c[key] + d) for c in checks for key in ("lhs", "rhs") for d in (1, -1)]
    edits += [(c, "holds", not c["holds"]) for c in checks]
    edits += [(bounds, key, v + d) for key, v in bounds.items() if key != "checks" for d in (1, -1)]
    assert len(edits) == 52
    for where, key, value in edits:
        kept, where[key] = where[key], value
        out.write_text(json.dumps(data))
        assert main(["verify", "--report", str(out)]) == 1, (where, key, value)
        where[key] = kept
    for edited in (checks[:-1], checks + checks[-1:]):
        out.write_text(json.dumps({**data, "results": {"bounds": {**bounds, "checks": edited}}}))
        assert main(["verify", "--report", str(out)]) == 1
    assert "recheck bound:tree_maxsep_le_two_thirds_n FAIL\n" in capsys.readouterr().out


@pytest.mark.parametrize("edit, code", [
    (lambda results: results["bounds"].pop("sep"), 1),
    (lambda results: results.update(bounds=[1, 2]), 2),
], ids=["no-sep", "record-a-list"])
def test_verify_bounds_report_without_a_field_or_not_an_object(tmp_path, inputs, capsys, edit, code):
    # A deleted sep leaves the record claiming less than the graph gives,
    # a false claim (exit 1); a record that is not an object is malformed (exit 2).
    out = tmp_path / "report.json"
    assert main(["bounds", "--graph", inputs["graph"]["path"], "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    edit(data["results"])
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == code
    if code == 1:
        assert "recheck parameters FAIL\n" in capsys.readouterr().out


# False reports made from spider:k=2 that the recheck once passed, each with
# the failing recheck line: a witness of another claim kind, and a claim kept
# after the evidence for it was deleted. A field naming a claim kind beside the
# key is an unknown field (``test_verify_report_rejects_an_unknown_field``).
PROBES = {
    # {0, 1, 2, 4, 6, 9} dominates the spider but leaves the pair (4, 5) unsplit.
    "dominating-witness": (
        ["solve", "--method", "exact"], "exact", "witness:exact",
        lambda r: r.update(witness=[0, 1, 2, 4, 6, 9]),
    ),
    "no-witness": (
        ["solve", "--method", "exact"], "exact", "witness:exact",
        lambda r: (r.pop("witness"), r.update(optimum=1)),
    ),
    "no-worst-coloring": (
        ["maxsep", "--mode", "exact"], "maxsep-exact", "value:maxsep-exact",
        lambda r: (r.pop("worst_coloring"), r.update(value=99)),
    ),
    "no-solution": (
        ["maxsep", "--mode", "approx"], "maxsep-approx", "witness:maxsep-approx",
        lambda r: (r.pop("solution"), r.pop("optimum_lower_bound")),
    ),
}


@pytest.mark.parametrize("probe", list(PROBES))
def test_verify_report_holds_each_key_to_its_claim(tmp_path, capsys, probe):
    argv, key, claim, edit = PROBES[probe]
    g, c = build_from_spec(GeneratorSpec.parse("spider:k=2"))
    gpath, cpath, out = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "report.json"
    write_graph(gpath, g)
    write_coloring(cpath, c)
    paths = ["--graph", str(gpath)] + (["--coloring", str(cpath)] if argv[0] == "solve" else [])
    assert main([*argv, *paths, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    edit(data["results"][key])
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    assert f"recheck {claim} FAIL\n" in capsys.readouterr().out


# Valid separating sets larger than a construction's guarantee, which the
# recheck once passed: P10 colored BBBBRBBBBB (guarantee 3) with {1, ..., 7},
# and spider:k=3 with one red vertex (Delta = 3, guarantee 3) with all 16 vertices.
OVERSIZED = {
    "triangle-free": ("10 9\n" + "".join(f"{i} {i + 1}\n" for i in range(9)), "BBBBRBBBBB", range(1, 8)),
    "bounded-degree": (None, "R" + "B" * 15, range(16)),
}


@pytest.mark.parametrize("method", list(OVERSIZED))
def test_verify_report_holds_a_construction_to_its_guarantee(tmp_path, capsys, method):
    graph, coloring, solution = OVERSIZED[method]
    gpath, cpath, out = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "report.json"
    if graph is None:
        write_graph(gpath, build_from_spec(GeneratorSpec.parse("spider:k=3"))[0])
    else:
        gpath.write_text(graph)
    cpath.write_text(coloring + "\n")
    argv = ["solve", "--method", method, "--graph", str(gpath), "--coloring", str(cpath)]
    assert main([*argv, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    record = data["results"][method]
    assert record["guarantee"] == 3.0 and len(record["solution"]) <= 3
    record["solution"] = list(solution)
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    printed = capsys.readouterr().out
    assert f"recheck witness:{method} FAIL\n" in printed
    assert f"recheck guarantee:{method} ok\n" in printed


@pytest.mark.parametrize("argv", [
    *(["solve", "--method", method] for method in SOLVE),
    ["maxsep", "--mode", "approx"],
], ids=[*SOLVE, "maxsep-approx"])
def test_untouched_report_rechecks_with_only_ok_lines(tmp_path, inputs, capsys, argv):
    out = tmp_path / "report.json"
    paths = ["--graph", inputs["graph"]["path"]]
    if argv[0] == "solve":
        paths += ["--coloring", inputs["coloring"]["path"]]
    assert main([*argv, *paths, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    key = argv[-1] if argv[0] == "solve" else "maxsep-approx"
    assert f"recheck witness:{key} ok" in lines
    assert all(line.startswith("recheck ") and line.endswith(" ok") for line in lines)


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["results"].update(bad=data["results"]["exact"]), "unknown report result 'bad'"),
    (lambda data: data.update(format="rbsep-report/1"), "unsupported report format 'rbsep-report/1'"),
], ids=["unknown-key", "old-format"])
def test_verify_report_rejects_an_unknown_key_or_format(tmp_path, inputs, capsys, edit, message):
    # The key decides what a record claims, and the format how reports are
    # rechecked: a key or a format the recheck does not know is malformed input.
    out = tmp_path / "report.json"
    argv = ["solve", "--graph", inputs["graph"]["path"],
            "--coloring", inputs["coloring"]["path"], "--method", "exact", "--out", str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    edit(data)
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, key, field", [
    (["solve", "--method", "exact"], "exact", "proven_optimal"),
    (["solve", "--method", "exact"], "exact", "verifies"),
    (["solve", "--method", "greedy"], "greedy", "lower_bound"),
    (["maxsep", "--mode", "approx"], "maxsep-approx", "upper_bound"),
    (["maxsep", "--mode", "exact"], "maxsep-exact", "proven_optimal"),
    (["bounds"], "bounds", "bound_checks"),
], ids=["exact-proven-optimal", "exact-verifies", "greedy-lower-bound", "maxsep-approx-upper-bound",
        "maxsep-exact", "bounds"])
def test_verify_report_rejects_an_unknown_field(tmp_path, inputs, capsys, argv, key, field):
    # A record holds its result's fields, and maxsep-approx's lower_bound,
    # and nothing else: a field the recheck does not know is malformed input.
    out = tmp_path / "report.json"
    paths = ["--graph", inputs["graph"]["path"]]
    if argv[0] == "solve":
        paths += ["--coloring", inputs["coloring"]["path"]]
    assert main([*argv, *paths, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    data["results"][key][field] = 1
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    assert f"report result {key!r} has unknown field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["exact", "xp"])
def test_verify_report_rechecks_an_optimums_lower_side(tmp_path, capsys, method):
    # spider:k=2 has optimum 6: the kernel finds no set within 5, so the
    # untouched report holds. All 11 vertices separate too, so a copy
    # claiming them with optimum 11 passes the witness line and fails the
    # optimum line.
    g, c = build_from_spec(GeneratorSpec.parse("spider:k=2"))
    with pytest.raises(Infeasible):
        sep_rb_exact(g, c, budget=5)
    gpath, cpath, out = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "report.json"
    write_graph(gpath, g)
    write_coloring(cpath, c)
    argv = ["solve", "--method", method, "--graph", str(gpath), "--coloring", str(cpath), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 0
    assert f"recheck optimum:{method} ok\n" in capsys.readouterr().out
    data = json.loads(out.read_text())
    data["results"][method].update(witness=list(range(11)), optimum=11)
    out.write_text(json.dumps(data))
    assert main(["verify", "--report", str(out)]) == 1
    printed = capsys.readouterr().out
    assert f"recheck witness:{method} ok\n" in printed
    assert f"recheck optimum:{method} FAIL\n" in printed


def test_optimum_recheck_is_trivial_at_zero_and_fails_on_other_errors(tmp_path, inputs, capsys, monkeypatch):
    # An all-blue coloring needs no vertex: optimum 0 holds without a solve.
    # Any error but Infeasible from the re-solve fails the line.
    Path(inputs["coloring"]["path"]).write_text("BBBBBBB\n")
    out = tmp_path / "report.json"
    argv = ["solve", "--method", "exact", "--graph", inputs["graph"]["path"],
            "--coloring", inputs["coloring"]["path"], "--out", str(out)]
    assert main(argv) == 0

    def unfinished(*args, **kwargs):
        raise SearchTooDeep(0, 1)

    monkeypatch.setattr("rbsep.reports.sep_rb_exact", unfinished)
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 0
    assert "recheck optimum:exact ok\n" in capsys.readouterr().out
    Path(inputs["coloring"]["path"]).write_text(COLORING)
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    assert "recheck optimum:exact FAIL\n" in capsys.readouterr().out


def test_report_written_with_relative_paths_rechecks_from_elsewhere(tmp_path, monkeypatch, capsys):
    # Inputs are recorded by absolute path, so the recheck does not depend
    # on the directory it runs in.
    run = tmp_path / "run"
    run.mkdir()
    (run / "g.txt").write_text(GRAPH)
    (run / "c.txt").write_text(COLORING)
    monkeypatch.chdir(run)
    argv = ["solve", "--graph", "g.txt", "--coloring", "c.txt", "--method", "exact"]
    assert main([*argv, "--out", "report.json"]) == 0
    data = json.loads((run / "report.json").read_text())
    assert data["inputs"]["graph"]["path"] == str(run / "g.txt")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--report", "run/report.json"]) == 0
    assert "recheck witness:exact ok\n" in capsys.readouterr().out


def test_report_on_crlf_inputs_rechecks(tmp_path, capsys):
    # The recheck parses the bytes it hashed as the run read the files,
    # universal newlines included.
    gpath, cpath, out = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "report.json"
    gpath.write_bytes(GRAPH.replace("\n", "\r\n").encode())
    cpath.write_bytes(COLORING.replace("\n", "\r\n").encode())
    argv = ["solve", "--graph", str(gpath), "--coloring", str(cpath), "--method", "greedy"]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 0
    assert "recheck witness:greedy ok\n" in capsys.readouterr().out


def test_verify_report_with_a_missing_input_exits_input(tmp_path, inputs, capsys):
    # An input that cannot be read is not a false claim: exit 2, nothing
    # rechecked, no traceback.
    out = tmp_path / "report.json"
    argv = ["solve", "--graph", inputs["graph"]["path"],
            "--coloring", inputs["coloring"]["path"], "--method", "exact", "--out", str(out)]
    assert main(argv) == 0
    Path(inputs["graph"]["path"]).unlink()
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, key, edit",
    [
        (["solve", "--method", "greedy"], "greedy", lambda g: g * 2),
        (["maxsep", "--mode", "approx"], "maxsep-approx", lambda g: g / 2),
        (["solve", "--method", "triangle-free"], "triangle-free", lambda g: g + 1),
        (["solve", "--method", "bounded-degree"], "bounded-degree", lambda g: g + 1),
        # A method that records no guarantee: the field is unknown (exit 2).
        (["solve", "--method", "exact"], "exact", lambda g: 1.0),
    ],
    ids=["greedy", "maxsep-approx", "triangle-free", "bounded-degree", "exact"],
)
def test_verify_report_rechecks_the_guarantee(tmp_path, inputs, capsys, argv, key, edit):
    # The guarantee is a function of the method and its inputs alone.
    out = tmp_path / "report.json"
    paths = ["--graph", inputs["graph"]["path"]]
    if argv[0] == "solve":
        paths += ["--coloring", inputs["coloring"]["path"]]
    assert main([*argv, *paths, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" not in printed
    assert (f"recheck guarantee:{key} ok\n" in printed) == (key != "exact")
    data = json.loads(out.read_text())
    record = data["results"][key]
    record["guarantee"] = edit(record.get("guarantee"))
    out.write_text(json.dumps(data))
    if key == "exact":
        assert main(["verify", "--report", str(out)]) == 2
        assert "report result 'exact' has unknown field 'guarantee'" in capsys.readouterr().err
        return
    assert main(["verify", "--report", str(out)]) == 1
    assert f"recheck guarantee:{key} FAIL\n" in capsys.readouterr().out


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize(
    "argv, key",
    [
        (["solve", "--method", "greedy"], "greedy"),
        (["maxsep", "--mode", "approx"], "maxsep-approx"),
        (["solve", "--method", "triangle-free"], "triangle-free"),
        (["solve", "--method", "bounded-degree"], "bounded-degree"),
    ],
    ids=["greedy", "maxsep-approx", "triangle-free", "bounded-degree"],
)
def test_verify_report_rechecks_the_optimum_lower_bound(tmp_path, inputs, capsys, argv, key, delta):
    # The bound is a function of the method, its inputs and the solution's
    # size; moved by one either way it is still at most that size.
    out = tmp_path / "report.json"
    paths = ["--graph", inputs["graph"]["path"]]
    if argv[0] == "solve":
        paths += ["--coloring", inputs["coloring"]["path"]]
    assert main([*argv, *paths, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" not in printed and f"recheck lower:{key} ok\n" in printed
    data = json.loads(out.read_text())
    data["results"][key]["optimum_lower_bound"] += delta
    out.write_text(json.dumps(data))
    assert main(["verify", "--report", str(out)]) == 1
    printed = capsys.readouterr().out
    assert f"recheck lower:{key} FAIL\n" in printed and f"recheck witness:{key} ok\n" in printed


def test_record_writes_nested_results_as_json_values():
    from rbsep.bounds import BoundCheck, BoundsReport
    from rbsep.exact import MaxSepReport
    from rbsep.graphs import Coloring
    from rbsep.reports import record

    assert record(MaxSepReport(2, Coloring.from_string("RBB"), 4)) == {
        "value": 2, "worst_coloring": "RBB", "per_coloring_count": 4,
    }
    check = BoundCheck("maxsep_le_sep", 1, 2, True)
    assert record(BoundsReport(3, 2, 1, 1, 2, None, (check,))) == {
        "n": 3, "sep": 2, "maxsep": 1, "gamma": 1, "max_degree": 2, "support_count": None,
        "checks": [{"name": "maxsep_le_sep", "lhs": 1, "rhs": 2, "holds": True, "note": ""}],
    }


def _fresh_import(code: str) -> str:
    # ``code`` run in a new interpreter with the package's source on the path.
    src = str(Path(rbsep.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        timeout=60,
    )
    return out.stdout


def test_hashlib_loads_only_when_a_report_is_hashed():
    # hashlib loads OpenSSL, several MB resident; only file_digest needs it.
    code = "import sys, rbsep, rbsep.cli, rbsep.io; print('hashlib' in sys.modules)"
    assert _fresh_import(code) == "False\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    # Records are NamedTuples: building a dataclass compiles its methods
    # through exec, and dataclasses loads inspect, ast and tokenize.
    code = (
        "import sys; before = set(sys.modules); import rbsep, rbsep.cli, rbsep.io; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    assert _fresh_import(code) == "[]\n"
