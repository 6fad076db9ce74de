"""Whole run-report records, pinned field by field.

Each case runs ``rbsep.cli.main`` with ``--out`` on one fixed 7-vertex tree
and compares the JSON it writes, with the timings and the command echo
removed, against the record the CLI has always written for it. Two more
check what importing the package loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbsep
from rbsep.cli import main

GRAPH = "7 6\n0 1\n1 2\n2 3\n1 4\n4 5\n5 6\n"
COLORING = "RBBRBRB\n"
GRAPH_SHA = "b8cf9af94c47f1ee3d3b74903667d8005b462b7761ed87db4cbc1e5e1b571ba8"
COLORING_SHA = "11675ca66d2e9c4f243a81bf47c5e3b14702800fb4330ad6f8410b1e50b003e9"

# 2 nodes: the greedy's set {1, 2, 4} is the incumbent, and the one search
# below it, at limit 2, refutes size 2 in one node and one child tried. The
# deepening searches at sizes 0, 1 and 2 and then 3 read 7.
EXACT = {
    "method": "branch-and-bound", "nodes_explored": 2, "optimum": 3,
    "verifies": "rb", "witness": [1, 2, 4],
}


def _approx(solution, guarantee, lower):
    return {
        "guarantee": guarantee, "optimum_lower_bound": lower,
        "solution": solution, "verifies": "rb",
    }


SOLVE = {
    "exact": EXACT,
    "xp": EXACT,
    "greedy": _approx([1, 2, 4], 3.8918202981106265, 2),
    "triangle-free": _approx([0, 1, 2, 3, 4, 5, 6], 9.0, 1),
    "bounded-degree": _approx([0, 1, 2, 3, 4, 6], 9.0, 1),
}

MAXSEP = {
    "exact": {
        "maxsep-exact": {
            "per_coloring_count": 64, "value": 3, "verifies": "none",
            "worst_coloring": "BRBRBRB",
        }
    },
    "approx": {
        "maxsep-approx": {
            "guarantee": 14.67546089433188, "lower_bound": 2, "optimum_lower_bound": 2,
            "solution": [1, 2, 4], "upper_bound": 3, "verifies": "all-pairs",
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
        "format": "rbsep-report/1",
        "inputs": inputs,
        "results": {method: SOLVE[method]},
        "bound_checks": [],
    })


@pytest.mark.parametrize("mode", list(MAXSEP))
def test_maxsep_report_record(tmp_path, inputs, mode):
    argv = ["maxsep", "--graph", inputs["graph"]["path"], "--mode", mode]
    _same(_run(tmp_path, argv), {
        "format": "rbsep-report/1",
        "inputs": {"graph": inputs["graph"]},
        "results": MAXSEP[mode],
        "bound_checks": [],
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
        "format": "rbsep-report/1",
        "inputs": {"graph": inputs["graph"]},
        "results": {"parameters": parameters},
        "bound_checks": checks,
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
    checks, parameters = data["bound_checks"], data["results"]["parameters"]
    edits = [(c, key, c[key] + d) for c in checks for key in ("lhs", "rhs") for d in (1, -1)]
    edits += [(c, "holds", not c["holds"]) for c in checks]
    edits += [(parameters, key, v + d) for key, v in parameters.items() for d in (1, -1)]
    assert len(edits) == 52
    for where, key, value in edits:
        kept, where[key] = where[key], value
        out.write_text(json.dumps(data))
        assert main(["verify", "--report", str(out)]) == 1, (where, key, value)
        where[key] = kept
    for edited in (checks[:-1], checks + checks[-1:]):
        out.write_text(json.dumps({**data, "bound_checks": edited}))
        assert main(["verify", "--report", str(out)]) == 1
    assert "recheck bound:tree_maxsep_le_two_thirds_n FAIL\n" in capsys.readouterr().out


def test_verify_report_rechecks_bound_checks_without_parameters(tmp_path, inputs, capsys):
    # Claimed bound checks are rechecked even when the parameters they rest
    # on are missing: the missing parameters fail as an empty claim.
    out = tmp_path / "report.json"
    assert main(["bounds", "--graph", inputs["graph"]["path"], "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    del data["results"]["parameters"]
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["recheck digest:graph ok", "recheck parameters FAIL"]
    assert len(lines) == 2 + len(CHECK_NAMES)


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
        # A method that records no guarantee.
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
