"""Report records and their on-disk JSON form.

A run report carries the command echo, the absolute path and sha256 digest
of each input, the per-operation results, and any bound checks. Each record
is its result record's ``NamedTuple`` fields by name (``record``); solver
records add ``verifies``, the claim kind a re-check tests, and maxsep-approx
records also carry ``upper_bound`` and ``lower_bound``.
``reverify_run_report`` reads each input once and checks every claimed
witness against the verifiers again, the sizes and ``guarantee`` its record
claims against the witness's size and ``approx.guarantee``, a maxsep lower
bound against ``bounds.maxsep_lower_bound``, that a worst coloring is an R/B
string of the graph's order, that the exact kernel's optimum on it is the
claimed ``value``, and that ``per_coloring_count`` is the sweep's 2^(n-1)
colorings. A ``bounds`` report's n, max_degree and support_count must be
the graph's, and its checks what ``bounds.bound_checks`` gives on them and
the claimed sep, maxsep and gamma.
"""

from __future__ import annotations

import json
import time
from itertools import zip_longest
from pathlib import Path
from typing import Any

from .approx import guarantee
from .bounds import BoundsReport, bound_checks, maxsep_lower_bound, tree_support_count
from .errors import RBSepError
from .exact import sep_rb_exact
from .graphs import BLUE, RED, Coloring, violation
from .io import coloring_from_text, graph_from_text

__all__ = [
    "FORMAT",
    "record",
    "write_run_report",
    "load_run_report",
    "reverify_run_report",
    "file_digest",
]

FORMAT = "rbsep-report/1"


def file_digest(path: str | Path) -> str:
    return _digest(Path(path).read_bytes())


def _digest(data: bytes) -> str:
    import hashlib  # here, not at the top: it loads OpenSSL, about 3.6 MB resident

    return hashlib.sha256(data).hexdigest()


def record(r) -> dict[str, Any]:
    """A ``NamedTuple`` record as a JSON object; a ``Coloring`` becomes its R/B string."""
    return {name: _json_value(v) for name, v in zip(r._fields, r)}


def _json_value(v):
    if isinstance(v, Coloring):
        return v.to_string()
    if hasattr(v, "_fields"):
        return record(v)
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v


def write_run_report(path: str | Path, command: list[str], inputs: dict[str, str | Path],
                     results: dict[str, Any], bound_checks: list | tuple, start: float) -> None:
    """Write an ``rbsep-report/1`` file timed from ``start`` to after hashing the inputs."""
    hashed = {name: {"path": str(Path(p).absolute()), "sha256": file_digest(p)} for name, p in inputs.items()}
    data = {"format": FORMAT, "command": command, "inputs": hashed, "results": results,
            "bound_checks": list(bound_checks), "elapsed_ms": (time.perf_counter() - start) * 1000.0}
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_run_report(path: str | Path) -> dict[str, Any]:
    """Read a report and check the structure ``reverify_run_report`` reads.

    Raises ValueError naming the first missing or mistyped field.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("report must be a JSON object with field 'format'")
    if data.get("format") != FORMAT:
        raise ValueError(f"unsupported report format {data.get('format')!r}")
    for key in ("inputs", "results"):
        if not isinstance(data.get(key, {}), dict):
            raise ValueError(f"report field {key!r} must be an object")
    checks = data.get("bound_checks", [])
    if not isinstance(checks, list) or any(not isinstance(c, dict) for c in checks):
        raise ValueError("report field 'bound_checks' must be a list of objects")
    for name, meta in data.get("inputs", {}).items():
        for key in ("path", "sha256"):
            if not isinstance(meta, dict) or not isinstance(meta.get(key), str):
                raise ValueError(f"report input {name!r} lacks string field {key!r}")
    for name, record in data.get("results", {}).items():
        if not isinstance(record, dict):
            raise ValueError(f"report result {name!r} must be an object")
        for key in ("witness", "solution"):
            value = record.get(key, [])
            if not isinstance(value, list) or any(type(v) is not int for v in value):
                raise ValueError(f"report result {name!r} field {key!r} must be a list of integers")
            if len(set(value)) < len(value):
                raise ValueError(f"report result {name!r} field {key!r} repeats a vertex")
        if not isinstance(record.get("worst_coloring", ""), str):
            raise ValueError(f"report result {name!r} field 'worst_coloring' must be a string")
        for key in ("optimum", "optimum_lower_bound", "upper_bound", "lower_bound", "value",
                    "per_coloring_count", "n", "gamma", "max_degree"):
            if type(record.get(key, 0)) is not int:
                raise ValueError(f"report result {name!r} field {key!r} must be an integer")
        for key in ("sep", "maxsep", "support_count"):
            if record.get(key) is not None and type(record[key]) is not int:
                raise ValueError(f"report result {name!r} field {key!r} must be an integer or null")
    return data


def reverify_run_report(data: dict[str, Any]) -> list[tuple[str, bool]]:
    """Re-check every witness in a loaded report against its input files.

    Returns (claim, ok) pairs; digest mismatches fail the corresponding
    claim rather than raising, and so does every claim that cannot be
    checked (a witness without a graph input or with a vertex outside it,
    an rb witness without a coloring input). An unreadable input raises OSError.
    """
    metas = data.get("inputs", {})
    raw = {name: Path(meta["path"]).read_bytes() for name, meta in metas.items()}
    outcomes = [(f"digest:{name}", _digest(raw[name]) == meta["sha256"]) for name, meta in metas.items()]
    if any(not ok for _, ok in outcomes):
        return outcomes
    # Decoded as ``Path.read_text`` decodes, universal newlines included.
    inputs = {name: b.decode().replace("\r\n", "\n").replace("\r", "\n") for name, b in raw.items()}
    graph = graph_from_text(inputs["graph"]) if "graph" in inputs else None
    n = graph.n if graph else None
    coloring = coloring_from_text(inputs["coloring"], n) if "coloring" in inputs else None
    results = data.get("results", {})

    for key, record in results.items():
        if "worst_coloring" in record:
            worst = record["worst_coloring"]
            ok = graph is not None and len(worst) == graph.n and set(worst) <= {RED, BLUE}
            outcomes.append((f"coloring-length:{key}", ok))
            # The value's lower side: the worst coloring costs exactly the value.
            try:
                cost = sep_rb_exact(graph, Coloring.from_string(worst)).optimum if ok else None
            except RBSepError:  # Unseparable, or a search too deep to finish
                cost = None
            outcomes.append((f"value:{key}", cost is not None and cost == record.get("value")))
            count = record.get("per_coloring_count")
            outcomes.append((f"count:{key}", graph is not None and count == 1 << max(graph.n - 1, 0)))
        if "guarantee" in record:  # a function of the inputs alone, under the key's method
            want = guarantee(key, graph, coloring) if graph is not None else None
            outcomes.append((f"guarantee:{key}", want is not None and record["guarantee"] == want))
        witness = record.get("witness", record.get("solution"))
        if witness is None:
            continue
        kind = record.get("verifies", "rb" if coloring is not None else "all-pairs")
        size = len(witness)
        # An optimum and an approx upper bound are the witness's size; a lower
        # bound is at most it, and a maxsep lower bound at most the proven one.
        ok = (
            graph is not None
            and all(0 <= v < graph.n for v in witness)
            and violation(graph, kind, witness, coloring) is None
            and record.get("optimum", size) == size == record.get("upper_bound", size)
            and max(record.get("optimum_lower_bound", 0), record.get("lower_bound", 0)) <= size
            and record.get("lower_bound", 0) <= maxsep_lower_bound(graph.n)
        )
        outcomes.append((f"witness:{key}", ok))
    if "parameters" in results or data.get("bound_checks"):
        outcomes += _recheck_bounds(graph, results.get("parameters", {}), data.get("bound_checks", []))
    return outcomes


def _recheck_bounds(graph, parameters: dict, claimed: list) -> list[tuple[str, bool]]:
    # The graph's own n, max_degree and support_count with the claimed sep,
    # maxsep and gamma must give the claimed parameters and every check.
    if graph is None:
        return [("parameters", False)]
    params = (graph.n, parameters.get("sep"), parameters.get("maxsep"), parameters.get("gamma", 0),
              graph.max_degree, tree_support_count(graph))
    want = record(BoundsReport(*params, bound_checks(*params)))
    checks = zip_longest(want.pop("checks"), claimed)
    return [("parameters", want == parameters)] + [
        (f"bound:{(check or claim).get('name')}", check == claim) for check, claim in checks
    ]
