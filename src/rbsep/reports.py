"""Report records and their on-disk JSON form.

A run report (``rbsep-report/2``) carries the command echo, the absolute path
and sha256 digest of each input, and one record per result key: the result's
``NamedTuple`` fields by name (``record``), with ``lower_bound`` added under
maxsep-approx and ``checks`` nested under ``bounds``. The key alone decides the
claim, and its one entry in ``approx.CLAIMS`` the record's fields (any other
is rejected on load). ``reverify_run_report`` reads each input once and checks
every key's claim again, failing it when its evidence is missing: each set
through the solvers' own exit, ``graphs.certified``, and its record's sizes,
``guarantee`` and ``optimum_lower_bound`` against its size, ``approx`` and
``bounds.maxsep_lower_bound``; that the kernel finds no set within an exact
``optimum`` - 1; that a worst coloring is an R/B string of the graph's order
whose exact optimum is the claimed ``value``, and that
``per_coloring_count`` is 2^(n-1); that a ``bounds`` record's n, max_degree and
support_count are the graph's, and its checks what the ``bounds`` inequalities
give on them and its sep, maxsep and gamma.
"""

from __future__ import annotations

import json
import time
from itertools import zip_longest
from pathlib import Path
from typing import Any

from .approx import CLAIMS, guarantee, optimum_lower_bound
from .bounds import BoundsReport, bound_checks, maxsep_lower_bound, tree_support_count
from .errors import CertificationError, Infeasible, RBSepError
from .exact import sep_rb_exact
from .graphs import BLUE, RED, Coloring, certified, mask_of
from .io import coloring_from_text, graph_from_text

__all__ = [
    "FORMAT",
    "record",
    "write_run_report",
    "load_run_report",
    "reverify_run_report",
    "file_digest",
]

FORMAT = "rbsep-report/2"


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
                     results: dict[str, Any], start: float) -> None:
    """Write a ``FORMAT`` file timed from ``start`` to after hashing the inputs."""
    hashed = {name: {"path": str(Path(p).absolute()), "sha256": file_digest(p)} for name, p in inputs.items()}
    data = {"format": FORMAT, "command": command, "inputs": hashed, "results": results,
            "elapsed_ms": (time.perf_counter() - start) * 1000.0}
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_run_report(path: str | Path) -> dict[str, Any]:
    """Read a report and check the structure ``reverify_run_report`` reads.

    Raises ValueError naming the first missing, mistyped or unknown field or key.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("report must be a JSON object with field 'format'")
    if data.get("format") != FORMAT:
        raise ValueError(f"unsupported report format {data.get('format')!r}")
    for key in ("inputs", "results"):
        if not isinstance(data.get(key, {}), dict):
            raise ValueError(f"report field {key!r} must be an object")
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
        checks = record.get("checks", [])
        if not isinstance(checks, list) or any(not isinstance(c, dict) for c in checks):
            raise ValueError(f"report result {name!r} field 'checks' must be a list of objects")
        for key in ("optimum", "optimum_lower_bound", "lower_bound", "value",
                    "per_coloring_count", "n", "gamma", "max_degree"):
            if type(record.get(key, 0)) is not int:
                raise ValueError(f"report result {name!r} field {key!r} must be an integer")
        for key in ("sep", "maxsep", "support_count"):
            if record.get(key) is not None and type(record[key]) is not int:
                raise ValueError(f"report result {name!r} field {key!r} must be an integer or null")
        if type(record.get("guarantee", 0)) not in (int, float):
            raise ValueError(f"report result {name!r} field 'guarantee' must be a number")
        if name not in CLAIMS:
            raise ValueError(f"unknown report result {name!r}")
        if unknown := sorted(set(record) - set(CLAIMS[name][0])):
            raise ValueError(f"report result {name!r} has unknown field {unknown[0]!r}")
    return data


def reverify_run_report(data: dict[str, Any]) -> list[tuple[str, bool]]:
    """Re-check every claim in a loaded report against its input files.

    Returns (claim, ok) pairs; digest mismatches fail the corresponding
    claim rather than raising, and so does every claim that cannot be
    checked (its evidence missing, a set without a graph input or with a
    vertex outside it, an rb set without a coloring input). An unreadable input raises OSError.
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

    for key, record in data.get("results", {}).items():
        if key == "bounds":
            outcomes += _recheck_bounds(graph, record)
        if key == "maxsep-exact":
            worst = record.get("worst_coloring", "")
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
        if "optimum_lower_bound" in record:  # so is this, given the solution's size
            size = len(record.get("solution", []))
            want = optimum_lower_bound(key, graph, coloring, size) if graph is not None else None
            outcomes.append((f"lower:{key}", want is not None and record["optimum_lower_bound"] == want))
        fields, field, kind, bounded = CLAIMS[key]
        if field is None:
            continue
        witness = record.get(field)
        # The set passes the solvers' exit; an optimum is its size, a lower
        # bound is at most it, and a maxsep lower bound at most the proven one.
        try:
            ok = (
                graph is not None and witness is not None
                and all(0 <= v < graph.n for v in witness)
                and certified(graph, kind, mask_of(witness), coloring,
                              guarantee(key, graph, coloring) if bounded else None) is not None
                and record.get("optimum", len(witness)) == len(witness)
                and max(record.get("optimum_lower_bound", 0), record.get("lower_bound", 0)) <= len(witness)
                and record.get("lower_bound", 0) <= maxsep_lower_bound(graph.n)
            )
        except CertificationError:
            ok = False
        outcomes.append((f"witness:{key}", ok))
        if "optimum" in fields:
            outcomes.append((f"optimum:{key}", _none_smaller(graph, coloring, record.get("optimum"))))
    return outcomes


def _none_smaller(graph, coloring, optimum) -> bool:
    # An optimum's lower side: the kernel finds no set within optimum - 1.
    if None in (graph, coloring, optimum) or optimum <= 0:
        return optimum == 0
    try:
        sep_rb_exact(graph, coloring, budget=optimum - 1)
    except Infeasible:
        return True
    except RBSepError:  # Unseparable, or a search too deep to finish
        pass
    return False


def _recheck_bounds(graph, claimed: dict) -> list[tuple[str, bool]]:
    # The graph's own n, max_degree and support_count with the claimed sep,
    # maxsep and gamma must give the claimed record, every check included.
    if graph is None:
        return [("parameters", False)]
    params = (graph.n, claimed.get("sep"), claimed.get("maxsep"), claimed.get("gamma", 0),
              graph.max_degree, tree_support_count(graph))
    want = record(BoundsReport(*params, bound_checks(*params)))
    checks = zip_longest(want["checks"], claimed.get("checks", []))
    return [("parameters", want == {**claimed, "checks": want["checks"]})] + [
        (f"bound:{(check or claim).get('name')}", check == claim) for check, claim in checks
    ]
