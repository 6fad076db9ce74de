"""Independent answer checker for the benchmark.

Takes the instances as edge lists and colour strings and checks answers
with plain Python sets; nothing here imports rbsep. For every call it
checks the witness, and the optimum or value against a bound:

* exact optima: the witness is valid and as large as the optimum, and the
  optimum is at most the size of this module's own greedy answer;
* ``maxsep`` values: at most the size of this module's own all-pairs
  separating set, and at most 2n/3 on trees;
* the ``experiment --suite families`` rows: equal to the closed forms;
* greedy and construction answers: valid, with the trees' size bounds
  (n + s)/2 and n - s, where s counts support vertices;
* the CLI: exit code 0, and each report's solution valid for the graph the
  benchmark generated (so a fault in writing or reading the input shows).

With the default seed, optima and ``maxsep`` values must also equal the
values pinned in ``reference.json``.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0


def rb_violation(closed, red, s) -> tuple[int, int] | None:
    """A red and a blue vertex with the same code under ``s``, if any."""
    s = set(s)
    seen: tuple[dict, dict] = ({}, {})
    for v, nbhd in enumerate(closed):
        code = frozenset(nbhd & s)
        other = seen[not red[v]].get(code)
        if other is not None:
            return (other, v)
        seen[red[v]].setdefault(code, v)
    return None


def all_pairs_violation(closed, s) -> tuple[int, int] | None:
    """Two vertices with the same code under ``s``, if any."""
    s = set(s)
    owner: dict[frozenset, int] = {}
    for v, nbhd in enumerate(closed):
        u = owner.setdefault(frozenset(nbhd & s), v)
        if u != v:
            return (u, v)
    return None


def dominating_violation(closed, s) -> int | None:
    s = set(s)
    return next((v for v, nbhd in enumerate(closed) if not nbhd & s), None)


def greedy_hitting(sets: list[set[int]]) -> int:
    """Size of a max-coverage greedy hitting set of nonempty ``sets``."""
    remaining = [x for x in sets if x]
    size = 0
    while remaining:
        freq: dict[int, int] = {}
        for x in remaining:
            for v in x:
                freq[v] = freq.get(v, 0) + 1
        best = max(freq, key=lambda v: (freq[v], -v))
        remaining = [x for x in remaining if best not in x]
        size += 1
    return size


def rb_difference_sets(closed, red) -> list[set[int]]:
    n = len(closed)
    return [closed[u] ^ closed[v] for u in range(n) for v in range(u + 1, n) if red[u] != red[v]]


def all_pairs_difference_sets(closed) -> list[set[int]]:
    n = len(closed)
    return [closed[u] ^ closed[v] for u in range(n) for v in range(u + 1, n)]


def support_count(closed) -> int:
    """Vertices adjacent to a leaf, for a tree on at least 3 vertices."""
    supports = set()
    for v, nbhd in enumerate(closed):
        if len(nbhd) == 2:
            supports |= nbhd - {v}
    return len(supports)


def is_tree(closed) -> bool:
    n = len(closed)
    edges = sum(len(x) - 1 for x in closed) // 2
    seen, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for u in closed[v] - seen:
            seen.add(u)
            frontier.append(u)
    return edges == n - 1 and len(seen) == n


def families_expected(spec: str, quantity: str) -> int:
    """Closed forms of the paper's extremal families."""
    family, _, params = spec.partition(":")
    _key, _, value = params.partition("=")
    if family == "half-complement":
        return 2 * int(value) - 1
    if family == "power-set":
        return int(value)
    if family == "spider":
        return 3 * int(value)
    if family == "multipartite":
        parts = [int(x) for x in value.split("+")]
        # sep = n - t; maxsep and the adversarial coloring's cost are half that.
        sep = sum(parts) - len(parts)
        return sep if quantity == "sep" else sep // 2
    raise ValueError(f"no closed form for {spec}")


class Checker:
    """Checks the outputs of one run against its instances."""

    def __init__(self, workload: str, seed: int, instances: dict) -> None:
        self.instances = instances
        self._closed: dict[str, list[set[int]]] = {}
        self._bounds: dict[tuple[str, str], int] = {}
        self.pinned = None
        if seed == DEFAULT_SEED and workload in ("exact_kernel", "maxsep_sweep"):
            self.pinned = json.loads(REFERENCE.read_text())[workload]

    def closed(self, name: str) -> list[set[int]]:
        """Closed neighbourhoods of instance ``name``."""
        if name not in self._closed:
            inst = self.instances[name]
            closed = [{v} for v in range(inst["n"])]
            for u, v in inst["edges"]:
                closed[u].add(v)
                closed[v].add(u)
            self._closed[name] = closed
        return self._closed[name]

    def red(self, name: str) -> list[bool]:
        return [ch == "R" for ch in self.instances[name]["red"]]

    def _greedy_bound(self, name: str, kind: str) -> int:
        if (name, kind) not in self._bounds:
            closed = self.closed(name)
            if kind == "rb":
                sets = rb_difference_sets(closed, self.red(name))
            elif kind == "sep":
                sets = all_pairs_difference_sets(closed)
            else:
                sets = [set(x) for x in closed]
            self._bounds[name, kind] = greedy_hitting(sets)
        return self._bounds[name, kind]

    def check(self, call_id: str, kind: str, out: dict) -> str | None:
        """None when the output of the call is right, else the reason."""
        if "error" in out:
            return out["error"]
        try:
            problem = getattr(self, "_" + kind.replace("-", "_"))(call_id.split("/")[0], out)
        except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
            return f"unreadable output: {exc!r}"
        if problem is None and self.pinned is not None and kind in ("rb", "sep", "gamma", "maxsep"):
            got = out["value"] if kind == "maxsep" else out["optimum"]
            if got != self.pinned.get(call_id):
                return f"{got} differs from pinned {self.pinned.get(call_id)}"
        return problem

    def _exact(self, name, out, kind, violation):
        if violation is not None:
            return f"invalid witness, violation {violation}"
        if len(set(out["witness"])) != out["optimum"]:
            return f"witness size {len(set(out['witness']))} != optimum {out['optimum']}"
        bound = self._greedy_bound(name, kind)
        if out["optimum"] > bound:
            return f"optimum {out['optimum']} above greedy size {bound}"
        return None

    def _rb(self, name, out):
        violation = rb_violation(self.closed(name), self.red(name), out["witness"])
        return self._exact(name, out, "rb", violation)

    def _sep(self, name, out):
        return self._exact(name, out, "sep", all_pairs_violation(self.closed(name), out["witness"]))

    def _gamma(self, name, out):
        return self._exact(name, out, "gamma", dominating_violation(self.closed(name), out["witness"]))

    def _maxsep(self, name, out):
        closed = self.closed(name)
        n, value = len(closed), out["value"]
        if len(out["coloring"]) != n or set(out["coloring"]) - {"R", "B"}:
            return f"bad worst coloring {out['coloring']!r}"
        if not 1 <= value <= self._greedy_bound(name, "sep"):
            return f"value {value} outside [1, all-pairs greedy size]"
        if is_tree(closed) and 3 * value > 2 * n:
            return f"value {value} above 2n/3 on a tree of order {n}"
        return None

    def _families(self, name, out):
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        rows = list(csv.DictReader(io.StringIO(out["csv"])))
        if len(rows) != 21:
            return f"{len(rows)} family rows, expected 21"
        for row in rows:
            want = families_expected(row["spec"], row["quantity"])
            if int(row["computed"]) != want:
                return f"{row['spec']} {row['quantity']} = {row['computed']}, closed form {want}"
        return None

    def _cli_solve(self, name, out):
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        solution = report_solution(out["report"])
        violation = rb_violation(self.closed(name), self.red(name), solution)
        return None if violation is None else f"invalid greedy set, violation {violation}"

    def _cli_maxsep(self, name, out):
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        violation = all_pairs_violation(self.closed(name), report_solution(out["report"]))
        return None if violation is None else f"invalid all-pairs set, violation {violation}"

    def _cli_verify(self, name, out):
        return None if out["exit"] == 0 else f"exit code {out['exit']}"

    _cli_verify_set = _cli_verify

    def _trees(self, name, out):
        closed = self.closed(name)
        n, s = len(closed), support_count(closed)
        violation = rb_violation(closed, self.red(name), out["rb"])
        if violation is not None:
            return f"invalid red-blue set, violation {violation}"
        if 2 * len(set(out["rb"])) > n + s:
            return "red-blue set larger than (n + s)/2"
        violation = all_pairs_violation(closed, out["all_pairs"])
        if violation is not None:
            return f"invalid all-pairs set, violation {violation}"
        if len(set(out["all_pairs"])) != n - s:
            return "all-pairs set size differs from n - s"
        return None


def report_solution(path: str) -> list[int]:
    """The one solution in an rbsep JSON run report."""
    (record,) = json.loads(Path(path).read_text())["results"].values()
    return record["solution"]
