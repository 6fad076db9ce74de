"""Exception types shared across the package.

Solvers and constructions raise these instead of returning sentinel values;
the CLI maps them onto exit codes (infeasible/unseparable answers are exit 1,
malformed inputs exit 2, exceeded caps and too-deep searches exit 3).
"""

from __future__ import annotations


class RBSepError(Exception):
    """Base class for all package-specific errors."""


class CertificationError(AssertionError):
    """An answer of the package failed its verifier: a defect, not an input error.

    Unlike the asserts it replaced, it is also raised under ``python -O``.
    """


class Unseparable(RBSepError):
    """A red and a blue vertex have identical closed neighborhoods.

    No vertex set can separate the pair, so the colored instance has no
    solution at all.
    """

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"vertices {pair[0]} and {pair[1]} are twins with opposite colors")


class Infeasible(RBSepError):
    """The optimum exceeds the caller-supplied budget."""


class NotTwinFree(RBSepError):
    """The graph contains twin vertices where a twin-free graph is required."""

    def __init__(self, twin_report):
        self.twin_report = twin_report
        cls = next(c for c in twin_report.classes if len(c) > 1)
        super().__init__(f"graph has twins, e.g. class {cls}")


class CapExceeded(RBSepError):
    """Instance size exceeds the configured cap for an exact sweep."""


class SearchTooDeep(RBSepError):
    """The exact search needs more nested calls than Python's recursion limit.

    The optimum is at least ``lower``, the root's packing of pairwise
    disjoint masks, and at most ``upper``, the size of the smallest set
    found; the search for a set below ``upper`` did not finish.
    """

    def __init__(self, lower: int, upper: int):
        self.lower = lower
        self.upper = upper
        super().__init__(
            f"the optimum is between {lower} and {upper}: a set of size {upper} was "
            "found, and the search for a smaller one exceeds Python's recursion limit"
        )


class NotTriangleFree(RBSepError):
    """A triangle-free graph was required."""


class NotATree(RBSepError):
    """A tree was required."""


class XIsLeaf(RBSepError):
    """The parity-set root must not be a leaf."""


class WrongClassSize(RBSepError):
    """The coloring does not have the required color-class sizes."""


class NoDistinctFamily(RBSepError):
    """The input set family is not pairwise distinct."""


class Uncoverable(RBSepError):
    """A set-cover element belongs to no set."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} is in no set")


class BadPivot(RBSepError):
    """The two-copies reduction pivot must have degree exactly 2."""


class InvalidParts(RBSepError):
    """Invalid part sizes for a complete multipartite graph."""


class LiteralCapExceeded(RBSepError):
    """A literal occurs more than twice in a 3-SAT-2l instance."""


class TwinFreeUnreachable(RBSepError):
    """Rejection sampling failed to produce a twin-free graph."""


class FormatError(RBSepError):
    """A text-format input failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
