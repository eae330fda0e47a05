"""Exception types shared across the package.

Every error carries a stable ``code`` string so the command line tool can
report machine-readable diagnostics. ``offenders`` optionally names the
vertices or points involved.
"""


class UltratreeError(Exception):
    code = "error"

    def __init__(self, message="", offenders=()):
        super().__init__(message)
        self.offenders = tuple(offenders)


class EmptyVertexSet(UltratreeError):
    code = "empty"


class BadEdge(UltratreeError):
    code = "bad-edge"


class HasCycle(UltratreeError):
    code = "has-cycle"


class NotConnected(UltratreeError):
    code = "not-connected"


class UnknownVertex(UltratreeError):
    code = "unknown-vertex"


class SamePoint(UltratreeError):
    code = "same-point"


class CapExceeded(UltratreeError):
    code = "cap-exceeded"


class DegenerateLabeling(UltratreeError):
    code = "degenerate-labeling"


class DegenerateResult(UltratreeError):
    code = "degenerate-result"


class NoLongPath(UltratreeError):
    code = "no-long-path"


class BudgetExceeded(UltratreeError):
    code = "budget-exceeded"


def _decimal(count: int) -> str:
    """A count for a message: in decimal up to 13,000 bits (3,913 digits;
    int-to-str conversion refuses 4,300 by default), else as the power of
    two it reaches."""
    bits = count.bit_length()
    return str(count) if bits <= 13_000 else f"at least 2**{bits - 1}"


class UnknownPoint(UltratreeError):
    code = "unknown-point"


class EmptySubset(UltratreeError):
    code = "empty-subset"


class NotUS(UltratreeError):
    code = "not-us"


class SymmetryViolation(UltratreeError):
    code = "symmetry-violation"


class PositivityViolation(UltratreeError):
    code = "positivity-violation"


class StrongTriangleViolation(UltratreeError):
    code = "strong-triangle-violation"


class ParseError(UltratreeError):
    code = "parse-error"
