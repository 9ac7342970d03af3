"""Exception types shared across the package.

Every error class carries the exit code used by the command line front
end: 1 for malformed input, 2 for a violated semantic precondition (or a
failed exact-arithmetic self check), 3 for a blown resource budget.
The budget itself, `_Budget`, lives here too, next to the only error it
raises, so that a module that charges work to a budget need not import
the enumeration.
"""


class BorelboxError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class InputError(BorelboxError):
    """Structurally malformed input: bad JSON shape, bad coordinates."""

    exit_code = 1


class DimensionMismatch(InputError):
    pass


class InvalidCell(InputError):
    pass


class ClosureViolation(InputError):
    """A cell whose predecessor along some axis is missing."""

    def __init__(self, cell, axis):
        self.cell = tuple(cell)
        self.axis = axis  # 1-based
        super().__init__(
            f"cell {self.cell} has no predecessor along axis {axis}"
        )


class PreconditionError(BorelboxError):
    """An operation was applied outside its stated domain."""

    exit_code = 2


class CellNotInPartition(PreconditionError):
    pass


class InvalidMove(PreconditionError):
    def __init__(self, step, message):
        self.step = step  # 1-based position in the move list
        super().__init__(f"move {step}: {message}")


class EmptyInput(PreconditionError):
    pass


class NotStronglyStable(PreconditionError):
    pass


class NotTotallySymmetric(PreconditionError):
    pass


class NotArtinian(PreconditionError):
    pass


class NotSymmetric(PreconditionError):
    pass


class NotWeaklyIncreasing(PreconditionError):
    pass


class MissingPurePower(PreconditionError):
    pass


class InvalidFSet(PreconditionError):
    pass


class UnsupportedDimension(PreconditionError):
    pass


class ArithmeticSelfCheck(BorelboxError):
    """Exact arithmetic or enumeration produced a result the theory
    forbids; a bug, not a property of the input."""

    exit_code = 2


class NonIntegerProduct(ArithmeticSelfCheck):
    pass


class InexactDivision(ArithmeticSelfCheck):
    pass


class ResourceLimit(BorelboxError):
    """Enumeration exceeded its configured node budget."""

    exit_code = 3

    def __init__(self, budget, message=None):
        self.budget = budget
        super().__init__(message or f"enumeration exceeded the node budget of {budget}")


class _Budget:
    """Node budget shared by every phase of one enumeration, transfer,
    complement, closure or bijection map; `phase` names the one running,
    for the error message.  Work whose size is known before it starts, a
    requirement table by its coordinates or a triple product, is refused
    whole; a symmetric listing is charged its orbits' cells as it expands
    them."""

    __slots__ = ("limit", "used", "phase")

    def __init__(self, limit: int | None, phase: str = "walk"):
        if limit is not None and (type(limit) is not int or limit < 1):
            raise ValueError(f"budget must be a positive integer, got {limit!r}")
        self.limit = limit
        self.used = 0
        self.phase = phase

    def charge(self, steps: int) -> None:
        if self.limit is not None:
            self.used += steps
            if self.used > self.limit:
                raise ResourceLimit(self.limit, f"the {self.phase} exceeded "
                                                f"the node budget of {self.limit}")

    def tick(self) -> None:
        """Charge one walk node.  Other steps go through `charge`, so the
        nodes can be counted apart."""
        if self.limit is not None:
            self.charge(1)

    def refuse(self, size: int, what: str) -> None:
        """Raise when work of `size` steps, not yet begun, would exceed
        the budget; `what` names it, with {} for the size."""
        if self.limit is not None and size > self.limit:
            raise ResourceLimit(self.limit, f"{what.format(size)} of {self.limit}")
