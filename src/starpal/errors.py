"""Shared exception types."""


class FormatError(ValueError):
    """Malformed palette, digraph, or 3-graph text input."""


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of its node budget before reaching a verdict.

    Deliberately distinct from a good/bad verdict: callers must not treat
    budget exhaustion as evidence either way.
    """

    def __init__(self, spent: int, budget: int):
        super().__init__(f"node budget exhausted ({spent} checks, budget {budget})")
        self.spent = spent
        self.budget = budget


class _Budget:
    """Mutable counter of elementary constraint checks, shared across orderings."""

    __slots__ = ("spent", "limit")

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("node budget must be positive")
        self.spent = 0
        self.limit = limit

    def spend(self, amount: int) -> None:
        self.spent += amount
        if self.spent > self.limit:
            raise BudgetExceeded(self.spent, self.limit)


class EnumerationCapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed its configured size cap."""
