"""Exception types shared across the package.

The CLI maps these onto exit codes: validation-type errors (ModelError,
DomainError, CapacityError, ScenarioError) exit with 2, ReliabilityError
with 3.
"""


class TailnetError(Exception):
    """Base class for all package errors."""


class ModelError(TailnetError, ValueError):
    """A model object violates its invariants (bad Σ, bad rates, ...)."""


class DomainError(TailnetError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CapacityError(ModelError):
    """A documented size cap was exceeded (e.g. shock enumeration dimension)."""

    def __init__(self, message: str, limit: int):
        super().__init__(message)
        self.limit = limit


class DegenerateQpError(TailnetError, RuntimeError):
    """The active-set search did not isolate a unique candidate.

    Carries the list of candidate index sets that passed (possibly empty).
    """

    def __init__(self, message: str, candidates):
        super().__init__(message)
        self.candidates = list(candidates)


class ReliabilityError(TailnetError, RuntimeError):
    """An empirical estimate rests on too few tail observations."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class DispatchError(DomainError):
    """The requested asymptotic case does not match the model/network."""


class ScenarioError(TailnetError, ValueError):
    """A scenario file failed validation; message carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
