"""Exception types shared across the package, and the unknown-key check of
its JSON readers."""


class NotAdmissible(ValueError):
    """The polynomial has no representation of the requested kind."""


class NotAchievable(ValueError):
    """The Hilbert function is not realizable inside the given free module."""


class PreconditionViolated(ValueError):
    """An operation was invoked outside its stated hypotheses."""


class InvariantViolated(RuntimeError):
    """A cross-check that must hold for valid inputs failed; indicates a bug."""


class ZeroModule(ValueError):
    """The operation is undefined for the zero module."""


class RankMismatch(ValueError):
    """The polynomial's leading term is inconsistent with the claimed rank."""


class NonIntegralChern(ValueError):
    """Extracted Chern classes are not integers."""


class BudgetExceeded(RuntimeError):
    """A fixed work limit was hit before the computation finished."""


def refuse_unknown_keys(data: dict, what: str, known: tuple[str, ...]) -> None:
    """Raise ValueError naming the keys of a JSON object outside ``known``,
    which a reader would otherwise skip as if they were absent."""
    unknown = [key for key in data if key not in known]
    if unknown:
        *head, last = map(repr, known)
        names = f"{', '.join(head)} and {last}" if head else last
        raise ValueError(f"{what} takes only {names}, got {unknown}")
