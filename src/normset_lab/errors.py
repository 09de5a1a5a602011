"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
anything else is a plain ValueError at the point of offense.
"""


class NormsetLabError(Exception):
    """Base class for package-specific failures."""


class BadDiscriminant(NormsetLabError):
    """d is not squarefree, or a discriminant is 0/1/a perfect square where forbidden."""


class NeedsBound(NormsetLabError):
    """An exact answer requires a search bound the caller did not supply, or
    one past what the search will run; `bound` is the bound the refused
    search was given, None when there was none.
    """

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class NotMember(NormsetLabError):
    """Asked to factor a value that is not in the monoid at hand."""


class CapExceeded(NormsetLabError):
    """A combinatorial search hit its hard cap without resolving."""

    def __init__(self, message, cap=None):
        super().__init__(message)
        self.cap = cap


class SearchBudgetExceeded(NormsetLabError):
    """A bounded enumeration ran out of budget."""


class WitnessSearchExhausted(NormsetLabError):
    """A witness was required but not found within the allotted window."""


class IndexMismatch(NormsetLabError):
    """Two valuation nets over different index sets were combined."""


class UsageError(NormsetLabError):
    """Command line was malformed (maps to exit status 1)."""
