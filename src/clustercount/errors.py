"""Exception hierarchy shared across the package."""


class ClusterCountError(Exception):
    """Base class for all package-specific errors."""


class NonPrime(ClusterCountError):
    """The requested field characteristic is not prime."""


class UnsupportedSize(ClusterCountError):
    """Field parameters outside the supported range."""


class DivisionByZero(ClusterCountError):
    """Inversion or division of the zero element."""


class BadRank(ClusterCountError):
    """Invalid rank for a Dynkin diagram constructor."""


class NotAdjacent(ClusterCountError):
    """The two vertices of a coefficient flip are not an edge."""


class ZeroCoefficient(ClusterCountError):
    """A coefficient that must be invertible is zero."""


class NotALeaf(ClusterCountError):
    """Leaf removal requested at a vertex of degree != 1."""


class BadBudget(ClusterCountError):
    """A budget below 1, or a CLUSTERCOUNT_BUDGET that is not an integer."""


class BudgetExceeded(ClusterCountError):
    """Estimated enumeration cost exceeds the configured budget."""

    def __init__(self, estimate, budget):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"estimated cost {estimate} exceeds budget {budget}; "
            "raise the budget to force the run"
        )


class PointNotOnVariety(ClusterCountError):
    """A point does not satisfy the defining equations."""


class NotNormalized(ClusterCountError):
    """Closed-form dispatch requires coefficients in normal form."""


class UnsupportedType(ClusterCountError):
    """No closed-form count for the requested diagram type."""


class BadParity(ClusterCountError):
    """Cohomology table requested for a parity it is not defined for."""


class DuplicateAbscissa(ClusterCountError):
    """Interpolation samples contain a repeated q value."""

