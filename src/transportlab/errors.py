"""Exception types shared across the package."""


class SchemaError(ValueError):
    """A problem file or config dict violates the expected schema."""


class InfeasibleError(ValueError):
    """A problem instance is infeasible (e.g. unbalanced boundary data)."""


class SolverError(RuntimeError):
    """The transport solver failed to terminate cleanly."""


class NonFiniteCostError(SolverError):
    """Finite data whose costs leave the float range."""
