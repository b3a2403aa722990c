"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad keys, incompatible domain/boundary, infeasible constraints."""


class DimensionError(ValueError):
    """A node-vector does not match the grid it is used with."""


class DegenerateGapError(ValueError):
    """A gap operation was invoked on two indices sharing one eigenvalue cluster."""


class IncompleteClusterError(RuntimeError):
    """An eigenvalue cluster is not proven complete by an eigenvalue count."""


class SolverError(RuntimeError):
    """Eigensolver failure or unacceptable residual."""
