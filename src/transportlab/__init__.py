"""Boundary-to-boundary optimal transport on convex planar domains.

Measures live on the boundary of a uniformly convex domain, transport
cost is a strictly convex norm of the displacement, and rays never
cross.  On top of the exact simplex solver the package computes
transport densities on grids, their L^p norms, reconstructs functions
of least anisotropic gradient from boundary data, and builds a family
of alternating boundary measures whose densities leave L^p.
"""

from .errors import InfeasibleError, SchemaError, SolverError
from .geom import (
    ChordCost,
    Disk,
    Domain,
    Ellipse,
    EuclideanNorm,
    LqNorm,
    Norm,
    QuadraticNorm,
    RadialDomain,
    disk,
    domain_from_config,
    ellipse,
    norm_from_config,
    radial,
)
from .measures import (
    BoundaryDatum,
    BoundaryMeasure,
    quadrature_atoms,
    remove_common_mass,
    tangential_derivative,
)
from .ot import (
    DualPotentials,
    SolverStats,
    TransportPlan,
    check_noncrossing,
    displacement_lengths,
    dual_potentials,
    solve_kantorovich,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """The backend every result is computed on, as the reports state it.

    Every kernel is plain numpy, with python bookkeeping in the simplex.
    """
    return "numpy"


__all__ = [
    "BoundaryDatum",
    "BoundaryMeasure",
    "ChordCost",
    "Disk",
    "Domain",
    "DualPotentials",
    "Ellipse",
    "EuclideanNorm",
    "InfeasibleError",
    "LqNorm",
    "Norm",
    "QuadraticNorm",
    "RadialDomain",
    "SchemaError",
    "SolverError",
    "SolverStats",
    "TransportPlan",
    "backend_name",
    "check_noncrossing",
    "disk",
    "displacement_lengths",
    "domain_from_config",
    "dual_potentials",
    "ellipse",
    "norm_from_config",
    "quadrature_atoms",
    "radial",
    "remove_common_mass",
    "solve_kantorovich",
    "tangential_derivative",
]
