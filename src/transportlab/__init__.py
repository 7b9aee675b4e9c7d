"""Boundary-to-boundary optimal transport on convex planar domains.

Measures live on the boundary of a uniformly convex domain, transport
cost is a strictly convex norm of the displacement, and rays never
cross.  On top of the exact simplex solver the package computes
transport densities on grids, their L^p norms, reconstructs functions
of least anisotropic gradient from boundary data, and builds a family
of alternating boundary measures whose densities leave L^p.
"""

from importlib import import_module as _import_module

from .errors import InfeasibleError, SchemaError, SolverError

# public names of the geometry, measure and transport layers, by module;
# each module is imported on first access to one of its names (PEP 562),
# so that a process that needs only part of the package loads only that
_LAZY = {
    "geom": (
        "ChordCost",
        "Disk",
        "Domain",
        "Ellipse",
        "EuclideanNorm",
        "LqNorm",
        "Norm",
        "QuadraticNorm",
        "RadialDomain",
        "disk",
        "domain_from_config",
        "ellipse",
        "norm_from_config",
        "radial",
    ),
    "measures": (
        "BoundaryDatum",
        "BoundaryMeasure",
        "quadrature_atoms",
        "remove_common_mass",
        "tangential_derivative",
    ),
    "ot": (
        "DualPotentials",
        "SolverStats",
        "TransportPlan",
        "check_noncrossing",
        "displacement_lengths",
        "dual_potentials",
        "solve_kantorovich",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"


def backend_name() -> str:
    """The backend every result is computed on, as the reports state it.

    Every kernel is plain numpy, with python bookkeeping in the simplex.
    """
    return "numpy"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


# the lazy names, the errors imported above and backend_name
__all__ = sorted([*_MODULE_OF, "InfeasibleError", "SchemaError", "SolverError", "backend_name"])
