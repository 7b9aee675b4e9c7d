"""Numba detection for the one jit kernel, the simplex core.

The simplex runs its numba-compiled core exactly when numba imports and
its numpy twin otherwise; the two visit the same bases.  Without numba,
``njit`` is a no-op so the jit source still imports.
"""

from __future__ import annotations

try:
    from numba import njit

    USE_NUMBA = True
except ImportError:
    USE_NUMBA = False

    def njit(*args, **kwargs):
        """No-op replacement so kernel sources stay importable."""
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"
