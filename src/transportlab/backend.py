"""Numba/numpy backend selection.

Hot kernels ship in two variants: a numba-compiled loop version and a
vectorized numpy fallback.  Setting the environment variable
``TRANSPORTLAB_NUMBA=0`` before import selects the fallback; the flag
also flips automatically when numba is not importable.
"""

from __future__ import annotations

import os

_env = os.environ.get("TRANSPORTLAB_NUMBA", "1").strip().lower()
_WANT_NUMBA = _env not in ("0", "false", "no", "off")

HAS_NUMBA = False
if _WANT_NUMBA:
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        pass

if not HAS_NUMBA:

    def njit(*args, **kwargs):
        """No-op replacement so kernel sources stay importable."""
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap

USE_NUMBA = HAS_NUMBA


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"
