"""The backend every result is computed on, as the reports state it.

All kernels are plain numpy (with python bookkeeping in the simplex);
there is no compiled alternative.
"""

from __future__ import annotations


def backend_name() -> str:
    return "numpy"
