"""Backend selection for the search kernels.

Prefers the compiled extension (`treebed._kernel_c`) and falls back to the
pure-Python twin.  The compiled kernels only accept hosts that fit in a
64-bit mask, so oversized inputs are routed to the pure backend per call.
Set TREEBED_PURE=1 to force the fallback (benchmarks use this).
"""

import os

from . import _kernel_py

FOUND = _kernel_py.FOUND
NOT_FOUND = _kernel_py.NOT_FOUND
BUDGET = _kernel_py.BUDGET

_c = None
if os.environ.get("TREEBED_PURE") != "1":
    try:
        from . import _kernel_c as _c  # type: ignore[no-redef]
    except ImportError:
        _c = None

BACKEND = "c" if _c is not None else "python"


def solve_embed(
    adj, host_deg, host_order, parent_pos, allowed, tdeg, nchild, symprev, lower_twins, budget
):
    if _c is not None and len(adj) <= 64:
        return _c.solve_embed(
            adj, host_deg, host_order, parent_pos, allowed, tdeg, nchild, symprev, lower_twins,
            budget,
        )
    return _kernel_py.solve_embed(
        adj, host_deg, host_order, parent_pos, allowed, tdeg, nchild, symprev, lower_twins, budget
    )


def min_density_cut(adj, n):
    if _c is not None and n <= 62:
        return _c.min_density_cut(adj, n)
    return _kernel_py.min_density_cut(adj, n)
