"""Row-mapping algorithms for AMP (Section 4.2.2, Algorithm 1).

The paper's Algorithm 1 is a greedy assignment: walk the weight rows in
decreasing sensitivity order and give each the still-unused physical
row with the smallest SWV.  Redundant rows simply enlarge the physical
pool.  The module also ships a Hungarian (optimal-assignment) variant
to quantify the greedy gap -- the paper notes "other optimization
algorithms can also be applied to the mapping process".
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["greedy_mapping", "optimal_mapping"]


def _validate_swv(swv: np.ndarray) -> np.ndarray:
    swv = np.asarray(swv, dtype=float)
    if swv.ndim != 2:
        raise ValueError("swv must be 2-D (n_logical, n_physical)")
    if swv.shape[0] > swv.shape[1]:
        raise ValueError(
            f"not enough physical rows: need >= {swv.shape[0]}, "
            f"have {swv.shape[1]}"
        )
    return swv


def greedy_mapping(
    swv: np.ndarray, order: np.ndarray | None = None
) -> np.ndarray:
    """Algorithm 1: sensitivity-ordered greedy assignment.

    Args:
        swv: Cost matrix ``(n_logical, n_physical)``; entry ``(p, q)``
            is the summed weighted variation of placing weight row
            ``p`` on physical row ``q``.
        order: Processing order of the logical rows (most sensitive
            first, from :func:`repro.core.sensitivity.mapping_order`);
            natural order when omitted.

    Returns:
        Assignment array ``a`` of shape ``(n_logical,)`` with
        ``a[p] = q``; all values distinct.
    """
    swv = _validate_swv(swv)
    n_logical, n_physical = swv.shape
    if order is None:
        order = np.arange(n_logical)
    else:
        order = np.asarray(order)
        if sorted(order.tolist()) != list(range(n_logical)):
            raise ValueError("order must be a permutation of the weight rows")
    assignment = np.full(n_logical, -1, dtype=int)
    available = np.ones(n_physical, dtype=bool)
    big = np.inf
    for p in order:
        costs = np.where(available, swv[p], big)
        q = int(np.argmin(costs))
        assignment[p] = q
        available[q] = False
    return assignment


def optimal_mapping(swv: np.ndarray) -> np.ndarray:
    """Minimum-total-SWV assignment (Hungarian algorithm).

    Solves the rectangular assignment exactly; the gap to
    :func:`greedy_mapping` is the price of the paper's O(n^2) greedy
    heuristic.
    """
    swv = _validate_swv(swv)
    row_ind, col_ind = linear_sum_assignment(swv)
    assignment = np.full(swv.shape[0], -1, dtype=int)
    assignment[row_ind] = col_ind
    return assignment
