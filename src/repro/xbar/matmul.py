"""Fixed-accumulation matmuls shared by every crossbar read model.

BLAS picks different kernels and blocking for different operand
shapes, so with ``@`` the same input vector can produce last-ulp
different outputs alone versus inside a batch.  These helpers route
the reduction through einsum's non-BLAS loop instead, whose order is
fixed, so a batched read is bit-identical to looping single reads.

They live below :mod:`repro.xbar.crossbar` and :mod:`repro.xbar.nodal`
so both can use them; ``crossbar`` re-exports them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batch_invariant_matmul", "trial_stacked_matmul"]


def batch_invariant_matmul(x, g):  # repro-lint: batch-invariant
    """``x @ g`` with per-row results independent of the batch size.

    The serving contract (a batched read is bit-identical to looping
    single-vector reads) needs a fixed accumulation order; einsum's
    non-BLAS loop provides one at a cost that is negligible next to
    any IR-aware solve.
    """
    if x.ndim == 1:
        return np.einsum("n,nm->m", x, g)
    return np.einsum("sn,nm->sm", x, g)


def trial_stacked_matmul(x, g):  # repro-lint: batch-invariant
    """Fixed-accumulation matmul over a stack of trial conductances.

    The Monte-Carlo counterpart of :func:`batch_invariant_matmul`:
    ``g`` carries a leading trial axis ``(T, n, m)`` and ``x`` is
    either one input batch ``(s, n)`` shared by every trial or a
    per-trial stack ``(T, s, n)`` (e.g. AMP row permutations that
    differ per draw).  The returned ``(T, s, m)`` tensor satisfies
    ``out[t] == batch_invariant_matmul(x[t] if per-trial else x, g[t])``
    *bit-for-bit*: einsum reduces over ``n`` in the same fixed order
    for every trial slice, so batching draws cannot perturb a single
    draw's result.
    """
    if g.ndim != 3:
        raise ValueError(
            f"g must be a (T, n, m) trial stack, got shape {g.shape}"
        )
    if x.ndim == 2:
        return np.einsum("sn,tnm->tsm", x, g)
    if x.ndim == 3:
        return np.einsum("tsn,tnm->tsm", x, g)
    raise ValueError(
        f"x must be (s, n) or a (T, s, n) trial stack, got shape {x.shape}"
    )
