"""REP009 negatives: fixed-order reductions, or no batch-invariant marker."""

import numpy as np


def einsum_product(x, w):  # repro-lint: batch-invariant
    return np.einsum("ij,jk->ik", x, w)


def stacked_reduce(parts):  # repro-lint: batch-invariant
    return np.sum(np.stack(parts, axis=0), axis=0)


def batch_invariant_matmul(x, w):  # repro-lint: batch-invariant
    # The blessed helper itself is the one place allowed to spell the
    # raw product out.
    return x @ w


def host_side_product(x, w):
    # No batch-invariant marker: plain host math is out of scope.
    return x @ w


def scalar_accumulation(values):  # repro-lint: batch-invariant
    # '+=' on a plain float is not an array accumulation loop.
    total = 0.0
    for value in values:
        total += value
    return total


def unmarked_accumulation(parts, n):
    # The same accumulation loop as the bad fixture, but unmarked.
    total = np.zeros(n)
    for part in parts:
        total += part
    return total
