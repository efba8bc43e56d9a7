"""REP009 positives: order-unstable accumulation in batch-invariant kernels."""

import numpy as np


def blas_product(x, w):  # repro-lint: batch-invariant
    return x @ w


def inplace_blas(acc, w):  # repro-lint: batch-invariant
    acc @= w
    return acc


def builtin_sum_reduce(blocks):  # repro-lint: batch-invariant
    return sum(blocks)


def accumulation_loop(parts, n):  # repro-lint: batch-invariant
    total = np.zeros(n)
    for part in parts:
        total += part
    return total
