"""Chi-square bound on the variation-vector norm (Eq. 7-8 of the paper).

VAT bounds the "penalty of variations" via Cauchy-Schwarz:
``sum_q x_q w_q theta_q <= ||theta||_2 * ||x (.) w||_2``.  With
``theta_q ~ N(0, sigma^2)`` i.i.d., ``||theta||_2^2 / sigma^2`` follows
a chi-square distribution with ``n`` degrees of freedom, so at a chosen
confidence level ``c`` the norm is bounded by

    rho = sigma * sqrt(chi2_ppf(c, n)).

This module computes ``rho``.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

__all__ = ["rho_bound"]


def rho_bound(sigma: float, n: int, confidence: float = 0.95) -> float:
    """Confidence bound ``rho`` on ``||theta||_2``.

    Args:
        sigma: Standard deviation of each ``theta_q``.
        n: Vector dimension (crossbar rows), the chi-square degrees of
            freedom.
        confidence: Probability with which ``||theta||_2 <= rho``.

    Returns:
        The bound ``rho`` (0 when ``sigma`` is 0).
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if sigma == 0:
        return 0.0
    return float(sigma * np.sqrt(stats.chi2.ppf(confidence, df=n)))
