"""Fast IR-drop models: ladder solves and the paper's beta/D decomposition.

Section 3.2 of the paper decomposes the two-dimensional IR-drop pattern
of a crossbar (Fig. 3b) into a *horizontal* component -- which only
rescales the effective learning step of close-loop training by a factor
``beta < 1`` -- and a *vertical* component -- a diagonal matrix ``D``
whose entries skew the convergence direction of gradient-descent
training (Eq. 2).  This module computes both components exactly for the
1-D sub-problems:

* each bit line (column) in isolation is a resistive *ladder network*
  that can be solved with a tridiagonal system in O(n);
* each word line (row) is the same structure transposed.

It also provides a read-time approximation, a fixed-point refinement
of the first-order wire-drop estimate, which the ``'reference'`` read
gains and the open-loop IR compensation build on.  It is no read mode:
at realistic loading it oscillates around the nodal solve
(:mod:`repro.xbar.nodal`; see ``docs/ir_drop.md``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import solve_banded

__all__ = [
    "IRDropDecomposition",
    "column_ladder_solve",
    "program_column_factors",
    "program_row_factors",
    "program_factors",
    "read_output_currents",
    "read_attenuation_reference",
]


# ----------------------------------------------------------------------
# tridiagonal ladder primitives
# ----------------------------------------------------------------------
def _ladder_banded(g_devices: np.ndarray, g_wire: float) -> np.ndarray:
    """Banded (ab) representation of the ladder system matrix.

    Nodes ``0 .. n-1`` along one wire; node ``i`` connects to a fixed
    external potential through ``g_devices[i]``, to its neighbours
    through ``g_wire``, and node ``n-1`` to the wire driver through an
    extra ``g_wire`` segment.
    """
    n = g_devices.size
    diag = g_devices + 2.0 * g_wire
    diag[0] = g_devices[0] + g_wire  # no neighbour above the first node
    # last node keeps 2*g_wire: one neighbour + the driver termination
    ab = np.zeros((3, n))
    ab[0, 1:] = -g_wire
    ab[1, :] = diag
    ab[2, :-1] = -g_wire
    return ab


def column_ladder_solve(
    g_devices: np.ndarray,
    potentials: np.ndarray,
    r_wire: float,
    v_term: float = 0.0,
) -> np.ndarray:
    """Node voltages of one wire ladder.

    Args:
        g_devices: Device conductances hanging off the wire, ``(n,)``.
        potentials: Fixed potentials on the far side of each device.
        r_wire: Wire segment resistance (> 0).
        v_term: Driver voltage at the terminated end (node ``n-1``).

    Returns:
        Wire node voltages, shape ``(n,)``.
    """
    g_devices = np.asarray(g_devices, dtype=float)
    potentials = np.asarray(potentials, dtype=float)
    if g_devices.ndim != 1 or g_devices.shape != potentials.shape:
        raise ValueError("g_devices and potentials must be equal-length 1-D")
    if r_wire <= 0:
        raise ValueError(f"r_wire must be > 0, got {r_wire}")
    g_w = 1.0 / r_wire
    ab = _ladder_banded(g_devices, g_w)
    rhs = g_devices * potentials
    rhs[-1] += g_w * v_term
    return solve_banded((1, 1), ab, rhs)


def _ladder_inverse_diag(g_devices: np.ndarray, g_wire: float) -> np.ndarray:
    """Diagonal of the inverse of the ladder system matrix.

    Uses the numerically stable pivot formula for symmetric tridiagonal
    matrices: with forward-elimination pivots
    ``delta_i = d_i - off^2 / delta_{i-1}`` and backward pivots
    ``mu_i = d_i - off^2 / mu_{i+1}``,

        (A^-1)_{ii} = 1 / (delta_i + mu_i - d_i).

    Unlike the principal-minor recurrence, the pivots stay O(d_i) for
    arbitrarily long ladders, so no rescaling is needed.
    """
    n = g_devices.size
    ab = _ladder_banded(g_devices, g_wire)
    diag = ab[1]
    off_sq = g_wire * g_wire

    delta = np.empty(n)
    delta[0] = diag[0]
    for i in range(1, n):
        delta[i] = diag[i] - off_sq / delta[i - 1]

    mu = np.empty(n)
    mu[n - 1] = diag[n - 1]
    for i in range(n - 2, -1, -1):
        mu[i] = diag[i] - off_sq / mu[i + 1]

    return 1.0 / (delta + mu - diag)


# ----------------------------------------------------------------------
# programming-time factors (the D matrix and beta of Eq. 2)
# ----------------------------------------------------------------------
def program_column_factors(
    conductance: np.ndarray, r_wire: float, v_prog: float
) -> np.ndarray:
    """Vertical delivered-voltage factors ``d_ij`` (Eq. 2's D, per cell).

    For every cell ``(i, j)``, computes the fraction of the nominal
    programming voltage actually delivered across the cell when it is
    selected under the V/2 scheme, accounting for the bit-line wire
    resistance loaded by the half-selected devices of the same column.
    Exact per column via one tridiagonal solve plus the diagonal of the
    ladder inverse (superposition over the selected row).

    Args:
        conductance: Crossbar conductances ``(n, m)`` at programming
            time.
        r_wire: Wire segment resistance in Ohm; 0 returns all-ones.
        v_prog: Nominal programming voltage.

    Returns:
        Factor matrix ``(n, m)`` with entries in (0, 1].
    """
    g = np.asarray(conductance, dtype=float)
    n, m = g.shape
    if r_wire == 0:
        return np.ones((n, m))
    g_w = 1.0 / r_wire
    factors = np.empty((n, m))
    half = v_prog / 2.0
    for j in range(m):
        g_col = g[:, j]
        # Base solve: every row at V/2, selected bit line grounded.
        b_base = column_ladder_solve(g_col, np.full(n, half), r_wire, 0.0)
        inv_diag = _ladder_inverse_diag(g_col, g_w)
        # Superposition: raising row i from V/2 to V adds
        # (V/2) * g_i * (A^-1)_{ii} to the node voltage at i.
        b_sel = b_base + half * g_col * inv_diag
        delivered = v_prog - b_sel
        factors[:, j] = delivered / v_prog
    return np.clip(factors, 1e-9, 1.0)


def program_row_factors(
    conductance: np.ndarray, r_wire: float, v_prog: float
) -> np.ndarray:
    """Horizontal delivered-voltage factors (the beta component).

    First-order estimate of the word-line voltage degradation at each
    column position while programming: the selected word line at ``V``
    feeds the half-selected devices of its row (biased near ``V/2``),
    and the cumulative segment currents drop the delivered voltage as
    the selected column moves right.  Word lines have only ``m``
    segments (10 in the paper's setup) so the first-order model is
    accurate.

    Returns:
        Factor matrix ``(n, m)`` with entries in (0, 1].
    """
    g = np.asarray(conductance, dtype=float)
    n, m = g.shape
    if r_wire == 0:
        return np.ones((n, m))
    half = v_prog / 2.0
    # Current injected into each half-selected device of the row.
    i_dev = g * half
    # Segment k (driver->node0 is k=0) carries the suffix sum of device
    # currents; the drop at column j accumulates segments 0..j.
    suffix = np.cumsum(i_dev[:, ::-1], axis=1)[:, ::-1]
    drop = r_wire * np.cumsum(suffix, axis=1)
    factors = (v_prog - drop) / v_prog
    return np.clip(factors, 1e-9, 1.0)


@dataclasses.dataclass
class IRDropDecomposition:
    """The paper's Fig. 3 decomposition of programming-time IR-drop.

    Attributes:
        row_factors: Horizontal component ``(n, m)`` (Fig. 3a).
        column_factors: Vertical component ``(n, m)`` (Fig. 3c).
        combined: Composed per-cell delivered-voltage factors
            (Fig. 3b), ``1 - (1-row) - (1-col)`` clipped to (0, 1].
        beta: Per-column mean horizontal factor (the scalar ``beta`` of
            Eq. 2), shape ``(m,)``.
        d_skew: Per-column skewness ``max(d)/min(d)`` of the vertical
            factors (the ``d_11/d_nn`` diagnostic of Section 3.2).
    """

    row_factors: np.ndarray
    column_factors: np.ndarray
    combined: np.ndarray
    beta: np.ndarray
    d_skew: np.ndarray


def program_factors(
    conductance: np.ndarray, r_wire: float, v_prog: float
) -> IRDropDecomposition:
    """Full beta/D decomposition for a crossbar state."""
    row_f = program_row_factors(conductance, r_wire, v_prog)
    col_f = program_column_factors(conductance, r_wire, v_prog)
    combined = np.clip(1.0 - (1.0 - row_f) - (1.0 - col_f), 1e-9, 1.0)
    beta = row_f.mean(axis=0)
    d_skew = col_f.max(axis=0) / col_f.min(axis=0)
    return IRDropDecomposition(
        row_factors=row_f,
        column_factors=col_f,
        combined=combined,
        beta=beta,
        d_skew=d_skew,
    )


# ----------------------------------------------------------------------
# read-time attenuation
# ----------------------------------------------------------------------
def read_output_currents(
    conductance: np.ndarray,
    x: np.ndarray,
    r_wire: float,
    v_read: float = 1.0,
    iterations: int = 3,
    chunk: int = 256,
) -> np.ndarray:
    """Approximate bit-line output currents under IR-drop.

    Fixed-point refinement: start from the ideal device currents, then
    alternately recompute the word-line voltage profile (prefix sums of
    segment currents) and the bit-line potential rise, updating the
    device currents, for ``iterations`` rounds.  Close to the nodal
    read at light loading; at heavy loading successive rounds swing
    above and below it instead of converging.

    Args:
        conductance: Crossbar conductances ``(n, m)``.
        x: Input batch ``(s, n)`` (or a single ``(n,)`` vector) of
            normalised features in [0, 1].
        r_wire: Wire segment resistance; 0 yields the ideal product.
        v_read: Read voltage scale.
        iterations: Fixed-point rounds.
        chunk: Batch rows processed per block to bound memory.

    Returns:
        Output currents, shape ``(s, m)`` (or ``(m,)`` for 1-D input).
    """
    g = np.asarray(conductance, dtype=float)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    s, n = x.shape
    if n != g.shape[0]:
        raise ValueError(f"input width {n} != crossbar rows {g.shape[0]}")
    if r_wire == 0:
        y = v_read * (x @ g)
        return y[0] if single else y

    out = np.empty((s, g.shape[1]))
    for start in range(0, s, chunk):
        xb = x[start : start + chunk]
        dv = _device_voltages(g, xb, r_wire, v_read, iterations)
        out[start : start + xb.shape[0]] = (dv * g[None, :, :]).sum(axis=1)
    return out[0] if single else out


def _device_voltages(
    g: np.ndarray, xb: np.ndarray, r_wire: float, v_read: float, iterations: int
) -> np.ndarray:
    """Fixed-point device voltages ``(b, n, m)`` for an input block."""
    v_in = (xb * v_read)[:, :, None]  # (b, n, 1)
    dv = np.broadcast_to(v_in, xb.shape + g.shape[1:])
    for _ in range(iterations):
        i_dev = dv * g[None, :, :]
        # Word-line voltage profile.
        suffix = np.cumsum(i_dev[:, :, ::-1], axis=2)[:, :, ::-1]
        v_row = v_in - r_wire * np.cumsum(suffix, axis=2)
        # Bit-line potential rise above virtual ground.
        prefix = np.cumsum(i_dev, axis=1)  # segment currents below node i
        tail = np.cumsum(prefix[:, ::-1, :], axis=1)[:, ::-1, :]
        u_col = r_wire * tail
        dv = np.clip(v_row - u_col, 0.0, None)
    return dv


def read_column_gains(
    conductance: np.ndarray,
    x_reference: np.ndarray,
    r_wire: float,
    v_read: float = 1.0,
    iterations: int = 3,
) -> np.ndarray:
    """Per-column read gain factors at a reference input.

    To first order, IR-drop costs each bit line a *gain*: the column
    potential rise is driven by the column's total current, so every
    cell's contribution shrinks by roughly the same fraction.  The
    returned ``alpha`` (shape ``(m,)``, entries in (0, 1]) satisfies
    ``read(x) ~ v_read * (x @ G) * alpha`` for inputs statistically
    similar to ``x_reference``.  Unlike a per-cell factor map, the
    per-column form stays robust on rows the reference input barely
    drives.
    """
    g = np.asarray(conductance, dtype=float)
    x_ref = np.asarray(x_reference, dtype=float)
    if x_ref.ndim != 1 or x_ref.size != g.shape[0]:
        raise ValueError("x_reference must be a vector of length n")
    if r_wire == 0:
        return np.ones(g.shape[1])
    ideal = v_read * (x_ref @ g)
    if np.any(ideal <= 0):
        return np.ones(g.shape[1])
    modelled = read_output_currents(g, x_ref, r_wire, v_read, iterations)
    return np.clip(modelled / ideal, 1e-3, 1.0)


def read_attenuation_reference(
    conductance: np.ndarray,
    x_reference: np.ndarray,
    r_wire: float,
    v_read: float = 1.0,
    iterations: int = 3,
) -> np.ndarray:
    """Per-cell read attenuation factors at a reference input.

    Produces an effective-conductance correction
    ``G_eff = G * factors`` such that ``v_read * (x @ G_eff)``
    approximates the IR-drop-affected read for inputs statistically
    similar to ``x_reference``.  Used both as a cheap inference model
    for large sweeps and as the compensation target of the open-loop
    pre-calculation (Section 3.2 cites the compensation technique of
    the authors' ICCAD'14 work).

    Returns:
        Attenuation factor matrix ``(n, m)`` in (0, 1].
    """
    g = np.asarray(conductance, dtype=float)
    x_ref = np.asarray(x_reference, dtype=float)
    if x_ref.ndim != 1 or x_ref.size != g.shape[0]:
        raise ValueError("x_reference must be a vector of length n")
    if r_wire == 0:
        return np.ones_like(g)
    v_in = (x_ref * v_read)[:, None]
    dv = _device_voltages(g, x_ref[None, :], r_wire, v_read, iterations)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.where(v_in > 0, dv / np.where(v_in == 0, 1.0, v_in), 1.0)
    return np.clip(factors, 1e-9, 1.0)
