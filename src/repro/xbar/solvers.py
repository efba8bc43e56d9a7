"""Structure-exploiting solvers for the crossbar nodal system.

The nodal Laplacian of an ``n x m`` crossbar (:mod:`repro.xbar.nodal`)
is not a generic sparse matrix: ordered top plane then bottom plane it
is the 2x2 block system::

    [ A_t   -G_d ] [ v_t ]   [ b_t ]
    [ -G_d   A_b ] [ v_b ] = [ b_b ]

where ``A_t`` decouples into ``n`` independent *word-line ladders*
(tridiagonal over the ``m`` columns, driven at the left end), ``A_b``
into ``m`` independent *bit-line ladders* (tridiagonal over the ``n``
rows, terminated at the bottom end) -- the same ladder primitive
:mod:`repro.xbar.ir_drop` solves -- and ``G_d = diag(g)`` couples the
planes only through the per-cell memristor conductances.  This module
exploits that structure three ways:

* :class:`SchurFactor` -- eliminate the top plane exactly.  With
  ``W_i = A_t,i^-1 diag(g_i)`` computed per row by O(m) banded solves,
  the Schur complement ``S = A_b - G_d A_t^-1 G_d`` over the bottom
  plane is symmetric positive definite and *banded with bandwidth
  exactly m* in ``i*m + j`` ordering, so a banded Cholesky of the
  reduced ``n*m`` system replaces the generic sparse LU of the
  ``2*n*m`` one.
* :func:`cg_nodal_solve` -- the full system is SPD, so conjugate
  gradients with a matrix-free operator apply
  (:func:`nodal_operator_apply`) solves it iteratively.  Preconditioned
  with a :class:`SchurFactor` of the *nominal* conductance state, one
  factorisation serves every variation draw of a Monte-Carlo chunk:
  trials never refactorise, they only iterate.  Iteration is blocked
  over all trials and right-hand sides at once, with converged systems
  frozen (masked updates) so each system's trajectory -- and therefore
  its result -- is independent of what it is batched with.
* :func:`nodal_read_trial_stack` -- the trial-stacked read kernel the
  Monte-Carlo engine (:func:`repro.runtime.map_trials_batched`) plugs
  in: a ``(T, n, m)`` conductance stack and an input batch go in, the
  ``(T, s, m)`` nodal column currents come out of one blocked solve.

Accuracy contract (tested in ``tests/xbar/test_solvers.py`` and
documented in ``docs/ir_drop.md``): ``"lu"`` (generic ``splu``) is the
bit-exact oracle; ``"schur"`` agrees with it to <= 1e-9 relative error
on column currents; ``"cg"`` runs a fixed, deterministic iteration
(tolerance :data:`CG_TOL` on the relative residual, iteration cap
:data:`CG_MAX_ITER`, no randomness, no adaptive restarts) and agrees to
<= :data:`CG_CURRENT_RTOL` relative error on column currents.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, solve_banded

from repro.config import NODAL_SOLVERS
from repro.xbar.ir_drop import IRDropDecomposition, program_factors

__all__ = [
    "NODAL_SOLVERS",
    "CG_TOL",
    "CG_MAX_ITER",
    "CG_CURRENT_RTOL",
    "SCHUR_RTOL",
    "SchurFactor",
    "CorrectedDecomposition",
    "cg_nodal_solve",
    "fit_decomposed_correction",
    "nodal_operator_apply",
    "nodal_read_trial_stack",
    "validate_solver",
]

#: Relative-residual convergence tolerance of the CG path.  Fixed (not
#: caller-tuned per call site) so a cg solve is a deterministic function
#: of (conductance state, preconditioner state, right-hand side) alone.
CG_TOL = 1e-13

#: Iteration cap of the CG path.  A hard, deterministic bound: the loop
#: never restarts, reorders, or randomises, so two runs of the same
#: system execute the identical instruction stream.
CG_MAX_ITER = 500

#: Documented column-current agreement of the cg path against the lu
#: oracle (relative error; the schur path holds :data:`SCHUR_RTOL`).
CG_CURRENT_RTOL = 1e-8

#: Documented column-current agreement of the schur path against the lu
#: oracle.  The Schur complement is solved by a direct banded Cholesky,
#: so the only slack is floating-point reassociation, not iteration.
SCHUR_RTOL = 1e-9


def validate_solver(solver: str) -> str:
    """Validate a nodal-solver name, returning it for chaining."""
    if solver not in NODAL_SOLVERS:
        raise ValueError(
            f"nodal solver must be one of {NODAL_SOLVERS}, got {solver!r}"
        )
    return solver


# ----------------------------------------------------------------------
# plane structure
# ----------------------------------------------------------------------
def _wire_degrees(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Wire-conductance multiplicity per node of each plane.

    Returns ``(deg_top, deg_bottom)`` where ``deg_top`` (shape ``(m,)``)
    counts the wire segments incident on column position ``j`` of any
    word line (neighbours plus the left-end driver) and ``deg_bottom``
    (shape ``(n,)``) the segments at row position ``i`` of any bit line
    (neighbours plus the bottom-end termination).
    """
    deg_top = np.zeros(m)
    deg_top[1:] += 1.0
    deg_top[:-1] += 1.0
    deg_top[0] += 1.0
    deg_bottom = np.zeros(n)
    deg_bottom[1:] += 1.0
    deg_bottom[:-1] += 1.0
    deg_bottom[n - 1] += 1.0
    return deg_top, deg_bottom


def nodal_operator_apply(
    g: np.ndarray, r_wire: float, v: np.ndarray
) -> np.ndarray:
    """Matrix-free apply of the nodal Laplacian to plane-shaped vectors.

    Args:
        g: Device conductances, shape ``(n, m)`` or any shape
            broadcastable against ``v``'s trailing ``(n, m)`` axes
            (e.g. a ``(T, 1, n, m)`` trial stack).
        r_wire: Wire segment resistance (> 0).
        v: Node voltages with the planes stacked on axis ``-3``:
            ``v[..., 0, :, :]`` is the top (word-line) plane,
            ``v[..., 1, :, :]`` the bottom (bit-line) plane.

    Returns:
        ``A @ v`` in the same layout.  Every operation is elementwise
        or a shifted-slice add, so each leading-axis system is computed
        independently of its batch mates -- the property the blocked CG
        solver's determinism contract rests on.
    """
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    n, m = v.shape[-2:]
    g_w = 1.0 / r_wire
    deg_top, deg_bottom = _wire_degrees(n, m)
    vt = v[..., 0, :, :]
    vb = v[..., 1, :, :]
    out_t = (g + g_w * deg_top) * vt - g * vb
    out_t[..., :, 1:] -= g_w * vt[..., :, :-1]
    out_t[..., :, :-1] -= g_w * vt[..., :, 1:]
    out_b = (g + g_w * deg_bottom[:, None]) * vb - g * vt
    out_b[..., 1:, :] -= g_w * vb[..., :-1, :]
    out_b[..., :-1, :] -= g_w * vb[..., 1:, :]
    return np.stack([out_t, out_b], axis=-3)


# ----------------------------------------------------------------------
# Schur-complement direct solver
# ----------------------------------------------------------------------
class SchurFactor:
    """Banded Cholesky of the bottom-plane Schur complement.

    Eliminating the top plane costs ``n`` tridiagonal solves with ``m``
    right-hand sides each (O(n*m^2) total, reusing the
    :func:`repro.xbar.ir_drop._ladder_banded` primitive with the node
    order reversed, since word lines are driven at their *left* end);
    what remains is an ``n*m`` SPD system whose bandwidth is exactly
    ``m`` -- dense ``m x m`` diagonal blocks from ``G_d A_t^-1 G_d``
    plus the ``-g_w`` bit-line wire band.  For the paper's tall-thin
    crossbars (784 x 10) that reduced banded factorisation is orders of
    magnitude cheaper than a generic sparse LU of the full system.

    Args:
        conductance: Device conductances ``(n, m)``, strictly positive.
        r_wire: Wire segment resistance (> 0).
    """

    def __init__(self, conductance: np.ndarray, r_wire: float):
        g = np.asarray(conductance, dtype=float)
        if g.ndim != 2:
            raise ValueError("conductance must be a 2-D matrix")
        if np.any(g <= 0):
            raise ValueError("conductances must be strictly positive")
        if r_wire <= 0:
            raise ValueError(f"r_wire must be > 0, got {r_wire}")
        self.g = g
        self.n, self.m = g.shape
        self.r_wire = float(r_wire)
        n, m = self.n, self.m
        nm = n * m
        g_w = 1.0 / self.r_wire

        # Word-line ladders in reversed coordinates (_ladder_banded
        # terminates at its *last* node, word lines drive their first),
        # stacked into ONE flat tridiagonal system: the ladders are
        # decoupled, so concatenating their banded storages -- each
        # block's boundary super/sub-diagonal entries are zero -- lets a
        # single solve_banded call answer all n of them at once instead
        # of n Python-dispatched LAPACK calls (cf. _ladder_banded).
        grev = g[:, ::-1]
        ab_flat = np.zeros((3, n, m))
        ab_flat[1] = grev + 2.0 * g_w
        ab_flat[1, :, 0] = grev[:, 0] + g_w
        ab_flat[0, :, 1:] = -g_w
        ab_flat[2, :, :-1] = -g_w
        self._ab_top_flat = ab_flat.reshape(3, nm)
        self._grev = grev

        # Dense diagonal blocks of S = A_b - G_d A_t^-1 G_d.  In the
        # reversed frame M'_i = D' L_i^-1 D'; flipping both axes maps
        # it back to column order.  One blocked solve: RHS column j
        # carries grev[i, j] * e_j for every block i simultaneously.
        rhs_diag = np.zeros((nm, m))
        rhs_diag[np.arange(nm), np.tile(np.arange(m), n)] = grev.ravel()
        y = solve_banded((1, 1), self._ab_top_flat, rhs_diag)
        blocks = (grev[:, :, None] * y.reshape(n, m, m))[:, ::-1, ::-1]
        _, deg_bottom = _wire_degrees(n, m)
        s_diag = g + g_w * deg_bottom[:, None]
        s_blocks = -blocks
        s_blocks[:, np.arange(m), np.arange(m)] += s_diag

        # Lower banded storage: ab[d, k] = S[k + d, k].  Within-block
        # entries come from the dense blocks' sub-diagonals; the only
        # cross-block coupling is the bit-line wire at offset m.
        ab_s = np.zeros((m + 1, n, m))
        for d in range(m):
            ab_s[d, :, : m - d] = np.diagonal(
                s_blocks, offset=-d, axis1=1, axis2=2
            )
        if n > 1:
            ab_s[m, : n - 1, :] = -g_w
        self._cholesky = cholesky_banded(
            ab_s.reshape(m + 1, n * m), lower=True
        )

    def _top_solve(self, b: np.ndarray) -> np.ndarray:
        """``A_t^-1 b`` for ``b`` of shape ``(n, m, k)``.

        One flat banded solve covers all ``n`` decoupled ladders.
        """
        n, m = self.n, self.m
        br = np.ascontiguousarray(b[:, ::-1, :]).reshape(n * m, -1)
        y = solve_banded((1, 1), self._ab_top_flat, br)
        return y.reshape(n, m, -1)[:, ::-1, :]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the full ``2*n*m`` nodal system.

        Args:
            rhs: Right-hand side(s), shape ``(2*n*m,)`` or
                ``(2*n*m, k)`` (top-plane entries first, the layout of
                :class:`repro.xbar.nodal.CrossbarNetwork`).

        Returns:
            Node voltages in the same shape.
        """
        rhs = np.asarray(rhs, dtype=float)
        single = rhs.ndim == 1
        b = rhs[:, None] if single else rhs
        n, m = self.n, self.m
        nm = n * m
        if b.shape[0] != 2 * nm:
            raise ValueError(
                f"rhs must have {2 * nm} entries, got {b.shape[0]}"
            )
        b_t = b[:nm].reshape(n, m, -1)
        b_b = b[nm:].reshape(n, m, -1)
        gc = self.g[:, :, None]
        y = self._top_solve(b_t)
        rhs_s = (b_b + gc * y).reshape(nm, -1)
        v_b = cho_solve_banded((self._cholesky, True), rhs_s)
        v_b = v_b.reshape(n, m, -1)
        v_t = self._top_solve(b_t + gc * v_b)
        out = np.concatenate(
            [v_t.reshape(nm, -1), v_b.reshape(nm, -1)], axis=0
        )
        return out[:, 0] if single else out


# ----------------------------------------------------------------------
# preconditioned conjugate gradients
# ----------------------------------------------------------------------
def _system_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-system inner product over the trailing plane axes.

    Both operands are ``(T, k, 2, n, m)``; the reduction runs over each
    system's own contiguous trailing block, so the value for system
    ``(t, q)`` does not depend on how many other systems share the
    batch -- the accumulation-order requirement of the determinism
    contract (cf. REP009).
    """
    return np.sum(a * b, axis=(-3, -2, -1))


def cg_nodal_solve(
    g_stack: np.ndarray,
    rhs: np.ndarray,
    r_wire: float,
    precond: SchurFactor,
    tol: float = CG_TOL,
    max_iter: int = CG_MAX_ITER,
) -> tuple[np.ndarray, int]:
    """Blocked preconditioned CG over a stack of conductance states.

    Solves ``A(g_stack[t]) x = rhs[t]`` for every trial ``t`` and every
    right-hand-side column jointly: one :func:`nodal_operator_apply`
    and one preconditioner application per iteration cover the whole
    ``T x k`` block.  The preconditioner is a single
    :class:`SchurFactor` -- typically of the *nominal* conductance
    state -- shared by every trial, which is what removes the
    per-trial factorisation from Monte-Carlo sweeps entirely.

    Determinism: iterations run in a fixed order with a fixed cap;
    converged systems are frozen (their step sizes are masked to zero)
    rather than removed, so each system's iterate sequence is a pure
    function of its own ``(g, rhs)`` and the preconditioner state --
    independent of chunking, batching, or ``--jobs``.

    Args:
        g_stack: Conductance states, shape ``(T, n, m)``.
        rhs: Right-hand sides, shape ``(T, 2*n*m, k)``.
        r_wire: Wire segment resistance (> 0).
        precond: Factorisation applied as the preconditioner.
        tol: Relative-residual convergence tolerance.
        max_iter: Hard iteration cap.

    Returns:
        ``(x, iterations)``: solutions shaped like ``rhs`` and the
        number of blocked iterations executed.
    """
    g_stack = np.asarray(g_stack, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if g_stack.ndim != 3:
        raise ValueError(
            f"g_stack must be (T, n, m), got shape {g_stack.shape}"
        )
    t_count, n, m = g_stack.shape
    size = 2 * n * m
    if rhs.ndim != 3 or rhs.shape[0] != t_count or rhs.shape[1] != size:
        raise ValueError(
            f"rhs must be ({t_count}, {size}, k), got shape {rhs.shape}"
        )
    if (precond.n, precond.m) != (n, m):
        raise ValueError(
            f"preconditioner geometry {(precond.n, precond.m)} != "
            f"system geometry {(n, m)}"
        )
    k = rhs.shape[2]
    b = np.transpose(rhs, (0, 2, 1)).reshape(t_count, k, 2, n, m)
    gb = g_stack[:, None, :, :]

    def apply_precond(r: np.ndarray) -> np.ndarray:
        flat = r.reshape(t_count * k, size).T
        return precond.solve(flat).T.reshape(t_count, k, 2, n, m)

    x = np.zeros_like(b)
    r = b.copy()
    b_norm_sq = _system_dot(b, b)
    threshold = (tol * tol) * b_norm_sq
    z = apply_precond(r)
    p = z.copy()
    rz = _system_dot(r, z)
    iterations = 0
    for _ in range(max_iter):
        active = _system_dot(r, r) > threshold
        if not active.any():
            break
        iterations += 1
        ap = nodal_operator_apply(gb, r_wire, p)
        pap = _system_dot(p, ap)
        live = active & (pap > 0)
        alpha = np.where(live, rz / np.where(pap > 0, pap, 1.0), 0.0)
        step = alpha[:, :, None, None, None]
        x = x + step * p
        r = r - step * ap
        z = apply_precond(r)
        rz_new = _system_dot(r, z)
        beta = np.where(live, rz_new / np.where(rz != 0, rz, 1.0), 0.0)
        p = z + beta[:, :, None, None, None] * p
        rz = rz_new
    out = np.transpose(x.reshape(t_count, k, size), (0, 2, 1))
    return out, iterations


# ----------------------------------------------------------------------
# trial-stacked Monte-Carlo read kernel
# ----------------------------------------------------------------------
def _read_rhs_stack(
    x: np.ndarray, t_count: int, n: int, m: int, g_w: float, v_read: float
) -> np.ndarray:
    """Read-mode right-hand sides ``(T, 2*n*m, s)`` for inputs ``x``."""
    rhs = np.zeros((t_count, 2 * n * m, x.shape[0]))
    left = np.arange(n) * m
    rhs[:, left, :] = (v_read * g_w) * x.T[None, :, :]
    return rhs


def nodal_read_trial_stack(  # repro-lint: batch-invariant
    g_stack: np.ndarray,
    x: np.ndarray,
    r_wire: float,
    v_read: float = 1.0,
    solver: str = "cg",
    precond_g: np.ndarray | None = None,
    tol: float = CG_TOL,
    max_iter: int = CG_MAX_ITER,
) -> np.ndarray:
    """Nodal column currents for a whole stack of conductance trials.

    The Monte-Carlo nodal kernel: instead of factorising per trial,
    all ``T`` trials and ``s`` read inputs are solved as one blocked
    multi-right-hand-side problem (``solver="cg"``, preconditioned by
    one :class:`SchurFactor` of ``precond_g`` -- pass the nominal,
    pre-variation conductance state; trial mean when ``None``) or as
    ``T`` reduced banded factorisations (``solver="schur"``).

    Args:
        g_stack: Trial conductances, shape ``(T, n, m)``.
        x: Read inputs in [0, 1], shape ``(s, n)`` (or ``(n,)``).
        r_wire: Wire segment resistance (> 0).
        v_read: Read voltage scale.
        solver: ``"cg"`` or ``"schur"``.
        precond_g: Nominal conductance state for the shared cg
            preconditioner (ignored by ``"schur"``).
        tol: CG relative-residual tolerance.
        max_iter: CG iteration cap.

    Returns:
        Column currents, shape ``(T, s, m)``.
    """
    g_stack = np.asarray(g_stack, dtype=float)
    if g_stack.ndim != 3:
        raise ValueError(
            f"g_stack must be (T, n, m), got shape {g_stack.shape}"
        )
    if np.any(g_stack <= 0):
        raise ValueError("conductances must be strictly positive")
    if r_wire <= 0:
        raise ValueError(f"r_wire must be > 0, got {r_wire}")
    t_count, n, m = g_stack.shape
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != n:
        raise ValueError(
            f"inputs must have {n} features, got {x.shape[1]}"
        )
    g_w = 1.0 / r_wire
    nm = n * m
    bottom_row = slice(nm + (n - 1) * m, nm + n * m)
    if solver == "cg":
        if precond_g is None:
            precond_g = np.mean(g_stack, axis=0)
        else:
            precond_g = np.asarray(precond_g, dtype=float)
        precond = SchurFactor(precond_g, r_wire)
        rhs = _read_rhs_stack(x, t_count, n, m, g_w, v_read)
        v, _ = cg_nodal_solve(
            g_stack, rhs, r_wire, precond, tol=tol, max_iter=max_iter
        )
        # Bit lines are virtually grounded during reads.
        return np.transpose(v[:, bottom_row, :], (0, 2, 1)) * g_w
    if solver == "schur":
        rhs = _read_rhs_stack(x, 1, n, m, g_w, v_read)[0]
        out = np.empty((t_count, x.shape[0], m))
        for t in range(t_count):
            v = SchurFactor(g_stack[t], r_wire).solve(rhs)
            out[t] = v[bottom_row, :].T * g_w
        return out
    raise ValueError(
        "trial-stacked reads support solver 'cg' or 'schur'; for the "
        f"'lu' oracle use CrossbarNetwork per trial (got {solver!r})"
    )


# ----------------------------------------------------------------------
# fitted correction of the decomposed beta/D fast model
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CorrectedDecomposition:
    """A beta/D decomposition with a per-geometry fitted correction.

    The paper's decomposition (:func:`repro.xbar.ir_drop.program_factors`)
    is first-order: it composes the exact 1-D ladder solutions and
    under- or over-states the 2-D coupling by a geometry-dependent
    amount.  Fitting a single drop-scale ``gain`` against the exact
    nodal solver on a deterministic sample of cells recovers most of
    that gap at decomposed cost, so large sweeps can run near-reference
    accuracy without per-state nodal solves.

    Attributes:
        base: The uncorrected decomposition.
        gain: Fitted scale on the modelled voltage *drop*:
            ``corrected = 1 - gain * (1 - base.combined)``.
        combined: Corrected per-cell delivered-voltage factors,
            clipped to (0, 1].
        sample_cells: The ``(row, col)`` cells the fit was anchored on.
        raw_error: Max relative factor error of ``base.combined``
            against the exact solver on the sample cells.
        fitted_error: Same measure for the corrected factors.
    """

    base: IRDropDecomposition
    gain: float
    combined: np.ndarray
    sample_cells: tuple[tuple[int, int], ...]
    raw_error: float
    fitted_error: float


def _sample_cells(n: int, m: int, samples: int) -> list[tuple[int, int]]:
    """A deterministic cell grid covering corners, edges and interior."""
    side = max(2, int(round(float(samples) ** 0.5)))
    rows = np.unique(np.linspace(0, n - 1, side).round().astype(int))
    cols = np.unique(np.linspace(0, m - 1, side).round().astype(int))
    return [(int(r), int(c)) for r in rows for c in cols]


def fit_decomposed_correction(
    conductance: np.ndarray,
    r_wire: float,
    v_prog: float,
    samples: int = 16,
) -> CorrectedDecomposition:
    """Fit the decomposed model's drop scale against the exact solver.

    Computes the exact delivered-voltage factors on a deterministic
    sample of cells (one multi-right-hand-side :class:`SchurFactor`
    solve of the V/2 scheme -- the exact solver, not the fast model)
    and least-squares fits the scalar ``gain`` minimising
    ``|exact_drop - gain * modelled_drop|`` over the sample.

    Args:
        conductance: Crossbar conductances ``(n, m)``.
        r_wire: Wire segment resistance (> 0).
        v_prog: Nominal programming voltage.
        samples: Approximate number of anchor cells (gridded over the
            geometry; corners always included).

    Returns:
        A :class:`CorrectedDecomposition`.
    """
    g = np.asarray(conductance, dtype=float)
    n, m = g.shape
    base = program_factors(g, r_wire, v_prog)
    cells = _sample_cells(n, m, samples)
    g_w = 1.0 / r_wire
    nm = n * m

    # Exact V/2-scheme solves, one right-hand side per sampled cell.
    rhs = np.zeros((2 * nm, len(cells)))
    half = v_prog / 2.0
    left = np.arange(n) * m
    bottom = nm + (n - 1) * m + np.arange(m)
    for idx, (row, col) in enumerate(cells):
        v_rows = np.full(n, half)
        v_rows[row] = v_prog
        v_cols = np.full(m, half)
        v_cols[col] = 0.0
        rhs[left, idx] = v_rows * g_w
        rhs[bottom, idx] += v_cols * g_w
    v = SchurFactor(g, r_wire).solve(rhs)
    exact = np.empty(len(cells))
    for idx, (row, col) in enumerate(cells):
        node = row * m + col
        exact[idx] = (v[node, idx] - v[nm + node, idx]) / v_prog

    modelled = np.array([base.combined[r, c] for r, c in cells])
    exact_drop = 1.0 - exact
    model_drop = 1.0 - modelled
    denom = float(np.dot(model_drop, model_drop))
    gain = float(np.dot(model_drop, exact_drop)) / denom if denom > 0 else 1.0
    corrected = np.clip(1.0 - gain * (1.0 - base.combined), 1e-9, 1.0)

    raw_error = float(np.max(np.abs(modelled - exact) / exact))
    fitted = np.array([corrected[r, c] for r, c in cells])
    fitted_error = float(np.max(np.abs(fitted - exact) / exact))
    return CorrectedDecomposition(
        base=base,
        gain=gain,
        combined=corrected,
        sample_cells=tuple(cells),
        raw_error=raw_error,
        fitted_error=fitted_error,
    )
