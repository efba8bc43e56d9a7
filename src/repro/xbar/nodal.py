"""Full nodal analysis of a memristor crossbar.

This is the circuit-level ground truth for the IR-drop studies of
Section 3.2.  The crossbar is modelled as the complete resistive
network: every cross-point memristor connects its word-line (top) node
to its bit-line (bottom) node; adjacent nodes along a wire are joined
by the segment resistance ``r_wire``; each word line is driven from its
left end and each bit line is terminated (driven or virtually grounded)
at its bottom end, both through one additional wire segment.

Geometry and indexing::

        col 0   col 1  ...  col m-1
  row 0  T00-----T01--------T0,m-1      <- word line 0, driven at left
          |       |           |            (memristors are the vertical
  row 1  T10-----T11--------T1,m-1         bars between T and B planes)
          .       .           .
  bottom B(n-1,0) ... B(n-1,m-1)        <- bit lines terminate at bottom

Unknowns are the ``2*n*m`` node voltages (top plane then bottom plane).
The solver supports arbitrary driver voltages on both planes so the
same code answers both questions of the paper:

* **Read / compute mode** -- word lines driven at the input voltages,
  bit lines virtually grounded; the outputs are the bit-line currents.
* **Program mode** -- the V/2 scheme of Section 2.2.2: one word line at
  V, one bit line at 0, everything else at V/2; the output of interest
  is the voltage actually delivered across the selected cell.

One solver answers the system: generic sparse LU (``splu``) over the
full ``2*n*m`` Laplacian (see ``docs/ir_drop.md``).

Grounded-bit-line reads (:meth:`CrossbarNetwork.read_batch`) do not
solve per input: the network is then a fixed linear map ``I = x @ T``,
and the transfer matrix ``T`` is built once per state from min(n, m)
right-hand sides by reciprocity.  :meth:`CrossbarNetwork.solve` and
:meth:`~CrossbarNetwork.solve_batch` stay the per-input oracle.

The sparsity *structure* (COO index arrays, wire values, wire-fixed
diagonal) depends only on the geometry, so it is assembled once and
reused across every ``update_conductance``: a conductance change is a
values-only rewrite, never an index rebuild.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import splu

from repro.xbar.matmul import batch_invariant_matmul

__all__ = ["NodalSolution", "CrossbarNetwork"]

#: Right-hand-side elements one block of the transfer-matrix build may
#: hold (32 MB of float64): large arrays solve their min(n, m) unit
#: drives in column blocks instead of one ``(2*n*m, min(n, m))`` block.
_TRANSFER_BLOCK_ELEMENTS = 1 << 22


@dataclasses.dataclass
class NodalSolution:
    """Result of one nodal solve (or a batch of them).

    Attributes:
        v_top: Word-line plane node voltages, shape ``(n, m)`` for a
            scalar solve, ``(B, n, m)`` from :meth:`CrossbarNetwork.solve_batch`.
        v_bottom: Bit-line plane node voltages, same shape.
        device_voltage: Voltage across each memristor, same shape.
        device_current: Current through each memristor, same shape.
        column_current: Current delivered into each bit-line
            termination, shape ``(m,)`` (or ``(B, m)``).
    """

    v_top: np.ndarray
    v_bottom: np.ndarray
    device_voltage: np.ndarray
    device_current: np.ndarray
    column_current: np.ndarray


class CrossbarNetwork:
    """Nodal model of an ``n x m`` crossbar with wire resistance.

    Args:
        conductance: Memristor conductance matrix ``G``, shape
            ``(n, m)``, in Siemens.
        r_wire: Wire segment resistance in Ohm (> 0).

    The conductance matrix is captured at construction; build a new
    network (or call :meth:`update_conductance`) after reprogramming.
    """

    def __init__(self, conductance: np.ndarray, r_wire: float):
        conductance = np.asarray(conductance, dtype=float)
        if conductance.ndim != 2:
            raise ValueError("conductance must be a 2-D matrix")
        if np.any(conductance <= 0):
            raise ValueError("conductances must be strictly positive")
        if r_wire <= 0:
            raise ValueError(
                f"r_wire must be > 0 for nodal analysis, got {r_wire}"
            )
        self.g = conductance
        self.n, self.m = conductance.shape
        self.r_wire = float(r_wire)
        self._structure: dict[str, np.ndarray] | None = None
        self._lu = None
        self._transfer: np.ndarray | None = None

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _top(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return i * self.m + j

    def _bottom(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return self.n * self.m + i * self.m + j

    def _build_structure(self) -> dict[str, np.ndarray]:
        """Geometry-only sparsity structure, assembled exactly once.

        Returns the COO index arrays with the memristor entries first
        (two directed entries per device, then the fixed wire entries,
        then the diagonal), the constant wire values, and the
        wire-resistance part of the diagonal.  ``update_conductance``
        then only rewrites values: the device entries are ``-g`` twice
        and the diagonal is wire-fixed plus a scatter of ``g`` onto
        both planes.
        """
        n, m = self.n, self.m
        g_w = 1.0 / self.r_wire
        size = 2 * n * m

        ii, jj = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
        top_idx = self._top(ii.ravel(), jj.ravel())
        bottom_idx = self._bottom(ii.ravel(), jj.ravel())
        rows = [top_idx, bottom_idx]
        cols = [bottom_idx, top_idx]

        wire_rows: list[np.ndarray] = []
        wire_cols: list[np.ndarray] = []
        wire_vals: list[np.ndarray] = []
        wire_diag = np.zeros(size)

        def add_wire_edges(a: np.ndarray, b: np.ndarray) -> None:
            wire_rows.extend([a, b])
            wire_cols.extend([b, a])
            wire_vals.append(np.full(2 * a.size, -g_w))
            np.add.at(wire_diag, a, g_w)
            np.add.at(wire_diag, b, g_w)

        # Word-line segments: top(i,j) -- top(i,j+1).
        ih, jh = np.meshgrid(np.arange(n), np.arange(m - 1), indexing="ij")
        ih, jh = ih.ravel(), jh.ravel()
        if ih.size:
            add_wire_edges(self._top(ih, jh), self._top(ih, jh + 1))

        # Bit-line segments: bottom(i,j) -- bottom(i+1,j).
        iv, jv = np.meshgrid(np.arange(n - 1), np.arange(m), indexing="ij")
        iv, jv = iv.ravel(), jv.ravel()
        if iv.size:
            add_wire_edges(self._bottom(iv, jv), self._bottom(iv + 1, jv))

        # Driver connections add g_w to the diagonal of boundary nodes;
        # the source current enters through the right-hand side.
        left = self._top(np.arange(n), np.zeros(n, dtype=int))
        np.add.at(wire_diag, left, g_w)
        bottom = self._bottom(np.full(m, n - 1), np.arange(m))
        np.add.at(wire_diag, bottom, g_w)

        diag_idx = np.arange(size)
        return {
            "rows": np.concatenate(rows + wire_rows + [diag_idx]),
            "cols": np.concatenate(cols + wire_cols + [diag_idx]),
            "wire_vals": (
                np.concatenate(wire_vals) if wire_vals else np.zeros(0)
            ),
            "wire_diag": wire_diag,
            "left": left,
            "bottom": bottom,
        }

    def _get_structure(self) -> dict[str, np.ndarray]:
        if self._structure is None:
            self._structure = self._build_structure()
        return self._structure

    def _factor_lu(self):
        """Values-only sparse LU of the current state on cached structure."""
        st = self._get_structure()
        n, m = self.n, self.m
        size = 2 * n * m
        gm = self.g.ravel()
        diag = st["wire_diag"].copy()
        diag[: n * m] += gm
        diag[n * m :] += gm
        vals = np.concatenate([-gm, -gm, st["wire_vals"], diag])
        matrix = coo_matrix(
            (vals, (st["rows"], st["cols"])), shape=(size, size)
        )
        return splu(csc_matrix(matrix))

    def update_conductance(self, conductance: np.ndarray) -> None:
        """Replace the device conductances; drop the factor and ``T``.

        The sparsity structure survives: it depends only on the
        geometry.
        """
        conductance = np.asarray(conductance, dtype=float)
        if conductance.shape != (self.n, self.m):
            raise ValueError(
                f"expected shape {(self.n, self.m)}, got {conductance.shape}"
            )
        if np.any(conductance <= 0):
            raise ValueError("conductances must be strictly positive")
        self.g = conductance
        self._lu = None
        self._transfer = None

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _get_lu(self):
        if self._lu is None:
            self._lu = self._factor_lu()
        return self._lu

    def solve(
        self, v_rows: np.ndarray, v_cols: np.ndarray | float = 0.0
    ) -> NodalSolution:
        """Solve the network for given driver voltages.

        Args:
            v_rows: Word-line driver voltages, shape ``(n,)``.
            v_cols: Bit-line termination voltages, scalar or ``(m,)``
                (0 for virtual-ground sensing).

        Returns:
            A :class:`NodalSolution` with node voltages and currents.
        """
        n, m = self.n, self.m
        v_rows = np.asarray(v_rows, dtype=float)
        if v_rows.shape != (n,):
            raise ValueError(f"v_rows must have shape ({n},), got {v_rows.shape}")
        v_cols = np.broadcast_to(np.asarray(v_cols, dtype=float), (m,))
        g_w = 1.0 / self.r_wire
        st = self._get_structure()

        rhs = np.zeros(2 * n * m)
        rhs[st["left"]] = v_rows * g_w
        rhs[st["bottom"]] += v_cols * g_w

        v = self._get_lu().solve(rhs)
        v_top = v[: n * m].reshape(n, m)
        v_bottom = v[n * m :].reshape(n, m)
        dv = v_top - v_bottom
        i_dev = dv * self.g
        i_col = (v_bottom[n - 1, :] - v_cols) * g_w
        return NodalSolution(
            v_top=v_top,
            v_bottom=v_bottom,
            device_voltage=dv,
            device_current=i_dev,
            column_current=i_col,
        )

    def solve_batch(
        self, v_rows: np.ndarray, v_cols: np.ndarray | float = 0.0
    ) -> NodalSolution:
        """Solve a batch of driver configurations against one factor.

        The multi-right-hand-side companion of :meth:`solve`: all ``B``
        configurations share the factorisation, which is what makes V/2
        program-mode sweeps and defect pretests cheap -- they stop
        paying the solve dispatch per probed cell.

        Args:
            v_rows: Word-line driver voltages, shape ``(B, n)``.
            v_cols: Bit-line termination voltages: scalar, ``(m,)``
                shared by the batch, or per-configuration ``(B, m)``.

        Returns:
            A :class:`NodalSolution` whose fields carry a leading batch
            axis (``(B, n, m)`` planes, ``(B, m)`` column currents).
        """
        n, m = self.n, self.m
        v_rows = np.asarray(v_rows, dtype=float)
        if v_rows.ndim != 2 or v_rows.shape[1] != n:
            raise ValueError(
                f"v_rows must have shape (B, {n}), got {v_rows.shape}"
            )
        batch = v_rows.shape[0]
        v_cols = np.broadcast_to(
            np.asarray(v_cols, dtype=float), (batch, m)
        )
        g_w = 1.0 / self.r_wire
        st = self._get_structure()

        rhs = np.zeros((2 * n * m, batch))
        rhs[st["left"], :] = v_rows.T * g_w
        rhs[st["bottom"], :] += v_cols.T * g_w

        v = self._get_lu().solve(rhs)
        v_top = v[: n * m].T.reshape(batch, n, m)
        v_bottom = v[n * m :].T.reshape(batch, n, m)
        dv = v_top - v_bottom
        i_dev = dv * self.g[None, :, :]
        i_col = (v_bottom[:, n - 1, :] - v_cols) * g_w
        return NodalSolution(
            v_top=v_top,
            v_bottom=v_bottom,
            device_voltage=dv,
            device_current=i_dev,
            column_current=i_col,
        )

    # ------------------------------------------------------------------
    # convenience modes
    # ------------------------------------------------------------------
    def read(self, x: np.ndarray, v_read: float = 1.0) -> np.ndarray:
        """Column output currents for input vector ``x`` in [0, 1]."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x must have shape ({self.n},), got {x.shape}")
        return self.solve(x * v_read, 0.0).column_current

    def read_batch(
        self,
        x: np.ndarray,
        v_read: float = 1.0,
        v_cols: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Column output currents for a batch of read inputs.

        With grounded bit lines (``v_cols`` all zero, the sensing
        default) the network is a fixed linear map and the batch is
        answered as ``batch_invariant_matmul(x * v_read, T)`` through
        the cached :meth:`transfer_matrix`: no solve per input, and a
        batched read is bit-identical to looping single-row reads.
        Nonzero terminations fall back to one multi-right-hand-side
        solve of the whole batch, the same system as :meth:`solve`.

        Args:
            x: Inputs in [0, 1], shape ``(s, n)`` or a single ``(n,)``.
            v_read: Read voltage scale.
            v_cols: Bit-line termination voltages: scalar (0 = the
                virtual-ground sensing default), ``(m,)`` shared by the
                batch, or per-input ``(s, m)``.  Matches the looped
                :meth:`read`/:meth:`solve` semantics -- the returned
                current is the current *into* each termination,
                ``(v_bottom - v_cols) * g_w``.

        Returns:
            Currents, shape ``(s, m)`` (or ``(m,)`` for 1-D input).
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xb = np.atleast_2d(x)
        if xb.shape[1] != self.n:
            raise ValueError(
                f"inputs must have {self.n} features, got {xb.shape[1]}"
            )
        if not np.any(v_cols):
            return batch_invariant_matmul(x * v_read, self.transfer_matrix())
        n, m = self.n, self.m
        batch = xb.shape[0]
        v_cols = np.broadcast_to(
            np.asarray(v_cols, dtype=float), (batch, m)
        )
        g_w = 1.0 / self.r_wire
        st = self._get_structure()
        rhs = np.zeros((2 * n * m, batch))
        rhs[st["left"], :] = (xb * v_read).T * g_w
        rhs[st["bottom"], :] += v_cols.T * g_w
        v = self._get_lu().solve(rhs)
        i_col = (v[st["bottom"], :] - v_cols.T) * g_w
        return i_col[:, 0] if single else i_col.T

    def transfer_matrix(self) -> np.ndarray:
        """Effective conductance ``T`` of the array under wire resistance.

        With the bit lines grounded the column currents are linear in
        the word-line drive: ``read(x, v_read) == (x * v_read) @ T``,
        shape ``(n, m)``.  Built on first use and cached until
        :meth:`update_conductance`.
        """
        if self._transfer is None:
            self._transfer = self._build_transfer(self.m <= self.n)
        return self._transfer

    def _build_transfer(self, drive_bit_lines: bool) -> np.ndarray:
        """Solve ``T`` from unit drives on one side of the array.

        ``T[i, j] = g_w**2 * inv(A)[left_i, bottom_j]`` and the nodal
        matrix ``A`` is symmetric (reciprocity), so driving every
        bit-line terminal and reading the word-line driver nodes (m
        right-hand sides, ``drive_bit_lines``) gives the same ``T`` as
        driving every word line and reading the bit-line terminals (n
        right-hand sides); :meth:`transfer_matrix` drives the shorter
        side.

        The factor is built inside this call and dropped before
        returning.  SciPy never frees a SuperLU factor released
        on a thread other than the one that built it, and a served
        array builds ``T`` on the scheduler's worker thread while a
        repair drops the network on the client thread.
        """
        n, m = self.n, self.m
        g_w = 1.0 / self.r_wire
        st = self._get_structure()
        if drive_bit_lines:
            drive, sense = st["bottom"], st["left"]
        else:
            drive, sense = st["left"], st["bottom"]
        solve = self._factor_lu().solve
        out = np.empty((sense.size, drive.size))
        step = max(1, _TRANSFER_BLOCK_ELEMENTS // (2 * n * m))
        for lo in range(0, drive.size, step):
            nodes = drive[lo : lo + step]
            rhs = np.zeros((2 * n * m, nodes.size))
            rhs[nodes, np.arange(nodes.size)] = g_w
            out[:, lo : lo + nodes.size] = solve(rhs)[sense] * g_w
        return out if drive_bit_lines else np.ascontiguousarray(out.T)

    def program_voltages(
        self, row: int, col: int, v_prog: float
    ) -> NodalSolution:
        """Nodal solve of the V/2 scheme selecting cell ``(row, col)``.

        The selected word line is driven at ``v_prog``, the selected bit
        line at 0, and every other wire at ``v_prog / 2``
        (Section 2.2.2).  The delivered programming voltage is
        ``solution.device_voltage[row, col]``.
        """
        if not (0 <= row < self.n and 0 <= col < self.m):
            raise IndexError(f"cell ({row}, {col}) outside {self.n}x{self.m}")
        v_rows = np.full(self.n, v_prog / 2.0)
        v_rows[row] = v_prog
        v_cols = np.full(self.m, v_prog / 2.0)
        v_cols[col] = 0.0
        return self.solve(v_rows, v_cols)

    def program_voltages_batch(
        self, cells: np.ndarray, v_prog: float
    ) -> NodalSolution:
        """Batched V/2-scheme solves, one per selected cell.

        Args:
            cells: Selected cells as ``(B, 2)`` ``(row, col)`` pairs
                (or any sequence of pairs).
            v_prog: Nominal programming voltage.

        Returns:
            A batched :class:`NodalSolution`; the delivered voltage of
            probe ``b`` is ``device_voltage[b, rows[b], cols[b]]``.
        """
        cells = np.asarray(cells, dtype=int)
        cells = np.atleast_2d(cells)
        if cells.ndim != 2 or cells.shape[1] != 2:
            raise ValueError(
                f"cells must be (B, 2) (row, col) pairs, got {cells.shape}"
            )
        rows, cols = cells[:, 0], cells[:, 1]
        if np.any((rows < 0) | (rows >= self.n)) or np.any(
            (cols < 0) | (cols >= self.m)
        ):
            raise IndexError(
                f"cell outside {self.n}x{self.m} in program batch"
            )
        batch = cells.shape[0]
        v_rows = np.full((batch, self.n), v_prog / 2.0)
        v_rows[np.arange(batch), rows] = v_prog
        v_cols = np.full((batch, self.m), v_prog / 2.0)
        v_cols[np.arange(batch), cols] = 0.0
        return self.solve_batch(v_rows, v_cols)

    def ideal_read(self, x: np.ndarray, v_read: float = 1.0) -> np.ndarray:
        """Zero-wire-resistance reference: ``I = v_read * (x @ G)``."""
        x = np.asarray(x, dtype=float)
        return v_read * (x @ self.g)
