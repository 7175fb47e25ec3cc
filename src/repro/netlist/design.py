"""The frozen circuit database used by every placement subsystem.

A :class:`Design` is an immutable-topology, mutable-position view of a
netlist ``H = (V, E)``: cells carry sizes and center coordinates, pins
carry per-cell offsets, and nets are stored in CSR form so wirelength and
congestion kernels can run vectorized over numpy arrays.

Construct designs through :class:`repro.netlist.builder.DesignBuilder` or
load them with :mod:`repro.netlist.bookshelf`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Rect
from .technology import Technology


@dataclass(frozen=True)
class Blockage:
    """A routing obstruction occupying ``rect`` on metal layer ``layer``.

    Blockages model pin obstructions, power/ground straps, and macro
    keep-outs; the capacity model (paper Eq. 8) subtracts the routing
    tracks they consume from the affected Gcells.
    """

    rect: Rect
    layer: int


class Design:
    """A placed (or placeable) netlist with structure-of-arrays access.

    Topology (cells, pins, nets) is frozen after construction; only the
    position arrays ``x`` and ``y`` (cell centers) mutate during placement.

    Attributes:
        name: design name.
        technology: the :class:`Technology` this design targets.
        die: placement region.
        cell_names: per-cell names.
        w, h: per-cell widths/heights.
        x, y: per-cell center coordinates (mutable).
        movable: boolean mask of movable cells.
        is_macro: boolean mask of macro cells.
        net_names: per-net names.
        net_start: CSR offsets into ``net_pins`` (length ``num_nets + 1``).
        net_pins: pin indices grouped by net.
        pin_cell: owning cell of each pin.
        pin_net: owning net of each pin.
        pin_dx, pin_dy: pin offsets from the owning cell's center.
        blockages: routing obstructions.
    """

    def __init__(
        self,
        name: str,
        technology: Technology,
        die: Rect,
        cell_names: list,
        w: np.ndarray,
        h: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        movable: np.ndarray,
        is_macro: np.ndarray,
        net_names: list,
        net_start: np.ndarray,
        net_pins: np.ndarray,
        pin_cell: np.ndarray,
        pin_net: np.ndarray,
        pin_dx: np.ndarray,
        pin_dy: np.ndarray,
        blockages: list | None = None,
        cell_pin_index: tuple | None = None,
    ) -> None:
        self.name = name
        self.technology = technology
        self.die = die
        self.cell_names = list(cell_names)
        self.w = np.asarray(w, dtype=np.float64)
        self.h = np.asarray(h, dtype=np.float64)
        self.x = np.asarray(x, dtype=np.float64).copy()
        self.y = np.asarray(y, dtype=np.float64).copy()
        self.movable = np.asarray(movable, dtype=bool)
        self.is_macro = np.asarray(is_macro, dtype=bool)
        self.net_names = list(net_names)
        self.net_start = np.asarray(net_start, dtype=np.int64)
        self.net_pins = np.asarray(net_pins, dtype=np.int64)
        self.pin_cell = np.asarray(pin_cell, dtype=np.int64)
        self.pin_net = np.asarray(pin_net, dtype=np.int64)
        self.pin_dx = np.asarray(pin_dx, dtype=np.float64)
        self.pin_dy = np.asarray(pin_dy, dtype=np.float64)
        self.blockages = list(blockages or [])
        if cell_pin_index is not None:
            # Zero-copy construction (repro.runtime.shm): reuse a
            # prebuilt CSR index instead of re-sorting the pins.
            self._cellpin_start, self._cellpin_list = cell_pin_index
        else:
            self._cellpin_start, self._cellpin_list = self._build_cell_pin_index()
        self._check_consistency()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_cell_pin_index(self):
        """CSR index mapping each cell to its pin ids."""
        num_pins = len(self.pin_cell)
        order = np.argsort(self.pin_cell, kind="stable")
        counts = np.bincount(self.pin_cell, minlength=self.num_cells)
        start = np.zeros(self.num_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=start[1:])
        return start, order.astype(np.int64)

    def _check_consistency(self) -> None:
        n, m, p = self.num_cells, self.num_nets, self.num_pins
        if not (
            len(self.w) == len(self.h) == len(self.x) == len(self.y)
            == len(self.movable) == len(self.is_macro) == n
        ):
            raise ValueError("cell array length mismatch")
        if len(self.net_start) != m + 1 or self.net_start[-1] != p:
            raise ValueError("net CSR structure inconsistent with pin count")
        if len(self.net_pins) != p or len(self.pin_net) != p:
            raise ValueError("pin array length mismatch")
        if p and (self.pin_cell.min() < 0 or self.pin_cell.max() >= n):
            raise ValueError("pin_cell index out of range")
        if p and (self.pin_net.min() < 0 or self.pin_net.max() >= m):
            raise ValueError("pin_net index out of range")

    # ------------------------------------------------------------------
    # Sizes and areas
    # ------------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return len(self.cell_names)

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def num_pins(self) -> int:
        return len(self.pin_cell)

    @property
    def num_movable(self) -> int:
        return int(self.movable.sum())

    @property
    def num_macros(self) -> int:
        return int(self.is_macro.sum())

    @property
    def movable_area(self) -> float:
        """Total area of movable cells."""
        return float((self.w[self.movable] * self.h[self.movable]).sum())

    def cell_rect(self, cell: int) -> Rect:
        """The bounding rectangle of ``cell`` at its current position."""
        hw, hh = self.w[cell] / 2.0, self.h[cell] / 2.0
        return Rect(
            self.x[cell] - hw, self.y[cell] - hh, self.x[cell] + hw, self.y[cell] + hh
        )

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def pins_of_net(self, net: int) -> np.ndarray:
        """Pin indices of ``net``."""
        return self.net_pins[self.net_start[net] : self.net_start[net + 1]]

    def pins_of_cell(self, cell: int) -> np.ndarray:
        """Pin indices owned by ``cell``."""
        return self._cellpin_list[self._cellpin_start[cell] : self._cellpin_start[cell + 1]]

    def net_degrees(self) -> np.ndarray:
        """Pin counts of every net."""
        return np.diff(self.net_start)

    def pin_positions(self) -> tuple:
        """Current absolute pin coordinates ``(px, py)``."""
        px = self.x[self.pin_cell] + self.pin_dx
        py = self.y[self.pin_cell] + self.pin_dy
        return px, py

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def hpwl(self) -> float:
        """Total half-perimeter wirelength over all nets."""
        if self.num_pins == 0:
            return 0.0
        xlo, ylo, xhi, yhi = self.net_bboxes()
        nonempty = np.diff(self.net_start) > 0
        return float((xhi - xlo)[nonempty].sum() + (yhi - ylo)[nonempty].sum())

    def net_bboxes(self) -> tuple:
        """Per-net bounding boxes as arrays ``(xlo, ylo, xhi, yhi)``.

        Degenerate (``degree < 1``) nets yield zero-size boxes at the die
        center so downstream vectorized code never sees NaNs.
        """
        m = self.num_nets
        ids = np.concatenate((self.pin_net, self.pin_net + m))
        lo, hi = net_extents(np.concatenate(self.pin_positions()), ids, 2 * m)
        xlo, ylo, xhi, yhi = lo[:m], lo[m:], hi[:m], hi[m:]
        empty = np.diff(self.net_start) == 0
        xlo[empty] = xhi[empty] = self.die.center.x
        ylo[empty] = yhi[empty] = self.die.center.y
        return xlo, ylo, xhi, yhi

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------

    def row_ys(self) -> np.ndarray:
        """Bottom y coordinate of every standard-cell row inside the die."""
        rh = self.technology.row_height
        num_rows = int(np.floor((self.die.yhi - self.die.ylo) / rh))
        return self.die.ylo + rh * np.arange(num_rows)

    # ------------------------------------------------------------------
    # Position snapshots
    # ------------------------------------------------------------------

    def snapshot_positions(self) -> tuple:
        """Copies of the current position arrays ``(x, y)``."""
        return self.x.copy(), self.y.copy()

    def restore_positions(self, x: np.ndarray, y: np.ndarray) -> None:
        """Restore positions from a prior :meth:`snapshot_positions`."""
        if len(x) != self.num_cells or len(y) != self.num_cells:
            raise ValueError("snapshot size mismatch")
        self.x[:] = x
        self.y[:] = y

    def __repr__(self) -> str:
        return (
            f"Design({self.name!r}, cells={self.num_cells}, "
            f"nets={self.num_nets}, pins={self.num_pins}, "
            f"macros={self.num_macros})"
        )


def net_extents(values: np.ndarray, net_ids: np.ndarray, num_nets: int) -> tuple:
    """Per-net ``(lo, hi)`` of pin ``values`` grouped by ``net_ids``;
    ``(+inf, -inf)`` for nets without pins.  ``ufunc.at`` extrema are
    exact in any pin order, so both axes may share one id range."""
    lo = np.full(num_nets, np.inf)
    hi = np.full(num_nets, -np.inf)
    np.minimum.at(lo, net_ids, values)
    np.maximum.at(hi, net_ids, values)
    return lo, hi
