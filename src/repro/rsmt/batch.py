"""Batched RSMT construction over many nets at once.

The congestion estimator and the evaluation router both decompose every
net of the design per round; calling :func:`repro.rsmt.build_rsmt` in a
Python loop makes tree construction the dominant cost of both.  This
module packs all point sets into one CSR batch and dispatches to
:func:`repro.kernels.steiner_batch`, whose vectorized backend groups
nets by degree and runs Prim on whole ``(batch, n, n)`` tensors.

The reference backend is the historical per-net loop, so
``REPRO_KERNELS=reference`` reproduces the old behavior exactly.
Both callers go through :func:`net_gcells` (per-net Gcell dedup) and
:func:`gcell_rsmt_batch` (trees packed as one :class:`TopologyBatch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from .topology import Topology


def build_rsmt_batch(x, y, start, steinerize_max_degree: int = 64) -> list:
    """Near-minimal RSMTs for CSR-packed per-net point sets.

    Args:
        x, y: concatenated point coordinates of every net.  Each net's
            points must be deduplicated (both call sites dedup Gcells
            before building trees).
        start: CSR offsets, length ``nets + 1``; net ``i`` owns points
            ``start[i]:start[i + 1]``.
        steinerize_max_degree: per-net cutoff above which the plain RMST
            is kept (same contract as :func:`repro.rsmt.build_rsmt`).

    Returns:
        One :class:`Topology` per net, in net order, equal to calling
        :func:`build_rsmt` on each slice.
    """
    start = np.asarray(start, dtype=np.int64)
    parts = kernels.steiner_batch(
        np.asarray(x, dtype=np.float64),
        np.asarray(y, dtype=np.float64),
        start,
        steinerize_max_degree,
    )
    return [Topology(px, py, is_pin, edges) for px, py, is_pin, edges in parts]


@dataclass
class TopologyBatch:
    """RSMT decompositions of many nets on the Gcell grid, CSR-packed.

    Entry ``i`` (net ``net[i]``) owns the points from ``point_start[i]``
    (Gcell ``gx``/``gy``; ``is_pin`` false at Steiner points) and the
    edges from ``edge_start[i]`` (rows of global point indices).
    """

    net: np.ndarray
    point_start: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    is_pin: np.ndarray
    edge_start: np.ndarray
    edges: np.ndarray

    def __len__(self) -> int:
        return len(self.net)

    def take(self, entries: np.ndarray) -> "TopologyBatch":
        """Sub-batch of ``entries``, in that order, gathered by slices."""
        ps, es = self.point_start, self.edge_start
        point_start, points = csr_ranges(ps[entries], np.diff(ps)[entries])
        edge_start, edges = csr_ranges(es[entries], np.diff(es)[entries])
        shift = np.repeat(point_start[:-1] - ps[entries], np.diff(edge_start))
        return TopologyBatch(
            self.net[entries], point_start, self.gx[points], self.gy[points],
            self.is_pin[points], edge_start, self.edges[edges] + shift[:, None],
        )


_NO_EDGES = np.zeros((0, 2), dtype=np.int64)


def csr_ranges(lo: np.ndarray, lens) -> tuple:
    """CSR offsets of runs ``lo[i] : lo[i] + lens[i]`` and their
    concatenated indices."""
    start = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
    return start, np.repeat(lo - start[:-1], lens) + np.arange(start[-1])


def net_gcells(pin_cell, net_start, net_pins, nets, span: int) -> tuple:
    """Distinct Gcells of each of ``nets``, as CSR ``(start, cells)``.

    ``pin_cell`` is each pin's flat Gcell id (``< span``).  One global
    ``np.unique`` of composite ``(position in nets, Gcell)`` keys yields
    each net's distinct Gcells as a contiguous ascending run.
    """
    off, gather = csr_ranges(net_start[nets], net_start[nets + 1] - net_start[nets])
    local = np.repeat(np.arange(len(nets), dtype=np.int64), np.diff(off))
    ukey = np.unique(local * np.int64(span) + pin_cell[net_pins[gather]])
    start, _ = csr_ranges(0, np.bincount(ukey // span, minlength=len(nets)))
    return start, ukey % span


def gcell_rsmt_batch(start, cells, rows, ny: int) -> TopologyBatch:
    """RSMTs of the ``rows`` of a CSR ``(start, cells)`` of per-net flat
    Gcell ids, packed as one :class:`TopologyBatch` (``net`` = ``rows``)."""
    start, gather = csr_ranges(start[rows], np.diff(start)[rows])
    cells = cells[gather]
    trees = build_rsmt_batch(
        (cells // ny).astype(np.float64), (cells % ny).astype(np.float64), start
    ) if len(rows) else []
    point_start, _ = csr_ranges(0, [len(t.x) for t in trees])
    edge_start, _ = csr_ranges(0, [len(t.edges) for t in trees])
    # A leading empty tree keeps the concatenations typed when none is built.
    trees.insert(0, Topology(np.zeros(0), np.zeros(0), np.zeros(0, bool), _NO_EDGES))
    shift = np.repeat(point_start[:-1], np.diff(edge_start))[:, None]
    return TopologyBatch(
        np.asarray(rows, dtype=np.int64),
        point_start,
        np.round(np.concatenate([t.x for t in trees])).astype(np.int64),
        np.round(np.concatenate([t.y for t in trees])).astype(np.int64),
        np.concatenate([t.is_pin for t in trees]),
        edge_start,
        np.concatenate([t.edges for t in trees]) + shift,
    )
