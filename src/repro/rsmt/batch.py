"""Batched RSMT construction over many nets at once.

The congestion estimator and the evaluation router both decompose every
net of the design per round; calling :func:`repro.rsmt.build_rsmt` in a
Python loop makes tree construction the dominant cost of both.  This
module packs all point sets into one CSR batch and hands it to
:func:`repro.kernels.steiner_batch`, which groups nets by degree and
runs Prim on whole ``(batch, n, n)`` tensors; its trees equal
:func:`repro.rsmt.build_rsmt` on each net.

Both callers go through :func:`net_gcells` (per-net Gcell dedup) and
:func:`gcell_rsmt_batch` (trees packed as one :class:`TopologyBatch`).
Padding rounds, strategy trials and the router rebuild mostly the same
nets, so every tree is shared by shape through one bounded per-process
:class:`TreeMemo`, and a batch builds each shape it misses once.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .. import kernels, obs
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


_NO_EDGES = np.zeros((0, 2), dtype=np.int64)
_EMPTY = Topology(np.zeros(0), np.zeros(0), np.zeros(0, bool), _NO_EDGES)


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
    Gcell ids, packed as one :class:`TopologyBatch` (``net`` = ``rows``).
    Every row holds at least one Gcell (its one caller,
    :func:`repro.router.router.net_topologies`, passes nets spanning two
    or more).

    Each tree is built at its net's lower-left Gcell and moved back.
    Gcell coordinates are small integers, so Prim's distances, the
    Steiner medians and every tie-break commute with that translation:
    it moves no bit, and it lets nets of the same shape share one tree,
    within the batch and through the process's :class:`TreeMemo`.
    """
    start, gather = csr_ranges(start[rows], np.diff(start)[rows])
    counts = np.diff(start)
    gx, gy = np.divmod(cells[gather], ny)
    corner_x, corner_y = _corner(gx, start), _corner(gy, start)
    dx = gx - np.repeat(corner_x, counts)
    dy = gy - np.repeat(corner_y, counts)
    trees = [None] * len(rows)
    memo = _MEMO
    missing = _recall(memo, trees, start, dx, dy)
    if missing:
        first = np.fromiter(
            (positions[0] for positions in missing.values()),
            dtype=np.int64, count=len(missing),
        )
        sub_start, sub = csr_ranges(start[first], counts[first])
        built = build_rsmt_batch(
            dx[sub].astype(np.float64), dy[sub].astype(np.float64), sub_start
        )
        for (key, positions), tree in zip(missing.items(), built):
            memo.put(key, tree)
            for i in positions:
                trees[i] = tree
    point_start, _ = csr_ranges(0, [len(t.x) for t in trees])
    edge_start, _ = csr_ranges(0, [len(t.edges) for t in trees])
    # A leading empty tree keeps the concatenations typed when none is built.
    trees.insert(0, _EMPTY)
    sizes = np.diff(point_start)
    shift = np.repeat(point_start[:-1], np.diff(edge_start))[:, None]
    return TopologyBatch(
        np.asarray(rows, dtype=np.int64),
        point_start,
        np.round(np.concatenate([t.x for t in trees])).astype(np.int64)
        + np.repeat(corner_x, sizes),
        np.round(np.concatenate([t.y for t in trees])).astype(np.int64)
        + np.repeat(corner_y, sizes),
        np.concatenate([t.is_pin for t in trees]),
        edge_start,
        np.concatenate([t.edges for t in trees]) + shift,
    )


def _corner(coord: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per-net minimum of ``coord`` over CSR ``start`` (no net is empty)."""
    if len(coord) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.minimum.reduceat(coord, start[:-1])


def _recall(memo, trees: list, start, dx, dy) -> dict:
    """Fill ``trees`` from ``memo``; return the memo keys left to build,
    each with its positions in ascending order."""
    # (dx, dy) packed in one int64: Gcell coordinates stay below 2**31.
    packed = (dx << 32 | dy).tobytes()
    missing = {}
    hits = 0
    for i, (lo, hi) in enumerate(zip(start[:-1].tolist(), start[1:].tolist())):
        key = packed[8 * lo : 8 * hi]
        tree = memo.get(key)
        if tree is None:
            missing.setdefault(key, []).append(i)
        else:
            trees[i] = tree
            hits += 1
    obs.counter("rsmt/memo_hits").inc(hits)
    return missing


#: Byte ceiling of a memo (key bytes plus tree arrays, object headers
#: included); once a tree would pass it, new shapes are not stored.
MEMO_MAX_BYTES = 8 << 20


class TreeMemo:
    """Trees by shape, as :func:`gcell_rsmt_batch` builds them: keyed by
    a net's Gcell points translated to their lower-left corner (packed
    bytes), so a hit is exactly the tree a fresh build returns.
    Thread-safe; stored arrays are read-only."""

    def __init__(self, max_bytes: int = MEMO_MAX_BYTES) -> None:
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key) -> "Topology | None":
        return self._entries.get(key)

    def put(self, key, tree: Topology) -> bool:
        """Keep a copy of ``tree`` under ``key`` unless the key is known
        or the copy would pass :attr:`max_bytes`."""
        arrays = [np.array(a) for a in (tree.x, tree.y, tree.is_pin, tree.edges)]
        size = sys.getsizeof(key) + sum(map(sys.getsizeof, arrays))
        with self._lock:
            if key in self._entries or self.nbytes + size > self.max_bytes:
                return False
            for array in arrays:
                array.flags.writeable = False
            self._entries[key] = Topology(*arrays)
            self.nbytes += size
            return True

    def _after_fork(self) -> None:
        # A forked child may inherit the lock held by another thread.
        self._lock = threading.Lock()


#: The process's memo, shared by every caller of :func:`gcell_rsmt_batch`.
_MEMO = TreeMemo()
os.register_at_fork(after_in_child=_MEMO._after_fork)
