"""Replay of the strategy-independent prefix of a global placement.

Strategy exploration places one design many times and changes only the
routability strategy between runs.  A hook reads its strategy only to
decide whether to fire, and a hook that returns ``False`` changes
nothing the placer reads (the hook contract of
:class:`repro.placer.engine.GlobalPlacer`).  So every iteration up to
and including the first one after which a hook fires is a function of
the design, the engine parameters and the start-point choice alone:
:func:`key` hashes exactly those.

Inside :func:`reuse` the engine records that prefix on a miss and, on a
hit, replays it bit for bit instead of recomputing it (see
``GlobalPlacer._run``).  Outside it the engine neither hashes nor
records anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

import numpy as np


#: Byte ceiling of a store; a trajectory that would pass it is not kept.
STORE_MAX_BYTES = 64 << 20


class Step(NamedTuple):
    """The engine state right after one Nesterov step, before the hooks."""

    u: np.ndarray
    overflow: float
    hpwl: float
    penalty_factor: float
    gamma: float
    alpha: float
    a: float
    grad_evals: int


class Trajectory(NamedTuple):
    """A recorded prefix: its steps, the reference HPWL change of the
    penalty schedule, and the optimizer's reference point ``v`` and its
    gradient after the last step (to resume past the record)."""

    hpwl_ref: float
    steps: tuple
    v: np.ndarray
    g_v: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(s.u.nbytes for s in self.steps) + self.v.nbytes + self.g_v.nbytes


class PrefixStore:
    """Thread-safe map from :func:`key` to the longest trajectory seen."""

    def __init__(self, max_bytes: int = STORE_MAX_BYTES) -> None:
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: dict = {}
        self._lock = threading.Lock()

    def get(self, key: bytes) -> "Trajectory | None":
        with self._lock:
            return self._entries.get(key)

    def put(self, key: bytes, trajectory: Trajectory) -> bool:
        """Keep ``trajectory`` if it is longer than the stored one and fits
        under :attr:`max_bytes`; its arrays become read-only."""
        size = trajectory.nbytes
        with self._lock:
            old = self._entries.get(key)
            if old is not None and len(old.steps) >= len(trajectory.steps):
                return False
            freed = old.nbytes if old is not None else 0
            if self.nbytes - freed + size > self.max_bytes:
                return False
            for array in (trajectory.v, trajectory.g_v, *(s.u for s in trajectory.steps)):
                array.flags.writeable = False
            self._entries[key] = trajectory
            self.nbytes += size - freed
            return True

    def _after_fork(self) -> None:
        # A forked child may inherit the lock held by another thread.
        self._lock = threading.Lock()


#: The process's store, shared by every :func:`reuse` block.
_STORE = PrefixStore()
_ACTIVE: ContextVar = ContextVar("repro_gp_prefix_store", default=None)
os.register_at_fork(after_in_child=_STORE._after_fork)


@contextmanager
def reuse(store: PrefixStore | None = None):
    """Let global placements in this context record and replay prefixes
    through ``store`` (default: the process's store)."""
    store = _STORE if store is None else store
    token = _ACTIVE.set(store)
    try:
        yield store
    finally:
        _ACTIVE.reset(token)


def active() -> "PrefixStore | None":
    """The store of the enclosing :func:`reuse` block, if any."""
    return _ACTIVE.get()


def key(design, params, seed_positions: bool) -> bytes:
    """Digest of everything a global placement reads before a hook fires."""
    digest = hashlib.blake2b(digest_size=32)
    die = design.die
    meta = {
        "die": [die.xlo, die.ylo, die.xhi, die.yhi],
        "params": params.to_dict(),
        "seed_positions": bool(seed_positions),
    }
    digest.update(json.dumps(meta, sort_keys=True).encode())
    for array in (
        design.w, design.h, design.x, design.y, design.movable, design.is_macro,
        design.net_start, design.net_pins, design.pin_cell, design.pin_net,
        design.pin_dx, design.pin_dy,
    ):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.data)
    return digest.digest()
