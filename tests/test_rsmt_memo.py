"""Steinerization against its reference loop, and the tree memo.

:mod:`repro.rsmt.steiner` keeps each vertex's best median insertion
between passes; ``rsmt_oracle`` rescans every vertex every pass.  Trees
must match in points, pin flags, edges and dtypes, built by
``kernels.steiner_batch`` ("vectorized") and by its per-net loop in
``kernels_oracle`` ("reference").  :class:`repro.rsmt.batch.TreeMemo`
shares trees by shape in every caller: a hit must equal a fresh build.
Tests swap in their own memo for the process's ``batch._MEMO``; a memo
of zero bytes stores nothing, so every batch through it is a fresh
build (one per distinct shape).
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api, kernels, obs
from repro.benchgen import make_design
from repro.eco import EcoSession, ResizeCell
from repro.router import GlobalRouter
from repro.rsmt import batch, build_rsmt
from repro.rsmt.batch import TreeMemo, build_rsmt_batch, gcell_rsmt_batch

from . import kernels_oracle
from .rsmt_oracle import oracle_build_rsmt

FIELDS = ("x", "y", "is_pin", "edges")
#: The batch builders trees are checked under: the kernel, its loop.
BUILDERS = ("vectorized", "reference")
BATCH_FIELDS = ("net", "point_start", "gx", "gy", "is_pin", "edge_start", "edges")


def assert_same_arrays(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@st.composite
def tie_heavy_nets(draw, min_size=4, max_size=20):
    """Distinct points on a small integer grid: many equal distances."""
    side = draw(st.integers(3, 9))
    cells = draw(st.lists(
        st.tuples(st.integers(0, side - 1), st.integers(0, side - 1)),
        min_size=min_size, max_size=max_size, unique=True,
    ).filter(lambda pts: len(pts) >= min_size))
    return np.array(cells, dtype=np.float64).reshape(-1, 2)


def use_builder(monkeypatch, builder: str) -> None:
    """Build trees with the kernel or, for "reference", its loop."""
    if builder == "reference":
        kernels_oracle.swap_in(monkeypatch, ["steiner_batch"])


@pytest.mark.parametrize("builder", BUILDERS)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nets=st.lists(tie_heavy_nets(), min_size=1, max_size=6))
def test_steinerization_matches_the_oracle(builder, nets):
    start = np.concatenate(([0], np.cumsum([len(p) for p in nets])))
    points = np.concatenate(nets)
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_builder(monkeypatch, builder)
        trees = build_rsmt_batch(points[:, 0], points[:, 1], start)
    for pts, tree in zip(nets, trees):
        assert_same_arrays(tree, oracle_build_rsmt(pts[:, 0], pts[:, 1]), FIELDS)


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.25, 3.0, 7.75]),
              st.sampled_from([0.0, 2.5, 3.0, 4.125])),
    min_size=4, max_size=14, unique=True,
))
def test_fractional_ties_match_the_oracle(points):
    x, y = np.array(points).T
    assert_same_arrays(build_rsmt(x, y), oracle_build_rsmt(x, y), FIELDS)


def gcell_nets(seed, nets=40, nx=12, ny=9, shapes=None):
    """CSR ``(start, cells)`` of per-net sorted distinct flat Gcell ids;
    ``shapes`` repeats a few point patterns at other corners."""
    rng = np.random.default_rng(seed)
    groups = []
    for i in range(nets):
        if shapes is not None:
            shape = shapes[i % len(shapes)]
            span = shape.max(axis=0)
            corner = rng.integers(0, [nx - span[0], ny - span[1]])
            pts = shape + corner
        else:
            size = int(rng.integers(2, 16))
            flat = rng.choice(nx * ny, size=size, replace=False)
            pts = np.stack([flat // ny, flat % ny], axis=1)
        groups.append(np.unique(pts[:, 0] * ny + pts[:, 1]))
    start = np.concatenate(([0], np.cumsum([len(g) for g in groups])))
    return start, np.concatenate(groups), np.arange(nets), ny


@pytest.fixture
def use_memo(monkeypatch):
    """Install a memo as the process's for the rest of the test."""
    def use(memo: TreeMemo) -> TreeMemo:
        monkeypatch.setattr(batch, "_MEMO", memo)
        return memo

    return use


@pytest.fixture
def fresh(use_memo):
    """``gcell_rsmt_batch`` through a memo that stores nothing."""
    def build(*args):
        use_memo(TreeMemo(max_bytes=0))
        return gcell_rsmt_batch(*args)

    return build


def record_builds(monkeypatch) -> list:
    """Sizes of the point sets every later ``steiner_batch`` call builds."""
    seen = []
    build = kernels.steiner_batch

    def recording(x, y, start, max_degree):
        seen.extend(np.diff(start).tolist())
        return build(x, y, start, max_degree)

    monkeypatch.setattr(kernels, "steiner_batch", recording)
    return seen


@pytest.fixture
def built_degrees(monkeypatch):
    return record_builds(monkeypatch)


SHAPES = [np.array(s) for s in (
    [[0, 0], [2, 1], [1, 3], [3, 3]],
    [[0, 2], [1, 0], [2, 2], [4, 1], [4, 4], [0, 4]],
    [[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]],
)]


@pytest.mark.parametrize("builder", BUILDERS)
def test_hits_equal_fresh_builds(builder, monkeypatch, fresh, use_memo):
    use_builder(monkeypatch, builder)
    built_degrees = record_builds(monkeypatch)
    args = gcell_nets(3, nets=30, shapes=SHAPES)
    want = fresh(*args)
    built_degrees.clear()
    memo = use_memo(TreeMemo())
    cold = gcell_rsmt_batch(*args)
    assert sorted(built_degrees) == [4, 5, 6]  # one build per shape
    built_degrees.clear()
    warm = gcell_rsmt_batch(*args)
    assert built_degrees == []  # three shapes at thirty corners
    assert len(memo) == 3
    assert_same_arrays(cold, want, BATCH_FIELDS)
    assert_same_arrays(warm, want, BATCH_FIELDS)


def test_batch_builds_each_shape_once(built_degrees, fresh):
    """Nets of one shape share one build inside a batch, with no memo to
    keep it, and every net still gets the oracle's tree."""
    start, cells, rows, ny = args = gcell_nets(5, nets=24, shapes=SHAPES)
    got = fresh(*args)
    assert sorted(built_degrees) == [4, 5, 6]
    for i in rows:
        gx, gy = np.divmod(cells[start[i] : start[i + 1]], ny)
        want = oracle_build_rsmt(gx.astype(np.float64), gy.astype(np.float64))
        lo, hi = got.point_start[i : i + 2]
        assert np.array_equal(got.gx[lo:hi], want.x)
        assert np.array_equal(got.gy[lo:hi], want.y)
        assert np.array_equal(got.is_pin[lo:hi], want.is_pin)
        edges = got.edges[got.edge_start[i] : got.edge_start[i + 1]] - lo
        assert np.array_equal(edges, want.edges)


def test_random_nets_hit_and_miss_exactly(fresh, use_memo):
    memo = TreeMemo()
    for seed in range(4):
        args = gcell_nets(seed, nets=60)
        want = fresh(*args)
        use_memo(memo)
        assert_same_arrays(gcell_rsmt_batch(*args), want, BATCH_FIELDS)
        assert_same_arrays(gcell_rsmt_batch(*args), want, BATCH_FIELDS)
    # Every net is stored, two-Gcell ones included (one int64 per point).
    assert min(map(len, memo._entries)) == 2 * 8


def test_stored_arrays_are_read_only(use_memo):
    memo = use_memo(TreeMemo())
    gcell_rsmt_batch(*gcell_nets(1))
    assert len(memo)
    for key in memo._entries:
        tree = memo.get(key)
        for name in FIELDS:
            array = getattr(tree, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[...] = 0


def memo_hits(tracer) -> float:
    return tracer.metrics().get("rsmt/memo_hits", {}).get("value", 0.0)


def test_active_in_every_caller(use_memo, built_degrees):
    """A plain placement, the router and an ECO delta each store trees
    and take later ones from the memo, with no scope to enter."""
    config = api.RunConfig(scale=0.0015)
    design = make_design("OR1200", config.scale)
    memo = use_memo(TreeMemo())
    tracer = obs.Tracer()
    with obs.tracing(tracer):
        api.run(design, config=config)
    assert len(memo) > 0 and memo_hits(tracer) > 0  # padding rounds repeat shapes

    memo = use_memo(TreeMemo())
    GlobalRouter(design).run()
    assert len(memo) > 0
    built_degrees.clear()
    tracer = obs.Tracer()
    with obs.tracing(tracer):
        GlobalRouter(design).run()
    assert built_degrees == [] and memo_hits(tracer) > 0  # every tree a hit

    session = EcoSession("OR1200", config=config)
    memo = use_memo(TreeMemo())
    session.start()
    assert len(memo) > 0
    cell = int(np.flatnonzero(session.design.movable & ~session.design.is_macro)[0])
    tracer = obs.Tracer()
    with obs.tracing(tracer):
        session.apply(ResizeCell(cell=cell, width=float(session.design.w[cell]) + 3.0))
    assert memo_hits(tracer) > 0


def test_byte_ceiling_holds(fresh, use_memo):
    memo = TreeMemo(max_bytes=3000)
    for seed in range(5):
        args = gcell_nets(seed, nets=50)
        want = fresh(*args)
        use_memo(memo)
        assert_same_arrays(gcell_rsmt_batch(*args), want, BATCH_FIELDS)
        assert memo.nbytes <= memo.max_bytes
    assert 0 < len(memo) and memo.nbytes > memo.max_bytes // 2
    size = memo.nbytes
    assert not memo.put(b"\0" * 4000, memo.get(next(iter(memo._entries))))
    assert memo.nbytes == size


def test_concurrent_batches_keep_exact_bytes(fresh, use_memo):
    # Thread-mode service workers share the process's memo.
    cases = [gcell_nets(seed, nets=30) for seed in range(4)]
    want = [fresh(*args) for args in cases]
    memo = use_memo(TreeMemo())
    failures = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker(offset):
            for i in [offset, *range(len(cases))]:
                got = gcell_rsmt_batch(*cases[i])
                if any(not np.array_equal(getattr(got, f), getattr(want[i], f))
                       for f in BATCH_FIELDS):
                    failures.append(i)

        threads = [threading.Thread(target=worker, args=(i % 4,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    stored = [memo.get(key) for key in memo._entries]
    assert memo.nbytes == sum(
        sys.getsizeof(key) + sum(sys.getsizeof(getattr(t, f)) for f in FIELDS)
        for key, t in zip(memo._entries, stored)
    )
