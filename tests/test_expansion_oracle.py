"""The detour expansion on Python floats equals the array oracle bit for bit.

:func:`repro.core.expansion.expand_demand` runs its segment loop on flat
lists and reproduces numpy's float64 summation order by hand; the
per-segment array form in ``gp_oracle`` is the reference.  Maps are
compared with ``tobytes()``, so even the sign of a zero must match.
"""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.demand import DemandResult, StraightSegments
from repro.core.expansion import ExpansionParams, _numpy_sum, expand_demand
from repro.router.grid import RoutingGrid

from .gp_oracle import oracle_expand_demand


def make_case(nx, ny, segments, seed, negative_zeros=True):
    """A grid and demand whose maps sit around capacity: congested rows
    next to rows with zero and negative spare, exact ties and -0.0."""
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(4):
        values = rng.choice([0.0, 1.0, 2.0, 3.5], size=(nx, ny)) + rng.normal(
            0.0, 1.0, size=(nx, ny)
        ) * rng.integers(0, 2, size=(nx, ny))
        if negative_zeros:
            values[rng.random((nx, ny)) < 0.05] = -0.0
        maps.append(values)
    cap_h, cap_v, dmd_h, dmd_v = maps
    cap_h, cap_v = np.abs(cap_h), np.abs(cap_v)
    columns = [np.array(c) for c in zip(*segments)] if segments else [np.zeros(0)] * 6
    segs = StraightSegments(
        columns[0].astype(bool), *(c.astype(np.int64) for c in columns[1:4]),
        columns[4].astype(bool), columns[5].astype(bool),
    )
    grid = RoutingGrid(nx, ny, 1.0, 1.0, 0.0, 0.0, cap_h, cap_v)
    demand = DemandResult(dmd_h, dmd_v, np.zeros((nx, ny)), segs)
    return grid, demand


def assert_expands_like_oracle(grid, demand, params):
    want = copy.deepcopy(demand)
    oracle_expand_demand(grid, want, params)
    expand_demand(grid, demand, params)
    assert demand.dmd_h.tobytes() == want.dmd_h.tobytes()
    assert demand.dmd_v.tobytes() == want.dmd_v.tobytes()


@st.composite
def cases(draw):
    nx = draw(st.integers(1, 210))
    ny = draw(st.integers(1, 12)) if draw(st.booleans()) else draw(st.integers(1, 210))
    segments = []
    for _ in range(draw(st.integers(1, 12))):
        horizontal = draw(st.booleans())
        along, across = (nx, ny) if horizontal else (ny, nx)
        length = draw(st.integers(1, min(along, 200)))
        lo = draw(st.integers(0, along - length))
        segments.append((
            horizontal, draw(st.integers(0, across - 1)), lo, lo + length - 1,
            draw(st.booleans()), draw(st.booleans()),
        ))
    params = ExpansionParams(
        radius=draw(st.integers(0, 4)),
        keep_weight=draw(st.sampled_from([0.0, 0.25, 1.0, 0.1])),
    )
    return nx, ny, segments, draw(st.integers(0, 2**32 - 1)), params


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_random_maps_match_the_oracle(case):
    nx, ny, segments, seed, params = case
    grid, demand = make_case(nx, ny, segments, seed)
    assert_expands_like_oracle(grid, demand, params)


@pytest.mark.parametrize("lo_is_pin, hi_is_pin", list(itertools.product([False, True], repeat=2)))
@pytest.mark.parametrize("horizontal", [False, True])
@pytest.mark.parametrize("row", [0, 1, 4])  # clipped at the edge, then not
def test_every_endpoint_kind_and_edge(lo_is_pin, hi_is_pin, horizontal, row):
    nx, ny = (9, 5) if horizontal else (5, 9)
    segments = [(horizontal, row, 2, 6, lo_is_pin, hi_is_pin)] * 3
    grid, demand = make_case(nx, ny, segments, seed=row, negative_zeros=False)
    # Over capacity along the segment, spare on every neighbour row.
    (demand.dmd_h if horizontal else demand.dmd_v)[...] = 0.5
    (grid.cap_h if horizontal else grid.cap_v)[...] = 2.0
    (demand.dmd_h if horizontal else demand.dmd_v.T)[2:7, row] = 3.0
    before = copy.deepcopy(demand)
    assert_expands_like_oracle(grid, demand, ExpansionParams(radius=2))
    # Perpendicular detour demand appears at Steiner endpoints only.
    perp, old = (demand.dmd_v, before.dmd_v) if horizontal else (demand.dmd_h, before.dmd_h)
    assert np.array_equal(perp, old) == (lo_is_pin and hi_is_pin)


@pytest.mark.parametrize("keep_weight", [0.0, 0.25])
def test_no_spare_anywhere(keep_weight):
    # Every row is full: the original row keeps all the demand (keep
    # weight > 0) or the weights are all zero and nothing moves.
    segments = [(True, 2, 0, 9, False, False), (False, 3, 1, 4, True, False)]
    grid, demand = make_case(10, 5, segments, seed=1, negative_zeros=False)
    grid.cap_h[...] = grid.cap_v[...] = 1.0
    demand.dmd_h[...] = demand.dmd_v[...] = 2.0
    before = copy.deepcopy(demand)
    assert_expands_like_oracle(grid, demand, ExpansionParams(keep_weight=keep_weight))
    assert np.array_equal(demand.dmd_h, before.dmd_h)
    assert np.array_equal(demand.dmd_v, before.dmd_v)


def test_no_segments_and_uncongested_leave_the_maps():
    grid, demand = make_case(6, 6, [], seed=0)
    before = copy.deepcopy(demand)
    expand_demand(grid, demand)
    assert demand.dmd_h.tobytes() == before.dmd_h.tobytes()
    grid, demand = make_case(6, 6, [(True, 1, 0, 5, False, False)], seed=0)
    demand.dmd_h[...] = -0.0
    before = copy.deepcopy(demand)
    expand_demand(grid, demand)
    assert demand.dmd_h.tobytes() == before.dmd_h.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.sampled_from([0.0, -0.0, 1e-300, 0.1, 1e16]),
        ),
        max_size=400,
    )
)
def test_summation_order_is_numpys(values):
    # Below 8, 8-128 and past 128 terms take different paths; a zero
    # result may differ only in its sign, which the expansion never sees.
    want = float(np.asarray(values, dtype=np.float64).sum())
    got = _numpy_sum(values)
    assert got == want
    if want != 0.0:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
