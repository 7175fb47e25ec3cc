"""Whole-flow differential of the batched global-placement evaluation.

The stacked WA model, the one-solve density system and the demand
expansion on Python floats must leave every PUFFER result bit for bit
where the per-axis, per-grid, segment-by-segment evaluation in
``gp_oracle`` left it.
"""

import copy

import numpy as np
import pytest

from repro import api
from repro.core import congestion
from repro.placer import engine

from .gp_oracle import OracleDensity, OracleWirelength, oracle_expand_demand


@pytest.mark.parametrize(
    "design, scale", [("CT_TOP", 0.001), ("OR1200", 0.002), ("MEDIA_SUBSYS", 0.001)]
)
def test_expansion_matches_oracle_every_round(monkeypatch, design, scale):
    expand = congestion.expand_demand
    rounds = []

    def checked(grid, demand, params=None):
        want = copy.deepcopy(demand)
        oracle_expand_demand(grid, want, params)
        expand(grid, demand, params)
        rounds.append(
            np.array_equal(demand.dmd_h, want.dmd_h)
            and np.array_equal(demand.dmd_v, want.dmd_v)
        )

    monkeypatch.setattr(congestion, "expand_demand", checked)
    api.run(design, "puffer", api.RunConfig(scale=scale))
    assert rounds and all(rounds)


def test_flow_matches_old_evaluation(monkeypatch):
    config = api.RunConfig(scale=0.0015)
    new = api.run("OR1200", "puffer", config)
    monkeypatch.setattr(engine, "WirelengthModel", OracleWirelength)
    monkeypatch.setattr(engine, "ElectrostaticDensity", OracleDensity)
    monkeypatch.setattr(congestion, "expand_demand", oracle_expand_demand)
    old = api.run("OR1200", "puffer", config)
    assert np.array_equal(new.design.x, old.design.x)
    assert np.array_equal(new.design.y, old.design.y)
    assert new.hpwl == old.hpwl
    assert new.flow_result.global_place.hpwl == old.flow_result.global_place.hpwl
    assert np.array_equal(new.flow_result.padding, old.flow_result.padding)
    assert np.array_equal(new.flow_result.legal_widths, old.flow_result.legal_widths)
