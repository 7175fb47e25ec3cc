"""End-to-end tests over the committed 6502-class example netlist, and
the kernels against their oracle loops on whole flows."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.cli import main
from repro.netlist import load_yosys
from repro.placer import PlacementParams
from repro.router import GlobalRouter

from . import kernels_oracle

REPO = Path(__file__).resolve().parents[1]
EXAMPLE = REPO / "examples" / "mos6502_mapped.json"
GENERATOR = REPO / "examples" / "make_mos6502.py"


def test_example_is_committed():
    assert EXAMPLE.is_file(), "examples/mos6502_mapped.json missing"


def test_generator_reproduces_committed_file():
    spec = importlib.util.spec_from_file_location("make_mos6502", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    regenerated = json.dumps(module.build(), indent=1, sort_keys=False) + "\n"
    assert regenerated == EXAMPLE.read_text()


def test_ingest_cli(capsys):
    assert main(["ingest", str(EXAMPLE)]) == 0
    out = capsys.readouterr().out
    assert "mos6502" in out
    assert "terminals" in out
    assert "verify[netlist]: 1 checkers, 0 errors, 1 warnings" in out
    assert "36 nets with fewer than two pins" in out


def test_ingest_structure():
    design = load_yosys(str(EXAMPLE))
    assert design.name == "mos6502"
    assert int(design.movable.sum()) == 468
    assert design.num_cells - int(design.movable.sum()) == 44  # port bits
    assert design.num_nets > 400
    # Registers made it through: every DFF output bit got a net.
    assert any(name.startswith("IR") for name in design.net_names)


def test_place_puffer_cli_route_verify_full(capsys):
    code = main(
        ["place", str(EXAMPLE), "--flow", "puffer", "--route", "--verify", "full"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "puffer:" in out
    assert "legal=True" in out
    assert "0 errors" in out


def puffer_run():
    return api.run(
        str(EXAMPLE),
        "puffer",
        api.RunConfig(verify="full"),
        route=True,
    )


@pytest.fixture(scope="module")
def puffer_runs():
    """The routed, fully verified PUFFER run with the kernels
    ("vectorized") and with all six oracle loops swapped in
    ("reference"), each from empty memos, with the nets of every
    Steiner build it made."""
    runs, builds = {}, {}
    for kernel_set in ("reference", "vectorized"):
        with pytest.MonkeyPatch.context() as monkeypatch:
            if kernel_set == "reference":
                kernels_oracle.swap_in(monkeypatch)
            else:
                kernels_oracle.fresh_memos(monkeypatch)
            builds[kernel_set] = kernels_oracle.count_tree_builds(monkeypatch)
            runs[kernel_set] = puffer_run()
    return runs, builds


@pytest.mark.parametrize("kernel_set", ["vectorized", "reference"])
def test_api_puffer_run_verified(puffer_runs, kernel_set):
    result = puffer_runs[0][kernel_set]
    assert result.flow == "puffer"
    assert result.verify_report.ok, result.verify_report.errors
    assert result.route_report is not None
    assert "placement/overlap" in result.verify_report.checkers_run
    assert result.to_summary()["route"]["wirelength"] > 0


def test_api_puffer_run_bit_identical_across_backends(puffer_runs):
    runs, builds = puffer_runs
    vec, ref = runs["vectorized"], runs["reference"]
    assert np.array_equal(vec.design.x, ref.design.x)
    assert np.array_equal(vec.design.y, ref.design.y)
    assert vec.hpwl == ref.hpwl
    # Each run built every tree it used with its own builder.
    assert sum(builds["reference"]) > 0
    assert builds["reference"] == builds["vectorized"]


#: How far routing with the oracle's A* may drift from the kernel's
#: wavefront: the two break maze cost ties differently, and each tie
#: moves later costs.
OVERFLOW_ATOL = 1.0  # percentage points of HOF/VOF
WIRELENGTH_RTOL = 0.05


def test_oracle_maze_routes_within_tolerance(monkeypatch):
    """Route one legalized suite design with the kernel maze search and
    again with the oracle's A* (thousands of maze searches)."""
    placed = api.run(
        "MEDIA_SUBSYS", "puffer",
        api.RunConfig(scale=0.001, placement=PlacementParams(max_iters=300)),
    ).design
    kernel = GlobalRouter(placed).run()
    kernels_oracle.swap_in(monkeypatch, ["maze_search"])
    oracle = GlobalRouter(placed).run()
    assert abs(kernel.hof - oracle.hof) <= OVERFLOW_ATOL
    assert abs(kernel.vof - oracle.vof) <= OVERFLOW_ATOL
    wirelengths = (kernel.wirelength, oracle.wirelength)
    assert abs(wirelengths[0] - wirelengths[1]) <= WIRELENGTH_RTOL * max(wirelengths)
